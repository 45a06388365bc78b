//! End-to-end degradation: when the RC client goes `Offline` mid-run,
//! the RC-informed scheduler must degrade to exactly the behaviour it
//! would have with no prediction source at all (§4.3: RC is not on the
//! critical path; Algorithm 1 falls back to assuming full utilization).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rc_scheduler::{NoSource, P95Source, RcSource};
use rc_types::time::Timestamp;
use resource_central::prelude::*;

fn world() -> (Trace, Store) {
    let trace = Trace::generate(&TraceConfig {
        target_vms: 5_000,
        n_subscriptions: 200,
        days: 24,
        ..TraceConfig::small()
    });
    let output = rc_core::run_pipeline(&trace, &rc_core::PipelineConfig::fast(24)).unwrap();
    let store = Store::in_memory();
    output.publish(&store, 0.5).unwrap();
    (trace, store)
}

/// Live RC predictions until call `flip_at`, at which point the store
/// goes down and the client's caches are flushed — the client reports
/// `Offline` for the rest of the run.
struct OutageSource {
    inner: RcSource,
    store: Store,
    calls: AtomicU64,
    flip_at: u64,
    /// The client's `(lookups, defaults)` right after the flush.
    at_flip: Arc<OnceLock<(u64, u64)>>,
}

impl P95Source for OutageSource {
    fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == self.flip_at {
            self.store.set_available(false);
            let client = self.inner.client();
            client.flush_cache();
            assert!(client.health().is_offline(), "flushed client must go Offline");
            assert!(client.is_offline());
            self.at_flip.set((client.lookup_count(), client.no_prediction_count())).unwrap();
        }
        self.inner.predict_p95(req)
    }
}

/// The reference behaviour: the same live source for the first `flip_at`
/// calls, then a hard switch to `NoSource`.
struct SplitSource {
    inner: RcSource,
    calls: AtomicU64,
    flip_at: u64,
}

impl P95Source for SplitSource {
    fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)> {
        if self.calls.fetch_add(1, Ordering::SeqCst) < self.flip_at {
            self.inner.predict_p95(req)
        } else {
            NoSource.predict_p95(req)
        }
    }
}

#[test]
fn offline_client_degrades_scheduler_to_no_source_exactly() {
    let (trace, store) = world();
    let from = Timestamp::from_days(16);
    let until = Timestamp::from_days(24);
    let requests = VmRequest::stream(&trace, from, until, 16);
    assert!(requests.len() > 300, "need a real arrival stream, got {}", requests.len());
    let config = SimConfig {
        n_servers: suggest_server_count(&requests, 16.0, 1.0),
        cores_per_server: 16.0,
        memory_per_server_gb: 112.0,
        scheduler: SchedulerConfig::new(PolicyKind::RcInformedSoft),
        util_shift: 0.0,
        tick_stride: 3,
        obs_tick_secs: rc_scheduler::OBS_TICK_DAILY,
        accuracy: None,
    };
    const FLIP_AT: u64 = 100;

    // Reference run first: it must not observe the outage the second run
    // inflicts on the shared store.
    let reference = {
        let client = RcClient::new(store.clone(), ClientConfig::default());
        assert!(client.initialize());
        let source = SplitSource {
            inner: RcSource::new(client),
            calls: AtomicU64::new(0),
            flip_at: FLIP_AT,
        };
        simulate(&requests, &config, Box::new(source), (from, until))
    };

    // Outage run: same simulation, but the source's RC client actually
    // loses its store and caches at the flip.
    let at_flip = Arc::new(OnceLock::new());
    let (outage, client) = {
        let client = RcClient::new(store.clone(), ClientConfig::default());
        assert!(client.initialize());
        let source = OutageSource {
            inner: RcSource::new(client.clone()),
            store: store.clone(),
            calls: AtomicU64::new(0),
            flip_at: FLIP_AT,
            at_flip: Arc::clone(&at_flip),
        };
        (simulate(&requests, &config, Box::new(source), (from, until)), client)
    };

    // The client really served predictions before the flip, and really
    // ended the run offline.
    assert!(client.lookup_count() > 0, "RC was never consulted before the outage");
    assert!(client.health().is_offline());
    // After the flip every placement skipped the lookup: not one more
    // lookup or default was counted.
    let &(lookups, defaults) = at_flip.get().expect("the run reached the flip");
    assert_eq!(client.lookup_count(), lookups, "an Offline client was still asked");
    assert_eq!(client.no_prediction_count(), defaults);

    // Identical placements, failures, readings — byte for byte. An
    // Offline client is indistinguishable from having no source.
    let reference_json = serde_json::to_vec(&reference).unwrap();
    let outage_json = serde_json::to_vec(&outage).unwrap();
    assert_eq!(
        reference_json, outage_json,
        "outage run diverged from the NoSource reference:\n  reference: {reference:?}\n  outage:    {outage:?}"
    );
    assert_eq!(outage.n_arrivals, requests.len() as u64);
}
