//! Client lifecycle and concurrency regressions: shutdown on concurrent
//! facade drops, a zero push interval rejected at construction, exact
//! sharded-cache statistics under multi-threaded load, `store_fallbacks`
//! counting only real store-pull failures, and the push watcher catching
//! a publish that lands during a load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration as StdDuration;

use bytes::Bytes;
use rc_core::labels::vm_inputs;
use rc_store::{StoreError, VersionedRecord, MANIFEST_KEY};
use rc_types::vm::SubscriptionId;
use resource_central::prelude::*;

fn trained() -> (Trace, PipelineOutput) {
    let trace = Trace::generate(&TraceConfig {
        target_vms: 5_000,
        n_subscriptions: 200,
        days: 24,
        ..TraceConfig::small()
    });
    let output = rc_core::run_pipeline(&trace, &rc_core::PipelineConfig::fast(24)).unwrap();
    (trace, output)
}

fn world() -> (Trace, Store) {
    let (trace, output) = trained();
    let store = Store::in_memory();
    output.publish(&store, 0.5).unwrap();
    (trace, store)
}

/// Regression: `Drop` used to infer "last facade" from a racy
/// `Arc::strong_count` heuristic; two clones dropped concurrently could
/// both observe a high count, neither would signal shutdown, and the
/// push-watcher thread leaked forever. The explicit facade count makes
/// exactly one drop the shutdown owner, and that drop joins the watcher
/// — so after the last facade is gone, zero worker threads remain,
/// deterministically.
#[test]
fn concurrent_facade_drops_always_stop_workers() {
    let store = Store::in_memory();
    for round in 0..40 {
        let config = ClientConfig {
            auto_refresh_interval: Some(StdDuration::from_millis(5)),
            ..ClientConfig::default()
        };
        let client = RcClient::new(store.clone(), config);
        let lifecycle = client.worker_lifecycle();
        assert_eq!(lifecycle.live(), 1, "push watcher running");

        // Drop every facade simultaneously from racing threads.
        let clones: Vec<RcClient> = (0..4).map(|_| client.clone()).collect();
        drop(client);
        let barrier = Arc::new(Barrier::new(clones.len()));
        let handles: Vec<_> = clones
            .into_iter()
            .map(|facade| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    drop(facade);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lifecycle.live(), 0, "round {round}: worker threads leaked");
    }
}

/// Regression: a zero push interval made the watcher's sleep step zero,
/// so it fingerprinted the whole store in a loop that never slept. The
/// client now refuses it at construction. Construction runs on a helper
/// thread under a deadline, so a client that accepts the interval fails
/// the test instead of hanging it.
#[test]
#[should_panic(expected = "auto_refresh_interval must be positive")]
fn zero_push_watcher_interval_is_rejected() {
    let (built, constructed) = mpsc::channel();
    let builder = std::thread::spawn(move || {
        let config = ClientConfig {
            auto_refresh_interval: Some(StdDuration::ZERO),
            ..ClientConfig::default()
        };
        let client = RcClient::new(Store::in_memory(), config);
        let _ = built.send(());
        client
    });
    match constructed.recv_timeout(StdDuration::from_secs(10)) {
        Ok(()) => {
            drop(builder.join());
            panic!("a zero push interval was accepted");
        }
        Err(RecvTimeoutError::Timeout) => panic!("client construction hung"),
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = builder.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Regression: `fetch_model` bumped `store_fallbacks` on *every*
/// pull-mode fetch, even when the store pull succeeded. Only the actual
/// fall-back-to-disk path (store pull failed) may count.
#[test]
fn store_fallbacks_counts_only_failed_store_pulls() {
    let (trace, store) = world();
    let output = rc_core::run_pipeline(&trace, &rc_core::PipelineConfig::fast(24)).unwrap();
    let config = ClientConfig { mode: CacheMode::Pull, ..ClientConfig::default() };
    let client = RcClient::new(store.clone(), config);
    assert!(client.initialize());

    // Publish a model under a name the client has not cached, so the
    // miss takes the on-demand fetch path — and succeeds at the store.
    store.put("model/CUSTOM", rc_ml::to_bytes(&output.models[0]).into()).unwrap();
    let inputs = vm_inputs(&trace, VmId(3));
    assert!(
        client.predict_single("CUSTOM", &inputs).is_predicted(),
        "the miss should have fetched the published model"
    );
    assert_eq!(
        client.store_fallback_count(),
        0,
        "a successful store pull must not count as a fallback"
    );

    // Now a fetch whose store pull fails: the fallback path must count.
    store.set_available(false);
    assert_eq!(client.predict_single("CUSTOM2", &inputs), PredictionResponse::NoPrediction);
    assert_eq!(client.store_fallback_count(), 1, "failed store pull is exactly one fallback");
}

/// Satellite: ≥4 threads hammering `predict_single` across shards while
/// the push watcher refreshes the caches underneath them. No lost
/// updates: `hits + misses` equals the exact number of lookups issued,
/// insert/eviction counters reconcile, and every thread gets served.
#[test]
fn hammering_threads_never_lose_cache_counts() {
    let (trace, store) = world();
    let config = ClientConfig {
        auto_refresh_interval: Some(StdDuration::from_millis(20)),
        result_cache_shards: 8,
        ..ClientConfig::default()
    };
    let client = RcClient::new(store.clone(), config);
    assert!(client.initialize());
    assert_eq!(client.result_cache_shards(), 8);

    let n_threads = 6u64;
    let per_thread = 500u64;
    let served_total = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(n_threads as usize));
    let mut handles = Vec::new();
    for t in 0..n_threads {
        let c = client.clone();
        let barrier = barrier.clone();
        let served_total = served_total.clone();
        let metric = PredictionMetric::ALL[(t % 6) as usize];
        let inputs: Vec<_> = (0..per_thread)
            .map(|i| vm_inputs(&trace, VmId((t * 37 + i * 11) % trace.n_vms() as u64)))
            .collect();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut served = 0u64;
            for inp in &inputs {
                if c.predict_single(metric.model_name(), inp).is_predicted() {
                    served += 1;
                }
            }
            served_total.fetch_add(served, Ordering::SeqCst);
            served
        }));
    }

    // Republish feature data mid-hammering so the watcher refreshes (and
    // clears the result cache) underneath the predicting threads.
    for sub in 0..3u32 {
        let features = rc_core::SubscriptionFeatures::new(SubscriptionId(900_000 + sub));
        store
            .put(
                &rc_core::feature_store_key(SubscriptionId(900_000 + sub)),
                serde_json::to_vec(&features).unwrap().into(),
            )
            .unwrap();
        std::thread::sleep(StdDuration::from_millis(30));
    }

    let mut all_served = true;
    for h in handles {
        all_served &= h.join().unwrap() > 0;
    }
    assert!(all_served, "every thread must be served at least once");

    let stats = client.result_cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        n_threads * per_thread,
        "every lookup counted exactly once across shards"
    );
    // Push-mode misses insert if (and only if) the model executed; both
    // counters are per-shard-exact, so they must reconcile.
    assert_eq!(stats.insertions, client.model_exec_count(), "insert per model execution");
    assert!(stats.insertions <= stats.misses, "inserts only happen on misses");
    assert!(served_total.load(Ordering::SeqCst) > 0);

    // The watcher runs on its own clock; give it a moment to notice the
    // republished feature data before asserting it refreshed.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    while client.background_refresh_count() == 0 {
        assert!(std::time::Instant::now() < deadline, "watcher never refreshed");
        std::thread::sleep(StdDuration::from_millis(10));
    }
}

/// A store that publishes `next` as a new version right after it serves
/// the first read of the manifest pointer: a publish that lands while a
/// client is loading the version it just read.
struct PublishMidLoad {
    inner: Store,
    next: PipelineOutput,
    published: AtomicBool,
}

impl StoreBackend for PublishMidLoad {
    fn is_available(&self) -> bool {
        self.inner.is_available()
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn get_latest(&self, key: &str) -> Result<VersionedRecord, StoreError> {
        let rec = self.inner.get_latest(key);
        if key == MANIFEST_KEY && !self.published.swap(true, Ordering::SeqCst) {
            self.next.publish(&self.inner, 0.5).unwrap();
        }
        rec
    }

    fn get_version(&self, key: &str, version: u64) -> Result<VersionedRecord, StoreError> {
        self.inner.get_version(key, version)
    }

    fn latest_version(&self, key: &str) -> Option<u64> {
        self.inner.latest_version(key)
    }

    fn put(&self, key: &str, data: Bytes) -> Result<u64, StoreError> {
        self.inner.put(key, data)
    }
}

/// Regression: a load took the store fingerprint after it finished, so a
/// manifest flip between its manifest read and that point was folded
/// into the fingerprint. The push watcher then saw no change and the
/// client served the old version until some later publish.
#[test]
fn push_watcher_reloads_a_publish_that_lands_mid_load() {
    let (_, output) = trained();
    let store = Store::in_memory();
    output.publish(&store, 0.5).unwrap();
    let backend =
        Arc::new(PublishMidLoad { inner: store, next: output, published: AtomicBool::new(false) });
    let config = ClientConfig {
        auto_refresh_interval: Some(StdDuration::from_millis(20)),
        ..ClientConfig::default()
    };
    let client = RcClient::with_backend(backend.clone(), config);
    assert!(client.initialize());
    assert!(backend.published.load(Ordering::SeqCst), "version 2 landed during the load");

    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    while client.manifest_version() != Some(2) {
        assert!(std::time::Instant::now() < deadline, "the watcher never loaded version 2");
        std::thread::sleep(StdDuration::from_millis(10));
    }
}
