//! Pipeline hardening: the failure modes ISSUE 5 guards against.
//!
//! - **Torn publishes**: a store failure at *every* write index of a
//!   publication leaves the previous version fully readable and the
//!   manifest never pointing at a partial version.
//! - **Rollback**: `rc_store::rollback` restores `last_good` and a
//!   reloading client serves it.
//! - **Dirty telemetry**: a `DirtyPlan`-corrupted trace is quarantined
//!   with exact per-category accounting, reconcilable from registry
//!   deltas, bit-identical across same-seed runs (`RC_DIRTY_SEED` picks
//!   the seed; CI runs two).
//! - **Blocked publications**: an ε-regression blocks the flip and leaves
//!   the store byte-identical.
//! - **Poisoned models**: payloads failing checksum or slot-identity
//!   checks are rejected by the client while the resident model keeps
//!   serving; so are checksum-valid payloads whose tree arena would hang
//!   or panic a walk (self-loop, child out of range, truncated slab).
//! - **Metric quarantine**: one metric's failed training quarantines only
//!   that metric; the other five publish and drive the scheduler
//!   end-to-end.
//!
//! The rc-obs registry is process-global, so every test takes one mutex
//! and measures counter deltas inside the critical section.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use bytes::Bytes;
use rc_core::labels::vm_inputs;
use rc_core::{ModelSpec, PipelineError, PublishGate, TrainedModel};
use rc_scheduler::RcSource;
use rc_store::{
    checksum, rollback, Manifest, ModelEntry, StoreError, VersionedRecord, MANIFEST_KEY,
};
use rc_trace::{trace_fingerprint, DirtyPlan};
use rc_types::time::Timestamp;
use resource_central::prelude::*;

/// Serializes the tests in this binary: they assert global-registry
/// deltas.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn world() -> &'static (Trace, PipelineOutput) {
    static WORLD: OnceLock<(Trace, PipelineOutput)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let trace = Trace::generate(&TraceConfig {
            target_vms: 5_000,
            n_subscriptions: 200,
            days: 24,
            ..TraceConfig::small()
        });
        let output = rc_core::run_pipeline(&trace, &rc_core::PipelineConfig::fast(24)).unwrap();
        (trace, output)
    })
}

/// A pipeline run with one metric's training deterministically failing,
/// plus the exact `rc_pipeline_metric_quarantined` delta it caused.
/// Callers hold [`GATE`], so the delta is attributable.
fn degraded() -> &'static (PipelineOutput, u64) {
    static DEGRADED: OnceLock<(PipelineOutput, u64)> = OnceLock::new();
    DEGRADED.get_or_init(|| {
        let (trace, _) = world();
        let before = rc_obs::global().counter(rc_obs::PIPELINE_METRIC_QUARANTINED).get();
        let config = rc_core::PipelineConfig {
            fail_train: vec![PredictionMetric::WorkloadClass],
            ..rc_core::PipelineConfig::fast(24)
        };
        let output = rc_core::run_pipeline(trace, &config).expect("five metrics survive");
        let delta = rc_obs::global().counter(rc_obs::PIPELINE_METRIC_QUARANTINED).get() - before;
        (output, delta)
    })
}

/// The corruption seed; CI runs the suite twice with `RC_DIRTY_SEED=1` / `=2`.
fn dirty_seed() -> u64 {
    std::env::var("RC_DIRTY_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xD127_5017)
}

/// A [`StoreBackend`] that fails exactly one `put` — the `fail_at`-th —
/// so the torn-publish sweep can sever a publication at every write
/// index in turn.
struct FailAt {
    inner: Store,
    fail_at: u64,
    puts: AtomicU64,
}

impl FailAt {
    fn new(inner: Store, fail_at: u64) -> Self {
        FailAt { inner, fail_at, puts: AtomicU64::new(0) }
    }
}

impl StoreBackend for FailAt {
    fn is_available(&self) -> bool {
        self.inner.is_available()
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn get_latest(&self, key: &str) -> Result<VersionedRecord, StoreError> {
        self.inner.get_latest(key)
    }

    fn get_version(&self, key: &str, version: u64) -> Result<VersionedRecord, StoreError> {
        self.inner.get_version(key, version)
    }

    fn latest_version(&self, key: &str) -> Option<u64> {
        self.inner.latest_version(key)
    }

    fn put(&self, key: &str, data: Bytes) -> Result<u64, StoreError> {
        if self.puts.fetch_add(1, Ordering::SeqCst) == self.fail_at {
            return Err(StoreError::Transient);
        }
        self.inner.put(key, data)
    }
}

/// Every payload the manifest points at is present with the recorded
/// checksum — the version is fully readable, not partially written.
fn assert_version_intact(store: &Store, m: &Manifest) {
    for entry in &m.models {
        let rec = store
            .get_latest(&m.versioned_key(&entry.key))
            .unwrap_or_else(|e| panic!("model {} unreadable: {e}", entry.key));
        assert_eq!(checksum(&rec.data), entry.checksum, "model {} corrupt", entry.key);
    }
    for entry in &m.features {
        let rec = store
            .get_latest(&m.versioned_key(&entry.key))
            .unwrap_or_else(|e| panic!("feature {} unreadable: {e}", entry.key));
        assert_eq!(checksum(&rec.data), entry.checksum, "feature {} corrupt", entry.key);
    }
}

#[test]
fn torn_publish_at_every_write_index_leaves_last_good_serving() {
    let _gate = gate();
    let (trace, output) = world();

    // Count the writes one re-publication performs, through a wrapper
    // that never fires.
    let probe_store = Store::in_memory();
    output.publish(&probe_store, 0.5).expect("v1");
    let probe = FailAt::new(probe_store.clone(), u64::MAX);
    output.publish(&probe, 0.5).expect("v2 probe");
    let n_writes = probe.puts.load(Ordering::SeqCst);
    // Phase one: every model and feature payload; phase two: the flip.
    assert_eq!(n_writes as usize, output.models.len() + output.feature_data.len() + 1);

    for fail_at in 0..n_writes {
        let store = Store::in_memory();
        output.publish(&store, 0.5).expect("v1");
        let m1 = Manifest::read_current(&store).unwrap().expect("v1 manifest");

        let torn = FailAt::new(store.clone(), fail_at);
        let err = output.publish(&torn, 0.5).unwrap_err();
        assert!(
            matches!(err, PipelineError::StoreFailed(StoreError::Transient)),
            "write {fail_at}: unexpected error {err}"
        );

        // The manifest never moved, and everything it points at is intact.
        let current = Manifest::read_current(&store).unwrap().expect("manifest survives");
        assert_eq!(current, m1, "manifest moved after a torn publish at write {fail_at}");
        assert_version_intact(&store, &m1);

        // Mid-phase-one representative: a cold client still comes up on
        // the previous version and serves predictions.
        if fail_at == n_writes / 2 {
            let client = RcClient::new(store.clone(), ClientConfig::default());
            assert!(client.initialize(), "client must initialize on last_good");
            assert_eq!(client.manifest_version(), Some(1));
            assert_eq!(client.get_available_models().len(), 6);
            let served = (0..trace.n_vms() as u64)
                .map(|id| vm_inputs(trace, VmId(id)))
                .any(|inputs| client.predict_single("VM_P95UTIL", &inputs).is_predicted());
            assert!(served, "last_good stopped serving after a torn publish");
        }
    }

    // A retry on a store holding a torn attempt's garbage still lands a
    // complete v2: the partial writes were never reachable.
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("v1");
    let torn = FailAt::new(store.clone(), n_writes / 3);
    output.publish(&torn, 0.5).unwrap_err();
    let v2 = output.publish(&store, 0.5).expect("retry lands");
    assert_eq!(v2, 2);
    let m2 = Manifest::read_current(&store).unwrap().expect("v2 manifest");
    assert_eq!((m2.version, m2.last_good), (2, 1));
    assert_version_intact(&store, &m2);
}

#[test]
fn publish_through_a_faulty_store_never_exposes_a_partial_version() {
    let _gate = gate();
    let (_, output) = world();
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("v1");
    let m1 = Manifest::read_current(&store).unwrap().expect("v1 manifest");

    // Realistic fault mix (no corruption: the publish read-path has no
    // checksum retry loop, and a corrupt manifest read would be modelled
    // as a fresh store). Publish keeps failing until a fault-free window;
    // after every failure the published version must be whole.
    let faulty = FaultyStore::new(
        store.clone(),
        FaultPlan {
            seed: dirty_seed(),
            p_unavailable: 0.02,
            p_transient: 0.01,
            transient_burst: 2,
            p_latency_spike: 0.0,
            latency_spike: std::time::Duration::ZERO,
            p_corrupt: 0.0,
        },
    );
    let mut attempts = 0u32;
    let version = loop {
        attempts += 1;
        assert!(attempts <= 500, "publish never landed through the faulty store");
        match output.publish(&faulty, 0.5) {
            Ok(v) => break v,
            Err(PipelineError::StoreFailed(e)) => {
                assert!(e.is_retryable(), "non-retryable mid-publish error: {e}");
                let current = Manifest::read_current(&store).unwrap().expect("manifest");
                assert_eq!(current, m1, "a failed publish moved the manifest");
                assert_version_intact(&store, &m1);
            }
            Err(other) => panic!("unexpected publish error: {other}"),
        }
    };
    assert_eq!(version, 2);
    let m2 = Manifest::read_current(&store).unwrap().expect("v2 manifest");
    assert_eq!((m2.version, m2.last_good), (2, 1));
    assert_version_intact(&store, &m2);
}

#[test]
fn rollback_restores_last_good_and_the_client_serves_it() {
    let _gate = gate();
    let (trace, output) = world();
    let (degraded_output, _) = degraded();

    // v1 publishes all six models; v2 only the five survivors.
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("v1: six models");
    degraded_output
        .publish_gated(&store, PublishGate { min_accuracy: 0.5, max_regression: 1.0 })
        .expect("v2: five models");

    let client = RcClient::new(store.clone(), ClientConfig::default());
    assert!(client.initialize());
    assert_eq!(client.manifest_version(), Some(2));
    assert_eq!(client.get_available_models().len(), 5);

    // The bad publication is noticed; operations rolls back.
    let rollbacks0 = rc_obs::global().counter(rc_obs::PIPELINE_ROLLBACKS).get();
    let restored = rollback(&store).expect("rollback to v1");
    assert_eq!(restored, 1);
    assert_eq!(rc_obs::global().counter(rc_obs::PIPELINE_ROLLBACKS).get() - rollbacks0, 1);
    let current = Manifest::read_current(&store).unwrap().expect("manifest");
    assert_eq!(current.version, 1);
    assert_eq!(current.models.len(), 6);
    assert_version_intact(&store, &current);

    // A reloading client picks the restored version up and the
    // previously-missing model serves again.
    client.force_reload_cache();
    assert_eq!(client.manifest_version(), Some(1));
    let models = client.get_available_models();
    assert_eq!(models.len(), 6, "rollback must restore the quarantined model: {models:?}");
    let name = PredictionMetric::WorkloadClass.model_name();
    let served = (0..trace.n_vms() as u64)
        .map(|id| vm_inputs(trace, VmId(id)))
        .any(|inputs| client.predict_single(name, &inputs).is_predicted());
    assert!(served, "the restored {name} model must serve predictions");

    // v1 has nothing earlier to fall back to.
    assert!(matches!(rollback(&store), Err(rc_store::RollbackError::NoLastGood)));
}

#[test]
fn rollback_chain_walks_history_and_bottoms_out_with_a_typed_error() {
    let _gate = gate();
    let (_, output) = world();

    // Three publications: v3 serves, last_good chains 3 → 2 → 1 → ∅.
    let store = Store::in_memory();
    for version in 1..=3u64 {
        output.publish(&store, 0.5).expect("publish");
        let m = Manifest::read_current(&store).unwrap().expect("manifest");
        assert_eq!((m.version, m.last_good), (version, version - 1));
    }

    // Each rollback steps one link down the chain, re-serving the
    // retained manifest for that version.
    assert_eq!(rollback(&store).expect("v3 -> v2"), 2);
    let m = Manifest::read_current(&store).unwrap().expect("manifest");
    assert_eq!((m.version, m.last_good), (2, 1));
    assert!(m.can_rollback());
    assert_eq!(rollback(&store).expect("v2 -> v1"), 1);
    let m = Manifest::read_current(&store).unwrap().expect("manifest");
    assert_eq!((m.version, m.last_good), (1, 0));

    // The chain bottom: a typed refusal, not a panic or a sentinel
    // chase, and the store is byte-untouched by the failed attempt.
    assert!(!m.can_rollback(), "the first publication advertises no fallback");
    let fp = rc_store::fingerprint(&store);
    assert_eq!(rollback(&store), Err(rc_store::RollbackError::NoLastGood));
    assert_eq!(rollback(&store), Err(rc_store::RollbackError::NoLastGood), "and again: stable");
    assert_eq!(rc_store::fingerprint(&store), fp, "failed rollbacks must not write");
    let m = Manifest::read_current(&store).unwrap().expect("manifest");
    assert_eq!(m.version, 1, "v1 still serves");
}

#[test]
fn dirty_telemetry_is_quarantined_with_exact_accounting() {
    let _gate = gate();
    let trace = Trace::generate(&TraceConfig {
        target_vms: 4_000,
        n_subscriptions: 150,
        days: 24,
        ..TraceConfig::small()
    });
    let plan = DirtyPlan::uniform(dirty_seed(), 0.25);
    let (dirty, dirty_report) = plan.apply(&trace);
    assert!(dirty_report.detectable() > 0, "the plan must actually corrupt something");

    let reg = rc_obs::global();
    let at = |name: &str| reg.counter(name).get();
    let extracted0 = at(rc_obs::PIPELINE_EXTRACTED_RECORDS);
    let cleaned0 = at(rc_obs::PIPELINE_CLEANED_RECORDS);
    let quarantined0 = at(rc_obs::PIPELINE_QUARANTINED_RECORDS);
    let duplicates0 = at(rc_obs::PIPELINE_QUARANTINED_DUPLICATES);
    let invalid0 = at(rc_obs::PIPELINE_QUARANTINED_INVALID_UTIL);
    let skew0 = at(rc_obs::PIPELINE_QUARANTINED_CLOCK_SKEW);
    let truncated0 = at(rc_obs::PIPELINE_QUARANTINED_TRUNCATED);
    let orphaned0 = at(rc_obs::PIPELINE_QUARANTINED_ORPHANED);

    let output = rc_core::run_pipeline(&dirty, &rc_core::PipelineConfig::fast(24))
        .expect("the pipeline survives dirty telemetry");
    let q = &output.quarantine;

    // The invariant: extracted == cleaned + quarantined, per category,
    // and the registry deltas reconcile with the report exactly.
    assert!(q.balanced(), "unbalanced: {q}");
    assert_eq!(q.extracted, q.cleaned + q.quarantined());
    assert_eq!(q.extracted, dirty.vms.len() as u64);
    assert_eq!(at(rc_obs::PIPELINE_EXTRACTED_RECORDS) - extracted0, q.extracted);
    assert_eq!(at(rc_obs::PIPELINE_CLEANED_RECORDS) - cleaned0, q.cleaned);
    assert_eq!(at(rc_obs::PIPELINE_QUARANTINED_RECORDS) - quarantined0, q.quarantined());
    assert_eq!(at(rc_obs::PIPELINE_QUARANTINED_DUPLICATES) - duplicates0, q.duplicates);
    assert_eq!(at(rc_obs::PIPELINE_QUARANTINED_INVALID_UTIL) - invalid0, q.invalid_util);
    assert_eq!(at(rc_obs::PIPELINE_QUARANTINED_CLOCK_SKEW) - skew0, q.clock_skew);
    assert_eq!(at(rc_obs::PIPELINE_QUARANTINED_TRUNCATED) - truncated0, q.truncated);
    assert_eq!(at(rc_obs::PIPELINE_QUARANTINED_ORPHANED) - orphaned0, q.orphaned);

    // And with the injected corruption: everything still present in the
    // dirty trace was caught, in its own category.
    assert_eq!(q.quarantined(), dirty_report.detectable());
    assert_eq!(q.duplicates, dirty_report.duplicated);
    assert_eq!(q.invalid_util, dirty_report.nan_util + dirty_report.out_of_range_util);
    assert_eq!(q.clock_skew, dirty_report.clock_skew);
    assert_eq!(q.truncated, dirty_report.truncated);
    assert_eq!(q.orphaned, dirty_report.orphaned);

    // The cleaned stream still trains all six models and publishes.
    assert_eq!(output.models.len(), 6);
    assert!(output.quarantined_metrics.is_empty());
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("publish from cleaned telemetry");

    // Same-seed runs are bit-identical: corruption schedule, quarantine
    // decisions, and the cleaned trace itself.
    let (dirty2, report2) = plan.apply(&trace);
    assert_eq!(report2, dirty_report);
    assert_eq!(trace_fingerprint(&dirty2), trace_fingerprint(&dirty));
    let (clean1, q1) = rc_core::cleanup(&dirty);
    let (clean2, q2) = rc_core::cleanup(&dirty2);
    assert_eq!(q1, q2);
    assert_eq!(q1, *q);
    assert_eq!(trace_fingerprint(clean1.as_ref()), trace_fingerprint(clean2.as_ref()));
}

#[test]
fn a_regressed_model_blocks_publication_and_leaves_the_store_untouched() {
    let _gate = gate();
    let (_, output) = world();
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("v1");
    let m1 = Manifest::read_current(&store).unwrap().expect("v1 manifest");

    // Doctor the published manifest so every model looks far better than
    // the candidate: any republication is now an ε-regression.
    let inflated: Vec<ModelEntry> = m1
        .models
        .iter()
        .map(|e| ModelEntry {
            key: e.key.clone(),
            checksum: e.checksum,
            accuracy: e.accuracy + 0.5,
        })
        .collect();
    let doctored = Manifest::new(
        m1.version,
        m1.last_good,
        m1.version_tag.clone(),
        inflated,
        m1.features.clone(),
    );
    store.put(MANIFEST_KEY, doctored.to_bytes()).unwrap();

    let reg = rc_obs::global();
    let blocked0 = reg.counter(rc_obs::PIPELINE_PUBLISH_BLOCKED).get();
    let keys_before = store.keys();
    let manifest_history_before = store.latest_version(MANIFEST_KEY);

    let err = output.publish(&store, 0.5).unwrap_err();
    assert!(matches!(err, PipelineError::PublishBlocked { .. }), "wrong error: {err}");
    assert_eq!(reg.counter(rc_obs::PIPELINE_PUBLISH_BLOCKED).get() - blocked0, 1);

    // Gates run before writes: the store is byte-identical — no new
    // keys, no new manifest version, the doctored manifest still serving.
    assert_eq!(store.keys(), keys_before);
    assert_eq!(store.latest_version(MANIFEST_KEY), manifest_history_before);
    let current = Manifest::read_current(&store).unwrap().expect("manifest");
    assert_eq!(current, doctored);

    // A widened ε admits the same candidate.
    let version = output
        .publish_gated(&store, PublishGate { min_accuracy: 0.5, max_regression: 1.0 })
        .expect("wide gate");
    assert_eq!(version, 2);
}

#[test]
fn a_poisoned_model_payload_is_rejected_and_the_old_model_keeps_serving() {
    let _gate = gate();
    let (trace, output) = world();
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("v1");

    let client = RcClient::new(store.clone(), ClientConfig::default());
    assert!(client.initialize());
    let inputs = (0..trace.n_vms() as u64)
        .map(|id| vm_inputs(trace, VmId(id)))
        .find(|inputs| client.predict_single("VM_P95UTIL", inputs).is_predicted())
        .expect("some subscription must be predictable");
    let before = client.predict_single("VM_P95UTIL", &inputs);

    // v2 lands, then bit-rot scribbles over its P95 payload *after* the
    // manifest sealed the checksum.
    output.publish(&store, 0.5).expect("v2");
    let m2 = Manifest::read_current(&store).unwrap().expect("v2 manifest");
    let logical = ModelSpec::for_metric(PredictionMetric::P95MaxCpuUtil).store_key();
    store.put(&m2.versioned_key(&logical), b"rotten bits".to_vec().into()).unwrap();

    let rejected0 = rc_obs::global().counter(rc_obs::CLIENT_MODEL_REJECTED).get();
    client.force_reload_cache();
    assert_eq!(client.manifest_version(), Some(2));
    assert_eq!(client.model_rejected_count(), 1, "the rotten payload must be rejected");
    assert_eq!(rc_obs::global().counter(rc_obs::CLIENT_MODEL_REJECTED).get() - rejected0, 1);

    // Containment: the rejected payload never swapped in — the resident
    // model keeps serving, and every slot is still populated.
    assert_eq!(client.get_available_models().len(), 6);
    assert_eq!(client.predict_single("VM_P95UTIL", &inputs), before);

    // A validly-checksummed payload sitting in the *wrong* slot is also
    // rejected: the decoded model's identity must match the slot.
    let avg_logical = ModelSpec::for_metric(PredictionMetric::AvgCpuUtil).store_key();
    let avg_bytes = store.get_latest(&m2.versioned_key(&avg_logical)).unwrap().data;
    store.put(&m2.versioned_key(&logical), avg_bytes.clone()).unwrap();
    let swapped_models: Vec<ModelEntry> = m2
        .models
        .iter()
        .map(|e| {
            if e.key == logical {
                ModelEntry {
                    key: e.key.clone(),
                    checksum: checksum(&avg_bytes),
                    accuracy: e.accuracy,
                }
            } else {
                e.clone()
            }
        })
        .collect();
    let swapped = Manifest::new(
        m2.version,
        m2.last_good,
        m2.version_tag.clone(),
        swapped_models,
        m2.features.clone(),
    );
    store.put(MANIFEST_KEY, swapped.to_bytes()).unwrap();

    client.force_reload_cache();
    assert_eq!(client.model_rejected_count(), 2, "the wrong-slot payload must be rejected");
    assert_eq!(client.get_available_models().len(), 6);
    assert_eq!(client.predict_single("VM_P95UTIL", &inputs), before);
}

/// Rewrites the first JSON array stored under `"column":` in a model
/// payload, element by element.
fn edit_column(payload: &[u8], column: &str, edit: impl FnOnce(&mut Vec<String>)) -> Vec<u8> {
    let text = std::str::from_utf8(payload).expect("model payloads are JSON text");
    let start = text.find(&format!("\"{column}\":[")).expect("column present") + column.len() + 4;
    let end = start + text[start..].find(']').expect("array closes");
    let mut items: Vec<String> = text[start..end].split(',').map(str::to_owned).collect();
    edit(&mut items);
    format!("{}{}{}", &text[..start], items.join(","), &text[end..]).into_bytes()
}

/// A decoded child index used to be trusted: a garbled payload whose
/// manifest checksum still matched could send the client's sanity probe
/// into a self-referencing node (a hang) or past the end of the node list
/// (a panic). Decoding now validates the arena, so each of these is an
/// ordinary rejected payload. So is a well-formed model relabelled to a
/// narrower spec: the class model (34 features) sealed in the lifetime
/// slot (26) used to decode and then panic on its first prediction.
#[test]
fn a_garbled_arena_is_a_decode_error_and_the_old_model_keeps_serving() {
    let _gate = gate();
    let (trace, output) = world();
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("v1");
    let client = RcClient::new(store.clone(), ClientConfig::default());
    assert!(client.initialize());
    let lifetime_name = PredictionMetric::Lifetime.model_name();
    let inputs = (0..trace.n_vms() as u64)
        .map(|id| vm_inputs(trace, VmId(id)))
        .find(|inputs| {
            client.predict_single("VM_P95UTIL", inputs).is_predicted()
                && client.predict_single(lifetime_name, inputs).is_predicted()
        })
        .expect("some subscription must be predictable");
    let before = client.predict_single("VM_P95UTIL", &inputs);
    let lifetime_before = client.predict_single(lifetime_name, &inputs);

    let manifest = Manifest::read_current(&store).unwrap().expect("v1 manifest");
    let payload = |logical: &str| store.get_latest(&manifest.versioned_key(logical)).unwrap().data;
    let logical = ModelSpec::for_metric(PredictionMetric::P95MaxCpuUtil).store_key();
    let lifetime = ModelSpec::for_metric(PredictionMetric::Lifetime).store_key();
    let good = payload(&logical);
    assert!(rc_ml::from_bytes::<TrainedModel>(&good).is_ok());
    let class = payload(&ModelSpec::for_metric(PredictionMetric::WorkloadClass).store_key());
    let class = std::str::from_utf8(&class).expect("model payloads are JSON text");
    assert!(class.contains("\"WorkloadClass\""));
    let relabelled = class.replacen("\"WorkloadClass\"", "\"Lifetime\"", 1).into_bytes();

    let garbled = [
        ("self-loop", &logical, edit_column(&good, "left", |left| left[1] = "1".into())),
        (
            "child out of range",
            &logical,
            edit_column(&good, "left", |left| left[0] = "4000000000".into()),
        ),
        ("feature out of range", &logical, edit_column(&good, "feature", |f| f[0] = "127".into())),
        (
            "truncated slab",
            &logical,
            edit_column(&good, "leaf_probs", |probs| probs.truncate(probs.len() - 1)),
        ),
        ("short column", &logical, edit_column(&good, "threshold", |t| t.truncate(t.len() - 1))),
        (
            "dangling root",
            &logical,
            edit_column(&good, "roots", |roots| roots[0] = "4000000000".into()),
        ),
        ("relabelled to a narrower spec", &lifetime, relabelled),
    ];
    for (n, (what, slot, bytes)) in garbled.iter().enumerate() {
        assert!(rc_ml::from_bytes::<TrainedModel>(bytes).is_err(), "{what} must not decode");

        // Seal the garbled bytes under a matching checksum and reload.
        let original = payload(slot);
        store.put(&manifest.versioned_key(slot), bytes.clone().into()).unwrap();
        let models = manifest
            .models
            .iter()
            .map(|e| ModelEntry {
                checksum: if e.key == **slot { checksum(bytes) } else { e.checksum },
                ..e.clone()
            })
            .collect();
        let sealed = Manifest::new(
            manifest.version,
            manifest.last_good,
            manifest.version_tag.clone(),
            models,
            manifest.features.clone(),
        );
        store.put(MANIFEST_KEY, sealed.to_bytes()).unwrap();
        let rejected0 = rc_obs::global().counter(rc_obs::CLIENT_MODEL_REJECTED).get();
        client.force_reload_cache();
        assert_eq!(
            rc_obs::global().counter(rc_obs::CLIENT_MODEL_REJECTED).get() - rejected0,
            1,
            "{what} lands on rc_client_model_rejected"
        );
        assert_eq!(client.model_rejected_count(), n as u64 + 1);
        assert_eq!(client.get_available_models().len(), 6);
        assert_eq!(client.predict_single("VM_P95UTIL", &inputs), before, "{what}");
        assert_eq!(client.predict_single(lifetime_name, &inputs), lifetime_before, "{what}");
        // Put the slot's own payload back, so the next case garbles one.
        store.put(&manifest.versioned_key(slot), original).unwrap();
    }

    // A name the manifest does not list is pulled from its flat key,
    // where the same bytes are an undecodable payload: counted on
    // rc_client_corrupt_payloads, never served.
    let pull = RcClient::new(
        store.clone(),
        ClientConfig {
            mode: CacheMode::Pull,
            retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            ..ClientConfig::default()
        },
    );
    assert!(pull.initialize());
    for (what, _, bytes) in [&garbled[0], &garbled[6]] {
        store.put("model/UNLISTED", bytes.clone().into()).unwrap();
        let corrupt0 = rc_obs::global().counter(rc_obs::CLIENT_CORRUPT_PAYLOADS).get();
        assert_eq!(
            pull.predict_single("UNLISTED", &inputs),
            PredictionResponse::NoPrediction,
            "{what}: no decodable model, nothing to serve"
        );
        assert_eq!(
            rc_obs::global().counter(rc_obs::CLIENT_CORRUPT_PAYLOADS).get() - corrupt0,
            1,
            "{what}"
        );
    }
}

#[test]
fn five_of_six_metrics_publish_and_the_scheduler_runs_end_to_end() {
    let _gate = gate();
    let (trace, _) = world();
    let (output, quarantined_delta) = degraded();

    // Exactly the failed metric was quarantined, with its panic message
    // captured; the survivors validated normally.
    assert_eq!(*quarantined_delta, 1);
    assert_eq!(output.models.len(), 5);
    assert_eq!(output.reports.len(), 5);
    let (metric, message) = &output.quarantined_metrics[0];
    assert_eq!(*metric, PredictionMetric::WorkloadClass);
    assert!(message.contains("injected training fault"), "message: {message}");
    assert!(output.reports.iter().all(|r| r.metric != PredictionMetric::WorkloadClass));

    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("five models publish");
    let m = Manifest::read_current(&store).unwrap().expect("manifest");
    assert_eq!(m.models.len(), 5);
    assert_version_intact(&store, &m);

    let client = RcClient::new(store.clone(), ClientConfig::default());
    assert!(client.initialize());
    let models = client.get_available_models();
    assert_eq!(models.len(), 5, "{models:?}");
    let missing = PredictionMetric::WorkloadClass.model_name();
    assert!(!models.contains(&missing.to_string()));
    // The quarantined metric degrades to no-prediction, not an error.
    let inputs = vm_inputs(trace, VmId(0));
    assert_eq!(client.predict_single(missing, &inputs), PredictionResponse::NoPrediction);

    // End-to-end: the RC-informed scheduler runs the test month on the
    // surviving models.
    let from = Timestamp::from_days(16);
    let until = Timestamp::from_days(24);
    let requests = VmRequest::stream(trace, from, until, 16);
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
    let report =
        simulate(&requests, &config, Box::new(RcSource::new(client.clone())), (from, until));
    assert_eq!(report.n_arrivals, requests.len() as u64);
    assert!(report.failure_rate() < 0.05, "failure rate {}", report.failure_rate());
    assert!(client.lookup_count() > 0, "the scheduler never consulted RC");
}
