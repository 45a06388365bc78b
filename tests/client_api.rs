//! Table 2 API coverage: every client method, both caching modes, and the
//! degraded paths (store unavailable, disk cache, no-prediction).

use std::sync::{Arc, Mutex};
use std::time::Duration as StdDuration;

use bytes::Bytes;
use rc_core::labels::vm_inputs;
use rc_store::{StoreError, VersionedRecord};
use rc_types::vm::SubscriptionId;
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rc_client_api_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Models RC's next offline run publishing feature data for one
/// subscription, new or already listed: writes the payload under the
/// current version prefix and flips an updated manifest whose entry for
/// it carries the new checksum.
fn put_feature_record(store: &Store, features: &rc_core::SubscriptionFeatures) {
    use rc_store::{checksum, FeatureEntry, Manifest, MANIFEST_KEY};
    let m = Manifest::read_current(store).expect("store up").expect("published manifest");
    let logical = rc_core::feature_store_key(features.subscription);
    let bytes = serde_json::to_vec(features).unwrap();
    store.put(&m.versioned_key(&logical), bytes.clone().into()).unwrap();
    let mut feature_entries: Vec<FeatureEntry> =
        m.features.iter().filter(|e| e.key != logical).cloned().collect();
    feature_entries.push(FeatureEntry { key: logical, checksum: checksum(&bytes) });
    let updated = Manifest::new(
        m.version,
        m.last_good,
        m.version_tag.clone(),
        m.models.clone(),
        feature_entries,
    );
    store.put(MANIFEST_KEY, updated.to_bytes()).unwrap();
}

#[test]
fn initialize_is_required_before_predictions() {
    let (trace, store) = world();
    let client = RcClient::new(store, ClientConfig::default());
    let inputs = vm_inputs(&trace, VmId(0));
    assert_eq!(client.predict_single("VM_AVGUTIL", &inputs), PredictionResponse::NoPrediction);
    assert!(client.initialize());
    // After initialize, most requests are served.
    assert!(client.get_available_models().contains(&"VM_AVGUTIL".to_string()));
}

#[test]
fn initialize_fails_without_store_or_disk() {
    let (_, store) = world();
    store.set_available(false);
    let client = RcClient::new(store, ClientConfig::default());
    assert!(!client.initialize(), "nothing to load from");
}

#[test]
fn get_available_models_lists_all_six() {
    let (_, store) = world();
    let client = RcClient::new(store, ClientConfig::default());
    client.initialize();
    let models = client.get_available_models();
    for metric in PredictionMetric::ALL {
        assert!(models.contains(&metric.model_name().to_string()), "missing {metric}");
    }
}

#[test]
fn unknown_model_and_unknown_subscription_yield_no_prediction() {
    let (trace, store) = world();
    let client = RcClient::new(store, ClientConfig::default());
    client.initialize();
    let mut inputs = vm_inputs(&trace, VmId(0));
    assert_eq!(client.predict_single("NOT_A_MODEL", &inputs), PredictionResponse::NoPrediction);
    // A subscription RC has never seen (e.g. created after the last
    // feature push) answers no-prediction rather than guessing.
    inputs.subscription = SubscriptionId(9_999_999);
    assert_eq!(client.predict_single("VM_AVGUTIL", &inputs), PredictionResponse::NoPrediction);
    assert!(client.no_prediction_count() >= 2);
}

#[test]
fn predict_many_matches_predict_single() {
    let (trace, store) = world();
    let client = RcClient::new(store, ClientConfig::default());
    client.initialize();
    let batch: Vec<_> = (0..20u64).map(|i| vm_inputs(&trace, VmId(i * 11))).collect();
    let many = client.predict_many("VM_LIFETIME", &batch);
    assert_eq!(many.len(), batch.len());
    for (inputs, expected) in batch.iter().zip(&many) {
        assert_eq!(client.predict_single("VM_LIFETIME", inputs), *expected);
    }
}

/// A store whose reads wait while a test holds `gate`, so a pull-mode
/// refresh cannot land before the test lets it.
struct Gated {
    inner: Store,
    gate: Mutex<()>,
}

impl StoreBackend for Gated {
    fn is_available(&self) -> bool {
        self.inner.is_available()
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn get_latest(&self, key: &str) -> Result<VersionedRecord, StoreError> {
        drop(self.gate.lock().unwrap());
        self.inner.get_latest(key)
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

/// `predict_many` is `predict_single` over its inputs: every response and
/// every counter equals what the same inputs sent one by one leave, and a
/// key repeated in the batch runs its model once (its first occurrence
/// fills the result cache, so the later ones hit).
#[test]
fn predict_many_equals_one_by_one_calls() {
    let (trace, store) = world();
    let a = vm_inputs(&trace, VmId(3));
    let b = vm_inputs(&trace, VmId(5));

    let client = RcClient::new(store.clone(), ClientConfig::default());
    assert!(client.initialize());
    let out = client.predict_many("VM_AVGUTIL", &[a, b, a, b, a]);
    assert!(out[0].is_predicted() && out[1].is_predicted());
    assert_eq!(out[0], out[2]);
    assert_eq!(out[0], out[4]);
    assert_eq!(out[1], out[3]);
    assert_eq!(client.model_exec_count(), 2);
    let stats = client.result_cache_stats();
    assert_eq!((stats.hits, stats.misses), (3, 2));

    let mut unknown = vm_inputs(&trace, VmId(7));
    unknown.subscription = SubscriptionId(9_999_999);
    let batch = [a, unknown, b, a, unknown, b, a];
    for mode in [CacheMode::Push, CacheMode::PullSync] {
        let config = ClientConfig { mode, ..ClientConfig::default() };
        let batched = RcClient::new(store.clone(), config.clone());
        let single = RcClient::new(store.clone(), config);
        assert!(batched.initialize() && single.initialize());
        let many = batched.predict_many("VM_AVGUTIL", &batch);
        let one_by_one: Vec<_> =
            batch.iter().map(|i| single.predict_single("VM_AVGUTIL", i)).collect();
        assert_eq!(many, one_by_one, "{mode:?}");
        assert_eq!(many[1], PredictionResponse::NoPrediction, "{mode:?}");
        assert_eq!(batched.result_cache_stats(), single.result_cache_stats(), "{mode:?}");
        let counts = |c: &RcClient| {
            (c.model_exec_count(), c.lookup_count(), c.fresh_fetch_count(), c.no_prediction_count())
        };
        assert_eq!(counts(&batched), counts(&single), "{mode:?}");
        assert_eq!(batched.model_exec_count(), 2, "{mode:?}");
    }

    // Pull mode: with the refreshes held back, the whole batch answers
    // no-prediction; once they land, the same batch is all hits, and each
    // unique key ran its model once.
    let gated = Arc::new(Gated { inner: store, gate: Mutex::new(()) });
    let pull = RcClient::with_backend(
        gated.clone(),
        ClientConfig { mode: CacheMode::Pull, ..ClientConfig::default() },
    );
    assert!(pull.initialize());
    let batch = [a, b, a, b, a];
    let held = gated.gate.lock().unwrap();
    let first = pull.predict_many("VM_AVGUTIL", &batch);
    drop(held);
    assert!(first.iter().all(|r| *r == PredictionResponse::NoPrediction));
    pull.drain_pull_queue();
    let hits_before = pull.result_cache_stats().hits;
    let again = pull.predict_many("VM_AVGUTIL", &batch);
    assert!(again.iter().all(|r| r.is_predicted()));
    assert_eq!(pull.result_cache_stats().hits - hits_before, batch.len() as u64);
    assert_eq!(pull.model_exec_count(), 2);
}

#[test]
fn flush_cache_drops_everything() {
    let (trace, store) = world();
    let client = RcClient::new(store, ClientConfig::default());
    client.initialize();
    let inputs = vm_inputs(&trace, VmId(3));
    client.predict_single("VM_AVGUTIL", &inputs);
    client.flush_cache();
    assert!(client.get_available_models().is_empty());
    assert_eq!(client.predict_single("VM_AVGUTIL", &inputs), PredictionResponse::NoPrediction);
    // A re-initialize recovers.
    assert!(client.initialize());
    assert!(client.predict_single("VM_AVGUTIL", &inputs).is_predicted());
}

#[test]
fn force_reload_picks_up_new_feature_data() {
    let (trace, store) = world();
    let client = RcClient::new(store.clone(), ClientConfig::default());
    client.initialize();
    let mut inputs = vm_inputs(&trace, VmId(3));
    let fresh_sub = SubscriptionId(424_242);
    inputs.subscription = fresh_sub;
    assert_eq!(client.predict_single("VM_AVGUTIL", &inputs), PredictionResponse::NoPrediction);
    // RC's next offline run publishes feature data for the new
    // subscription; a push refresh makes it predictable.
    let features = rc_core::SubscriptionFeatures::new(fresh_sub);
    put_feature_record(&store, &features);
    client.force_reload_cache();
    assert!(client.predict_single("VM_AVGUTIL", &inputs).is_predicted());
}

/// Trains on a trace generated from `seed` and publishes the result as the
/// store's next version, whatever its accuracy against the previous one.
fn publish_seeded(store: &Store, seed: u64) -> Trace {
    let trace = Trace::generate(&TraceConfig {
        seed,
        target_vms: 5_000,
        n_subscriptions: 200,
        days: 24,
        ..TraceConfig::small()
    });
    let output = rc_core::run_pipeline(&trace, &rc_core::PipelineConfig::fast(24)).unwrap();
    output.publish_gated(store, PublishGate { min_accuracy: 0.0, max_regression: 1.0 }).unwrap();
    trace
}

/// Regression: a reload replaced a pull-mode client's models but kept
/// the previous version's feature records, so it went on answering from
/// them. After the reload it must answer exactly as a client that
/// started on the new version.
#[test]
fn force_reload_replaces_pull_mode_feature_records() {
    let store = Store::in_memory();
    let trace = publish_seeded(&store, 1);
    let lookups: Vec<_> = (0..50u64)
        .flat_map(|i| {
            let inputs = vm_inputs(&trace, VmId(i * 7));
            PredictionMetric::ALL.into_iter().map(move |m| (m.model_name(), inputs))
        })
        .collect();
    let config = ClientConfig { mode: CacheMode::PullSync, ..ClientConfig::default() };
    let client = RcClient::new(store.clone(), config.clone());
    assert!(client.initialize());
    for (model, inputs) in &lookups {
        client.predict_single(model, inputs);
    }

    publish_seeded(&store, 2);
    client.force_reload_cache();
    let fresh = RcClient::new(store, config);
    assert!(fresh.initialize());
    assert_eq!(client.manifest_version(), fresh.manifest_version());
    for (model, inputs) in &lookups {
        assert_eq!(
            client.predict_single(model, inputs),
            fresh.predict_single(model, inputs),
            "{model} for {:?}",
            inputs.subscription
        );
    }
}

#[test]
fn disk_cache_survives_store_outage_and_restart() {
    let (trace, store) = world();
    let dir = temp_dir("disk");
    let config = ClientConfig { disk_cache_dir: Some(dir.clone()), ..ClientConfig::default() };
    // First client mirrors everything to disk.
    let first = RcClient::new(store.clone(), config.clone());
    assert!(first.initialize());
    drop(first);

    // "Client crashes and restarts and the store is unavailable" (§4.2):
    // the restart loads from the local disk cache.
    store.set_available(false);
    let second = RcClient::new(store.clone(), config.clone());
    assert!(second.initialize(), "disk cache should cover the outage");
    let inputs = vm_inputs(&trace, VmId(5));
    assert!(second.predict_single("VM_P95UTIL", &inputs).is_predicted());

    // An *expired* disk cache is ignored.
    let expired = ClientConfig {
        disk_cache_dir: Some(dir.clone()),
        disk_cache_expiry: StdDuration::ZERO,
        ..ClientConfig::default()
    };
    std::thread::sleep(StdDuration::from_millis(15));
    let third = RcClient::new(store, expired);
    assert!(!third.initialize(), "expired disk cache must not serve");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: the disk rung checked a feature record against the
/// manifest's checksum of the *current* store payload, so once a flip
/// rewrote the record, the older disk copy was refused as corrupt and
/// the lookup answered the default. The disk copy's own frame checksum
/// is its check, as it is for a disk model.
#[test]
fn older_disk_feature_record_serves_through_a_store_outage() {
    let (trace, store) = world();
    let dir = temp_dir("disk_features");
    let config = ClientConfig {
        mode: CacheMode::PullSync,
        disk_cache_dir: Some(dir.clone()),
        ..ClientConfig::default()
    };
    let client = RcClient::new(store.clone(), config);
    assert!(client.initialize());
    let inputs = vm_inputs(&trace, VmId(5));
    // The fetch mirrors the subscription's record to disk.
    assert!(client.predict_single("VM_P95UTIL", &inputs).is_predicted());

    // RC's next run rewrites that record (and its manifest checksum).
    let m = rc_store::Manifest::read_current(&store).expect("store up").expect("manifest");
    let logical = rc_core::feature_store_key(inputs.subscription);
    let rec = store.get_latest(&m.versioned_key(&logical)).expect("record published");
    let mut features: rc_core::SubscriptionFeatures = serde_json::from_slice(&rec.data).unwrap();
    features.n_vms += 1;
    put_feature_record(&store, &features);
    client.force_reload_cache();

    store.set_available(false);
    let corrupt = client.corrupt_payload_count();
    assert!(client.predict_single("VM_P95UTIL", &inputs).is_predicted());
    assert_eq!(client.corrupt_payload_count(), corrupt, "the older disk copy is not corrupt");
    assert_eq!(client.store_fallback_count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn push_watcher_picks_up_new_publications() {
    let (trace, store) = world();
    let config = ClientConfig {
        auto_refresh_interval: Some(StdDuration::from_millis(40)),
        ..ClientConfig::default()
    };
    let client = RcClient::new(store.clone(), config);
    assert!(client.initialize());

    // A subscription RC has never seen answers no-prediction.
    let mut inputs = vm_inputs(&trace, VmId(3));
    inputs.subscription = SubscriptionId(777_777);
    assert_eq!(client.predict_single("VM_AVGUTIL", &inputs), PredictionResponse::NoPrediction);

    // RC's next offline run publishes its feature data; the watcher
    // notices the version change and refreshes the caches by itself.
    let features = rc_core::SubscriptionFeatures::new(SubscriptionId(777_777));
    put_feature_record(&store, &features);
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    loop {
        if client.predict_single("VM_AVGUTIL", &inputs).is_predicted() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never refreshed (refreshes = {})",
            client.background_refresh_count()
        );
        std::thread::sleep(StdDuration::from_millis(20));
    }
    assert!(client.background_refresh_count() >= 1);
}

#[test]
fn pull_mode_fills_cache_in_background() {
    let (trace, store) = world();
    let config = ClientConfig { mode: CacheMode::Pull, ..ClientConfig::default() };
    let client = RcClient::new(store, config);
    assert!(client.initialize());
    let inputs = vm_inputs(&trace, VmId(9));
    // First request misses: no-prediction now, background fill.
    assert_eq!(client.predict_single("VM_AVGUTIL", &inputs), PredictionResponse::NoPrediction);
    client.drain_pull_queue();
    // The identical request now hits the result cache.
    assert!(
        client.predict_single("VM_AVGUTIL", &inputs).is_predicted(),
        "background fill should have landed"
    );
}

#[test]
fn client_is_thread_safe() {
    let (trace, store) = world();
    let client = RcClient::new(store, ClientConfig::default());
    assert!(client.initialize());
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let c = client.clone();
        let inputs: Vec<_> = (0..50u64)
            .map(|i| vm_inputs(&trace, VmId((t * 50 + i) % trace.n_vms() as u64)))
            .collect();
        handles.push(std::thread::spawn(move || {
            let mut served = 0;
            for inp in &inputs {
                for metric in PredictionMetric::ALL {
                    if c.predict_single(metric.model_name(), inp).is_predicted() {
                        served += 1;
                    }
                }
            }
            served
        }));
    }
    let served: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(served > 0);
}
