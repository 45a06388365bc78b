//! Client lifecycle and concurrency regressions: shutdown on concurrent
//! facade drops (with and without pull-mode refreshes still queued),
//! pull-mode misses filled once the queue drains, exact sharded-cache
//! statistics under multi-threaded load, and `store_fallbacks` counting
//! only real store-pull failures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration as StdDuration;

use rc_core::labels::vm_inputs;
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

/// Regression: `Drop` used to infer "last facade" from a racy
/// `Arc::strong_count` heuristic; two clones dropped concurrently could
/// both observe a high count, neither would signal shutdown, and the
/// pull-worker/push-watcher threads leaked forever. The explicit facade
/// count makes exactly one drop the shutdown owner, and that drop joins
/// the workers — so after the last facade is gone, zero worker threads
/// remain, deterministically.
#[test]
fn concurrent_facade_drops_always_stop_workers() {
    let store = Store::in_memory();
    for round in 0..40 {
        let config = ClientConfig {
            mode: CacheMode::Pull,
            auto_refresh_interval: Some(StdDuration::from_millis(5)),
            ..ClientConfig::default()
        };
        let client = RcClient::new(store.clone(), config);
        let lifecycle = client.worker_lifecycle();
        assert_eq!(lifecycle.live(), 2, "pull worker + push watcher running");

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

/// `inputs` moved to deployment day `day`. The cache key buckets the
/// deployment time by day, so every day is a distinct result-cache key.
fn on_day(inputs: &ClientInputs, day: u64) -> ClientInputs {
    ClientInputs { deployment_time: Timestamp::from_days(day), ..*inputs }
}

/// Dropping every facade while pull-mode refreshes are still queued: the
/// worker drains what was admitted, exits, and the last drop returns
/// with no client thread left.
#[test]
fn dropping_facades_with_refreshes_queued_stops_the_worker() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 125;
    let (trace, store) = world();
    let config = ClientConfig { mode: CacheMode::Pull, ..ClientConfig::default() };
    let client = RcClient::new(store, config);
    assert!(client.initialize());
    let lifecycle = client.worker_lifecycle();
    assert_eq!(lifecycle.live(), 1, "pull worker running");

    let base = vm_inputs(&trace, VmId(9));
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let facade = client.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let inputs = on_day(&base, t * PER_THREAD + i);
                    assert_eq!(
                        facade.predict_single("VM_AVGUTIL", &inputs),
                        PredictionResponse::NoPrediction,
                        "a never-seen key misses"
                    );
                }
                barrier.wait();
                drop(facade);
            })
        })
        .collect();
    drop(client);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(lifecycle.live(), 0, "pull worker leaked past the last drop");
}

/// Pull-mode misses on a few keys from several threads coalesce in the
/// admission queue; once `drain_pull_queue` returns, every key hits.
#[test]
fn drained_pull_queue_leaves_every_missed_key_cached() {
    const THREADS: usize = 4;
    let (trace, store) = world();
    let config = ClientConfig { mode: CacheMode::Pull, ..ClientConfig::default() };
    let client = RcClient::new(store, config);
    assert!(client.initialize());

    let base = vm_inputs(&trace, VmId(9));
    let keys: Vec<ClientInputs> = (0..32).map(|day| on_day(&base, day)).collect();
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let facade = client.clone();
            let barrier = barrier.clone();
            let keys = keys.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for inputs in &keys {
                    facade.predict_single("VM_AVGUTIL", inputs);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    client.drain_pull_queue();
    for (day, inputs) in keys.iter().enumerate() {
        assert!(
            client.predict_single("VM_AVGUTIL", inputs).is_predicted(),
            "day {day}: drained refresh never filled the cache"
        );
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
    // pull worker takes the fetch_model path — and succeeds at the store.
    store.put("model/CUSTOM", rc_ml::to_bytes(&output.models[0]).into()).unwrap();
    let inputs = vm_inputs(&trace, VmId(3));
    assert_eq!(client.predict_single("CUSTOM", &inputs), PredictionResponse::NoPrediction);
    client.drain_pull_queue();
    assert!(
        client.predict_single("CUSTOM", &inputs).is_predicted(),
        "background fetch should have cached the published model"
    );
    assert_eq!(
        client.store_fallback_count(),
        0,
        "a successful store pull must not count as a fallback"
    );

    // Now a fetch whose store pull fails: the fallback path must count.
    store.set_available(false);
    assert_eq!(client.predict_single("CUSTOM2", &inputs), PredictionResponse::NoPrediction);
    client.drain_pull_queue();
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
