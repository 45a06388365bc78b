//! Lock-free serve-path regressions: model swap-in racing
//! `predict_single`, zero heap allocations on the cache-hit path and on a
//! miss into a full cache, and seeded concurrency stresses of the result
//! cache (mixed traffic, and one writer against three readers per shard)
//! with full-scan oracle reconciliation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use rc_core::labels::vm_inputs;
use rc_core::{Prediction, ShardedResultCache};
use rc_types::vm::VmId;
use resource_central::prelude::*;

// Every allocation in this test binary goes through the counting
// allocator, so `hit_path_is_allocation_free` can observe the hot path
// exactly. The counter is per-thread: the other tests running
// concurrently in this binary never pollute the measurement.
#[global_allocator]
static ALLOC: rc_obs::CountingAllocator = rc_obs::CountingAllocator;

fn world() -> (Trace, Store, rc_core::PipelineOutput) {
    let trace = Trace::generate(&TraceConfig {
        target_vms: 5_000,
        n_subscriptions: 200,
        days: 24,
        ..TraceConfig::small()
    });
    let output = rc_core::run_pipeline(&trace, &rc_core::PipelineConfig::fast(24)).unwrap();
    let store = Store::in_memory();
    output.publish(&store, 0.5).unwrap();
    (trace, store, output)
}

/// Regression: the serve state used to live in four separately locked
/// structures (models, features, staleness sets, manifest), so a reload
/// racing `predict_single` could observe version N models against
/// version N+1 features. The epoch-swapped [`ServeSnapshot`] publishes
/// them as one immutable value: while a writer flips manifest versions
/// as fast as it can, every concurrent prediction must still resolve —
/// no torn intermediate state ever answers `NoPrediction` — and must
/// attribute to a fully published generation, observed monotonically.
#[test]
fn model_swap_racing_predict_single_never_tears() {
    let (trace, store, output) = world();
    let client = RcClient::new(store.clone(), ClientConfig::default());
    assert!(client.initialize());
    let first_version = client.manifest_version().expect("manifest published");

    // Pre-pass: keep only inputs the initial version answers, so a
    // `NoPrediction` during the race can only mean torn serve state.
    let inputs: Vec<_> = (0..trace.n_vms() as u64)
        .map(|i| vm_inputs(&trace, VmId(i)))
        .filter(|inp| client.predict_single("VM_P95UTIL", inp).prediction().is_some())
        .take(512)
        .collect();
    assert!(inputs.len() >= 64, "world must answer a healthy share of inputs");
    let base_lookups = client.lookup_count();
    let base_defaults = client.no_prediction_count();

    const READERS: usize = 4;
    const FLIPS: usize = 25;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let client = client.clone();
            let inputs = inputs.clone();
            let stop = stop.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let mut last_generation = 0;
                let mut calls = 0u64;
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    i = (i + 1) % inputs.len();
                    let (response, _, generation) =
                        client.predict_single_attributed("VM_P95UTIL", &inputs[i]);
                    assert!(
                        response.prediction().is_some(),
                        "reader saw NoPrediction mid-swap: torn serve state"
                    );
                    assert!(generation >= 1, "responses attribute to a published generation");
                    assert!(
                        generation >= last_generation,
                        "snapshot generations must be observed monotonically \
                         ({generation} after {last_generation})"
                    );
                    last_generation = generation;
                    calls += 1;
                }
                calls
            })
        })
        .collect();

    barrier.wait();
    // Writer: republish (bumping the manifest version) and reload while
    // the readers hammer the serve path.
    for _ in 0..FLIPS {
        output.publish(&store, 0.5).expect("republish");
        client.force_reload_cache();
    }
    stop.store(true, Ordering::SeqCst);
    let reader_calls: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();

    let final_version = client.manifest_version().expect("manifest still published");
    assert_eq!(final_version, first_version + FLIPS as u64, "every flip published");

    // Degradation-ladder invariant across the whole race, from the
    // client's own exact counters: every lookup landed on exactly one
    // rung. (Defaults stay possible in general — just not in this test's
    // pre-filtered input set.)
    let lookups = client.lookup_count() - base_lookups;
    let stats = client.result_cache_stats();
    let answered = stats.hits
        + client.fresh_fetch_count()
        + client.stale_serve_count()
        + client.no_prediction_count();
    assert_eq!(lookups, reader_calls, "every reader call is one lookup");
    assert_eq!(
        answered,
        client.lookup_count(),
        "lookups == hits + fresh + stale + defaults, even racing swaps"
    );
    assert_eq!(
        client.no_prediction_count(),
        base_defaults,
        "the race window never fell through to the default rung"
    );
}

/// The headline hot-path claim, asserted by the counting allocator: once
/// a thread is warmed up (epoch slot registered, metrics handles
/// resolved), a cache-hit `predict_single` performs zero heap
/// allocations — and zero mutex/rwlock acquisitions, which the epoch
/// design guarantees structurally (the hit path only touches `ArcSwap`
/// loads and atomics).
#[test]
fn hit_path_is_allocation_free() {
    let (trace, store, _) = world();
    let client = RcClient::new(store, ClientConfig::default());
    assert!(client.initialize());

    let inp = vm_inputs(&trace, VmId(1));
    assert!(
        client.predict_single("VM_P95UTIL", &inp).prediction().is_some(),
        "probe input must resolve so the follow-ups are cache hits"
    );
    // Warm-up: registers this thread's epoch slot and touches every lazy
    // structure on the path; these calls may allocate.
    for _ in 0..64 {
        let _ = client.predict_single("VM_P95UTIL", &inp);
    }

    let before = rc_obs::thread_allocations();
    for _ in 0..10_000 {
        std::hint::black_box(client.predict_single("VM_P95UTIL", &inp));
    }
    let allocs = rc_obs::thread_allocations() - before;
    assert_eq!(allocs, 0, "cache-hit predict_single allocated {allocs} times in 10k calls");
}

/// The miss path's claim, next to the hit path's: with the result cache
/// full, a warmed `predict_single` that assembles features, walks the
/// model, inserts and evicts performs zero heap allocations, for every
/// one of the six models.
#[test]
fn miss_path_is_allocation_free() {
    const CAPACITY: usize = 64;
    let (trace, store, _) = world();
    let config = ClientConfig {
        result_cache_capacity: CAPACITY,
        result_cache_shards: 4,
        ..ClientConfig::default()
    };
    let client = RcClient::new(store, config);
    assert!(client.initialize());

    // Inputs the world answers, each moved to deployment days of its own
    // so that every request below is a key the cache has never seen.
    let templates: Vec<_> = (0..trace.n_vms() as u64)
        .map(|i| vm_inputs(&trace, VmId(i)))
        .filter(|inp| client.predict_single("VM_P95UTIL", inp).is_predicted())
        .take(32)
        .collect();
    assert_eq!(templates.len(), 32, "world must answer a healthy share of inputs");
    let models = client.get_available_models();
    assert_eq!(models.len(), 6);
    let mut day = 10_000;
    let mut fresh = |i: usize| {
        day += 1;
        let mut inp = templates[i % templates.len()];
        inp.deployment_time = rc_types::time::Timestamp::from_days(day);
        inp
    };

    // Warm-up: fills every shard to the brim and touches every lazy
    // structure on the path; these calls may allocate.
    for i in 0..8 * CAPACITY {
        let _ = client.predict_single(&models[i % 6], &fresh(i));
    }
    assert_eq!(client.result_cache_len(), CAPACITY, "the cache must be full before measuring");

    let stats = client.result_cache_stats();
    let before = rc_obs::thread_allocations();
    for i in 0..6_000 {
        let response = client.predict_single(&models[i % 6], &fresh(i));
        assert!(std::hint::black_box(response).is_predicted());
    }
    let allocs = rc_obs::thread_allocations() - before;
    let after = client.result_cache_stats();
    assert_eq!(after.misses - stats.misses, 6_000, "every measured call was a miss");
    assert_eq!(after.evictions - stats.evictions, 6_000, "every measured insert evicted");
    assert_eq!(allocs, 0, "a miss into a full cache allocated {allocs} times in 6k calls");
}

/// The tree grower's split scan reuses per-tree scratch for its
/// histogram, running sums and candidate list: growing a tree over a
/// utilization-wide (127-feature) dataset allocates a few times per node
/// (its leaf payload, the node list's growth, the arena's columns), not
/// once per feature or per bin.
#[test]
fn tree_growth_allocates_per_node_not_per_bin() {
    use rc_ml::{BinnedDataset, Dataset, DecisionTree, TreeConfig};
    let mut d = Dataset::new(127, 4);
    let mut state = 0x7127u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for _ in 0..3_000 {
        let row: Vec<f64> = (0..127).map(|_| next()).collect();
        let label = (usize::from(row[0] > 0.5) + 2 * usize::from(row[1] + row[2] > 1.0))
            ^ usize::from(next() < 0.2);
        d.push(&row, label % 4);
    }
    let binned = BinnedDataset::build(&d);
    let indices: Vec<u32> = (0..d.len() as u32).collect();
    let config = TreeConfig { features_per_split: Some(12), seed: 7, ..TreeConfig::default() };

    let before = rc_obs::thread_allocations();
    let tree = DecisionTree::fit_on(&binned, &indices, &config);
    let allocs = rc_obs::thread_allocations() - before;
    assert!(tree.n_nodes() > 100, "the tree must be deep: {} nodes", tree.n_nodes());
    assert!(
        allocs <= 8 * tree.n_nodes() as u64 + 64,
        "growing {} nodes allocated {allocs} times",
        tree.n_nodes()
    );
}

/// Deterministic value for a stress key; a torn read would surface as a
/// key answering some other key's prediction.
fn oracle_prediction(key: u64) -> Prediction {
    Prediction { value: (key % 7) as usize, score: (key % 100) as f64 / 100.0 }
}

/// Seeded stress of the result cache: concurrent get/insert/evict
/// across shards, then full-scan oracle reconciliation — every cached
/// value is the one its key deterministically maps to, the scan finds
/// exactly `len()` entries, entries never exceed capacity, and the exact
/// counters reconcile with the operations issued.
#[test]
fn rcu_cache_stress_reconciles_with_oracle() {
    const THREADS: u64 = 4;
    const OPS: u64 = 20_000;
    const KEYSPACE: u64 = 4_096;
    const CAPACITY: usize = 1_024;

    for seed in [0x5059_2017u64, 0xDEAD_BEEF, 0x1234_5678] {
        let cache = Arc::new(ShardedResultCache::new(CAPACITY, 8));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    // Thread-local xorshift stream; deterministic per
                    // (seed, thread).
                    let mut state = seed ^ (t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
                    let mut gets = 0u64;
                    let mut inserts = 0u64;
                    for _ in 0..OPS {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let key = state % KEYSPACE;
                        if state % 3 == 0 {
                            cache.insert(key, oracle_prediction(key));
                            inserts += 1;
                        } else {
                            if let Some(p) = cache.get(key) {
                                assert_eq!(
                                    p,
                                    oracle_prediction(key),
                                    "key {key} answered another key's value: torn snapshot"
                                );
                            }
                            gets += 1;
                        }
                    }
                    (gets, inserts)
                })
            })
            .collect();
        let (mut gets, mut inserts) = (0u64, 0u64);
        for handle in handles {
            let (g, i) = handle.join().unwrap();
            gets += g;
            inserts += i;
        }

        // Exact-counter reconciliation: every operation accounted for.
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, gets, "seed {seed:#x}: every get hit or missed");
        assert_eq!(stats.insertions, inserts, "seed {seed:#x}: every insert counted");
        assert!(cache.len() <= CAPACITY, "seed {seed:#x}: eviction kept the capacity bound");
        assert!(stats.evictions > 0, "seed {seed:#x}: keyspace 4x capacity must evict");

        // Full-scan oracle: walking the whole keyspace finds exactly the
        // entries the shards report live, each with its oracle value.
        let live = cache.len();
        let mut found = 0;
        for key in 0..KEYSPACE {
            if let Some(p) = cache.get(key) {
                assert_eq!(p, oracle_prediction(key), "seed {seed:#x}: scan found a torn value");
                found += 1;
            }
        }
        assert_eq!(found, live, "seed {seed:#x}: scan count must equal the shards' len()");
    }
}

/// Torn-read stress of the in-place table: per shard, one writer inserts
/// a stream of new keys (evicting FIFO once the shard is full) and keeps
/// overwriting recent ones with new generations, while three readers
/// look the recent keys up. Every stored `(value, score)` pair satisfies
/// `score bits == mix(key, value)`, so a reader that saw the value of one
/// write and the score of another — or another key's pair, mid
/// backward-shift — is caught. A key that is provably resident for the
/// whole lookup (inserted before it started, fewer than a shard's
/// capacity of inserts begun after it when it ended) must never read as
/// absent. Afterwards the counters reconcile and a full scan finds
/// exactly the last `capacity` keys of each shard.
#[test]
fn seqlock_table_never_tears_under_one_writer_three_readers_per_shard() {
    const SHARDS: usize = 2;
    const PER_SHARD: usize = 128;
    const INSERTS: usize = 12_000;
    const READERS: usize = 3;

    fn mix(key: u64, value: usize) -> u64 {
        let mut z = key ^ (value as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }
    fn pair(key: u64, generation: usize) -> Prediction {
        Prediction { value: generation, score: f64::from_bits(mix(key, generation)) }
    }
    fn check(key: u64, p: Prediction) {
        assert_eq!(p.score.to_bits(), mix(key, p.value), "torn pair under key {key:#x}: {p:?}");
    }

    /// Tells the other threads that one of them died, so that nobody waits
    /// for its progress and the failure surfaces instead of a hang.
    struct FlagOnPanic<'a>(&'a AtomicBool);
    impl Drop for FlagOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::SeqCst);
            }
        }
    }

    for seed in [0x5059_2017u64, 0xDEAD_BEEF, 0x1234_5678] {
        let cache = ShardedResultCache::new(SHARDS * PER_SHARD, SHARDS);
        // Each shard's key stream: distinct keys that route to it.
        let streams: Vec<Vec<u64>> = (0..SHARDS)
            .map(|shard| {
                let mut state = seed ^ (shard as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
                let mut keys = Vec::with_capacity(INSERTS);
                let mut seen = std::collections::HashSet::new();
                while keys.len() < INSERTS {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if cache.shard_index(state) == shard && seen.insert(state) {
                        keys.push(state);
                    }
                }
                keys
            })
            .collect();
        // Per shard: inserts begun and finished (readers bracket a lookup
        // with `finished` before and `begun` after), and lookups made.
        let counters = || (0..SHARDS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let (begun, finished, looked) = (counters(), counters(), counters());
        let died = AtomicBool::new(false);
        let barrier = Barrier::new(SHARDS * (1 + READERS));
        let (mut lookups, mut guaranteed) = (0u64, 0u64);

        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for (shard, keys) in streams.iter().enumerate() {
                let (cache, barrier) = (&cache, &barrier);
                let (begun, finished, looked) = (&begun[shard], &finished[shard], &looked[shard]);
                let died = &died;
                scope.spawn(move || {
                    let _flag = FlagOnPanic(died);
                    barrier.wait();
                    for (n, &key) in keys.iter().enumerate() {
                        // Pace the writer by its readers, so that lookups
                        // and writes interleave for the whole run on any box.
                        while looked.load(Ordering::Relaxed) < n as u64 / 4
                            && !died.load(Ordering::SeqCst)
                        {
                            std::thread::yield_now();
                        }
                        begun.store(n as u64 + 1, Ordering::SeqCst);
                        let evicted = cache.insert(key, pair(key, 0));
                        assert_eq!(evicted, n >= PER_SHARD, "FIFO evicts exactly once full");
                        finished.store(n as u64 + 1, Ordering::SeqCst);
                        // Overwrite one of the newer half of the resident
                        // keys in place with a new generation.
                        let recent = keys[n - (n * 31 % (PER_SHARD / 2)).min(n)];
                        assert!(
                            !cache.insert(recent, pair(recent, n + 1)),
                            "overwrites evict nothing"
                        );
                    }
                });
                for r in 0..READERS {
                    readers.push(scope.spawn(move || {
                        let _flag = FlagOnPanic(died);
                        barrier.wait();
                        let mut state = seed ^ (r as u64 + 7).wrapping_mul(0xE703_7ED1_A0B4_28DB);
                        let (mut lookups, mut guaranteed) = (0u64, 0u64);
                        loop {
                            let done = finished.load(Ordering::SeqCst) as usize;
                            if done == INSERTS || died.load(Ordering::SeqCst) {
                                return (lookups, guaranteed);
                            }
                            if done == 0 {
                                std::thread::yield_now();
                                continue;
                            }
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            // One of the newer half of the resident keys.
                            let n = done - 1 - state as usize % done.min(PER_SHARD / 2);
                            let found = cache.get(keys[n]);
                            lookups += 1;
                            looked.fetch_add(1, Ordering::Relaxed);
                            if let Some(p) = found {
                                check(keys[n], p);
                            }
                            // Insert `m` evicts key `m - PER_SHARD`, so key
                            // `n` stayed resident if no insert past
                            // `n + PER_SHARD` had begun when the lookup
                            // returned.
                            if (begun.load(Ordering::SeqCst) as usize) < n + PER_SHARD {
                                guaranteed += 1;
                                assert!(
                                    found.is_some(),
                                    "resident key {n} of shard {shard} read as absent"
                                );
                            }
                        }
                    }));
                }
            }
            for reader in readers {
                let (l, g) = reader.join().expect("reader");
                lookups += l;
                guaranteed += g;
            }
        });
        assert!(lookups >= (SHARDS * INSERTS / 4) as u64, "seed {seed:#x}: readers kept pace");
        assert!(guaranteed > 0, "seed {seed:#x}: the residency check never applied");

        // Full-scan oracle: exactly the last PER_SHARD keys of each stream
        // are resident, each with a pair that satisfies the invariant.
        assert_eq!(cache.len(), SHARDS * PER_SHARD);
        let mut scanned = 0u64;
        for keys in &streams {
            for (n, &key) in keys.iter().enumerate() {
                let found = cache.get(key);
                scanned += 1;
                assert_eq!(found.is_some(), n >= INSERTS - PER_SHARD, "seed {seed:#x}: key {n}");
                if let Some(p) = found {
                    check(key, p);
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            lookups + scanned,
            "seed {seed:#x}: every get counted"
        );
        assert_eq!(stats.insertions, 2 * (SHARDS * INSERTS) as u64);
        assert_eq!(stats.evictions, (SHARDS * (INSERTS - PER_SHARD)) as u64);
    }
}

/// The control loop's shadow evaluation must be invisible to the serve
/// path: `shadow_predict` scores a candidate against the live snapshot
/// without touching the result cache, the prediction counters, or any
/// client-visible state — and its serving-side answer agrees with what
/// `predict_single` serves for the same inputs.
#[test]
fn shadow_predict_never_perturbs_the_serving_client() {
    let (trace, store, output) = world();
    let client = RcClient::new(store, ClientConfig::default());
    assert!(client.initialize());
    let name = "VM_P95UTIL";
    let candidate = output
        .models
        .iter()
        .find(|m| m.spec.store_key() == "model/VM_P95UTIL")
        .expect("the published model set includes P95 util")
        .clone();

    // Resolve the serving answers first (these calls may count), then
    // snapshot every externally visible counter. Only fresh executions
    // are exact — the result cache is coarser than the feature vector
    // (§4.2 keys on the client inputs), so a Hit may answer for a
    // feature-similar sibling.
    let inputs: Vec<_> = (0..256).map(|i| vm_inputs(&trace, VmId(i))).collect();
    let served: Vec<_> = inputs.iter().map(|inp| client.predict_single_traced(name, inp)).collect();
    let before = (
        client.lookup_count(),
        client.model_exec_count(),
        client.no_prediction_count(),
        client.store_fallback_count(),
        client.stale_serve_count(),
    );

    let mut fresh = 0;
    for (inp, (response, how)) in inputs.iter().zip(&served) {
        let shadow = client.shadow_predict(name, inp, &candidate);
        if *how == Served::Fresh {
            fresh += 1;
            // The serving side of the comparison is exactly what the
            // serve path computed for these inputs.
            assert_eq!(shadow.serving, response.prediction(), "shadow must mirror the serve path");
            // The candidate here *is* the published model, so the two
            // sides of the comparison must agree completely.
            assert_eq!(shadow.candidate, shadow.serving);
        }
    }
    assert!(fresh >= 64, "enough fresh executions to make the comparison meaningful: {fresh}");

    let after = (
        client.lookup_count(),
        client.model_exec_count(),
        client.no_prediction_count(),
        client.store_fallback_count(),
        client.stale_serve_count(),
    );
    assert_eq!(before, after, "shadow evaluation must not move any client counter");
}
