//! Chaos suite: the client's degradation ladder under a deterministic
//! fault-injecting store.
//!
//! Every test drives `predict_single_traced` through a `FaultyStore`
//! running a seeded `FaultPlan` and asserts *exact* outcomes: the
//! `lookups == hits + fresh + stale + defaults` reconciliation from
//! registry deltas, bit-identical schedules across identically-seeded
//! runs, and the precise circuit-breaker transition count for a scripted
//! outage. `RC_CHAOS_SEED` picks the fault seed (CI runs two).
//!
//! The rc-obs registry is process-global, so the tests serialize on one
//! mutex and measure counter deltas inside the critical section.

use std::sync::{Mutex, OnceLock};
use std::time::Duration as StdDuration;

use rc_core::labels::vm_inputs;
use rc_core::ClientInputs;
use resource_central::prelude::*;

/// Serializes the tests in this binary: they assert global-registry
/// deltas and flip the shared store's availability switch.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn world() -> &'static (Trace, Store) {
    static WORLD: OnceLock<(Trace, Store)> = OnceLock::new();
    WORLD.get_or_init(|| {
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
    })
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rc_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fault seed; CI runs the suite twice with `RC_CHAOS_SEED=1` / `=2`.
fn chaos_seed() -> u64 {
    std::env::var("RC_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC4A0_5017)
}

/// The ISSUE's headline plan: 30% per-op unavailability, 5% payload
/// corruption, plus short transient bursts. No latency spikes — the
/// schedule must not depend on wall time.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        p_unavailable: 0.3,
        p_transient: 0.02,
        transient_burst: 2,
        p_latency_spike: 0.0,
        latency_spike: StdDuration::ZERO,
        p_corrupt: 0.05,
    }
}

/// A deterministic request mix: VMs strided across the trace, metrics
/// round-robined.
fn requests(trace: &Trace, n: usize) -> Vec<(&'static str, ClientInputs)> {
    let n_vms = trace.n_vms() as u64;
    (0..n)
        .map(|i| {
            let vm = VmId((i as u64 * 7919) % n_vms);
            let metric = PredictionMetric::ALL[i % PredictionMetric::ALL.len()];
            (metric.model_name(), vm_inputs(trace, vm))
        })
        .collect()
}

/// Primes `dir` with every model and feature record the request mix
/// needs, through a healthy store (write-through on).
fn prime_disk(store: &Store, dir: &std::path::Path, reqs: &[(&'static str, ClientInputs)]) {
    let client = RcClient::new(
        store.clone(),
        ClientConfig {
            mode: CacheMode::Pull,
            disk_cache_dir: Some(dir.to_path_buf()),
            ..ClientConfig::default()
        },
    );
    assert!(client.initialize(), "priming client must initialize from a healthy store");
    for (model, inputs) in reqs {
        let _ = client.predict_single(model, inputs);
    }
}

/// The chaos-run client config: synchronous pulls, zero disk expiry (so
/// every disk entry is served through the stale-grace window), no
/// write-through (the primed disk is read-only across runs), and backoff
/// that never sleeps or consults the deadline.
fn chaos_config(dir: std::path::PathBuf) -> ClientConfig {
    ClientConfig {
        mode: CacheMode::Pull,
        disk_cache_dir: Some(dir),
        disk_cache_expiry: StdDuration::ZERO,
        stale_grace: StdDuration::from_secs(3600),
        disk_write_through: false,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: StdDuration::ZERO,
            max_backoff: StdDuration::ZERO,
            call_deadline: StdDuration::from_secs(30),
            ..RetryPolicy::default()
        },
        ..ClientConfig::default()
    }
}

/// Per-class tallies from traced predict calls.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    hits: u64,
    fresh: u64,
    stale: u64,
    defaults: u64,
}

impl Tally {
    fn count(&mut self, served: Served) {
        match served {
            Served::Hit => self.hits += 1,
            Served::Fresh => self.fresh += 1,
            Served::Stale => self.stale += 1,
            Served::Default => self.defaults += 1,
        }
    }

    fn total(&self) -> u64 {
        self.hits + self.fresh + self.stale + self.defaults
    }
}

#[test]
fn chaos_run_reconciles_every_lookup_exactly() {
    let _gate = gate();
    let (trace, store) = world();
    let dir = temp_dir("recon");
    let reqs = requests(trace, 600);
    prime_disk(store, &dir, &reqs);

    let faulty = FaultyStore::new(store.clone(), chaos_plan(chaos_seed()));
    let client =
        RcClient::with_backend(std::sync::Arc::new(faulty.clone()), chaos_config(dir.clone()));

    let reg = rc_obs::global();
    let at = |name: &str| reg.counter(name).get();
    let lookups0 = at(rc_obs::CLIENT_LOOKUPS);
    let hits0 = at(rc_obs::CLIENT_RESULT_CACHE_HITS);
    let fresh0 = at(rc_obs::CLIENT_FRESH_FETCHES);
    let stale0 = at(rc_obs::CLIENT_STALE_SERVES);
    let defaults0 = at(rc_obs::CLIENT_DEFAULTS);
    let retries0 = at(rc_obs::CLIENT_RETRIES);
    let corrupt0 = at(rc_obs::CLIENT_CORRUPT_PAYLOADS);
    let injected0 = at(rc_obs::STORE_INJECTED_FAULTS);

    assert!(client.initialize(), "store-or-disk must bring the client up");
    let mut tally = Tally::default();
    let mut predicted = 0u64;
    for (model, inputs) in &reqs {
        // Every call must come back with a response — the ladder never
        // throws, blocks, or panics, whatever the injector does.
        let (response, served) = client.predict_single_traced(model, inputs);
        tally.count(served);
        if response.is_predicted() {
            predicted += 1;
        }
    }

    let lookups = at(rc_obs::CLIENT_LOOKUPS) - lookups0;
    let hits = at(rc_obs::CLIENT_RESULT_CACHE_HITS) - hits0;
    let fresh = at(rc_obs::CLIENT_FRESH_FETCHES) - fresh0;
    let stale = at(rc_obs::CLIENT_STALE_SERVES) - stale0;
    let defaults = at(rc_obs::CLIENT_DEFAULTS) - defaults0;

    // 100% answered, and the ladder rungs partition the lookups exactly.
    assert_eq!(tally.total(), reqs.len() as u64);
    assert_eq!(lookups, reqs.len() as u64);
    assert_eq!(
        hits + fresh + stale + defaults,
        lookups,
        "reconciliation broke: {hits} + {fresh} + {stale} + {defaults} != {lookups}"
    );
    assert_eq!(
        (hits, fresh, stale, defaults),
        (tally.hits, tally.fresh, tally.stale, tally.defaults),
        "registry deltas must match the per-call Served classes"
    );

    // The client-side accessors agree with the registry.
    assert_eq!(client.lookup_count(), lookups);
    assert_eq!(client.fresh_fetch_count(), fresh);
    assert_eq!(client.stale_serve_count(), stale);
    assert_eq!(client.retry_count(), at(rc_obs::CLIENT_RETRIES) - retries0);
    assert_eq!(client.corrupt_payload_count(), at(rc_obs::CLIENT_CORRUPT_PAYLOADS) - corrupt0);

    // The run was actually chaotic: faults of both headline kinds landed,
    // and the injector's own counts reached the registry.
    let injected = faulty.injector().injected();
    assert!(injected.unavailable > 0, "no unavailability injected: {injected:?}");
    assert!(injected.corruptions > 0, "no corruption injected: {injected:?}");
    assert_eq!(at(rc_obs::STORE_INJECTED_FAULTS) - injected0, injected.total());

    // Despite 30% unavailability and corrupt payloads, the ladder kept
    // serving real predictions (store retries + stale disk entries).
    assert!(
        predicted as f64 / reqs.len() as f64 > 0.7,
        "only {predicted}/{} predicted under chaos",
        reqs.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identically_seeded_chaos_runs_are_bit_identical() {
    let _gate = gate();
    let (trace, store) = world();
    let dir = temp_dir("repro");
    let reqs = requests(trace, 400);
    prime_disk(store, &dir, &reqs);

    let run = |seed: u64| {
        let faulty = FaultyStore::new(store.clone(), chaos_plan(seed));
        let client =
            RcClient::with_backend(std::sync::Arc::new(faulty.clone()), chaos_config(dir.clone()));
        let reg = rc_obs::global();
        let transitions0 = reg.counter(rc_obs::CLIENT_BREAKER_TRANSITIONS).get();
        client.initialize();
        let outcomes: Vec<(PredictionResponse, Served)> = reqs
            .iter()
            .map(|(model, inputs)| client.predict_single_traced(model, inputs))
            .collect();
        (
            outcomes,
            client.retry_count(),
            client.corrupt_payload_count(),
            client.store_fallback_count(),
            reg.counter(rc_obs::CLIENT_BREAKER_TRANSITIONS).get() - transitions0,
            faulty.injector().injected(),
        )
    };

    let seed = chaos_seed();
    let first = run(seed);
    let second = run(seed);
    assert_eq!(
        first, second,
        "two runs with the same fault seed against the same primed disk must match bit-for-bit"
    );
    // And a different seed must actually change the schedule.
    let third = run(seed ^ 0xFFFF);
    assert_ne!(first.5, third.5, "a different seed left the injected-fault counts unchanged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restores the shared store's availability switch even if the test
/// panics, so a failure here cannot cascade into the other tests.
struct AvailabilityGuard<'a>(&'a Store);

impl Drop for AvailabilityGuard<'_> {
    fn drop(&mut self) {
        self.0.set_available(true);
    }
}

#[test]
fn breaker_walks_a_deterministic_transition_schedule() {
    let _gate = gate();
    let (trace, store) = world();
    let _restore = AvailabilityGuard(store);

    // Inputs for a subscription that actually has published feature data,
    // found through a healthy push-mode probe.
    let probe = RcClient::new(store.clone(), ClientConfig::default());
    assert!(probe.initialize());
    let inputs = (0..trace.n_vms() as u64)
        .map(|id| vm_inputs(trace, VmId(id)))
        .find(|inputs| probe.predict_single("VM_P95UTIL", inputs).is_predicted())
        .expect("some subscription must be predictable");
    drop(probe);

    // Cooldowns are counted in calls, so the whole outage script is exact:
    //   calls 1-3   admitted, fail        -> Closed -> Open      (t1)
    //   calls 4-6   rejected
    //   call  7     probe, fails          -> Open -> HalfOpen    (t2)
    //                                     -> HalfOpen -> Open    (t3)
    //   (store recovers)
    //   calls 8-10  rejected
    //   call 11     probe, succeeds       -> Open -> HalfOpen    (t4)
    //                                     -> HalfOpen -> Closed  (t5)
    //   call 12     result-cache hit
    let client = RcClient::with_backend(
        std::sync::Arc::new(store.clone()),
        ClientConfig {
            mode: CacheMode::Pull,
            breaker: BreakerConfig { failure_threshold: 3, probe_after: 4, success_threshold: 1 },
            retry: RetryPolicy {
                max_attempts: 1,
                base_backoff: StdDuration::ZERO,
                max_backoff: StdDuration::ZERO,
                call_deadline: StdDuration::from_secs(30),
                ..RetryPolicy::default()
            },
            ..ClientConfig::default()
        },
    );
    assert!(client.initialize(), "models load while the store is still up");
    assert_eq!(client.health(), ClientHealth::Healthy);

    let reg = rc_obs::global();
    let transitions0 = reg.counter(rc_obs::CLIENT_BREAKER_TRANSITIONS).get();
    let transitions = || reg.counter(rc_obs::CLIENT_BREAKER_TRANSITIONS).get() - transitions0;
    let open_gauge = || reg.gauge(rc_obs::CLIENT_BREAKER_OPEN).get();

    store.set_available(false);
    for call in 1..=3 {
        let (response, served) = client.predict_single_traced("VM_P95UTIL", &inputs);
        assert_eq!(response, PredictionResponse::NoPrediction, "call {call}");
        assert_eq!(served, Served::Default, "call {call}");
    }
    assert_eq!(transitions(), 1, "three consecutive failures trip the breaker open");
    assert_eq!(client.open_breaker_count(), 1);
    assert_eq!(open_gauge(), 1.0);
    assert!(
        matches!(
            client.health(),
            ClientHealth::Degraded { reason: DegradedReason::BreakerOpen, .. }
        ),
        "health must surface the open breaker: {:?}",
        client.health()
    );

    for call in 4..=7 {
        let (response, _) = client.predict_single_traced("VM_P95UTIL", &inputs);
        assert_eq!(response, PredictionResponse::NoPrediction, "call {call}");
    }
    assert_eq!(transitions(), 3, "call 7's probe fails and reopens the breaker");
    assert_eq!(client.open_breaker_count(), 1);

    store.set_available(true);
    for call in 8..=10 {
        // Still rejected: the open breaker fails fast without noticing
        // the store recovered until the next probe window.
        let (response, _) = client.predict_single_traced("VM_P95UTIL", &inputs);
        assert_eq!(response, PredictionResponse::NoPrediction, "call {call}");
    }
    assert_eq!(transitions(), 3, "rejected calls are not transitions");

    let (response, served) = client.predict_single_traced("VM_P95UTIL", &inputs);
    assert!(response.is_predicted(), "call 11's probe reaches the recovered store");
    assert_eq!(served, Served::Fresh);
    assert_eq!(transitions(), 5, "probe success closes the breaker");
    assert_eq!(client.open_breaker_count(), 0);
    assert_eq!(open_gauge(), 0.0);
    assert_eq!(client.health(), ClientHealth::Healthy);

    let (response, served) = client.predict_single_traced("VM_P95UTIL", &inputs);
    assert!(response.is_predicted());
    assert_eq!(served, Served::Hit, "call 12 is served by the result cache");
    assert_eq!(transitions(), 5, "nothing moved after recovery");
}

#[test]
fn latency_spike_overrunning_the_deadline_feeds_the_breaker() {
    let _gate = gate();
    let (trace, store) = world();

    // A predictable subscription, found through a healthy probe.
    let probe = RcClient::new(store.clone(), ClientConfig::default());
    assert!(probe.initialize());
    let inputs = (0..trace.n_vms() as u64)
        .map(|id| vm_inputs(trace, VmId(id)))
        .find(|inputs| probe.predict_single("VM_P95UTIL", inputs).is_predicted())
        .expect("some subscription must be predictable");
    drop(probe);

    // Every store operation sleeps 25 ms before answering successfully.
    let spiky_plan = FaultPlan {
        seed: chaos_seed(),
        p_unavailable: 0.0,
        p_transient: 0.0,
        transient_burst: 0,
        p_latency_spike: 1.0,
        latency_spike: StdDuration::from_millis(25),
        p_corrupt: 0.0,
    };
    let sync_config = |deadline: StdDuration| ClientConfig {
        mode: CacheMode::Pull,
        breaker: BreakerConfig { failure_threshold: 3, probe_after: 4, success_threshold: 1 },
        retry: RetryPolicy {
            max_attempts: 1,
            base_backoff: StdDuration::ZERO,
            max_backoff: StdDuration::ZERO,
            call_deadline: deadline,
            ..RetryPolicy::default()
        },
        ..ClientConfig::default()
    };

    // Control: with a generous deadline, a spiked reply is late but still
    // *data* — the pull succeeds and serves fresh.
    let faulty = FaultyStore::new(store.clone(), spiky_plan);
    let control = RcClient::with_backend(
        std::sync::Arc::new(faulty.clone()),
        sync_config(StdDuration::from_secs(30)),
    );
    assert!(control.initialize());
    let (response, served) = control.predict_single_traced("VM_P95UTIL", &inputs);
    assert!(response.is_predicted(), "a slow store within the deadline must still serve");
    assert_eq!(served, Served::Fresh);
    assert!(faulty.injector().injected().latency_spikes > 0);

    // Victim: the same spiking store behind a 5 ms per-call deadline. The
    // reply always arrives — 20 ms too late. Each overrun is a failure
    // that feeds the breaker exactly like a timeout:
    //   calls 1-3  admitted, spike overruns  -> Closed -> Open      (t1)
    //   calls 4-6  rejected (no store op, no spike)
    //   call  7    probe, spike overruns     -> Open -> HalfOpen    (t2)
    //                                        -> HalfOpen -> Open    (t3)
    let client = RcClient::with_backend(
        std::sync::Arc::new(faulty.clone()),
        sync_config(StdDuration::from_millis(5)),
    );
    assert!(client.initialize(), "initialize is not deadline-bound");

    let reg = rc_obs::global();
    let at = |name: &str| reg.counter(name).get();
    let lookups0 = at(rc_obs::CLIENT_LOOKUPS);
    let defaults0 = at(rc_obs::CLIENT_DEFAULTS);
    let fresh0 = at(rc_obs::CLIENT_FRESH_FETCHES);
    let stale0 = at(rc_obs::CLIENT_STALE_SERVES);
    let hits0 = at(rc_obs::CLIENT_RESULT_CACHE_HITS);
    let transitions0 = at(rc_obs::CLIENT_BREAKER_TRANSITIONS);
    let spikes_reg0 = at(rc_obs::STORE_INJECTED_LATENCY_SPIKES);
    let spikes0 = faulty.injector().injected().latency_spikes;

    for call in 1..=3 {
        let (response, served) = client.predict_single_traced("VM_P95UTIL", &inputs);
        assert_eq!(response, PredictionResponse::NoPrediction, "call {call}");
        assert_eq!(served, Served::Default, "call {call}");
    }
    assert_eq!(
        at(rc_obs::CLIENT_BREAKER_TRANSITIONS) - transitions0,
        1,
        "three deadline overruns trip the breaker open"
    );
    assert_eq!(client.open_breaker_count(), 1);
    assert_eq!(faulty.injector().injected().latency_spikes - spikes0, 3);

    for call in 4..=6 {
        let (response, served) = client.predict_single_traced("VM_P95UTIL", &inputs);
        assert_eq!(response, PredictionResponse::NoPrediction, "call {call}");
        assert_eq!(served, Served::Default, "call {call}");
    }
    assert_eq!(
        faulty.injector().injected().latency_spikes - spikes0,
        3,
        "an open breaker fails fast: rejected calls never reach the store"
    );

    let (response, _) = client.predict_single_traced("VM_P95UTIL", &inputs);
    assert_eq!(response, PredictionResponse::NoPrediction, "call 7's probe overruns too");
    assert_eq!(at(rc_obs::CLIENT_BREAKER_TRANSITIONS) - transitions0, 3, "probe reopens");
    assert_eq!(faulty.injector().injected().latency_spikes - spikes0, 4);
    assert_eq!(
        at(rc_obs::STORE_INJECTED_LATENCY_SPIKES) - spikes_reg0,
        4,
        "the injector's registry counter must match its own tally"
    );

    // Exact reconciliation: all seven lookups degraded to defaults — no
    // fresh serve ever slipped through a blown deadline.
    let lookups = at(rc_obs::CLIENT_LOOKUPS) - lookups0;
    let defaults = at(rc_obs::CLIENT_DEFAULTS) - defaults0;
    assert_eq!(lookups, 7);
    assert_eq!(defaults, 7);
    assert_eq!(at(rc_obs::CLIENT_FRESH_FETCHES) - fresh0, 0);
    assert_eq!(at(rc_obs::CLIENT_STALE_SERVES) - stale0, 0);
    assert_eq!(at(rc_obs::CLIENT_RESULT_CACHE_HITS) - hits0, 0);
    assert_eq!(client.retry_count(), 0, "max_attempts = 1 leaves no room for retries");
    assert_eq!(client.store_fallback_count(), 7, "every failed pull fell through to (no) disk");
}

#[test]
fn corrupted_disk_entry_is_skipped_and_counted() {
    let _gate = gate();
    let (trace, store) = world();
    let _restore = AvailabilityGuard(store);
    let dir = temp_dir("corrupt_disk");
    let config = ClientConfig { disk_cache_dir: Some(dir.clone()), ..ClientConfig::default() };

    // Healthy first client mirrors all six models (and the feature blob)
    // to disk, and tells us a subscription that predicts.
    let inputs = {
        let first = RcClient::new(store.clone(), config.clone());
        assert!(first.initialize());
        assert_eq!(first.get_available_models().len(), 6);
        (0..trace.n_vms() as u64)
            .map(|id| vm_inputs(trace, VmId(id)))
            .find(|inputs| first.predict_single("VM_P95UTIL", inputs).is_predicted())
            .expect("some subscription must be predictable")
    };

    // Scribble over the persisted VM_AVGUTIL model: a torn/bit-rotted
    // entry must fail the frame checksum, not decode.
    let target = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("model_") && name.contains("AVGUTIL")
        })
        .expect("the disk cache must hold the VM_AVGUTIL model")
        .path();
    std::fs::write(&target, b"this is not a framed cache entry at all").unwrap();

    // Outage: a fresh client can only come up from disk.
    store.set_available(false);
    let second = RcClient::new(store.clone(), config);
    assert!(second.initialize(), "five intact models are plenty to come up");
    assert!(second.corrupt_payload_count() >= 1, "the mangled entry must be counted");
    let models = second.get_available_models();
    assert_eq!(models.len(), 5, "exactly the corrupt model is missing: {models:?}");
    assert!(!models.contains(&"VM_AVGUTIL".to_string()));

    // The corrupt model degrades to the default; the others still serve.
    assert_eq!(second.predict_single("VM_AVGUTIL", &inputs), PredictionResponse::NoPrediction);
    assert!(second.predict_single("VM_P95UTIL", &inputs).is_predicted());
    let _ = std::fs::remove_dir_all(&dir);
}
