//! Answered-rate sweep: store availability 1.0 → 0.0 under a seeded
//! fault plan, with the client's degradation ladder (retry/backoff,
//! circuit breakers, stale disk serves) keeping the answered rate pinned
//! at 100% at every point.
//!
//! All output on stdout is derived from seeded state only — no wall
//! times — so two runs with the same `RC_SCALE` / `RC_CHAOS_SEED` must be
//! byte-identical (CI diffs them). Progress goes to stderr.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rc_core::labels::vm_inputs;
use rc_core::{CacheMode, ClientConfig, ClientInputs, RcClient, RetryPolicy, Served};
use rc_obs::BenchReport;
use rc_store::{FaultPlan, FaultyStore, Store};
use rc_trace::{Trace, TraceConfig};
use rc_types::{PredictionMetric, VmId};
use serde::Value;

fn chaos_seed() -> u64 {
    std::env::var("RC_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC4A0_5017)
}

fn main() {
    let started = Instant::now();
    let s = rc_bench::scale();
    let seed = chaos_seed();
    let trace_config = TraceConfig {
        seed: 0x5059_2017,
        days: 24,
        n_subscriptions: ((2_000.0 * s) as usize).max(100),
        target_vms: ((40_000.0 * s) as usize).max(2_000),
        n_regions: 4,
    };
    eprintln!(
        "[availability] trace: {} subscriptions, ~{} VMs (RC_SCALE={s}, seed {seed:#x})",
        trace_config.n_subscriptions, trace_config.target_vms
    );
    let trace = Trace::generate(&trace_config);
    let output = rc_core::run_pipeline(&trace, &rc_core::PipelineConfig::fast(trace_config.days))
        .expect("pipeline");
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("publish");

    let n_requests = ((8_000.0 * s) as usize).max(400);
    let n_vms = trace.n_vms() as u64;
    let requests: Vec<(&'static str, ClientInputs)> = (0..n_requests)
        .map(|i| {
            let vm = VmId((i as u64 * 7919) % n_vms);
            let metric = PredictionMetric::ALL[i % PredictionMetric::ALL.len()];
            (metric.model_name(), vm_inputs(&trace, vm))
        })
        .collect();

    // Prime a disk cache through the healthy store so the sweep's clients
    // always have a (stale) local copy to fall back on.
    let dir = std::env::temp_dir().join(format!("rc_availability_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let primer = RcClient::new(
            store.clone(),
            ClientConfig {
                mode: CacheMode::Pull,
                disk_cache_dir: Some(dir.clone()),
                ..ClientConfig::default()
            },
        );
        assert!(primer.initialize(), "priming requires a healthy store");
        for (model, inputs) in &requests {
            let _ = primer.predict_single(model, inputs);
        }
    }
    eprintln!("[availability] disk cache primed; sweeping {} requests per point", requests.len());

    let registry = rc_obs::global();
    let sweep_before = registry.snapshot();
    let mut bench = BenchReport::new("avail");
    bench
        .set_config("scale", s)
        .set_config("chaos_seed", seed)
        .set_config("requests_per_point", requests.len() as u64)
        .set_config("points", 11u64);

    println!("Answered-rate sweep: store availability 1.0 -> 0.0 (seed {seed:#x})");
    println!(
        "{:>6} {:>9} {:>7} {:>7} {:>7} {:>9} {:>10} {:>9} {:>9}",
        "avail",
        "lookups",
        "hits",
        "fresh",
        "stale",
        "defaults",
        "predicted",
        "injected",
        "answered"
    );
    for step in 0..=10u32 {
        let p_unavailable = f64::from(step) / 10.0;
        let plan = FaultPlan {
            seed: seed.wrapping_add(u64::from(step)),
            p_unavailable,
            p_transient: 0.0,
            transient_burst: 0,
            p_latency_spike: 0.0,
            latency_spike: Duration::ZERO,
            p_corrupt: 0.05,
        };
        let faulty = FaultyStore::new(store.clone(), plan);
        // Zero disk expiry + a wide grace window: every disk entry is
        // served as stale, so the ladder's last data-bearing rung is
        // visible in the "stale" column as availability drops.
        let client = RcClient::with_backend(
            Arc::new(faulty.clone()),
            ClientConfig {
                mode: CacheMode::Pull,
                disk_cache_dir: Some(dir.clone()),
                disk_cache_expiry: Duration::ZERO,
                stale_grace: Duration::from_secs(3600),
                disk_write_through: false,
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff: Duration::ZERO,
                    max_backoff: Duration::ZERO,
                    call_deadline: Duration::from_secs(30),
                    ..RetryPolicy::default()
                },
                ..ClientConfig::default()
            },
        );
        assert!(client.initialize(), "store or disk must bring the client up at every point");

        let (mut hits, mut fresh, mut stale, mut defaults, mut predicted) = (0u64, 0, 0, 0, 0u64);
        let mut answered = 0u64;
        for (model, inputs) in &requests {
            let (response, served) = client.predict_single_traced(model, inputs);
            answered += 1;
            if response.is_predicted() {
                predicted += 1;
            }
            match served {
                Served::Hit => hits += 1,
                Served::Fresh => fresh += 1,
                Served::Stale => stale += 1,
                Served::Default => defaults += 1,
            }
        }

        let lookups = client.lookup_count();
        // The contract under sweep: 100% of calls answered, and the
        // ladder rungs reconcile exactly with the lookup count.
        assert_eq!(answered, requests.len() as u64, "every call must return");
        assert_eq!(lookups, answered);
        assert_eq!(
            hits + fresh + stale + defaults,
            lookups,
            "reconciliation broke at availability {:.1}",
            1.0 - p_unavailable
        );
        println!(
            "{:>6.1} {:>9} {:>7} {:>7} {:>7} {:>9} {:>10} {:>9} {:>8}%",
            1.0 - p_unavailable,
            lookups,
            hits,
            fresh,
            stale,
            defaults,
            predicted,
            faulty.injector().injected().total(),
            100 * answered / lookups,
        );
        bench.set_result(
            &format!("avail_{:.1}", 1.0 - p_unavailable),
            Value::Object(vec![
                ("lookups".to_string(), Value::U64(lookups)),
                ("hits".to_string(), Value::U64(hits)),
                ("fresh".to_string(), Value::U64(fresh)),
                ("stale".to_string(), Value::U64(stale)),
                ("defaults".to_string(), Value::U64(defaults)),
                ("predicted".to_string(), Value::U64(predicted)),
                ("injected".to_string(), Value::U64(faulty.injector().injected().total())),
                ("answered".to_string(), Value::U64(answered)),
            ]),
        );
    }
    println!("answered-rate pinned at 100% across the whole sweep");
    let sweep_after = registry.snapshot();
    bench.set_counter_deltas(&sweep_after, &sweep_before);
    if let Some(h) = sweep_after.histogram(rc_obs::CLIENT_PREDICT_HIT_LATENCY_NS) {
        bench.set_quantiles("client_predict_hit_ns", h);
    }
    if let Some(h) = sweep_after.histogram(rc_obs::CLIENT_PREDICT_MISS_LATENCY_NS) {
        bench.set_quantiles("client_predict_miss_ns", h);
    }
    bench.set_span("bench.total", started.elapsed().as_nanos() as u64);
    match bench.write_default("BENCH_avail.json") {
        Ok(path) => eprintln!("[availability] wrote {}", path.display()),
        Err(e) => eprintln!("[availability] report write failed: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
