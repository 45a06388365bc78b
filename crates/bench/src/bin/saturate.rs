//! Thread-per-core saturation bench for the lock-free serve path.
//!
//! Pins N client threads against *one* [`RcClient`] and sweeps the thread
//! count over three traffic mixes: all hits over a pre-warmed result
//! cache (the §6.1 steady state), all misses (never-seen keys: feature
//! assembly, model execution, insert), and 60/40 hits to misses (our
//! replay's ratio). Every rung runs a *fixed* number of operations per
//! thread, so the deterministic sections of the report (lookups, hits,
//! misses, registry counter deltas) are byte-identical across runs;
//! wall-clock throughput and the p50/p99 latencies from the rc-obs
//! registry live in the excluded `spans`/`quantiles` sections. The report
//! records `available_parallelism`: rungs with more threads than that
//! measure time-slicing, not scaling.
//!
//! The binary also installs [`rc_obs::CountingAllocator`] as the global
//! allocator and proves the headline claim directly: after warm-up,
//! neither a cache-hit nor a cache-miss `predict_single` performs a heap
//! allocation (the probe aborts the bench if it ever sees one).
//!
//! Thread rungs come from `RC_SAT_THREADS` (comma-separated, default
//! `1,2,4,8`); per-thread operation count from `RC_SAT_OPS` (default
//! `100000`). Writes `BENCH_serve.json` (`rc-bench-report/1`).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use rc_bench::histogram_delta;
use rc_core::labels::vm_inputs;
use rc_core::{ClientConfig, ClientInputs, RcClient};
use rc_obs::BenchReport;
use rc_store::Store;
use rc_trace::{Trace, TraceConfig};
use rc_types::time::Timestamp;
use rc_types::vm::VmId;
use serde::Value;

#[global_allocator]
static ALLOC: rc_obs::CountingAllocator = rc_obs::CountingAllocator;

const MODEL: &str = "VM_P95UTIL";
const WORKING_SET: u64 = 2_048;
const ALLOC_PROBE_OPS: u64 = 10_000;

fn thread_rungs() -> Vec<usize> {
    let spec = std::env::var("RC_SAT_THREADS").unwrap_or_else(|_| "1,2,4,8".into());
    let rungs: Vec<usize> = spec
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("RC_SAT_THREADS entries are integers"))
        .collect();
    assert!(!rungs.is_empty(), "RC_SAT_THREADS named no rungs");
    rungs
}

fn ops_per_thread() -> u64 {
    std::env::var("RC_SAT_OPS").ok().and_then(|s| s.parse().ok()).unwrap_or(100_000)
}

/// What a rung's threads ask for.
#[derive(Clone, Copy)]
enum Mix {
    /// The warmed working set, round and round.
    Hits,
    /// A key of its own per op.
    Misses,
    /// Three hits, then two misses.
    Mixed,
}

impl Mix {
    const ALL: [Mix; 3] = [Mix::Hits, Mix::Misses, Mix::Mixed];

    /// Report label of the mix's rung at `n_threads`; the hit rungs keep
    /// the names they had before there were other mixes.
    fn label(self, n_threads: usize) -> String {
        match self {
            Mix::Hits => format!("rung_{n_threads}"),
            Mix::Misses => format!("miss_rung_{n_threads}"),
            Mix::Mixed => format!("mixed_rung_{n_threads}"),
        }
    }

    fn misses(self, op: u64) -> bool {
        match self {
            Mix::Hits => false,
            Mix::Misses => true,
            Mix::Mixed => op % 5 >= 3,
        }
    }
}

/// Reserves `n` deployment days nobody has asked about yet and returns
/// the first: the cache key buckets time by day, so a working-set input
/// moved to a fresh day is a certain miss.
fn take_days(next_day: &mut u64, n: u64) -> u64 {
    let first = *next_day;
    *next_day += n;
    first
}

fn moved_to(inputs: &ClientInputs, day: u64) -> ClientInputs {
    let hour_secs = inputs.deployment_time.as_secs() % 86_400;
    ClientInputs { deployment_time: Timestamp::from_secs(day * 86_400 + hour_secs), ..*inputs }
}

/// One rung: `n_threads` each issuing `ops` predictions of `mix` against
/// the shared client. Returns aggregate predictions/sec.
fn run_rung(
    client: &RcClient,
    inputs: &Arc<Vec<ClientInputs>>,
    next_day: &mut u64,
    mix: Mix,
    n_threads: usize,
    ops: u64,
) -> f64 {
    let barrier = Arc::new(Barrier::new(n_threads + 1));
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let c = client.clone();
            let barrier = barrier.clone();
            let inputs = inputs.clone();
            let first_day = take_days(next_day, ops);
            std::thread::spawn(move || {
                // Offset start positions so threads fan out across the
                // cache shards instead of marching in lockstep.
                let mut i = (t as u64 * WORKING_SET) / 4;
                barrier.wait();
                for op in 0..ops {
                    i = (i + 1) % WORKING_SET;
                    let inp = &inputs[i as usize];
                    let response = if mix.misses(op) {
                        c.predict_single(MODEL, &moved_to(inp, first_day + op))
                    } else {
                        c.predict_single(MODEL, inp)
                    };
                    std::hint::black_box(response);
                }
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for handle in handles {
        handle.join().expect("saturation thread");
    }
    (n_threads as u64 * ops) as f64 / started.elapsed().as_secs_f64()
}

/// Counts heap allocations across `ALLOC_PROBE_OPS` warmed calls on the
/// calling thread, hits or misses. The serve path promises zero of both.
fn path_allocations(client: &RcClient, inputs: &[ClientInputs], miss_days: Option<u64>) -> u64 {
    let request = |k: u64| {
        let inp = &inputs[(k % WORKING_SET) as usize];
        miss_days.map_or(*inp, |first_day| moved_to(inp, first_day + k))
    };
    // Warm-up: first use registers this thread's epoch slot and touches
    // every lazy TLS/static the path consults — allowed to allocate.
    for k in 0..64 {
        let _ = client.predict_single(MODEL, &request(k));
    }
    let before = rc_obs::thread_allocations();
    for k in 64..64 + ALLOC_PROBE_OPS {
        std::hint::black_box(client.predict_single(MODEL, &request(k)));
    }
    rc_obs::thread_allocations() - before
}

fn main() {
    let rungs = thread_rungs();
    let ops = ops_per_thread();
    let registry = rc_obs::global();
    let mut bench = BenchReport::new("serve");
    bench
        .set_config("threads", Value::Array(rungs.iter().map(|&t| Value::U64(t as u64)).collect()));
    bench.set_config("ops_per_thread", ops);
    bench.set_config("working_set", WORKING_SET);
    bench.set_config("model", MODEL);
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    bench.set_config("available_parallelism", cpus as u64);

    // A small world is enough: the rung workload never misses, so model
    // quality is irrelevant — only the serve path is under test.
    let trace = Trace::generate(&TraceConfig {
        target_vms: 5_000,
        n_subscriptions: 200,
        days: 24,
        ..TraceConfig::small()
    });
    let output = rc_core::run_pipeline(&trace, &rc_core::PipelineConfig::fast(24))
        .expect("pipeline on saturation trace");
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("publish");
    let client = RcClient::new(store, ClientConfig::default());
    assert!(client.initialize(), "client must initialize from the in-memory store");

    // The working set the hit ops cycle through.
    let inputs: Arc<Vec<ClientInputs>> = Arc::new(
        (0..WORKING_SET).map(|i| vm_inputs(&trace, VmId(i % trace.n_vms() as u64))).collect(),
    );
    let warm = || {
        for inp in inputs.iter() {
            let _ = client.predict_single(MODEL, inp);
        }
    };
    warm();
    let mut next_day = 20_000;

    // Zero-allocation proofs before the sweep touches the counters.
    let hit_allocs = path_allocations(&client, &inputs, None);
    assert_eq!(hit_allocs, 0, "cache-hit predict_single must not allocate (saw {hit_allocs})");
    let miss_days = take_days(&mut next_day, 64 + ALLOC_PROBE_OPS);
    let miss_allocs = path_allocations(&client, &inputs, Some(miss_days));
    assert_eq!(miss_allocs, 0, "cache-miss predict_single must not allocate (saw {miss_allocs})");
    bench.set_result("hit_path_allocations", hit_allocs);
    bench.set_result("miss_path_allocations", miss_allocs);
    bench.set_result("alloc_probe_ops", ALLOC_PROBE_OPS);

    let run_before = registry.snapshot();
    println!(
        "serve-path saturation: {WORKING_SET} warmed keys, {ops} ops/thread, {cpus} CPU(s) available"
    );
    println!(
        "allocations over {ALLOC_PROBE_OPS} calls: {hit_allocs} on hits, {miss_allocs} on misses"
    );
    rc_bench::rule(84);
    println!(
        "{:>16}  {:>14}  {:>9}  {:>9}  {:>10}  {:>10}",
        "rung", "pred/s", "hits", "misses", "hit p50 ns", "miss p50 ns"
    );

    for mix in Mix::ALL {
        for &n_threads in &rungs {
            // Every rung starts from the warmed working set alone, so that
            // no miss of an earlier rung can push a hit key out mid-rung.
            client.clear_result_cache();
            warm();
            let before = registry.snapshot();
            let per_sec = run_rung(&client, &inputs, &mut next_day, mix, n_threads, ops);
            let after = registry.snapshot();
            let delta = |name| rc_bench::counter_delta(&after, &before, name);
            let (lookups, hits, misses) = (
                delta(rc_obs::CLIENT_LOOKUPS),
                delta(rc_obs::CLIENT_RESULT_CACHE_HITS),
                delta(rc_obs::CLIENT_RESULT_CACHE_MISSES),
            );
            let expected_misses =
                n_threads as u64 * (0..ops).filter(|&op| mix.misses(op)).count() as u64;
            assert_eq!(lookups, n_threads as u64 * ops, "every op is one lookup");
            assert_eq!(misses, expected_misses, "fresh days miss, the warmed set never does");
            assert_eq!(hits + misses, lookups);
            assert_eq!(delta(rc_obs::CLIENT_MODEL_EXECS), misses, "one model execution per miss");
            let hit_ns = histogram_delta(&after, &before, rc_obs::CLIENT_PREDICT_HIT_LATENCY_NS);
            let miss_ns = histogram_delta(&after, &before, rc_obs::CLIENT_PREDICT_MISS_LATENCY_NS);
            let label = mix.label(n_threads);
            println!(
                "{:>16}  {:>14.0}  {:>9}  {:>9}  {:>10.0}  {:>10.0}",
                label,
                per_sec,
                hits,
                misses,
                hit_ns.quantile(0.50),
                miss_ns.quantile(0.50),
            );
            bench.set_result(
                &label,
                Value::Object(vec![
                    ("threads".to_string(), Value::U64(n_threads as u64)),
                    ("lookups".to_string(), Value::U64(lookups)),
                    ("hits".to_string(), Value::U64(hits)),
                    ("misses".to_string(), Value::U64(misses)),
                ]),
            );
            if hits > 0 {
                bench.set_quantiles(&format!("{label}_hit_ns"), &hit_ns);
            }
            if misses > 0 {
                bench.set_quantiles(&format!("{label}_miss_ns"), &miss_ns);
            }
            bench.set_span(&format!("saturate.{label}.predictions_per_sec"), per_sec as u64);
        }
    }

    rc_bench::rule(84);
    let run_after = registry.snapshot();
    bench.set_counter_deltas(&run_after, &run_before);
    let path = bench.write_default("BENCH_serve.json").expect("write report");
    println!("report: {}", path.display());
}
