//! §6.1 cache statistics: result-cache hit rates, hits per model
//! execution, and simulated store latencies — every number read back from
//! the rc-obs metrics registry the instrumented layers write into, not
//! from hand-rolled accounting. Ends with a full registry snapshot dumped
//! as JSON and Prometheus text covering all four instrumented layers.

use std::time::Instant;

use rc_bench::{counter_delta, experiment_pipeline, experiment_trace, histogram_delta};
use rc_core::{labels::vm_inputs, ClientConfig, RcClient};
use rc_obs::BenchReport;
use rc_scheduler::{
    simulate, suggest_server_count, OracleSource, PolicyKind, SchedulerConfig, SimConfig, VmRequest,
};
use rc_store::{LatencyModel, Store, StoreBackend};
use rc_types::time::Timestamp;
use rc_types::PredictionMetric;
use serde::Value;

fn main() {
    let started = Instant::now();
    let run_before = rc_obs::global().snapshot();
    let mut bench = BenchReport::new("cache");
    bench.set_config("scale", rc_bench::scale());
    let trace = experiment_trace();
    let output = experiment_pipeline(&trace);
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("publish");
    let registry = rc_obs::global();

    println!("Section 6.1 cache statistics (all numbers from the rc-obs registry)");
    {
        let probe = RcClient::new(store.clone(), ClientConfig::default());
        println!(
            "result cache: {} shards (exact per-shard counters, aggregated)",
            probe.result_cache_shards()
        );
    }
    rc_bench::rule(110);
    // Replay the *test month's* prediction workload per metric: the
    // scheduler asks once per VM, and identical (subscription, size, day)
    // requests hit the result cache. Snapshot deltas isolate each
    // metric's replay from everything else in the process-wide registry.
    let test_start = trace.config.days as u64 * 2 / 3;
    for metric in PredictionMetric::ALL {
        let client = RcClient::new(store.clone(), ClientConfig::default());
        assert!(client.initialize());
        let before = registry.snapshot();
        for id in trace.vm_ids() {
            let vm = trace.vm(id);
            if vm.created.day_index() < test_start {
                continue;
            }
            let _ = client.predict_single(metric.model_name(), &vm_inputs(&trace, id));
        }
        let after = registry.snapshot();

        let hits = counter_delta(&after, &before, rc_obs::CLIENT_RESULT_CACHE_HITS);
        let misses = counter_delta(&after, &before, rc_obs::CLIENT_RESULT_CACHE_MISSES);
        let execs = counter_delta(&after, &before, rc_obs::CLIENT_MODEL_EXECS);
        // The sharded cache's own counters must reconcile exactly with
        // what the instrumentation layer observed for this replay.
        let stats = client.result_cache_stats();
        assert_eq!(stats.hits, hits, "shard-aggregated hits match the registry delta");
        assert_eq!(stats.misses, misses, "shard-aggregated misses match the registry delta");
        let hit_latency = histogram_delta(&after, &before, rc_obs::CLIENT_PREDICT_HIT_LATENCY_NS);
        let requests = hits + misses;
        let hit_rate = if requests == 0 { 0.0 } else { hits as f64 / requests as f64 };
        let hits_per_exec = if execs == 0 { 0.0 } else { hits as f64 / execs as f64 };
        println!(
            "{:<24} requests {:>8}  hit-rate {:>6.1}%  hits/execution {:>6.1}  hit p99 {:>6.2}us  cache entries {:>7}",
            metric.label(),
            requests,
            hit_rate * 100.0,
            hits_per_exec,
            hit_latency.quantile(0.99) / 1_000.0,
            client.result_cache_len()
        );
        bench.set_result(
            metric.model_name(),
            Value::Object(vec![
                ("requests".to_string(), Value::U64(requests)),
                ("hits".to_string(), Value::U64(hits)),
                ("misses".to_string(), Value::U64(misses)),
                ("model_execs".to_string(), Value::U64(execs)),
                ("hit_rate".to_string(), Value::F64(hit_rate)),
                ("hits_per_exec".to_string(), Value::F64(hits_per_exec)),
                ("cache_entries".to_string(), Value::U64(client.result_cache_len() as u64)),
            ]),
        );
        bench.set_quantiles(&format!("{}_hit_ns", metric.model_name()), &hit_latency);
    }
    rc_bench::rule(110);
    println!("paper: an entry is accessed 18-68 times after its model execution, cache <= ~25 MB");
    println!();

    // Store pull cost with the paper's latency quantiles, read from the
    // store's own get-latency histogram (which includes the simulated
    // network spin).
    let lat_store = Store::with_latency(Some(LatencyModel::paper_store()));
    lat_store.put("features/0", vec![0u8; 850].into()).unwrap();
    let before = registry.snapshot();
    for _ in 0..2_000 {
        let _ = lat_store.get_latest("features/0").unwrap();
    }
    let after = registry.snapshot();
    let get_latency = histogram_delta(&after, &before, rc_obs::STORE_GET_LATENCY_NS);
    println!(
        "simulated store GET (850 B record): p50 {:.2} ms, p99 {:.2} ms over {} pulls (paper: 2.9 / 5.6 ms)",
        get_latency.quantile(0.5) / 1e6,
        get_latency.quantile(0.99) / 1e6,
        get_latency.count
    );
    bench.set_quantiles("store_get_ns", &get_latency);
    println!();

    // A short scheduler run so the fourth layer has registry activity in
    // the final dump (one week of arrivals, RC-informed soft rule).
    let sched_window = (Timestamp::ZERO, Timestamp::from_days(7));
    let requests = VmRequest::stream(&trace, sched_window.0, sched_window.1, 16);
    let config = SimConfig {
        n_servers: suggest_server_count(&requests, 16.0, 0.95),
        cores_per_server: 16.0,
        memory_per_server_gb: 112.0,
        scheduler: SchedulerConfig::new(PolicyKind::RcInformedSoft),
        util_shift: 0.0,
        tick_stride: 12,
        obs_tick_secs: rc_scheduler::OBS_TICK_DAILY,
        accuracy: None,
    };
    let before = registry.snapshot();
    simulate(&requests, &config, Box::new(OracleSource), sched_window);
    let after = registry.snapshot();
    println!(
        "scheduler warm-up week: placements {} failures {} relaxations {} readings {} (>100%: {})",
        counter_delta(&after, &before, rc_obs::SCHED_PLACEMENTS),
        counter_delta(&after, &before, rc_obs::SCHED_FAILURES),
        counter_delta(&after, &before, rc_obs::SCHED_RULE_RELAXATIONS),
        counter_delta(&after, &before, rc_obs::SCHED_READINGS),
        counter_delta(&after, &before, rc_obs::SCHED_OVERLOADED_READINGS),
    );
    bench.set_result(
        "scheduler_week",
        Value::Object(vec![
            (
                "placements".to_string(),
                Value::U64(counter_delta(&after, &before, rc_obs::SCHED_PLACEMENTS)),
            ),
            (
                "failures".to_string(),
                Value::U64(counter_delta(&after, &before, rc_obs::SCHED_FAILURES)),
            ),
            (
                "readings".to_string(),
                Value::U64(counter_delta(&after, &before, rc_obs::SCHED_READINGS)),
            ),
            (
                "overloaded".to_string(),
                Value::U64(counter_delta(&after, &before, rc_obs::SCHED_OVERLOADED_READINGS)),
            ),
        ]),
    );
    println!();

    // Full registry exposition: JSON round-trip plus Prometheus text,
    // with all four instrumented layers represented.
    let snapshot = registry.snapshot();
    let json = snapshot.to_json();
    let back: rc_obs::MetricsSnapshot =
        serde_json::from_slice(&json).expect("snapshot round-trips through JSON");
    assert_eq!(back, snapshot, "JSON round-trip must be lossless");
    let prometheus = snapshot.to_prometheus_text();
    println!(
        "registry snapshot: {} bytes JSON, {} lines Prometheus text",
        json.len(),
        prometheus.lines().count()
    );
    for prefix in ["rc_client_", "rc_pipeline_", "rc_store_", "rc_sched_"] {
        let counters = snapshot.counters.iter().filter(|c| c.name.starts_with(prefix)).count();
        let histograms = snapshot.histograms.iter().filter(|h| h.name.starts_with(prefix)).count();
        assert!(counters + histograms > 0, "layer {prefix} missing from the registry");
        println!("  {prefix:<13} {counters:>2} counters, {histograms} histograms");
    }
    let out_dir = std::path::Path::new("target");
    if std::fs::create_dir_all(out_dir).is_ok() {
        let json_path = out_dir.join("obs-snapshot.json");
        let prom_path = out_dir.join("obs-metrics.prom");
        if std::fs::write(&json_path, &json).is_ok()
            && std::fs::write(&prom_path, &prometheus).is_ok()
        {
            println!("  wrote {} and {}", json_path.display(), prom_path.display());
        }
    }

    bench.set_counter_deltas(&snapshot, &run_before);
    bench.set_span_timings(rc_obs::global_tracer(), "pipeline.");
    bench.set_span("bench.total", started.elapsed().as_nanos() as u64);
    match bench.write_default("BENCH_cache.json") {
        Ok(path) => eprintln!("[cache_stats] wrote {}", path.display()),
        Err(e) => eprintln!("[cache_stats] report write failed: {e}"),
    }
}
