//! The benchmark's contract: workloads, end-to-end metrics and per-layer
//! metrics, by name. `BENCHMARK.json` at the repository root is
//! [`manifest_json`] verbatim (`--print-manifest`); a test below fails
//! when the committed file and this table disagree.

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

/// A workload and why it is in the benchmark.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "serve_hit",
        why: "predict_single over a warmed 16,384-key working set: only key hash, cache probe and client bookkeeping run, so a change to models, store or scheduler must not move it",
    },
    WorkloadSpec {
        name: "serve_miss",
        why: "predict_single on never-seen keys with the result cache full: every op is feature assembly, tree walk, insert and FIFO eviction; the cache serve_hit only reads is here only written",
    },
    WorkloadSpec {
        name: "place",
        why: "Scheduler::schedule plus completions through RcSource(RcClient) at the stream's natural hit ratio: the rule-chain scan dominates; the request-to-placement budget",
    },
    WorkloadSpec {
        name: "refresh",
        why: "run_pipeline, publish_gated, force_reload_cache and 1,000 verified probes: the offline-to-online path with fit, model encode and decode, store puts and gets, manifest flip",
    },
    WorkloadSpec {
        name: "loop",
        why: "one steady LoopController::run_tick: ingest, sketch, labelling and live evaluation in bulk; the only workload that runs rc-loop",
    },
];

/// `true` when a larger value is better.
pub type HigherIsBetter = bool;

/// An end-to-end metric: `(name, unit, higher is better, bound)`.
///
/// The bounds are at least three times the widest spread (interquartile
/// range over median, ten seeds) that a quiet spell of the builder's box
/// showed for the metric on any workload — 7.0 %, 5.3 %, 4.6 % and 3.9 %,
/// as `benchmark/README.md` tabulates — and the time bounds leave room for
/// the 9 % a busier spell showed: the box is a shared-tenancy VM, and a
/// bound inside its own band would gate on the neighbours.
pub const END_TO_END: [(&str, &str, HigherIsBetter, f64); 4] = [
    ("setup_s", "s", false, 0.25),
    ("ops_per_s", "1/s", true, 0.2),
    ("op_p50_us", "us", false, 0.2),
    ("peak_rss_mb", "MB", false, 0.15),
];

/// A per-layer metric: `(name, unit, higher is better)`. The prefix is
/// the layer; `benchmark/README.md` says which end-to-end metric each
/// one should move, on which workload.
pub const PER_LAYER: [(&str, &str, HigherIsBetter); 61] = [
    ("models.features_ns_p50", "ns", false),
    ("models.forest_predict_ns_p50", "ns", false),
    ("models.gbt_predict_ns_p50", "ns", false),
    ("models.encode_ms", "ms", false),
    ("models.decode_ms", "ms", false),
    ("models.bytes_total", "B", false),
    ("cache.key_ns_p50", "ns", false),
    ("cache.get_hit_ns_p50", "ns", false),
    ("cache.get_miss_ns_p50", "ns", false),
    ("cache.insert_ns_p50", "ns", false),
    ("cache.insert_evict_ns_p50", "ns", false),
    ("client.hit_ns_p50", "ns", false),
    ("client.self_hit_ns", "ns", false),
    ("client.miss_ns_p50", "ns", false),
    ("client.self_miss_ns", "ns", false),
    ("client.execs_per_lookup", "count", false),
    ("client.evictions_per_insert", "count", false),
    ("client.hit_ratio", "count", true),
    ("client.predict_many_per_s", "1/s", true),
    ("client.shadow_predict_ns_p50", "ns", false),
    ("client.reload_ms", "ms", false),
    ("scheduler.schedule_ns_p50", "ns", false),
    ("scheduler.schedule_ns_p99", "ns", false),
    ("scheduler.source_ns_p50", "ns", false),
    ("scheduler.self_ns_p50", "ns", false),
    ("scheduler.complete_ns_p50", "ns", false),
    ("scheduler.busy_servers_mean", "count", false),
    ("scheduler.util_cap_rejections_per_placement", "count", false),
    ("scheduler.rule_relaxations_per_placement", "count", false),
    ("scheduler.sim_arrivals_per_s", "1/s", true),
    ("scheduler.sim_readings_per_s", "1/s", true),
    ("trace.generate_vms_per_s", "1/s", true),
    ("trace.stream_reqs_per_s", "1/s", true),
    ("labels.label_vms_ms", "ms", false),
    ("ml.bin_build_ms", "ms", false),
    ("ml.forest_fit_ms", "ms", false),
    ("ml.gbt_fit_ms", "ms", false),
    ("pipeline.run_ms", "ms", false),
    ("pipeline.publish_ms", "ms", false),
    ("pipeline.train_scaling_2w", "count", true),
    ("store.get_ns_p50", "ns", false),
    ("store.put_ns_p50", "ns", false),
    ("store.gets_per_op", "count", false),
    ("store.puts_per_op", "count", false),
    ("store.fingerprint_ms", "ms", false),
    ("obs.counter_inc_ns", "ns", false),
    ("obs.histogram_record_ns", "ns", false),
    ("obs.accuracy_record_ns", "ns", false),
    ("obs.sketch_record_ns", "ns", false),
    ("obs.snapshot_ms", "ms", false),
    ("loop.tick_steady_ms", "ms", false),
    ("loop.window_generate_ms", "ms", false),
    ("loop.window_label_ms", "ms", false),
    ("loop.window_eval_ms", "ms", false),
    ("loop.tick_self_ms", "ms", false),
    ("loop.tick_retrain_ms", "ms", false),
    ("loop.bootstrap_ms", "ms", false),
    ("window.op_tail_us", "us", false),
    ("window.allocs_per_op", "count", false),
    ("window.segment_spread_pct", "%", false),
    ("trace_overhead_pct", "%", false),
];

fn better(higher: HigherIsBetter) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s += &format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n", w.name, w.why);
    }
    s += "  ],\n  \"end_to_end\": [\n";
    for (i, (name, unit, higher, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}\n",
            better(*higher)
        );
    }
    s += "  ],\n  \"per_layer\": [\n";
    for (i, (name, unit, higher)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
            better(*higher)
        );
    }
    s += "  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_code() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest_json(), "regenerate with run.sh --print-manifest");
    }

    #[test]
    fn names_units_and_whys_are_inside_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.as_bytes()[0].is_ascii_alphanumeric()
                && n.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
        for (name, unit, _, bound) in &END_TO_END {
            assert!(name_ok(name) && unit_ok(unit) && seen.insert(name), "{name}");
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
        }
        for (name, unit, _) in &PER_LAYER {
            assert!(name_ok(name) && unit_ok(unit) && seen.insert(name), "{name}");
        }
        assert!(PER_LAYER.len() <= 128 && manifest_json().len() <= 64 * 1024);
    }
}
