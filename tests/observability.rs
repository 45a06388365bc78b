//! Cross-crate observability integration: the accuracy feedback loop
//! through the simulator, prediction-counter reconciliation through the
//! client, and hierarchical publish spans through the pipeline.

use std::sync::Arc;

use rc_core::labels::vm_inputs;
use rc_obs::{AccuracyTracker, DriftConfig, DriftSignal};
use rc_scheduler::P95Source;
use rc_trace::UtilParams;
use rc_types::time::Timestamp;
use rc_types::vm::{OsType, Party, ProdTag, SubscriptionId, VmId, VmRole};
use resource_central::prelude::*;

/// Oracle until `switch_at`, then a deterministic wrong bucket — the
/// "mid-run swap to a degraded model" the drift monitor must catch.
struct SwitchSource {
    switch_at: Timestamp,
}

impl P95Source for SwitchSource {
    fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)> {
        if req.created.as_secs() < self.switch_at.as_secs() {
            Some((req.true_p95_bucket, 1.0))
        } else {
            let h = req.vm_id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
            Some(((req.true_p95_bucket + 1 + (h % 3) as usize) % 4, 1.0))
        }
    }
}

/// One small non-production VM arriving at `t` and living five minutes.
fn short_vm(i: u64) -> VmRequest {
    let created = Timestamp::from_secs(i * 60);
    VmRequest {
        vm_id: VmId(i),
        cores: 2,
        memory_gb: 3.5,
        prod: ProdTag::NonProduction,
        created,
        deleted: Timestamp::from_secs(created.as_secs() + 300),
        util: UtilParams::creation_test(i),
        inputs: ClientInputs {
            subscription: SubscriptionId((i % 16) as u32),
            party: Party::First,
            role: VmRole::Iaas,
            prod: ProdTag::NonProduction,
            os: OsType::Linux,
            sku_index: 2,
            deployment_time: created,
            deployment_size_hint: 1,
            service: None,
        },
        true_p95_bucket: 0,
    }
}

/// §ISSUE acceptance: a mid-run swap to a degraded prediction source
/// must flip the rolling drift signal while cumulative accuracy alone
/// stays within tolerance of the training-time baseline.
#[test]
fn mid_run_model_swap_trips_rolling_drift_but_not_cumulative() {
    // 24 hours of arrivals, one per minute; the source turns wrong for
    // the last three hours (180 of 1440 predictions = 12.5%).
    let requests: Vec<VmRequest> = (0..1440).map(short_vm).collect();
    let switch_at = Timestamp::from_secs(21 * 3600);

    let tracker = Arc::new(AccuracyTracker::new(DriftConfig::default()));
    tracker.set_baseline("VM_P95UTIL", 0.95);
    let config = SimConfig {
        n_servers: 8,
        cores_per_server: 16.0,
        memory_per_server_gb: 112.0,
        scheduler: SchedulerConfig::new(PolicyKind::RcInformedSoft),
        util_shift: 0.0,
        tick_stride: 1,
        obs_tick_secs: 3600, // hourly epochs on the simulated clock
        accuracy: Some(tracker.clone()),
    };
    let report = simulate(
        &requests,
        &config,
        Box::new(SwitchSource { switch_at }),
        (Timestamp::ZERO, Timestamp::from_secs(90_000)),
    );
    assert_eq!(report.n_failures, 0, "the cluster is sized to place everything");

    // Every placement was confident, every VM resolved.
    assert_eq!(tracker.predictions("VM_P95UTIL"), 1440);
    assert_eq!(tracker.outcomes("VM_P95UTIL"), 1440);
    assert_eq!(tracker.pending("VM_P95UTIL"), 0);

    let cumulative = tracker.cumulative_accuracy("VM_P95UTIL").expect("outcomes recorded");
    let rolling = tracker.rolling_accuracy("VM_P95UTIL").expect("windowed outcomes");
    let threshold = 0.95 - DriftConfig::default().tolerance;
    // Cumulative accuracy alone would NOT flag the swap...
    assert!(
        cumulative >= threshold,
        "cumulative {cumulative:.3} dipped below the drift threshold {threshold:.3}"
    );
    // ...but the rolling window has collapsed and the signal tripped.
    assert!(rolling < threshold, "rolling {rolling:.3} should sit below {threshold:.3}");
    assert_eq!(tracker.drift("VM_P95UTIL"), DriftSignal::Drifting);

    // The tracker's gauges are visible in its registry snapshot and in
    // Prometheus exposition.
    let snapshot = tracker.registry().snapshot();
    let drift_gauge = rc_obs::acc_gauge_name(rc_obs::ACC_DRIFT, "VM_P95UTIL");
    let drifting =
        snapshot.gauges.iter().find(|g| g.name == drift_gauge).expect("drift gauge exported").value;
    assert_eq!(drifting, 1.0);
    let text = snapshot.to_prometheus_text();
    assert!(text.contains("rc_acc_rolling{metric=\"VM_P95UTIL\"}"));
    assert!(text.contains("rc_acc_confusion{metric=\"VM_P95UTIL\""));

    // The simulator's placements landed in the global registry and show
    // up in both snapshot and exposition formats.
    let global = rc_obs::global().snapshot();
    let placements =
        global.counter(rc_obs::SCHED_PLACEMENTS).expect("placements counter registered");
    assert!(placements >= 1440);
    assert!(global.to_prometheus_text().contains("# TYPE rc_sched_placements counter"));
}

/// Expands one catalog spelling into the metric names it stands for: a
/// `prefix_{a,b}` group yields `prefix_a` and `prefix_b`, and a trailing
/// `{metric}` or `{metric,p,o}` is a label set, not part of the name.
fn catalog_names(spelling: &str) -> Vec<String> {
    let Some(open) = spelling.find('{') else {
        return vec![spelling.to_string()];
    };
    let close = open + spelling[open..].find('}').expect("closed brace");
    let (head, group, tail) =
        (&spelling[..open], &spelling[open + 1..close], &spelling[close + 1..]);
    if !head.ends_with('_') {
        assert!(tail.is_empty(), "a label set ends the name: {spelling}");
        return vec![head.to_string()];
    }
    group.split(',').flat_map(|alt| catalog_names(&format!("{head}{alt}{tail}"))).collect()
}

/// README.md's metric catalog and `rc_obs::names` list the same metrics:
/// every `pub const` has a catalog row, and every name a row spells is a
/// constant.
#[test]
fn readme_metric_catalog_matches_the_name_constants() {
    let constants: std::collections::BTreeSet<String> = include_str!("../crates/obs/src/names.rs")
        .lines()
        .filter(|line| line.starts_with("pub const "))
        .map(|line| line.split('"').nth(1).expect("a string constant").to_string())
        .collect();
    let readme = include_str!("../README.md");
    let table = readme
        .split_once("Metric catalog (all names in `rc_obs::names`):")
        .expect("catalog heading")
        .1
        .trim_start()
        .lines()
        .take_while(|line| line.starts_with('|'))
        .skip(2);
    let mut cataloged = std::collections::BTreeSet::new();
    for row in table {
        let first_cell = row.split('|').nth(1).expect("a name cell");
        let spellings: Vec<&str> = first_cell.split('`').skip(1).step_by(2).collect();
        assert!(!spellings.is_empty(), "row names no metric: {row}");
        for name in spellings.iter().flat_map(|s| catalog_names(s)) {
            assert!(constants.contains(&name), "catalog row names no constant: {name}");
            cataloged.insert(name);
        }
    }
    let missing: Vec<&String> = constants.difference(&cataloged).collect();
    assert!(missing.is_empty(), "constants missing from the README catalog: {missing:?}");
}

/// Satellite: the accuracy tracker's scorecard (its cells and its
/// predicted-bucket histogram) reconciles exactly with the `rc_client_predictions` registry
/// delta when the tracker is fed one pair per predicted response.
#[test]
fn confusion_sums_reconcile_with_client_prediction_deltas() {
    let trace = Trace::generate(&TraceConfig {
        target_vms: 3_000,
        n_subscriptions: 150,
        days: 18,
        ..TraceConfig::small()
    });
    let output = run_pipeline(&trace, &PipelineConfig::fast(18)).expect("pipeline");
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("publish");
    let client = RcClient::new(store, ClientConfig::default());
    assert!(client.initialize());

    // Manifest-seeded baselines land in the process-global tracker.
    for report in &output.reports {
        let seeded = rc_obs::global_accuracy().baseline(report.metric.model_name());
        assert_eq!(seeded, Some(report.accuracy), "{} baseline", report.metric.model_name());
    }

    let tracker = AccuracyTracker::new(DriftConfig::default());
    let model = PredictionMetric::P95MaxCpuUtil.model_name();
    let registry = rc_obs::global();
    let before = registry.snapshot();
    let mut served = 0u64;
    for id in trace.vm_ids().take(600) {
        match client.predict_single(model, &vm_inputs(&trace, id)) {
            PredictionResponse::Predicted(p) => {
                served += 1;
                tracker.record_prediction(model, id.0, p.value);
                // Synthetic ground truth spread across buckets: the
                // reconciliation below is about counts, not accuracy.
                tracker.record_outcome(model, id.0, (p.value + id.0 as usize) % 4);
            }
            PredictionResponse::NoPrediction => {}
        }
    }
    let after = registry.snapshot();

    let delta = after.counter(rc_obs::CLIENT_PREDICTIONS).unwrap_or(0)
        - before.counter(rc_obs::CLIENT_PREDICTIONS).unwrap_or(0);
    assert!(served > 0, "the replay should produce predictions");
    assert_eq!(delta, served, "rc_client_predictions counts exactly the Predicted responses");

    let confusion = tracker.confusion(model);
    let k = confusion.k();
    let cells: u64 =
        (0..k).flat_map(|o| (0..k).map(move |p| (o, p))).map(|(o, p)| confusion.count(o, p)).sum();
    let predicted: u64 = confusion.predicted_histogram().iter().sum();
    assert_eq!(cells, delta, "confusion cells match the registry delta");
    assert_eq!(predicted, delta, "the predicted-bucket histogram matches the registry delta");
    assert_eq!(confusion.answered(), delta);
    assert_eq!(tracker.outcomes(model), delta);

    // The client's in-flight gauge returned to zero once the replay
    // finished (every entry balanced by an exit).
    let inflight = after.gauge(rc_obs::CLIENT_INFLIGHT).unwrap_or(0.0);
    assert_eq!(inflight, 0.0);
}

/// Satellite: publish decomposes into child spans that record their
/// parent's seq, so the pipeline publish → gate → store-write hierarchy
/// can be reassembled from the trace dump.
#[test]
fn publish_spans_nest_under_one_parent() {
    let trace = Trace::generate(&TraceConfig {
        target_vms: 3_000,
        n_subscriptions: 150,
        days: 18,
        ..TraceConfig::small()
    });
    let output = run_pipeline(&trace, &PipelineConfig::fast(18)).expect("pipeline");
    let store = Store::in_memory();
    output.publish(&store, 0.5).expect("publish");

    let events = rc_obs::global_tracer().events();
    let parents: Vec<u64> =
        events.iter().filter(|e| e.name == "pipeline.publish").map(|e| e.seq).collect();
    assert!(!parents.is_empty(), "the publish recorded its parent span");
    let nested = parents.iter().any(|&p| {
        ["publish.gate", "publish.payloads", "publish.flip"]
            .iter()
            .all(|child| events.iter().any(|e| e.name == *child && e.parent_seq == Some(p)))
    });
    assert!(nested, "gate/payloads/flip spans must all record the publish parent seq");
    for e in events.iter().filter(|e| e.name.starts_with("publish.")) {
        assert!(e.duration_ns.is_some(), "{} is a span, not an event", e.name);
    }
}
