//! Multi-day chaos soak of the continuous control loop (`rc-loop`).
//!
//! Drives a [`LoopController`] through a scripted multi-day schedule in
//! which every lifecycle transition the loop supports — and every chaos
//! fault kind the plan can inject — fires at least once:
//!
//! - tick 0: bootstrap training promotes the first model set;
//! - tick 6: a cadence retrain meets a heavily corrupted telemetry
//!   window and fails cleanly (one degraded tick, nothing published);
//! - tick 8: a permanent workload surge begins — the *leading* monitor
//!   trips on the input sketch the same tick, before a single label
//!   resolves, and the loop retrains and recovers immediately;
//! - tick 11: a correlated brownout takes out one store key shard;
//!   tick 12: the collector's clock skews between windows — both are
//!   journaled and neither perturbs the loop (blast radius held);
//! - tick 14: one metric's trainer faults; the pipeline isolates it and
//!   promotes the surviving models;
//! - ticks 17–21: telemetry quality ramps down slowly; leading drift
//!   trips at tick 17 and retrains at 18 — three ticks before label
//!   drift appears at 20 — then the label watchdog rolls the
//!   degradation-fitted model back and the publish gate blocks
//!   candidates trained on the worst windows;
//! - tick 22: the recovery retrain's manifest flip races a concurrent
//!   manual publish; the CAS backs off with a typed `PublishRace`
//!   instead of overwriting, and the next tick carries on;
//! - ticks 24–25: a transient anomaly tricks the loop into promoting a
//!   model fitted to the anomaly; the post-flip watchdog catches the
//!   regression at tick 27, rolls back, quarantines the bad content
//!   digest, and retrains back out of the drift;
//! - ticks 31–32: the anomaly repeats identically — the deterministic
//!   retrain reproduces the quarantined bytes and is blocked before any
//!   write (`rc_loop_quarantine_blocked`), twice;
//! - tick 33: the recovery candidate (trained on garbled telemetry) is
//!   rejected in shadow with the store byte-untouched;
//! - tick 39: the store fails mid-publish; the flip aborts with the
//!   manifest consistent and the loop keeps running.
//!
//! The run is a pure function of `RC_LOOP_SEED`: stdout, the journal
//! digest, the store fingerprint, and the deterministic sections of
//! `BENCH_loop.json` are byte-identical across same-seed runs (CI
//! double-runs this binary and diffs the report).
//!
//! Environment: `RC_LOOP_SEED` (default `0xC0FFEE`) selects the fleet;
//! `RC_SCALE` scales the per-window VM count (floored to keep the
//! training pipeline viable); `RC_REPORT_DIR` redirects the report.

use std::io::Write as _;

use rc_loop::{ChaosPlan, LoopConfig, LoopController, LoopEvent, RetrainReason, WorkloadShift};
use rc_obs::BenchReport;
use rc_types::PredictionMetric;

/// Default soak seed; override with `RC_LOOP_SEED`.
const DEFAULT_SEED: u64 = 0xC0_FFEE;

/// A transient downward anomaly layered on top of the surge: utilization
/// collapses for the window(s) it covers, then snaps back. Both episodes
/// use the same transform so the drift-triggered retrain reproduces
/// byte-identical models — which is what exercises the quarantine block.
fn anomaly(from_tick: u32, until_tick: u32) -> WorkloadShift {
    WorkloadShift {
        from_tick,
        until_tick,
        base_mul: 0.35,
        base_add: 0.05,
        p95_mul: 0.4,
        p95_add: 0.08,
        ramp_ticks: 0,
    }
}

/// The scripted soak schedule. Every chaos entry is keyed to a tick
/// where the cadence or the drift monitor forces a retrain, so each
/// fault lands on the code path it is meant to exercise.
fn soak_config(seed: u64) -> LoopConfig {
    let window_vms = ((2_600.0 * rc_bench::scale()) as usize).max(2_200);
    LoopConfig {
        seed,
        ticks: 42,
        window_vms,
        retrain_every: 6,
        shifts: vec![WorkloadShift::surge(8), anomaly(24, 26), anomaly(31, 33)],
        chaos: ChaosPlan {
            dirty_at: vec![(6, 0.9)],
            fail_train_at: vec![
                // Every trainer faults at tick 6: the whole retrain fails
                // (the dirty window is the story; the fault guarantees it).
                (6, PredictionMetric::ALL.to_vec()),
                (14, vec![PredictionMetric::WorkloadClass]),
            ],
            outage_after_puts: vec![(39, 2)],
            degrade_candidate_at: vec![33],
            // Tick 11: a correlated brownout of one key shard — no store
            // traffic touches it this tick, so the only trace is the
            // journal line; the tick-end heal bounds the blast radius.
            brownout_at: vec![(11, 3)],
            // Ticks 17–21: telemetry quality ramps down slowly; every
            // reading stays valid, but the distribution creeps until the
            // leading monitor trips — before label accuracy falls.
            degrade_telemetry: vec![(17, 22)],
            // Tick 12: the collector's clock jumps between windows.
            // Lifetimes are unshifted, so the sketch — and the loop —
            // shrug it off.
            clock_skew_at: vec![12],
            // Tick 22: a manual operator publish races the recovery
            // retrain's manifest flip; the CAS backs off with a typed
            // race instead of overwriting.
            manual_publish_at: vec![22],
            ..ChaosPlan::default()
        },
        ..LoopConfig::default()
    }
}

/// One deterministic line per journal event.
fn describe(event: &LoopEvent) -> String {
    match event {
        LoopEvent::WindowIngested { vms, quarantined } => {
            format!("window ingested: {vms} VMs ({quarantined} quarantined)")
        }
        LoopEvent::DriftDetected { metric } => format!("drift detected: {metric}"),
        LoopEvent::RetrainScheduled { reason } => match reason {
            RetrainReason::Bootstrap => "retrain scheduled: bootstrap".to_string(),
            RetrainReason::Drift { metrics } => {
                format!("retrain scheduled: drift on {}", metrics.join(", "))
            }
            RetrainReason::LeadingDrift { features } => {
                format!("retrain scheduled: leading drift on {}", features.join(", "))
            }
            RetrainReason::Cadence => "retrain scheduled: cadence".to_string(),
        },
        LoopEvent::RetrainFailed { error } => format!("retrain failed: {error}"),
        LoopEvent::MetricQuarantined { metric } => format!("metric quarantined: {metric}"),
        LoopEvent::ShadowEvaluated { serving_mean, candidate_mean } => {
            format!("shadow evaluated: serving {serving_mean:.4} vs candidate {candidate_mean:.4}")
        }
        LoopEvent::ShadowRejected { reason } => format!("shadow rejected: {reason}"),
        LoopEvent::QuarantineBlocked { digest } => {
            format!("quarantine blocked promotion: digest {digest:#018x}")
        }
        LoopEvent::Promoted { version } => format!("promoted: manifest v{version}"),
        LoopEvent::PublishFailed { error } => format!("publish failed: {error}"),
        LoopEvent::RolledBack { to_version, quarantined_digest } => {
            format!("rolled back to v{to_version}, quarantined digest {quarantined_digest:#018x}")
        }
        LoopEvent::RollbackUnavailable => "rollback unavailable: no earlier good version".into(),
        LoopEvent::ServeReloadIncomplete { expected, serving } => {
            format!("serve reload incomplete: expected manifest v{expected}, serving v{serving}")
        }
        LoopEvent::LeadingDriftDetected { feature, psi } => {
            format!("leading drift detected: {feature} (psi {psi:.3})")
        }
        LoopEvent::ChaosInjected { kind } => format!("chaos injected: {kind}"),
        LoopEvent::PublishRaceDetected { expected, actual } => {
            format!("publish race detected: expected manifest v{expected}, found v{actual}")
        }
    }
}

fn main() {
    let seed = std::env::var("RC_LOOP_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            s.strip_prefix("0x")
                .map(|hex| u64::from_str_radix(hex, 16).ok())
                .unwrap_or_else(|| s.parse().ok())
        })
        .unwrap_or(DEFAULT_SEED);
    let config = soak_config(seed);
    let ticks = config.ticks;

    eprintln!("loop_soak: seed {seed:#x}, {ticks} ticks, {} VMs/window", config.window_vms);
    let mut controller = LoopController::new(config.clone());
    let before = controller.registry().snapshot();
    for tick in 0..ticks {
        controller.run_tick();
        eprint!("\rtick {}/{ticks}", tick + 1);
        std::io::stderr().flush().ok();
    }
    eprintln!();
    let after = controller.registry().snapshot();

    // Deterministic stdout: the full journal, then the summary.
    println!("control-loop soak: seed {seed:#x}, {ticks} simulated days");
    rc_bench::rule(72);
    for entry in controller.journal() {
        println!("day {:>2}  {}", entry.tick, describe(&entry.event));
    }
    rc_bench::rule(72);
    let summary = controller.summary();
    println!(
        "retrains {} (failures {}), shadow evals {} (rejections {}), promotions {}",
        summary.retrains,
        summary.retrain_failures,
        summary.shadow_evals,
        summary.shadow_rejections,
        summary.promotions,
    );
    println!(
        "rollbacks {}, quarantine-blocked {}, degraded ticks {}, final manifest v{}",
        summary.rollbacks,
        summary.quarantine_blocked,
        summary.degraded_ticks,
        summary.final_version,
    );
    println!(
        "leading trips {}, publish races {}, chaos injections {}",
        summary.leading_trips, summary.publish_races, summary.chaos_injected,
    );
    println!(
        "end-to-end accuracy: loop {:.4} vs frozen-first-model baseline {:.4}",
        summary.live_accuracy, summary.frozen_accuracy,
    );
    for row in &summary.per_metric {
        println!("  {:<22} loop {:.4}  frozen {:.4}", row.metric, row.live, row.frozen);
    }
    println!(
        "journal digest {:#018x}, store fingerprint {:#018x}",
        summary.journal_digest, summary.store_fingerprint,
    );

    let mut report = BenchReport::new("loop");
    report
        .set_config("seed", seed)
        .set_config("ticks", ticks)
        .set_config("window_days", config.window_days)
        .set_config("window_vms", config.window_vms as u64)
        .set_config("n_subscriptions", config.n_subscriptions as u64)
        .set_config("retrain_every", config.retrain_every)
        .set_config("watch_ticks", config.watch_ticks)
        .set_result("summary", &summary)
        .set_result("accuracy_gain", summary.live_accuracy - summary.frozen_accuracy)
        .set_counter_deltas(&after, &before)
        // The tick's stage budget: median per stage over the soak's ticks.
        .set_span_medians(rc_obs::global_tracer(), "loop.");
    match report.write_default("BENCH_loop.json") {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("report write failed: {e}"),
    }
}
