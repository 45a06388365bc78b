//! Fault-kind × detector matrix: time-to-detection for leading vs
//! lagging drift signals (`BENCH_chaos.json`).
//!
//! Every scenario drives a fresh [`LoopController`] over the same fleet
//! with one fault kind injected at a fixed tick, with the leading
//! monitor in observe-only mode so both detectors race on the same
//! serving model:
//!
//! - **leading** — the input-distribution sketch (per-feature PSI vs the
//!   training baseline) trips *before* any label resolves;
//! - **lagging** — the label-based accuracy tracker needs predictions to
//!   come due and regress before it can fire.
//!
//! The matrix reports the first detection tick of each signal per fault
//! kind (−1 = never fired) and the leading margin in ticks. Workload
//! faults (step surge, ramped surge, anomaly, telemetry degradation)
//! should be caught by the leading monitor first; infrastructure faults
//! (store brownout, collector clock skew) perturb no feature the models
//! consume, so *neither* detector should fire — a tripped detector on
//! those rows would be a false positive.
//!
//! The run is a pure function of `RC_LOOP_SEED` (default `0xC0FFEE`):
//! stdout and the deterministic sections of the report are
//! byte-identical across same-seed runs (CI double-runs this binary and
//! diffs the report). `RC_SCALE` scales the per-window VM count;
//! `RC_REPORT_DIR` redirects the report.

use serde::Serialize;

use rc_loop::{ChaosPlan, LoopConfig, LoopController, LoopEvent, WorkloadShift};
use rc_obs::BenchReport;

/// Default matrix seed; override with `RC_LOOP_SEED`.
const DEFAULT_SEED: u64 = 0xC0_FFEE;

/// Tick every scenario injects its fault at.
const FAULT_TICK: u32 = 12;

/// Ticks per scenario: enough steady state before the fault and enough
/// room after it for the slower (label) detector to fire.
const TICKS: u32 = 26;

/// One cell pair of the matrix: a fault kind and both detectors' first
/// detection ticks.
#[derive(Serialize)]
struct MatrixRow {
    /// Fault kind injected at [`FAULT_TICK`].
    fault: String,
    /// Whether the detectors are *expected* to fire (workload faults)
    /// or stay quiet (infrastructure faults).
    expect_detection: bool,
    /// First tick (≥ fault tick) a `LeadingDriftDetected` event fired;
    /// −1 when the leading monitor never tripped.
    leading_tick: i64,
    /// First tick (≥ fault tick) a label `DriftDetected` event fired;
    /// −1 when label drift never tripped.
    label_tick: i64,
    /// Ticks of warning the leading signal bought over the lagging one
    /// (label tick − leading tick); −1 when either never fired.
    leading_margin: i64,
    /// Chaos injections journaled — the blast-radius witness that the
    /// fault actually ran.
    chaos_injected: u64,
    /// Degraded ticks over the whole scenario (bounded degradation).
    degraded_ticks: u64,
    /// Journal digest: the per-scenario reproducibility witness.
    journal_digest: String,
}

/// A scenario: one fault kind layered onto an otherwise steady fleet.
struct Scenario {
    name: &'static str,
    expect_detection: bool,
    shifts: Vec<WorkloadShift>,
    chaos: ChaosPlan,
}

fn scenarios() -> Vec<Scenario> {
    // The transient-anomaly transform from the soak, made permanent so
    // the lagging detector has time to catch up.
    let anomaly = WorkloadShift {
        from_tick: FAULT_TICK,
        until_tick: u32::MAX,
        base_mul: 0.35,
        base_add: 0.05,
        p95_mul: 0.4,
        p95_add: 0.08,
        ramp_ticks: 0,
    };
    vec![
        Scenario {
            name: "surge_step",
            expect_detection: true,
            shifts: vec![WorkloadShift::surge(FAULT_TICK)],
            chaos: ChaosPlan::default(),
        },
        Scenario {
            name: "surge_ramp",
            expect_detection: true,
            shifts: vec![WorkloadShift::ramped_surge(FAULT_TICK, 6)],
            chaos: ChaosPlan::default(),
        },
        Scenario {
            name: "anomaly",
            expect_detection: true,
            shifts: vec![anomaly],
            chaos: ChaosPlan::default(),
        },
        Scenario {
            name: "telemetry_degrade",
            expect_detection: true,
            shifts: vec![],
            chaos: ChaosPlan {
                degrade_telemetry: vec![(FAULT_TICK, TICKS)],
                ..ChaosPlan::default()
            },
        },
        Scenario {
            name: "brownout",
            expect_detection: false,
            shifts: vec![],
            chaos: ChaosPlan {
                brownout_at: (FAULT_TICK..FAULT_TICK + 6).map(|t| (t, t % 8)).collect(),
                ..ChaosPlan::default()
            },
        },
        Scenario {
            name: "clock_skew",
            expect_detection: false,
            shifts: vec![],
            chaos: ChaosPlan {
                clock_skew_at: (FAULT_TICK..FAULT_TICK + 6).collect(),
                ..ChaosPlan::default()
            },
        },
    ]
}

fn run_scenario(seed: u64, window_vms: usize, scenario: Scenario) -> MatrixRow {
    let config = LoopConfig {
        seed,
        ticks: TICKS,
        window_vms,
        // No cadence retrains: the only lifecycle activity is the
        // bootstrap promotion and whatever the detectors cause.
        retrain_every: u32::MAX,
        // Observe-only: leading trips are journaled but never schedule a
        // retrain, so the lagging detector sees the same unrepaired
        // fault and the race is fair.
        leading_observe_only: true,
        shifts: scenario.shifts,
        chaos: scenario.chaos,
        ..LoopConfig::default()
    };
    let mut controller = LoopController::new(config);
    for _ in 0..TICKS {
        controller.run_tick();
    }
    let first = |matches: &dyn Fn(&LoopEvent) -> bool| -> i64 {
        controller
            .journal()
            .iter()
            .find(|e| e.tick >= FAULT_TICK && matches(&e.event))
            .map_or(-1, |e| e.tick as i64)
    };
    let leading_tick = first(&|e| matches!(e, LoopEvent::LeadingDriftDetected { .. }));
    let label_tick = first(&|e| matches!(e, LoopEvent::DriftDetected { .. }));
    let summary = controller.summary();
    MatrixRow {
        fault: scenario.name.to_string(),
        expect_detection: scenario.expect_detection,
        leading_tick,
        label_tick,
        leading_margin: if leading_tick >= 0 && label_tick >= 0 {
            label_tick - leading_tick
        } else {
            -1
        },
        chaos_injected: summary.chaos_injected,
        degraded_ticks: summary.degraded_ticks,
        journal_digest: format!("{:#018x}", summary.journal_digest),
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
    let window_vms = ((2_600.0 * rc_bench::scale()) as usize).max(2_200);

    eprintln!("chaos_matrix: seed {seed:#x}, {TICKS} ticks/scenario, {window_vms} VMs/window");
    let mut rows = Vec::new();
    for scenario in scenarios() {
        eprintln!("  running {}", scenario.name);
        rows.push(run_scenario(seed, window_vms, scenario));
    }

    println!("chaos matrix: seed {seed:#x}, fault at tick {FAULT_TICK}, {TICKS} ticks");
    rc_bench::rule(72);
    println!(
        "{:<18} {:>8} {:>8} {:>8}  {:>6} {:>8}",
        "fault", "leading", "label", "margin", "chaos", "degraded"
    );
    for row in &rows {
        let fmt = |t: i64| if t < 0 { "-".to_string() } else { format!("t{t}") };
        println!(
            "{:<18} {:>8} {:>8} {:>8}  {:>6} {:>8}",
            row.fault,
            fmt(row.leading_tick),
            fmt(row.label_tick),
            fmt(row.leading_margin),
            row.chaos_injected,
            row.degraded_ticks,
        );
    }
    rc_bench::rule(72);

    // The matrix's contract, checked on every run: workload faults are
    // caught, and caught by the leading signal no later than the lagging
    // one; infrastructure faults trip neither detector.
    let mut violations = Vec::new();
    for row in &rows {
        if row.expect_detection {
            if row.leading_tick < 0 {
                violations.push(format!("{}: leading detector never fired", row.fault));
            }
            if row.label_tick >= 0 && row.leading_tick >= 0 && row.leading_tick > row.label_tick {
                violations.push(format!("{}: label drift fired before leading", row.fault));
            }
        } else {
            if row.leading_tick >= 0 {
                violations.push(format!("{}: leading false positive", row.fault));
            }
            if row.label_tick >= 0 {
                violations.push(format!("{}: label false positive", row.fault));
            }
        }
    }
    if violations.is_empty() {
        println!("contract: every workload fault detected (leading first), no false positives");
    } else {
        for v in &violations {
            println!("contract VIOLATION: {v}");
        }
    }

    let mut report = BenchReport::new("chaos");
    report
        .set_config("seed", seed)
        .set_config("ticks", TICKS)
        .set_config("fault_tick", FAULT_TICK)
        .set_config("window_vms", window_vms as u64)
        .set_result("matrix", &rows)
        .set_result("violations", &violations)
        // The tick's stage budget: median per stage over every scenario's
        // ticks the tracer still holds.
        .set_span_medians(rc_obs::global_tracer(), "loop.");
    match report.write_default("BENCH_chaos.json") {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("report write failed: {e}"),
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
