//! `loop`: one steady `LoopController::run_tick` per op. Tick 0, the
//! bootstrap retrain, is set-up.

use rc_loop::{LoopConfig, LoopController, LoopEvent};
use rc_obs::Counter;
use rc_trace::{TraceConfig, VmStream};

use crate::spans::OpTrace;
use crate::window::{Report, Workload};

/// Steady ticks run in set-up, after the bootstrap: the first of them
/// still pays first-touch costs, and the drift monitors need a few ticks
/// to show that they stay quiet on this window.
const WARMUP_TICKS: u32 = 4;

/// `LoopConfig::seed` values the benchmark draws from.
///
/// A loop window is a 2,600-VM target of a heavy-tailed generator: among
/// the first forty seeds it holds 2,546 to 5,649 VMs, a tick costs between
/// 28 and 426 ms (it follows the number of VMs observed for three days or
/// more, each of which goes through the FFT), one seed in eight fails its
/// bootstrap gate, and one in ten trips the label-drift monitor on its own
/// window. A benchmark whose op varies tenfold with `--seed` cannot hold a
/// 10 % bound, and one whose ops fail has no latency to report.
///
/// These seven were kept from `--scan-loop-seeds 1 12000` (64 candidates
/// ran; the rest have a window more than 3 % off the first entry's 2,788
/// VMs or 190 long-lived VMs) and then from full `loop` runs: bootstrap
/// promotes, no steady tick retrains or degrades, and against the first
/// entry the tick is within 2 %, `VmHWM` within 4 % (it comes in two
/// classes 13 % apart; these are the lower) and set-up within 20 %.
/// `--seed` picks one by remainder.
pub const LOOP_SEEDS: [u64; 7] = [19, 1546, 3577, 2192, 3728, 8472, 868];

pub fn loop_config(seed: u64) -> LoopConfig {
    LoopConfig {
        seed: LOOP_SEEDS[(seed % LOOP_SEEDS.len() as u64) as usize],
        retrain_every: 0,
        leading_observe_only: true,
        ..LoopConfig::default()
    }
}

/// The trace config the controller derives for its (only) window — the
/// derivation in `LoopController::ingest_window`, repeated here so that
/// the traced run can replay a tick's stages through public calls.
/// `verify` checks it against the journal.
pub fn window_trace_config(config: &LoopConfig) -> TraceConfig {
    TraceConfig {
        seed: config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        days: config.window_days,
        n_subscriptions: config.n_subscriptions,
        target_vms: config.window_vms,
        n_regions: 2,
    }
}

/// A controller past its bootstrap tick. The bootstrap retrain sizes its
/// thread pool from `available_parallelism()`, a knob the harness cannot
/// reach; `main` has confined the thread to one CPU, so the pool takes its
/// serial path.
pub fn bootstrapped(config: LoopConfig) -> LoopController {
    let mut controller = LoopController::new(config);
    assert_eq!(std::thread::available_parallelism().map_or(0, |p| p.get()), 1, "not pinned");
    controller.run_tick();
    assert_eq!(controller.serving_version(), 1, "the bootstrap tick promotes version 1");
    controller
}

pub struct ControlLoop {
    config: LoopConfig,
    controller: LoopController,
    retrains: Counter,
    degraded: Counter,
    setup_line: String,
}

impl Workload for ControlLoop {
    const BATCH: usize = 1;
    const SPAN_STRIDE: u64 = 1;
    const OP_SPAN: &'static str = "loop.run_tick";

    fn setup(seed: u64) -> Self {
        let config = loop_config(seed);
        let mut controller = bootstrapped(config.clone());
        for _ in 0..WARMUP_TICKS {
            controller.run_tick();
        }
        let summary = controller.summary();
        let setup_line = format!(
            "loop seed {} journal {:016x} store {:016x} live_accuracy {:016x}",
            config.seed,
            summary.journal_digest,
            summary.store_fingerprint,
            summary.live_accuracy.to_bits()
        );
        let retrains = controller.registry().counter(rc_obs::LOOP_RETRAINS);
        let degraded = controller.registry().counter(rc_obs::LOOP_DEGRADED_TICKS);
        ControlLoop { config, controller, retrains, degraded, setup_line }
    }

    fn op(&mut self, _trace: OpTrace<'_>) -> bool {
        let before = (self.retrains.get(), self.degraded.get());
        self.controller.run_tick();
        (self.retrains.get(), self.degraded.get()) == before
    }

    fn verify(&mut self, ops: u64, report: &mut Report) {
        let summary = self.controller.summary();
        report.check(
            summary.retrains == 1 && summary.promotions == 1 && summary.final_version == 1,
            "exactly one retrain in a loop run",
        );
        report.check(summary.degraded_ticks == 0, "no degraded tick");
        report.check(
            summary.ticks as u64 == 1 + WARMUP_TICKS as u64 + ops,
            "one tick per op after bootstrap and warm-up",
        );
        let window_vms = VmStream::new(&window_trace_config(&self.config)).count() as u64;
        let ingested = self.controller.journal().iter().all(|e| match e.event {
            LoopEvent::WindowIngested { vms, quarantined } => vms == window_vms && quarantined == 0,
            _ => true,
        });
        report.check(ingested, "every ingested window is the harness's replica of it");
        report.det(&self.setup_line);
    }
}

/// Size of a seed's window and how many of its VMs are observed for three
/// days or more: those go through the FFT, which is most of a tick.
fn window_shape(config: &LoopConfig) -> (usize, usize) {
    let window = VmStream::new(&window_trace_config(config)).collect_trace();
    let long_lived = window
        .vm_ids()
        .filter(|&id| {
            let (first, last) = window.vm_slots(id);
            (last - first) as f64 * 300.0 / 86_400.0 >= rc_core::labels::CLASSIFY_MIN_DAYS
        })
        .count();
    (window.n_vms(), long_lived)
}

/// `--scan-loop-seeds`: one line per candidate `LoopConfig::seed` with
/// what [`LOOP_SEEDS`] is chosen by. Candidates whose window is not
/// within 3 % of the first entry's in both counts are skipped unrun: a
/// window takes milliseconds to generate, a candidate seconds to run.
pub fn scan_seeds(from: u64, to: u64) {
    const TICKS: usize = 24;
    let reference = window_shape(&loop_config(0));
    let near = |a: usize, b: usize| (a as f64 - b as f64).abs() <= 0.03 * b as f64;
    println!("seed window_vms long_lived bootstrap_ms tick_p50_ms retrains degraded");
    for seed in from..=to {
        let config = LoopConfig { seed, ..loop_config(0) };
        let (window_vms, long_lived) = window_shape(&config);
        if !near(window_vms, reference.0) || !near(long_lived, reference.1) {
            continue;
        }
        print!("{seed} {window_vms} {long_lived} ");
        let mut controller = LoopController::new(config);
        let start = std::time::Instant::now();
        controller.run_tick();
        let bootstrap_ms = start.elapsed().as_secs_f64() * 1e3;
        if controller.serving_version() != 1 {
            println!("{bootstrap_ms:.1} - bootstrap did not promote");
            continue;
        }
        let mut ticks = Vec::with_capacity(TICKS);
        for _ in 0..TICKS {
            let start = std::time::Instant::now();
            controller.run_tick();
            ticks.push(start.elapsed().as_nanos() as u64);
        }
        let summary = controller.summary();
        println!(
            "{bootstrap_ms:.1} {:.2} {} {}",
            crate::stats::median(&ticks) as f64 / 1e6,
            summary.retrains,
            summary.degraded_ticks
        );
    }
}
