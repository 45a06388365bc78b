//! One-thread, closed-loop benchmark of the Resource Central stack.
//!
//! `run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload in one process and prints, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics of an untraced run, or the per-layer metrics of a traced one.
//! See `benchmark/README.md`.

mod catalogue;
mod control_loop;
mod layers;
mod place;
mod refresh;
mod serve;
mod spans;
mod stats;
mod window;
mod world;

use std::path::PathBuf;
use std::time::Instant;

use crate::spans::Spans;
use crate::window::{counter, proc_status, CpuMask, Report, Workload};

/// Counts every allocation, for `window.allocs_per_op`.
#[global_allocator]
static ALLOC: rc_obs::CountingAllocator = rc_obs::CountingAllocator;

/// Set-ups per run. `setup_s` is their median, so that one slow start —
/// the first also pays the process's page faults — does not decide it.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]\n       run.sh --print-manifest\n       run.sh --scan-loop-seeds <from> <to>",
        catalogue::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: catalogue::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    let mut seeded = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => {
                args.seed = value().parse().unwrap_or_else(|_| usage());
                seeded = true;
            }
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--out" => args.out = PathBuf::from(value()),
            "--print-manifest" => {
                print!("{}", catalogue::manifest_json());
                std::process::exit(0)
            }
            "--scan-loop-seeds" => {
                let from = value().parse().unwrap_or_else(|_| usage());
                let to = value().parse().unwrap_or_else(|_| usage());
                control_loop::scan_seeds(from, to);
                std::process::exit(0)
            }
            _ => usage(),
        }
    }
    // NaN is not a duration either.
    if !seeded || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Pins glibc's mmap threshold at 1 MiB. Left alone it starts at 128 KiB
/// and moves up to the size of the largest block freed so far; whether a
/// 2.6 MB training matrix then lands in a hole of the heap or extends it
/// depends on the order earlier blocks were freed in (hash-map iteration
/// order decides), and `VmHWM` of one `refresh` input read 43.4 to 47.0 MB
/// from run to run. Pinned, such blocks always get a mapping of their own
/// that goes back to the kernel when freed, and it reads 37.2 to 37.7 MB
/// at the same cycle time. (At 128 KiB the cycle is a fifth slower: every
/// buffer of the JSON decoder then pays its page faults anew.)
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;
    extern "C" {
        fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    // SAFETY: `mallopt` only stores the value, and no other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD)");
}

fn main() {
    pin_mmap_threshold();
    let cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    let all_cpus = window::pin_to_current_cpu();
    let args = parse_args();
    match args.workload.as_str() {
        "serve_hit" => run::<serve::ServeHit>(&args, cpus, all_cpus),
        "serve_miss" => run::<serve::ServeMiss>(&args, cpus, all_cpus),
        "place" => run::<place::Place>(&args, cpus, all_cpus),
        "refresh" => run::<refresh::Refresh>(&args, cpus, all_cpus),
        "loop" => run::<control_loop::ControlLoop>(&args, cpus, all_cpus),
        _ => usage(),
    }
}

fn run<W: Workload>(args: &Args, cpus: usize, all_cpus: CpuMask) {
    println!(
        "workload {} seed {} seconds {} trace {}; pinned to one of {cpus} cpus",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let pool_before = counter(rc_obs::ML_POOL_WORKERS_SPAWNED);

    // Set-up, several times over; the last world is the one measured.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(W::setup(args.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    println!("setup_s runs {setup_s:?}");

    // The window: untraced, or a short untraced one to compare a traced one to.
    let threads_before = proc_status("Threads");
    let mut spans = args.trace.then(Spans::new);
    let plain_s = if args.trace { args.seconds / 3.0 } else { args.seconds };
    let plain = window::run(&mut workload, plain_s, None);
    let counters = window::Counters::read(layers::WINDOW_COUNTERS);
    let traced =
        spans.as_mut().map(|s| window::run(&mut workload, args.seconds - plain_s, Some(s)));
    let threads_after = proc_status("Threads");
    let pool_spawned = counter(rc_obs::ML_POOL_WORKERS_SPAWNED) - pool_before;
    let peak_rss_mb = proc_status("VmHWM") as f64 / 1024.0;

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    if let Some(traced) = &traced {
        layers::window_metrics(&counters, traced.ops, &mut metrics);
    }

    let measured = traced.as_ref().unwrap_or(&plain);
    let sorted = measured.sorted_op_ns();
    let (tail_pct, tail_ns) = stats::tail(&sorted);
    println!(
        "window ops {} failed {} wall_s {:.3} samples {} of {} ops; op us min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p{:.4} {:.4}",
        measured.ops,
        measured.failed,
        measured.wall_s(),
        measured.samples.len(),
        measured.batch,
        sorted[0] as f64 / 1e3,
        stats::percentile(&sorted, 0.25) as f64 / 1e3,
        measured.op_p50_us(),
        stats::percentile(&sorted, 0.75) as f64 / 1e3,
        tail_pct,
        tail_ns as f64 / 1e3
    );

    let mut report = Report::default();
    let ops = plain.ops + traced.as_ref().map_or(0, |t| t.ops);
    let failed = plain.failed + traced.as_ref().map_or(0, |t| t.failed);
    workload.verify(ops, &mut report);
    report.check(threads_before == 1 && threads_after == 1, "one thread at window start and end");
    report.check(pool_spawned == 0, "no rc_ml::pool worker spawned over set-up and window");

    if let (Some(traced), Some(spans)) = (&traced, spans.as_mut()) {
        let segments = stats::segment_rates(&traced.samples, traced.batch, 6);
        metrics.extend([
            ("window.op_tail_us", tail_ns as f64 / 1e3),
            ("window.allocs_per_op", traced.allocs as f64 / traced.ops as f64),
            ("window.segment_spread_pct", stats::spread_pct(&segments)),
            ("trace_overhead_pct", 100.0 * (plain.ops_per_s() / traced.ops_per_s() - 1.0)),
        ]);
        drop(workload);
        layers::measure(args.seed, all_cpus, spans, &mut metrics);
        let path = args.out.join(format!("{}.spans.json", args.workload));
        spans.write_json(&path, &args.workload, args.seed).expect("write the spans file");
        println!(
            "spans {} recorded {} dropped -> {}",
            spans.recorded(),
            spans.dropped(),
            path.display()
        );
        report.check(spans.dropped() == 0, "zero dropped spans");
    } else {
        metrics.extend([
            ("setup_s", stats::median_f64(&setup_s)),
            ("ops_per_s", plain.ops_per_s()),
            ("op_p50_us", plain.op_p50_us()),
            ("peak_rss_mb", peak_rss_mb),
        ]);
    }

    let expected: Vec<(&str, &str)> = if args.trace {
        catalogue::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        catalogue::END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let mut fields = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        let value = metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1;
        assert!(value.is_finite(), "metric {name} is {value}");
        println!("metric {name} {value} {unit}");
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {ops}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.failed_checks == 0,
        fields.join(", ")
    );
}
