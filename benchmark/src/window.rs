//! The timed window: a closed loop on one thread, one op after another,
//! with the process facts the benchmark guards and reports.

use std::os::raw::{c_int, c_ulong};
use std::time::Instant;

use crate::spans::{OpTrace, Spans};

/// One of the five workloads.
pub trait Workload: Sized {
    /// Ops timed together as one sample. One `Instant::now()` per sample
    /// keeps the timer under 0.2 % of the window even for 0.3 µs ops, and
    /// a multiple of six covers every model equally often.
    const BATCH: usize;
    /// In a traced run, every `SPAN_STRIDE`-th sample is recorded as a
    /// span, so that a window's spans fit the recorder.
    const SPAN_STRIDE: u64;
    /// Name of the op span.
    const OP_SPAN: &'static str;

    /// Everything before the first timed op: world build, training,
    /// publish, client initialize, warm-up.
    fn setup(seed: u64) -> Self;

    /// One op; `false` when it failed. `trace` is `Some` for the ops of a
    /// sampled batch of a traced run: the recorder and the op's span.
    fn op(&mut self, trace: OpTrace<'_>) -> bool;

    /// After the window: reconcile counters (`check`) and print what is a
    /// pure function of the seed (`det`).
    fn verify(&mut self, ops: u64, report: &mut Report);
}

/// Checks and determinism lines gathered after the window.
#[derive(Default)]
pub struct Report {
    pub failed_checks: u32,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("check ok: {what}");
        } else {
            println!("check FAILED: {what}");
            self.failed_checks += 1;
        }
    }

    pub fn det(&mut self, line: &str) {
        println!("det: {line}");
    }
}

/// Segments `ops_per_s` is the median of: one second each in a full run.
pub const RATE_SEGMENTS: usize = 15;

/// What one window measured.
pub struct Window {
    pub ops: u64,
    pub failed: u64,
    /// Nanoseconds per batch of `batch` ops, in order. Sample `i` runs from
    /// the end of sample `i - 1`, so the samples add up to the wall time.
    pub samples: Vec<u64>,
    pub batch: usize,
    /// Heap allocations made by the ops (the harness itself makes none).
    pub allocs: u64,
}

impl Window {
    pub fn wall_s(&self) -> f64 {
        self.samples.iter().sum::<u64>() as f64 / 1e9
    }

    /// Ops per second: the median of the rates of [`RATE_SEGMENTS`]
    /// consecutive segments of the window. A stall, or a spell in which
    /// the box itself is slow, moves the segments it falls in and leaves
    /// the median alone, where ops over wall time would carry all of it;
    /// a slower program moves every segment.
    pub fn ops_per_s(&self) -> f64 {
        let rates = crate::stats::segment_rates(&self.samples, self.batch, RATE_SEGMENTS);
        crate::stats::median_f64(&rates)
    }

    /// Ascending per-op times in nanoseconds (a batch's mean).
    pub fn sorted_op_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples.iter().map(|s| s / self.batch as u64).collect();
        v.sort_unstable();
        v
    }

    /// Median per-op time in microseconds, from the batch durations
    /// themselves so that no digit is lost to the integer division above.
    pub fn op_p50_us(&self) -> f64 {
        crate::stats::median(&self.samples) as f64 / self.batch as f64 / 1e3
    }
}

/// Runs ops back to back until `seconds` have passed.
pub fn run<W: Workload>(w: &mut W, seconds: f64, mut spans: Option<&mut Spans>) -> Window {
    let budget_ns = (seconds * 1e9) as u64;
    // Room for a sample every 4 µs; a faster batch than that would be a
    // harness bug worth the reallocation showing up in `allocs`.
    let mut samples: Vec<u64> = Vec::with_capacity((budget_ns / 4_000) as usize + 16);
    let (mut ops, mut failed) = (0u64, 0u64);
    let allocs_before = rc_obs::thread_allocations();
    let start = Instant::now();
    let mut last_ns = 0u64;
    while last_ns < budget_ns {
        let sampled = spans.is_some() && (samples.len() as u64).is_multiple_of(W::SPAN_STRIDE);
        if sampled {
            let rec = spans.as_deref_mut().expect("sampled implies a recorder");
            let id = rec.open(W::OP_SPAN, None, ops);
            for _ in 0..W::BATCH {
                failed += u64::from(!w.op(Some((&mut *rec, id))));
            }
            rec.close(id);
        } else {
            for _ in 0..W::BATCH {
                failed += u64::from(!w.op(None));
            }
        }
        ops += W::BATCH as u64;
        let now_ns = start.elapsed().as_nanos() as u64;
        samples.push(now_ns - last_ns);
        last_ns = now_ns;
    }
    let allocs = rc_obs::thread_allocations() - allocs_before;
    Window { ops, failed, samples, batch: W::BATCH, allocs }
}

/// A field of `/proc/self/status` (`Threads`, `VmHWM` in kB, ...).
pub fn proc_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// Current value of a counter in the process-global registry.
pub fn counter(name: &str) -> u64 {
    rc_obs::global().counter(name).get()
}

/// Some global counters as they stood at one instant, to take deltas of.
#[derive(Clone, Copy)]
pub struct Counters<const N: usize> {
    names: [&'static str; N],
    then: [u64; N],
}

impl<const N: usize> Counters<N> {
    pub fn read(names: [&'static str; N]) -> Self {
        Counters { names, then: names.map(counter) }
    }

    /// How much each counter grew since [`Counters::read`], in its order.
    pub fn deltas(&self) -> [u64; N] {
        let mut now = self.names.map(counter);
        for (n, then) in now.iter_mut().zip(self.then) {
            *n -= then;
        }
        now
    }
}

/// CPUs the calling thread may run on (`cpu_set_t`: 1024 bits).
#[derive(Clone, Copy)]
pub struct CpuMask([c_ulong; CpuMask::WORDS]);

extern "C" {
    fn sched_getcpu() -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

impl CpuMask {
    const BITS: usize = 8 * std::mem::size_of::<c_ulong>();
    const WORDS: usize = 1024 / Self::BITS;
    const BYTES: usize = std::mem::size_of::<[c_ulong; Self::WORDS]>();

    /// The calling thread's mask.
    pub fn current() -> CpuMask {
        let mut mask = CpuMask([0; Self::WORDS]);
        // SAFETY: the buffer is writable and `BYTES` long; pid 0 names the
        // calling thread.
        let status = unsafe { sched_getaffinity(0, Self::BYTES, mask.0.as_mut_ptr()) };
        assert_eq!(status, 0, "sched_getaffinity");
        mask
    }

    /// Makes this the calling thread's mask.
    pub fn apply(&self) {
        // SAFETY: the buffer is readable and `BYTES` long.
        let status = unsafe { sched_setaffinity(0, Self::BYTES, self.0.as_ptr()) };
        assert_eq!(status, 0, "sched_setaffinity");
    }
}

/// Confines the calling thread to the CPU it is on, for good, and returns
/// the mask it had.
///
/// Two reasons. The scheduler otherwise moves the one thread between the
/// box's vCPUs now and then, and every move costs it its caches: over five
/// seeds `serve_miss/ops_per_s` ranged over 10 % unpinned and over 4 %
/// pinned. And code that sizes a thread pool from
/// `available_parallelism()` — `LoopController`'s bootstrap retrain, a knob
/// the harness cannot reach — then takes its documented serial path, so no
/// timed region ever has a second thread.
///
/// # Panics
///
/// Panics when the kernel refuses the mask or `available_parallelism()`
/// does not read 1 under it: the run would time a thread fan-out.
pub fn pin_to_current_cpu() -> CpuMask {
    let before = CpuMask::current();
    // SAFETY: no arguments, no preconditions.
    let cpu = unsafe { sched_getcpu() };
    assert!((0..1024).contains(&cpu), "sched_getcpu returned {cpu}");
    let mut one = CpuMask([0; CpuMask::WORDS]);
    one.0[cpu as usize / CpuMask::BITS] = 1 << (cpu as usize % CpuMask::BITS);
    one.apply();
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    assert_eq!(parallelism, 1, "available_parallelism() on one CPU");
    before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_reads_one_cpu_and_the_old_mask_brings_the_rest_back() {
        let before = std::thread::available_parallelism().unwrap().get();
        let all = pin_to_current_cpu();
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        all.apply();
        assert_eq!(std::thread::available_parallelism().unwrap().get(), before);
    }

    #[test]
    fn counters_report_growth_since_they_were_read() {
        let names = ["bench_test_counter_a", "bench_test_counter_b"];
        rc_obs::global().counter(names[0]).add(5);
        let before = Counters::read(names);
        rc_obs::global().counter(names[0]).add(2);
        rc_obs::global().counter(names[1]).increment();
        assert_eq!(before.deltas(), [2, 1]);
    }

    #[test]
    fn proc_status_reads_numbers() {
        assert!(proc_status("Threads") >= 1);
        assert!(proc_status("VmHWM") > 0);
    }
}
