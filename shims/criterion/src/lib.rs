//! In-tree stand-in for `criterion`.
//!
//! Keeps the macro/builder surface the workspace's benches use
//! (`criterion_group!`/`criterion_main!`, `bench_function`,
//! `benchmark_group`, `iter`, `iter_batched`) but replaces the
//! statistical machinery with a simple auto-calibrated timing loop:
//! each benchmark runs `sample_size` samples, every sample executes a
//! batch sized so one batch takes ≳1ms, and the median/min/max per-call
//! times are printed. No HTML reports, no outlier analysis.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// How to amortize setup cost in [`Bencher::iter_batched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Run setup before every routine call (setup excluded from timing).
    PerIteration,
    /// Treated like `PerIteration` in this shim.
    SmallInput,
    /// Treated like `PerIteration` in this shim.
    LargeInput,
}

/// Re-export position matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Sets how many timing samples each benchmark collects.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs a single benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher { sample_size: self.sample_size, samples_ns: Vec::new() };
        f(&mut bencher);
        bencher.report(name);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup { sample_size: self.sample_size, _criterion: self }
    }
}

/// A group of related benchmarks (prefix printing only in this shim).
pub struct BenchmarkGroup<'c> {
    sample_size: usize,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs a benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher { sample_size: self.sample_size, samples_ns: Vec::new() };
        f(&mut bencher);
        bencher.report(name);
        self
    }

    /// Ends the group (no-op; matches the real API).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; runs and times the routine.
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine` in an auto-calibrated loop.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: find a batch size where one batch takes >= ~1ms so
        // Instant overhead stays well under 0.1%.
        let mut batch = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || batch >= 1 << 24 {
                break;
            }
            batch *= 8;
        }
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            self.samples_ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
    }

    /// Times `routine` with a fresh untimed `setup` product per call.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Setup runs outside the timed span, so no batch calibration:
        // each sample times `inner` routine calls individually.
        let inner = 16u32;
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let mut total = Duration::ZERO;
            for _ in 0..inner {
                let input = setup();
                let start = Instant::now();
                std::hint::black_box(routine(input));
                total += start.elapsed();
            }
            self.samples_ns.push(total.as_nanos() as f64 / inner as f64);
        }
    }

    fn report(&mut self, name: &str) {
        if self.samples_ns.is_empty() {
            println!("{name:<40} (no samples)");
            return;
        }
        self.samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let median = self.samples_ns[self.samples_ns.len() / 2];
        let min = self.samples_ns[0];
        let max = self.samples_ns[self.samples_ns.len() - 1];
        println!(
            "{name:<40} median {} (min {}, max {})",
            format_ns(median),
            format_ns(min),
            format_ns(max)
        );
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a benchmark group; supports both the positional form
/// `criterion_group!(benches, f1, f2)` and the config form with
/// `name`/`config`/`targets` fields.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench entry point running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_bench(c: &mut Criterion) {
        c.bench_function("noop_add", |b| {
            let mut x = 0u64;
            b.iter(|| {
                x = x.wrapping_add(1);
                x
            })
        });
    }

    #[test]
    fn runs_a_group_end_to_end() {
        let mut criterion = Criterion::default().sample_size(5);
        trivial_bench(&mut criterion);
        let mut group = criterion.benchmark_group("g");
        group.sample_size(3);
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::PerIteration)
        });
        group.finish();
    }
}
