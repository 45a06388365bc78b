//! Metric instruments and the registry that owns them.
//!
//! Handles (`Counter`, `Gauge`, `Histogram`) are cheap `Arc` clones of
//! shared atomic state: hot paths register once, keep the handle, and
//! every update thereafter is a relaxed atomic RMW — no locks. The
//! registry's own maps are behind an `RwLock`, but that lock is touched
//! only at registration and snapshot time, never on the update path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crossbeam::utils::CachePadded;

use crate::snapshot::{
    BucketCount, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot,
};

/// A monotonically increasing count.
///
/// The atomic lives alone on its cache line: hot-path counters (predict
/// lookups/hits/misses) are bumped by every serving thread, and without
/// padding, counters that happen to be allocated adjacently ping-pong a
/// shared line between cores — the `obs_overhead` bench showed that
/// false sharing, not the RMW itself, dominates contended cost.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<CachePadded<AtomicU64>>,
}

impl Counter {
    /// A free-standing counter (registry-less, e.g. for tests).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn increment(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (stored as `f64` bits in an atomic),
/// cache-line padded for the same reason as [`Counter`] — the in-flight
/// gauge is adjusted twice per predict by every serving thread.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<CachePadded<AtomicU64>>,
}

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta` to the level (compare-exchange loop on
    /// the f64 bits), so concurrent adjusters never lose updates the way
    /// racing `get`+`set` pairs would.
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Atomically subtracts `delta` from the level.
    #[inline]
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Log-linear histogram bucketing parameters.
///
/// Values below 32 get exact unit buckets; above that, each power of two
/// splits into 32 linear sub-buckets, bounding relative error at ~3%.
/// Values at or above 2^42 (≈73 minutes in nanoseconds) saturate into
/// the final bucket.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS; // 32
const MAX_EXP: u32 = 42;
const N_BUCKETS: usize = ((MAX_EXP - SUB_BITS) as usize) * SUB as usize + SUB as usize;

/// Maps a recorded value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let idx = ((exp - SUB_BITS) as u64 * SUB + (v >> (exp - SUB_BITS))) as usize;
        idx.min(N_BUCKETS - 1)
    }
}

/// The *exclusive* upper bound of bucket `index` (every value in the
/// bucket is `< upper`); used for Prometheus `le` labels.
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    bucket_lower_bound(index) + bucket_width(index)
}

/// A representative value for bucket `index` (its midpoint), used when
/// extracting quantiles.
pub(crate) fn bucket_midpoint(index: usize) -> u64 {
    let lower = bucket_lower_bound(index);
    let width = bucket_width(index);
    lower + width / 2
}

/// The inclusive lower bound of bucket `index`.
pub(crate) fn bucket_lower_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        index
    } else {
        let chunk = index / SUB; // >= 1
        let sub = index % SUB;
        (SUB + sub) << (chunk - 1)
    }
}

/// The width of bucket `index` (1 for the unit buckets).
pub(crate) fn bucket_width(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        1
    } else {
        1 << (index / SUB - 1)
    }
}

/// A fixed-bucket latency/size distribution.
///
/// `record` is wait-free: one relaxed `fetch_add` on the bucket plus two
/// on count/sum. Quantiles are computed from snapshots, never from live
/// state, so readers don't perturb writers.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A free-standing histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: buckets.into_boxed_slice(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation (atomics only — safe on the hot path).
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &*self.inner;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Captures current bucket contents (sparse: zero buckets omitted).
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let inner = &*self.inner;
        let mut buckets = Vec::new();
        for (i, b) in inner.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push(BucketCount { index: i as u32, count: c });
            }
        }
        HistogramSnapshot {
            name: name.to_string(),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Owns named instruments; cheap to clone (shared state).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use. Callers on
    /// hot paths should hold the returned handle rather than re-looking
    /// it up per event.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.counters.read().expect("registry lock").get(name) {
            return c.clone();
        }
        self.inner
            .counters
            .write()
            .expect("registry lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.gauges.read().expect("registry lock").get(name) {
            return g.clone();
        }
        self.inner
            .gauges
            .write()
            .expect("registry lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.inner.histograms.read().expect("registry lock").get(name) {
            return h.clone();
        }
        self.inner
            .histograms
            .write()
            .expect("registry lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Captures every instrument's current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, c)| CounterSnapshot { name: name.clone(), value: c.get() })
            .collect();
        let gauges = self
            .inner
            .gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, g)| GaugeSnapshot { name: name.clone(), value: g.get() })
            .collect();
        let histograms = self
            .inner
            .histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_unit_range_is_exact() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_monotone() {
        // Every bucket's lower bound equals the previous bucket's lower
        // bound plus its width — no gaps, no overlaps.
        for i in 1..N_BUCKETS {
            assert_eq!(
                bucket_lower_bound(i),
                bucket_lower_bound(i - 1) + bucket_width(i - 1),
                "discontinuity at bucket {i}"
            );
        }
    }

    #[test]
    fn bucket_index_maps_into_own_bounds() {
        // Probe boundary values around every power of two.
        for exp in 0..50u32 {
            for delta in [-1i64, 0, 1] {
                let v = (1u64 << exp.min(62)).saturating_add_signed(delta);
                let i = bucket_index(v);
                assert!(i < N_BUCKETS);
                if i < N_BUCKETS - 1 {
                    assert!(
                        v >= bucket_lower_bound(i) && v < bucket_lower_bound(i) + bucket_width(i),
                        "v={v} landed in bucket {i} [{}, {})",
                        bucket_lower_bound(i),
                        bucket_lower_bound(i) + bucket_width(i)
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Midpoint error vs the true value stays within one bucket width:
        // <= 1/32 relative for the log-linear region.
        for v in [100u64, 1_000, 50_000, 1_000_000, 123_456_789] {
            let i = bucket_index(v);
            let mid = bucket_midpoint(i) as f64;
            let err = (mid - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "v={v} err={err}");
        }
    }

    #[test]
    fn saturates_at_max() {
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.increment();
        b.increment();
        assert_eq!(reg.counter("x").get(), 2);
        assert_eq!(reg.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn concurrent_increments_from_many_threads_are_lossless() {
        let reg = Registry::new();
        let counter = reg.counter("contended");
        let hist = reg.histogram("contended_hist");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let counter = counter.clone();
                let hist = hist.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        counter.increment();
                        hist.record(t as u64 * 1000 + i % 97);
                    }
                });
            }
        });
        assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(hist.count(), THREADS as u64 * PER_THREAD);
        let snap = hist.snapshot("contended_hist");
        let bucket_total: u64 = snap.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucket_total, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn gauge_add_sub_is_lossless_under_contention() {
        let g = Gauge::new();
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let g = g.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        g.add(1.0);
                        g.sub(1.0);
                        g.add(2.0);
                    }
                });
            }
        });
        assert_eq!(g.get(), (THREADS * PER_THREAD * 2) as f64);
    }

    #[test]
    fn quantiles_match_known_distribution() {
        // 10_000 observations of 1..=10_000: p50 ≈ 5000, p95 ≈ 9500,
        // p99 ≈ 9900, each within the 1/32 bucket resolution.
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = h.snapshot("u");
        for (q, expected) in [(0.50, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = snap.quantile(q);
            let err = (got - expected).abs() / expected;
            assert!(err < 0.05, "q={q}: got {got}, expected {expected}");
        }
        assert_eq!(snap.count, 10_000);
        let mean = snap.mean();
        assert!((mean - 5_000.5).abs() / 5_000.5 < 0.05, "mean {mean}");
    }
}
