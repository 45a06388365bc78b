//! Shared test-side reference implementations.

use std::collections::{HashMap, VecDeque};

use rc_core::cache::ResultCacheStats;
use rc_core::Prediction;
use rc_ml::fft::{Complex, PeriodicityConfig, PeriodicityResult};

/// The result cache as it was before sharding: a `HashMap` plus a FIFO
/// order book behind `&mut self`. Kept only as the oracle
/// `ShardedResultCache` (with one shard) is compared against.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<u64, Prediction>,
    /// Insertion order for FIFO eviction once the capacity is reached.
    order: VecDeque<u64>,
    capacity: usize,
    stats: ResultCacheStats,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "result cache needs capacity");
        ResultCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            stats: ResultCacheStats::default(),
        }
    }

    /// Looks a key up, recording hit/miss statistics.
    pub fn get(&mut self, key: u64) -> Option<Prediction> {
        let found = self.map.get(&key).copied();
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    /// Inserts a prediction, evicting the oldest entry when full.
    /// Returns `true` when the insert displaced an older entry.
    pub fn insert(&mut self, key: u64, prediction: Prediction) -> bool {
        let mut evicted = false;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            while let Some(old) = self.order.pop_front() {
                if self.map.remove(&old).is_some() {
                    self.stats.evictions += 1;
                    evicted = true;
                    break;
                }
            }
        }
        self.stats.insertions += 1;
        if self.map.insert(key, prediction).is_none() {
            self.order.push_back(key);
        }
        evicted
    }

    /// Empties the cache (statistics are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// All counters at once.
    pub fn stats(&self) -> ResultCacheStats {
        self.stats
    }
}

/// The §3.6 spectrum path as it was before the planned real-input
/// transform: a fresh `Vec<Complex>` per series, a full-length complex
/// radix-2 loop whose twiddles come from a running product, and the
/// noise-floor median read out of a full sort. Kept only as the reference
/// `PeriodicityDetector` is compared against.
pub mod old_spectrum {
    use super::{Complex, PeriodicityConfig, PeriodicityResult};

    /// In-place iterative radix-2 Cooley-Tukey FFT.
    ///
    /// Set `inverse` for the inverse transform; the inverse is scaled by `1/n`
    /// so that a forward+inverse round trip is the identity.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` is not a power of two.
    pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterflies.
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::new(ang.cos(), ang.sin());
            let mut i = 0;
            while i < n {
                let mut w = Complex::new(1.0, 0.0);
                for j in 0..len / 2 {
                    let u = data[i + j];
                    let v = data[i + j + len / 2] * w;
                    data[i + j] = u + v;
                    data[i + j + len / 2] = u - v;
                    w = w * wlen;
                }
                i += len;
            }
            len <<= 1;
        }
        if inverse {
            let inv_n = 1.0 / n as f64;
            for x in data.iter_mut() {
                x.re *= inv_n;
                x.im *= inv_n;
            }
        }
    }

    /// Power spectrum of a real series, padded with its mean to the next power
    /// of two. Returns one power value per non-negative frequency bin
    /// (`0..=n/2`) along with the padded length `n`.
    pub fn power_spectrum(series: &[f64]) -> (Vec<f64>, usize) {
        let n = series.len().next_power_of_two().max(2);
        let mean =
            if series.is_empty() { 0.0 } else { series.iter().sum::<f64>() / series.len() as f64 };
        let mut buf: Vec<Complex> = series
            .iter()
            .map(|&v| Complex::new(v - mean, 0.0))
            .chain(std::iter::repeat(Complex::new(0.0, 0.0)))
            .take(n)
            .collect();
        fft_in_place(&mut buf, false);
        let spectrum = buf[..=n / 2].iter().map(|c| c.norm_sq()).collect();
        (spectrum, n)
    }

    /// Tests a utilization time series for diurnal periodicity.
    ///
    /// Returns `enough_data == false` (and `periodic == false`) when the series
    /// spans fewer than `config.min_periods` target periods — these VMs fall in
    /// the paper's "Unknown" class.
    pub fn detect_diurnal_periodicity(
        series: &[f64],
        config: &PeriodicityConfig,
    ) -> PeriodicityResult {
        let span_secs = series.len() as f64 * config.sample_interval_secs;
        if span_secs < config.min_periods * config.target_period_secs || series.len() < 8 {
            return PeriodicityResult { periodic: false, power_ratio: 0.0, enough_data: false };
        }
        let (spectrum, n) = power_spectrum(series);
        // Frequency of bin k is k / (n * dt) cycles per second.
        let bin_freq = 1.0 / (n as f64 * config.sample_interval_secs);
        let target_freq = 1.0 / config.target_period_secs;

        let band_power = |center_freq: f64| -> f64 {
            let lo = center_freq * (1.0 - config.band_tolerance);
            let hi = center_freq * (1.0 + config.band_tolerance);
            let k_lo = ((lo / bin_freq).floor().max(1.0)) as usize;
            let k_hi = ((hi / bin_freq).ceil() as usize).min(spectrum.len() - 1);
            spectrum[k_lo..=k_hi.max(k_lo)].iter().copied().fold(0.0, f64::max)
        };

        let mut peak = band_power(target_freq);
        if config.use_first_harmonic {
            peak = peak.max(band_power(2.0 * target_freq));
        }

        // Median of the strictly positive-frequency spectrum as the noise floor.
        let mut sorted: Vec<f64> = spectrum[1..].to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite power"));
        let median = sorted[sorted.len() / 2].max(1e-12);

        let power_ratio = peak / median;
        PeriodicityResult {
            periodic: power_ratio >= config.power_ratio_threshold,
            power_ratio,
            enough_data: true,
        }
    }
}
