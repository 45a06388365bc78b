//! Fast Fourier Transform and diurnal periodicity detection (§3.6).
//!
//! The paper classifies a VM as *potentially interactive* when its average
//! CPU utilization time series shows periodic behaviour at the diurnal
//! scale, detected with an FFT over (at least) 3 days of 5-minute samples.
//! [`PeriodicityDetector`] reproduces that analysis: detrend the series,
//! transform, and compare the spectral power near the 24-hour frequency
//! (and its first harmonic) against the typical off-peak power.
//!
//! There is one butterfly loop, `Plan::transform`. [`fft_in_place`] runs
//! it on complex data; the detector runs it on a real series packed two
//! samples to a point, at half the length. [`power_spectrum`] and
//! [`detect_diurnal_periodicity`] are one-shot wrappers over a detector.

use serde::{Deserialize, Serialize};

/// A complex number, minimal and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Builds a complex number from its parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Squared magnitude `re^2 + im^2`.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

/// What a radix-2 transform needs besides its data: the twiddle factors
/// and the bit-reversal order, computed once for a maximum length and
/// shared by every transform up to it.
///
/// A table of `size` points serves every shorter power-of-two length:
/// `e^{-2πij/len}` is entry `j * size / len`, and the `len`-point reversal
/// of `i` is the `size`-point one shifted down. Each twiddle comes from
/// its own `cos`/`sin` (the angle `k / size` does not depend on `size` for
/// the same point of the circle), so a transform's output does not depend
/// on which longer transform the plan was built for.
#[derive(Debug, Clone)]
struct Plan {
    /// `e^{-2πik/size}` for `k < size / 2`.
    twiddles: Vec<Complex>,
    /// Bit-reversed index of every `i < size`.
    reversed: Vec<u32>,
}

impl Plan {
    /// A plan for transforms of up to `size` points (a power of two).
    fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "FFT length must be a power of two, got {size}");
        assert!(u32::try_from(size).is_ok(), "FFT length {size} exceeds the plan's index type");
        let twiddles = (0..size / 2)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * (k as f64 / size as f64);
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        let mut reversed = vec![0u32; size];
        for i in 1..size {
            reversed[i] = reversed[i >> 1] >> 1 | if i & 1 == 1 { (size >> 1) as u32 } else { 0 };
        }
        Plan { twiddles, reversed }
    }

    fn size(&self) -> usize {
        self.reversed.len()
    }

    /// The butterfly core: in-place iterative radix-2 Cooley-Tukey over
    /// `data`, unscaled in both directions.
    fn transform(&self, data: &mut [Complex], inverse: bool) {
        let n = data.len();
        assert!(n.is_power_of_two() && n <= self.size(), "plan of {} for {n}", self.size());
        let shrink = (self.size() / n).trailing_zeros();
        for i in 0..n {
            let j = (self.reversed[i] >> shrink) as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // The inverse transform runs on the conjugate twiddles.
        let sign = if inverse { -1.0 } else { 1.0 };
        let mut len = 2;
        while len <= n {
            let stride = self.size() / len;
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(len / 2);
                for (j, (a, b)) in lo.iter_mut().zip(hi).enumerate() {
                    let w = self.twiddles[j * stride];
                    let v = *b * Complex::new(w.re, sign * w.im);
                    (*a, *b) = (*a + v, *a - v);
                }
            }
            len <<= 1;
        }
    }
}

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
    Plan::new(n).transform(data, inverse);
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
    let mut detector = PeriodicityDetector::new(PeriodicityConfig::default());
    let n = detector.fill_spectrum(series);
    (detector.spectrum, n)
}

/// Configuration for the diurnal periodicity detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeriodicityConfig {
    /// Seconds between consecutive samples (the paper's telemetry uses 300).
    pub sample_interval_secs: f64,
    /// The target period in seconds (diurnal = 86 400).
    pub target_period_secs: f64,
    /// Relative half-width of the accepted frequency band around the target
    /// (0.25 accepts periods within ±25% of 24 h).
    pub band_tolerance: f64,
    /// How many times the median spectral power the diurnal band must reach
    /// to be called periodic.
    pub power_ratio_threshold: f64,
    /// Minimum series length in *target periods* (the paper requires 3 days
    /// for a reliable diurnal pattern).
    pub min_periods: f64,
    /// Also credit the first harmonic (12 h) band, which strengthens
    /// detection of asymmetric day/night shapes.
    pub use_first_harmonic: bool,
}

impl Default for PeriodicityConfig {
    fn default() -> Self {
        PeriodicityConfig {
            sample_interval_secs: 300.0,
            target_period_secs: 86_400.0,
            band_tolerance: 0.25,
            power_ratio_threshold: 8.0,
            min_periods: 3.0,
            use_first_harmonic: true,
        }
    }
}

/// Outcome of a periodicity test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodicityResult {
    /// True when the series shows significant power at the target period.
    pub periodic: bool,
    /// Ratio of peak band power to median spectral power (the test statistic).
    pub power_ratio: f64,
    /// True when the series was long enough to test at all.
    pub enough_data: bool,
}

/// The diurnal periodicity test with its working memory: the transform
/// plan and the series, packed and spectrum buffers are kept from one
/// series to the next, so that classifying a fleet allocates a few times
/// in all instead of three times per VM.
#[derive(Debug, Clone)]
pub struct PeriodicityDetector {
    config: PeriodicityConfig,
    plan: Plan,
    /// Where [`PeriodicityDetector::detect_with`] has its caller write.
    series: Vec<f64>,
    /// The detrended series, two real samples to a complex point.
    packed: Vec<Complex>,
    /// Power per non-negative frequency bin of the last transform.
    spectrum: Vec<f64>,
}

impl PeriodicityDetector {
    /// A detector applying `config` to every series it is shown.
    pub fn new(config: PeriodicityConfig) -> Self {
        PeriodicityDetector {
            config,
            plan: Plan::new(2),
            series: Vec::new(),
            packed: Vec::new(),
            spectrum: Vec::new(),
        }
    }

    /// Tests a utilization time series for diurnal periodicity.
    ///
    /// Returns `enough_data == false` (and `periodic == false`) when the
    /// series spans fewer than `min_periods` target periods — these VMs
    /// fall in the paper's "Unknown" class.
    pub fn detect(&mut self, series: &[f64]) -> PeriodicityResult {
        let span_secs = series.len() as f64 * self.config.sample_interval_secs;
        if span_secs < self.config.min_periods * self.config.target_period_secs || series.len() < 8
        {
            return PeriodicityResult { periodic: false, power_ratio: 0.0, enough_data: false };
        }
        let n = self.fill_spectrum(series);
        let (config, spectrum) = (&self.config, &mut self.spectrum);
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

        // Median of the strictly positive-frequency spectrum as the noise
        // floor. Only the middle element is read, so it is selected, not
        // sorted into place along with the other `n / 2 - 1`; the bands
        // were read first because selection reorders the bins.
        let noise = &mut spectrum[1..];
        let (_, median, _) = noise.select_nth_unstable_by(noise.len() / 2, |a, b| {
            a.partial_cmp(b).expect("finite power")
        });
        let power_ratio = peak / median.max(1e-12);
        PeriodicityResult {
            periodic: power_ratio >= config.power_ratio_threshold,
            power_ratio,
            enough_data: true,
        }
    }

    /// [`PeriodicityDetector::detect`] on the series `fill` writes into
    /// the detector's own (emptied) buffer, for callers that generate
    /// their samples instead of holding them.
    pub fn detect_with(&mut self, fill: impl FnOnce(&mut Vec<f64>)) -> PeriodicityResult {
        let mut series = std::mem::take(&mut self.series);
        series.clear();
        fill(&mut series);
        let result = self.detect(&series);
        self.series = series;
        result
    }

    /// Fills `self.spectrum` with the power of `series` (mean removed,
    /// zero-padded to the next power of two `n`) at bins `0..=n/2`, and
    /// returns `n`.
    ///
    /// The `n` real samples are transformed as `n / 2` complex points
    /// `z[k] = x[2k] + i·x[2k+1]`: with `Z` the transform of `z`, the even
    /// and odd samples' transforms are `E[k] = (Z[k] + conj Z[n/2-k]) / 2`
    /// and `O[k] = -i (Z[k] - conj Z[n/2-k]) / 2`, and
    /// `X[k] = E[k] + e^{-2πik/n} O[k]` — half the butterflies of
    /// transforming `x` with zero imaginary parts, for the same bins.
    fn fill_spectrum(&mut self, series: &[f64]) -> usize {
        let n = series.len().next_power_of_two().max(2);
        let half = n / 2;
        if self.plan.size() < n {
            self.plan = Plan::new(n);
        }
        let mean =
            if series.is_empty() { 0.0 } else { series.iter().sum::<f64>() / series.len() as f64 };
        let mut pairs = series.chunks_exact(2);
        self.packed.clear();
        self.packed.extend(pairs.by_ref().map(|p| Complex::new(p[0] - mean, p[1] - mean)));
        if let [last] = pairs.remainder() {
            self.packed.push(Complex::new(last - mean, 0.0));
        }
        self.packed.resize(half, Complex::default());
        self.plan.transform(&mut self.packed, false);

        let z = &self.packed;
        // `e^{-2πik/n}` is every `stride`-th entry of the plan's table.
        let stride = self.plan.size() / n;
        self.spectrum.clear();
        self.spectrum.resize(half + 1, 0.0);
        // Bins 0 and n/2 are real: E[0] ± O[0].
        self.spectrum[0] = (z[0].re + z[0].im).powi(2);
        self.spectrum[half] = (z[0].re - z[0].im).powi(2);
        for k in 1..half {
            let (a, b) = (z[k], z[half - k]);
            let even = Complex::new(0.5 * (a.re + b.re), 0.5 * (a.im - b.im));
            let odd = Complex::new(0.5 * (a.im + b.im), 0.5 * (b.re - a.re));
            self.spectrum[k] = (even + self.plan.twiddles[k * stride] * odd).norm_sq();
        }
        n
    }
}

/// Tests a utilization time series for diurnal periodicity with a
/// detector made for this one call; see [`PeriodicityDetector::detect`].
pub fn detect_diurnal_periodicity(series: &[f64], config: &PeriodicityConfig) -> PeriodicityResult {
    PeriodicityDetector::new(config.clone()).detect(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reproducible series in `[-0.5, 0.5)`.
    fn noise(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
            })
            .collect()
    }

    /// The DFT by its definition, every root of unity from its own
    /// `cos`/`sin`.
    fn naive_dft(input: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = input.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let roots: Vec<Complex> = (0..n)
            .map(|k| {
                let ang = sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        (0..n)
            .map(|k| {
                input
                    .iter()
                    .enumerate()
                    .fold(Complex::default(), |acc, (t, &x)| acc + x * roots[k * t % n])
            })
            .collect()
    }

    #[test]
    fn butterfly_core_matches_naive_dft_at_every_length() {
        for bits in 1..=12 {
            let n = 1usize << bits;
            let re = noise(bits as u64, n);
            let im = noise(100 + bits as u64, n);
            let input: Vec<Complex> =
                re.iter().zip(&im).map(|(&r, &i)| Complex::new(r, i)).collect();
            // A tight plan and one built for a longer transform agree bit
            // for bit; both directions agree with the definition.
            for inverse in [false, true] {
                let expect = naive_dft(&input, inverse);
                let mut tight = input.clone();
                Plan::new(n).transform(&mut tight, inverse);
                let mut loose = input.clone();
                Plan::new(4 * n).transform(&mut loose, inverse);
                assert_eq!(tight, loose, "n {n}: output depends on the plan's size");
                // Worst-case rounding of a length-n sum of unit-size terms.
                let tol = 1e-13 * n as f64;
                for (k, (got, want)) in tight.iter().zip(&expect).enumerate() {
                    assert!((*got - *want).abs() < tol, "n {n} bin {k}: {got:?} vs {want:?}");
                }
            }
        }
    }

    #[test]
    fn packed_real_transform_matches_complex_transform() {
        // Lengths around and between powers of two, odd and even, down to
        // the degenerate ones: the packed path pads to the same `n` and
        // must give the complex path's bins.
        for len in [0, 1, 2, 3, 5, 8, 9, 100, 863, 864, 1_023, 1_024, 1_025, 1_727, 1_728] {
            let series = noise(len as u64 + 7, len);
            let (spectrum, n) = power_spectrum(&series);
            assert_eq!(n, len.next_power_of_two().max(2));
            assert_eq!(spectrum.len(), n / 2 + 1);
            let mean = if len == 0 { 0.0 } else { series.iter().sum::<f64>() / len as f64 };
            let mut full: Vec<Complex> =
                series.iter().map(|&v| Complex::new(v - mean, 0.0)).collect();
            full.resize(n, Complex::default());
            fft_in_place(&mut full, false);
            let scale = full.iter().map(|c| c.norm_sq()).fold(1e-300, f64::max);
            for (k, (&got, want)) in spectrum.iter().zip(&full).enumerate() {
                let want = want.norm_sq();
                assert!((got - want).abs() <= 1e-12 * scale, "len {len} bin {k}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn detector_reuse_does_not_change_results() {
        // One detector shown series of mixed padded lengths answers each
        // exactly as a fresh detector does: nothing carries over but
        // capacity.
        let config = PeriodicityConfig::default();
        let mut shared = PeriodicityDetector::new(config.clone());
        for (days, amplitude) in [(3, 0.3), (6, 0.0), (4, 0.05), (3, 0.0), (6, 0.2)] {
            let series = diurnal_series(days, amplitude, 0.1);
            let fresh = detect_diurnal_periodicity(&series, &config);
            assert_eq!(shared.detect(&series), fresh);
            assert_eq!(shared.detect_with(|buf| buf.extend_from_slice(&series)), fresh);
        }
    }

    #[test]
    fn fft_inverse_round_trip() {
        let mut data: Vec<Complex> =
            (0..64).map(|i| Complex::new((i as f64 * 0.7).sin(), 0.0)).collect();
        let orig = data.clone();
        fft_in_place(&mut data, false);
        fft_in_place(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-9);
            assert!(a.im.abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![Complex::default(); 6];
        fft_in_place(&mut data, false);
    }

    /// A synthetic diurnal series: 5-minute samples over `days` days.
    fn diurnal_series(days: usize, amplitude: f64, noise: f64) -> Vec<f64> {
        let samples = days * 288;
        let mut state = 1234u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        (0..samples)
            .map(|i| {
                let hours = i as f64 * 300.0 / 3600.0;
                let phase = 2.0 * std::f64::consts::PI * hours / 24.0;
                0.4 + amplitude * phase.sin() + noise * next()
            })
            .collect()
    }

    #[test]
    fn detects_diurnal_signal() {
        let series = diurnal_series(4, 0.25, 0.05);
        let r = detect_diurnal_periodicity(&series, &PeriodicityConfig::default());
        assert!(r.enough_data);
        assert!(r.periodic, "ratio = {}", r.power_ratio);
    }

    #[test]
    fn rejects_flat_noise() {
        let series = diurnal_series(4, 0.0, 0.05);
        let r = detect_diurnal_periodicity(&series, &PeriodicityConfig::default());
        assert!(r.enough_data);
        assert!(!r.periodic, "ratio = {}", r.power_ratio);
    }

    #[test]
    fn short_series_is_unknown() {
        let series = diurnal_series(2, 0.25, 0.05);
        let r = detect_diurnal_periodicity(&series, &PeriodicityConfig::default());
        assert!(!r.enough_data);
        assert!(!r.periodic);
    }

    #[test]
    fn detects_asymmetric_daily_pattern_via_harmonic() {
        // A spiky "business hours" square-ish wave has strong harmonics.
        let samples = 4 * 288;
        let series: Vec<f64> = (0..samples)
            .map(|i| {
                let hour = (i as f64 * 300.0 / 3600.0) % 24.0;
                if (9.0..17.0).contains(&hour) {
                    0.8
                } else {
                    0.1
                }
            })
            .collect();
        let r = detect_diurnal_periodicity(&series, &PeriodicityConfig::default());
        assert!(r.periodic, "ratio = {}", r.power_ratio);
    }

    #[test]
    fn power_spectrum_peak_at_known_frequency() {
        // 128 samples, period 16 => frequency bin 8.
        let series: Vec<f64> =
            (0..128).map(|i| (2.0 * std::f64::consts::PI * i as f64 / 16.0).cos()).collect();
        let (spec, n) = power_spectrum(&series);
        assert_eq!(n, 128);
        let peak_bin =
            spec.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(peak_bin, 8);
    }
}
