//! Deployment arrival processes (§3.7).
//!
//! The paper observes bursty, heavy-tailed arrivals (Weibull fits "nearly
//! perfectly") with diurnal shape and quieter weekends. We model each
//! subscription's deployments as a Weibull renewal process (shape < 1 for
//! burstiness) *thinned* by the diurnal/weekend rate multiplier, so the
//! superposition across subscriptions reproduces Figure 7's weekly shape.

use rand::Rng;
use rand_distr::{Distribution, Weibull};

use rc_types::time::Timestamp;

use crate::calibration as cal;

/// Lanczos approximation of the Gamma function, needed to convert a
/// Weibull scale into a target mean. Accurate to ~1e-10 for `x > 0`.
pub fn gamma_fn(x: f64) -> f64 {
    // Coefficients for g = 7, n = 9.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// A bursty, diurnally-modulated arrival process for one subscription.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    /// Mean arrivals per day, averaged over the diurnal/weekly cycle.
    pub rate_per_day: f64,
    /// Weibull shape of the renewal inter-arrival times (< 1 is bursty).
    pub shape: f64,
}

impl ArrivalProcess {
    /// Creates a process with the calibrated burstiness.
    pub fn new(rate_per_day: f64) -> Self {
        ArrivalProcess { rate_per_day, shape: cal::ARRIVAL_WEIBULL_SHAPE }
    }

    /// Arrival timestamps in `[start, end)`, drawn lazily from `rng`.
    ///
    /// The renewal process runs at the *peak* rate and each candidate is
    /// kept with probability `multiplier(t) / max_multiplier`, which thins
    /// it down to the diurnal/weekend shape without losing burstiness.
    pub fn iter<R: Rng>(&self, mut rng: R, start: Timestamp, end: Timestamp) -> ArrivalIter<R> {
        if self.rate_per_day <= 0.0 || start >= end {
            return ArrivalIter {
                rng,
                weibull: None,
                max_mult: 1.0,
                t: f64::INFINITY,
                end_secs: 0.0,
            };
        }
        let max_mult = (1.0 + cal::DIURNAL_ARRIVAL_AMPLITUDE).max(1e-9);
        // Mean inter-arrival (secs) at the peak-thinned rate.
        let mean_gap_secs = 86_400.0 / (self.rate_per_day * max_mult);
        // Weibull mean = scale * Gamma(1 + 1/shape).
        let scale = mean_gap_secs / gamma_fn(1.0 + 1.0 / self.shape);
        let weibull = Weibull::new(scale, self.shape).expect("valid weibull");

        let mut t = start.as_secs() as f64;
        // Random phase so subscriptions do not all start at `start`.
        t += weibull.sample(&mut rng) * rng.gen::<f64>();
        ArrivalIter { rng, weibull: Some(weibull), max_mult, t, end_secs: end.as_secs() as f64 }
    }
}

/// Lazy arrival iterator; see [`ArrivalProcess::iter`].
#[derive(Debug)]
pub struct ArrivalIter<R> {
    rng: R,
    /// `None` for a degenerate (empty) process.
    weibull: Option<Weibull>,
    max_mult: f64,
    /// Next candidate arrival instant, in fractional seconds.
    t: f64,
    end_secs: f64,
}

impl<R: Rng> Iterator for ArrivalIter<R> {
    type Item = Timestamp;

    fn next(&mut self) -> Option<Timestamp> {
        let weibull = self.weibull?;
        while self.t < self.end_secs {
            let ts = Timestamp::from_secs(self.t as u64);
            let mult = cal::arrival_rate_multiplier(ts.hour_of_day(), ts.weekday());
            let keep = self.rng.gen::<f64>() * self.max_mult < mult;
            self.t += weibull.sample(&mut self.rng).max(1.0);
            if keep {
                return Some(ts);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arrivals(rate_per_day: f64, seed: u64, start: Timestamp, end: Timestamp) -> Vec<Timestamp> {
        ArrivalProcess::new(rate_per_day).iter(StdRng::seed_from_u64(seed), start, end).collect()
    }

    #[test]
    fn gamma_matches_known_values() {
        assert!((gamma_fn(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma_fn(2.0) - 1.0).abs() < 1e-9);
        assert!((gamma_fn(5.0) - 24.0).abs() < 1e-7);
        assert!((gamma_fn(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
        // Value used by the default shape 0.55.
        let g = gamma_fn(1.0 + 1.0 / 0.55);
        assert!((g - 1.70).abs() < 0.02, "Gamma(2.818) = {g}");
    }

    #[test]
    fn mean_rate_is_close_to_target() {
        let days = 60;
        let rate = arrivals(20.0, 11, Timestamp::ZERO, Timestamp::from_days(days)).len() as f64
            / days as f64;
        // Thinning by the weekly multiplier (mean < 1) lands below peak.
        assert!((10.0..=26.0).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn arrivals_are_sorted_and_in_range() {
        let arrivals = arrivals(50.0, 12, Timestamp::from_days(2), Timestamp::from_days(9));
        assert!(!arrivals.is_empty());
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arrivals.first().unwrap().as_secs() >= 2 * 86_400);
        assert!(arrivals.last().unwrap().as_secs() < 9 * 86_400);
    }

    #[test]
    fn weekdays_busier_than_weekends() {
        let arrivals = arrivals(200.0, 13, Timestamp::ZERO, Timestamp::from_days(28));
        let (mut weekday, mut weekend) = (0usize, 0usize);
        for a in &arrivals {
            if a.is_weekend() {
                weekend += 1;
            } else {
                weekday += 1;
            }
        }
        // 5 weekdays vs 2 weekend days; normalize per day.
        let wd_rate = weekday as f64 / 20.0;
        let we_rate = weekend as f64 / 8.0;
        assert!(we_rate < wd_rate * 0.75, "weekday {wd_rate}/d weekend {we_rate}/d");
    }

    #[test]
    fn interarrivals_are_heavy_tailed() {
        // Shape < 1 means CoV of gaps > 1 (burstier than Poisson).
        let arrivals = arrivals(100.0, 14, Timestamp::ZERO, Timestamp::from_days(60));
        let gaps: Vec<f64> =
            arrivals.windows(2).map(|w| (w[1].as_secs() - w[0].as_secs()) as f64).collect();
        assert!(gaps.len() > 500);
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cov = var.sqrt() / mean;
        assert!(cov > 1.1, "CoV = {cov}");
    }

    #[test]
    fn zero_rate_yields_nothing() {
        assert!(arrivals(0.0, 15, Timestamp::ZERO, Timestamp::from_days(10)).is_empty());
    }
}
