//! Streaming feature-distribution sketches and the leading drift
//! indicator.
//!
//! The [`crate::AccuracyTracker`]'s [`crate::DriftSignal`] is a *lagging*
//! signal: it needs labeled outcomes, so a shifted workload serves bad
//! predictions for however long labels take to resolve plus the
//! hysteresis. The input feature distribution moves *first* — before a
//! single outcome lands. This module watches it:
//!
//! - [`FeatureHistogram`]: a fixed-bin streaming histogram over one
//!   feature's values in one ingested window — O(bins) memory however
//!   many records stream through, serializable so a training-time
//!   baseline can be persisted next to the manifest it describes;
//! - [`WindowSketch`]: the per-feature histogram set for one window;
//! - PSI ([`FeatureHistogram::psi`]) and KS ([`FeatureHistogram::ks`])
//!   divergences between two histograms over the same bins;
//! - [`LeadingDriftMonitor`]: compares each ingested window's sketch
//!   against a baseline sketch captured from the serving model's
//!   training window, and maintains a typed [`LeadingDrift`] signal per
//!   feature through the label tracker's own trip/clear hysteresis — so
//!   one noisy window doesn't flap the signal, but a sustained shift
//!   trips it ticks before accuracy falls.
//!
//! Gauges land in a [`Registry`] as `rc_loop_leading_psi{feature=...}` /
//! `rc_loop_leading_drift{feature=...}`, next to the label-based
//! `rc_acc_*` families they front-run.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::accuracy::Hysteresis;
use crate::metrics::{Counter, Gauge, Registry};
use crate::names::{LOOP_LEADING_DRIFT, LOOP_LEADING_PSI, LOOP_LEADING_TRIPS};

/// Bins per feature histogram. Coarse enough that a few thousand
/// records fill every bin a workload actually occupies, fine enough
/// that a mean shift of a few bins registers clearly in PSI.
pub const SKETCH_BINS: usize = 16;

/// Additive smoothing mass per bin when converting counts to
/// probabilities: keeps PSI finite when a bin is empty on one side.
const PSI_EPSILON: f64 = 1e-4;

/// Gauge name for a per-feature distribution series (labels embedded in
/// the flat registry name, valid Prometheus exposition — the same
/// scheme as [`crate::acc_gauge_name`]).
pub fn feature_gauge_name(series: &str, feature: &str) -> String {
    format!("{series}{{feature=\"{feature}\"}}")
}

/// A fixed-bin streaming histogram over one feature.
///
/// Values clamp into `[lo, hi]`; non-finite values are dropped (the
/// cleanup stage quarantines them anyway, but the sketch must never be
/// poisoned by one leaking through).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureHistogram {
    /// Inclusive lower bound of the value range.
    pub lo: f64,
    /// Inclusive upper bound of the value range.
    pub hi: f64,
    /// Per-bin counts, length [`SKETCH_BINS`].
    pub counts: Vec<u64>,
    /// Total recorded values (= sum of `counts`).
    pub total: u64,
}

impl FeatureHistogram {
    /// An empty histogram over `[lo, hi]` (swapped bounds are fixed up,
    /// a degenerate range widens to a unit interval).
    pub fn new(lo: f64, hi: f64) -> Self {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let hi = if hi > lo { hi } else { lo + 1.0 };
        FeatureHistogram { lo, hi, counts: vec![0; SKETCH_BINS], total: 0 }
    }

    /// Records one value (clamped into range; non-finite dropped).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let clamped = value.clamp(self.lo, self.hi);
        let frac = (clamped - self.lo) / (self.hi - self.lo);
        let bin = ((frac * SKETCH_BINS as f64) as usize).min(SKETCH_BINS - 1);
        self.counts[bin] += 1;
        self.total += 1;
    }

    /// Smoothed probability of `bin`.
    fn p(&self, bin: usize) -> f64 {
        (self.counts[bin] as f64 + PSI_EPSILON)
            / (self.total as f64 + SKETCH_BINS as f64 * PSI_EPSILON)
    }

    /// Population Stability Index versus `other` over the same bins:
    /// `Σ (p_i − q_i) · ln(p_i / q_i)`, smoothed so empty bins stay
    /// finite. Symmetric, ≥ 0, 0 iff the smoothed distributions match.
    /// The usual reading: < 0.1 noise, 0.1–0.25 moderate shift, > 0.25
    /// a shift that demands action.
    pub fn psi(&self, other: &FeatureHistogram) -> f64 {
        (0..SKETCH_BINS)
            .map(|i| {
                let (p, q) = (self.p(i), other.p(i));
                (p - q) * (p / q).ln()
            })
            .sum()
    }

    /// Kolmogorov–Smirnov statistic versus `other`: the maximum
    /// absolute CDF gap, in `[0, 1]`. Reported alongside PSI because it
    /// reacts to a concentrated shift that PSI's bin-by-bin sum dilutes.
    pub fn ks(&self, other: &FeatureHistogram) -> f64 {
        if self.total == 0 || other.total == 0 {
            return 0.0;
        }
        let (mut ca, mut cb, mut worst) = (0.0f64, 0.0f64, 0.0f64);
        for i in 0..SKETCH_BINS {
            ca += self.counts[i] as f64 / self.total as f64;
            cb += other.counts[i] as f64 / other.total as f64;
            worst = worst.max((ca - cb).abs());
        }
        worst
    }
}

/// PSI between two raw bucket-count slices (ragged lengths are padded
/// with empty buckets). This is the serving-vs-candidate
/// prediction-distribution check: feed it the two models' predicted
/// bucket counts over the same shadow slice and a large value means the
/// candidate *predicts from a different world* than the serving model —
/// worth refusing even when its headline accuracy looks fine.
pub fn counts_psi(a: &[u64], b: &[u64]) -> f64 {
    let n = a.len().max(b.len()).max(1);
    let (ta, tb) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
    let smooth = n as f64 * PSI_EPSILON;
    (0..n)
        .map(|i| {
            let ca = a.get(i).copied().unwrap_or(0) as f64;
            let cb = b.get(i).copied().unwrap_or(0) as f64;
            let p = (ca + PSI_EPSILON) / (ta + smooth);
            let q = (cb + PSI_EPSILON) / (tb + smooth);
            (p - q) * (p / q).ln()
        })
        .sum()
}

/// The per-feature histogram set for one ingested window. Features are
/// keyed by name in a `BTreeMap`, so iteration order — and therefore
/// every derived journal and report — is deterministic.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowSketch {
    /// Histograms by feature name.
    pub features: BTreeMap<String, FeatureHistogram>,
}

impl WindowSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        WindowSketch::default()
    }

    /// Records one value for `feature`, creating its histogram over
    /// `[lo, hi]` on first sight (later calls keep the original range).
    pub fn record(&mut self, feature: &str, lo: f64, hi: f64, value: f64) {
        self.features
            .entry(feature.to_string())
            .or_insert_with(|| FeatureHistogram::new(lo, hi))
            .record(value);
    }

    /// Smallest per-feature sample count (0 for an empty sketch) — the
    /// monitor's `min_samples` gate looks at the weakest feature.
    pub fn min_total(&self) -> u64 {
        self.features.values().map(|h| h.total).min().unwrap_or(0)
    }

    /// Per-feature PSI versus `baseline`, ascending by feature name;
    /// features absent from either side are skipped.
    pub fn psi_vs(&self, baseline: &WindowSketch) -> Vec<(String, f64)> {
        self.features
            .iter()
            .filter_map(|(name, h)| baseline.features.get(name).map(|b| (name.clone(), h.psi(b))))
            .collect()
    }

    /// Serializes for persistence next to the manifest version it
    /// describes.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails, which requires non-finite bounds;
    /// [`FeatureHistogram::new`] only accepts what callers pass — keep
    /// ranges finite.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("sketch serialization")
    }

    /// Decodes persisted sketch bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<WindowSketch> {
        serde_json::from_slice(bytes).ok()
    }
}

/// The leading-drift verdict for one feature — deliberately the same
/// two-state shape as [`crate::DriftSignal`], because the loop treats
/// them identically downstream; only the evidence differs (input
/// distributions here, labeled outcomes there).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeadingDrift {
    /// The feature's window distribution is consistent with the
    /// baseline (or there is not yet enough data / no baseline).
    #[default]
    Stable,
    /// PSI has sat above the trip threshold for `trip_ticks`
    /// consecutive windows.
    Drifting,
}

/// Hysteresis parameters for [`LeadingDrift`] evaluation — the
/// distribution-side mirror of [`crate::DriftConfig`].
#[derive(Debug, Clone)]
pub struct LeadingDriftConfig {
    /// Trip threshold: a window breaches when `psi > psi_trip`.
    pub psi_trip: f64,
    /// Clear threshold: a window counts as recovered when
    /// `psi <= psi_clear`. Must be below `psi_trip` for real
    /// hysteresis; in between, the signal holds.
    pub psi_clear: f64,
    /// Consecutive breaching windows before `Stable -> Drifting`.
    pub trip_ticks: u32,
    /// Consecutive recovered windows before `Drifting -> Stable`.
    pub clear_ticks: u32,
    /// Minimum samples in a window's weakest feature for a verdict.
    pub min_samples: u64,
}

impl Default for LeadingDriftConfig {
    fn default() -> Self {
        LeadingDriftConfig {
            psi_trip: 0.25,
            psi_clear: 0.10,
            trip_ticks: 1,
            clear_ticks: 2,
            min_samples: 200,
        }
    }
}

/// One feature's verdict from a [`LeadingDriftMonitor::observe`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LeadingObservation {
    /// The feature observed.
    pub feature: String,
    /// Its PSI versus the baseline this window.
    pub psi: f64,
    /// The signal *after* this window's hysteresis update.
    pub signal: LeadingDrift,
    /// True exactly when this window flipped `Stable -> Drifting`.
    pub tripped: bool,
}

struct FeatureState {
    drift: Hysteresis,
    g_psi: Gauge,
    g_drift: Gauge,
}

/// Watches ingested-window sketches against a training-time baseline
/// and maintains a hysteresis-filtered [`LeadingDrift`] signal per
/// feature. Owned by one controller, advanced once per window via
/// [`LeadingDriftMonitor::observe`] — no interior locking.
pub struct LeadingDriftMonitor {
    registry: Registry,
    config: LeadingDriftConfig,
    baseline: Option<WindowSketch>,
    features: BTreeMap<String, FeatureState>,
    c_trips: Counter,
}

impl LeadingDriftMonitor {
    /// A monitor exporting gauges into `registry`.
    pub fn with_registry(registry: Registry, config: LeadingDriftConfig) -> Self {
        let c_trips = registry.counter(LOOP_LEADING_TRIPS);
        LeadingDriftMonitor { registry, config, baseline: None, features: BTreeMap::new(), c_trips }
    }

    /// A monitor with a private registry.
    pub fn new(config: LeadingDriftConfig) -> Self {
        LeadingDriftMonitor::with_registry(Registry::new(), config)
    }

    /// Installs (or clears) the baseline sketch and resets every
    /// feature's hysteresis state: a new baseline means a new reference
    /// frame, so accumulated breach/ok streaks are meaningless.
    pub fn set_baseline(&mut self, baseline: Option<WindowSketch>) {
        self.baseline = baseline;
        for state in self.features.values_mut() {
            state.drift = Hysteresis::default();
            state.g_drift.set(0.0);
        }
    }

    /// The installed baseline, if any.
    pub fn baseline(&self) -> Option<&WindowSketch> {
        self.baseline.as_ref()
    }

    /// Advances one window: PSI per feature versus the baseline, then
    /// the hysteresis update. Returns one observation per feature
    /// shared by the window and the baseline, ascending by name; empty
    /// when no baseline is installed or the window is too thin.
    pub fn observe(&mut self, window: &WindowSketch) -> Vec<LeadingObservation> {
        let Some(baseline) = &self.baseline else {
            return Vec::new();
        };
        if window.min_total() < self.config.min_samples {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (feature, psi) in window.psi_vs(baseline) {
            let state = self.features.entry(feature.clone()).or_insert_with(|| FeatureState {
                drift: Hysteresis::default(),
                g_psi: self.registry.gauge(&feature_gauge_name(LOOP_LEADING_PSI, &feature)),
                g_drift: self.registry.gauge(&feature_gauge_name(LOOP_LEADING_DRIFT, &feature)),
            });
            state.g_psi.set(psi);
            let flipped = state.drift.update(
                psi > self.config.psi_trip,
                psi <= self.config.psi_clear,
                self.config.trip_ticks,
                self.config.clear_ticks,
            );
            let drifting = state.drift.drifting();
            let signal = if drifting { LeadingDrift::Drifting } else { LeadingDrift::Stable };
            let tripped = flipped && drifting;
            if tripped {
                self.c_trips.increment();
            }
            state.g_drift.set(if drifting { 1.0 } else { 0.0 });
            out.push(LeadingObservation { feature, psi, signal, tripped });
        }
        out
    }

    /// The current verdict for `feature` (`Stable` when unknown).
    pub fn signal(&self, feature: &str) -> LeadingDrift {
        self.features
            .get(feature)
            .map(|s| if s.drift.drifting() { LeadingDrift::Drifting } else { LeadingDrift::Stable })
            .unwrap_or_default()
    }

    /// Features currently `Drifting`, ascending by name.
    pub fn drifting_features(&self) -> Vec<String> {
        self.features
            .iter()
            .filter(|(_, s)| s.drift.drifting())
            .map(|(name, _)| name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(lo: f64, hi: f64, values: impl IntoIterator<Item = f64>) -> FeatureHistogram {
        let mut h = FeatureHistogram::new(lo, hi);
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn identical_distributions_have_near_zero_psi_and_ks() {
        let a = filled(0.0, 1.0, (0..1000).map(|i| (i % 100) as f64 / 100.0));
        let b = a.clone();
        assert!(a.psi(&b).abs() < 1e-9, "psi {}", a.psi(&b));
        assert_eq!(a.ks(&b), 0.0);
    }

    #[test]
    fn shifted_distribution_raises_psi_and_ks() {
        let a = filled(0.0, 1.0, (0..1000).map(|i| 0.2 + 0.1 * ((i % 10) as f64 / 10.0)));
        let b = filled(0.0, 1.0, (0..1000).map(|i| 0.6 + 0.1 * ((i % 10) as f64 / 10.0)));
        assert!(a.psi(&b) > 1.0, "disjoint supports must dominate the trip threshold");
        assert!(a.ks(&b) > 0.9);
        // PSI is symmetric under the smoothed formula.
        assert!((a.psi(&b) - b.psi(&a)).abs() < 1e-9);
    }

    #[test]
    fn sub_bin_mean_shift_lands_between_noise_and_action() {
        // A half-bin (0.03 over 1/16-wide bins) shift of a wide uniform
        // distribution: boundary bins trade a few percent of mass.
        let a = filled(0.0, 1.0, (0..2000).map(|i| 0.20 + 0.50 * ((i % 97) as f64 / 97.0)));
        let b = filled(0.0, 1.0, (0..2000).map(|i| 0.23 + 0.50 * ((i % 97) as f64 / 97.0)));
        let psi = a.psi(&b);
        assert!(psi > 0.02 && psi < 1.0, "a sub-bin drift should register, not explode: {psi}");
    }

    #[test]
    fn values_clamp_and_non_finite_are_dropped() {
        let mut h = FeatureHistogram::new(0.0, 1.0);
        h.record(-5.0);
        h.record(7.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.total, 2, "clamped values count, non-finite do not");
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[SKETCH_BINS - 1], 1);
    }

    #[test]
    fn sketch_round_trips_through_bytes() {
        let mut s = WindowSketch::new();
        for i in 0..500 {
            s.record("util_base", 0.0, 1.0, (i % 50) as f64 / 50.0);
            s.record("cores", 0.0, 64.0, (i % 8) as f64);
        }
        let decoded = WindowSketch::from_bytes(&s.to_bytes()).expect("round trip");
        assert_eq!(decoded, s);
        assert!(WindowSketch::from_bytes(b"garbage").is_none());
        assert_eq!(s.min_total(), 500);
    }

    #[test]
    fn counts_psi_flags_prediction_shift_and_pads_ragged_slices() {
        assert!(counts_psi(&[100, 100, 100], &[100, 100, 100]).abs() < 1e-9);
        let shifted = counts_psi(&[300, 0, 0], &[0, 0, 300]);
        assert!(shifted > 1.0, "fully moved mass must dominate: {shifted}");
        let padded = counts_psi(&[150, 150], &[150, 150, 0]);
        assert!(padded.abs() < 1e-6, "padding with empty buckets is the identity: {padded}");
    }

    fn sketch_around(center: f64, n: usize) -> WindowSketch {
        let mut s = WindowSketch::new();
        for i in 0..n {
            s.record("f", 0.0, 1.0, center + 0.05 * ((i % 11) as f64 / 11.0));
        }
        s
    }

    /// The leading monitor's threshold direction: a breach is PSI
    /// strictly above `psi_trip`, a recovery is PSI at or below
    /// `psi_clear`. (The streak logic is the shared hysteresis, tested
    /// by its table in `accuracy.rs`.)
    #[test]
    fn psi_trips_strictly_above_and_clears_inclusively() {
        let config = |psi_trip| LeadingDriftConfig {
            psi_trip,
            psi_clear: 0.0,
            trip_ticks: 1,
            clear_ticks: 1,
            min_samples: 100,
        };
        let baseline = sketch_around(0.3, 500);
        let shifted = sketch_around(0.7, 500);
        let psi = shifted.psi_vs(&baseline)[0].1;
        assert!(LeadingDriftMonitor::new(config(psi)).observe(&shifted).is_empty(), "no baseline");

        // PSI exactly at the trip threshold is not a breach.
        let mut at_trip = LeadingDriftMonitor::new(config(psi));
        at_trip.set_baseline(Some(baseline.clone()));
        assert_eq!(at_trip.observe(&shifted)[0].signal, LeadingDrift::Stable);

        // Above it trips, and reports the trip once.
        let mut monitor = LeadingDriftMonitor::new(config(psi / 2.0));
        monitor.set_baseline(Some(baseline.clone()));
        assert!(monitor.observe(&shifted)[0].tripped);
        assert!(!monitor.observe(&shifted)[0].tripped, "a drifting feature must not re-trip");
        assert_eq!(monitor.drifting_features(), vec!["f".to_string()]);

        // PSI exactly at the clear threshold (0, the baseline itself)
        // is a recovery.
        let obs = monitor.observe(&baseline);
        assert_eq!(obs[0].psi, 0.0);
        assert_eq!(obs[0].signal, LeadingDrift::Stable);
    }

    #[test]
    fn thin_windows_and_baseline_swaps_reset_cleanly() {
        let mut monitor = LeadingDriftMonitor::new(LeadingDriftConfig {
            trip_ticks: 1,
            min_samples: 100,
            ..LeadingDriftConfig::default()
        });
        monitor.set_baseline(Some(sketch_around(0.3, 500)));
        // Too thin for a verdict.
        assert!(monitor.observe(&sketch_around(0.9, 50)).is_empty());
        assert_eq!(monitor.signal("f"), LeadingDrift::Stable);
        // Thick enough: trips immediately (trip_ticks = 1).
        monitor.observe(&sketch_around(0.9, 500));
        assert_eq!(monitor.signal("f"), LeadingDrift::Drifting);
        // A new baseline resets the signal — new reference frame.
        monitor.set_baseline(Some(sketch_around(0.9, 500)));
        assert_eq!(monitor.signal("f"), LeadingDrift::Stable);
        let obs = monitor.observe(&sketch_around(0.9, 500));
        assert_eq!(obs[0].signal, LeadingDrift::Stable, "the shifted world is the new normal");
    }

    #[test]
    fn trips_land_in_the_registry_counter_and_gauges() {
        let reg = Registry::new();
        let mut monitor = LeadingDriftMonitor::with_registry(
            reg.clone(),
            LeadingDriftConfig { trip_ticks: 1, min_samples: 100, ..LeadingDriftConfig::default() },
        );
        monitor.set_baseline(Some(sketch_around(0.2, 400)));
        monitor.observe(&sketch_around(0.8, 400));
        let snap = reg.snapshot();
        assert_eq!(snap.counter(LOOP_LEADING_TRIPS), Some(1));
        assert_eq!(snap.gauge(&feature_gauge_name(LOOP_LEADING_DRIFT, "f")), Some(1.0));
        assert!(snap.gauge(&feature_gauge_name(LOOP_LEADING_PSI, "f")).unwrap() > 0.25);
    }
}
