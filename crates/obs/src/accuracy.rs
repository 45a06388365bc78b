//! Live prediction-accuracy tracking and drift detection.
//!
//! The serving layers report `(metric, predicted_bucket)` at predict
//! time; whoever observes ground truth (the simulator, when a VM's
//! lifetime/utilization resolves) feeds back `(metric, observed_bucket)`.
//! The tracker pairs them by caller-supplied id and maintains, per
//! metric:
//!
//! - cumulative and **rolling** accuracy (the rolling side rides on
//!   [`WindowedCounter`]s ticked by the same logical clock as the rest
//!   of the windowed instruments — no wall clock anywhere);
//! - a predicted × observed **confusion matrix** and a calibration
//!   summary derived from it;
//! - a [`DriftSignal`] comparing rolling accuracy against the
//!   training-time accuracy recorded in the published manifest, with
//!   hysteresis so one noisy epoch doesn't flap the signal.
//!
//! Everything is exported as gauges in a [`Registry`]
//! (`rc_acc_rolling{metric=...}`, `rc_acc_confusion{metric=...,p=...,o=...}`,
//! …) so snapshots and Prometheus exposition carry the live accuracy
//! picture alongside the rest of the metrics.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use serde::Value;

use crate::metrics::{Counter, Gauge, Registry};
use crate::names::{
    ACC_BASELINE, ACC_CONFUSION, ACC_CUMULATIVE, ACC_DRIFT, ACC_DRIFT_TRANSITIONS, ACC_ROLLING,
};
use crate::window::WindowedCounter;

/// Unresolved predictions retained per metric before new ones are shed.
const MAX_PENDING: usize = 1 << 16;
/// Hard cap on confusion-matrix dimensions (buckets).
const MAX_BUCKETS: usize = 32;

/// The baseline assumed for a metric whose training-time accuracy was
/// never recorded (absent from the published manifest). Without this
/// fallback such a metric could *never* trip the drift signal, however
/// badly it served — a silent hole in the watchdog. The value sits just
/// above the publish gate's default 0.5 accuracy floor: any model worth
/// serving validated above it, so rolling accuracy far below is
/// drift-worthy even with no manifest entry to compare against. An
/// explicit [`AccuracyTracker::set_baseline`] always overrides it.
pub const DEFAULT_BASELINE: f64 = 0.6;

/// The drift verdict for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriftSignal {
    /// Rolling accuracy is consistent with the training-time baseline
    /// (or there is not yet enough data to say otherwise).
    #[default]
    Stable,
    /// Rolling accuracy has sat below `baseline - tolerance` for at
    /// least `trip_ticks` consecutive ticks.
    Drifting,
}

/// The trip/clear state machine both drift monitors run: the signal
/// flips to drifting after `trip_ticks` consecutive breaching verdicts
/// and back after `clear_ticks` consecutive recovered ones. A verdict
/// that is neither (inside the band between the two thresholds) resets
/// both streaks and holds the signal. Each monitor decides what a breach
/// and a recovery are.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Hysteresis {
    breach_ticks: u32,
    ok_ticks: u32,
    drifting: bool,
}

impl Hysteresis {
    /// Feeds one verdict (`breach` wins when both are set) and returns
    /// whether the signal flipped.
    pub(crate) fn update(
        &mut self,
        breach: bool,
        ok: bool,
        trip_ticks: u32,
        clear_ticks: u32,
    ) -> bool {
        (self.breach_ticks, self.ok_ticks) = match (breach, ok) {
            (true, _) => (self.breach_ticks + 1, 0),
            (false, true) => (0, self.ok_ticks + 1),
            (false, false) => (0, 0),
        };
        let flip = if self.drifting {
            self.ok_ticks >= clear_ticks
        } else {
            self.breach_ticks >= trip_ticks
        };
        self.drifting ^= flip;
        flip
    }

    pub(crate) fn drifting(&self) -> bool {
        self.drifting
    }
}

/// Hysteresis parameters for [`DriftSignal`] evaluation.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Epochs spanned by the rolling accuracy window.
    pub window: usize,
    /// Trip threshold: breach when `rolling < baseline - tolerance`.
    pub tolerance: f64,
    /// Clear threshold: recovery when `rolling >= baseline - clear_margin`.
    /// Must be tighter than `tolerance` for real hysteresis.
    pub clear_margin: f64,
    /// Consecutive breaching ticks before `Stable -> Drifting`.
    pub trip_ticks: u32,
    /// Consecutive recovered ticks before `Drifting -> Stable`.
    pub clear_ticks: u32,
    /// Minimum outcomes inside the window for a verdict at all.
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: crate::window::DEFAULT_WINDOW,
            tolerance: 0.10,
            clear_margin: 0.05,
            trip_ticks: 2,
            clear_ticks: 2,
            min_samples: 20,
        }
    }
}

/// One calibration row: how predictions of bucket `predicted` fared.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRow {
    /// The predicted bucket.
    pub predicted: usize,
    /// Resolved outcomes for that prediction.
    pub outcomes: u64,
    /// Fraction where observed == predicted.
    pub hit_rate: f64,
    /// Mean observed bucket for that prediction.
    pub mean_observed: f64,
}

/// Gauge name for a per-metric accuracy series (labels are embedded in
/// the flat registry name; the syntax is valid Prometheus exposition).
pub fn acc_gauge_name(series: &str, metric: &str) -> String {
    format!("{series}{{metric=\"{metric}\"}}")
}

/// Gauge name for one confusion-matrix cell.
pub fn acc_confusion_name(metric: &str, predicted: usize, observed: usize) -> String {
    format!("{ACC_CONFUSION}{{metric=\"{metric}\",p=\"{predicted}\",o=\"{observed}\"}}")
}

struct MetricState {
    baseline: Option<f64>,
    /// id -> predicted bucket, awaiting its outcome.
    pending: BTreeMap<u64, usize>,
    /// `confusion[predicted][observed]`, grown on demand.
    confusion: Vec<Vec<u64>>,
    predictions: u64,
    outcomes: u64,
    correct: u64,
    unmatched: u64,
    dropped_pending: u64,
    win_correct: WindowedCounter,
    win_outcomes: WindowedCounter,
    drift: Hysteresis,
    /// Signal flips in either direction since this state was created.
    transitions: u64,
    g_rolling: Gauge,
    g_cumulative: Gauge,
    g_drift: Gauge,
    g_baseline: Gauge,
}

impl MetricState {
    fn new(registry: &Registry, config: &DriftConfig, metric: &str) -> Self {
        MetricState {
            baseline: None,
            pending: BTreeMap::new(),
            confusion: Vec::new(),
            predictions: 0,
            outcomes: 0,
            correct: 0,
            unmatched: 0,
            dropped_pending: 0,
            win_correct: WindowedCounter::new(config.window),
            win_outcomes: WindowedCounter::new(config.window),
            drift: Hysteresis::default(),
            transitions: 0,
            g_rolling: registry.gauge(&acc_gauge_name(ACC_ROLLING, metric)),
            g_cumulative: registry.gauge(&acc_gauge_name(ACC_CUMULATIVE, metric)),
            g_drift: registry.gauge(&acc_gauge_name(ACC_DRIFT, metric)),
            g_baseline: registry.gauge(&acc_gauge_name(ACC_BASELINE, metric)),
        }
    }

    fn grow_to(&mut self, bucket: usize) {
        let need = bucket + 1;
        if self.confusion.len() < need {
            for row in &mut self.confusion {
                row.resize(need, 0);
            }
            while self.confusion.len() < need {
                self.confusion.push(vec![0; need]);
            }
        }
    }

    fn rolling(&self) -> Option<f64> {
        let outcomes = self.win_outcomes.window_sum();
        if outcomes == 0 {
            return None;
        }
        Some(self.win_correct.window_sum() as f64 / outcomes as f64)
    }

    fn cumulative(&self) -> Option<f64> {
        if self.outcomes == 0 {
            return None;
        }
        Some(self.correct as f64 / self.outcomes as f64)
    }
}

/// Pairs predictions with observed outcomes and tracks rolling accuracy,
/// confusion, calibration, and drift per metric.
pub struct AccuracyTracker {
    registry: Registry,
    config: DriftConfig,
    metrics: Mutex<BTreeMap<String, MetricState>>,
    c_transitions: Counter,
}

impl fmt::Debug for AccuracyTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let metrics = self.metrics.lock().expect("accuracy lock");
        f.debug_struct("AccuracyTracker").field("metrics", &metrics.len()).finish()
    }
}

impl Default for AccuracyTracker {
    fn default() -> Self {
        AccuracyTracker::new(DriftConfig::default())
    }
}

impl AccuracyTracker {
    /// A tracker exporting gauges into its own private registry.
    pub fn new(config: DriftConfig) -> Self {
        AccuracyTracker::with_registry(Registry::new(), config)
    }

    /// A tracker exporting gauges into `registry`.
    pub fn with_registry(registry: Registry, config: DriftConfig) -> Self {
        let c_transitions = registry.counter(ACC_DRIFT_TRANSITIONS);
        AccuracyTracker { registry, config, metrics: Mutex::new(BTreeMap::new()), c_transitions }
    }

    /// The registry the accuracy gauges live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn with_state<R>(&self, metric: &str, f: impl FnOnce(&mut MetricState) -> R) -> R {
        let mut metrics = self.metrics.lock().expect("accuracy lock");
        if !metrics.contains_key(metric) {
            metrics
                .insert(metric.to_string(), MetricState::new(&self.registry, &self.config, metric));
        }
        f(metrics.get_mut(metric).expect("state just inserted"))
    }

    /// Reports a prediction at predict time. `id` is whatever the caller
    /// will use to report the outcome later (e.g. the VM id). A second
    /// prediction under the same id supersedes the first.
    pub fn record_prediction(&self, metric: &str, id: u64, predicted_bucket: usize) {
        self.with_state(metric, |state| {
            state.predictions += 1;
            if state.pending.len() >= MAX_PENDING && !state.pending.contains_key(&id) {
                state.dropped_pending += 1;
            } else {
                state.pending.insert(id, predicted_bucket.min(MAX_BUCKETS - 1));
            }
        });
    }

    /// Sets the training-time accuracy baseline (from the published
    /// manifest's `ModelEntry::accuracy`) the drift signal compares
    /// rolling accuracy against.
    pub fn set_baseline(&self, metric: &str, accuracy: f64) {
        self.with_state(metric, |state| {
            state.baseline = Some(accuracy);
            state.g_baseline.set(accuracy);
        });
    }

    /// Feeds back the observed bucket for a previously reported
    /// prediction. Returns `false` (and counts the outcome as unmatched)
    /// when no pending prediction exists under `id`.
    pub fn record_outcome(&self, metric: &str, id: u64, observed_bucket: usize) -> bool {
        let registry = self.registry.clone();
        self.with_state(metric, |state| {
            let Some(predicted) = state.pending.remove(&id) else {
                state.unmatched += 1;
                return false;
            };
            let observed = observed_bucket.min(MAX_BUCKETS - 1);
            state.grow_to(predicted.max(observed));
            state.confusion[predicted][observed] += 1;
            state.outcomes += 1;
            state.win_outcomes.increment();
            if predicted == observed {
                state.correct += 1;
                state.win_correct.increment();
            }
            if let Some(c) = state.cumulative() {
                state.g_cumulative.set(c);
            }
            registry
                .gauge(&acc_confusion_name(metric, predicted, observed))
                .set(state.confusion[predicted][observed] as f64);
            true
        })
    }

    /// Advances the logical clock: rotates every metric's rolling window
    /// and re-evaluates its drift signal with hysteresis.
    pub fn tick(&self) {
        let mut metrics = self.metrics.lock().expect("accuracy lock");
        for state in metrics.values_mut() {
            state.win_correct.tick();
            state.win_outcomes.tick();
            let window_outcomes = state.win_outcomes.window_sum();
            if let Some(rolling) = state.rolling() {
                state.g_rolling.set(rolling);
                // A metric never seeded from a manifest still gets a
                // verdict, against [`DEFAULT_BASELINE`] — "no baseline"
                // must not mean "can never trip".
                let baseline = state.baseline.unwrap_or(DEFAULT_BASELINE);
                if window_outcomes >= self.config.min_samples
                    && state.drift.update(
                        rolling < baseline - self.config.tolerance,
                        rolling >= baseline - self.config.clear_margin,
                        self.config.trip_ticks,
                        self.config.clear_ticks,
                    )
                {
                    state.transitions += 1;
                    self.c_transitions.increment();
                }
            }
            state.g_drift.set(if state.drift.drifting() { 1.0 } else { 0.0 });
        }
    }

    /// Signal flips (`Stable` ⇄ `Drifting`, either direction) for
    /// `metric` since the tracker first saw it. The sum across metrics
    /// reconciles with the `rc_acc_drift_transitions` registry delta.
    pub fn drift_transitions(&self, metric: &str) -> u64 {
        self.metrics.lock().expect("accuracy lock").get(metric).map_or(0, |s| s.transitions)
    }

    /// The current drift verdict for `metric` (`Stable` when unknown).
    pub fn drift(&self, metric: &str) -> DriftSignal {
        self.metrics
            .lock()
            .expect("accuracy lock")
            .get(metric)
            .map(|s| if s.drift.drifting() { DriftSignal::Drifting } else { DriftSignal::Stable })
            .unwrap_or_default()
    }

    /// Rolling accuracy over the live window; `None` without outcomes.
    pub fn rolling_accuracy(&self, metric: &str) -> Option<f64> {
        self.metrics.lock().expect("accuracy lock").get(metric).and_then(|s| s.rolling())
    }

    /// Accuracy over every outcome ever resolved; `None` without
    /// outcomes.
    pub fn cumulative_accuracy(&self, metric: &str) -> Option<f64> {
        self.metrics.lock().expect("accuracy lock").get(metric).and_then(|s| s.cumulative())
    }

    /// The training-time baseline, if one was set.
    pub fn baseline(&self, metric: &str) -> Option<f64> {
        self.metrics.lock().expect("accuracy lock").get(metric).and_then(|s| s.baseline)
    }

    /// Predictions reported for `metric` (matched or not).
    pub fn predictions(&self, metric: &str) -> u64 {
        self.metrics.lock().expect("accuracy lock").get(metric).map_or(0, |s| s.predictions)
    }

    /// Outcomes resolved against a pending prediction.
    pub fn outcomes(&self, metric: &str) -> u64 {
        self.metrics.lock().expect("accuracy lock").get(metric).map_or(0, |s| s.outcomes)
    }

    /// Outcomes that arrived with no pending prediction.
    pub fn unmatched_outcomes(&self, metric: &str) -> u64 {
        self.metrics.lock().expect("accuracy lock").get(metric).map_or(0, |s| s.unmatched)
    }

    /// Predictions still awaiting an outcome.
    pub fn pending(&self, metric: &str) -> usize {
        self.metrics.lock().expect("accuracy lock").get(metric).map_or(0, |s| s.pending.len())
    }

    /// The `confusion[predicted][observed]` matrix (square, possibly
    /// empty).
    pub fn confusion(&self, metric: &str) -> Vec<Vec<u64>> {
        self.metrics
            .lock()
            .expect("accuracy lock")
            .get(metric)
            .map(|s| s.confusion.clone())
            .unwrap_or_default()
    }

    /// Per-predicted-bucket calibration derived from the confusion
    /// matrix (rows with no outcomes are omitted).
    pub fn calibration(&self, metric: &str) -> Vec<CalibrationRow> {
        let metrics = self.metrics.lock().expect("accuracy lock");
        let Some(state) = metrics.get(metric) else {
            return Vec::new();
        };
        let mut rows = Vec::new();
        for (p, row) in state.confusion.iter().enumerate() {
            let n: u64 = row.iter().sum();
            if n == 0 {
                continue;
            }
            let weighted: u64 = row.iter().enumerate().map(|(o, c)| o as u64 * c).sum();
            rows.push(CalibrationRow {
                predicted: p,
                outcomes: n,
                hit_rate: row[p] as f64 / n as f64,
                mean_observed: weighted as f64 / n as f64,
            });
        }
        rows
    }

    /// Metrics the tracker has seen, ascending by name.
    pub fn metric_names(&self) -> Vec<String> {
        self.metrics.lock().expect("accuracy lock").keys().cloned().collect()
    }

    /// The whole tracker as one JSON value (per metric: counts, rolling
    /// vs cumulative vs baseline accuracy, drift, confusion,
    /// calibration) — the shape `rc_obs::report` embeds.
    pub fn summary(&self) -> Value {
        let metrics = self.metrics.lock().expect("accuracy lock");
        let mut out = Vec::new();
        for (name, state) in metrics.iter() {
            let opt = |v: Option<f64>| v.map(Value::F64).unwrap_or(Value::Null);
            let confusion = Value::Array(
                state
                    .confusion
                    .iter()
                    .map(|row| Value::Array(row.iter().map(|&c| Value::U64(c)).collect()))
                    .collect(),
            );
            out.push((
                name.clone(),
                Value::Object(vec![
                    ("predictions".to_string(), Value::U64(state.predictions)),
                    ("outcomes".to_string(), Value::U64(state.outcomes)),
                    ("correct".to_string(), Value::U64(state.correct)),
                    ("unmatched".to_string(), Value::U64(state.unmatched)),
                    ("pending".to_string(), Value::U64(state.pending.len() as u64)),
                    ("rolling".to_string(), opt(state.rolling())),
                    ("cumulative".to_string(), opt(state.cumulative())),
                    ("baseline".to_string(), opt(state.baseline)),
                    (
                        "drift".to_string(),
                        Value::Str(
                            if state.drift.drifting() { "drifting" } else { "stable" }.to_string(),
                        ),
                    ),
                    ("confusion".to_string(), confusion),
                ]),
            ));
        }
        Value::Object(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_predictions_with_outcomes_and_builds_confusion() {
        let t = AccuracyTracker::new(DriftConfig::default());
        t.record_prediction("m", 1, 0);
        t.record_prediction("m", 2, 1);
        t.record_prediction("m", 3, 1);
        assert!(t.record_outcome("m", 1, 0)); // hit
        assert!(t.record_outcome("m", 2, 3)); // miss
        assert!(t.record_outcome("m", 3, 1)); // hit
        assert!(!t.record_outcome("m", 99, 0)); // never predicted
        assert_eq!(t.predictions("m"), 3);
        assert_eq!(t.outcomes("m"), 3);
        assert_eq!(t.unmatched_outcomes("m"), 1);
        assert_eq!(t.pending("m"), 0);
        assert_eq!(t.cumulative_accuracy("m"), Some(2.0 / 3.0));
        let c = t.confusion("m");
        assert_eq!(c[0][0], 1);
        assert_eq!(c[1][3], 1);
        assert_eq!(c[1][1], 1);
        // Row/column sums reconcile with outcomes.
        let total: u64 = c.iter().flatten().sum();
        assert_eq!(total, t.outcomes("m"));
    }

    #[test]
    fn calibration_rows_summarize_confusion_rows() {
        let t = AccuracyTracker::new(DriftConfig::default());
        for (id, (p, o)) in [(0usize, 0usize), (0, 0), (0, 2), (3, 3)].iter().enumerate() {
            t.record_prediction("m", id as u64, *p);
            t.record_outcome("m", id as u64, *o);
        }
        let rows = t.calibration("m");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].predicted, 0);
        assert_eq!(rows[0].outcomes, 3);
        assert!((rows[0].hit_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((rows[0].mean_observed - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rows[1].predicted, 3);
        assert_eq!(rows[1].hit_rate, 1.0);
    }

    /// The trip/clear state machine both monitors share, one row per
    /// boundary. Verdicts are `b` (breach), `o` (recovered) and `-`
    /// (inside the band); the expected string is the signal after each
    /// verdict, `S`table or `D`rifting.
    #[test]
    fn hysteresis_boundaries() {
        let table = [
            // One-tick trip, one-tick clear.
            (1, 1, "bo", "DS"),
            // Consecutive breaches trip; consecutive recoveries clear.
            (2, 2, "bbboo", "SDDDS"),
            // Flapping never builds a streak.
            (2, 2, "bobobobo", "SSSSSSSS"),
            // The band resets a breach streak...
            (2, 2, "b-b-b", "SSSSS"),
            // ...and a recovery streak, holding a drifting signal.
            (2, 2, "bb-o-o-oo", "SDDDDDDDS"),
            // A sustained breach flips once, a sustained recovery once.
            (2, 2, "bbbbbboooooo", "SDDDDDDSSSSS"),
            // Uneven streak lengths.
            (3, 1, "bb-bbbo", "SSSSSDS"),
            (1, 3, "booo", "DDDS"),
        ];
        for (trip_ticks, clear_ticks, verdicts, expected) in table {
            let mut h = Hysteresis::default();
            let signals: String = verdicts
                .chars()
                .map(|v| {
                    let was = h.drifting();
                    let flipped = h.update(v == 'b', v == 'o', trip_ticks, clear_ticks);
                    assert_eq!(flipped, h.drifting() != was, "a flip is reported exactly");
                    if h.drifting() {
                        'D'
                    } else {
                        'S'
                    }
                })
                .collect();
            assert_eq!(signals, expected, "trip {trip_ticks}, clear {clear_ticks}: {verdicts}");
        }
    }

    /// Window 2 makes the rolling view exactly the previous epoch's
    /// ratio after each `tick` (the fresh current bucket is empty), and
    /// every threshold here is exact in binary (0.75 − 0.25 = 0.5,
    /// 0.75 − 0.125 = 0.625), so the boundary comparisons are precise.
    fn boundary_config(trip_ticks: u32, clear_ticks: u32) -> DriftConfig {
        DriftConfig {
            window: 2,
            tolerance: 0.25,
            clear_margin: 0.125,
            trip_ticks,
            clear_ticks,
            min_samples: 5,
        }
    }

    fn feed_epoch(t: &AccuracyTracker, id: &mut u64, hits: usize, misses: usize) {
        for _ in 0..hits {
            t.record_prediction("m", *id, 1);
            t.record_outcome("m", *id, 1);
            *id += 1;
        }
        for _ in 0..misses {
            t.record_prediction("m", *id, 1);
            t.record_outcome("m", *id, 2);
            *id += 1;
        }
        t.tick();
    }

    /// Regression (the baseline-seeding hole): a metric that never got a
    /// manifest baseline must still trip against [`DEFAULT_BASELINE`]
    /// instead of silently never evaluating.
    #[test]
    fn metric_without_baseline_trips_against_the_default() {
        let t = AccuracyTracker::new(boundary_config(2, 2));
        let mut id = 0;
        // No set_baseline call anywhere. Rolling 0.0 < 0.6 - 0.25.
        feed_epoch(&t, &mut id, 0, 10);
        assert_eq!(t.drift("m"), DriftSignal::Stable, "trip_ticks = 2 needs a second epoch");
        feed_epoch(&t, &mut id, 0, 10);
        assert_eq!(t.drift("m"), DriftSignal::Drifting);
        assert_eq!(t.baseline("m"), None, "the fallback must not masquerade as a real baseline");
        // Healthy epochs against the same default baseline clear it.
        feed_epoch(&t, &mut id, 10, 0);
        feed_epoch(&t, &mut id, 10, 0);
        assert_eq!(t.drift("m"), DriftSignal::Stable);
    }

    /// The label monitor's threshold direction: a breach is rolling
    /// accuracy strictly below `baseline - tolerance`, a recovery is at
    /// or above `baseline - clear_margin`.
    #[test]
    fn accuracy_trips_strictly_below_and_clears_inclusively() {
        let t = AccuracyTracker::new(boundary_config(1, 1));
        t.set_baseline("m", 0.75);
        let mut id = 0;
        // Exactly at the trip threshold (rolling 0.5 = baseline -
        // tolerance): the breach comparison is strict, so no trip even
        // with trip_ticks = 1.
        feed_epoch(&t, &mut id, 5, 5);
        assert_eq!(t.drift("m"), DriftSignal::Stable, "threshold itself is not a breach");
        // Just below: one epoch suffices.
        feed_epoch(&t, &mut id, 4, 6);
        assert_eq!(t.drift("m"), DriftSignal::Drifting);
        // At the clear threshold (rolling 0.625 = baseline -
        // clear_margin, inclusive): one epoch clears.
        feed_epoch(&t, &mut id, 5, 3);
        assert_eq!(t.drift("m"), DriftSignal::Stable);
        assert_eq!(t.drift_transitions("m"), 2);
    }

    /// Per-metric transition counts reconcile with the
    /// `rc_acc_drift_transitions` registry delta.
    #[test]
    fn transition_counts_reconcile_with_registry_deltas() {
        let reg = Registry::new();
        let before = reg.snapshot().counter(ACC_DRIFT_TRANSITIONS).unwrap_or(0);
        let t = AccuracyTracker::with_registry(reg.clone(), boundary_config(1, 1));
        t.set_baseline("a", 0.75);
        t.set_baseline("b", 0.75);
        let mut id = 0;
        let mut feed = |metric: &str, hits: usize, misses: usize| {
            for _ in 0..hits {
                t.record_prediction(metric, id, 1);
                t.record_outcome(metric, id, 1);
                id += 1;
            }
            for _ in 0..misses {
                t.record_prediction(metric, id, 1);
                t.record_outcome(metric, id, 2);
                id += 1;
            }
        };
        // "a" trips and clears (2 transitions); "b" only trips (1).
        feed("a", 0, 10);
        feed("b", 10, 0);
        t.tick();
        feed("a", 10, 0);
        feed("b", 0, 10);
        t.tick();
        t.tick();
        assert_eq!(t.drift("a"), DriftSignal::Stable);
        assert_eq!(t.drift("b"), DriftSignal::Drifting);
        let per_metric = t.drift_transitions("a") + t.drift_transitions("b");
        assert_eq!(per_metric, 3);
        let after = reg.snapshot().counter(ACC_DRIFT_TRANSITIONS).unwrap_or(0);
        assert_eq!(after - before, per_metric, "registry delta must reconcile");
    }

    #[test]
    fn gauges_are_exported_into_the_registry() {
        let reg = Registry::new();
        let t = AccuracyTracker::with_registry(reg.clone(), DriftConfig::default());
        t.set_baseline("m", 0.8);
        t.record_prediction("m", 1, 2);
        t.record_outcome("m", 1, 2);
        t.tick();
        let snap = reg.snapshot();
        assert_eq!(snap.gauge(&acc_gauge_name(ACC_BASELINE, "m")), Some(0.8));
        assert_eq!(snap.gauge(&acc_gauge_name(ACC_CUMULATIVE, "m")), Some(1.0));
        assert_eq!(snap.gauge(&acc_gauge_name(ACC_ROLLING, "m")), Some(1.0));
        assert_eq!(snap.gauge(&acc_gauge_name(ACC_DRIFT, "m")), Some(0.0));
        assert_eq!(snap.gauge(&acc_confusion_name("m", 2, 2)), Some(1.0));
        let text = snap.to_prometheus_text();
        assert!(text.contains("rc_acc_rolling{metric=\"m\"} 1"));
        assert!(text.contains("rc_acc_confusion{metric=\"m\",p=\"2\",o=\"2\"} 1"));
    }

    #[test]
    fn summary_is_serializable_json() {
        let t = AccuracyTracker::new(DriftConfig::default());
        t.record_prediction("m", 1, 0);
        t.record_outcome("m", 1, 1);
        let v = t.summary();
        let bytes = serde_json::to_vec(&v).expect("summary serializes");
        assert!(!bytes.is_empty());
    }
}
