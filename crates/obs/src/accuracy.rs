//! Live prediction-accuracy tracking and drift detection.
//!
//! The serving layers report `(metric, predicted_bucket)` at predict
//! time; whoever observes ground truth (the simulator, when a VM's
//! lifetime/utilization resolves) feeds back `(metric, observed_bucket)`.
//! The tracker pairs them by caller-supplied id and maintains, per
//! metric:
//!
//! - cumulative and **rolling** accuracy (the rolling side is a ring of
//!   per-epoch counts advanced by [`AccuracyTracker::tick`] — no wall
//!   clock anywhere);
//! - an observed × predicted [`Scorecard`], the cumulative side's
//!   counts;
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

use crate::metrics::{Counter, Gauge, Registry};
use crate::names::{
    ACC_BASELINE, ACC_CONFUSION, ACC_CUMULATIVE, ACC_DRIFT, ACC_DRIFT_TRANSITIONS, ACC_ROLLING,
};
use crate::scorecard::Scorecard;

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
            window: 8,
            tolerance: 0.10,
            clear_margin: 0.05,
            trip_ticks: 2,
            clear_ticks: 2,
            min_samples: 20,
        }
    }
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
    /// Every resolved outcome, grown to the largest bucket seen.
    card: Scorecard,
    predictions: u64,
    unmatched: u64,
    dropped_pending: u64,
    /// `(correct, outcomes)` per epoch, one slot per epoch of the
    /// rolling window; `epoch % len` is the current one.
    ring: Box<[(u64, u64)]>,
    epoch: usize,
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
            card: Scorecard::default(),
            predictions: 0,
            unmatched: 0,
            dropped_pending: 0,
            ring: vec![(0, 0); config.window.max(1)].into_boxed_slice(),
            epoch: 0,
            drift: Hysteresis::default(),
            transitions: 0,
            g_rolling: registry.gauge(&acc_gauge_name(ACC_ROLLING, metric)),
            g_cumulative: registry.gauge(&acc_gauge_name(ACC_CUMULATIVE, metric)),
            g_drift: registry.gauge(&acc_gauge_name(ACC_DRIFT, metric)),
            g_baseline: registry.gauge(&acc_gauge_name(ACC_BASELINE, metric)),
        }
    }

    /// `(correct, outcomes)` summed over the rolling window.
    fn window_sums(&self) -> (u64, u64) {
        self.ring.iter().fold((0, 0), |(c, o), &(ec, eo)| (c + ec, o + eo))
    }

    fn rolling(&self) -> Option<f64> {
        let (correct, outcomes) = self.window_sums();
        (outcomes > 0).then(|| correct as f64 / outcomes as f64)
    }

    /// Starts the next epoch in the slot the oldest one held.
    fn advance(&mut self) {
        self.epoch += 1;
        self.ring[self.epoch % self.ring.len()] = (0, 0);
    }

    fn cumulative(&self) -> Option<f64> {
        (self.card.answered() > 0).then(|| self.card.accuracy())
    }
}

/// Pairs predictions with observed outcomes and tracks rolling accuracy,
/// a scorecard, and drift per metric.
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
            state.card.record(observed, predicted, true);
            let slot = state.epoch % state.ring.len();
            state.ring[slot].0 += u64::from(predicted == observed);
            state.ring[slot].1 += 1;
            state.g_cumulative.set(state.card.accuracy());
            registry
                .gauge(&acc_confusion_name(metric, predicted, observed))
                .set(state.card.count(observed, predicted) as f64);
            true
        })
    }

    /// Starts every metric afresh, as a new tracker on the same registry
    /// would, then sets `baselines`. Unlike a new tracker, it first zeroes
    /// every confusion gauge it exported, so no cell keeps counts from
    /// before the reset. The control loop calls this on each model flip.
    pub fn reset(&self, baselines: &[(String, f64)]) {
        let mut metrics = self.metrics.lock().expect("accuracy lock");
        for (metric, state) in metrics.iter() {
            for observed in 0..state.card.k() {
                for predicted in 0..state.card.k() {
                    if state.card.count(observed, predicted) > 0 {
                        let cell = acc_confusion_name(metric, predicted, observed);
                        self.registry.gauge(&cell).set(0.0);
                    }
                }
            }
        }
        metrics.clear();
        drop(metrics);
        for (metric, accuracy) in baselines {
            self.set_baseline(metric, *accuracy);
        }
    }

    /// Advances the logical clock: rotates every metric's rolling window
    /// and re-evaluates its drift signal with hysteresis.
    pub fn tick(&self) {
        let mut metrics = self.metrics.lock().expect("accuracy lock");
        for state in metrics.values_mut() {
            state.advance();
            let (_, window_outcomes) = state.window_sums();
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
        self.metrics.lock().expect("accuracy lock").get(metric).map_or(0, |s| s.card.answered())
    }

    /// Outcomes that arrived with no pending prediction.
    pub fn unmatched_outcomes(&self, metric: &str) -> u64 {
        self.metrics.lock().expect("accuracy lock").get(metric).map_or(0, |s| s.unmatched)
    }

    /// Predictions still awaiting an outcome.
    pub fn pending(&self, metric: &str) -> usize {
        self.metrics.lock().expect("accuracy lock").get(metric).map_or(0, |s| s.pending.len())
    }

    /// The observed × predicted scorecard of every resolved outcome
    /// (empty when `metric` is unknown).
    pub fn confusion(&self, metric: &str) -> Scorecard {
        self.metrics
            .lock()
            .expect("accuracy lock")
            .get(metric)
            .map(|s| s.card.clone())
            .unwrap_or_default()
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
        assert_eq!(c.count(0, 0), 1);
        assert_eq!(c.count(3, 1), 1);
        assert_eq!(c.count(1, 1), 1);
        assert_eq!(c.answered(), t.outcomes("m"));
        assert_eq!(c.accuracy(), 2.0 / 3.0);
    }

    /// A reset zeroes every confusion cell it exported, drops the
    /// per-metric state and installs the new baselines.
    #[test]
    fn reset_zeroes_exported_cells_and_reseeds_baselines() {
        let reg = Registry::new();
        let t = AccuracyTracker::with_registry(reg.clone(), DriftConfig::default());
        t.record_prediction("m", 1, 2);
        t.record_outcome("m", 1, 0);
        t.record_prediction("n", 2, 1);
        t.record_outcome("n", 2, 1);
        t.reset(&[("n".to_string(), 0.7)]);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge(&acc_confusion_name("m", 2, 0)), Some(0.0));
        assert_eq!(snap.gauge(&acc_confusion_name("n", 1, 1)), Some(0.0));
        assert_eq!((t.outcomes("m"), t.outcomes("n")), (0, 0));
        assert_eq!((t.baseline("m"), t.baseline("n")), (None, Some(0.7)));
        t.record_prediction("n", 3, 1);
        t.record_outcome("n", 3, 1);
        assert_eq!(reg.snapshot().gauge(&acc_confusion_name("n", 1, 1)), Some(1.0));
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

    /// Rolling accuracy is a recount over the current epoch and the
    /// `window - 1` before it: after every record and every tick the
    /// tracker agrees with a plain per-epoch `Vec` tally, across several
    /// full ring rotations, including empty epochs and `window = 1`.
    #[test]
    fn rolling_accuracy_matches_a_per_epoch_recount() {
        for window in [1, DriftConfig::default().window] {
            let t = AccuracyTracker::new(DriftConfig { window, ..DriftConfig::default() });
            // (correct, outcomes) per epoch; the last entry is current.
            let mut epochs: Vec<(u64, u64)> = vec![(0, 0)];
            let recount = |epochs: &[(u64, u64)]| {
                let live = &epochs[epochs.len().saturating_sub(window)..];
                let (correct, outcomes) =
                    live.iter().fold((0, 0), |(c, o), &(ec, eo)| (c + ec, o + eo));
                (outcomes > 0).then(|| correct as f64 / outcomes as f64)
            };
            let mut id = 0u64;
            for epoch in 0..(3 * window as u64 + 5) {
                // Scripted: some epochs are empty, some all-miss, some mixed.
                let hits = (epoch * 7) % 5;
                let misses = if epoch % 6 == 4 { 0 } else { (epoch * 3) % 4 };
                for i in 0..hits + misses {
                    t.record_prediction("m", id, 1);
                    t.record_outcome("m", id, if i < hits { 1 } else { 2 });
                    id += 1;
                }
                let current = epochs.last_mut().expect("current epoch");
                current.0 += hits;
                current.1 += hits + misses;
                assert_eq!(
                    t.rolling_accuracy("m"),
                    recount(&epochs),
                    "window {window}, epoch {epoch}"
                );
                t.tick();
                epochs.push((0, 0));
                assert_eq!(
                    t.rolling_accuracy("m"),
                    recount(&epochs),
                    "window {window}, after tick {epoch}"
                );
            }
        }
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
}
