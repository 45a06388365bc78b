//! Deterministic chaos schedules for the control loop.
//!
//! A [`ChaosPlan`] says *when* each fault fires on the simulated clock.
//! The controller applies it: dirty or degraded telemetry and sabotaged
//! candidates go into the ingest and retrain paths, training panics into
//! the pipeline, and the store faults — a put outage mid-flip, a
//! brownout of one key shard, a manual publish racing the manifest
//! flip — are armed on the loop's [`rc_store::FaultyStore`] for one tick
//! and healed at tick end.
//!
//! Every schedule is data, so a soak is reproducible: the same plan
//! against the same seed produces the same journal.

use rc_trace::TelemetryDegrade;
use rc_types::metrics::PredictionMetric;

/// When each chaos fault fires, keyed by loop tick. Empty plan = no
/// chaos. All schedules are data, so a soak is reproducible: the same
/// plan against the same seed produces the same journal.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// `(tick, rate)`: the window ingested at `tick` streams through the
    /// dirty-telemetry injector at `rate` (see
    /// [`rc_trace::DirtyPlan::uniform`]). A rate near 1.0 starves the
    /// trainer and must cost exactly one degraded tick.
    pub dirty_at: Vec<(u32, f64)>,
    /// `(tick, metrics)`: training panics injected into the pipeline for
    /// those metrics at `tick`; the pipeline's per-metric isolation
    /// quarantines them while the others train on.
    pub fail_train_at: Vec<(u32, Vec<PredictionMetric>)>,
    /// `(tick, n)`: at `tick`, the store starts refusing writes after `n`
    /// more successful puts — armed before the publish attempt, healed at
    /// tick end, so an outage strikes mid-flip.
    pub outage_after_puts: Vec<(u32, u64)>,
    /// Ticks whose retrain sees a garbled copy of the window (utilization
    /// inverted): the candidate trains "successfully" but is wrong about
    /// the real workload, and only the shadow comparison can catch it.
    pub degrade_candidate_at: Vec<u32>,
    /// `(tick, shard)`: a correlated store brownout at `tick` — every
    /// key hashing into `shard` (of [`rc_store::BROWNOUT_SHARDS`]) fails reads
    /// *and* writes together until tick-end heal, the way a lost
    /// partition fails rather than as independent per-op faults.
    pub brownout_at: Vec<(u32, u32)>,
    /// `(from_tick, until_tick)` slow-degradation episodes: telemetry
    /// ingested in `[from_tick, until_tick)` is corrupted by
    /// [`ChaosPlan::telemetry_degrade`] at a severity ramping linearly
    /// up to 1.0 at `until_tick - 1`, then restored (the collector gets
    /// fixed) — every reading stays individually valid while the
    /// distribution walks away from the training baseline and back.
    pub degrade_telemetry: Vec<(u32, u32)>,
    /// Ticks whose ingest window arrives clock-skewed: VM timestamps
    /// shifted forward (ordering preserved) as if the collector's clock
    /// ran ahead between windows.
    pub clock_skew_at: Vec<u32>,
    /// Ticks at which a manual operator publish races the controller's
    /// manifest flip: the flip's compare-and-swap loses to an
    /// interposed re-publish and must surface a typed race, not
    /// last-writer-wins.
    pub manual_publish_at: Vec<u32>,
    /// The degradation model the `degrade_telemetry` and
    /// `clock_skew_at` schedules apply.
    pub telemetry_degrade: TelemetryDegrade,
}

impl ChaosPlan {
    /// Dirty rate scheduled for `tick`, if any.
    pub fn dirty_rate(&self, tick: u32) -> Option<f64> {
        self.dirty_at.iter().find(|(t, _)| *t == tick).map(|(_, r)| *r)
    }

    /// Training faults scheduled for `tick`.
    pub fn train_faults(&self, tick: u32) -> Vec<PredictionMetric> {
        self.fail_train_at
            .iter()
            .find(|(t, _)| *t == tick)
            .map(|(_, m)| m.clone())
            .unwrap_or_default()
    }

    /// Put budget before the store outage scheduled for `tick`, if any.
    pub fn outage_budget(&self, tick: u32) -> Option<u64> {
        self.outage_after_puts.iter().find(|(t, _)| *t == tick).map(|(_, n)| *n)
    }

    /// Whether the candidate trained at `tick` is sabotaged.
    pub fn degrades_candidate(&self, tick: u32) -> bool {
        self.degrade_candidate_at.contains(&tick)
    }

    /// Brownout shard scheduled for `tick`, if any.
    pub fn brownout_shard(&self, tick: u32) -> Option<u32> {
        self.brownout_at.iter().find(|(t, _)| *t == tick).map(|(_, s)| *s)
    }

    /// Telemetry-degradation severity at `tick`: the maximum linear
    /// ramp across episodes covering `tick`, 0.0 outside every episode.
    /// An episode `(from, until)` ramps `1/(until-from), ..., 1.0` over
    /// its ticks and ends at `until` — active-window semantics, like
    /// every other schedule in the plan.
    pub fn degrade_severity(&self, tick: u32) -> f64 {
        self.degrade_telemetry
            .iter()
            .filter(|&&(from, until)| tick >= from && tick < until)
            .map(|&(from, until)| {
                rc_trace::ramp_severity((tick + 1) as u64, from as u64, until as u64)
            })
            .fold(0.0, f64::max)
    }

    /// Whether the window ingested at `tick` arrives clock-skewed.
    pub fn skews_clock(&self, tick: u32) -> bool {
        self.clock_skew_at.contains(&tick)
    }

    /// Whether a manual publish races the flip attempted at `tick`.
    pub fn manual_publish(&self, tick: u32) -> bool {
        self.manual_publish_at.contains(&tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_severity_ramps_across_the_episode() {
        let plan = ChaosPlan { degrade_telemetry: vec![(10, 20)], ..ChaosPlan::default() };
        assert_eq!(plan.degrade_severity(9), 0.0);
        assert!((plan.degrade_severity(10) - 0.1).abs() < 1e-12);
        assert!((plan.degrade_severity(15) - 0.6).abs() < 1e-12);
        assert_eq!(plan.degrade_severity(19), 1.0);
        assert_eq!(plan.degrade_severity(20), 0.0, "the episode ends at until_tick");
        assert_eq!(plan.degrade_severity(25), 0.0);
        assert_eq!(ChaosPlan::default().degrade_severity(15), 0.0);
    }
}
