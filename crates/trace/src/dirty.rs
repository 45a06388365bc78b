//! Deterministic telemetry corruption for pipeline-hardening tests.
//!
//! The paper's Figure 9 gives the offline workflow an explicit `cleanup`
//! stage because production telemetry is dirty: collectors drop and
//! duplicate records, agents emit garbage utilization, clocks skew, and
//! joins leave dangling foreign keys. The synthetic generator is too
//! polite to produce any of that, so this module corrupts a clean
//! [`Trace`] on purpose, mirroring `rc_store::FaultPlan`'s design: a
//! seeded [`DirtyPlan`] whose decisions come from one RNG drawing a fixed
//! number of uniforms per VM record, making a corruption schedule
//! bit-reproducible across runs. The exact per-category counts come back
//! in a [`DirtyReport`], which the pipeline's `QuarantineReport` must
//! reconcile against.
//!
//! Telemetry readings are lazily derived from per-VM [`UtilParams`], so
//! "dropped/duplicated readings" are modelled at the record level: a
//! dropped VM loses its whole telemetry stream, a duplicated VM replays
//! it. Each corrupted record lands in exactly one category so the
//! accounting stays exact.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rc_types::telemetry::VmRecord;
use rc_types::time::Timestamp;
use rc_types::vm::DeploymentId;

use crate::trace::Trace;
use crate::utilization::UtilParams;

/// A seeded schedule of telemetry corruption.
///
/// All probabilities are per-VM-record and mutually exclusive — the first
/// matching category in field order wins, so a record is corrupted at
/// most once. A plan with every probability zero is the identity.
#[derive(Debug, Clone, Copy)]
pub struct DirtyPlan {
    /// Seed for the corruption RNG; two applications of the same plan to
    /// the same trace produce bit-identical results.
    pub seed: u64,
    /// Probability a VM record (and its telemetry) is dropped entirely.
    pub p_drop: f64,
    /// Probability a VM record is duplicated: a verbatim copy (same
    /// `vm_id`) is appended, replaying its telemetry stream.
    pub p_duplicate: f64,
    /// Probability the VM's utilization parameters are poisoned with NaN.
    pub p_nan_util: f64,
    /// Probability the VM's utilization parameters leave `[0, 1]`.
    pub p_out_of_range_util: f64,
    /// Probability the VM's timestamps are clock-skewed so that deletion
    /// precedes creation.
    pub p_clock_skew: f64,
    /// Probability the VM record is truncated: SKU fields zeroed as a
    /// collector that lost the tail of the record would leave them.
    pub p_truncate: f64,
    /// Probability the VM's deployment id is re-pointed past the end of
    /// the deployment table.
    pub p_orphan_deployment: f64,
}

/// The number of corruption categories a [`DirtyPlan`] spreads a uniform
/// rate across.
pub const DIRTY_CATEGORIES: usize = 7;

impl DirtyPlan {
    /// A plan that corrupts nothing (the identity baseline).
    pub fn clean(seed: u64) -> Self {
        DirtyPlan {
            seed,
            p_drop: 0.0,
            p_duplicate: 0.0,
            p_nan_util: 0.0,
            p_out_of_range_util: 0.0,
            p_clock_skew: 0.0,
            p_truncate: 0.0,
            p_orphan_deployment: 0.0,
        }
    }

    /// Spreads a total corruption `rate` evenly across all
    /// [`DIRTY_CATEGORIES`] categories: each VM record is corrupted with
    /// probability ≈ `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let p = (rate / DIRTY_CATEGORIES as f64).clamp(0.0, 1.0);
        DirtyPlan {
            seed,
            p_drop: p,
            p_duplicate: p,
            p_nan_util: p,
            p_out_of_range_util: p,
            p_clock_skew: p,
            p_truncate: p,
            p_orphan_deployment: p,
        }
    }

    /// Corrupts a trace, returning the dirtied copy and exact per-category
    /// counts. Deterministic: the schedule is a pure function of
    /// `(plan, trace.vms.len())`, with exactly eight RNG draws per VM
    /// record whatever the outcome. Duplicates replay at the end of the
    /// parallel arrays with their original `vm_id`; the deployment table
    /// is copied as is, so an already-dirty trace is accepted too.
    pub fn apply(&self, trace: &Trace) -> (Trace, DirtyReport) {
        let mut corruption = Corruption::new(*self, trace.deployments.len() as u64);
        let mut clean = trace
            .vms
            .iter()
            .zip(&trace.util)
            .zip(&trace.interactive_intent)
            .map(|((vm, util), &intent)| (vm.clone(), *util, intent));
        let ((vms, util), interactive_intent) =
            std::iter::from_fn(|| corruption.next_from(&mut clean))
                .map(|(vm, util, intent)| ((vm, util), intent))
                .unzip();
        let dirty = Trace {
            config: trace.config.clone(),
            subscriptions: trace.subscriptions.clone(),
            vms,
            util,
            interactive_intent,
            deployments: trace.deployments.clone(),
        };
        (dirty, corruption.report())
    }
}

/// What happened to one record after its eight corruption draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordFate {
    /// Present in the dirty output (possibly corrupted in place).
    Kept,
    /// Absent from the dirty output.
    Dropped,
    /// Present, and a verbatim copy replays at the end of the stream.
    Duplicated,
}

/// One clean VM record as the corruption driver sees it: the record and
/// utilization model it may dirty in place, plus whatever rides along.
pub(crate) trait Corruptible: Clone {
    /// The two parts a corruption category can touch.
    fn parts_mut(&mut self) -> (&mut VmRecord, &mut UtilParams);
}

/// A trace's own parallel arrays, one element of each.
impl Corruptible for (VmRecord, UtilParams, bool) {
    fn parts_mut(&mut self) -> (&mut VmRecord, &mut UtilParams) {
        (&mut self.0, &mut self.1)
    }
}

/// The record-by-record corruption driver behind both
/// [`DirtyPlan::apply`] and [`crate::DirtyVmStream`]: clean records are
/// corrupted in arrival order, and duplicated ones replay, in that order,
/// once the clean input is exhausted — where a collector that re-delivered
/// a batch would put them.
pub(crate) struct Corruption<T> {
    plan: DirtyPlan,
    rng: StdRng,
    /// Size of the clean deployment table; orphans point past it.
    n_deployments: u64,
    report: DirtyReport,
    /// Copies of duplicated records, replayed once the input is exhausted.
    duplicates: VecDeque<T>,
}

impl<T: Corruptible> Corruption<T> {
    pub(crate) fn new(plan: DirtyPlan, n_deployments: u64) -> Self {
        Corruption {
            rng: StdRng::seed_from_u64(plan.seed),
            plan,
            n_deployments,
            report: DirtyReport::default(),
            duplicates: VecDeque::new(),
        }
    }

    /// Per-category counts so far (final once `next_from` returns `None`).
    pub(crate) fn report(&self) -> DirtyReport {
        self.report
    }

    /// The next dirty record: the next surviving record of `clean`, then
    /// the duplicates.
    pub(crate) fn next_from(&mut self, clean: &mut impl Iterator<Item = T>) -> Option<T> {
        for mut record in clean {
            let (vm, util) = record.parts_mut();
            match self.corrupt(vm, util) {
                RecordFate::Dropped => continue,
                RecordFate::Duplicated => {
                    self.duplicates.push_back(record.clone());
                    return Some(record);
                }
                RecordFate::Kept => return Some(record),
            }
        }
        self.duplicates.pop_front()
    }

    /// Draws one record's corruption schedule (exactly eight uniforms,
    /// whatever the outcome, so two applications stay in lock-step) and
    /// applies any in-place category.
    fn corrupt(&mut self, vm: &mut VmRecord, util: &mut UtilParams) -> RecordFate {
        let (plan, rng, report) = (&self.plan, &mut self.rng, &mut self.report);
        let u_drop: f64 = rng.gen();
        let u_dup: f64 = rng.gen();
        let u_nan: f64 = rng.gen();
        let u_range: f64 = rng.gen();
        let u_skew: f64 = rng.gen();
        let u_trunc: f64 = rng.gen();
        let u_orphan: f64 = rng.gen();
        let salt: u64 = rng.gen();

        if u_drop < plan.p_drop {
            report.dropped += 1;
            return RecordFate::Dropped;
        } else if u_dup < plan.p_duplicate {
            report.duplicated += 1;
            return RecordFate::Duplicated;
        } else if u_nan < plan.p_nan_util {
            util.base = f64::NAN;
            util.p95_level = f64::NAN;
            report.nan_util += 1;
        } else if u_range < plan.p_out_of_range_util {
            // Far outside [0, 1] in a salt-determined direction.
            let magnitude = 2.0 + (salt % 97) as f64 / 10.0;
            if salt & 1 == 0 {
                util.base = magnitude;
                util.p95_level = magnitude + 1.0;
            } else {
                util.base = -magnitude;
                util.p95_level = -magnitude / 2.0;
            }
            report.out_of_range_util += 1;
        } else if u_skew < plan.p_clock_skew {
            // The collector's clock ran ahead: deletion lands a
            // salt-determined stretch *before* creation.
            let created = vm.created.as_secs().max(2);
            vm.created = Timestamp::from_secs(created);
            vm.deleted = Timestamp::from_secs(created.saturating_sub(1 + salt % 86_400).max(1));
            report.clock_skew += 1;
        } else if u_trunc < plan.p_truncate {
            vm.sku.cores = 0;
            vm.sku.memory_gb = 0.0;
            report.truncated += 1;
        } else if u_orphan < plan.p_orphan_deployment {
            vm.deployment = DeploymentId(self.n_deployments + salt % 1_000);
            report.orphaned += 1;
        }
        RecordFate::Kept
    }
}

/// FNV-1a fingerprint over every VM record, utilization model, and
/// deployment in a trace, hashing floats by bit pattern — usable on dirty
/// traces whose NaNs JSON cannot encode. Two traces with the same
/// fingerprint are bit-identical for the pipeline's purposes.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    for (vm, util) in trace.vms.iter().zip(&trace.util) {
        mix(vm.vm_id.0);
        mix(vm.subscription.0 as u64);
        mix(vm.deployment.0);
        mix(vm.created.as_secs());
        mix(vm.deleted.as_secs());
        mix(vm.sku.cores as u64);
        mix(vm.sku.memory_gb.to_bits());
        mix(util.seed);
        mix(util.base.to_bits());
        mix(util.p95_level.to_bits());
        mix(util.diurnal_amplitude.to_bits());
        mix(util.noise.to_bits());
    }
    for dep in &trace.deployments {
        mix(dep.id.0);
        mix(dep.subscription.0 as u64);
        mix(dep.created.as_secs());
        mix(dep.n_vms as u64);
        mix(dep.n_cores as u64);
    }
    h
}

/// Exact counts of corrupted records, by category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirtyReport {
    /// VM records dropped (telemetry stream lost).
    pub dropped: u64,
    /// VM records duplicated (telemetry stream replayed).
    pub duplicated: u64,
    /// VM records with NaN utilization parameters.
    pub nan_util: u64,
    /// VM records with out-of-range utilization parameters.
    pub out_of_range_util: u64,
    /// VM records with clock-skewed timestamps.
    pub clock_skew: u64,
    /// VM records truncated to sentinel fields.
    pub truncated: u64,
    /// VM records re-pointed at a nonexistent deployment.
    pub orphaned: u64,
}

impl DirtyReport {
    /// Every corrupted record, all categories.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.nan_util
            + self.out_of_range_util
            + self.clock_skew
            + self.truncated
            + self.orphaned
    }

    /// Corrupted records that are still *present* in the dirty trace —
    /// what a downstream cleanup stage can actually quarantine (dropped
    /// records are simply absent).
    pub fn detectable(&self) -> u64 {
        self.total() - self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceConfig;

    fn base_trace() -> Trace {
        Trace::generate(&TraceConfig {
            target_vms: 2_000,
            n_subscriptions: 100,
            days: 12,
            ..TraceConfig::small()
        })
    }

    #[test]
    fn clean_plan_is_the_identity() {
        let trace = base_trace();
        let (dirty, report) = DirtyPlan::clean(7).apply(&trace);
        assert_eq!(report, DirtyReport::default());
        // A clean trace has no NaNs, so JSON equality works here and is
        // the strongest identity check available.
        assert_eq!(
            serde_json::to_vec(&dirty).unwrap(),
            serde_json::to_vec(&trace).unwrap(),
            "a zero-rate plan must leave the trace byte-identical"
        );
        assert_eq!(trace_fingerprint(&dirty), trace_fingerprint(&trace));
    }

    #[test]
    fn same_seed_applications_are_bit_identical() {
        let trace = base_trace();
        let plan = DirtyPlan::uniform(42, 0.2);
        let (a, ra) = plan.apply(&trace);
        let (b, rb) = plan.apply(&trace);
        assert_eq!(ra, rb);
        // JSON cannot encode the injected NaNs; compare bit-pattern
        // fingerprints instead.
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let trace = base_trace();
        let (a, ra) = DirtyPlan::uniform(1, 0.2).apply(&trace);
        let (b, rb) = DirtyPlan::uniform(2, 0.2).apply(&trace);
        assert!(
            ra != rb || trace_fingerprint(&a) != trace_fingerprint(&b),
            "two seeds produced identical corruption"
        );
    }

    #[test]
    fn every_category_fires_at_a_nonzero_rate() {
        let trace = base_trace();
        let (dirty, report) = DirtyPlan::uniform(3, 0.3).apply(&trace);
        assert!(report.dropped > 0, "{report:?}");
        assert!(report.duplicated > 0, "{report:?}");
        assert!(report.nan_util > 0, "{report:?}");
        assert!(report.out_of_range_util > 0, "{report:?}");
        assert!(report.clock_skew > 0, "{report:?}");
        assert!(report.truncated > 0, "{report:?}");
        assert!(report.orphaned > 0, "{report:?}");
        // Total rate lands near the requested 30%.
        let rate = report.total() as f64 / trace.vms.len() as f64;
        assert!((0.2..0.4).contains(&rate), "rate {rate}");
        // Parallel arrays stay parallel.
        assert_eq!(dirty.vms.len(), dirty.util.len());
        assert_eq!(dirty.vms.len(), dirty.interactive_intent.len());
        assert_eq!(
            dirty.vms.len() as u64,
            trace.vms.len() as u64 - report.dropped + report.duplicated
        );
    }

    #[test]
    fn corruption_matches_its_category() {
        let trace = base_trace();
        let n_deployments = trace.deployments.len() as u64;
        let (dirty, report) = DirtyPlan::uniform(11, 0.3).apply(&trace);
        let nan = dirty.util.iter().filter(|u| u.base.is_nan()).count() as u64;
        assert_eq!(nan, report.nan_util);
        let out_of_range = dirty
            .util
            .iter()
            .filter(|u| !u.base.is_nan() && !(0.0..=1.0).contains(&u.base))
            .count() as u64;
        assert_eq!(out_of_range, report.out_of_range_util);
        let skewed = dirty.vms.iter().filter(|v| v.deleted < v.created).count() as u64;
        assert_eq!(skewed, report.clock_skew);
        let truncated = dirty.vms.iter().filter(|v| v.sku.cores == 0).count() as u64;
        assert_eq!(truncated, report.truncated);
        let orphaned = dirty.vms.iter().filter(|v| v.deployment.0 >= n_deployments).count() as u64;
        assert_eq!(orphaned, report.orphaned);
    }
}
