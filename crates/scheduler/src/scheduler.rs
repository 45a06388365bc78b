//! The rule-chain scheduler and Algorithm 1's candidate-selection rule.
//!
//! The production scheduler "sequentially applies a set of rules that
//! progressively narrow the choice of servers" (§5); hard rules cannot be
//! violated, soft rules are disregarded when honouring them would leave no
//! candidate. Here the chain is: (1) the hard fit rule — allocation and
//! memory, with Algorithm 1's grouping and oversubscription limits; (2)
//! the utilization-cap rule, hard or soft per policy; (3) the soft
//! prefer-filled rule ("fill up non-oversubscribable servers before
//! placing VMs in empty servers") combined with tightest-fit selection.

use rc_obs::Counter;
use rc_types::buckets::UtilizationBucketizer;
use rc_types::vm::ProdTag;

use crate::policy::{P95Source, PolicyKind};
use crate::request::VmRequest;
use crate::server::{ServerFleet, ServerKind};

/// Scheduler parameters (§6.2 defaults: 125% / 100% / theta 0.6).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Which §6.2 variant to run.
    pub policy: PolicyKind,
    /// `MAX_OVERSUB`: allowed virtual-core allocation as a fraction of
    /// physical capacity on oversubscribable servers (1.25 = 125%).
    pub max_oversub: f64,
    /// `MAX_UTIL`: allowed sum of predicted P95 utilizations as a fraction
    /// of physical capacity.
    pub max_util: f64,
    /// Predictions below this confidence are ignored (Algorithm 1 line
    /// 10 uses 0.6).
    pub confidence_threshold: f64,
    /// Added to every predicted bucket (the "+1 bucket" utilization
    /// sensitivity study); clamped to bucket 3.
    pub bucket_shift: usize,
}

impl SchedulerConfig {
    /// The paper's default settings for a policy.
    pub fn new(policy: PolicyKind) -> Self {
        SchedulerConfig {
            policy,
            max_oversub: 1.25,
            max_util: 1.00,
            confidence_threshold: 0.6,
            bucket_shift: 0,
        }
    }
}

/// The cluster scheduler: the server fleet plus the placement logic.
///
/// Selection asks `ServerFleet::first_fitting` for the first occupied
/// server, in preference order — tightest fit (highest allocation)
/// first, lowest index on ties — that has room for the VM's cores and
/// passes the memory and utilization-cap filters. Only when none does is
/// an empty server considered: all empty servers are interchangeable, so
/// the lowest-index one stands for the group, which is exactly the server
/// a full scan's first-wins tie-break would pick.
pub struct Scheduler {
    /// Server fleet (struct-of-arrays hot-path layout).
    pub fleet: ServerFleet,
    /// Parameters.
    pub config: SchedulerConfig,
    source: Box<dyn P95Source>,
    metrics: SchedMetrics,
}

/// Pre-resolved global-registry handles for the placement path.
struct SchedMetrics {
    placements: Counter,
    failures: Counter,
    rule_relaxations: Counter,
    util_cap_rejections: Counter,
}

impl SchedMetrics {
    fn new() -> Self {
        let reg = rc_obs::global();
        SchedMetrics {
            placements: reg.counter(rc_obs::SCHED_PLACEMENTS),
            failures: reg.counter(rc_obs::SCHED_FAILURES),
            rule_relaxations: reg.counter(rc_obs::SCHED_RULE_RELAXATIONS),
            util_cap_rejections: reg.counter(rc_obs::SCHED_UTIL_CAP_REJECTIONS),
        }
    }
}

/// Outcome of a placement attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Index of the chosen server.
    pub server: usize,
    /// Predicted P95 utilization in core units charged to the server
    /// (`V.util` in Algorithm 1); zero for policies that don't track it.
    pub predicted_util_cores: f64,
    /// The model's raw predicted P95 bucket when a confident prediction
    /// informed this placement (pre `bucket_shift`); `None` for
    /// policies without predictions or low-confidence calls. The
    /// simulator pairs it with the observed bucket at completion to
    /// feed the accuracy tracker.
    pub predicted_p95: Option<usize>,
}

impl Scheduler {
    /// Builds a scheduler over `n_servers` identical servers.
    pub fn new(
        n_servers: usize,
        cores_per_server: f64,
        memory_per_server_gb: f64,
        config: SchedulerConfig,
        source: Box<dyn P95Source>,
    ) -> Self {
        Scheduler {
            fleet: ServerFleet::new(n_servers, cores_per_server, memory_per_server_gb),
            config,
            source,
            metrics: SchedMetrics::new(),
        }
    }

    /// Algorithm 1's estimate of the VM's utilization in core units —
    /// `Highest_Util_in_Bucket[pred] * V.alloc` for a confident
    /// prediction, the full allocation otherwise — plus the raw
    /// predicted bucket the estimate came from, if any.
    fn predicted_util_cores(&self, req: &VmRequest) -> (f64, Option<usize>) {
        match self.source.predict_p95(req) {
            Some((bucket, score)) if score >= self.config.confidence_threshold => {
                let shifted = (bucket + self.config.bucket_shift).min(3);
                let util =
                    UtilizationBucketizer::highest_util_in_bucket(shifted) * req.cores as f64;
                (util, Some(bucket))
            }
            // Low confidence or no prediction: "it is safest to assume
            // that the VM will exhibit 100% utilization" (§5).
            _ => (req.cores as f64, None),
        }
    }

    /// Attempts to place a VM; applies PlaceVM bookkeeping on success.
    ///
    /// Returns `None` on a scheduling failure (no eligible server).
    pub fn schedule(&mut self, req: &VmRequest) -> Option<Placement> {
        let selected = match self.config.policy {
            PolicyKind::Baseline => self.select_baseline(req),
            PolicyKind::NaiveOversub => self.select_grouped(req, None),
            PolicyKind::RcInformedSoft | PolicyKind::RcInformedHard => {
                let (util, bucket) = self.predicted_util_cores(req);
                let hard = self.config.policy == PolicyKind::RcInformedHard;
                let selected = self.select_grouped(req, Some(util));
                match selected {
                    Some(p) => Some(Placement { predicted_p95: bucket, ..p }),
                    // Soft rule: drop the utilization cap rather than fail.
                    None if !hard => {
                        self.metrics.rule_relaxations.increment();
                        self.select_grouped(req, Some(f64::INFINITY)).map(|p| Placement {
                            predicted_util_cores: util,
                            predicted_p95: bucket,
                            ..p
                        })
                    }
                    None => None,
                }
            }
        };
        let Some(placement) = selected else {
            self.metrics.failures.increment();
            return None;
        };
        self.fleet.place(placement.server, req, placement.predicted_util_cores);
        self.metrics.placements.increment();
        Some(placement)
    }

    /// VMCompleted bookkeeping.
    pub fn complete(&mut self, req: &VmRequest, placement: Placement) {
        self.fleet.complete(placement.server, req, placement.predicted_util_cores);
    }

    /// Baseline selection: any server with free allocation and memory; no
    /// grouping, no oversubscription.
    fn select_baseline(&self, req: &VmRequest) -> Option<Placement> {
        let cores = req.cores as f64;
        let capacity = self.fleet.capacity_cores();
        let any = [ServerKind::NonOversubscribable, ServerKind::Oversubscribable];
        let server = self
            .fleet
            .first_fitting(&any, cores, capacity, |i| self.fleet.free_memory_gb(i) >= req.memory_gb)
            .or_else(|| {
                // Soft fill rule: empty servers only when no filled server
                // fits. Empty servers are interchangeable, so eligibility
                // is a property of the request; take the lowest index.
                self.fleet.lowest_empty().filter(|_| {
                    cores <= capacity && req.memory_gb <= self.fleet.capacity_memory_gb()
                })
            });
        server.map(|server| Placement { server, predicted_util_cores: 0.0, predicted_p95: None })
    }

    /// Grouped selection per Algorithm 1's `SelectCandidateServers`.
    ///
    /// `util_cores`: `Some(v)` applies the utilization cap with that
    /// charge (infinite `v` disables the cap but still records grouping);
    /// `None` is the Naive policy (no utilization tracking at all). Every
    /// cap-rejected candidate ranked ahead of the chosen server counts
    /// one `rc_sched_util_cap_rejections`.
    fn select_grouped(&self, req: &VmRequest, util_cores: Option<f64>) -> Option<Placement> {
        let production = req.prod == ProdTag::Production;
        let cores = req.cores as f64;
        let capacity = self.fleet.capacity_cores();
        let alloc_limit = if production { capacity } else { self.config.max_oversub * capacity };
        let util_limit = self.config.max_util * capacity;
        let util_charge = match util_cores {
            Some(v) if !production && v.is_finite() => Some(v),
            _ => None,
        };
        let under_cap = |util: f64| match util_charge {
            Some(v) if util + v > util_limit => {
                self.metrics.util_cap_rejections.increment();
                false
            }
            _ => true,
        };

        let group = [if production {
            ServerKind::NonOversubscribable
        } else {
            ServerKind::Oversubscribable
        }];
        let server = self
            .fleet
            .first_fitting(&group, cores, alloc_limit, |i| {
                self.fleet.free_memory_gb(i) >= req.memory_gb
                    && under_cap(self.fleet.predicted_util_cores(i))
            })
            .or_else(|| {
                let empty = self.fleet.lowest_empty()?;
                let fits = req.memory_gb <= self.fleet.capacity_memory_gb() && cores <= alloc_limit;
                (fits && under_cap(0.0)).then_some(empty)
            });
        server.map(|server| Placement {
            server,
            predicted_util_cores: match util_cores {
                Some(v) if v.is_finite() => v,
                _ => 0.0,
            },
            predicted_p95: None,
        })
    }

    /// Total allocated cores across the fleet — O(1).
    pub fn total_alloc_cores(&self) -> f64 {
        self.fleet.total_alloc_cores()
    }

    /// Number of non-empty servers — O(1).
    pub fn busy_servers(&self) -> usize {
        self.fleet.busy_servers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NoSource, OracleSource};
    use rc_core::ClientInputs;
    use rc_trace::UtilParams;
    use rc_types::time::Timestamp;
    use rc_types::vm::{OsType, Party, SubscriptionId, VmId, VmRole};

    fn request(id: u64, cores: u32, prod: ProdTag, bucket: usize) -> VmRequest {
        VmRequest {
            vm_id: VmId(id),
            cores,
            memory_gb: 2.0,
            prod,
            created: Timestamp::ZERO,
            deleted: Timestamp::from_hours(1),
            util: UtilParams::creation_test(id),
            inputs: ClientInputs {
                subscription: SubscriptionId(0),
                party: Party::First,
                role: VmRole::Iaas,
                prod,
                os: OsType::Linux,
                sku_index: 2,
                deployment_time: Timestamp::ZERO,
                deployment_size_hint: 1,
                service: None,
            },
            true_p95_bucket: bucket,
        }
    }

    fn scheduler(policy: PolicyKind, n: usize) -> Scheduler {
        Scheduler::new(n, 16.0, 112.0, SchedulerConfig::new(policy), Box::new(OracleSource))
    }

    #[test]
    fn baseline_fills_to_capacity_and_fails_beyond() {
        let mut s = scheduler(PolicyKind::Baseline, 2);
        // 2 servers x 16 cores = 8 four-core VMs.
        for i in 0..8 {
            assert!(s.schedule(&request(i, 4, ProdTag::Production, 0)).is_some(), "vm {i}");
        }
        assert!(s.schedule(&request(99, 4, ProdTag::Production, 0)).is_none());
        assert_eq!(s.total_alloc_cores(), 32.0);
    }

    #[test]
    fn baseline_ignores_prod_split() {
        let mut s = scheduler(PolicyKind::Baseline, 1);
        assert!(s.schedule(&request(1, 4, ProdTag::Production, 0)).is_some());
        assert!(s.schedule(&request(2, 4, ProdTag::NonProduction, 0)).is_some());
        assert_eq!(s.busy_servers(), 1);
    }

    #[test]
    fn grouping_segregates_prod_from_nonprod() {
        let mut s = scheduler(PolicyKind::RcInformedSoft, 2);
        assert!(s.schedule(&request(1, 4, ProdTag::Production, 0)).is_some());
        assert!(s.schedule(&request(2, 4, ProdTag::NonProduction, 0)).is_some());
        assert_eq!(s.busy_servers(), 2);
        assert_eq!(s.fleet.kind(0), ServerKind::NonOversubscribable);
        assert_eq!(s.fleet.kind(1), ServerKind::Oversubscribable);
    }

    #[test]
    fn oversubscription_admits_extra_nonprod_allocation() {
        // One server: prod stops at 16 cores; nonprod (low-util oracle
        // bucket 0 -> 25% charge) reaches 125% = 20 cores.
        let mut s = scheduler(PolicyKind::RcInformedSoft, 1);
        for i in 0..5 {
            assert!(s.schedule(&request(i, 4, ProdTag::NonProduction, 0)).is_some(), "vm {i}");
        }
        assert_eq!(s.total_alloc_cores(), 20.0);
        assert!(s.schedule(&request(9, 4, ProdTag::NonProduction, 0)).is_none());
    }

    #[test]
    fn hard_rule_enforces_utilization_cap() {
        // High-utilization VMs (bucket 3 => full charge): the cap of 16
        // core-units of predicted P95 binds before the 20-core alloc cap.
        let mut s = scheduler(PolicyKind::RcInformedHard, 1);
        for i in 0..4 {
            assert!(s.schedule(&request(i, 4, ProdTag::NonProduction, 3)).is_some());
        }
        assert!(s.schedule(&request(9, 4, ProdTag::NonProduction, 3)).is_none());
        assert_eq!(s.total_alloc_cores(), 16.0);
    }

    #[test]
    fn soft_rule_relaxes_utilization_cap() {
        let mut s = scheduler(PolicyKind::RcInformedSoft, 1);
        for i in 0..5 {
            assert!(
                s.schedule(&request(i, 4, ProdTag::NonProduction, 3)).is_some(),
                "soft rule should relax the cap for vm {i}"
            );
        }
        // Allocation cap still binds.
        assert!(s.schedule(&request(9, 4, ProdTag::NonProduction, 3)).is_none());
        assert_eq!(s.total_alloc_cores(), 20.0);
    }

    #[test]
    fn no_prediction_assumes_full_utilization() {
        let mut s = Scheduler::new(
            1,
            16.0,
            112.0,
            SchedulerConfig::new(PolicyKind::RcInformedHard),
            Box::new(NoSource),
        );
        for i in 0..4 {
            assert!(s.schedule(&request(i, 4, ProdTag::NonProduction, 0)).is_some());
        }
        // Charged at full allocation, the 16-core util cap is now binding.
        assert!(s.schedule(&request(9, 4, ProdTag::NonProduction, 0)).is_none());
    }

    #[test]
    fn prefers_filling_over_empty_servers() {
        let mut s = scheduler(PolicyKind::RcInformedSoft, 3);
        let p1 = s.schedule(&request(1, 2, ProdTag::Production, 0)).unwrap();
        let p2 = s.schedule(&request(2, 2, ProdTag::Production, 0)).unwrap();
        assert_eq!(p1.server, p2.server, "second prod VM should pack onto the first");
    }

    #[test]
    fn completion_frees_capacity() {
        let mut s = scheduler(PolicyKind::Baseline, 1);
        let req = request(1, 16, ProdTag::Production, 0);
        let p = s.schedule(&req).unwrap();
        assert!(s.schedule(&request(2, 16, ProdTag::Production, 0)).is_none());
        s.complete(&req, p);
        assert!(s.schedule(&request(3, 16, ProdTag::Production, 0)).is_some());
    }

    #[test]
    fn memory_is_a_hard_dimension() {
        let mut s = scheduler(PolicyKind::Baseline, 1);
        let mut req = request(1, 2, ProdTag::Production, 0);
        req.memory_gb = 200.0;
        assert!(s.schedule(&req).is_none(), "memory must not be oversubscribed");
    }

    #[test]
    fn bucket_shift_tightens_admission() {
        let mut cfg = SchedulerConfig::new(PolicyKind::RcInformedHard);
        cfg.bucket_shift = 1;
        let mut s = Scheduler::new(1, 16.0, 112.0, cfg, Box::new(OracleSource));
        // Bucket 2 shifted to 3 => full charge; cap binds at 4 VMs.
        for i in 0..4 {
            assert!(s.schedule(&request(i, 4, ProdTag::NonProduction, 2)).is_some());
        }
        assert!(s.schedule(&request(9, 4, ProdTag::NonProduction, 2)).is_none());
    }
}
