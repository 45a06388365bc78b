//! The event-driven cluster simulator (§6.2, "Methodology").
//!
//! Faithful to the paper's description: VM arrivals are scheduled against
//! the rule chain; each server's CPU utilization is aggregated per
//! 5-minute period by *adding up the co-located VMs' maximum
//! utilizations* — pessimistic, since it assumes each maximum lasts the
//! whole period — and a reading above 100% of physical capacity means
//! virtual cores would have had to timeslice physical ones.
//!
//! The hot path is built to scale to millions of arrivals:
//!
//! * Requests arrive through an iterator ([`simulate_stream`]), so a
//!   trace never needs to be materialized — peak memory tracks the peak
//!   number of *concurrently live* VMs, not total arrivals.
//! * Live VMs sit in a slot arena ([`LiveVm`] slab + free list); each one
//!   carries a backlink to its position in its server's residency list,
//!   so completion is an O(1) swap-remove rather than a linear
//!   `position()` scan.
//! * Per-tick aggregates that don't depend on the telemetry slot —
//!   allocated cores, oversubscribable-server counts — are maintained
//!   incrementally by [`crate::server::ServerFleet`] and read in O(1);
//!   the utilization pass touches only occupied servers.
//! * [`simulate_partitioned`] shards a request stream across independent
//!   clusters by subscription and simulates them in parallel, merging
//!   the per-cluster reports deterministically.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rc_obs::AccuracyTracker;
use rc_types::metrics::PredictionMetric;
use rc_types::time::{Timestamp, TELEMETRY_INTERVAL};

use crate::policy::P95Source;
use crate::request::VmRequest;
use crate::scheduler::{Placement, Scheduler, SchedulerConfig};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Fleet size (the paper simulates 880 servers).
    pub n_servers: usize,
    /// Physical cores per server (paper: 16).
    pub cores_per_server: f64,
    /// Physical memory per server in GB (paper: 112).
    pub memory_per_server_gb: f64,
    /// Scheduler policy and limits.
    pub scheduler: SchedulerConfig,
    /// Added to every VM's per-interval maximum utilization (the "+25%"
    /// sensitivity study); clamped so no VM exceeds its allocation.
    pub util_shift: f64,
    /// Evaluate utilization every Nth telemetry slot (1 = every 5 min;
    /// larger strides trade reading counts for speed in tests).
    pub tick_stride: u64,
    /// Simulated seconds between observability epochs: each one ticks
    /// the accuracy tracker and the global registry's windowed
    /// instruments on the simulation's logical clock (0 disables).
    pub obs_tick_secs: u64,
    /// Accuracy tracker fed `(predicted, observed)` P95 bucket pairs as
    /// VMs place and resolve; `None` uses the process-global tracker.
    pub accuracy: Option<Arc<AccuracyTracker>>,
}

impl SimConfig {
    /// The paper's cluster: 880 servers, 16 cores, 112 GB.
    pub fn paper_cluster(scheduler: SchedulerConfig) -> Self {
        SimConfig {
            n_servers: 880,
            cores_per_server: 16.0,
            memory_per_server_gb: 112.0,
            scheduler,
            util_shift: 0.0,
            tick_stride: 1,
            obs_tick_secs: OBS_TICK_DAILY,
            accuracy: None,
        }
    }
}

/// The default observability epoch: one simulated day.
pub const OBS_TICK_DAILY: u64 = 86_400;

/// Results of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Policy label.
    pub policy: String,
    /// Servers simulated (summed across clusters by [`SimReport::merge`]).
    pub n_servers: u64,
    /// VM arrivals offered.
    pub n_arrivals: u64,
    /// Arrivals that could not be placed.
    pub n_failures: u64,
    /// Failed arrivals that were production VMs.
    pub n_failures_production: u64,
    /// Mean number of servers tagged oversubscribable over the run.
    pub mean_oversubscribable_servers: f64,
    /// Per-server 5-minute readings above 100% of physical CPU.
    pub readings_above_100: u64,
    /// Total per-server readings taken.
    pub total_readings: u64,
    /// Peak concurrently-allocated cores.
    pub peak_alloc_cores: f64,
    /// Peak concurrently-resident VMs (sizes the live-VM arena).
    pub peak_live_vms: u64,
    /// Mean allocated-core fraction across the fleet over the run.
    pub mean_alloc_fraction: f64,
    /// Mean *actual* utilization fraction across the fleet over the run.
    pub mean_util_fraction: f64,
}

impl SimReport {
    /// Failures as a fraction of arrivals.
    pub fn failure_rate(&self) -> f64 {
        if self.n_arrivals == 0 {
            0.0
        } else {
            self.n_failures as f64 / self.n_arrivals as f64
        }
    }

    /// Merges per-cluster reports from a partitioned run into one
    /// fleet-wide report.
    ///
    /// Counts sum across clusters. `peak_alloc_cores` and
    /// `peak_live_vms` sum per-cluster peaks, an upper bound on the true
    /// fleet-wide peak (clusters need not peak simultaneously).
    /// `mean_oversubscribable_servers` sums because every cluster ticks
    /// on the same clock, so each tick's fleet-wide count is the sum of
    /// the per-cluster counts. Mean fractions are weighted by each
    /// cluster's server count.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn merge(reports: &[SimReport]) -> SimReport {
        assert!(!reports.is_empty(), "merge needs at least one report");
        let total_servers: u64 = reports.iter().map(|r| r.n_servers).sum();
        let weighted = |field: fn(&SimReport) -> f64| {
            if total_servers == 0 {
                0.0
            } else {
                reports.iter().map(|r| field(r) * r.n_servers as f64).sum::<f64>()
                    / total_servers as f64
            }
        };
        SimReport {
            policy: reports[0].policy.clone(),
            n_servers: total_servers,
            n_arrivals: reports.iter().map(|r| r.n_arrivals).sum(),
            n_failures: reports.iter().map(|r| r.n_failures).sum(),
            n_failures_production: reports.iter().map(|r| r.n_failures_production).sum(),
            mean_oversubscribable_servers: reports
                .iter()
                .map(|r| r.mean_oversubscribable_servers)
                .sum(),
            readings_above_100: reports.iter().map(|r| r.readings_above_100).sum(),
            total_readings: reports.iter().map(|r| r.total_readings).sum(),
            peak_alloc_cores: reports.iter().map(|r| r.peak_alloc_cores).sum(),
            peak_live_vms: reports.iter().map(|r| r.peak_live_vms).sum(),
            mean_alloc_fraction: weighted(|r| r.mean_alloc_fraction),
            mean_util_fraction: weighted(|r| r.mean_util_fraction),
        }
    }
}

/// One placed, still-running VM in the live-VM slot arena.
///
/// Completed VMs return their slot to a free list, so arena size tracks
/// *peak concurrent* VMs rather than total arrivals.
struct LiveVm {
    req: VmRequest,
    placement: Placement,
    /// Position of this VM's slab key inside
    /// `resident[placement.server]` — the backlink that makes eviction an
    /// O(1) swap-remove instead of a linear `position()` scan.
    server_slot: u32,
}

/// Converts a slab/slot index to its `u32` key, failing loudly instead
/// of silently truncating past `u32::MAX` concurrently-live VMs.
///
/// Arrival *counts* flow through `u64` (the completion heap orders ties
/// by a `u64` arrival sequence number), so only the concurrently-live
/// population is bounded by the key width — and crossing that bound
/// panics rather than corrupting residency lists.
#[inline]
pub(crate) fn slab_key(i: usize) -> u32 {
    u32::try_from(i).unwrap_or_else(|_| {
        panic!("live-VM slot index {i} does not fit in u32; widen the slab key type")
    })
}

/// Mutable simulation state shared between arrivals, completions, and
/// utilization ticks.
struct SimState<'a> {
    scheduler: Scheduler,
    slab: Vec<LiveVm>,
    free: Vec<u32>,
    /// Slab keys of the VMs resident on each server.
    resident: Vec<Vec<u32>>,
    /// Min-heap of `(deleted_secs, arrival_seq, slab_key)`.
    completions: BinaryHeap<Reverse<(u64, u64, u32)>>,
    tracker: &'a AccuracyTracker,
    p95_metric: &'static str,
    util_shift: f64,
}

impl SimState<'_> {
    /// Completes every VM whose deletion time is at or before `upto`.
    fn process_completions(&mut self, upto: u64) {
        while let Some(&Reverse((t, _, key))) = self.completions.peek() {
            if t > upto {
                break;
            }
            self.completions.pop();
            let vm = &self.slab[key as usize];
            let req = vm.req;
            let placement = vm.placement;
            let slot = vm.server_slot as usize;
            self.scheduler.complete(&req, placement);
            if placement.predicted_p95.is_some() {
                self.tracker.record_outcome(self.p95_metric, req.vm_id.0, req.true_p95_bucket);
            }
            let list = &mut self.resident[placement.server];
            debug_assert_eq!(list[slot], key, "backlink points at this VM");
            list.swap_remove(slot);
            if let Some(&moved) = list.get(slot) {
                self.slab[moved as usize].server_slot = slot as u32;
            }
            self.free.push(key);
        }
    }

    /// Places a scheduled VM into the arena and residency structures.
    fn admit(&mut self, req: VmRequest, placement: Placement, arrival_seq: u64) {
        let key = match self.free.pop() {
            Some(k) => {
                self.slab[k as usize] = LiveVm { req, placement, server_slot: 0 };
                k
            }
            None => {
                let k = slab_key(self.slab.len());
                self.slab.push(LiveVm { req, placement, server_slot: 0 });
                k
            }
        };
        let list = &mut self.resident[placement.server];
        self.slab[key as usize].server_slot = slab_key(list.len());
        list.push(key);
        self.completions.push(Reverse((req.deleted.as_secs(), arrival_seq, key)));
    }

    /// Number of currently live VMs.
    fn live(&self) -> u64 {
        (self.slab.len() - self.free.len()) as u64
    }

    /// One utilization reading pass: `(readings above 100%, capped
    /// utilization sum in cores)`. Only occupied servers are visited —
    /// empty ones read exactly 0.
    fn tick(&self, at: u64) -> (u64, f64) {
        let slot = at / TELEMETRY_INTERVAL.as_secs();
        let capacity = self.scheduler.fleet.capacity_cores();
        let mut above = 0u64;
        let mut util_sum = 0.0f64;
        for &s in self.scheduler.fleet.occupied() {
            let mut used = 0.0f64;
            for &key in &self.resident[s as usize] {
                let vm = &self.slab[key as usize];
                let max = (vm.req.util.reading(slot).max + self.util_shift).clamp(0.0, 1.0);
                used += max * vm.req.cores as f64;
            }
            if used > capacity + 1e-9 {
                above += 1;
            }
            util_sum += used.min(capacity);
        }
        (above, util_sum)
    }
}

/// Runs one simulation over a materialized request slice.
///
/// `window` bounds the utilization accounting; requests outside it are
/// still placed/completed but produce no readings.
pub fn simulate(
    requests: &[VmRequest],
    config: &SimConfig,
    source: Box<dyn P95Source>,
    window: (Timestamp, Timestamp),
) -> SimReport {
    simulate_stream(requests.iter().copied(), config, source, window)
}

/// Runs one simulation over a request *stream*, without ever holding the
/// full trace: memory use is bounded by the peak number of concurrently
/// live VMs. Requests must arrive sorted by `(created, vm_id)` — the
/// order [`VmRequest::stream`] and the streaming trace both produce.
pub fn simulate_stream<I>(
    requests: I,
    config: &SimConfig,
    source: Box<dyn P95Source>,
    window: (Timestamp, Timestamp),
) -> SimReport
where
    I: IntoIterator<Item = VmRequest>,
{
    let tracker: &AccuracyTracker =
        config.accuracy.as_deref().unwrap_or_else(|| rc_obs::global_accuracy());
    let p95_metric = PredictionMetric::P95MaxCpuUtil.model_name();
    let mut state = SimState {
        scheduler: Scheduler::new(
            config.n_servers,
            config.cores_per_server,
            config.memory_per_server_gb,
            config.scheduler.clone(),
            source,
        ),
        slab: Vec::new(),
        free: Vec::new(),
        resident: vec![Vec::new(); config.n_servers],
        completions: BinaryHeap::new(),
        tracker,
        p95_metric,
        util_shift: config.util_shift,
    };

    let step = TELEMETRY_INTERVAL.as_secs() * config.tick_stride.max(1);
    let mut next_tick = (window.0.as_secs() / step) * step;
    if next_tick < window.0.as_secs() {
        next_tick += step;
    }

    // Accuracy feedback loop: record the predicted P95 bucket at
    // placement, feed back the trace's true bucket when the VM resolves,
    // and advance the observability epoch on the simulated clock.
    let registry = rc_obs::global();
    let placements_windowed = registry.windowed_counter(rc_obs::SCHED_PLACEMENTS_WINDOWED);
    let overloaded_windowed = registry.windowed_counter(rc_obs::SCHED_OVERLOADED_WINDOWED);
    let mut next_obs_tick = if config.obs_tick_secs == 0 {
        u64::MAX
    } else {
        window.0.as_secs() + config.obs_tick_secs
    };
    let mut advance_obs = |upto: u64| {
        while next_obs_tick <= upto {
            tracker.tick();
            registry.tick();
            next_obs_tick += config.obs_tick_secs;
        }
    };

    let mut n_arrivals = 0u64;
    let mut n_failures = 0u64;
    let mut n_failures_production = 0u64;
    let mut sum_oversub_servers = 0u64;
    let mut readings_above_100 = 0u64;
    let mut total_readings = 0u64;
    let mut peak_alloc = 0.0f64;
    let mut peak_live = 0u64;
    let mut sum_alloc_fraction = 0.0f64;
    let mut sum_util_fraction = 0.0f64;
    let mut n_ticks = 0u64;

    let fleet_cores = config.cores_per_server * config.n_servers as f64;
    let window_end_secs = window.1.as_secs();

    // One reading per server per tick; empty servers read 0 without
    // being visited, and the slot-independent aggregates (allocation,
    // oversubscribable count) come from the fleet's incremental sums.
    macro_rules! run_tick {
        () => {{
            state.process_completions(next_tick);
            let (above, util_sum) = state.tick(next_tick);
            readings_above_100 += above;
            overloaded_windowed.add(above);
            total_readings += config.n_servers as u64;
            sum_util_fraction += util_sum / fleet_cores;
            sum_alloc_fraction += state.scheduler.total_alloc_cores() / fleet_cores;
            sum_oversub_servers += state.scheduler.fleet.oversubscribable_servers() as u64;
            n_ticks += 1;
            advance_obs(next_tick);
            next_tick += step;
        }};
    }

    for req in requests {
        let arrival_seq = n_arrivals;
        n_arrivals += 1;
        let now = req.created.as_secs();
        // Advance utilization ticks up to the arrival.
        while next_tick <= now && next_tick < window_end_secs {
            run_tick!();
        }
        state.process_completions(now);
        advance_obs(now);

        match state.scheduler.schedule(&req) {
            Some(placement) => {
                if let Some(bucket) = placement.predicted_p95 {
                    tracker.record_prediction(p95_metric, req.vm_id.0, bucket);
                }
                placements_windowed.increment();
                state.admit(req, placement, arrival_seq);
                peak_alloc = peak_alloc.max(state.scheduler.total_alloc_cores());
                peak_live = peak_live.max(state.live());
            }
            None => {
                n_failures += 1;
                if req.prod == rc_types::vm::ProdTag::Production {
                    n_failures_production += 1;
                }
            }
        }
    }

    // Drain remaining ticks in the window.
    while next_tick < window_end_secs {
        run_tick!();
    }

    // Bulk-add the run's readings to the global registry; the scheduler
    // already counted placements/failures/relaxations as they happened.
    registry.counter(rc_obs::SCHED_READINGS).add(total_readings);
    registry.counter(rc_obs::SCHED_OVERLOADED_READINGS).add(readings_above_100);

    SimReport {
        policy: config.scheduler.policy.label().to_string(),
        n_servers: config.n_servers as u64,
        n_arrivals,
        n_failures,
        n_failures_production,
        mean_oversubscribable_servers: if n_ticks == 0 {
            0.0
        } else {
            sum_oversub_servers as f64 / n_ticks as f64
        },
        readings_above_100,
        total_readings,
        peak_alloc_cores: peak_alloc,
        peak_live_vms: peak_live,
        mean_alloc_fraction: if n_ticks == 0 { 0.0 } else { sum_alloc_fraction / n_ticks as f64 },
        mean_util_fraction: if n_ticks == 0 { 0.0 } else { sum_util_fraction / n_ticks as f64 },
    }
}

/// Simulates `n_clusters` independent clusters in parallel and merges
/// their reports.
///
/// Requests are partitioned by subscription (`subscription.0 %
/// n_clusters`), mirroring cluster selection's affinity: a deployment
/// never spans clusters, and per-subscription behavioral consistency
/// stays within one cluster's history. Each cluster simulates its own
/// `config.n_servers`-server fleet, so the merged report covers
/// `n_clusters * config.n_servers` servers.
///
/// Per-cluster runs force `obs_tick_secs = 0` — observability epochs
/// ticking concurrently from several workers would race the shared
/// registry/tracker windows — which keeps the merged report identical
/// for every worker count, including 1.
pub fn simulate_partitioned(
    requests: &[VmRequest],
    config: &SimConfig,
    make_source: &(dyn Fn() -> Box<dyn P95Source> + Sync),
    window: (Timestamp, Timestamp),
    n_clusters: usize,
    n_workers: usize,
) -> SimReport {
    let n_clusters = n_clusters.max(1);
    let mut parts: Vec<Vec<VmRequest>> = vec![Vec::new(); n_clusters];
    for req in requests {
        parts[req.inputs.subscription.0 as usize % n_clusters].push(*req);
    }
    let cluster_config = SimConfig { obs_tick_secs: 0, ..config.clone() };
    let reports = rc_ml::pool::run(n_workers, n_clusters, |c| {
        simulate(&parts[c], &cluster_config, make_source(), window)
    });
    SimReport::merge(&reports)
}

/// Suggests a fleet size for a request stream so that the Baseline policy
/// lands near (just under) its capacity cliff — the operating point §6.2
/// studies, where Baseline fails ~0.25% of arrivals.
///
/// The estimate takes the peak concurrent core demand over the stream and
/// divides by cores-per-server with `headroom` (e.g. 0.98 ⇒ 2% short).
/// `requests` must be sorted by creation time, as [`VmRequest::stream`]
/// returns them; see [`suggest_server_count_stream`].
pub fn suggest_server_count(requests: &[VmRequest], cores_per_server: f64, headroom: f64) -> usize {
    suggest_server_count_stream(requests.iter().copied(), cores_per_server, headroom)
}

/// [`suggest_server_count`] over a request *stream*: one forward pass
/// with a deletion heap, so memory is bounded by the peak number of
/// concurrently live VMs. Requests must arrive sorted by creation time;
/// departures at time T are released before an arrival at T.
pub fn suggest_server_count_stream<I>(requests: I, cores_per_server: f64, headroom: f64) -> usize
where
    I: IntoIterator<Item = VmRequest>,
{
    let mut deletions: BinaryHeap<Reverse<(u64, i64)>> = BinaryHeap::new();
    let mut cur = 0i64;
    let mut peak = 0i64;
    let mut last = 0u64;
    for r in requests {
        let now = r.created.as_secs();
        debug_assert!(now >= last, "requests must arrive sorted by creation time");
        last = now;
        while let Some(&Reverse((t, cores))) = deletions.peek() {
            if t > now {
                break;
            }
            deletions.pop();
            cur -= cores;
        }
        cur += r.cores as i64;
        peak = peak.max(cur);
        deletions.push(Reverse((r.deleted.as_secs(), r.cores as i64)));
    }
    (((peak as f64) / cores_per_server) * headroom).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NoSource, OracleSource, PolicyKind, WrongSource};
    use rc_trace::{Trace, TraceConfig};

    fn requests() -> Vec<VmRequest> {
        let trace = Trace::generate(&TraceConfig {
            target_vms: 5_000,
            n_subscriptions: 200,
            days: 18,
            ..TraceConfig::small()
        });
        VmRequest::stream(&trace, Timestamp::ZERO, Timestamp::from_days(18), 16)
    }

    fn run(policy: PolicyKind, n_servers: usize, reqs: &[VmRequest]) -> SimReport {
        let mut config = SimConfig {
            n_servers,
            cores_per_server: 16.0,
            memory_per_server_gb: 112.0,
            scheduler: SchedulerConfig::new(policy),
            util_shift: 0.0,
            tick_stride: 6, // every 30 minutes keeps the test fast
            obs_tick_secs: OBS_TICK_DAILY,
            accuracy: None,
        };
        config.scheduler.policy = policy;
        let source: Box<dyn P95Source> = match policy {
            PolicyKind::RcInformedSoft | PolicyKind::RcInformedHard => Box::new(OracleSource),
            _ => Box::new(NoSource),
        };
        simulate(reqs, &config, source, (Timestamp::ZERO, Timestamp::from_days(18)))
    }

    /// The pre-optimization simulator, kept verbatim as a regression
    /// oracle: residents are request indices, eviction scans with
    /// `position()`, and every per-tick aggregate is recomputed by a
    /// full scan over all servers.
    fn simulate_reference(
        requests: &[VmRequest],
        config: &SimConfig,
        source: Box<dyn P95Source>,
        window: (Timestamp, Timestamp),
    ) -> SimReport {
        let mut scheduler = Scheduler::new(
            config.n_servers,
            config.cores_per_server,
            config.memory_per_server_gb,
            config.scheduler.clone(),
            source,
        );
        let mut resident: Vec<Vec<u32>> = vec![Vec::new(); config.n_servers];
        let mut placements: Vec<Option<Placement>> = vec![None; requests.len()];
        let mut completions: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();

        let step = TELEMETRY_INTERVAL.as_secs() * config.tick_stride.max(1);
        let mut next_tick = (window.0.as_secs() / step) * step;
        if next_tick < window.0.as_secs() {
            next_tick += step;
        }

        let tracker: &AccuracyTracker =
            config.accuracy.as_deref().unwrap_or_else(|| rc_obs::global_accuracy());
        let p95_metric = PredictionMetric::P95MaxCpuUtil.model_name();

        let mut n_failures = 0u64;
        let mut n_failures_production = 0u64;
        let mut sum_oversub_servers = 0u64;
        let mut readings_above_100 = 0u64;
        let mut total_readings = 0u64;
        let mut peak_alloc = 0.0f64;
        let mut peak_live = 0u64;
        let mut sum_alloc_fraction = 0.0f64;
        let mut sum_util_fraction = 0.0f64;
        let mut n_ticks = 0u64;
        let mut live = 0u64;

        let capacity = config.cores_per_server;
        let fleet_cores = capacity * config.n_servers as f64;

        let process_completions = |upto: u64,
                                   scheduler: &mut Scheduler,
                                   resident: &mut Vec<Vec<u32>>,
                                   completions: &mut BinaryHeap<Reverse<(u64, u32)>>,
                                   placements: &mut Vec<Option<Placement>>,
                                   live: &mut u64| {
            while let Some(&Reverse((t, idx))) = completions.peek() {
                if t > upto {
                    break;
                }
                completions.pop();
                let req = &requests[idx as usize];
                let placement = placements[idx as usize].take().expect("placed VM completes once");
                scheduler.complete(req, placement);
                if placement.predicted_p95.is_some() {
                    tracker.record_outcome(p95_metric, req.vm_id.0, req.true_p95_bucket);
                }
                let list = &mut resident[placement.server];
                let pos = list.iter().position(|&r| r == idx).expect("resident VM");
                list.swap_remove(pos);
                *live -= 1;
            }
        };

        let tick = |at: u64, scheduler: &Scheduler, resident: &Vec<Vec<u32>>| {
            let slot = at / TELEMETRY_INTERVAL.as_secs();
            let mut above = 0u64;
            let mut total = 0u64;
            let mut util_sum = 0.0f64;
            let mut alloc = 0.0f64;
            let mut oversub = 0u64;
            for (s, residents) in resident.iter().enumerate() {
                let mut used = 0.0f64;
                for &idx in residents {
                    let req = &requests[idx as usize];
                    let max = (req.util.reading(slot).max + config.util_shift).clamp(0.0, 1.0);
                    used += max * req.cores as f64;
                }
                total += 1;
                if used > capacity + 1e-9 {
                    above += 1;
                }
                util_sum += used.min(capacity);
                alloc += scheduler.fleet.alloc_cores(s);
                if scheduler.fleet.kind(s) == crate::server::ServerKind::Oversubscribable {
                    oversub += 1;
                }
            }
            (above, total, util_sum, alloc, oversub)
        };

        for (idx, req) in requests.iter().enumerate() {
            let now = req.created.as_secs();
            while next_tick <= now && next_tick < window.1.as_secs() {
                process_completions(
                    next_tick,
                    &mut scheduler,
                    &mut resident,
                    &mut completions,
                    &mut placements,
                    &mut live,
                );
                let (above, total, util_sum, alloc, oversub) =
                    tick(next_tick, &scheduler, &resident);
                readings_above_100 += above;
                total_readings += total;
                sum_util_fraction += util_sum / fleet_cores;
                sum_alloc_fraction += alloc / fleet_cores;
                sum_oversub_servers += oversub;
                n_ticks += 1;
                next_tick += step;
            }
            process_completions(
                now,
                &mut scheduler,
                &mut resident,
                &mut completions,
                &mut placements,
                &mut live,
            );

            match scheduler.schedule(req) {
                Some(placement) => {
                    if let Some(bucket) = placement.predicted_p95 {
                        tracker.record_prediction(p95_metric, req.vm_id.0, bucket);
                    }
                    placements[idx] = Some(placement);
                    resident[placement.server].push(idx as u32);
                    completions.push(Reverse((req.deleted.as_secs(), idx as u32)));
                    peak_alloc = peak_alloc.max(scheduler.total_alloc_cores());
                    live += 1;
                    peak_live = peak_live.max(live);
                }
                None => {
                    n_failures += 1;
                    if req.prod == rc_types::vm::ProdTag::Production {
                        n_failures_production += 1;
                    }
                }
            }
        }

        while next_tick < window.1.as_secs() {
            process_completions(
                next_tick,
                &mut scheduler,
                &mut resident,
                &mut completions,
                &mut placements,
                &mut live,
            );
            let (above, total, util_sum, alloc, oversub) = tick(next_tick, &scheduler, &resident);
            readings_above_100 += above;
            total_readings += total;
            sum_util_fraction += util_sum / fleet_cores;
            sum_alloc_fraction += alloc / fleet_cores;
            sum_oversub_servers += oversub;
            n_ticks += 1;
            next_tick += step;
        }

        SimReport {
            policy: config.scheduler.policy.label().to_string(),
            n_servers: config.n_servers as u64,
            n_arrivals: requests.len() as u64,
            n_failures,
            n_failures_production,
            mean_oversubscribable_servers: if n_ticks == 0 {
                0.0
            } else {
                sum_oversub_servers as f64 / n_ticks as f64
            },
            readings_above_100,
            total_readings,
            peak_alloc_cores: peak_alloc,
            peak_live_vms: peak_live,
            mean_alloc_fraction: if n_ticks == 0 {
                0.0
            } else {
                sum_alloc_fraction / n_ticks as f64
            },
            mean_util_fraction: if n_ticks == 0 { 0.0 } else { sum_util_fraction / n_ticks as f64 },
        }
    }

    fn assert_reports_match(fast: &SimReport, reference: &SimReport) {
        assert_eq!(fast.n_arrivals, reference.n_arrivals);
        assert_eq!(fast.n_failures, reference.n_failures);
        assert_eq!(fast.n_failures_production, reference.n_failures_production);
        assert_eq!(fast.readings_above_100, reference.readings_above_100);
        assert_eq!(fast.total_readings, reference.total_readings);
        assert_eq!(fast.peak_live_vms, reference.peak_live_vms);
        assert!((fast.peak_alloc_cores - reference.peak_alloc_cores).abs() < 1e-9);
        assert!(
            (fast.mean_oversubscribable_servers - reference.mean_oversubscribable_servers).abs()
                < 1e-9
        );
        assert!((fast.mean_alloc_fraction - reference.mean_alloc_fraction).abs() < 1e-12);
        assert!((fast.mean_util_fraction - reference.mean_util_fraction).abs() < 1e-12);
    }

    #[test]
    fn optimized_matches_reference_simulator() {
        let reqs = requests();
        let n = suggest_server_count(&reqs, 16.0, 0.95);
        for policy in [PolicyKind::Baseline, PolicyKind::RcInformedSoft] {
            let mut config = SimConfig {
                n_servers: n,
                cores_per_server: 16.0,
                memory_per_server_gb: 112.0,
                scheduler: SchedulerConfig::new(policy),
                util_shift: 0.0,
                tick_stride: 6,
                obs_tick_secs: 0,
                accuracy: None,
            };
            config.scheduler.policy = policy;
            let source = || -> Box<dyn P95Source> {
                match policy {
                    PolicyKind::RcInformedSoft => Box::new(OracleSource),
                    _ => Box::new(NoSource),
                }
            };
            let window = (Timestamp::ZERO, Timestamp::from_days(18));
            let fast = simulate(&reqs, &config, source(), window);
            let reference = simulate_reference(&reqs, &config, source(), window);
            assert_reports_match(&fast, &reference);
        }
    }

    #[test]
    fn partitioned_simulation_is_worker_count_invariant() {
        let reqs = requests();
        let n = suggest_server_count(&reqs, 16.0, 0.95).div_ceil(4);
        let config = SimConfig {
            n_servers: n,
            cores_per_server: 16.0,
            memory_per_server_gb: 112.0,
            scheduler: SchedulerConfig::new(PolicyKind::RcInformedSoft),
            util_shift: 0.0,
            tick_stride: 6,
            obs_tick_secs: OBS_TICK_DAILY,
            accuracy: None,
        };
        let make = || Box::new(OracleSource) as Box<dyn P95Source>;
        let window = (Timestamp::ZERO, Timestamp::from_days(18));
        let serial = simulate_partitioned(&reqs, &config, &make, window, 4, 1);
        let parallel = simulate_partitioned(&reqs, &config, &make, window, 4, 4);
        assert_eq!(serial.n_arrivals, reqs.len() as u64);
        assert_eq!(serial.n_servers, 4 * n as u64);
        let a = serde_json::to_vec(&serial).unwrap();
        let b = serde_json::to_vec(&parallel).unwrap();
        assert_eq!(a, b, "merged report must not depend on worker count");
    }

    #[test]
    fn zero_event_ticks_read_constant_aggregates() {
        // Between events the slot-independent aggregates come from the
        // fleet's incremental sums: reading them repeatedly is O(1),
        // changes nothing, and matches a full recomputation.
        let reqs = requests();
        let n = suggest_server_count(&reqs, 16.0, 0.95);
        let mut scheduler = Scheduler::new(
            n,
            16.0,
            112.0,
            SchedulerConfig::new(PolicyKind::RcInformedSoft),
            Box::new(OracleSource),
        );
        for req in reqs.iter().take(500) {
            let _ = scheduler.schedule(req);
        }
        let first = (
            scheduler.total_alloc_cores(),
            scheduler.busy_servers(),
            scheduler.fleet.oversubscribable_servers(),
        );
        let second = (
            scheduler.total_alloc_cores(),
            scheduler.busy_servers(),
            scheduler.fleet.oversubscribable_servers(),
        );
        assert_eq!(first, second);
        let (alloc, busy, oversub) = scheduler.fleet.recompute_aggregates();
        assert!((first.0 - alloc).abs() < 1e-9);
        assert_eq!(first.1, busy);
        assert_eq!(first.2, oversub);
    }

    #[test]
    fn slab_key_is_identity_in_range() {
        assert_eq!(slab_key(0), 0);
        assert_eq!(slab_key(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    fn slab_key_fails_loudly_past_u32() {
        let _ = slab_key(u32::MAX as usize + 1);
    }

    #[test]
    fn baseline_never_exceeds_physical_capacity() {
        let reqs = requests();
        let n = suggest_server_count(&reqs, 16.0, 1.0);
        let report = run(PolicyKind::Baseline, n, &reqs);
        assert_eq!(report.readings_above_100, 0);
        assert!(report.total_readings > 0);
    }

    #[test]
    fn tight_baseline_fails_some_arrivals() {
        let reqs = requests();
        let n = suggest_server_count(&reqs, 16.0, 0.80);
        let report = run(PolicyKind::Baseline, n, &reqs);
        assert!(report.n_failures > 0, "headroom 0.8 should cause failures");
    }

    #[test]
    fn oversubscription_adds_capacity_for_nonprod_workloads() {
        // Controlled stream: 60 concurrent low-P95 non-production VMs of 4
        // cores against 10 16-core servers. Baseline capacity is 40
        // concurrent VMs; the 125% allocation cap admits 50. No grouping
        // waste (single kind), so RC-informed must strictly beat Baseline.
        use rc_core::ClientInputs;
        use rc_trace::UtilParams;
        use rc_types::vm::{OsType, Party, ProdTag, SubscriptionId, VmId, VmRole};
        let reqs: Vec<VmRequest> = (0..60u64)
            .map(|i| VmRequest {
                vm_id: VmId(i),
                cores: 4,
                memory_gb: 4.0,
                prod: ProdTag::NonProduction,
                created: Timestamp::from_secs(i),
                deleted: Timestamp::from_days(1),
                util: UtilParams::creation_test(i),
                inputs: ClientInputs {
                    subscription: SubscriptionId(0),
                    party: Party::First,
                    role: VmRole::Iaas,
                    prod: ProdTag::NonProduction,
                    os: OsType::Linux,
                    sku_index: 2,
                    deployment_time: Timestamp::from_secs(i),
                    deployment_size_hint: 1,
                    service: None,
                },
                true_p95_bucket: 0,
            })
            .collect();
        let base = {
            let config = SimConfig {
                n_servers: 10,
                cores_per_server: 16.0,
                memory_per_server_gb: 112.0,
                scheduler: SchedulerConfig::new(PolicyKind::Baseline),
                util_shift: 0.0,
                tick_stride: 6,
                obs_tick_secs: OBS_TICK_DAILY,
                accuracy: None,
            };
            simulate(&reqs, &config, Box::new(NoSource), (Timestamp::ZERO, Timestamp::from_days(1)))
        };
        let rc = {
            let config = SimConfig {
                n_servers: 10,
                cores_per_server: 16.0,
                memory_per_server_gb: 112.0,
                scheduler: SchedulerConfig::new(PolicyKind::RcInformedSoft),
                util_shift: 0.0,
                tick_stride: 6,
                obs_tick_secs: OBS_TICK_DAILY,
                accuracy: None,
            };
            simulate(
                &reqs,
                &config,
                Box::new(OracleSource),
                (Timestamp::ZERO, Timestamp::from_days(1)),
            )
        };
        assert_eq!(base.n_failures, 20);
        assert_eq!(rc.n_failures, 10, "oversubscription admits 10 more VMs");
    }

    #[test]
    fn rc_failure_rate_is_comparable_to_baseline_on_traces() {
        // At trace scale the prod/non-prod segregation wastes some
        // capacity while oversubscription adds some back; on a small
        // cluster the net effect is noisy, so only sanity-bound it here.
        // The full §6.2 comparison runs at paper scale in the bench
        // harness.
        let reqs = requests();
        let n = suggest_server_count(&reqs, 16.0, 0.95);
        let base = run(PolicyKind::Baseline, n, &reqs);
        let rc = run(PolicyKind::RcInformedSoft, n, &reqs);
        assert!(
            rc.failure_rate() <= base.failure_rate() * 2.0 + 0.01,
            "RC {} vs baseline {}",
            rc.failure_rate(),
            base.failure_rate()
        );
    }

    #[test]
    fn wrong_predictions_hurt_utilization_control() {
        let reqs = requests();
        let n = suggest_server_count(&reqs, 16.0, 0.95);
        let mut config = SimConfig {
            n_servers: n,
            cores_per_server: 16.0,
            memory_per_server_gb: 112.0,
            scheduler: SchedulerConfig::new(PolicyKind::RcInformedSoft),
            util_shift: 0.0,
            tick_stride: 6,
            obs_tick_secs: OBS_TICK_DAILY,
            accuracy: None,
        };
        let right = simulate(
            &reqs,
            &config,
            Box::new(OracleSource),
            (Timestamp::ZERO, Timestamp::from_days(18)),
        );
        config.scheduler = SchedulerConfig::new(PolicyKind::RcInformedSoft);
        let wrong = simulate(
            &reqs,
            &config,
            Box::new(WrongSource),
            (Timestamp::ZERO, Timestamp::from_days(18)),
        );
        assert!(
            wrong.readings_above_100 >= right.readings_above_100,
            "wrong {} vs right {}",
            wrong.readings_above_100,
            right.readings_above_100
        );
    }

    #[test]
    fn report_accounting_is_consistent() {
        let reqs = requests();
        let n = suggest_server_count(&reqs, 16.0, 0.95);
        let report = run(PolicyKind::NaiveOversub, n, &reqs);
        assert_eq!(report.n_arrivals, reqs.len() as u64);
        assert_eq!(report.n_servers, n as u64);
        assert!(report.n_failures <= report.n_arrivals);
        assert!(report.readings_above_100 <= report.total_readings);
        assert!(report.mean_util_fraction <= report.mean_alloc_fraction + 1e-9);
        assert!(report.failure_rate() <= 1.0);
        assert!(report.peak_live_vms <= report.n_arrivals);
    }

    #[test]
    fn merge_sums_counts_and_weights_means() {
        let reqs = requests();
        let n = suggest_server_count(&reqs, 16.0, 0.95);
        let solo = run(PolicyKind::Baseline, n, &reqs);
        let merged = SimReport::merge(&[solo.clone(), solo.clone()]);
        assert_eq!(merged.n_arrivals, 2 * solo.n_arrivals);
        assert_eq!(merged.n_servers, 2 * solo.n_servers);
        assert_eq!(merged.total_readings, 2 * solo.total_readings);
        assert!((merged.mean_alloc_fraction - solo.mean_alloc_fraction).abs() < 1e-12);
        assert!(
            (merged.mean_oversubscribable_servers - 2.0 * solo.mean_oversubscribable_servers).abs()
                < 1e-9
        );
    }

    #[test]
    fn suggest_server_count_scales_with_headroom() {
        let reqs = requests();
        let tight = suggest_server_count(&reqs, 16.0, 0.8);
        let roomy = suggest_server_count(&reqs, 16.0, 1.2);
        assert!(tight < roomy);
        assert!(tight >= 1);
    }
}
