//! Pull-based trace generation: the one generator behind every trace.
//!
//! [`VmStream`] produces VMs lazily: each subscription owns two private
//! RNG streams (arrivals and VM bodies, see `generator::sub_stream_rngs`),
//! so the stream can expand one deployment at a time and merge
//! subscriptions by creation time with a bounded pending buffer instead
//! of a full sort. [`Trace::generate`] is this stream drained into
//! arrays ([`VmStream::collect_trace`]), and [`DirtyVmStream`] runs the
//! same corruption driver as [`crate::DirtyPlan::apply`].
//!
//! # Order
//!
//! The merge emits VMs sorted by `(created, subscription, deployment,
//! vm-within-deployment)` and numbers them densely in that order, so a
//! trace's `vms[i]` has `VmId(i)`. Golden digests of the generated and
//! dirtied traces (`tests/streaming.rs`) pin the output bit for bit.
//!
//! # Memory
//!
//! A VM enters the pending heap when its deployment's arrival crosses the
//! merge watermark and leaves when emitted; creation jitter spreads a
//! deployment's VMs over at most a day, so the buffer holds ~a day of
//! arrivals regardless of trace length ([`VmStream::peak_pending`]
//! reports the high-water mark).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;

use rc_types::telemetry::VmRecord;
use rc_types::time::{Duration, Timestamp};
use rc_types::vm::{DeploymentId, VmId};

use crate::arrival::{ArrivalIter, ArrivalProcess};
use crate::dirty::{Corruptible, Corruption, DirtyPlan, DirtyReport};
use crate::generator::{
    generate_deployment, sample_profiles, sub_stream_rngs, subscription_scales, TraceConfig,
};
use crate::profile::SubscriptionProfile;
use crate::trace::{DeploymentRecord, Trace};
use crate::utilization::UtilParams;

/// One VM pulled from a [`VmStream`], with its deployment's summary
/// record attached (the streaming consumer has no deployment table to
/// index into).
#[derive(Debug, Clone)]
pub struct StreamedVm {
    /// The VM record, with its final dense [`VmId`] assigned.
    pub record: VmRecord,
    /// The VM's utilization model.
    pub util: UtilParams,
    /// Generator intent: interactive workload? (test oracle only).
    pub interactive: bool,
    /// The owning deployment's summary record.
    pub deployment: DeploymentRecord,
}

impl StreamedVm {
    /// Splits the VM into the elements of a trace's parallel arrays.
    fn into_columns(self) -> ((VmRecord, UtilParams), bool) {
        ((self.record, self.util), self.interactive)
    }
}

impl Corruptible for StreamedVm {
    fn parts_mut(&mut self) -> (&mut VmRecord, &mut UtilParams) {
        (&mut self.record, &mut self.util)
    }
}

/// A trace's deployment table, filled from the clean VMs streaming past.
struct DeploymentTable(Vec<Option<DeploymentRecord>>);

impl DeploymentTable {
    fn new(n_deployments: u64) -> Self {
        DeploymentTable(vec![None; n_deployments as usize])
    }

    fn observe(&mut self, vm: &StreamedVm) {
        self.0[vm.deployment.id.0 as usize].get_or_insert_with(|| vm.deployment.clone());
    }

    fn finish(self) -> Vec<DeploymentRecord> {
        self.0.into_iter().map(|d| d.expect("every deployment has at least one VM")).collect()
    }
}

/// One subscription's lazy generation state.
struct SubStream {
    arrivals: ArrivalIter<StdRng>,
    body_rng: StdRng,
    next_arrival: Option<Timestamp>,
    /// Subscription-local index of the next deployment to expand.
    next_dep: u64,
    /// Global id of this subscription's first deployment (prefix sum of
    /// arrival counts, so ids are dense and subscription-major).
    dep_id_base: u64,
}

/// A VM waiting in the merge buffer, ordered by its emission key.
struct PendingVm {
    /// `(created secs, subscription, local deployment index, vm index)`.
    key: (u64, u32, u64, u32),
    vm: StreamedVm,
}

impl PartialEq for PendingVm {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for PendingVm {}
impl PartialOrd for PendingVm {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingVm {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// The lazy trace generator; see the module docs.
pub struct VmStream {
    config: TraceConfig,
    subscriptions: Vec<SubscriptionProfile>,
    streams: Vec<SubStream>,
    /// Streams with a pending arrival, keyed by `(arrival secs, sub)`.
    open: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    pending: BinaryHeap<PendingVm>,
    next_vm_id: u64,
    n_deployments: u64,
    peak_pending: usize,
}

impl VmStream {
    /// Builds the stream: samples profiles from the master RNG, then runs
    /// a cheap counting pass over every subscription's arrival schedule
    /// (a clone of its arrival RNG) to pre-assign dense global
    /// deployment ids, subscription-major and in arrival order.
    pub fn new(config: &TraceConfig) -> VmStream {
        let subscriptions = sample_profiles(config);
        let scales = subscription_scales(config, &subscriptions);

        let mut streams = Vec::with_capacity(subscriptions.len());
        let mut open = BinaryHeap::with_capacity(subscriptions.len());
        let mut dep_id_base = 0u64;
        for sub in &subscriptions {
            let scale = scales[sub.id.0 as usize];
            let proc = ArrivalProcess::new(sub.deployment_rate_per_day * scale);
            let (arrival_rng, body_rng) = sub_stream_rngs(config.seed, sub.id);
            let n_arrivals =
                proc.iter(arrival_rng.clone(), sub.active_from, sub.active_until).count() as u64;
            let mut arrivals = proc.iter(arrival_rng, sub.active_from, sub.active_until);
            let next_arrival = arrivals.next();
            if let Some(t) = next_arrival {
                open.push(std::cmp::Reverse((t.as_secs(), sub.id.0)));
            }
            streams.push(SubStream { arrivals, body_rng, next_arrival, next_dep: 0, dep_id_base });
            dep_id_base += n_arrivals;
        }

        VmStream {
            config: config.clone(),
            subscriptions,
            streams,
            open,
            pending: BinaryHeap::new(),
            next_vm_id: 0,
            n_deployments: dep_id_base,
            peak_pending: 0,
        }
    }

    /// The configuration this stream generates.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The subscription profiles, indexed by `SubscriptionId`.
    pub fn subscriptions(&self) -> &[SubscriptionProfile] {
        &self.subscriptions
    }

    /// Total number of deployments the stream will produce (known upfront
    /// from the counting pass).
    pub fn n_deployments(&self) -> u64 {
        self.n_deployments
    }

    /// End of the observation window.
    pub fn window_end(&self) -> Timestamp {
        Timestamp::ZERO + Duration::from_days(self.config.days as u64)
    }

    /// High-water mark of the pending merge buffer — the stream's peak
    /// per-VM memory footprint.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Expands one deployment of subscription `s` into the pending buffer.
    fn expand(&mut self, s: u32) {
        let stream = &mut self.streams[s as usize];
        let deploy_time = stream.next_arrival.take().expect("open stream has an arrival");
        let dep_idx = stream.next_dep;
        stream.next_dep += 1;
        let dep_id = DeploymentId(stream.dep_id_base + dep_idx);
        let vms = generate_deployment(
            &self.subscriptions[s as usize],
            dep_id,
            deploy_time,
            self.config.n_regions,
            &mut stream.body_rng,
        );
        for (k, vm) in vms.into_iter().enumerate() {
            let key = (vm.record.created.as_secs(), s, dep_idx, k as u32);
            self.pending.push(PendingVm { key, vm });
        }
        self.peak_pending = self.peak_pending.max(self.pending.len());
        stream.next_arrival = stream.arrivals.next();
        if let Some(t) = stream.next_arrival {
            self.open.push(std::cmp::Reverse((t.as_secs(), s)));
        }
    }

    /// Drains the stream into a materialized [`Trace`] (what
    /// [`Trace::generate`] returns). At scale, consume the iterator.
    pub fn collect_trace(mut self) -> Trace {
        let mut deployments = DeploymentTable::new(self.n_deployments);
        let ((vms, util), interactive_intent) = self
            .by_ref()
            .inspect(|svm| deployments.observe(svm))
            .map(StreamedVm::into_columns)
            .unzip();
        Trace {
            config: self.config,
            subscriptions: self.subscriptions,
            vms,
            util,
            interactive_intent,
            deployments: deployments.finish(),
        }
    }
}

impl Iterator for VmStream {
    type Item = StreamedVm;

    fn next(&mut self) -> Option<StreamedVm> {
        loop {
            // Watermark rule: as long as some stream's next arrival is at
            // or before the earliest pending VM's creation second, a
            // not-yet-expanded deployment could still owe a VM that sorts
            // first (creation jitter is non-negative, and ties break by
            // subscription-major insertion order) — expand it. Once every
            // open arrival is strictly later, the earliest pending VM is
            // globally next.
            let watermark = self.pending.peek().map(|p| p.key.0);
            match self.open.peek() {
                Some(&std::cmp::Reverse((t, s))) if watermark.is_none_or(|w| t <= w) => {
                    self.open.pop();
                    self.expand(s);
                }
                _ => {
                    let mut vm = self.pending.pop()?.vm;
                    vm.record.vm_id = VmId(self.next_vm_id);
                    self.next_vm_id += 1;
                    return Some(vm);
                }
            }
        }
    }
}

/// A [`VmStream`] corrupted on the fly by a [`DirtyPlan`]: the same
/// record-by-record driver as [`DirtyPlan::apply`], fed by the generator
/// instead of a materialized trace.
///
/// Duplicated records replay *after* the clean stream ends; the buffer
/// holding them is the one part of this adapter whose memory scales with
/// the duplicate count rather than the watermark.
pub struct DirtyVmStream {
    inner: VmStream,
    corruption: Corruption<StreamedVm>,
    /// The *clean* deployment table, observed before corruption — a
    /// deployment stays listed even when drops eat all its VMs, and
    /// orphan corruption re-points only `record.deployment`.
    deployments: DeploymentTable,
}

impl DirtyVmStream {
    /// Builds the corrupted stream.
    pub fn new(config: &TraceConfig, plan: DirtyPlan) -> DirtyVmStream {
        let inner = VmStream::new(config);
        let n_deployments = inner.n_deployments();
        DirtyVmStream {
            inner,
            corruption: Corruption::new(plan, n_deployments),
            deployments: DeploymentTable::new(n_deployments),
        }
    }

    /// Per-category corruption counts so far (exact and final once the
    /// stream is exhausted).
    pub fn report(&self) -> DirtyReport {
        self.corruption.report()
    }

    /// Drains into a materialized dirty trace plus its report — equal to
    /// `plan.apply(&Trace::generate(config))`.
    pub fn collect_trace(mut self) -> (Trace, DirtyReport) {
        let ((vms, util), interactive_intent) = self.by_ref().map(StreamedVm::into_columns).unzip();
        let trace = Trace {
            config: self.inner.config,
            subscriptions: self.inner.subscriptions,
            vms,
            util,
            interactive_intent,
            deployments: self.deployments.finish(),
        };
        (trace, self.corruption.report())
    }
}

impl Iterator for DirtyVmStream {
    type Item = StreamedVm;

    fn next(&mut self) -> Option<StreamedVm> {
        let deployments = &mut self.deployments;
        let mut clean = self.inner.by_ref().inspect(|svm| deployments.observe(svm));
        self.corruption.next_from(&mut clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirty::trace_fingerprint;

    fn test_config() -> TraceConfig {
        TraceConfig { target_vms: 3_000, n_subscriptions: 150, days: 14, ..TraceConfig::small() }
    }

    #[test]
    fn streamed_ids_are_dense_and_sorted() {
        let config = test_config();
        let mut last = Timestamp::ZERO;
        for (i, svm) in VmStream::new(&config).enumerate() {
            assert_eq!(svm.record.vm_id, VmId(i as u64));
            assert!(svm.record.created >= last, "VM {i} out of order");
            last = svm.record.created;
        }
    }

    #[test]
    fn pending_buffer_stays_bounded() {
        // The watermark holds ~a day of arrivals, not the whole trace.
        let config = test_config();
        let mut stream = VmStream::new(&config);
        let n = stream.by_ref().count();
        assert!(n > 1_000, "trace too small to be meaningful: {n}");
        assert!(
            stream.peak_pending() < n / 2,
            "pending peak {} vs {} VMs — watermark is not bounding memory",
            stream.peak_pending(),
            n
        );
    }

    #[test]
    fn clean_dirty_stream_is_identity() {
        let config = test_config();
        let (streamed, report) = DirtyVmStream::new(&config, DirtyPlan::clean(9)).collect_trace();
        assert_eq!(report, DirtyReport::default());
        assert_eq!(trace_fingerprint(&streamed), trace_fingerprint(&Trace::generate(&config)));
    }
}
