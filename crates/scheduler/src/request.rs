//! Scheduling requests: one per VM arrival.

use rc_core::ClientInputs;
use rc_trace::{StreamedVm, Trace, UtilParams};
use rc_types::time::Timestamp;
use rc_types::vm::{ProdTag, VmId};

use crate::stream_source::StreamRequestSource;

/// Everything the scheduler knows (and the simulator needs) about one VM
/// arrival.
#[derive(Debug, Clone, Copy)]
pub struct VmRequest {
    /// The VM being placed.
    pub vm_id: VmId,
    /// Requested cores (`V.alloc` in Algorithm 1).
    pub cores: u32,
    /// Requested memory in GB.
    pub memory_gb: f64,
    /// Production annotation (`V.type` in Algorithm 1).
    pub prod: ProdTag,
    /// Arrival time.
    pub created: Timestamp,
    /// Completion time.
    pub deleted: Timestamp,
    /// The utilization model driving the simulator's aggregation.
    pub util: UtilParams,
    /// Client inputs passed to Resource Central.
    pub inputs: ClientInputs,
    /// Oracle 95th-percentile utilization bucket (for the RC-soft-right /
    /// RC-soft-wrong comparisons; the real policies never read it).
    pub true_p95_bucket: usize,
}

impl VmRequest {
    /// Builds the request stream for every VM created in
    /// `[from, until)`, sorted by arrival time, skipping VMs too large for
    /// `max_cores` (cluster selection would never send those here).
    pub fn stream(
        trace: &Trace,
        from: Timestamp,
        until: Timestamp,
        max_cores: u32,
    ) -> Vec<VmRequest> {
        Self::stream_filtered(trace, from, until, max_cores, None)
    }

    /// Like [`VmRequest::stream`], additionally dropping every VM of a
    /// deployment whose total core request exceeds
    /// `max_deployment_cores`.
    ///
    /// A deployment "needs to fit" within one cluster (§3); the cluster
    /// selection system routes groups that cannot fit to larger clusters,
    /// so a cluster-level simulation should never see them.
    ///
    /// Runs [`StreamRequestSource`] over the trace's records.
    ///
    /// # Panics
    ///
    /// Panics when a VM names a deployment missing from the trace's table
    /// (an orphan left by [`rc_trace::DirtyPlan`]; clean it first).
    pub fn stream_filtered(
        trace: &Trace,
        from: Timestamp,
        until: Timestamp,
        max_cores: u32,
        max_deployment_cores: Option<u32>,
    ) -> Vec<VmRequest> {
        let records = trace.vm_ids().map(|id| {
            let record = trace.vm(id).clone();
            StreamedVm {
                util: *trace.util_params(id),
                interactive: trace.interactive_intent[id.0 as usize],
                deployment: trace.deployments[record.deployment.0 as usize].clone(),
                record,
            }
        });
        let services = trace.subscriptions.iter().map(|s| s.service).collect();
        let mut out: Vec<VmRequest> = StreamRequestSource::from_parts(
            records,
            services,
            trace.window_end(),
            from,
            until,
            max_cores,
            max_deployment_cores,
        )
        .collect();
        // `trace.vms` is creation-sorted already, but make it a guarantee.
        out.sort_by_key(|r| (r.created, r.vm_id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_trace::TraceConfig;

    #[test]
    fn stream_is_sorted_filtered_and_windowed() {
        let trace = Trace::generate(&TraceConfig {
            target_vms: 3_000,
            n_subscriptions: 150,
            days: 20,
            ..TraceConfig::small()
        });
        let from = Timestamp::from_days(5);
        let until = Timestamp::from_days(15);
        let reqs = VmRequest::stream(&trace, from, until, 16);
        assert!(!reqs.is_empty());
        for r in &reqs {
            assert!(r.created >= from && r.created < until);
            assert!(r.cores <= 16);
            assert!(r.deleted > r.created);
        }
        for w in reqs.windows(2) {
            assert!(w[0].created <= w[1].created);
        }
    }
}
