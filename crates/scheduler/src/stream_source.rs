//! Streaming request source: [`VmRequest`]s straight from a trace
//! stream, without materializing the trace.
//!
//! [`StreamRequestSource`] is the one place VM records become scheduler
//! requests: it applies the window, VM-size and deployment-size filters
//! and derives each request's [`rc_core::ClientInputs`] and oracle P95
//! bucket from [`StreamedVm`]s as they arrive, so a million-arrival
//! simulation never holds more than the live-VM working set.
//! [`VmRequest::stream_filtered`] runs it over a materialized trace's
//! records. Over a [`VmStream`] the requests come out sorted by
//! `(created, vm_id)`, the order [`crate::simulate_stream`] requires,
//! because the stream assigns VM ids in creation order.

use rc_trace::{StreamedVm, VmStream};
use rc_types::buckets::{Bucketizer, UtilizationBucketizer};
use rc_types::time::{Timestamp, TELEMETRY_INTERVAL};

use crate::request::VmRequest;

/// Adapts a stream of generated VMs into scheduler requests.
pub struct StreamRequestSource<I> {
    inner: I,
    /// Per-subscription top service id, indexed by `SubscriptionId`.
    services: Vec<Option<u8>>,
    window_end: Timestamp,
    from: Timestamp,
    until: Timestamp,
    max_cores: u32,
    max_deployment_cores: Option<u32>,
}

impl StreamRequestSource<VmStream> {
    /// Wraps a [`VmStream`] with the filters of
    /// [`VmRequest::stream_filtered`].
    pub fn new(
        stream: VmStream,
        from: Timestamp,
        until: Timestamp,
        max_cores: u32,
        max_deployment_cores: Option<u32>,
    ) -> Self {
        let services = stream.subscriptions().iter().map(|s| s.service).collect();
        let window_end = stream.window_end();
        Self::from_parts(stream, services, window_end, from, until, max_cores, max_deployment_cores)
    }
}

impl<I> StreamRequestSource<I> {
    /// Wraps any stream of [`StreamedVm`]s; `services` maps subscription
    /// index → top service id and `window_end` bounds the observed
    /// utilization summary (both come from the trace config).
    pub(crate) fn from_parts(
        inner: I,
        services: Vec<Option<u8>>,
        window_end: Timestamp,
        from: Timestamp,
        until: Timestamp,
        max_cores: u32,
        max_deployment_cores: Option<u32>,
    ) -> Self {
        StreamRequestSource {
            inner,
            services,
            window_end,
            from,
            until,
            max_cores,
            max_deployment_cores,
        }
    }
}

impl<I: Iterator<Item = StreamedVm>> Iterator for StreamRequestSource<I> {
    type Item = VmRequest;

    fn next(&mut self) -> Option<VmRequest> {
        loop {
            let vm = self.inner.next()?;
            let rec = &vm.record;
            if rec.created < self.from
                || rec.created >= self.until
                || rec.sku.cores > self.max_cores
                || self.max_deployment_cores.is_some_and(|cap| vm.deployment.n_cores > cap)
            {
                continue;
            }
            // Observed-lifetime P95 over `Trace::vm_slots`' range: slots
            // clipped to the observation window, subsampled to 120.
            let step = TELEMETRY_INTERVAL.as_secs();
            let first = rec.created.as_secs().div_ceil(step);
            let last = (rec.deleted.min(self.window_end).as_secs() / step).max(first);
            let (_, p95) = vm.util.summarize(first, last, 120);
            let service = self.services.get(rec.subscription.0 as usize).copied().flatten();
            return Some(VmRequest {
                vm_id: rec.vm_id,
                cores: rec.sku.cores,
                memory_gb: rec.sku.memory_gb,
                prod: rec.prod,
                created: rec.created,
                deleted: rec.deleted,
                util: vm.util,
                inputs: rc_core::labels::record_inputs(rec, &vm.deployment, service),
                true_p95_bucket: UtilizationBucketizer.bucket(&p95),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_trace::TraceConfig;

    fn config() -> TraceConfig {
        TraceConfig { target_vms: 3_000, n_subscriptions: 150, days: 14, ..TraceConfig::small() }
    }

    #[test]
    fn window_filters_apply_to_streamed_requests() {
        let config = config();
        let from = Timestamp::from_days(3);
        let until = Timestamp::from_days(10);
        let reqs: Vec<VmRequest> =
            StreamRequestSource::new(VmStream::new(&config), from, until, 8, None).collect();
        assert!(!reqs.is_empty());
        for r in &reqs {
            assert!(r.created >= from && r.created < until);
            assert!(r.cores <= 8);
        }
        for w in reqs.windows(2) {
            assert!((w[0].created, w[0].vm_id) <= (w[1].created, w[1].vm_id));
        }
    }
}
