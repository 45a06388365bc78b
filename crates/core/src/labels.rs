//! Label extraction: turning raw telemetry into training examples.
//!
//! This is the "data extraction, cleanup, aggregation" front of the
//! offline workflow (§4.2). Every VM yields observed buckets for the
//! utilization and lifetime metrics; VMs alive for at least three days
//! also get an FFT workload-class label (§3.6); every deployment yields
//! max-size labels.

use rc_ml::fft::{PeriodicityConfig, PeriodicityDetector};
use rc_trace::{DeploymentRecord, Trace};
use rc_types::buckets::{
    Bucketizer, DeploymentSizeBucketizer, LifetimeBucketizer, UtilizationBucketizer,
};
use rc_types::telemetry::VmRecord;
use rc_types::vm::{OsType, VmId};

use crate::features::{DeploymentObservation, VmObservation};
use crate::inputs::ClientInputs;

pub use rc_trace::{CLASSIFY_MAX_DAYS, CLASSIFY_MIN_DAYS};

/// One labelled VM example.
#[derive(Debug, Clone)]
pub struct LabeledVm {
    /// The VM this example describes.
    pub vm_id: VmId,
    /// Client inputs as the scheduler would have seen them at creation.
    pub inputs: ClientInputs,
    /// Observed behaviour (the labels).
    pub obs: VmObservation,
    /// Completion time in seconds (when the observation becomes usable as
    /// history).
    pub completed_secs: u64,
}

/// One labelled deployment example.
#[derive(Debug, Clone)]
pub struct LabeledDeployment {
    /// Client inputs at deployment-creation time. The deployment-size
    /// models must predict the eventual size, so `deployment_size_hint`
    /// is fixed at 1 here (using the real size would leak the label).
    pub inputs: ClientInputs,
    /// Observed size buckets.
    pub obs: DeploymentObservation,
    /// Time at which the deployment's maximum size is known.
    pub completed_secs: u64,
}

/// Labelled VM examples in creation order, each extracted when the
/// iterator reaches it: a consumer that scores a prefix of the window pays
/// for that prefix.
///
/// `max_util_samples` bounds the telemetry read per VM when summarizing
/// utilization (long-lived VMs are strided). The iterator owns the
/// extraction's working memory — the sampled maxima and the FFT
/// detector's plan and buffers — and reuses it from VM to VM.
pub fn labels(trace: &Trace, max_util_samples: usize) -> impl Iterator<Item = LabeledVm> + '_ {
    let util_b = UtilizationBucketizer;
    let life_b = LifetimeBucketizer;
    let mut detector = PeriodicityDetector::new(PeriodicityConfig::default());
    let mut maxes = Vec::new();
    trace.vm_ids().map(move |id| {
        let vm = trace.vm(id);
        // VMs shorter than one telemetry interval still get labelled:
        // `summarize_with` falls back to the model's targets when the
        // slot range is empty (a sub-5-minute VM has one partial reading
        // in production; its parameters are the best estimate of it).
        let (first_slot, last_slot) = trace.vm_slots(id);
        let (avg, p95) = trace.util_params(id).summarize_with(
            first_slot,
            last_slot,
            max_util_samples,
            &mut maxes,
        );
        let lifetime = vm.lifetime();
        LabeledVm {
            vm_id: id,
            inputs: vm_inputs(trace, id),
            obs: VmObservation {
                created_secs: vm.created.as_secs(),
                avg_bucket: util_b.bucket(&avg),
                p95_bucket: util_b.bucket(&p95),
                lifetime_bucket: life_b.bucket(&lifetime),
                class: classify_vm(trace, id, &mut detector),
                cores: vm.sku.cores,
                memory_gb: vm.sku.memory_gb,
                os_windows: vm.os == OsType::Windows,
                avg_util: avg,
                p95_util: p95,
                lifetime_secs: lifetime.as_secs(),
            },
            completed_secs: vm.deleted.as_secs(),
        }
    })
}

/// Extracts every labelled VM example, sorted by creation time; see
/// [`labels`].
pub fn label_vms(trace: &Trace, max_util_samples: usize) -> Vec<LabeledVm> {
    labels(trace, max_util_samples).collect()
}

/// [`Trace::workload_class`] as the class model's label: `Some(0)` for
/// delay-insensitive, `Some(1)` for interactive, `None` ("Unknown") when
/// the VM was observed for less than [`CLASSIFY_MIN_DAYS`].
pub fn classify_vm(trace: &Trace, id: VmId, detector: &mut PeriodicityDetector) -> Option<usize> {
    trace.workload_class(id, detector).map(usize::from)
}

/// The client inputs a scheduler would pass when placing this VM.
pub fn vm_inputs(trace: &Trace, id: VmId) -> ClientInputs {
    let vm = trace.vm(id);
    let dep = &trace.deployments[vm.deployment.0 as usize];
    record_inputs(vm, dep, trace.subscription_of(id).service)
}

/// The client inputs for placing `vm`, a VM of `deployment` whose
/// subscription's top service is `service` — the one construction behind
/// [`vm_inputs`] and the scheduler's streamed requests.
pub fn record_inputs(
    vm: &VmRecord,
    deployment: &DeploymentRecord,
    service: Option<u8>,
) -> ClientInputs {
    ClientInputs {
        subscription: vm.subscription,
        party: vm.party,
        role: vm.role,
        prod: vm.prod,
        os: vm.os,
        sku_index: vm.sku.catalog_index(),
        deployment_time: vm.created,
        // The scheduler knows the requested deployment size when placing
        // VMs (the deployment request names its VMs).
        deployment_size_hint: deployment.n_vms,
        service,
    }
}

/// Extracts labelled deployment examples, sorted by creation time.
pub fn label_deployments(trace: &Trace) -> Vec<LabeledDeployment> {
    let size_b = DeploymentSizeBucketizer;
    let mut out: Vec<LabeledDeployment> = trace
        .deployments
        .iter()
        .map(|dep| {
            let sub = &trace.subscriptions[dep.subscription.0 as usize];
            let inputs = ClientInputs {
                subscription: dep.subscription,
                party: sub.party,
                role: sub.primary_role,
                prod: sub.prod,
                os: sub.os,
                sku_index: sub.primary_sku,
                deployment_time: dep.created,
                deployment_size_hint: 1,
                service: sub.service,
            };
            LabeledDeployment {
                inputs,
                obs: DeploymentObservation {
                    created_secs: dep.created.as_secs(),
                    vms_bucket: size_b.bucket(&(dep.n_vms as u64)),
                    cores_bucket: size_b.bucket(&(dep.n_cores as u64)),
                    n_vms: dep.n_vms as u64,
                },
                // The deployment's maximum size is known once its growth
                // window (one day) has passed.
                completed_secs: dep.created.as_secs() + 86_400,
            }
        })
        .collect();
    out.sort_by_key(|d| d.obs.created_secs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_trace::TraceConfig;

    fn trace() -> Trace {
        Trace::generate(&TraceConfig {
            target_vms: 4_000,
            n_subscriptions: 200,
            days: 25,
            ..TraceConfig::small()
        })
    }

    #[test]
    fn labels_cover_nearly_all_vms() {
        let t = trace();
        let labels = label_vms(&t, 200);
        assert_eq!(labels.len(), t.n_vms(), "every VM gets a label");
        for w in labels.windows(2) {
            assert!(w[0].obs.created_secs <= w[1].obs.created_secs);
        }
    }

    #[test]
    fn observed_buckets_are_consistent() {
        let t = trace();
        for l in label_vms(&t, 200).iter().take(500) {
            assert!(l.obs.p95_bucket >= l.obs.avg_bucket, "p95 >= avg bucket");
            assert!(l.obs.avg_bucket < 4 && l.obs.lifetime_bucket < 4);
            assert!(l.completed_secs >= l.obs.created_secs);
        }
    }

    #[test]
    fn short_vms_are_unclassified() {
        let t = trace();
        for l in label_vms(&t, 200) {
            if (l.obs.lifetime_secs as f64) < CLASSIFY_MIN_DAYS * 86_400.0 {
                assert_eq!(l.obs.class, None);
            }
        }
    }

    #[test]
    fn a_prefix_of_the_iterator_is_a_prefix_of_the_vector_and_extracts_nothing_else() {
        let mut t = trace();
        let all = label_vms(&t, 200);
        let n = 700;
        assert!(all[..n].iter().any(|l| l.obs.class.is_some()), "the prefix reaches the FFT");
        // Past the prefix, every VM's utilization model is poison:
        // summarizing one panics (`expect("finite utils")` at the latest),
        // so getting through `take(n)` shows none of them was touched.
        for util in &mut t.util[n..] {
            util.base = f64::NAN;
            util.p95_level = f64::NAN;
        }
        let prefix: Vec<LabeledVm> = labels(&t, 200).take(n).collect();
        assert_eq!(format!("{prefix:?}"), format!("{:?}", &all[..n]));
        let past = std::panic::catch_unwind(|| labels(&t, 200).skip(n).for_each(drop));
        assert!(past.is_err(), "a poisoned VM does panic when it is reached");
    }

    #[test]
    fn interactive_intent_mostly_matches_fft_labels() {
        // The FFT classifier should recover the generator's intent for
        // long-running VMs (validating §3.6's methodology end to end).
        let t = trace();
        let labels = label_vms(&t, 200);
        let mut agree = 0usize;
        let mut total = 0usize;
        for l in &labels {
            if let Some(class) = l.obs.class {
                let intent = usize::from(t.interactive_intent[l.vm_id.0 as usize]);
                total += 1;
                if class == intent {
                    agree += 1;
                }
            }
        }
        assert!(total > 20, "need some classified VMs, got {total}");
        assert!(agree as f64 / total as f64 > 0.85, "FFT agrees with intent on {agree}/{total}");
    }

    #[test]
    fn deployment_labels_match_records() {
        let t = trace();
        let labels = label_deployments(&t);
        assert_eq!(labels.len(), t.deployments.len());
        for l in labels.iter().take(300) {
            assert_eq!(l.inputs.deployment_size_hint, 1, "no label leakage");
            assert!(l.obs.vms_bucket < 4 && l.obs.cores_bucket < 4);
        }
    }
}
