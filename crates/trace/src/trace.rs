//! The trace container: every VM, deployment, and utilization model of one
//! synthetic observation window.

use serde::{Deserialize, Serialize};

use rc_ml::fft::PeriodicityDetector;
use rc_types::telemetry::VmRecord;
use rc_types::time::{Duration, Timestamp, TELEMETRY_INTERVAL};
use rc_types::vm::{DeploymentId, RegionId, SubscriptionId, VmId};

use crate::generator::TraceConfig;
use crate::profile::SubscriptionProfile;
use crate::utilization::UtilParams;

/// Days of telemetry required before the FFT classifier will label a VM
/// (§3.6).
pub const CLASSIFY_MIN_DAYS: f64 = 3.0;

/// Maximum days of telemetry fed to the FFT (longer series are truncated;
/// 6 days is plenty to resolve a diurnal peak).
pub const CLASSIFY_MAX_DAYS: f64 = 6.0;

/// One deployment: a group of VMs a subscription creates together in a
/// region (§3.4's day-grouped redefinition is applied by the analysis
/// crate; the generator records the literal groups it created).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeploymentRecord {
    /// Deployment identity.
    pub id: DeploymentId,
    /// Owning subscription.
    pub subscription: SubscriptionId,
    /// Target region.
    pub region: RegionId,
    /// Creation time of the deployment (first VM).
    pub created: Timestamp,
    /// Maximum number of VMs the deployment reaches.
    pub n_vms: u32,
    /// Total cores across those VMs.
    pub n_cores: u32,
}

/// A full synthetic trace.
///
/// `vms[i]` has `VmId(i as u64)`; `util[i]` is its utilization model, and
/// `interactive_intent[i]` records whether the generator *meant* it to be
/// interactive (ground truth for validating the FFT classifier — the
/// production system never sees this).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// The configuration that generated this trace.
    pub config: TraceConfig,
    /// Profiles of every subscription, indexed by `SubscriptionId`.
    pub subscriptions: Vec<SubscriptionProfile>,
    /// Every VM, sorted by creation time; index == `VmId`.
    pub vms: Vec<VmRecord>,
    /// Per-VM utilization models, parallel to `vms`.
    pub util: Vec<UtilParams>,
    /// Generator intent: is VM `i` interactive? (test oracle only).
    pub interactive_intent: Vec<bool>,
    /// Every deployment, indexed by `DeploymentId`.
    pub deployments: Vec<DeploymentRecord>,
}

impl Trace {
    /// Length of the observation window.
    pub fn window(&self) -> Duration {
        Duration::from_days(self.config.days as u64)
    }

    /// End of the observation window.
    pub fn window_end(&self) -> Timestamp {
        Timestamp::ZERO + self.window()
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.vms.len()
    }

    /// The VM record for an id.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn vm(&self, id: VmId) -> &VmRecord {
        &self.vms[id.0 as usize]
    }

    /// The utilization model for a VM id.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn util_params(&self, id: VmId) -> &UtilParams {
        &self.util[id.0 as usize]
    }

    /// The subscription profile backing a VM.
    pub fn subscription_of(&self, id: VmId) -> &SubscriptionProfile {
        &self.subscriptions[self.vm(id).subscription.0 as usize]
    }

    /// First and one-past-last telemetry slots of a VM, clipped to the
    /// observation window.
    pub fn vm_slots(&self, id: VmId) -> (u64, u64) {
        let vm = self.vm(id);
        let step = TELEMETRY_INTERVAL.as_secs();
        let first = vm.created.as_secs().div_ceil(step);
        let end = vm.deleted.min(self.window_end()).as_secs() / step;
        (first, end.max(first))
    }

    /// Observed lifetime summary: `(avg of avg readings, p95 of max
    /// readings)` for a VM, subsampled to at most `max_samples` readings.
    pub fn vm_util_summary(&self, id: VmId, max_samples: usize) -> (f64, f64) {
        let (first, last) = self.vm_slots(id);
        self.util_params(id).summarize(first, last, max_samples)
    }

    /// §3.6's workload class of a VM, from the FFT periodicity analysis of
    /// its average-utilization series: `Some(true)` for (potentially)
    /// interactive, `Some(false)` for delay-insensitive, `None`
    /// ("Unknown") when fewer than [`CLASSIFY_MIN_DAYS`] of it fall inside
    /// the observation window or the detector wants more than it got. The
    /// first [`CLASSIFY_MAX_DAYS`] observed days are analysed.
    pub fn workload_class(&self, id: VmId, detector: &mut PeriodicityDetector) -> Option<bool> {
        let (first_slot, last_slot) = self.vm_slots(id);
        let slot_secs = TELEMETRY_INTERVAL.as_secs() as f64;
        let observed_days = (last_slot - first_slot) as f64 * slot_secs / 86_400.0;
        if observed_days < CLASSIFY_MIN_DAYS {
            return None;
        }
        let max_slots = (CLASSIFY_MAX_DAYS * 86_400.0 / slot_secs) as u64;
        let last_slot = last_slot.min(first_slot + max_slots);
        let params = self.util_params(id);
        let result =
            detector.detect_with(|series| params.avg_series_into(first_slot, last_slot, series));
        result.enough_data.then_some(result.periodic)
    }

    /// True when the VM both starts and ends inside the window (the
    /// population Figure 5 draws lifetimes from — 94% of VMs).
    pub fn fully_observed(&self, id: VmId) -> bool {
        let vm = self.vm(id);
        vm.created >= Timestamp::ZERO && vm.deleted <= self.window_end()
    }

    /// Iterator over all VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        (0..self.vms.len() as u64).map(VmId)
    }

    /// Total core-hours across all VMs, clipped to the window.
    pub fn total_core_hours(&self) -> f64 {
        self.vms
            .iter()
            .map(|vm| {
                let end = vm.deleted.min(self.window_end());
                vm.sku.cores as f64 * end.since(vm.created).as_hours_f64()
            })
            .sum()
    }
}
