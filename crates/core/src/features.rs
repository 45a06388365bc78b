//! Feature data and feature-vector assembly.
//!
//! Two kinds of model input exist in Resource Central (§4.2): *client
//! inputs* supplied with each request, and historical *feature data*
//! fetched from the store — per-subscription aggregates RC recomputes
//! offline and publishes periodically. §6.1: "For all metrics, the most
//! important attributes ... are the percentage of VMs classified into each
//! bucket to date in the subscription", followed by service name,
//! deployment time, operating system and VM size. All of those appear
//! below.
//!
//! Feature-vector widths match Table 1: 127 for the utilization models,
//! 24 for the deployment-size models, 34 for the workload class, and 26
//! for lifetime (the paper leaves that cell blank).

use serde::{Deserialize, Serialize};

use rc_types::vm::{OsType, Party, ProdTag, SubscriptionId, VmType, SKU_CATALOG};

use crate::inputs::ClientInputs;

/// Half-life, in days, of the exponentially-decayed "recent history"
/// counters.
pub const DECAY_HALF_LIFE_DAYS: f64 = 7.0;

/// Distinct core counts in the SKU catalog, for the size-affinity
/// features.
pub const CORES_CLASSES: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Dense index of a core count in [`CORES_CLASSES`].
pub fn cores_class(cores: u32) -> usize {
    CORES_CLASSES.iter().position(|&c| c == cores).unwrap_or(CORES_CLASSES.len() - 1)
}

/// What the pipeline observed about one finished VM.
#[derive(Debug, Clone, Copy)]
pub struct VmObservation {
    /// Creation time of the VM in seconds since epoch.
    pub created_secs: u64,
    /// Observed average-utilization bucket.
    pub avg_bucket: usize,
    /// Observed P95-of-max utilization bucket.
    pub p95_bucket: usize,
    /// Observed lifetime bucket.
    pub lifetime_bucket: usize,
    /// FFT workload class (0 = delay-insensitive, 1 = interactive), when
    /// the VM lived long enough to classify.
    pub class: Option<usize>,
    /// Allocated cores.
    pub cores: u32,
    /// Allocated memory in GB.
    pub memory_gb: f64,
    /// True for a Windows guest.
    pub os_windows: bool,
    /// Observed average utilization (fraction).
    pub avg_util: f64,
    /// Observed P95-of-max utilization (fraction).
    pub p95_util: f64,
    /// Lifetime in seconds.
    pub lifetime_secs: u64,
}

/// What the pipeline observed about one deployment.
#[derive(Debug, Clone, Copy)]
pub struct DeploymentObservation {
    /// Creation time in seconds since epoch.
    pub created_secs: u64,
    /// Maximum-#VMs bucket.
    pub vms_bucket: usize,
    /// Maximum-#cores bucket.
    pub cores_bucket: usize,
    /// Maximum number of VMs.
    pub n_vms: u64,
}

/// Per-subscription historical aggregates — the "feature data" RC stores
/// and caches. Roughly 850 bytes as JSON, matching §6.1's record size.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SubscriptionFeatures {
    /// Subscription this record describes.
    pub subscription: SubscriptionId,
    /// VMs observed to date.
    pub n_vms: u64,
    /// Deployments observed to date.
    pub n_deployments: u64,
    /// First and last observation times (seconds since epoch).
    pub first_seen_secs: u64,
    /// Last observation time (seconds since epoch).
    pub last_seen_secs: u64,
    /// Bucket counts to date — the paper's headline predictive attribute.
    pub avg_bucket_counts: [u64; 4],
    /// P95-of-max utilization bucket counts.
    pub p95_bucket_counts: [u64; 4],
    /// Lifetime bucket counts.
    pub lifetime_bucket_counts: [u64; 4],
    /// Deployment-size (#VMs) bucket counts.
    pub deploy_vms_bucket_counts: [u64; 4],
    /// Deployment-size (#cores) bucket counts.
    pub deploy_cores_bucket_counts: [u64; 4],
    /// Workload class counts (delay-insensitive, interactive).
    pub class_counts: [u64; 2],
    /// Exponentially-decayed recent bucket fractions (avg utilization).
    pub decayed_avg_buckets: [f64; 4],
    /// Exponentially-decayed recent bucket fractions (P95 utilization).
    pub decayed_p95_buckets: [f64; 4],
    /// Timestamp of the last decay application (seconds).
    pub decay_updated_secs: u64,
    /// Count of VMs per core-class ([`CORES_CLASSES`]).
    pub cores_class_counts: [u64; 6],
    /// Running sums for moment features.
    pub sum_avg_util: f64,
    /// Sum of squared average utilizations.
    pub sum_sq_avg_util: f64,
    /// Sum of P95 utilizations.
    pub sum_p95_util: f64,
    /// Sum of squared P95 utilizations.
    pub sum_sq_p95_util: f64,
    /// Sum of ln(lifetime secs).
    pub sum_log_lifetime: f64,
    /// Sum of squared ln(lifetime secs).
    pub sum_sq_log_lifetime: f64,
    /// Sum of ln(max deployment #VMs).
    pub sum_log_deploy_vms: f64,
    /// Total cores across observed VMs.
    pub sum_cores: u64,
    /// Total memory (GB) across observed VMs.
    pub sum_memory_gb: f64,
    /// Count of Windows-guest VMs.
    pub n_windows: u64,
}

impl SubscriptionFeatures {
    /// Creates an empty record for a subscription.
    pub fn new(subscription: SubscriptionId) -> Self {
        SubscriptionFeatures { subscription, ..Default::default() }
    }

    /// Applies exponential decay to the recent counters up to `now_secs`.
    fn decay_to(&mut self, now_secs: u64) {
        if now_secs <= self.decay_updated_secs {
            return;
        }
        let dt_days = (now_secs - self.decay_updated_secs) as f64 / 86_400.0;
        let factor = 0.5f64.powf(dt_days / DECAY_HALF_LIFE_DAYS);
        for v in self.decayed_avg_buckets.iter_mut() {
            *v *= factor;
        }
        for v in self.decayed_p95_buckets.iter_mut() {
            *v *= factor;
        }
        self.decay_updated_secs = now_secs;
    }

    /// Folds one finished VM into the aggregates.
    pub fn observe_vm(&mut self, obs: &VmObservation) {
        if self.n_vms == 0 && self.n_deployments == 0 {
            self.first_seen_secs = obs.created_secs;
            self.decay_updated_secs = obs.created_secs;
        }
        self.decay_to(obs.created_secs);
        self.n_vms += 1;
        self.last_seen_secs = self.last_seen_secs.max(obs.created_secs);
        self.avg_bucket_counts[obs.avg_bucket] += 1;
        self.p95_bucket_counts[obs.p95_bucket] += 1;
        self.lifetime_bucket_counts[obs.lifetime_bucket] += 1;
        self.decayed_avg_buckets[obs.avg_bucket] += 1.0;
        self.decayed_p95_buckets[obs.p95_bucket] += 1.0;
        self.cores_class_counts[cores_class(obs.cores)] += 1;
        self.sum_avg_util += obs.avg_util;
        self.sum_sq_avg_util += obs.avg_util * obs.avg_util;
        self.sum_p95_util += obs.p95_util;
        self.sum_sq_p95_util += obs.p95_util * obs.p95_util;
        let ll = (obs.lifetime_secs.max(1) as f64).ln();
        self.sum_log_lifetime += ll;
        self.sum_sq_log_lifetime += ll * ll;
        self.sum_cores += obs.cores as u64;
        self.sum_memory_gb += obs.memory_gb;
        if obs.os_windows {
            self.n_windows += 1;
        }
    }

    /// Folds one workload-class observation into the aggregates.
    ///
    /// Kept separate from [`SubscriptionFeatures::observe_vm`] because the
    /// FFT classifier labels a VM after three days of telemetry (§3.6) —
    /// long before a long-running VM completes — and RC's periodic offline
    /// runs pick the label up then.
    pub fn observe_class(&mut self, class: usize) {
        self.class_counts[class] += 1;
    }

    /// Folds one deployment into the aggregates.
    pub fn observe_deployment(&mut self, obs: &DeploymentObservation) {
        if self.n_vms == 0 && self.n_deployments == 0 {
            self.first_seen_secs = obs.created_secs;
            self.decay_updated_secs = obs.created_secs;
        }
        self.n_deployments += 1;
        self.last_seen_secs = self.last_seen_secs.max(obs.created_secs);
        self.deploy_vms_bucket_counts[obs.vms_bucket] += 1;
        self.deploy_cores_bucket_counts[obs.cores_bucket] += 1;
        self.sum_log_deploy_vms += (obs.n_vms.max(1) as f64).ln();
    }

    /// True when the record has seen nothing — the client returns a
    /// no-prediction for such subscriptions.
    pub fn is_empty(&self) -> bool {
        self.n_vms == 0 && self.n_deployments == 0
    }

    fn fraction4(counts: &[u64; 4]) -> [f64; 4] {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        let t = total as f64;
        [counts[0] as f64 / t, counts[1] as f64 / t, counts[2] as f64 / t, counts[3] as f64 / t]
    }

    fn fraction2(counts: &[u64; 2]) -> [f64; 2] {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return [0.0; 2];
        }
        [counts[0] as f64 / total as f64, counts[1] as f64 / total as f64]
    }

    fn mean_std(sum: f64, sum_sq: f64, n: u64) -> (f64, f64) {
        if n == 0 {
            return (0.0, 0.0);
        }
        let mean = sum / n as f64;
        let var = (sum_sq / n as f64 - mean * mean).max(0.0);
        (mean, var.sqrt())
    }
}

/// Widest feature vector any model consumes (Table 1: 127 for the
/// utilization models); the size of the buffer callers assemble into.
pub const MAX_FEATURES: usize = 128;

/// A feature vector being assembled in a caller's buffer.
pub(crate) struct Row<'a> {
    values: &'a mut [f64; MAX_FEATURES],
    len: usize,
}

impl Row<'_> {
    fn push(&mut self, value: f64) {
        self.values[self.len] = value;
        self.len += 1;
    }
}

/// One model family's assembly routine: values go to the row, labels to
/// the name list when one is asked for.
pub(crate) type Build =
    fn(&ClientInputs, &SubscriptionFeatures, &mut Row<'_>, &mut Option<&mut Vec<String>>);

/// Runs `build` into `out`, returning how many features it wrote.
pub(crate) fn assemble(
    build: Build,
    inputs: &ClientInputs,
    sub: &SubscriptionFeatures,
    out: &mut [f64; MAX_FEATURES],
) -> usize {
    let mut row = Row { values: out, len: 0 };
    build(inputs, sub, &mut row, &mut None);
    row.len
}

/// The labels `build` gives its features, in order.
pub(crate) fn names_of(build: Build) -> Vec<String> {
    let mut names = Vec::new();
    let mut row = Row { values: &mut [0.0; MAX_FEATURES], len: 0 };
    build(&dummy_inputs(), &SubscriptionFeatures::default(), &mut row, &mut Some(&mut names));
    names
}

/// Pushes `label: value` onto the row and, when present, the name list.
macro_rules! feat {
    ($names:ident, $values:ident, $label:expr, $value:expr) => {
        if let Some(names) = $names.as_mut() {
            names.push($label.to_string());
        }
        $values.push($value);
    };
}

/// Shared client-input encoding used by the utilization models.
fn push_client_inputs(
    inputs: &ClientInputs,
    values: &mut Row<'_>,
    names: &mut Option<&mut Vec<String>>,
) {
    let sku = SKU_CATALOG[inputs.sku_index];
    feat!(names, values, "party_first", f64::from(inputs.party == Party::First));
    feat!(names, values, "is_iaas", f64::from(inputs.vm_type() == VmType::Iaas));
    feat!(names, values, "is_paas", f64::from(inputs.vm_type() == VmType::Paas));
    for (i, role) in rc_types::vm::VmRole::ALL.iter().enumerate() {
        feat!(names, values, format!("role_{}", role.label()), f64::from(inputs.role.index() == i));
    }
    feat!(names, values, "os_windows", f64::from(inputs.os == OsType::Windows));
    feat!(names, values, "os_linux", f64::from(inputs.os == OsType::Linux));
    feat!(names, values, "non_production", f64::from(inputs.prod == ProdTag::NonProduction));
    // Service one-hot: id 0 is the creation-test service, 1..=11 the other
    // named first-party services, plus "unknown".
    for id in 0..12u8 {
        feat!(names, values, format!("service_{id}"), f64::from(inputs.service == Some(id)));
    }
    feat!(names, values, "service_unknown", f64::from(inputs.service.is_none()));
    for (i, s) in SKU_CATALOG.iter().enumerate() {
        feat!(names, values, format!("sku_{}", s.name), f64::from(inputs.sku_index == i));
    }
    feat!(names, values, "cores", sku.cores as f64);
    feat!(names, values, "log2_cores", (sku.cores as f64).log2());
    feat!(names, values, "memory_gb", sku.memory_gb);
    feat!(names, values, "log2_memory", sku.memory_gb.log2());
    feat!(names, values, "memory_per_core", sku.memory_gb / sku.cores as f64);
    let hour = inputs.deployment_time.hour_of_day();
    let phase = 2.0 * std::f64::consts::PI * hour / 24.0;
    feat!(names, values, "hour_sin", phase.sin());
    feat!(names, values, "hour_cos", phase.cos());
    feat!(names, values, "hour", hour);
    for wd in 0..7u32 {
        feat!(
            names,
            values,
            format!("weekday_{wd}"),
            f64::from(inputs.deployment_time.weekday() == wd)
        );
    }
    feat!(names, values, "is_weekend", f64::from(inputs.deployment_time.is_weekend()));
    feat!(names, values, "deploy_size_hint", inputs.deployment_size_hint as f64);
    feat!(names, values, "log1p_deploy_size_hint", (inputs.deployment_size_hint as f64).ln_1p());
}

/// The 127-feature vector of the utilization models (Table 1).
pub(crate) fn build_utilization(
    inputs: &ClientInputs,
    sub: &SubscriptionFeatures,
    v: &mut Row<'_>,
    names: &mut Option<&mut Vec<String>>,
) {
    push_client_inputs(inputs, v, names);

    let sku = SKU_CATALOG[inputs.sku_index];
    let avg_f = SubscriptionFeatures::fraction4(&sub.avg_bucket_counts);
    let p95_f = SubscriptionFeatures::fraction4(&sub.p95_bucket_counts);
    let life_f = SubscriptionFeatures::fraction4(&sub.lifetime_bucket_counts);
    let dvms_f = SubscriptionFeatures::fraction4(&sub.deploy_vms_bucket_counts);
    let dcor_f = SubscriptionFeatures::fraction4(&sub.deploy_cores_bucket_counts);
    let class_f = SubscriptionFeatures::fraction2(&sub.class_counts);

    for (i, &f) in avg_f.iter().enumerate() {
        feat!(names, v, format!("hist_avg_bucket_{i}"), f);
    }
    for (i, &f) in p95_f.iter().enumerate() {
        feat!(names, v, format!("hist_p95_bucket_{i}"), f);
    }
    for (i, &f) in life_f.iter().enumerate() {
        feat!(names, v, format!("hist_lifetime_bucket_{i}"), f);
    }
    for (i, &f) in dvms_f.iter().enumerate() {
        feat!(names, v, format!("hist_deploy_vms_bucket_{i}"), f);
    }
    for (i, &f) in dcor_f.iter().enumerate() {
        feat!(names, v, format!("hist_deploy_cores_bucket_{i}"), f);
    }
    for (i, &f) in class_f.iter().enumerate() {
        feat!(names, v, format!("hist_class_{i}"), f);
    }

    let now = inputs.deployment_time.as_secs();
    let age_days = (now.saturating_sub(sub.first_seen_secs)) as f64 / 86_400.0;
    let idle_days = (now.saturating_sub(sub.last_seen_secs)) as f64 / 86_400.0;
    feat!(names, v, "log1p_n_vms", (sub.n_vms as f64).ln_1p());
    feat!(names, v, "log1p_n_deployments", (sub.n_deployments as f64).ln_1p());
    feat!(names, v, "subscription_age_days", age_days);
    feat!(names, v, "days_since_last_seen", idle_days);
    feat!(names, v, "vms_per_day", sub.n_vms as f64 / age_days.max(1.0));

    let (m_avg, s_avg) =
        SubscriptionFeatures::mean_std(sub.sum_avg_util, sub.sum_sq_avg_util, sub.n_vms);
    let (m_p95, s_p95) =
        SubscriptionFeatures::mean_std(sub.sum_p95_util, sub.sum_sq_p95_util, sub.n_vms);
    let (m_ll, s_ll) =
        SubscriptionFeatures::mean_std(sub.sum_log_lifetime, sub.sum_sq_log_lifetime, sub.n_vms);
    feat!(names, v, "mean_avg_util", m_avg);
    feat!(names, v, "std_avg_util", s_avg);
    feat!(names, v, "mean_p95_util", m_p95);
    feat!(names, v, "std_p95_util", s_p95);
    feat!(names, v, "mean_log_lifetime", m_ll);
    feat!(names, v, "std_log_lifetime", s_ll);

    let nv = sub.n_vms.max(1) as f64;
    feat!(names, v, "mean_cores", sub.sum_cores as f64 / nv);
    feat!(names, v, "mean_memory_gb", sub.sum_memory_gb / nv);
    feat!(names, v, "windows_fraction", sub.n_windows as f64 / nv);

    // Interactions: utilization history conditioned on the requested size.
    let small = f64::from(sku.cores <= 2);
    for (i, &f) in avg_f.iter().enumerate() {
        feat!(names, v, format!("avg_bucket_{i}_x_small_vm"), f * small);
    }
    let lc = (sku.cores as f64).log2();
    for (i, &f) in p95_f.iter().enumerate() {
        feat!(names, v, format!("p95_bucket_{i}_x_log_cores"), f * lc);
    }

    // Recent (decayed) history.
    let d_avg_total: f64 = sub.decayed_avg_buckets.iter().sum();
    let d_p95_total: f64 = sub.decayed_p95_buckets.iter().sum();
    for (i, &c) in sub.decayed_avg_buckets.iter().enumerate() {
        feat!(names, v, format!("recent_avg_bucket_{i}"), c / d_avg_total.max(1e-9));
    }
    for (i, &c) in sub.decayed_p95_buckets.iter().enumerate() {
        feat!(names, v, format!("recent_p95_bucket_{i}"), c / d_p95_total.max(1e-9));
    }

    feat!(names, v, "mean_avg_util_sq", m_avg * m_avg);
    feat!(names, v, "mean_p95_util_sq", m_p95 * m_p95);

    for (i, &c) in sub.avg_bucket_counts.iter().enumerate() {
        feat!(names, v, format!("log1p_avg_count_{i}"), (c as f64).ln_1p());
    }
    for (i, &c) in sub.p95_bucket_counts.iter().enumerate() {
        feat!(names, v, format!("log1p_p95_count_{i}"), (c as f64).ln_1p());
    }

    // Size-affinity: how usual is this size for the subscription?
    let cc_total: u64 = sub.cores_class_counts.iter().sum();
    let cct = cc_total.max(1) as f64;
    for (i, &c) in sub.cores_class_counts.iter().enumerate() {
        feat!(names, v, format!("cores_class_{}_fraction", CORES_CLASSES[i]), c as f64 / cct);
    }
    feat!(
        names,
        v,
        "same_cores_class_fraction",
        sub.cores_class_counts[cores_class(sku.cores)] as f64 / cct
    );

    // Entropy of the avg-bucket history: consistent subscriptions score 0.
    let entropy: f64 = avg_f.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum();
    feat!(names, v, "avg_bucket_entropy", entropy);
}

/// The 24-feature vector of the deployment-size models (Table 1).
pub(crate) fn build_deployment(
    inputs: &ClientInputs,
    sub: &SubscriptionFeatures,
    v: &mut Row<'_>,
    names: &mut Option<&mut Vec<String>>,
) {
    let sku = SKU_CATALOG[inputs.sku_index];
    feat!(names, v, "party_first", f64::from(inputs.party == Party::First));
    feat!(names, v, "is_iaas", f64::from(inputs.vm_type() == VmType::Iaas));
    feat!(names, v, "os_windows", f64::from(inputs.os == OsType::Windows));
    feat!(names, v, "is_test_service", f64::from(inputs.service == Some(0)));
    feat!(names, v, "is_top_service", f64::from(inputs.service.is_some()));
    let hour = inputs.deployment_time.hour_of_day();
    let phase = 2.0 * std::f64::consts::PI * hour / 24.0;
    feat!(names, v, "hour_sin", phase.sin());
    feat!(names, v, "hour_cos", phase.cos());
    feat!(names, v, "weekday", inputs.deployment_time.weekday() as f64 / 6.0);
    feat!(names, v, "is_weekend", f64::from(inputs.deployment_time.is_weekend()));
    for (i, &f) in SubscriptionFeatures::fraction4(&sub.deploy_vms_bucket_counts).iter().enumerate()
    {
        feat!(names, v, format!("hist_deploy_vms_bucket_{i}"), f);
    }
    for (i, &f) in
        SubscriptionFeatures::fraction4(&sub.deploy_cores_bucket_counts).iter().enumerate()
    {
        feat!(names, v, format!("hist_deploy_cores_bucket_{i}"), f);
    }
    feat!(names, v, "log1p_n_deployments", (sub.n_deployments as f64).ln_1p());
    feat!(names, v, "log1p_n_vms", (sub.n_vms as f64).ln_1p());
    feat!(
        names,
        v,
        "mean_log_deploy_vms",
        sub.sum_log_deploy_vms / sub.n_deployments.max(1) as f64
    );
    let now = inputs.deployment_time.as_secs();
    let age_days = (now.saturating_sub(sub.first_seen_secs)) as f64 / 86_400.0;
    feat!(names, v, "age_days", age_days);
    feat!(names, v, "deployments_per_day", sub.n_deployments as f64 / age_days.max(1.0));
    feat!(names, v, "cores", sku.cores as f64);
    feat!(names, v, "memory_gb", sku.memory_gb);
}

/// The 26-feature vector of the lifetime model.
pub(crate) fn build_lifetime(
    inputs: &ClientInputs,
    sub: &SubscriptionFeatures,
    v: &mut Row<'_>,
    names: &mut Option<&mut Vec<String>>,
) {
    let sku = SKU_CATALOG[inputs.sku_index];
    feat!(names, v, "party_first", f64::from(inputs.party == Party::First));
    feat!(names, v, "is_iaas", f64::from(inputs.vm_type() == VmType::Iaas));
    for (i, role) in rc_types::vm::VmRole::ALL.iter().enumerate() {
        feat!(names, v, format!("role_{}", role.label()), f64::from(inputs.role.index() == i));
    }
    feat!(names, v, "os_windows", f64::from(inputs.os == OsType::Windows));
    feat!(names, v, "is_test_service", f64::from(inputs.service == Some(0)));
    feat!(names, v, "is_top_service", f64::from(inputs.service.is_some()));
    feat!(names, v, "non_production", f64::from(inputs.prod == ProdTag::NonProduction));
    let hour = inputs.deployment_time.hour_of_day();
    let phase = 2.0 * std::f64::consts::PI * hour / 24.0;
    feat!(names, v, "hour_sin", phase.sin());
    feat!(names, v, "hour_cos", phase.cos());
    feat!(names, v, "is_weekend", f64::from(inputs.deployment_time.is_weekend()));
    feat!(names, v, "cores", sku.cores as f64);
    feat!(names, v, "memory_gb", sku.memory_gb);
    for (i, &f) in SubscriptionFeatures::fraction4(&sub.lifetime_bucket_counts).iter().enumerate() {
        feat!(names, v, format!("hist_lifetime_bucket_{i}"), f);
    }
    let (m_ll, s_ll) =
        SubscriptionFeatures::mean_std(sub.sum_log_lifetime, sub.sum_sq_log_lifetime, sub.n_vms);
    feat!(names, v, "mean_log_lifetime", m_ll);
    feat!(names, v, "std_log_lifetime", s_ll);
    feat!(names, v, "log1p_n_vms", (sub.n_vms as f64).ln_1p());
    let now = inputs.deployment_time.as_secs();
    feat!(names, v, "age_days", (now.saturating_sub(sub.first_seen_secs)) as f64 / 86_400.0);
    feat!(names, v, "log1p_deploy_size_hint", (inputs.deployment_size_hint as f64).ln_1p());
    let (m_avg, _) =
        SubscriptionFeatures::mean_std(sub.sum_avg_util, sub.sum_sq_avg_util, sub.n_vms);
    feat!(names, v, "mean_avg_util", m_avg);
}

/// The 34-feature vector of the workload-class model (Table 1).
pub(crate) fn build_class(
    inputs: &ClientInputs,
    sub: &SubscriptionFeatures,
    v: &mut Row<'_>,
    names: &mut Option<&mut Vec<String>>,
) {
    let sku = SKU_CATALOG[inputs.sku_index];
    feat!(names, v, "party_first", f64::from(inputs.party == Party::First));
    feat!(names, v, "is_iaas", f64::from(inputs.vm_type() == VmType::Iaas));
    for (i, role) in rc_types::vm::VmRole::ALL.iter().enumerate() {
        feat!(names, v, format!("role_{}", role.label()), f64::from(inputs.role.index() == i));
    }
    feat!(names, v, "os_windows", f64::from(inputs.os == OsType::Windows));
    feat!(names, v, "is_test_service", f64::from(inputs.service == Some(0)));
    feat!(names, v, "is_top_service", f64::from(inputs.service.is_some()));
    feat!(names, v, "non_production", f64::from(inputs.prod == ProdTag::NonProduction));
    feat!(names, v, "cores", sku.cores as f64);
    feat!(names, v, "memory_gb", sku.memory_gb);
    let hour = inputs.deployment_time.hour_of_day();
    let phase = 2.0 * std::f64::consts::PI * hour / 24.0;
    feat!(names, v, "hour_sin", phase.sin());
    feat!(names, v, "hour_cos", phase.cos());
    feat!(names, v, "is_weekend", f64::from(inputs.deployment_time.is_weekend()));
    for (i, &f) in SubscriptionFeatures::fraction2(&sub.class_counts).iter().enumerate() {
        feat!(names, v, format!("hist_class_{i}"), f);
    }
    for (i, &f) in SubscriptionFeatures::fraction4(&sub.lifetime_bucket_counts).iter().enumerate() {
        feat!(names, v, format!("hist_lifetime_bucket_{i}"), f);
    }
    let (m_ll, _) =
        SubscriptionFeatures::mean_std(sub.sum_log_lifetime, sub.sum_sq_log_lifetime, sub.n_vms);
    feat!(names, v, "mean_log_lifetime", m_ll);
    let (m_avg, s_avg) =
        SubscriptionFeatures::mean_std(sub.sum_avg_util, sub.sum_sq_avg_util, sub.n_vms);
    let (m_p95, _) =
        SubscriptionFeatures::mean_std(sub.sum_p95_util, sub.sum_sq_p95_util, sub.n_vms);
    feat!(names, v, "mean_avg_util", m_avg);
    feat!(names, v, "std_avg_util", s_avg);
    feat!(names, v, "mean_p95_util", m_p95);
    feat!(names, v, "log1p_n_vms", (sub.n_vms as f64).ln_1p());
    let now = inputs.deployment_time.as_secs();
    feat!(names, v, "age_days", (now.saturating_sub(sub.first_seen_secs)) as f64 / 86_400.0);
    feat!(names, v, "log1p_deploy_size_hint", (inputs.deployment_size_hint as f64).ln_1p());
    for (i, &f) in SubscriptionFeatures::fraction4(&sub.avg_bucket_counts).iter().enumerate() {
        feat!(names, v, format!("hist_avg_bucket_{i}"), f);
    }
    feat!(names, v, "windows_fraction", sub.n_windows as f64 / sub.n_vms.max(1) as f64);
}

/// Placeholder inputs used only to enumerate feature names.
fn dummy_inputs() -> ClientInputs {
    ClientInputs {
        subscription: SubscriptionId(0),
        party: Party::First,
        role: rc_types::vm::VmRole::Iaas,
        prod: ProdTag::Production,
        os: OsType::Windows,
        sku_index: 0,
        deployment_time: rc_types::time::Timestamp::ZERO,
        deployment_size_hint: 1,
        service: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_types::time::Timestamp;
    use rc_types::vm::VmRole;

    fn collect(build: Build, inputs: &ClientInputs, sub: &SubscriptionFeatures) -> Vec<f64> {
        let mut buf = [0.0; MAX_FEATURES];
        let n = assemble(build, inputs, sub, &mut buf);
        buf[..n].to_vec()
    }

    fn inputs() -> ClientInputs {
        ClientInputs {
            subscription: SubscriptionId(3),
            party: Party::Third,
            role: VmRole::PaasWebServer,
            prod: ProdTag::Production,
            os: OsType::Linux,
            sku_index: 2,
            deployment_time: Timestamp::from_days(10),
            deployment_size_hint: 4,
            service: Some(3),
        }
    }

    fn observation(created_days: u64) -> VmObservation {
        VmObservation {
            created_secs: created_days * 86_400,
            avg_bucket: 1,
            p95_bucket: 3,
            lifetime_bucket: 2,
            class: Some(0),
            cores: 2,
            memory_gb: 3.5,
            os_windows: false,
            avg_util: 0.3,
            p95_util: 0.9,
            lifetime_secs: 7_200,
        }
    }

    #[test]
    fn feature_widths_match_table1() {
        let sub = SubscriptionFeatures::new(SubscriptionId(3));
        assert_eq!(collect(build_utilization, &inputs(), &sub).len(), 127);
        assert_eq!(collect(build_deployment, &inputs(), &sub).len(), 24);
        assert_eq!(collect(build_class, &inputs(), &sub).len(), 34);
        assert_eq!(collect(build_lifetime, &inputs(), &sub).len(), 26);
    }

    #[test]
    fn names_align_with_values() {
        assert_eq!(names_of(build_utilization).len(), 127);
        assert_eq!(names_of(build_deployment).len(), 24);
        assert_eq!(names_of(build_class).len(), 34);
        assert_eq!(names_of(build_lifetime).len(), 26);
        // Names must be unique within a model.
        for names in [
            names_of(build_utilization),
            names_of(build_deployment),
            names_of(build_class),
            names_of(build_lifetime),
        ] {
            let mut sorted = names.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "duplicate feature names");
        }
    }

    #[test]
    fn observation_updates_counts_and_moments() {
        let mut sub = SubscriptionFeatures::new(SubscriptionId(3));
        assert!(sub.is_empty());
        sub.observe_vm(&observation(1));
        sub.observe_vm(&observation(2));
        sub.observe_class(0);
        sub.observe_class(0);
        assert!(!sub.is_empty());
        assert_eq!(sub.n_vms, 2);
        assert_eq!(sub.avg_bucket_counts, [0, 2, 0, 0]);
        assert_eq!(sub.p95_bucket_counts, [0, 0, 0, 2]);
        assert_eq!(sub.class_counts, [2, 0]);
        let (mean, std) = SubscriptionFeatures::mean_std(sub.sum_avg_util, sub.sum_sq_avg_util, 2);
        assert!((mean - 0.3).abs() < 1e-12);
        assert!(std < 1e-9);
    }

    #[test]
    fn decay_shrinks_old_history() {
        let mut sub = SubscriptionFeatures::new(SubscriptionId(3));
        sub.observe_vm(&observation(0));
        let fresh = sub.decayed_avg_buckets[1];
        // Observe another VM 14 days (two half-lives) later.
        let mut later = observation(14);
        later.avg_bucket = 0;
        sub.observe_vm(&later);
        assert!((sub.decayed_avg_buckets[1] - fresh * 0.25).abs() < 1e-9);
        assert!((sub.decayed_avg_buckets[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn history_features_change_with_observations() {
        let empty = SubscriptionFeatures::new(SubscriptionId(3));
        let before = collect(build_utilization, &inputs(), &empty);
        let mut sub = SubscriptionFeatures::new(SubscriptionId(3));
        for d in 0..5 {
            sub.observe_vm(&observation(d));
        }
        let after = collect(build_utilization, &inputs(), &sub);
        assert_eq!(before.len(), after.len());
        assert_ne!(before, after);
    }

    #[test]
    fn all_features_are_finite() {
        let mut sub = SubscriptionFeatures::new(SubscriptionId(3));
        for d in 0..20 {
            sub.observe_vm(&observation(d));
            sub.observe_deployment(&DeploymentObservation {
                created_secs: d * 86_400,
                vms_bucket: 1,
                cores_bucket: 1,
                n_vms: 4,
            });
        }
        for f in [
            collect(build_utilization, &inputs(), &sub),
            collect(build_deployment, &inputs(), &sub),
            collect(build_class, &inputs(), &sub),
            collect(build_lifetime, &inputs(), &sub),
        ] {
            assert!(f.iter().all(|x| x.is_finite()), "non-finite feature in {f:?}");
        }
    }

    #[test]
    fn serialized_record_is_near_paper_size() {
        // §6.1: ~850 bytes of feature data per subscription.
        let mut sub = SubscriptionFeatures::new(SubscriptionId(3));
        for d in 0..50 {
            sub.observe_vm(&observation(d));
        }
        let bytes = serde_json::to_vec(&sub).unwrap();
        assert!((500..1_600).contains(&bytes.len()), "feature record is {} bytes", bytes.len());
    }

    #[test]
    fn cores_class_covers_catalog() {
        for sku in SKU_CATALOG.iter() {
            let c = cores_class(sku.cores);
            assert!(c < CORES_CLASSES.len());
            assert_eq!(CORES_CLASSES[c], sku.cores);
        }
    }
}
