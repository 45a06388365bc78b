//! The trace generator: profiles → arrivals → deployments → VMs.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use rc_types::telemetry::VmRecord;
use rc_types::time::Timestamp;
use rc_types::vm::{DeploymentId, OsType, SubscriptionId, VmId, VmRole, SKU_CATALOG};

use crate::calibration as cal;
use crate::profile::{ProfileConfig, SubscriptionProfile};
use crate::sampler::{clamped_lognormal, log_uniform, weighted_choice};
use crate::stream::{StreamedVm, VmStream};
use crate::trace::{DeploymentRecord, Trace};
use crate::utilization::UtilParams;

/// Configuration of a synthetic trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Master RNG seed; the whole trace is a pure function of the config.
    pub seed: u64,
    /// Observation window length in days (the paper's dataset spans ~92).
    pub days: u32,
    /// Number of subscriptions.
    pub n_subscriptions: usize,
    /// Approximate total VM count; subscription rates are scaled to hit it.
    pub target_vms: usize,
    /// Number of regions.
    pub n_regions: u16,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 0xA27E,
            days: 90,
            n_subscriptions: 2_500,
            target_vms: 100_000,
            n_regions: 4,
        }
    }
}

impl TraceConfig {
    /// A small configuration for unit tests: quick to generate but large
    /// enough for distribution checks.
    pub fn small() -> Self {
        TraceConfig {
            seed: 0xA27E,
            days: 35,
            n_subscriptions: 500,
            target_vms: 15_000,
            n_regions: 2,
        }
    }
}

/// Fraction of a deployment's VMs created right at deployment time; the
/// remainder trickles in within a day ("deployments may grow over time",
/// §3.4).
const INITIAL_DEPLOYMENT_FRACTION: f64 = 0.8;

/// Samples every subscription profile from the master RNG.
///
/// Profiles are the only thing the master seed controls; all VM-level
/// randomness lives in per-subscription streams (see [`sub_stream_rngs`]),
/// which is what lets the generator expand any subscription
/// independently without replaying the whole trace.
pub(crate) fn sample_profiles(config: &TraceConfig) -> Vec<SubscriptionProfile> {
    assert!(config.n_subscriptions > 0 && config.days > 0, "degenerate config");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let profile_cfg = ProfileConfig {
        days: config.days,
        n_regions: config.n_regions,
        ..ProfileConfig::default()
    };
    (0..config.n_subscriptions)
        .map(|i| SubscriptionProfile::sample(SubscriptionId(i as u32), &profile_cfg, &mut rng))
        .collect()
}

/// Water-filling rate scales: every subscription's deployment rate is
/// scaled so the expected VM count hits the target, while capping any
/// single subscription at ~3% of the population. Without the cap, a single
/// busy subscription can dominate the trace and swamp every aggregate
/// distribution with its idiosyncrasies.
pub(crate) fn subscription_scales(
    config: &TraceConfig,
    subscriptions: &[SubscriptionProfile],
) -> Vec<f64> {
    let expected: Vec<f64> = subscriptions.iter().map(|s| s.expected_vms()).collect();
    let cap = (config.target_vms as f64 * 0.03).max(50.0);
    // Solve `sum(min(lambda * e_i, cap)) = target` for the global rate
    // multiplier lambda by bisection; the left side is monotone in
    // lambda, so this converges for any expectation profile.
    let target = config.target_vms as f64;
    let total_at = |lambda: f64| -> f64 { expected.iter().map(|e| (lambda * e).min(cap)).sum() };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while total_at(hi) < target && hi < 1e12 {
        hi *= 2.0;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if total_at(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let lambda = 0.5 * (lo + hi);
    expected.iter().map(|e| if lambda * e > cap { cap / e.max(1e-9) } else { lambda }).collect()
}

/// The two private RNGs of one subscription's generation stream: one
/// drives its arrival process, the other everything inside a deployment.
///
/// Splitting them means the arrival schedule can be replayed (e.g. to
/// count deployments ahead of time) without disturbing VM bodies, and the
/// derived seeds keep the whole trace a pure function of the config.
pub(crate) fn sub_stream_rngs(seed: u64, sub: SubscriptionId) -> (StdRng, StdRng) {
    use crate::sampler::splitmix64;
    let base = splitmix64(seed ^ 0x5452_4143_455f_5354); // "TRACE_ST"
    let k = splitmix64(base ^ sub.0 as u64);
    (StdRng::seed_from_u64(splitmix64(k ^ 0xA331)), StdRng::seed_from_u64(splitmix64(k ^ 0xB0D1)))
}

/// Generates one deployment (region, size, and every VM body) from the
/// subscription's body RNG, as the [`VmStream`] merge reaches its
/// arrival. VM ids are left at zero until the merge knows the global
/// creation order.
pub(crate) fn generate_deployment<R: Rng + ?Sized>(
    sub: &SubscriptionProfile,
    dep_id: DeploymentId,
    deploy_time: Timestamp,
    n_regions: u16,
    rng: &mut R,
) -> Vec<StreamedVm> {
    let region = if rng.gen::<f64>() < 0.85 || n_regions <= 1 {
        sub.home_region
    } else {
        rc_types::vm::RegionId(rng.gen_range(0..n_regions))
    };

    // Deployment size around the subscription center.
    let n = clamped_lognormal(rng, sub.deploy_size_center, 0.30, 1.0, 2_000.0).round().max(1.0)
        as usize;
    let initial = ((n as f64) * INITIAL_DEPLOYMENT_FRACTION).ceil() as usize;

    // VMs of a deployment usually share a lifetime bucket.
    let dep_lifetime_bucket = sample_lifetime_bucket(sub, rng);
    let mut n_cores = 0u32;
    let mut bodies = Vec::with_capacity(n);

    for k in 0..n {
        let created = if k < initial {
            Timestamp::from_secs(deploy_time.as_secs() + rng.gen_range(0..120))
        } else {
            Timestamp::from_secs(deploy_time.as_secs() + rng.gen_range(120..86_400))
        };

        let lifetime_bucket = if rng.gen::<f64>() < 0.8 {
            dep_lifetime_bucket
        } else {
            sample_lifetime_bucket(sub, rng)
        };
        let lifetime_secs = sample_lifetime(sub, lifetime_bucket, rng);
        let deleted = Timestamp::from_secs(created.as_secs() + lifetime_secs);

        let role = sample_role(sub, rng);
        let sku_idx = if rng.gen::<f64>() < 0.85 { sub.primary_sku } else { sub.secondary_sku };
        let sku = SKU_CATALOG[sku_idx];
        n_cores += sku.cores;

        let os = if rng.gen::<f64>() < 0.93 {
            sub.os
        } else {
            match sub.os {
                OsType::Windows => OsType::Linux,
                OsType::Linux => OsType::Windows,
            }
        };

        let interactive = rng.gen::<f64>() < sub.interactive_prob;
        let params = sample_util_params(sub, interactive, rng);

        let record = VmRecord {
            vm_id: VmId(0),
            subscription: sub.id,
            deployment: dep_id,
            region,
            party: sub.party,
            role,
            prod: sub.prod,
            os,
            sku,
            created,
            deleted,
        };
        bodies.push((record, params, interactive));
    }

    let deployment = DeploymentRecord {
        id: dep_id,
        subscription: sub.id,
        region,
        created: deploy_time,
        n_vms: n as u32,
        n_cores,
    };
    bodies
        .into_iter()
        .map(|(record, util, interactive)| StreamedVm {
            record,
            util,
            interactive,
            deployment: deployment.clone(),
        })
        .collect()
}

impl Trace {
    /// Generates a full synthetic trace from the configuration: a drained
    /// [`VmStream`], whose VMs arrive
    /// creation-sorted with dense ids. Deterministic: equal configs yield
    /// equal traces.
    ///
    /// # Panics
    ///
    /// Panics when the config has zero subscriptions or zero days.
    pub fn generate(config: &TraceConfig) -> Trace {
        VmStream::new(config).collect_trace()
    }
}

/// Samples a lifetime bucket: mostly the subscription's primary bucket,
/// with leakage toward the party-level shares.
fn sample_lifetime_bucket<R: Rng + ?Sized>(sub: &SubscriptionProfile, rng: &mut R) -> usize {
    if sub.is_creation_test || rng.gen::<f64>() < 0.85 {
        sub.lifetime_primary_bucket
    } else {
        weighted_choice(rng, &cal::lifetime_bucket_shares(sub.party))
    }
}

/// Samples a lifetime in seconds for the given bucket.
fn sample_lifetime<R: Rng + ?Sized>(sub: &SubscriptionProfile, bucket: usize, rng: &mut R) -> u64 {
    let bounds = &cal::LIFETIME_BUCKET_BOUNDS[bucket];
    let secs = if bucket == sub.lifetime_primary_bucket {
        clamped_lognormal(
            rng,
            sub.lifetime_median_secs,
            sub.lifetime_sigma,
            bounds.lo_secs,
            bounds.hi_secs,
        )
    } else {
        log_uniform(rng, bounds.lo_secs, bounds.hi_secs)
    };
    secs.max(60.0) as u64
}

/// Samples a VM role: the subscription's primary role, with type leakage
/// for the 4% of subscriptions that mix types.
fn sample_role<R: Rng + ?Sized>(sub: &SubscriptionProfile, rng: &mut R) -> VmRole {
    if sub.single_type || rng.gen::<f64>() < 0.85 {
        sub.primary_role
    } else {
        // Flip to the other type.
        match sub.primary_role {
            VmRole::Iaas => {
                let w = [0.35, 0.38, 0.10, 0.17];
                match weighted_choice(rng, &w) {
                    0 => VmRole::PaasWebServer,
                    1 => VmRole::PaasWorker,
                    2 => VmRole::PaasCache,
                    _ => VmRole::PaasData,
                }
            }
            _ => VmRole::Iaas,
        }
    }
}

/// Samples per-VM utilization parameters around the subscription centers.
///
/// The burst seed derives from the subscription id so sibling VMs' maxima
/// align in time (see `rc_trace::utilization`).
fn sample_util_params<R: Rng + ?Sized>(
    sub: &SubscriptionProfile,
    interactive: bool,
    rng: &mut R,
) -> UtilParams {
    let burst_seed = crate::sampler::splitmix64(0xb065_7000 ^ sub.id.0 as u64);
    if sub.is_creation_test {
        return UtilParams { burst_seed, ..UtilParams::creation_test(rng.gen()) };
    }
    // Per-VM jitter around the subscription centers, with the avg and P95
    // deviations sharing most of their randomness — a VM that runs hotter
    // than its siblings is hotter in both metrics (Figure 8's strong
    // avg/P95 rank correlation).
    let z1 = crate::sampler::hash_normal(rng.gen(), 0);
    let z2 = 0.8 * z1 + 0.6 * crate::sampler::hash_normal(rng.gen(), 1);
    let base = (sub.avg_util_center * (sub.util_sigma * z1).exp()).clamp(0.003, 0.98);
    let p95 = (sub.p95_center * (sub.util_sigma * 0.35 * z2).exp()).clamp(base, 1.0);
    let (amplitude, peak_hour) = if interactive {
        (0.5 + rng.gen::<f64>() * 0.4, 11.0 + rng.gen::<f64>() * 6.0)
    } else {
        (0.0, 0.0)
    };
    UtilParams {
        seed: rng.gen(),
        burst_seed,
        base,
        p95_level: p95,
        diurnal_amplitude: amplitude,
        peak_hour,
        noise: 0.01 + rng.gen::<f64>() * 0.03,
    }
    .sanitized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_types::buckets::{Bucketizer, LifetimeBucketizer};
    use rc_types::vm::Party;

    fn small_trace() -> Trace {
        Trace::generate(&TraceConfig::small())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_trace();
        let b = small_trace();
        assert_eq!(a.n_vms(), b.n_vms());
        for (x, y) in a.vms.iter().zip(&b.vms).take(200) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn vm_count_is_near_target() {
        let t = small_trace();
        let target = t.config.target_vms as f64;
        let got = t.n_vms() as f64;
        // Heavy-tailed per-subscription rates (by design) make the total
        // noisy; the harnesses report actual counts.
        assert!((got / target - 1.0).abs() < 0.55, "target {target}, generated {got}");
    }

    #[test]
    fn vms_are_sorted_with_dense_ids() {
        let t = small_trace();
        for (i, vm) in t.vms.iter().enumerate() {
            assert_eq!(vm.vm_id, VmId(i as u64));
        }
        for w in t.vms.windows(2) {
            assert!(w[0].created <= w[1].created);
        }
    }

    #[test]
    fn deployments_match_vm_groups() {
        let t = small_trace();
        let mut counts = vec![0u32; t.deployments.len()];
        for vm in &t.vms {
            counts[vm.deployment.0 as usize] += 1;
        }
        for (dep, &count) in t.deployments.iter().zip(&counts) {
            assert_eq!(dep.n_vms, count, "deployment {:?}", dep.id);
        }
    }

    #[test]
    fn lifetime_bucket_shares_track_calibration() {
        // Measured on *true* lifetimes of all VMs (the window censors the
        // long tail; Figure 5 measured fully-observed VMs of a 92-day
        // window, where censoring is mild). Heavy-tailed per-subscription
        // rates mean a handful of subscriptions dominate the VM count, so
        // the tolerance is generous.
        let t = small_trace();
        let b = LifetimeBucketizer;
        let mut counts = [0usize; 4];
        for id in t.vm_ids() {
            counts[b.bucket(&t.vm(id).lifetime())] += 1;
        }
        let n = t.n_vms();
        let shares: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        let target = [0.29, 0.32, 0.32, 0.07];
        for (got, want) in shares.iter().zip(target) {
            assert!((got - want).abs() < 0.12, "lifetime shares {shares:?} vs Table 4 {target:?}");
        }
        // Figure 5's knee: the vast majority of lifetimes end within a day.
        assert!(shares[0] + shares[1] + shares[2] > 0.85);
    }

    #[test]
    fn party_mix_and_prod_mix() {
        let t = small_trace();
        let first = t.vms.iter().filter(|v| v.party == Party::First).count();
        let frac = first as f64 / t.n_vms() as f64;
        assert!((0.70..0.96).contains(&frac), "first-party VM share {frac}");

        let prod = t.vms.iter().filter(|v| v.prod == rc_types::vm::ProdTag::Production).count();
        let pfrac = prod as f64 / t.n_vms() as f64;
        // §6.2 uses 71% production VMs.
        assert!((0.55..0.85).contains(&pfrac), "production share {pfrac}");
    }

    #[test]
    fn util_params_are_sane() {
        let t = small_trace();
        for id in t.vm_ids() {
            let p = t.util_params(id);
            assert!((0.0..=1.0).contains(&p.base));
            assert!(p.p95_level >= p.base - 1e-12);
            assert!(p.p95_level <= 1.0);
        }
    }

    #[test]
    fn interactive_vms_are_rare_and_long() {
        let t = small_trace();
        let n_interactive = t.interactive_intent.iter().filter(|&&i| i).count();
        let frac = n_interactive as f64 / t.n_vms() as f64;
        assert!((0.002..0.04).contains(&frac), "interactive share {frac} (n = {n_interactive})");
    }

    #[test]
    fn subscription_utilization_is_consistent() {
        // §3.2: 80% of subscriptions have an avg-utilization CoV < 1.
        // Check the *parameters* (the realized series adds sampling noise).
        let t = small_trace();
        let mut per_sub: std::collections::HashMap<u32, Vec<f64>> = Default::default();
        for id in t.vm_ids() {
            per_sub.entry(t.vm(id).subscription.0).or_default().push(t.util_params(id).base);
        }
        let mut low_cov = 0usize;
        let mut total = 0usize;
        for bases in per_sub.values() {
            if bases.len() < 3 {
                continue;
            }
            let mean = bases.iter().sum::<f64>() / bases.len() as f64;
            let var = bases.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / bases.len() as f64;
            let cov = var.sqrt() / mean.max(1e-9);
            total += 1;
            if cov < 1.0 {
                low_cov += 1;
            }
        }
        let frac = low_cov as f64 / total.max(1) as f64;
        assert!(frac > 0.8, "only {frac} of subscriptions have CoV < 1");
    }
}
