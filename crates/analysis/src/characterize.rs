//! Figure-by-figure characterization of a trace (§3 of the paper).
//!
//! Every public function regenerates the data behind one figure; the
//! `rc-bench` binaries print them in the paper's format.

use serde::{Deserialize, Serialize};

use rc_core::labels::classify_vm;
use rc_ml::fft::{PeriodicityConfig, PeriodicityDetector};
use rc_trace::Trace;
use rc_types::time::Timestamp;
use rc_types::vm::{Party, RegionId, VmType};

use crate::spearman::CorrelationMatrix;
use crate::stats::{fraction_of_groups_with_low_cov, Cdf};

/// Telemetry readings sampled per VM for utilization summaries.
const UTIL_SAMPLES: usize = 240;

/// A CDF split by party, as every §3 figure plots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartyCdfs {
    /// First-party VMs only.
    pub first: Cdf,
    /// Third-party VMs only.
    pub third: Cdf,
    /// The whole platform.
    pub all: Cdf,
}

impl PartyCdfs {
    fn build(samples: Vec<(Party, f64)>) -> Self {
        let first = samples.iter().filter(|(p, _)| *p == Party::First).map(|(_, v)| *v).collect();
        let third = samples.iter().filter(|(p, _)| *p == Party::Third).map(|(_, v)| *v).collect();
        let all = samples.into_iter().map(|(_, v)| v).collect();
        PartyCdfs { first: Cdf::new(first), third: Cdf::new(third), all: Cdf::new(all) }
    }
}

/// Figure 1: CDFs of average and P95-of-max CPU utilization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilizationCdfs {
    /// Average utilization per VM.
    pub avg: PartyCdfs,
    /// 95th percentile of the per-interval maximum per VM.
    pub p95_max: PartyCdfs,
}

/// Computes Figure 1's data.
pub fn utilization_cdfs(trace: &Trace) -> UtilizationCdfs {
    let mut avg_samples = Vec::with_capacity(trace.n_vms());
    let mut p95_samples = Vec::with_capacity(trace.n_vms());
    for id in trace.vm_ids() {
        let party = trace.vm(id).party;
        let (avg, p95) = trace.vm_util_summary(id, UTIL_SAMPLES);
        avg_samples.push((party, avg));
        p95_samples.push((party, p95));
    }
    UtilizationCdfs { avg: PartyCdfs::build(avg_samples), p95_max: PartyCdfs::build(p95_samples) }
}

/// Figures 2–3: share of VMs per size category, stacked by party.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SizeBreakdown {
    /// Category labels (e.g. "1", "2", "4", ... cores).
    pub labels: Vec<String>,
    /// Share per category among first-party VMs.
    pub first: Vec<f64>,
    /// Share per category among third-party VMs.
    pub third: Vec<f64>,
    /// Share per category among all VMs.
    pub all: Vec<f64>,
}

fn breakdown<F: Fn(&rc_types::telemetry::VmRecord) -> usize>(
    trace: &Trace,
    labels: Vec<String>,
    category: F,
) -> SizeBreakdown {
    let k = labels.len();
    let mut first = vec![0u64; k];
    let mut third = vec![0u64; k];
    for vm in &trace.vms {
        let c = category(vm).min(k - 1);
        match vm.party {
            Party::First => first[c] += 1,
            Party::Third => third[c] += 1,
        }
    }
    let nf: u64 = first.iter().sum();
    let nt: u64 = third.iter().sum();
    let shares = |counts: &[u64], total: u64| -> Vec<f64> {
        counts.iter().map(|&c| c as f64 / total.max(1) as f64).collect()
    };
    let all_counts: Vec<u64> = first.iter().zip(&third).map(|(a, b)| a + b).collect();
    SizeBreakdown {
        labels,
        first: shares(&first, nf),
        third: shares(&third, nt),
        all: shares(&all_counts, nf + nt),
    }
}

/// Computes Figure 2 (virtual cores per VM).
pub fn cores_breakdown(trace: &Trace) -> SizeBreakdown {
    let labels = vec!["1".into(), "2".into(), "4".into(), "8".into(), ">8".into()];
    breakdown(trace, labels, |vm| match vm.sku.cores {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => 4,
    })
}

/// Computes Figure 3 (memory per VM, GB).
pub fn memory_breakdown(trace: &Trace) -> SizeBreakdown {
    let labels =
        vec!["0.75".into(), "1.75".into(), "3.5".into(), "7".into(), "14".into(), ">14".into()];
    breakdown(trace, labels, |vm| {
        let m = vm.sku.memory_gb;
        if m <= 0.76 {
            0
        } else if m <= 1.76 {
            1
        } else if m <= 3.6 {
            2
        } else if m <= 7.1 {
            3
        } else if m <= 14.1 {
            4
        } else {
            5
        }
    })
}

/// Computes Figure 4: CDF of maximum deployment size, under the paper's
/// day-grouped redefinition ("the set of VMs from each subscription that
/// are deployed to a region during a day").
pub fn deployment_size_cdfs(trace: &Trace) -> PartyCdfs {
    use std::collections::HashMap;
    let mut groups: HashMap<(u32, u16, u64), u64> = HashMap::new();
    for vm in &trace.vms {
        *groups.entry((vm.subscription.0, vm.region.0, vm.created.day_index())).or_default() += 1;
    }
    let samples = groups
        .into_iter()
        .map(|((sub, _, _), count)| (trace.subscriptions[sub as usize].party, count as f64))
        .collect();
    PartyCdfs::build(samples)
}

/// Computes Figure 5: CDF of VM lifetime in hours, over VMs that started
/// and completed inside the observation window (94% in the paper).
pub fn lifetime_cdfs(trace: &Trace) -> PartyCdfs {
    let samples = trace
        .vm_ids()
        .filter(|&id| trace.fully_observed(id))
        .map(|id| {
            let vm = trace.vm(id);
            (vm.party, vm.lifetime().as_hours_f64())
        })
        .collect();
    PartyCdfs::build(samples)
}

/// Figure 6: share of core-hours per workload class.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, Default)]
pub struct ClassShares {
    /// Delay-insensitive share of core-hours.
    pub delay_insensitive: f64,
    /// Interactive share of core-hours.
    pub interactive: f64,
    /// VMs not observed for 3 consecutive days ("Unknown").
    pub unknown: f64,
}

/// Figure 6's three panels: total, first-party, third-party.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClassCoreHours {
    /// All VMs.
    pub total: ClassShares,
    /// First-party VMs.
    pub first: ClassShares,
    /// Third-party VMs.
    pub third: ClassShares,
}

/// Computes Figure 6 by running the FFT classifier over the trace.
pub fn class_core_hours(trace: &Trace) -> ClassCoreHours {
    let mut detector = PeriodicityDetector::new(PeriodicityConfig::default());
    // Accumulators: [DI, interactive, unknown] core-hours per party.
    let mut acc: [[f64; 3]; 2] = [[0.0; 3]; 2];
    for id in trace.vm_ids() {
        let vm = trace.vm(id);
        let end = vm.deleted.min(trace.window_end());
        let ch = vm.sku.cores as f64 * end.since(vm.created).as_hours_f64();
        let class = classify_vm(trace, id, &mut detector);
        let slot = match class {
            Some(0) => 0,
            Some(_) => 1,
            None => 2,
        };
        let p = usize::from(vm.party == Party::Third);
        acc[p][slot] += ch;
    }
    let shares = |a: [f64; 3]| {
        let total: f64 = a.iter().sum();
        let t = total.max(1e-9);
        ClassShares { delay_insensitive: a[0] / t, interactive: a[1] / t, unknown: a[2] / t }
    };
    let total = [acc[0][0] + acc[1][0], acc[0][1] + acc[1][1], acc[0][2] + acc[1][2]];
    ClassCoreHours { total: shares(total), first: shares(acc[0]), third: shares(acc[1]) }
}

/// Figure 7: VM arrivals per hour at one region over one week.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalSeries {
    /// First day of the window (days since trace epoch).
    pub start_day: u64,
    /// Arrivals per hour, 168 entries.
    pub per_hour: Vec<u64>,
}

/// Computes Figure 7 for `region` over the week starting at `start_day`.
pub fn arrivals_per_hour(trace: &Trace, region: RegionId, start_day: u64) -> ArrivalSeries {
    let start = Timestamp::from_days(start_day);
    let end = Timestamp::from_days(start_day + 7);
    let mut per_hour = vec![0u64; 168];
    for vm in &trace.vms {
        if vm.region == region && vm.created >= start && vm.created < end {
            let hour = (vm.created.as_secs() - start.as_secs()) / 3600;
            per_hour[hour as usize] += 1;
        }
    }
    ArrivalSeries { start_day, per_hour }
}

/// Computes Figure 8: Spearman correlations between the seven §3 metrics.
///
/// The workload class only exists for VMs observed at least 3 days, so
/// the matrix is computed over classified VMs (numbering the classes 1 =
/// delay-insensitive and 2 = interactive, as the paper does). `party`
/// restricts the population (`None` = whole platform).
pub fn metric_correlations(trace: &Trace, party: Option<Party>) -> CorrelationMatrix {
    use std::collections::HashMap;
    // Max day-grouped deployment size per (subscription, region, day).
    let mut groups: HashMap<(u32, u16, u64), u64> = HashMap::new();
    for vm in &trace.vms {
        *groups.entry((vm.subscription.0, vm.region.0, vm.created.day_index())).or_default() += 1;
    }
    let mut detector = PeriodicityDetector::new(PeriodicityConfig::default());
    let mut avg_col = Vec::new();
    let mut p95_col = Vec::new();
    let mut cores_col = Vec::new();
    let mut mem_col = Vec::new();
    let mut life_col = Vec::new();
    let mut dep_col = Vec::new();
    let mut class_col = Vec::new();
    for id in trace.vm_ids() {
        let vm = trace.vm(id);
        if party.is_some_and(|p| vm.party != p) {
            continue;
        }
        let Some(class) = classify_vm(trace, id, &mut detector) else {
            continue;
        };
        let (avg, p95) = trace.vm_util_summary(id, UTIL_SAMPLES);
        avg_col.push(avg);
        p95_col.push(p95);
        cores_col.push(vm.sku.cores as f64);
        mem_col.push(vm.sku.memory_gb);
        life_col.push(vm.lifetime().as_hours_f64());
        dep_col.push(groups[&(vm.subscription.0, vm.region.0, vm.created.day_index())] as f64);
        class_col.push(1.0 + class as f64);
    }
    CorrelationMatrix::compute(&[
        ("avg util".to_string(), avg_col),
        ("p95 util".to_string(), p95_col),
        ("cores".to_string(), cores_col),
        ("memory".to_string(), mem_col),
        ("lifetime".to_string(), life_col),
        ("deployment".to_string(), dep_col),
        ("class".to_string(), class_col),
    ])
}

/// §3.1's VM-type statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VmTypeStats {
    /// IaaS share of all VMs.
    pub iaas_vm_share: f64,
    /// IaaS share of first-party VMs.
    pub first_iaas_share: f64,
    /// IaaS share of third-party VMs.
    pub third_iaas_share: f64,
    /// PaaS share of total core-hours.
    pub paas_core_hour_share: f64,
    /// IaaS share of third-party core-hours.
    pub third_iaas_core_hour_share: f64,
    /// IaaS share of first-party core-hours.
    pub first_iaas_core_hour_share: f64,
    /// Fraction of subscriptions whose VMs are all one type.
    pub single_type_subscription_fraction: f64,
}

/// Computes §3.1's statistics.
pub fn vm_type_stats(trace: &Trace) -> VmTypeStats {
    use std::collections::HashMap;
    let mut counts = [[0u64; 2]; 2]; // [party][type]
    let mut core_hours = [[0f64; 2]; 2];
    let mut sub_types: HashMap<u32, [bool; 2]> = HashMap::new();
    for vm in &trace.vms {
        let p = usize::from(vm.party == Party::Third);
        let t = usize::from(vm.vm_type() == VmType::Paas);
        counts[p][t] += 1;
        let end = vm.deleted.min(trace.window_end());
        core_hours[p][t] += vm.sku.cores as f64 * end.since(vm.created).as_hours_f64();
        sub_types.entry(vm.subscription.0).or_default()[t] = true;
    }
    let total: u64 = counts.iter().flatten().sum();
    let iaas: u64 = counts[0][0] + counts[1][0];
    let total_ch: f64 = core_hours.iter().flatten().sum();
    let single = sub_types.values().filter(|t| !(t[0] && t[1])).count();
    VmTypeStats {
        iaas_vm_share: iaas as f64 / total.max(1) as f64,
        first_iaas_share: counts[0][0] as f64 / (counts[0][0] + counts[0][1]).max(1) as f64,
        third_iaas_share: counts[1][0] as f64 / (counts[1][0] + counts[1][1]).max(1) as f64,
        paas_core_hour_share: (core_hours[0][1] + core_hours[1][1]) / total_ch.max(1e-9),
        third_iaas_core_hour_share: core_hours[1][0]
            / (core_hours[1][0] + core_hours[1][1]).max(1e-9),
        first_iaas_core_hour_share: core_hours[0][0]
            / (core_hours[0][0] + core_hours[0][1]).max(1e-9),
        single_type_subscription_fraction: single as f64 / sub_types.len().max(1) as f64,
    }
}

/// Per-subscription consistency: the fraction of subscriptions (with at
/// least 3 VMs) whose CoV of each metric is below 1 — the §3 statistic
/// that justifies subscription-keyed prediction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsistencyReport {
    /// Average CPU utilization (§3.2: ~80% of subscriptions below 1).
    pub avg_util: f64,
    /// Cores per VM (§3.3: nearly all below 1).
    pub cores: f64,
    /// Memory per VM.
    pub memory: f64,
    /// Lifetime (§3.5: ~75% below 1).
    pub lifetime: f64,
    /// Day-grouped deployment size (§3.4: nearly all below 1).
    pub deployment_size: f64,
}

/// Computes the consistency report.
pub fn subscription_consistency(trace: &Trace) -> ConsistencyReport {
    use std::collections::HashMap;
    let mut groups: HashMap<(u32, u16, u64), u64> = HashMap::new();
    for vm in &trace.vms {
        *groups.entry((vm.subscription.0, vm.region.0, vm.created.day_index())).or_default() += 1;
    }
    let per_vm = |f: &dyn Fn(rc_types::vm::VmId) -> f64| -> Vec<(u32, f64)> {
        trace.vm_ids().map(|id| (trace.vm(id).subscription.0, f(id))).collect()
    };
    let avg_util = per_vm(&|id| trace.vm_util_summary(id, 60).0);
    let cores = per_vm(&|id| trace.vm(id).sku.cores as f64);
    let memory = per_vm(&|id| trace.vm(id).sku.memory_gb);
    let lifetime = per_vm(&|id| trace.vm(id).lifetime().as_hours_f64());
    let deployment: Vec<(u32, f64)> =
        groups.iter().map(|((sub, _, _), &count)| (*sub, count as f64)).collect();
    ConsistencyReport {
        avg_util: fraction_of_groups_with_low_cov(avg_util, 1.0, 3),
        cores: fraction_of_groups_with_low_cov(cores, 1.0, 3),
        memory: fraction_of_groups_with_low_cov(memory, 1.0, 3),
        lifetime: fraction_of_groups_with_low_cov(lifetime, 1.0, 3),
        deployment_size: fraction_of_groups_with_low_cov(deployment, 1.0, 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_trace::{Trace, TraceConfig};

    fn trace() -> Trace {
        Trace::generate(&TraceConfig {
            target_vms: 3_000,
            n_subscriptions: 150,
            days: 16,
            ..TraceConfig::small()
        })
    }

    #[test]
    fn party_cdfs_partition_the_population() {
        let t = trace();
        let cdfs = utilization_cdfs(&t);
        assert_eq!(cdfs.avg.first.len() + cdfs.avg.third.len(), cdfs.avg.all.len());
        assert_eq!(cdfs.avg.all.len(), t.n_vms());
        assert_eq!(cdfs.p95_max.all.len(), t.n_vms());
    }

    #[test]
    fn breakdowns_sum_to_one() {
        let t = trace();
        for b in [cores_breakdown(&t), memory_breakdown(&t)] {
            for shares in [&b.first, &b.third, &b.all] {
                let s: f64 = shares.iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "{shares:?}");
            }
            assert_eq!(b.labels.len(), b.all.len());
        }
    }

    #[test]
    fn deployment_cdf_counts_day_groups() {
        let t = trace();
        let cdfs = deployment_size_cdfs(&t);
        // Each group holds at least one VM, and the group count is bounded
        // by the VM count.
        assert!(cdfs.all.min().unwrap() >= 1.0);
        assert!(cdfs.all.len() <= t.n_vms());
        assert!(!cdfs.all.is_empty());
    }

    #[test]
    fn lifetime_cdf_uses_fully_observed_vms_only() {
        let t = trace();
        let cdfs = lifetime_cdfs(&t);
        let fully = t.vm_ids().filter(|&id| t.fully_observed(id)).count();
        assert_eq!(cdfs.all.len(), fully);
        assert!(fully < t.n_vms(), "some VMs must be censored");
    }

    #[test]
    fn class_shares_are_distributions() {
        let t = trace();
        let c = class_core_hours(&t);
        for s in [c.total, c.first, c.third] {
            let sum = s.delay_insensitive + s.interactive + s.unknown;
            assert!((sum - 1.0).abs() < 1e-6, "{s:?}");
            assert!(s.delay_insensitive >= 0.0 && s.interactive >= 0.0 && s.unknown >= 0.0);
        }
    }

    #[test]
    fn arrival_series_totals_match_region_counts() {
        let t = trace();
        let series = arrivals_per_hour(&t, rc_types::vm::RegionId(0), 2);
        let expected = t
            .vms
            .iter()
            .filter(|vm| {
                vm.region == rc_types::vm::RegionId(0)
                    && vm.created.day_index() >= 2
                    && vm.created.day_index() < 9
            })
            .count() as u64;
        assert_eq!(series.per_hour.iter().sum::<u64>(), expected);
    }

    #[test]
    fn correlations_have_unit_diagonal_and_symmetry() {
        let t = trace();
        let m = metric_correlations(&t, None);
        assert_eq!(m.labels.len(), 7);
        for i in 0..7 {
            assert!((m.values[i][i] - 1.0).abs() < 1e-12);
            for j in 0..7 {
                assert_eq!(m.values[i][j], m.values[j][i]);
                assert!(m.values[i][j].abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn vm_type_stats_are_fractions() {
        let t = trace();
        let s = vm_type_stats(&t);
        for v in [
            s.iaas_vm_share,
            s.first_iaas_share,
            s.third_iaas_share,
            s.paas_core_hour_share,
            s.third_iaas_core_hour_share,
            s.first_iaas_core_hour_share,
            s.single_type_subscription_fraction,
        ] {
            assert!((0.0..=1.0).contains(&v), "{s:?}");
        }
    }

    #[test]
    fn consistency_report_is_fractional() {
        let t = trace();
        let r = subscription_consistency(&t);
        for v in [r.avg_util, r.cores, r.memory, r.lifetime, r.deployment_size] {
            assert!((0.0..=1.0).contains(&v), "{r:?}");
        }
    }
}
