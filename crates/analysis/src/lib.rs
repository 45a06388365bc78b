//! Workload characterization toolkit (§3 of the paper).
//!
//! Everything needed to regenerate Figures 1–8 from a trace: empirical
//! CDFs and coefficient-of-variation statistics ([`stats`]), Spearman
//! rank correlations ([`mod@spearman`]), and the figure-by-figure extraction
//! functions ([`characterize`]), including the FFT-based workload
//! classification and core-hour accounting behind Figure 6.

#![forbid(unsafe_code)]

pub mod characterize;
pub mod spearman;
pub mod stats;

pub use characterize::{
    arrivals_per_hour, class_core_hours, cores_breakdown, deployment_size_cdfs, lifetime_cdfs,
    memory_breakdown, metric_correlations, subscription_consistency, utilization_cdfs,
    vm_type_stats, ArrivalSeries, ClassCoreHours, ClassShares, ConsistencyReport, PartyCdfs,
    SizeBreakdown, UtilizationCdfs, VmTypeStats,
};
pub use spearman::{spearman, CorrelationMatrix};
pub use stats::{coefficient_of_variation, fraction_of_groups_with_low_cov, mean, std_dev, Cdf};
