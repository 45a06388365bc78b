//! Shared domain types for the Resource Central reproduction.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! - [`time`]: timestamps, the 5-minute telemetry interval, diurnal helpers.
//! - [`vm`]: VM identity, type (IaaS/PaaS), party (first/third), SKU catalog.
//! - [`telemetry`]: per-interval utilization readings and VM records.
//! - [`buckets`]: the prediction buckets of Table 3 of the paper.
//! - [`metrics`]: the six predicted metrics of Table 1/4.
//! - [`fnv`]: the FNV-1a hash behind every checksum, cache key and digest.
//!
//! The types are deliberately plain (mostly `Copy` newtypes and enums) so the
//! trace generator, the ML pipeline, and the scheduler simulator can exchange
//! them without conversion layers.

#![forbid(unsafe_code)]

pub mod buckets;
pub mod fnv;
pub mod metrics;
pub mod telemetry;
pub mod time;
pub mod vm;

pub use buckets::{
    Bucketizer, DeploymentSizeBucketizer, LifetimeBucketizer, UtilizationBucketizer, WorkloadClass,
    WorkloadClassBucketizer,
};
pub use fnv::{fnv1a, Fnv1a};
pub use metrics::PredictionMetric;
pub use telemetry::{UtilReading, VmRecord};
pub use time::{Duration, Timestamp, TELEMETRY_INTERVAL};
pub use vm::{
    ClusterId, DeploymentId, OsType, Party, ProdTag, RegionId, SubscriptionId, VmId, VmRole, VmSku,
    VmType, SKU_CATALOG,
};
