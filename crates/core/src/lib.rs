//! Resource Central: the paper's primary contribution.
//!
//! RC "collects VM telemetry, periodically learns these behaviors into
//! prediction models offline, and provides behavior predictions online to
//! various resource management systems" (§1). This crate implements both
//! halves:
//!
//! - **Offline** ([`pipeline`]): extraction, cleanup, time-ordered
//!   aggregation into per-subscription feature data, featurization
//!   ([`features`], widths matching Table 1), training (Random Forests and
//!   gradient-boosted trees from `rc-ml`, FFT labelling for the workload
//!   class), validation (Table 4's measures), and versioned publication to
//!   the store.
//! - **Online** ([`client`]): the thread-safe client library of Table 2 —
//!   `initialize`, `get_available_models`, `predict_single`,
//!   `predict_many`, `force_reload_cache`, `flush_cache` — with result,
//!   model, and feature caches, push/pull modes, and a local disk cache
//!   consulted when the store is unavailable.

#![forbid(unsafe_code)]

pub mod cache;
pub mod cleanup;
pub mod client;
pub mod features;
pub mod inputs;
pub mod labels;
pub mod models;
pub mod pipeline;
pub mod prediction;
pub mod resilience;

pub use cache::{DiskCache, DiskLoadResult, ShardedResultCache};
pub use cleanup::{cleanup, QuarantineReport};
pub use client::{CacheMode, ClientConfig, RcClient};
pub use features::SubscriptionFeatures;
pub use inputs::ClientInputs;
pub use labels::{label_deployments, label_vms, LabeledDeployment, LabeledVm};
pub use models::{feature_store_key, Estimator, ModelApproach, ModelSpec, TrainedModel};
pub use pipeline::{
    run_pipeline, BucketStats, MetricReport, PipelineConfig, PipelineError, PipelineOutput,
    PublishGate,
};
pub use prediction::{Prediction, PredictionResponse, Served, ShadowPrediction};
pub use resilience::{BreakerConfig, BreakerState, ClientHealth, DegradedReason, RetryPolicy};
