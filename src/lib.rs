//! # Resource Central — a reproduction in Rust
//!
//! A full reimplementation of *Resource Central: Understanding and
//! Predicting Workloads for Improved Resource Management in Large Cloud
//! Platforms* (SOSP 2017): workload characterization, an offline
//! learning pipeline with from-scratch Random Forests / gradient-boosted
//! trees / FFT periodicity detection, a client-side prediction-serving
//! library, and a prediction-informed oversubscribing VM scheduler with
//! its simulator.
//!
//! This crate re-exports the whole workspace under one roof:
//!
//! - [`types`]: shared domain vocabulary (VMs, SKUs, buckets, time).
//! - [`trace`]: the calibrated synthetic Azure-like workload generator.
//! - [`ml`]: the learning substrate.
//! - [`store`]: the simulated highly-available versioned store.
//! - [`core`]: Resource Central itself (pipeline + client library).
//! - [`lifecycle`]: the continuous control loop (rolling retrain, shadow
//!   validation, auto-promote/rollback).
//! - [`obs`]: observability (metrics, drift monitors, distribution
//!   sketches, bench reports).
//! - [`scheduler`]: Algorithm 1 and the cluster simulator.
//! - [`analysis`]: §3 characterization (Figures 1–8).
//!
//! ## Quickstart
//!
//! ```
//! use resource_central::prelude::*;
//!
//! // 1. A synthetic cloud workload, calibrated to the paper's figures.
//! let config = TraceConfig { target_vms: 4_000, n_subscriptions: 200, days: 24, ..TraceConfig::small() };
//! let trace = Trace::generate(&config);
//!
//! // 2. Learn models offline; publish models + feature data to the store.
//! let output = run_pipeline(&trace, &PipelineConfig::fast(24)).unwrap();
//! let store = Store::in_memory();
//! output.publish(&store, 0.5).unwrap();
//!
//! // 3. Serve predictions from the client library.
//! let client = RcClient::new(store, ClientConfig::default());
//! assert!(client.initialize());
//! let inputs = rc_core::labels::vm_inputs(&trace, rc_types::VmId(42));
//! let response = client.predict_single("VM_P95UTIL", &inputs);
//! assert!(response.is_predicted() || response == PredictionResponse::NoPrediction);
//! ```

#![forbid(unsafe_code)]

pub use rc_analysis as analysis;
pub use rc_core as core;
pub use rc_loop as lifecycle;
pub use rc_ml as ml;
pub use rc_obs as obs;
pub use rc_scheduler as scheduler;
pub use rc_store as store;
pub use rc_trace as trace;
pub use rc_types as types;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use rc_analysis::{Cdf, CorrelationMatrix};
    pub use rc_core::{
        cleanup, run_pipeline, BreakerConfig, CacheMode, ClientConfig, ClientHealth, ClientInputs,
        DegradedReason, PipelineConfig, PipelineError, PipelineOutput, Prediction,
        PredictionResponse, PublishGate, QuarantineReport, RcClient, RetryPolicy, Served,
    };
    pub use rc_loop::{ChaosPlan, LoopConfig, LoopController, LoopSummary, WorkloadShift};
    pub use rc_ml::Classifier;
    pub use rc_obs::{
        AccuracyTracker, BenchReport, DriftConfig, DriftSignal, LeadingDriftConfig,
        LeadingDriftMonitor, WindowSketch,
    };
    pub use rc_scheduler::{
        simulate, simulate_partitioned, simulate_stream, suggest_server_count,
        suggest_server_count_stream, PolicyKind, SchedulerConfig, SimConfig, SimReport,
        StreamRequestSource, VmRequest,
    };
    pub use rc_store::{
        rollback, FaultPlan, FaultyStore, LatencyModel, Manifest, Store, StoreBackend,
    };
    pub use rc_trace::{DirtyPlan, DirtyVmStream, Trace, TraceConfig, VmStream};
    pub use rc_types::{PredictionMetric, Timestamp, VmId};
}
