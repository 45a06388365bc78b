//! Observability for the Resource Central reproduction.
//!
//! Two facilities, both cheap enough for the predict hot path:
//!
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]):
//!   lock-free once a handle is held — every `record`/`increment` is a
//!   relaxed atomic op, no locks, no allocation. Histograms use
//!   log-linear buckets (32 linear sub-buckets per power of two, ≈3%
//!   relative error) so p50/p95/p99 extraction needs no sample storage.
//! - **Tracing** ([`Tracer`], [`Span`]): scoped timers and structured
//!   `key=value` events in a bounded ring buffer, dumpable as JSON
//!   lines; spans nest via [`Tracer::child_span`]. Spans are for the
//!   coarse-grained paths (pipeline stages, publishes), not
//!   per-prediction work.
//! - **Scoring** ([`Scorecard`]): the one confusion matrix with
//!   Table 4's accuracy, per-bucket precision/recall and `P^θ`/`R^θ`;
//!   offline validation, live tracking and the control loop all count
//!   through it.
//! - **Accuracy tracking** ([`AccuracyTracker`]): pairs predicted
//!   buckets with observed outcomes, maintains rolling accuracy and a
//!   per-metric [`Scorecard`], and raises a [`DriftSignal`] when rolling
//!   accuracy falls away from the published training-time baseline.
//! - **Bench reports** ([`report`]): the versioned `BENCH_*.json`
//!   schema and writer the bench binaries use.
//!
//! The core facilities have process-wide defaults ([`global`],
//! [`global_tracer`], [`global_accuracy`]) so
//! layers can meter themselves without plumbing a handle through every
//! constructor; bench binaries snapshot the same registry the layers
//! write to, which is what lets them drop their hand-rolled accounting.

mod accuracy;
mod alloc;
mod distribution;
mod metrics;
mod names;
pub mod report;
mod scorecard;
mod snapshot;
mod tracing;

pub use accuracy::{
    acc_confusion_name, acc_gauge_name, AccuracyTracker, DriftConfig, DriftSignal, DEFAULT_BASELINE,
};
pub use alloc::{thread_allocations, CountingAllocator};
pub use distribution::{
    counts_psi, feature_gauge_name, FeatureHistogram, LeadingDrift, LeadingDriftConfig,
    LeadingDriftMonitor, LeadingObservation, WindowSketch, SKETCH_BINS,
};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use names::*;
pub use report::BenchReport;
pub use scorecard::Scorecard;
pub use snapshot::{
    BucketCount, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot,
};
pub use tracing::{Span, SpanRecord, TraceEvent, Tracer};

use std::sync::OnceLock;

/// The process-wide default metrics registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide default tracer (4096-event ring).
pub fn global_tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(4096))
}

/// The process-wide default accuracy tracker; its gauges land in
/// [`global`]'s registry. Layers report predictions/outcomes here when
/// no explicit tracker is injected.
pub fn global_accuracy() -> &'static AccuracyTracker {
    static GLOBAL: OnceLock<AccuracyTracker> = OnceLock::new();
    GLOBAL.get_or_init(|| AccuracyTracker::with_registry(global().clone(), DriftConfig::default()))
}
