//! The continuous control loop: RC as a *lifecycle*, not a one-shot run.
//!
//! §4.2 of the paper describes Resource Central as an always-on service:
//! "RC periodically produces new models and feature data ... and pushes
//! them in the background", with sanity checks before publication and a
//! highly available store between the offline and online halves. The
//! other crates provide every individual mechanism — streaming ingest
//! ([`rc_trace`]), training and gated two-phase publication
//! ([`rc_core::pipeline`]), drift detection ([`rc_obs::AccuracyTracker`]),
//! rollback and quarantine ([`rc_store`]) — but nothing closed the loop.
//!
//! [`LoopController`] does, on a deterministic simulated clock. Each tick:
//!
//! 1. **Ingest** the next rolling telemetry window (optionally dirty),
//!    quarantining malformed records up front;
//! 2. **Serve** the window through the currently published models and
//!    score every prediction against ground truth (feeding the drift
//!    monitor's rolling windows);
//! 3. **Retrain** when drift trips or the refresh cadence expires, with
//!    per-metric fault isolation;
//! 4. **Shadow-evaluate** the candidate against the serving models on a
//!    replay slice — no client-visible effect;
//! 5. **Promote** through the publish gate's two-phase atomic flip only
//!    if the shadow comparison passes;
//! 6. **Watch** live accuracy after the flip and auto-**rollback** (and
//!    quarantine the bad content digest from ever re-promoting) if it
//!    regresses past the hysteresis thresholds.
//!
//! Chaos — store outages mid-flip, corrupted telemetry mid-window,
//! training panics — degrades exactly one tick and never wedges the
//! loop: every failure path lands back in the steady state with the
//! previously published version still serving. The whole soak is a pure
//! function of [`LoopConfig`] (same seed ⇒ bit-identical event journal).

#![forbid(unsafe_code)]

pub mod chaos;
pub mod controller;

pub use chaos::ChaosPlan;
pub use controller::{
    LoopConfig, LoopController, LoopEvent, LoopSummary, MetricAccuracy, RetrainReason, TickEvent,
    WorkloadShift,
};
