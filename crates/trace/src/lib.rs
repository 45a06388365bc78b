//! Calibrated synthetic Azure-like VM workload traces.
//!
//! The paper's evaluation runs on three months of production telemetry
//! that we cannot have; this crate substitutes a generator whose output is
//! *calibrated to every distribution the paper reports* (see
//! [`calibration`] for the figure-by-figure targets) and which preserves
//! the one property the whole system rests on: VMs of the same
//! subscription behave consistently, so per-subscription history predicts
//! the future.
//!
//! ```
//! use rc_trace::{Trace, TraceConfig};
//!
//! let config = TraceConfig { target_vms: 2_000, n_subscriptions: 100, days: 20, ..TraceConfig::small() };
//! let trace = Trace::generate(&config);
//! assert!(trace.n_vms() > 500);
//! let id = rc_types::VmId(0);
//! let (avg_util, p95_util) = trace.vm_util_summary(id, 1_000);
//! assert!(avg_util <= p95_util + 1e-9);
//! ```

pub mod arrival;
pub mod calibration;
pub mod degrade;
pub mod dirty;
pub mod generator;
pub mod profile;
pub mod sampler;
pub mod stream;
pub mod trace;
pub mod utilization;

pub use arrival::{ArrivalIter, ArrivalProcess};
pub use degrade::{ramp_severity, TelemetryDegrade};
pub use dirty::{trace_fingerprint, DirtyPlan, DirtyReport};
pub use generator::TraceConfig;
pub use profile::{ProfileConfig, SubscriptionProfile};
pub use stream::{DirtyVmStream, StreamedVm, VmStream};
pub use trace::{DeploymentRecord, Trace, CLASSIFY_MAX_DAYS, CLASSIFY_MIN_DAYS};
pub use utilization::UtilParams;
