//! RC-informed VM scheduling (§5) and its simulator (§6.2).
//!
//! The production scheduler is a rule chain: hard rules narrow the
//! candidate servers, soft rules are dropped when they would eliminate
//! every candidate. This crate implements Algorithm 1 of the paper — the
//! CPU-oversubscription rule plus its PlaceVM / VMCompleted bookkeeping —
//! and an event-driven simulator faithful to the paper's methodology
//! (5-minute aggregation of co-located VMs' maximum utilizations,
//! scheduling-failure counting), covering all six §6.2 policies:
//! Baseline, Naive, RC-informed-soft/-hard, RC-soft-right and
//! RC-soft-wrong.

pub mod policy;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod simulator;
pub mod stream_source;

pub use policy::{NoSource, OracleSource, P95Source, PolicyKind, RcSource, WrongSource};
pub use request::VmRequest;
pub use scheduler::{Placement, Scheduler, SchedulerConfig};
pub use server::{Server, ServerFleet, ServerKind};
pub use simulator::{
    simulate, simulate_partitioned, simulate_stream, suggest_server_count,
    suggest_server_count_stream, SimConfig, SimReport, OBS_TICK_DAILY,
};
pub use stream_source::StreamRequestSource;
