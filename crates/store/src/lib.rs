//! A simulated highly-available versioned store.
//!
//! §4.2 of the paper: "RC orchestrates these phases, sanity-checks the
//! models and feature data, and publishes them (with version numbers) to
//! an existing highly available store." This crate substitutes that store
//! with an in-process, thread-safe, versioned key-value map ([`Store`])
//! with a [`LatencyModel`] calibrated to the paper's reported store
//! latencies (median 2.9 ms, p99 5.6 ms for ~850-byte feature records)
//! and an availability switch for exercising the client library's
//! degraded paths (local disk cache, no-prediction replies).
//!
//! For robustness experiments, [`FaultyStore`] is the one fault layer:
//! it wraps a [`Store`] with seeded, deterministic faults from a
//! [`FaultPlan`] (per-op unavailability, transient error bursts, latency
//! spikes, payload corruption) and with faults a caller arms and heals
//! explicitly (a put outage after a budget, a brownout of one key shard,
//! a race on the manifest flip).

#![forbid(unsafe_code)]

pub mod fault;
pub mod kv;
pub mod latency;
pub mod manifest;
pub mod quarantine;

pub use fault::{brownout_shard_of, FaultInjector, FaultPlan, FaultyStore, BROWNOUT_SHARDS};
pub use kv::{fingerprint, PublishRace, Store, StoreBackend, StoreError, VersionedRecord};
pub use latency::LatencyModel;
pub use manifest::{
    checksum, rollback, FeatureEntry, Manifest, ModelEntry, RollbackError, MANIFEST_KEY,
};
pub use quarantine::{manifest_models_digest, models_digest, QuarantineSet, QUARANTINE_KEY};
