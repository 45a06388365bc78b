//! Versioned publish manifests: the atomic-flip pointer behind the
//! pipeline's two-phase publish.
//!
//! §4.2's store publishes "with version numbers", and a production
//! prediction-serving system must never let a reader observe half a
//! publication. The protocol here: write every model and feature payload
//! under a fresh `v{N}/` key prefix (phase one — invisible to readers),
//! then flip a single checksummed [`Manifest`] record at
//! [`MANIFEST_KEY`] (phase two — one `put`, atomic by the store's
//! per-key versioning). The manifest lists every payload key with its
//! FNV-1a checksum and each model's validation accuracy, and records
//! `last_good` — the version that was serving before the flip — so a bad
//! publication can be [`rollback`]-ed without retraining.
//!
//! A failure during phase one leaves unreachable `v{N}/` garbage and an
//! untouched manifest: readers keep seeing the old complete version. A
//! reader that decodes the manifest and then fetches its keys sees either
//! the old complete set or the new complete set, never a mix.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::kv::{StoreBackend, StoreError};

/// The single store key the manifest pointer lives at.
pub const MANIFEST_KEY: &str = "manifest/current";

/// FNV-1a over a payload — the checksum recorded per manifest entry.
pub fn checksum(bytes: &[u8]) -> u64 {
    rc_types::fnv1a(bytes)
}

/// One published model payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelEntry {
    /// Logical key, e.g. `model/VM_AVGUTIL` (version prefix excluded).
    pub key: String,
    /// FNV-1a checksum of the payload bytes.
    pub checksum: u64,
    /// Test-set accuracy the model validated at — the baseline the next
    /// publish's regression gate compares against.
    pub accuracy: f64,
}

/// One published feature-data payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureEntry {
    /// Logical key, e.g. `features/42` (version prefix excluded).
    pub key: String,
    /// FNV-1a checksum of the payload bytes.
    pub checksum: u64,
}

/// The checksummed pointer record a publish flips.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// The publication version this manifest points at; payloads live
    /// under [`Manifest::version_prefix`]`(version)`.
    pub version: u64,
    /// The previous fully-validated version (`0` = none): the target of
    /// [`rollback`].
    pub last_good: u64,
    /// Human-readable provenance (trace seed, train split).
    pub version_tag: String,
    /// Every model payload of this version.
    pub models: Vec<ModelEntry>,
    /// Every feature-data payload of this version.
    pub features: Vec<FeatureEntry>,
    /// Self-checksum over every field above; a manifest whose stored
    /// checksum disagrees is corrupt and must not be followed.
    pub checksum: u64,
}

impl Manifest {
    /// Builds a sealed manifest (checksum filled in).
    pub fn new(
        version: u64,
        last_good: u64,
        version_tag: String,
        models: Vec<ModelEntry>,
        features: Vec<FeatureEntry>,
    ) -> Self {
        let mut manifest =
            Manifest { version, last_good, version_tag, models, features, checksum: 0 };
        manifest.checksum = manifest.digest();
        manifest
    }

    /// The key prefix payloads of `version` live under.
    pub fn version_prefix(version: u64) -> String {
        format!("v{version}/")
    }

    /// Resolves a logical key (`model/...`, `features/...`) to the store
    /// key of this manifest's version.
    pub fn versioned_key(&self, logical: &str) -> String {
        format!("v{}/{logical}", self.version)
    }

    /// The recorded model entry for a logical key.
    pub fn model_entry(&self, logical: &str) -> Option<&ModelEntry> {
        self.models.iter().find(|e| e.key == logical)
    }

    /// The recorded feature entry for a logical key.
    pub fn feature_entry(&self, logical: &str) -> Option<&FeatureEntry> {
        self.features.iter().find(|e| e.key == logical)
    }

    fn digest(&self) -> u64 {
        // Canonical byte stream over every field except the checksum
        // itself; floats hash by bit pattern so the digest is exact.
        let mut bytes = Vec::with_capacity(64 + 32 * (self.models.len() + self.features.len()));
        bytes.extend_from_slice(&self.version.to_le_bytes());
        bytes.extend_from_slice(&self.last_good.to_le_bytes());
        bytes.extend_from_slice(self.version_tag.as_bytes());
        for e in &self.models {
            bytes.push(0x1f);
            bytes.extend_from_slice(e.key.as_bytes());
            bytes.extend_from_slice(&e.checksum.to_le_bytes());
            bytes.extend_from_slice(&e.accuracy.to_bits().to_le_bytes());
        }
        for e in &self.features {
            bytes.push(0x1e);
            bytes.extend_from_slice(e.key.as_bytes());
            bytes.extend_from_slice(&e.checksum.to_le_bytes());
        }
        checksum(&bytes)
    }

    /// Whether the stored checksum matches the fields.
    pub fn verify(&self) -> bool {
        self.checksum == self.digest()
    }

    /// Whether this manifest records a version to roll back to. The
    /// first publication stores `last_good == 0` (there was nothing
    /// serving before it), so [`rollback`] on it fails with
    /// [`RollbackError::NoLastGood`] instead of chasing the sentinel;
    /// callers that want to avoid the error path entirely check here
    /// first.
    pub fn can_rollback(&self) -> bool {
        self.last_good != 0
    }

    /// Serializes for a store `put`.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails, which requires non-finite floats;
    /// validated accuracies are always finite.
    pub fn to_bytes(&self) -> Bytes {
        Bytes::from(serde_json::to_vec(self).expect("manifest serialization"))
    }

    /// Decodes and checksum-verifies manifest bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Manifest> {
        let manifest: Manifest = serde_json::from_slice(bytes).ok()?;
        manifest.verify().then_some(manifest)
    }

    /// Reads the currently published manifest.
    ///
    /// `Ok(None)` when no manifest has ever been published *or* the
    /// stored record is corrupt (a reader must not follow it either way).
    ///
    /// # Errors
    ///
    /// Propagates retryable store errors so callers can distinguish "no
    /// manifest" from "store down".
    pub fn read_current<B: StoreBackend + ?Sized>(
        store: &B,
    ) -> Result<Option<Manifest>, StoreError> {
        match store.get_latest(MANIFEST_KEY) {
            Ok(rec) => Ok(Manifest::from_bytes(&rec.data)),
            Err(StoreError::NotFound) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Why a [`rollback`] could not happen.
#[derive(Debug, PartialEq, Eq)]
pub enum RollbackError {
    /// No manifest has ever been published.
    NoManifest,
    /// The current manifest records no `last_good` to roll back to.
    NoLastGood,
    /// No retained manifest version points at `last_good` (history
    /// truncated or corrupt).
    HistoryMissing,
    /// The store failed mid-rollback.
    Store(StoreError),
}

impl std::fmt::Display for RollbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RollbackError::NoManifest => write!(f, "no manifest published"),
            RollbackError::NoLastGood => write!(f, "current manifest has no last_good"),
            RollbackError::HistoryMissing => write!(f, "no retained manifest for last_good"),
            RollbackError::Store(e) => write!(f, "store failed during rollback: {e}"),
        }
    }
}

impl std::error::Error for RollbackError {}

/// Restores `last_good` as the serving version: finds the retained
/// manifest that published it (every flip is one more store version of
/// [`MANIFEST_KEY`], so history is right there) and re-puts it as the
/// newest manifest. Payloads are never touched — `v{last_good}/` keys
/// are still in the store.
///
/// Returns the version now serving. Clients notice the flip through
/// their store fingerprint and reload.
///
/// # Errors
///
/// See [`RollbackError`].
pub fn rollback<B: StoreBackend + ?Sized>(store: &B) -> Result<u64, RollbackError> {
    let current = match Manifest::read_current(store) {
        Ok(Some(m)) => m,
        Ok(None) => return Err(RollbackError::NoManifest),
        Err(e) => return Err(RollbackError::Store(e)),
    };
    if current.last_good == 0 {
        return Err(RollbackError::NoLastGood);
    }
    let newest = store.latest_version(MANIFEST_KEY).unwrap_or(0);
    // Walk the manifest key's own version history, newest first, for the
    // manifest that published `last_good`.
    for store_version in (1..=newest).rev() {
        let rec = match store.get_version(MANIFEST_KEY, store_version) {
            Ok(rec) => rec,
            Err(StoreError::NotFound) => continue,
            Err(e) => return Err(RollbackError::Store(e)),
        };
        if let Some(m) = Manifest::from_bytes(&rec.data) {
            if m.version == current.last_good {
                // Conditional on the pointer version read above: a writer
                // that flips the manifest mid-walk wins, and the rollback
                // surfaces the race instead of clobbering the new publish.
                store
                    .put_if_version(MANIFEST_KEY, rec.data, newest)
                    .map_err(RollbackError::Store)?;
                rc_obs::global().counter(rc_obs::PIPELINE_ROLLBACKS).increment();
                let mut span = rc_obs::global_tracer().span("store.rollback");
                span.record("from", current.version).record("to", m.version);
                span.finish();
                return Ok(m.version);
            }
        }
    }
    Err(RollbackError::HistoryMissing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Store;

    fn manifest(version: u64, last_good: u64) -> Manifest {
        Manifest::new(
            version,
            last_good,
            format!("test-v{version}"),
            vec![ModelEntry { key: "model/A".into(), checksum: 11, accuracy: 0.9 }],
            vec![FeatureEntry { key: "features/1".into(), checksum: 22 }],
        )
    }

    #[test]
    fn seal_verify_round_trip() {
        let m = manifest(3, 2);
        assert!(m.verify());
        let decoded = Manifest::from_bytes(&m.to_bytes()).expect("round trip");
        assert_eq!(decoded, m);
    }

    #[test]
    fn tampered_manifest_fails_verification() {
        let mut m = manifest(3, 2);
        m.models[0].accuracy = 0.5;
        assert!(!m.verify());
        assert!(Manifest::from_bytes(&m.to_bytes()).is_none());
        let garbage = b"not a manifest";
        assert!(Manifest::from_bytes(garbage).is_none());
    }

    #[test]
    fn versioned_keys_carry_the_prefix() {
        let m = manifest(7, 0);
        assert_eq!(m.versioned_key("model/A"), "v7/model/A");
        assert_eq!(Manifest::version_prefix(7), "v7/");
        assert!(m.model_entry("model/A").is_some());
        assert!(m.model_entry("model/B").is_none());
        assert!(m.feature_entry("features/1").is_some());
    }

    #[test]
    fn read_current_distinguishes_missing_corrupt_and_down() {
        let store = Store::in_memory();
        assert_eq!(Manifest::read_current(&store).unwrap(), None);
        store.put(MANIFEST_KEY, Bytes::from_static(b"garbage")).unwrap();
        assert_eq!(Manifest::read_current(&store).unwrap(), None, "corrupt manifest is unusable");
        store.put(MANIFEST_KEY, manifest(1, 0).to_bytes()).unwrap();
        assert_eq!(Manifest::read_current(&store).unwrap().unwrap().version, 1);
        store.set_available(false);
        assert_eq!(Manifest::read_current(&store), Err(StoreError::Unavailable));
    }

    #[test]
    fn rollback_restores_last_good() {
        let store = Store::in_memory();
        store.put(MANIFEST_KEY, manifest(1, 0).to_bytes()).unwrap();
        store.put(MANIFEST_KEY, manifest(2, 1).to_bytes()).unwrap();
        let restored = rollback(&store).expect("rollback");
        assert_eq!(restored, 1);
        let current = Manifest::read_current(&store).unwrap().unwrap();
        assert_eq!(current.version, 1);
        // Rolling back again: version 1 has no last_good.
        assert_eq!(rollback(&store), Err(RollbackError::NoLastGood));
    }

    #[test]
    fn rollback_without_history_fails_cleanly() {
        let store = Store::in_memory();
        assert_eq!(rollback(&store), Err(RollbackError::NoManifest));
        // A manifest claiming a last_good that was never stored.
        store.put(MANIFEST_KEY, manifest(5, 4).to_bytes()).unwrap();
        assert_eq!(rollback(&store), Err(RollbackError::HistoryMissing));
    }
}
