//! The versioned key-value store.
//!
//! RC publishes models and feature data "with version numbers, to an
//! existing highly available store" present in each datacenter (§4.2).
//! This module provides that store's semantics in-process: versioned puts,
//! latest-or-pinned gets, and an availability switch so tests and
//! examples can exercise the client's degraded paths (disk cache,
//! no-prediction).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rc_obs::{Counter, Histogram};
use rc_types::Fnv1a;

use crate::latency::LatencyModel;

/// A compare-and-swap write lost: the key moved past the version the
/// writer read before composing its update. Carried by
/// [`StoreError::Race`] so publishers can distinguish "another writer
/// got there first" (re-read and re-decide) from infrastructure
/// failures (retry blindly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishRace {
    /// The latest version the writer expected to still be current
    /// (0 = the key was expected to not exist yet).
    pub expected: u64,
    /// The latest version actually found at write time.
    pub actual: u64,
}

impl std::fmt::Display for PublishRace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "publish race: expected current version {}, found {}", self.expected, self.actual)
    }
}

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The store (or connectivity to it) is unavailable.
    Unavailable,
    /// No record exists for the key (or key/version pair).
    NotFound,
    /// A transient error (timeout, throttle, connection reset): the store
    /// is up, but this particular access failed. Retryable.
    Transient,
    /// A conditional write lost a race with a concurrent writer. Not
    /// blindly retryable: the caller must re-read the current state and
    /// decide whether its update still makes sense.
    Race(PublishRace),
}

impl StoreError {
    /// True for errors a client may reasonably retry; `NotFound` and
    /// `Race` are authoritative answers, not failures.
    pub fn is_retryable(&self) -> bool {
        matches!(self, StoreError::Unavailable | StoreError::Transient)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Unavailable => write!(f, "store unavailable"),
            StoreError::NotFound => write!(f, "record not found"),
            StoreError::Transient => write!(f, "transient store error"),
            StoreError::Race(race) => race.fmt(f),
        }
    }
}

impl std::error::Error for StoreError {}

/// The store surface the client library and the pipeline's publish path
/// depend on.
///
/// Abstracting it lets a [`crate::FaultyStore`] (or any future remote
/// backend) slot in where a plain [`Store`] is expected, without the
/// caller knowing whether faults are being injected underneath it. The
/// client only reads; the pipeline's two-phase publish also writes
/// through [`StoreBackend::put`], so torn-publish tests can inject a
/// failure at any write index.
pub trait StoreBackend: Send + Sync {
    /// Whether the store currently accepts requests.
    fn is_available(&self) -> bool;
    /// All keys with at least one version, sorted.
    fn keys(&self) -> Vec<String>;
    /// Reads the latest version of `key`.
    fn get_latest(&self, key: &str) -> Result<VersionedRecord, StoreError>;
    /// Reads a specific version of `key`.
    fn get_version(&self, key: &str, version: u64) -> Result<VersionedRecord, StoreError>;
    /// Latest version number of `key`, if any.
    fn latest_version(&self, key: &str) -> Option<u64>;
    /// Writes a new version of `key`, returning the version number.
    fn put(&self, key: &str, data: Bytes) -> Result<u64, StoreError>;
    /// Conditional write: appends a new version of `key` only if the
    /// key's latest version still equals `expected_current` (0 = the key
    /// must not exist yet). A losing writer gets [`StoreError::Race`]
    /// instead of silently becoming the last writer.
    ///
    /// The default implementation is check-then-put and therefore only
    /// as atomic as the backend's individual operations; [`Store`]
    /// overrides it to decide under its write lock, and fault-injecting
    /// wrappers should delegate to the wrapped store's implementation
    /// after their own fault decision.
    fn put_if_version(
        &self,
        key: &str,
        data: Bytes,
        expected_current: u64,
    ) -> Result<u64, StoreError> {
        let actual = self.latest_version(key).unwrap_or(0);
        if actual != expected_current {
            return Err(StoreError::Race(PublishRace { expected: expected_current, actual }));
        }
        self.put(key, data)
    }
}

/// A versioned record.
#[derive(Debug, Clone)]
pub struct VersionedRecord {
    /// Monotonically increasing version, starting at 1 per key.
    pub version: u64,
    /// Record payload.
    pub data: Bytes,
}

/// The simulated highly available store.
///
/// Cheap to clone (all state behind `Arc`), thread-safe, and optionally
/// attaches a [`LatencyModel`]: when one is set, every access *spins* for a
/// sampled latency so that client-side measurements (Figure 10, §6.1's
/// pull-path numbers) see realistic store costs.
#[derive(Clone)]
pub struct Store {
    inner: Arc<StoreInner>,
}

struct StoreInner {
    records: RwLock<HashMap<String, Vec<VersionedRecord>>>,
    available: AtomicBool,
    latency: Option<LatencyModel>,
    latency_rng: parking_lot::Mutex<StdRng>,
    metrics: StoreMetrics,
}

/// Pre-resolved global-registry handles so the access paths stay
/// lock-free (the registry lock is paid once here, at construction).
struct StoreMetrics {
    get_latency: Histogram,
    put_latency: Histogram,
    gets: Counter,
    puts: Counter,
    unavailable: Counter,
    version_bumps: Counter,
}

impl StoreMetrics {
    fn new() -> Self {
        let reg = rc_obs::global();
        StoreMetrics {
            get_latency: reg.histogram(rc_obs::STORE_GET_LATENCY_NS),
            put_latency: reg.histogram(rc_obs::STORE_PUT_LATENCY_NS),
            gets: reg.counter(rc_obs::STORE_GETS),
            puts: reg.counter(rc_obs::STORE_PUTS),
            unavailable: reg.counter(rc_obs::STORE_UNAVAILABLE),
            version_bumps: reg.counter(rc_obs::STORE_VERSION_BUMPS),
        }
    }
}

impl Store {
    /// An always-fast in-process store (no simulated latency).
    pub fn in_memory() -> Self {
        Self::with_latency(None)
    }

    /// A store whose accesses cost a sampled latency.
    pub fn with_latency(latency: Option<LatencyModel>) -> Self {
        Store {
            inner: Arc::new(StoreInner {
                records: RwLock::new(HashMap::new()),
                available: AtomicBool::new(true),
                latency,
                latency_rng: parking_lot::Mutex::new(StdRng::seed_from_u64(0x5709)),
                metrics: StoreMetrics::new(),
            }),
        }
    }

    /// Flips availability; an unavailable store fails every access.
    pub fn set_available(&self, available: bool) {
        self.inner.available.store(available, Ordering::SeqCst);
    }

    /// Spin for one sampled latency, if a model is attached.
    fn pay_latency(&self) {
        if let Some(model) = &self.inner.latency {
            let d = model.sample(&mut *self.inner.latency_rng.lock());
            let start = Instant::now();
            while start.elapsed() < d {
                std::hint::spin_loop();
            }
        }
    }

    /// What every get and put does first: refuse (and count) while
    /// unavailable, else pay one sampled latency. Returns the access's
    /// start, for its latency histogram.
    fn begin(&self) -> Result<Instant, StoreError> {
        if !self.is_available() {
            self.inner.metrics.unavailable.increment();
            return Err(StoreError::Unavailable);
        }
        let start = Instant::now();
        self.pay_latency();
        Ok(start)
    }

    /// Reads the version of `key` that `pick` selects from its history.
    fn read(
        &self,
        key: &str,
        pick: impl FnOnce(&[VersionedRecord]) -> Option<&VersionedRecord>,
    ) -> Result<VersionedRecord, StoreError> {
        let start = self.begin()?;
        let rec = self.inner.records.read().get(key).and_then(|v| pick(v)).cloned();
        let rec = rec.ok_or(StoreError::NotFound)?;
        self.inner.metrics.gets.increment();
        self.inner.metrics.get_latency.record_duration(start.elapsed());
        Ok(rec)
    }

    /// Appends the next version of `key`, decided under the write lock.
    /// With `expected = Some(v)` the append happens only if the latest
    /// version is still `v` (0 = key absent); a loser gets
    /// [`StoreError::Race`] and leaves no trace, not even the key.
    fn append(&self, key: &str, data: Bytes, expected: Option<u64>) -> Result<u64, StoreError> {
        let start = self.begin()?;
        let mut records = self.inner.records.write();
        let versions = records.get_mut(key);
        let actual = versions.as_ref().and_then(|v| v.last()).map_or(0, |r| r.version);
        if let Some(expected) = expected.filter(|&e| e != actual) {
            return Err(StoreError::Race(PublishRace { expected, actual }));
        }
        let record = VersionedRecord { version: actual + 1, data };
        match versions {
            Some(versions) => {
                self.inner.metrics.version_bumps.increment();
                versions.push(record);
            }
            None => {
                records.insert(key.to_owned(), vec![record]);
            }
        }
        self.inner.metrics.puts.increment();
        self.inner.metrics.put_latency.record_duration(start.elapsed());
        Ok(actual + 1)
    }
}

impl StoreBackend for Store {
    fn is_available(&self) -> bool {
        self.inner.available.load(Ordering::SeqCst)
    }

    fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.inner.records.read().keys().cloned().collect();
        keys.sort();
        keys
    }

    fn get_latest(&self, key: &str) -> Result<VersionedRecord, StoreError> {
        self.read(key, |versions| versions.last())
    }

    fn get_version(&self, key: &str, version: u64) -> Result<VersionedRecord, StoreError> {
        self.read(key, |versions| versions.iter().find(|r| r.version == version))
    }

    fn latest_version(&self, key: &str) -> Option<u64> {
        self.inner.records.read().get(key).and_then(|v| v.last()).map(|r| r.version)
    }

    fn put(&self, key: &str, data: Bytes) -> Result<u64, StoreError> {
        self.append(key, data, None)
    }

    /// Decided atomically under the write lock: exactly one of two
    /// racing writers that read the same current version wins; the other
    /// gets [`StoreError::Race`] with the version that beat it.
    fn put_if_version(
        &self,
        key: &str,
        data: Bytes,
        expected_current: u64,
    ) -> Result<u64, StoreError> {
        self.append(key, data, Some(expected_current))
    }
}

/// FNV-1a fingerprint over every `(key, latest version)` pair in the
/// store. [`StoreBackend::keys`] returns keys sorted, so the fingerprint is
/// stable for a given store state; any publish, rollback, or new key
/// changes it. Clients poll this to notice publications; tests use it to
/// prove a blocked operation left the store untouched.
pub fn fingerprint<B: StoreBackend + ?Sized>(store: &B) -> u64 {
    let mut h = Fnv1a::new();
    for key in store.keys() {
        h.write(key.as_bytes());
        h.write_u64(store.latest_version(&key).unwrap_or(0));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_monotonic_per_key() {
        let store = Store::in_memory();
        assert_eq!(store.put("a", Bytes::from_static(b"1")).unwrap(), 1);
        assert_eq!(store.put("a", Bytes::from_static(b"2")).unwrap(), 2);
        assert_eq!(store.put("b", Bytes::from_static(b"x")).unwrap(), 1);
        assert_eq!(store.latest_version("a"), Some(2));
        assert_eq!(store.latest_version("missing"), None);
    }

    #[test]
    fn get_latest_and_pinned() {
        let store = Store::in_memory();
        store.put("k", Bytes::from_static(b"v1")).unwrap();
        store.put("k", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(store.get_latest("k").unwrap().data.as_ref(), b"v2");
        assert_eq!(store.get_version("k", 1).unwrap().data.as_ref(), b"v1");
        assert!(matches!(store.get_version("k", 9), Err(StoreError::NotFound)));
        assert!(matches!(store.get_latest("nope"), Err(StoreError::NotFound)));
    }

    #[test]
    fn unavailability_fails_everything() {
        let store = Store::in_memory();
        store.put("k", Bytes::from_static(b"v")).unwrap();
        let refused = rc_obs::global().counter(rc_obs::STORE_UNAVAILABLE);
        let before = refused.get();
        store.set_available(false);
        assert!(matches!(store.get_latest("k"), Err(StoreError::Unavailable)));
        assert!(matches!(store.put("k", Bytes::from_static(b"w")), Err(StoreError::Unavailable)));
        assert!(refused.get() - before >= 2);
        store.set_available(true);
        assert!(store.get_latest("k").is_ok());
    }

    #[test]
    fn clones_share_state() {
        let a = Store::in_memory();
        let b = a.clone();
        a.put("k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(b.get_latest("k").unwrap().data.as_ref(), b"v");
    }

    #[test]
    fn concurrent_puts_get_distinct_versions() {
        let store = Store::in_memory();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| s.put("k", Bytes::from_static(b"v")).unwrap()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800, "versions must be unique");
        assert_eq!(store.latest_version("k"), Some(800));
    }

    #[test]
    fn cas_put_enforces_expected_version() {
        let store = Store::in_memory();
        // 0 means "key absent": the first conditional write creates v1.
        assert_eq!(store.put_if_version("k", Bytes::from_static(b"v1"), 0).unwrap(), 1);
        // Stale expectation loses with the version that beat it.
        assert_eq!(
            store.put_if_version("k", Bytes::from_static(b"v2"), 0),
            Err(StoreError::Race(PublishRace { expected: 0, actual: 1 }))
        );
        assert_eq!(store.put_if_version("k", Bytes::from_static(b"v2"), 1).unwrap(), 2);
        assert_eq!(store.get_latest("k").unwrap().data.as_ref(), b"v2");
        // A losing CAS on a missing key must not invent the key.
        assert_eq!(
            store.put_if_version("ghost", Bytes::from_static(b"x"), 7),
            Err(StoreError::Race(PublishRace { expected: 7, actual: 0 }))
        );
        assert_eq!(store.latest_version("ghost"), None);
        assert!(!store.keys().contains(&"ghost".to_string()));
    }

    #[test]
    fn two_racing_writers_exactly_one_wins() {
        // Both writers read the same current version, then race the
        // conditional flip; for every round exactly one must win and the
        // loser must see the winner's version in its Race error.
        let store = Store::in_memory();
        for round in 0..50u64 {
            let expected = store.latest_version("manifest").unwrap_or(0);
            assert_eq!(expected, round);
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let handles: Vec<_> = (0..2)
                .map(|writer| {
                    let s = store.clone();
                    let b = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        b.wait();
                        s.put_if_version(
                            "manifest",
                            Bytes::from(format!("round {round} writer {writer}").into_bytes()),
                            expected,
                        )
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let wins = results.iter().filter(|r| r.is_ok()).count();
            assert_eq!(wins, 1, "round {round}: exactly one writer must win: {results:?}");
            let loser = results.iter().find(|r| r.is_err()).unwrap();
            assert_eq!(
                *loser,
                Err(StoreError::Race(PublishRace { expected, actual: expected + 1 })),
                "the loser must see the winner's version"
            );
        }
        assert_eq!(store.latest_version("manifest"), Some(50));
    }

    #[test]
    fn latency_model_slows_accesses() {
        let store = Store::with_latency(Some(LatencyModel::from_quantiles(300.0, 600.0)));
        store.put("k", Bytes::from_static(b"v")).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..20 {
            store.get_latest("k").unwrap();
        }
        let elapsed = start.elapsed();
        // 21 accesses at >=~0.3 ms median should take >= ~3 ms total.
        assert!(elapsed.as_micros() > 3_000, "elapsed = {elapsed:?}");
    }

    #[test]
    fn keys_are_sorted() {
        let store = Store::in_memory();
        store.put("b", Bytes::new()).unwrap();
        store.put("a", Bytes::new()).unwrap();
        assert_eq!(store.keys(), vec!["a".to_string(), "b".to_string()]);
    }
}
