//! Deterministic fault injection for the store.
//!
//! §4.3 of the paper insists RC must be non-mission-critical: consumers
//! keep working (degraded) when the store misbehaves. To *demonstrate*
//! that, this module wraps a [`Store`] in a [`FaultyStore`], the one
//! fault layer every experiment uses. It injects two kinds of fault:
//!
//! - **seeded** faults from a [`FaultPlan`]: per-operation
//!   unavailability, transient error bursts, latency spikes (composing
//!   with any [`crate::LatencyModel`] already attached to the wrapped
//!   store), and payload corruption on reads. Every decision comes from
//!   one seeded RNG drawing a fixed number of uniforms per operation, so
//!   a schedule is bit-reproducible across runs given the same sequence
//!   of store calls;
//! - **armed** faults, switched on and off explicitly by the caller (the
//!   control loop arms them from its chaos plan):
//!   - a **put outage** failing every write after a budget of
//!     successes — exactly the window the two-phase publish protocol must
//!     survive (phase-one payloads may land; the manifest pointer must
//!     not move);
//!   - a **correlated brownout** taking out one key *shard* — every key
//!     hashing to the browned-out shard fails reads and writes together,
//!     the way a lost partition fails, rather than as independent
//!     per-operation coin flips;
//!   - a **manual-publish race**: the next manifest flip is preceded by
//!     an interposed re-publish of the current manifest bytes, modelling
//!     an operator's `publish --force` landing between a publisher's read
//!     of the pointer and its compare-and-swap.
//!
//! On every data-plane operation the seeded decision runs first, so the
//! seeded schedule is the same whatever is armed; the armed faults apply
//! after it, in the order brownout, put budget, manifest race.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rc_obs::Counter;
use rc_types::fnv1a;

use crate::kv::{Store, StoreBackend, StoreError, VersionedRecord};
use crate::manifest::MANIFEST_KEY;

/// A seeded schedule of store misbehaviour.
///
/// All probabilities are per-operation and independent; the plan is inert
/// when every probability is zero.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed for the injector's RNG; two injectors with the same plan
    /// produce identical decision streams.
    pub seed: u64,
    /// Probability an operation is rejected with
    /// [`StoreError::Unavailable`].
    pub p_unavailable: f64,
    /// Probability an operation *starts* a transient error burst: it and
    /// the next `transient_burst` operations fail with
    /// [`StoreError::Transient`].
    pub p_transient: f64,
    /// Extra operations that fail after a burst starts.
    pub transient_burst: u32,
    /// Probability an operation pays `latency_spike` extra wall time.
    pub p_latency_spike: f64,
    /// The extra latency of a spike.
    pub latency_spike: Duration,
    /// Probability a GET's payload is corrupted (truncated and
    /// bit-mangled) before the caller sees it.
    pub p_corrupt: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a baseline sweep point).
    pub fn reliable(seed: u64) -> Self {
        FaultPlan {
            seed,
            p_unavailable: 0.0,
            p_transient: 0.0,
            transient_burst: 0,
            p_latency_spike: 0.0,
            latency_spike: Duration::ZERO,
            p_corrupt: 0.0,
        }
    }

    /// Convenience: only per-op unavailability, probability `p`.
    pub fn unavailability(seed: u64, p: f64) -> Self {
        FaultPlan { p_unavailable: p, ..FaultPlan::reliable(seed) }
    }
}

/// What the injector decided for one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultDecision {
    /// Injected failure, if any; the wrapped store is not consulted.
    error: Option<StoreError>,
    /// Extra latency to pay before the operation (spike).
    extra_latency: Option<Duration>,
    /// `Some(salt)` corrupts a GET payload deterministically from `salt`.
    corrupt_salt: Option<u64>,
}

/// Exact counts of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Operations rejected as unavailable.
    pub unavailable: u64,
    /// Operations failed transiently (burst starts + continuations).
    pub transient: u64,
    /// Operations that paid a latency spike.
    pub latency_spikes: u64,
    /// GET payloads corrupted.
    pub corruptions: u64,
}

impl InjectedFaults {
    /// All injected faults (spikes included: they perturb an operation
    /// even though it succeeds).
    pub fn total(&self) -> u64 {
        self.unavailable + self.transient + self.latency_spikes + self.corruptions
    }
}

/// Number of key shards a brownout partitions the store into.
pub const BROWNOUT_SHARDS: u32 = 8;

/// The brownout shard a key hashes into (FNV-1a, mod
/// [`BROWNOUT_SHARDS`]) — exposed so plans and tests can pick the shard
/// that covers a given key.
pub fn brownout_shard_of(key: &str) -> u32 {
    (fnv1a(key.as_bytes()) % BROWNOUT_SHARDS as u64) as u32
}

/// Marks an armed fault as disarmed.
const DISARMED: u64 = u64::MAX;

/// The decision engine behind a [`FaultyStore`]: the seeded schedule and
/// the armed faults, shared by every clone of the store.
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
    unavailable: AtomicU64,
    transient: AtomicU64,
    latency_spikes: AtomicU64,
    corruptions: AtomicU64,
    metrics: InjectorMetrics,
    /// Remaining successful puts before writes fail; [`DISARMED`] = no
    /// outage.
    puts_until_fail: AtomicU64,
    /// Browned-out key shard; [`DISARMED`] = no brownout.
    brownout_shard: AtomicU64,
    /// The next manifest compare-and-swap is raced by a re-publish.
    manifest_race: AtomicBool,
}

struct InjectorState {
    rng: StdRng,
    burst_remaining: u32,
}

struct InjectorMetrics {
    total: Counter,
    unavailable: Counter,
    transients: Counter,
    latency_spikes: Counter,
    corruptions: Counter,
}

impl InjectorMetrics {
    fn new() -> Self {
        let reg = rc_obs::global();
        InjectorMetrics {
            total: reg.counter(rc_obs::STORE_INJECTED_FAULTS),
            unavailable: reg.counter(rc_obs::STORE_INJECTED_UNAVAILABILITY),
            transients: reg.counter(rc_obs::STORE_INJECTED_TRANSIENTS),
            latency_spikes: reg.counter(rc_obs::STORE_INJECTED_LATENCY_SPIKES),
            corruptions: reg.counter(rc_obs::STORE_INJECTED_CORRUPTIONS),
        }
    }
}

impl FaultInjector {
    /// Builds an injector for a plan, with every armed fault disarmed.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            state: Mutex::new(InjectorState {
                rng: StdRng::seed_from_u64(plan.seed),
                burst_remaining: 0,
            }),
            plan,
            unavailable: AtomicU64::new(0),
            transient: AtomicU64::new(0),
            latency_spikes: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            metrics: InjectorMetrics::new(),
            puts_until_fail: AtomicU64::new(DISARMED),
            brownout_shard: AtomicU64::new(DISARMED),
            manifest_race: AtomicBool::new(false),
        }
    }

    /// Decides one operation's seeded fate. Always consumes exactly five
    /// RNG draws, whatever the outcome, so two injectors with the same
    /// plan stay in lock-step across any sequence of outcomes.
    fn decide(&self, is_get: bool) -> FaultDecision {
        let plan = &self.plan;
        let (u_unavail, u_transient, u_latency, u_corrupt, salt, in_burst) = {
            let mut state = self.state.lock();
            let u1: f64 = state.rng.gen();
            let u2: f64 = state.rng.gen();
            let u3: f64 = state.rng.gen();
            let u4: f64 = state.rng.gen();
            let salt: u64 = state.rng.gen();
            let in_burst = state.burst_remaining > 0;
            if in_burst {
                state.burst_remaining -= 1;
            } else if u2 < plan.p_transient {
                state.burst_remaining = plan.transient_burst;
            }
            (u1, u2, u3, u4, salt, in_burst)
        };

        let error = if in_burst || u_transient < plan.p_transient {
            self.transient.fetch_add(1, Ordering::Relaxed);
            self.metrics.transients.increment();
            self.metrics.total.increment();
            Some(StoreError::Transient)
        } else if u_unavail < plan.p_unavailable {
            self.unavailable.fetch_add(1, Ordering::Relaxed);
            self.metrics.unavailable.increment();
            self.metrics.total.increment();
            Some(StoreError::Unavailable)
        } else {
            None
        };

        let extra_latency = if error.is_none() && u_latency < plan.p_latency_spike {
            self.latency_spikes.fetch_add(1, Ordering::Relaxed);
            self.metrics.latency_spikes.increment();
            self.metrics.total.increment();
            Some(plan.latency_spike)
        } else {
            None
        };

        let corrupt_salt = if error.is_none() && is_get && u_corrupt < plan.p_corrupt {
            self.corruptions.fetch_add(1, Ordering::Relaxed);
            self.metrics.corruptions.increment();
            self.metrics.total.increment();
            Some(salt)
        } else {
            None
        };

        FaultDecision { error, extra_latency, corrupt_salt }
    }

    /// Exact injected-fault counts so far (seeded faults only).
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            unavailable: self.unavailable.load(Ordering::Relaxed),
            transient: self.transient.load(Ordering::Relaxed),
            latency_spikes: self.latency_spikes.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
        }
    }

    /// Whether the armed brownout (if any) covers `key`.
    fn browned_out(&self, key: &str) -> bool {
        let shard = self.brownout_shard.load(Ordering::SeqCst);
        shard != DISARMED && brownout_shard_of(key) as u64 == shard
    }

    /// Consumes one unit of the armed put budget, failing once it is
    /// spent. A disarmed outage always admits.
    fn take_put_budget(&self) -> Result<(), StoreError> {
        let taken = self.puts_until_fail.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n != DISARMED && n > 0).then(|| n - 1)
        });
        match taken {
            Ok(_) | Err(DISARMED) => Ok(()),
            Err(_) => Err(StoreError::Unavailable),
        }
    }
}

/// Deterministically mangles a payload so it can never decode: truncate
/// to half (at least one byte) and XOR a salt-derived pattern over what
/// remains. JSON and any framed format fail validation immediately.
fn corrupt_payload(data: &Bytes, salt: u64) -> Bytes {
    let keep = (data.len() / 2).max(1).min(data.len());
    let mut out = Vec::with_capacity(keep);
    let mut x = salt | 1;
    for (i, b) in data.iter().take(keep).enumerate() {
        // xorshift over the salt so every byte gets a different mask.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push(b ^ (x as u8) ^ ((i as u8).wrapping_mul(31)) ^ 0xA5);
    }
    Bytes::from(out)
}

/// A [`Store`] wrapper that injects seeded and armed faults.
///
/// Cheap to clone; clones share the wrapped store *and* the injector, so
/// the seeded schedule and the armed faults are global across handles.
/// Data-plane operations (`get_latest`, `get_version`, `put`,
/// `put_if_version`) pass through the injector; metadata scans (`keys`,
/// `latest_version`) skip the seeded schedule — they model the cheap,
/// cached version check the client's push watcher performs — but a
/// browned-out key reads as absent.
#[derive(Clone)]
pub struct FaultyStore {
    store: Store,
    injector: Arc<FaultInjector>,
}

impl FaultyStore {
    /// Wraps `store` with a fault plan and nothing armed.
    pub fn new(store: Store, plan: FaultPlan) -> Self {
        FaultyStore { store, injector: Arc::new(FaultInjector::new(plan)) }
    }

    /// The underlying (un-faulted) store.
    pub fn inner(&self) -> &Store {
        &self.store
    }

    /// The shared injector (for fault counts).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Arms the put outage: the next `budget` writes succeed, every one
    /// after fails with [`StoreError::Unavailable`] until
    /// [`FaultyStore::heal`]. Reads keep working — the outage models
    /// losing write quorum, the failure mode a mid-publish crash exposes.
    pub fn arm_put_outage(&self, budget: u64) {
        self.injector.puts_until_fail.store(budget, Ordering::SeqCst);
    }

    /// Arms a correlated brownout of one key shard: every key with
    /// `brownout_shard_of(key) == shard` fails reads and writes with
    /// [`StoreError::Unavailable`] until [`FaultyStore::heal`].
    pub fn arm_brownout(&self, shard: u32) {
        self.injector.brownout_shard.store((shard % BROWNOUT_SHARDS) as u64, Ordering::SeqCst);
    }

    /// Arms the manual-publish race: the next `put_if_version` against
    /// the manifest pointer is preceded by an interposed plain `put` of
    /// the *current* manifest bytes (an operator re-publish), so the
    /// caller's compare-and-swap observes a moved pointer and fails
    /// with a typed race. One-shot: the arm clears once it fires.
    pub fn arm_manifest_race(&self) {
        self.injector.manifest_race.store(true, Ordering::SeqCst);
    }

    /// Disarms every armed fault; the seeded schedule runs on.
    pub fn heal(&self) {
        self.injector.puts_until_fail.store(DISARMED, Ordering::SeqCst);
        self.injector.brownout_shard.store(DISARMED, Ordering::SeqCst);
        self.injector.manifest_race.store(false, Ordering::SeqCst);
    }

    /// The faults a data-plane operation on `key` meets first: the
    /// seeded decision (paying its spike), then an armed brownout. `Ok`
    /// carries the corruption salt a read applies to its payload.
    fn admit(&self, key: &str, is_get: bool) -> Result<Option<u64>, StoreError> {
        let decision = self.injector.decide(is_get);
        if let Some(extra) = decision.extra_latency {
            std::thread::sleep(extra);
        }
        if let Some(err) = decision.error {
            return Err(err);
        }
        if self.injector.browned_out(key) {
            return Err(StoreError::Unavailable);
        }
        Ok(decision.corrupt_salt)
    }

    /// A read through [`FaultyStore::admit`], corrupting the payload when
    /// the seeded decision says so.
    fn read(
        &self,
        key: &str,
        read: impl FnOnce(&Store) -> Result<VersionedRecord, StoreError>,
    ) -> Result<VersionedRecord, StoreError> {
        let salt = self.admit(key, true)?;
        let mut rec = read(&self.store)?;
        if let Some(salt) = salt {
            rec.data = corrupt_payload(&rec.data, salt);
        }
        Ok(rec)
    }

    /// A write's faults: [`FaultyStore::admit`], then the put budget.
    fn admit_put(&self, key: &str) -> Result<(), StoreError> {
        self.admit(key, false)?;
        self.injector.take_put_budget()
    }
}

impl StoreBackend for FaultyStore {
    /// The wrapped store's binary switch; the injector's per-operation
    /// unavailability is separate.
    fn is_available(&self) -> bool {
        self.store.is_available()
    }

    fn keys(&self) -> Vec<String> {
        self.store.keys()
    }

    fn get_latest(&self, key: &str) -> Result<VersionedRecord, StoreError> {
        self.read(key, |store| store.get_latest(key))
    }

    fn get_version(&self, key: &str, version: u64) -> Result<VersionedRecord, StoreError> {
        self.read(key, |store| store.get_version(key, version))
    }

    fn latest_version(&self, key: &str) -> Option<u64> {
        // `Option` has no error channel; a browned-out shard reads as
        // absent, exactly what a lost partition looks like.
        if self.injector.browned_out(key) {
            return None;
        }
        self.store.latest_version(key)
    }

    fn put(&self, key: &str, data: Bytes) -> Result<u64, StoreError> {
        self.admit_put(key)?;
        self.store.put(key, data)
    }

    /// The faults fire first, then the compare-and-swap is delegated to
    /// the wrapped store so it stays atomic across handles.
    fn put_if_version(
        &self,
        key: &str,
        data: Bytes,
        expected_current: u64,
    ) -> Result<u64, StoreError> {
        self.admit_put(key)?;
        if key == MANIFEST_KEY && self.injector.manifest_race.swap(false, Ordering::SeqCst) {
            // The manual operator's re-publish lands first: same bytes,
            // new version — invisible to a last-writer-wins flip, fatal
            // to a compare-and-swap.
            if let Ok(current) = self.store.get_latest(MANIFEST_KEY) {
                self.store.put(MANIFEST_KEY, current.data)?;
            }
        }
        self.store.put_if_version(key, data, expected_current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 42,
            p_unavailable: 0.3,
            p_transient: 0.05,
            transient_burst: 2,
            p_latency_spike: 0.1,
            latency_spike: Duration::from_micros(50),
            p_corrupt: 0.1,
        }
    }

    #[test]
    fn schedules_are_bit_reproducible() {
        let a = FaultInjector::new(plan());
        let b = FaultInjector::new(plan());
        let sa: Vec<FaultDecision> = (0..2_000).map(|i| a.decide(i % 3 != 0)).collect();
        let sb: Vec<FaultDecision> = (0..2_000).map(|i| b.decide(i % 3 != 0)).collect();
        assert_eq!(sa, sb, "same plan must give the same schedule");
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected().total() > 0);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultInjector::new(plan());
        let b = FaultInjector::new(FaultPlan { seed: 43, ..plan() });
        let sa: Vec<FaultDecision> = (0..500).map(|_| a.decide(true)).collect();
        let sb: Vec<FaultDecision> = (0..500).map(|_| b.decide(true)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn probabilities_land_near_expectation() {
        let injector =
            FaultInjector::new(FaultPlan { p_transient: 0.0, transient_burst: 0, ..plan() });
        let n = 20_000;
        let failures =
            (0..n).filter(|_| injector.decide(true).error.is_some()).count() as f64 / n as f64;
        assert!((failures - 0.3).abs() < 0.02, "unavailability rate {failures}");
    }

    #[test]
    fn transient_bursts_extend_failures() {
        let injector = FaultInjector::new(FaultPlan {
            seed: 7,
            p_unavailable: 0.0,
            p_transient: 0.05,
            transient_burst: 3,
            p_latency_spike: 0.0,
            latency_spike: Duration::ZERO,
            p_corrupt: 0.0,
        });
        let decisions: Vec<FaultDecision> = (0..5_000).map(|_| injector.decide(true)).collect();
        // Every transient failure is part of a run of >= 1 + burst
        // whenever it starts a burst; check that runs of exactly length
        // burst+1 dominate isolated failures.
        let mut run = 0usize;
        let mut runs = Vec::new();
        for d in &decisions {
            if d.error == Some(StoreError::Transient) {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        assert!(!runs.is_empty());
        assert!(runs.iter().all(|&r| r >= 4 || r % 4 == 0), "runs: {runs:?}");
    }

    #[test]
    fn reliable_plan_injects_nothing() {
        let store = Store::in_memory();
        store.put("k", Bytes::from_static(b"v")).unwrap();
        let faulty = FaultyStore::new(store, FaultPlan::reliable(1));
        for _ in 0..200 {
            assert_eq!(faulty.get_latest("k").unwrap().data.as_ref(), b"v");
        }
        assert_eq!(faulty.injector().injected().total(), 0);
    }

    #[test]
    fn corruption_changes_payload_without_touching_store() {
        let store = Store::in_memory();
        let payload = br#"[1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0]"#;
        store.put("k", Bytes::from_static(payload)).unwrap();
        let faulty = FaultyStore::new(
            store.clone(),
            FaultPlan { p_unavailable: 0.0, p_transient: 0.0, p_corrupt: 1.0, ..plan() },
        );
        let rec = faulty.get_latest("k").unwrap();
        assert_ne!(rec.data.as_ref(), payload, "payload must be mangled");
        assert!(serde_json::from_slice::<Vec<f64>>(&rec.data).is_err());
        // The store itself still holds the pristine record.
        assert_eq!(store.get_latest("k").unwrap().data.as_ref(), payload);
    }

    #[test]
    fn corrupt_payload_never_decodes_as_json() {
        for salt in 0..64u64 {
            let data = Bytes::from_static(br#"[1.5,2.5,3.5,4.5,5.5,6.5]"#);
            let mangled = corrupt_payload(&data, salt);
            assert!(
                serde_json::from_slice::<Vec<f64>>(&mangled).is_err(),
                "salt {salt} produced decodable corruption"
            );
        }
    }

    #[test]
    fn faulty_store_surfaces_underlying_errors() {
        let store = Store::in_memory();
        let faulty = FaultyStore::new(store.clone(), FaultPlan::reliable(1));
        assert_eq!(faulty.get_latest("missing").unwrap_err(), StoreError::NotFound);
        store.set_available(false);
        assert!(!StoreBackend::is_available(&faulty));
        assert_eq!(faulty.get_latest("missing").unwrap_err(), StoreError::Unavailable);
    }

    #[test]
    fn clones_share_the_schedule() {
        let store = Store::in_memory();
        store.put("k", Bytes::from_static(b"v")).unwrap();
        let a = FaultyStore::new(store, FaultPlan::unavailability(9, 1.0));
        let b = a.clone();
        let _ = a.get_latest("k");
        let _ = b.get_latest("k");
        assert_eq!(a.injector().injected().unavailable, 2);
    }

    #[test]
    fn outage_fires_after_budget_and_heals() {
        let store = FaultyStore::new(Store::in_memory(), FaultPlan::reliable(0));
        store.arm_put_outage(2);
        assert!(store.put("a", Bytes::from(vec![1])).is_ok());
        assert!(store.put("b", Bytes::from(vec![2])).is_ok());
        assert_eq!(store.put("c", Bytes::from(vec![3])).unwrap_err(), StoreError::Unavailable);
        assert_eq!(store.put("d", Bytes::from(vec![4])).unwrap_err(), StoreError::Unavailable);
        // Reads keep working through the outage.
        assert!(store.get_latest("a").is_ok());
        store.heal();
        assert!(store.put("c", Bytes::from(vec![3])).is_ok());
        assert_eq!(store.keys(), vec!["a".to_string(), "b".to_string(), "c".to_string()]);
    }

    #[test]
    fn brownout_fails_reads_and_writes_for_one_shard_only() {
        let store = FaultyStore::new(Store::in_memory(), FaultPlan::reliable(0));
        // Find two keys in different shards.
        let covered = "models/lifetime";
        let shard = brownout_shard_of(covered);
        let other = (0..64)
            .map(|i| format!("models/other-{i}"))
            .find(|k| brownout_shard_of(k) != shard)
            .expect("some key lands in another shard");
        store.put(covered, Bytes::from(vec![1])).unwrap();
        store.put(&other, Bytes::from(vec![2])).unwrap();

        store.arm_brownout(shard);
        assert!(store.injector().browned_out(covered));
        assert!(!store.injector().browned_out(&other));
        // Covered shard: reads AND writes fail together.
        assert_eq!(store.get_latest(covered).unwrap_err(), StoreError::Unavailable);
        assert_eq!(store.put(covered, Bytes::from(vec![9])).unwrap_err(), StoreError::Unavailable);
        assert_eq!(store.latest_version(covered), None);
        assert_eq!(
            store.put_if_version(covered, Bytes::from(vec![9]), 1).unwrap_err(),
            StoreError::Unavailable
        );
        // Other shards are untouched.
        assert!(store.get_latest(&other).is_ok());
        assert!(store.put(&other, Bytes::from(vec![3])).is_ok());

        store.heal();
        assert_eq!(store.get_latest(covered).unwrap().data.as_ref(), &[1]);
        assert_eq!(store.latest_version(covered), Some(1));
    }

    #[test]
    fn manifest_race_defeats_cas_exactly_once() {
        let store = FaultyStore::new(Store::in_memory(), FaultPlan::reliable(0));
        store.put(MANIFEST_KEY, Bytes::from(vec![1])).unwrap();

        store.arm_manifest_race();
        // The armed race interposes a re-publish (same bytes, version 2),
        // so a CAS expecting version 1 loses with a typed race.
        let err = store.put_if_version(MANIFEST_KEY, Bytes::from(vec![2]), 1).unwrap_err();
        match err {
            StoreError::Race(race) => {
                assert_eq!(race.expected, 1);
                assert_eq!(race.actual, 2);
            }
            other => panic!("expected a race, got {other:?}"),
        }
        // One-shot: re-reading the pointer and retrying succeeds.
        let current = store.latest_version(MANIFEST_KEY).unwrap();
        assert_eq!(current, 2);
        assert!(store.put_if_version(MANIFEST_KEY, Bytes::from(vec![2]), current).is_ok());
        // The interposed copy kept the original bytes.
        assert_eq!(store.get_version(MANIFEST_KEY, 2).unwrap().data.as_ref(), &[1]);
    }

    #[test]
    fn put_if_version_respects_the_outage_budget() {
        let store = FaultyStore::new(Store::in_memory(), FaultPlan::reliable(0));
        store.put("k", Bytes::from(vec![1])).unwrap();
        store.arm_put_outage(1);
        assert!(store.put_if_version("k", Bytes::from(vec![2]), 1).is_ok());
        assert_eq!(
            store.put_if_version("k", Bytes::from(vec![3]), 2).unwrap_err(),
            StoreError::Unavailable
        );
    }
}
