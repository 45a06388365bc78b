//! Client-side resilience: retry policy, per-key circuit breakers, and
//! the health probe (§4.3: RC "is not on the critical path" — consumers
//! must degrade gracefully, never block or crash, when the store fails).
//!
//! Everything here is deterministic by construction so chaos tests can
//! assert exact schedules: backoff jitter comes from a seeded RNG, and
//! breaker cooldowns are counted in *calls*, not wall-clock time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration as StdDuration, SystemTime};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rc_obs::{Counter, Gauge};

/// Retry policy for store pulls: jittered exponential backoff under a
/// per-call deadline.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries per call (first attempt included). `1` disables
    /// retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: StdDuration,
    /// Backoff ceiling.
    pub max_backoff: StdDuration,
    /// Wall-clock budget for one logical call, attempts and backoffs
    /// included. A retry that would overrun the deadline is abandoned.
    pub call_deadline: StdDuration,
    /// Seed for backoff jitter (kept apart from any fault-plan seed so
    /// the two schedules don't correlate).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: StdDuration::from_millis(1),
            max_backoff: StdDuration::from_millis(50),
            call_deadline: StdDuration::from_millis(250),
            jitter_seed: 0x5eed_cafe,
        }
    }
}

/// The jitter source behind a [`RetryPolicy`]: one seeded RNG shared by
/// every retrying call on a client.
pub struct RetryJitter {
    rng: Mutex<StdRng>,
}

impl RetryJitter {
    /// Builds the jitter source for a policy.
    pub fn new(policy: &RetryPolicy) -> Self {
        RetryJitter { rng: Mutex::new(StdRng::seed_from_u64(policy.jitter_seed)) }
    }

    /// Backoff before retry number `retry` (1-based): exponential,
    /// capped, then scaled into `[50%, 100%]` by the jitter draw.
    pub fn backoff(&self, policy: &RetryPolicy, retry: u32) -> StdDuration {
        let exp = policy.base_backoff.saturating_mul(1u32 << (retry - 1).min(20));
        let capped = exp.min(policy.max_backoff);
        let u: f64 = self.rng.lock().gen();
        capped.mul_f64(0.5 + 0.5 * u)
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// Rejected calls an Open breaker absorbs before letting a probe
    /// through (Open → HalfOpen). Counted in calls, not time, so chaos
    /// schedules replay exactly.
    pub probe_after: u32,
    /// Consecutive probe successes that close a HalfOpen breaker.
    pub success_threshold: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 5, probe_after: 8, success_threshold: 2 }
    }
}

/// One breaker's state (per store key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; counting consecutive failures.
    Closed,
    /// Traffic rejected without touching the store.
    Open,
    /// Probing: limited traffic flows to test recovery.
    HalfOpen,
}

#[derive(Debug)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { rejected: u32 },
    HalfOpen { successes: u32 },
}

/// What [`CircuitBreakers::admit`] decided for a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Allow,
    /// Breaker half-open: proceed, and the outcome decides recovery.
    Probe,
    /// Breaker open: fail fast without touching the store.
    Reject,
}

/// Every breaker's state and how many are Open, under one lock so that
/// the count can never disagree with the map.
#[derive(Default)]
struct Table {
    states: HashMap<String, State>,
    open: i64,
}

/// Per-key circuit breakers (Closed → Open → HalfOpen → Closed).
///
/// Keys are store keys (`model/…`, `features/…`), so one flapping record
/// cannot shut off the rest of the store. Transitions increment
/// `rc_client_breaker_transitions`; the number of currently-open breakers
/// is exported on the `rc_client_breaker_open` gauge.
pub struct CircuitBreakers {
    config: BreakerConfig,
    table: Mutex<Table>,
    transitions: Counter,
    half_open_probes: Counter,
    /// Per-instance mirror of `half_open_probes`: the registry counter
    /// is shared by every breaker set in the process, so a client's own
    /// probe count needs its own cell.
    local_probes: AtomicU64,
    open_gauge: Gauge,
}

impl CircuitBreakers {
    /// Builds the breaker set, resolving its metric handles once.
    pub fn new(config: BreakerConfig) -> Self {
        let reg = rc_obs::global();
        CircuitBreakers {
            config,
            table: Mutex::new(Table::default()),
            transitions: reg.counter(rc_obs::CLIENT_BREAKER_TRANSITIONS),
            half_open_probes: reg.counter(rc_obs::CLIENT_BREAKER_HALF_OPEN_PROBES),
            local_probes: AtomicU64::new(0),
            open_gauge: reg.gauge(rc_obs::CLIENT_BREAKER_OPEN),
        }
    }

    fn note_probe(&self) {
        self.half_open_probes.increment();
        self.local_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one transition and moves the open count and its gauge by
    /// `delta_open`; called with the table locked.
    fn note_transition(&self, open: &mut i64, delta_open: i64) {
        self.transitions.increment();
        *open += delta_open;
        self.open_gauge.set(*open as f64);
    }

    /// Gatekeeper: call before touching the store for `key`.
    pub fn admit(&self, key: &str) -> Admission {
        let mut table = self.table.lock();
        let Table { states, open } = &mut *table;
        let state =
            states.entry(key.to_string()).or_insert(State::Closed { consecutive_failures: 0 });
        match state {
            State::Closed { .. } => Admission::Allow,
            State::HalfOpen { .. } => {
                self.note_probe();
                Admission::Probe
            }
            State::Open { rejected } => {
                *rejected += 1;
                if *rejected >= self.config.probe_after {
                    *state = State::HalfOpen { successes: 0 };
                    self.note_transition(open, -1);
                    self.note_probe();
                    Admission::Probe
                } else {
                    Admission::Reject
                }
            }
        }
    }

    /// Reports the outcome of an admitted call.
    pub fn record(&self, key: &str, success: bool) {
        let mut table = self.table.lock();
        let Table { states, open } = &mut *table;
        let state =
            states.entry(key.to_string()).or_insert(State::Closed { consecutive_failures: 0 });
        let delta = match (&mut *state, success) {
            (State::Closed { consecutive_failures }, true) => {
                *consecutive_failures = 0;
                return;
            }
            (State::Closed { consecutive_failures }, false) => {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.config.failure_threshold {
                    *state = State::Open { rejected: 0 };
                    1
                } else {
                    return;
                }
            }
            (State::HalfOpen { successes }, true) => {
                *successes += 1;
                if *successes >= self.config.success_threshold {
                    *state = State::Closed { consecutive_failures: 0 };
                    0
                } else {
                    return;
                }
            }
            (State::HalfOpen { .. }, false) => {
                *state = State::Open { rejected: 0 };
                1
            }
            // A late `record` against an Open breaker (e.g. a concurrent
            // call admitted before the trip): fold it into the counts
            // without a transition.
            (State::Open { .. }, _) => return,
        };
        self.note_transition(open, delta);
    }

    /// The state of `key`'s breaker (Closed when never touched).
    pub fn state(&self, key: &str) -> BreakerState {
        match self.table.lock().states.get(key) {
            None | Some(State::Closed { .. }) => BreakerState::Closed,
            Some(State::Open { .. }) => BreakerState::Open,
            Some(State::HalfOpen { .. }) => BreakerState::HalfOpen,
        }
    }

    /// Number of breakers currently Open.
    pub fn open_count(&self) -> usize {
        self.table.lock().open as usize
    }

    /// HalfOpen probe admissions so far, across all keys — every call
    /// [`CircuitBreakers::admit`] answered with [`Admission::Probe`].
    /// Mirrored on the `rc_client_breaker_half_open_probes` counter so
    /// probe traffic is visible in registry snapshots next to
    /// transitions and the open gauge.
    pub fn half_open_probe_count(&self) -> u64 {
        self.local_probes.load(Ordering::Relaxed)
    }

    /// Resets every breaker to Closed (used by `flush_cache`). Not a
    /// transition for metric purposes — the client is starting over.
    pub fn reset(&self) {
        let mut table = self.table.lock();
        *table = Table::default();
        self.open_gauge.set(0.0);
    }
}

/// Why a client reports [`ClientHealth::Degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// Serving from disk-cache entries past their expiry (within grace).
    StaleData,
    /// Store pulls failing; serving from the fresh disk cache.
    DiskFallback,
    /// At least one per-key circuit breaker is open.
    BreakerOpen,
}

impl std::fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedReason::StaleData => write!(f, "serving stale data"),
            DegradedReason::DiskFallback => write!(f, "store unreachable, disk fallback"),
            DegradedReason::BreakerOpen => write!(f, "circuit breaker open"),
        }
    }
}

/// The client's health probe, consumed by schedulers: `Offline` tells
/// Algorithm 1 to take its conservative no-prediction path for every VM
/// instead of asking a client that cannot answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientHealth {
    /// Initialized, store reachable, nothing degraded.
    Healthy,
    /// Still answering, but from fallbacks (disk, stale data) or with
    /// open breakers.
    Degraded {
        /// When degradation was first observed.
        since: SystemTime,
        /// The first observed cause.
        reason: DegradedReason,
    },
    /// Not initialized (or flushed): every lookup answers the default.
    Offline,
}

impl ClientHealth {
    /// True when the probe reports `Offline`.
    pub fn is_offline(&self) -> bool {
        matches!(self, ClientHealth::Offline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakerConfig {
        BreakerConfig { failure_threshold: 3, probe_after: 2, success_threshold: 2 }
    }

    #[test]
    fn breaker_walks_the_full_state_machine() {
        let breakers = CircuitBreakers::new(config());
        let key = "model/X";
        assert_eq!(breakers.state(key), BreakerState::Closed);
        // Three consecutive failures trip it open.
        for _ in 0..3 {
            assert_eq!(breakers.admit(key), Admission::Allow);
            breakers.record(key, false);
        }
        assert_eq!(breakers.state(key), BreakerState::Open);
        assert_eq!(breakers.open_count(), 1);
        // Open absorbs `probe_after` rejected calls, then half-opens.
        assert_eq!(breakers.admit(key), Admission::Reject);
        assert_eq!(breakers.admit(key), Admission::Probe);
        assert_eq!(breakers.state(key), BreakerState::HalfOpen);
        assert_eq!(breakers.open_count(), 0);
        // Two probe successes close it.
        breakers.record(key, true);
        assert_eq!(breakers.state(key), BreakerState::HalfOpen);
        breakers.record(key, true);
        assert_eq!(breakers.state(key), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let breakers = CircuitBreakers::new(config());
        let key = "model/Y";
        for _ in 0..3 {
            breakers.record(key, false);
        }
        breakers.admit(key);
        breakers.admit(key); // -> HalfOpen
        breakers.record(key, false);
        assert_eq!(breakers.state(key), BreakerState::Open);
        assert_eq!(breakers.open_count(), 1);
        breakers.reset();
        assert_eq!(breakers.state(key), BreakerState::Closed);
        assert_eq!(breakers.open_count(), 0);
    }

    #[test]
    fn success_resets_failure_streak() {
        let breakers = CircuitBreakers::new(config());
        let key = "features/1";
        breakers.record(key, false);
        breakers.record(key, false);
        breakers.record(key, true);
        breakers.record(key, false);
        breakers.record(key, false);
        assert_eq!(breakers.state(key), BreakerState::Closed, "streak was broken");
        breakers.record(key, false);
        assert_eq!(breakers.state(key), BreakerState::Open);
    }

    #[test]
    fn breakers_are_per_key() {
        let breakers = CircuitBreakers::new(config());
        for _ in 0..3 {
            breakers.record("model/A", false);
        }
        assert_eq!(breakers.state("model/A"), BreakerState::Open);
        assert_eq!(breakers.state("model/B"), BreakerState::Closed);
        assert_eq!(breakers.admit("model/B"), Admission::Allow);
        assert_eq!(breakers.open_count(), 1);
    }

    #[test]
    fn half_open_probes_are_counted_and_reconcile() {
        let registry_before =
            rc_obs::global().counter(rc_obs::CLIENT_BREAKER_HALF_OPEN_PROBES).get();
        let breakers = CircuitBreakers::new(config());
        let key = "model/P";
        assert_eq!(breakers.half_open_probe_count(), 0);

        // Trip the breaker open: Allow admissions are not probes.
        for _ in 0..3 {
            assert_eq!(breakers.admit(key), Admission::Allow);
            breakers.record(key, false);
        }
        assert_eq!(breakers.half_open_probe_count(), 0, "Allow/Reject never count");

        // Open absorbs one Reject, then grants the Open→HalfOpen probe.
        assert_eq!(breakers.admit(key), Admission::Reject);
        assert_eq!(breakers.admit(key), Admission::Probe);
        assert_eq!(breakers.half_open_probe_count(), 1);

        // A failed probe re-opens; the next recovery grants probe #2,
        // and each HalfOpen admission before closing is a probe too.
        breakers.record(key, false);
        assert_eq!(breakers.admit(key), Admission::Reject);
        assert_eq!(breakers.admit(key), Admission::Probe); // #2
        breakers.record(key, true);
        assert_eq!(breakers.admit(key), Admission::Probe); // #3: still HalfOpen
        breakers.record(key, true); // success_threshold reached: Closed
        assert_eq!(breakers.state(key), BreakerState::Closed);
        assert_eq!(breakers.admit(key), Admission::Allow);
        assert_eq!(breakers.half_open_probe_count(), 3);

        // Exact reconciliation: every Probe admission — and nothing else
        // — landed on the shared registry counter.
        let registry_after =
            rc_obs::global().counter(rc_obs::CLIENT_BREAKER_HALF_OPEN_PROBES).get();
        assert!(registry_after - registry_before >= 3, "snapshot-visible probe counter");
        // Per-key isolation: another key's probes accumulate on the same
        // instance count.
        for _ in 0..3 {
            breakers.record("model/Q", false);
        }
        breakers.admit("model/Q");
        assert_eq!(breakers.admit("model/Q"), Admission::Probe);
        assert_eq!(breakers.half_open_probe_count(), 4);
    }

    /// `reset` (from `flush_cache`) racing trips and recoveries never
    /// leaves the open count out of step with the breakers it counts: a
    /// stale count would keep `health()` at `BreakerOpen` forever. Each
    /// round ends on a reset that lands while the workers still run.
    #[test]
    fn open_count_matches_open_states_across_concurrent_resets() {
        use std::sync::atomic::AtomicBool;
        for round in 0..300 {
            let breakers = CircuitBreakers::new(config());
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for worker in 0..2 {
                    let (breakers, stop) = (&breakers, &stop);
                    scope.spawn(move || {
                        let mut i = 0;
                        while !stop.load(Ordering::Relaxed) {
                            let key = format!("model/{}", (worker * 7 + i) % 5);
                            for _ in 0..3 {
                                breakers.record(&key, false);
                            }
                            breakers.admit(&key);
                            breakers.admit(&key);
                            breakers.record(&key, i % 3 != 0);
                            i += 1;
                        }
                    });
                }
                for _ in 0..20 {
                    std::thread::yield_now();
                    breakers.reset();
                }
                stop.store(true, Ordering::Relaxed);
            });
            let table = breakers.table.lock();
            let open_states =
                table.states.values().filter(|s| matches!(s, State::Open { .. })).count();
            assert_eq!(table.open, open_states as i64, "round {round}");
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            base_backoff: StdDuration::from_millis(4),
            max_backoff: StdDuration::from_millis(10),
            ..RetryPolicy::default()
        };
        let a = RetryJitter::new(&policy);
        let b = RetryJitter::new(&policy);
        for retry in 1..=6 {
            let ba = a.backoff(&policy, retry);
            let bb = b.backoff(&policy, retry);
            assert_eq!(ba, bb, "same seed, same backoff");
            let cap = StdDuration::from_millis(4).saturating_mul(1 << (retry - 1));
            let cap = cap.min(StdDuration::from_millis(10));
            assert!(ba >= cap.mul_f64(0.5) && ba <= cap, "retry {retry}: {ba:?} vs cap {cap:?}");
        }
    }

    #[test]
    fn zero_base_backoff_never_sleeps() {
        let policy = RetryPolicy {
            base_backoff: StdDuration::ZERO,
            max_backoff: StdDuration::ZERO,
            ..RetryPolicy::default()
        };
        let jitter = RetryJitter::new(&policy);
        assert_eq!(jitter.backoff(&policy, 1), StdDuration::ZERO);
        assert_eq!(jitter.backoff(&policy, 5), StdDuration::ZERO);
    }
}
