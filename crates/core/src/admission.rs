//! Batch admission for pull-mode refreshes.
//!
//! A pull-mode result-cache miss answers no-prediction immediately and
//! hands the key to a background worker to fill (§4.2). Producers and the
//! worker share one mutex over the queued requests, the keys in flight,
//! and a closed flag:
//!
//! - a key already in flight *coalesces*: no second enqueue, and the
//!   pending refresh fills the cache for every caller that missed on it;
//! - a full queue *rejects* the refresh (backpressure): the caller already
//!   has its default answer, and the queue never grows past its capacity;
//! - anything else is enqueued and wakes the worker.
//!
//! The worker blocks on a condvar until work arrives or the queue closes,
//! and drains every admitted request before it exits. No workload
//! exercises pull mode under contention, so a plain lock is all the
//! admission path needs.

use std::collections::{HashSet, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::inputs::ClientInputs;

/// One queued refresh: the model to run, the inputs to run it against,
/// and the result-cache key the response will fill.
pub(crate) type RefreshRequest = (String, ClientInputs, u64);

/// How a submit resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitOutcome {
    /// Admitted into the queue; the worker will process it.
    Enqueued,
    /// An identical key is already in flight — the herd coalesced.
    Coalesced,
    /// The queue was full — backpressure dropped the refresh.
    Rejected,
}

struct State {
    queue: VecDeque<RefreshRequest>,
    /// Keys admitted and not yet completed: queued or in the worker's
    /// hands.
    in_flight: HashSet<u64>,
    closed: bool,
}

/// The bounded admission queue between predict-path producers and the
/// pull worker.
pub(crate) struct AdmissionQueue {
    capacity: usize,
    state: Mutex<State>,
    /// Signalled when a request is enqueued or the queue closes.
    work: Condvar,
    /// Signalled when the last key in flight completes.
    idle: Condvar,
}

impl AdmissionQueue {
    pub(crate) fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                in_flight: HashSet::new(),
                closed: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("admission lock")
    }

    /// Producer side: admit one refresh for `key`, coalescing duplicates
    /// and shedding load when the queue is full.
    pub(crate) fn submit(
        &self,
        model_name: &str,
        inputs: &ClientInputs,
        key: u64,
    ) -> SubmitOutcome {
        let mut state = self.lock();
        if state.in_flight.contains(&key) {
            return SubmitOutcome::Coalesced;
        }
        if state.queue.len() >= self.capacity {
            return SubmitOutcome::Rejected;
        }
        state.in_flight.insert(key);
        state.queue.push_back((model_name.to_string(), *inputs, key));
        self.work.notify_one();
        SubmitOutcome::Enqueued
    }

    /// Worker side: the next request, blocking while the queue is empty
    /// and open. `None` once the queue is closed and drained.
    pub(crate) fn next(&self) -> Option<RefreshRequest> {
        let state = self.lock();
        let mut state = self
            .work
            .wait_while(state, |s| s.queue.is_empty() && !s.closed)
            .expect("admission work wait");
        state.queue.pop_front()
    }

    /// Worker side: a request taken earlier is fully processed — its key
    /// may be admitted again.
    pub(crate) fn complete(&self, key: u64) {
        let mut state = self.lock();
        state.in_flight.remove(&key);
        if state.in_flight.is_empty() {
            self.idle.notify_all();
        }
    }

    /// Shuts the queue down, waking a waiting worker. Requests already
    /// admitted stay queued for the worker to drain.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
    }

    /// Blocks until every admitted request has completed.
    pub(crate) fn wait_idle(&self) {
        let state = self.lock();
        let _state =
            self.idle.wait_while(state, |s| !s.in_flight.is_empty()).expect("admission idle wait");
    }

    /// Next request without blocking.
    #[cfg(test)]
    fn pop(&self) -> Option<RefreshRequest> {
        self.lock().queue.pop_front()
    }

    /// True when every admitted request has completed.
    #[cfg(test)]
    fn is_idle(&self) -> bool {
        self.lock().in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_types::time::Timestamp;
    use rc_types::vm::{OsType, Party, ProdTag, SubscriptionId, VmRole};
    use std::time::Duration;

    fn inputs(n: u64) -> ClientInputs {
        ClientInputs {
            subscription: SubscriptionId(n as u32),
            party: Party::First,
            role: VmRole::Iaas,
            prod: ProdTag::Production,
            os: OsType::Linux,
            sku_index: 0,
            deployment_time: Timestamp::ZERO,
            deployment_size_hint: 1,
            service: None,
        }
    }

    #[test]
    fn submit_coalesces_duplicates_until_complete() {
        let q = AdmissionQueue::new(16);
        assert_eq!(q.submit("m", &inputs(1), 42), SubmitOutcome::Enqueued);
        assert_eq!(q.submit("m", &inputs(1), 42), SubmitOutcome::Coalesced);
        assert_eq!(q.submit("m", &inputs(2), 43), SubmitOutcome::Enqueued);
        let (_, _, key) = q.pop().expect("first request queued");
        assert_eq!(key, 42);
        q.complete(key);
        // Released: the key admits again.
        assert_eq!(q.submit("m", &inputs(1), 42), SubmitOutcome::Enqueued);
    }

    #[test]
    fn full_queue_rejects_and_releases_claim() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.submit("m", &inputs(1), 101), SubmitOutcome::Enqueued);
        assert_eq!(q.submit("m", &inputs(2), 102), SubmitOutcome::Enqueued);
        assert_eq!(q.submit("m", &inputs(3), 103), SubmitOutcome::Rejected);
        // The rejected key was released, so once space frees it admits.
        let (_, _, key) = q.pop().unwrap();
        q.complete(key);
        assert_eq!(q.submit("m", &inputs(3), 103), SubmitOutcome::Enqueued);
    }

    #[test]
    fn pending_tracks_queue_plus_in_worker_depth() {
        let q = AdmissionQueue::new(8);
        assert!(q.is_idle());
        q.submit("m", &inputs(1), 7);
        q.submit("m", &inputs(2), 8);
        assert!(!q.is_idle());
        let (_, _, k1) = q.pop().unwrap();
        assert!(!q.is_idle(), "popped but not completed still counts");
        q.complete(k1);
        let (_, _, k2) = q.pop().unwrap();
        q.complete(k2);
        assert!(q.is_idle());
    }

    #[test]
    fn sentinel_keys_are_remapped_not_lost() {
        let q = AdmissionQueue::new(8);
        assert_eq!(q.submit("m", &inputs(1), 0), SubmitOutcome::Enqueued);
        assert_eq!(q.submit("m", &inputs(1), 0), SubmitOutcome::Coalesced);
        assert_eq!(q.submit("m", &inputs(2), 1), SubmitOutcome::Enqueued);
        q.complete(0);
        assert_eq!(q.submit("m", &inputs(1), 0), SubmitOutcome::Enqueued);
    }

    #[test]
    fn concurrent_submitters_admit_each_key_at_most_once_per_flight() {
        let q = std::sync::Arc::new(AdmissionQueue::new(1024));
        const THREADS: usize = 4;
        const KEYS: u64 = 200;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let q = q.clone();
                s.spawn(move || {
                    for k in 0..KEYS {
                        // Keys far apart so probe windows never overlap.
                        q.submit("m", &inputs(k), k.wrapping_mul(0x9E37_79B9) + 10);
                    }
                });
            }
        });
        // Every key admitted exactly once across all threads.
        let mut drained = 0;
        while let Some((_, _, key)) = q.pop() {
            drained += 1;
            q.complete(key);
        }
        assert_eq!(drained, KEYS, "each key coalesced to one enqueue");
        assert!(q.is_idle());
    }

    #[test]
    fn shutdown_under_backpressure_accounts_exactly() {
        // The client-drop sequence against a saturated queue: submit past
        // capacity, close, then drain the way the pull worker's shutdown
        // path does. Single-threaded, so every count is exact and the
        // outcome of every submit is deterministic.
        let q = AdmissionQueue::new(4);
        let mut enqueued = 0u64;
        let mut coalesced = 0u64;
        let mut rejected = 0u64;
        let mut submits = 0u64;
        let mut tally = |outcome: SubmitOutcome| {
            submits += 1;
            match outcome {
                SubmitOutcome::Enqueued => enqueued += 1,
                SubmitOutcome::Coalesced => coalesced += 1,
                SubmitOutcome::Rejected => rejected += 1,
            }
        };
        for k in 1..=4u64 {
            tally(q.submit("m", &inputs(k), k + 100));
        }
        tally(q.submit("m", &inputs(1), 101)); // duplicate: coalesces
        tally(q.submit("m", &inputs(5), 105)); // full: backpressure
        tally(q.submit("m", &inputs(6), 106)); // still full
        assert_eq!((enqueued, coalesced, rejected), (4, 1, 2));
        assert_eq!(submits, enqueued + coalesced + rejected, "every submit resolves one way");
        assert!(!q.is_idle());

        // Drop-the-client: close, then the worker drains what was
        // admitted. Nothing new may slip in after close has begun
        // rejecting producers' view of the world (the queue itself stays
        // pop-able so admitted work is never stranded).
        q.close();
        let mut executed = 0u64;
        while let Some((_, _, key)) = q.pop() {
            executed += 1;
            q.complete(key);
        }
        assert_eq!(executed, enqueued, "every admitted request drains exactly once");
        assert!(q.is_idle(), "drain leaves no pending work");
        assert!(q.pop().is_none());
    }

    #[test]
    fn concurrent_saturation_then_close_drains_exactly() {
        // Many producers hammer a tiny queue while a worker drains it,
        // then the client drops (close + join). Whatever the
        // interleaving, the accounting identities must hold exactly:
        // submits == enqueued + coalesced + rejected, and every enqueued
        // request is executed exactly once — by the steady-state worker
        // or by its shutdown drain.
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = std::sync::Arc::new(AdmissionQueue::new(8));
        let executed = std::sync::Arc::new(AtomicU64::new(0));

        let worker = {
            let q = q.clone();
            let executed = executed.clone();
            std::thread::spawn(move || {
                while let Some((_, _, key)) = q.next() {
                    executed.fetch_add(1, Ordering::SeqCst);
                    q.complete(key);
                }
            })
        };

        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 500;
        let totals: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let q = q.clone();
                    s.spawn(move || {
                        let (mut e, mut c, mut r) = (0u64, 0u64, 0u64);
                        for i in 0..PER_THREAD {
                            // Distinct keys spread over a small range so
                            // coalescing genuinely happens under load.
                            let key = 200 + (t * PER_THREAD + i) % 64;
                            match q.submit("m", &inputs(key), key) {
                                SubmitOutcome::Enqueued => e += 1,
                                SubmitOutcome::Coalesced => c += 1,
                                SubmitOutcome::Rejected => r += 1,
                            }
                        }
                        (e, c, r)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let enqueued: u64 = totals.iter().map(|t| t.0).sum();
        let coalesced: u64 = totals.iter().map(|t| t.1).sum();
        let rejected: u64 = totals.iter().map(|t| t.2).sum();
        assert_eq!(enqueued + coalesced + rejected, THREADS * PER_THREAD);
        assert!(rejected > 0, "a capacity-8 queue under 2000 submits must shed load");

        // Drop the client: close wakes the worker; joining it proves the
        // shutdown drain terminates. The worker exits only once the
        // queue is empty, so executed == enqueued exactly.
        q.close();
        worker.join().unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), enqueued);
        assert!(q.is_idle(), "all claims released after the drain");
        // And released means re-admittable: no key is stranded.
        assert_eq!(q.submit("m", &inputs(1), 200), SubmitOutcome::Enqueued);
    }

    #[test]
    fn next_returns_on_submit_and_close() {
        let q = std::sync::Arc::new(AdmissionQueue::new(8));
        let qc = q.clone();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            qc.submit("m", &inputs(1), 99);
        });
        // Blocks until the submit lands.
        let (_, _, key) = q.next().expect("woken by the submit");
        waker.join().unwrap();
        assert_eq!(key, 99);
        q.close();
        assert!(q.next().is_none(), "closed and drained: returns immediately");
    }
}
