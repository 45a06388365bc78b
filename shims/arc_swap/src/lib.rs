//! In-tree stand-in for `arc-swap`: an atomic `Arc<T>` slot whose readers
//! never block, built on `AtomicPtr` plus epoch-based deferred
//! reclamation.
//!
//! The real crate protects readers with a hybrid of hazard pointers and
//! generation counters; this shim uses the classic epoch scheme instead,
//! which is small enough to audit in one sitting:
//!
//! - A global epoch counter advances once per swap.
//! - Each reading thread owns one cache-line-padded *epoch slot*. To read,
//!   it publishes the current epoch in its slot (the *pin*), loads the
//!   pointer, uses it, and clears the slot (the *unpin*). Pinning is a
//!   handful of atomic operations — no locks, no allocation after the
//!   thread's first pin (which registers its slot).
//! - A writer swaps the pointer with one atomic `swap`, bumps the epoch,
//!   and moves the old `Arc` onto a retire list tagged with the
//!   pre-bump epoch. A retired entry is dropped only once every pinned
//!   slot has moved past its tag — at which point no reader can still
//!   hold the raw pointer. Reclamation is deferred, not waited for:
//!   writers never spin on readers, they just try to collect on each
//!   subsequent swap (and on drop).
//!
//! Safety argument, in terms of the `SeqCst` total order: a reader pins
//! epoch `e` and *verifies* the global epoch still equals `e` before
//! loading the pointer. If `e` is greater than a retirement's tag `t`,
//! the writer's epoch bump (`t -> t+1`) precedes the reader's verify,
//! which precedes its pointer load — so the reader observes the *new*
//! pointer and cannot touch the retired one. If `e <= t`, the reader's
//! slot store precedes its verify, which precedes the bump, which
//! precedes the writer's slot scan — so the scan observes the pin and
//! keeps the retirement. Either way no retired pointer is freed while a
//! reader that could dereference it is pinned.

use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Slot value meaning "no read in progress".
const IDLE: u64 = u64::MAX;

/// The global epoch. Starts above zero so a tag can never be confused
/// with "never swapped".
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// One reader thread's published epoch, alone on its cache line so
/// pinning threads don't false-share.
#[repr(align(128))]
#[derive(Debug)]
struct EpochSlot {
    epoch: AtomicU64,
}

/// All epoch slots ever registered (leaked, so writer scans can hold
/// plain `'static` references), plus a free list so short-lived threads
/// recycle slots instead of growing the registry forever.
struct SlotRegistry {
    slots: Mutex<Vec<&'static EpochSlot>>,
    free: Mutex<Vec<&'static EpochSlot>>,
}

fn registry() -> &'static SlotRegistry {
    static REGISTRY: OnceLock<SlotRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| SlotRegistry {
        slots: Mutex::new(Vec::new()),
        free: Mutex::new(Vec::new()),
    })
}

/// The smallest epoch any thread is currently pinned at, or `u64::MAX`
/// when no reader is active.
fn min_pinned_epoch() -> u64 {
    let slots = registry().slots.lock().expect("slot registry lock");
    slots.iter().map(|s| s.epoch.load(Ordering::SeqCst)).min().unwrap_or(IDLE)
}

/// Returns this thread's slot, registering one on first use (the only
/// allocation a reader ever performs).
struct ThreadSlot {
    slot: &'static EpochSlot,
    /// Reentrancy depth: nested pins keep the outermost (oldest) epoch,
    /// so an inner critical section can never un-protect an outer one.
    depth: Cell<usize>,
}

impl ThreadSlot {
    fn acquire() -> ThreadSlot {
        let reg = registry();
        let slot = reg.free.lock().expect("slot free list").pop().unwrap_or_else(|| {
            let slot: &'static EpochSlot =
                Box::leak(Box::new(EpochSlot { epoch: AtomicU64::new(IDLE) }));
            reg.slots.lock().expect("slot registry lock").push(slot);
            slot
        });
        ThreadSlot { slot, depth: Cell::new(0) }
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        self.slot.epoch.store(IDLE, Ordering::SeqCst);
        registry().free.lock().expect("slot free list").push(self.slot);
    }
}

thread_local! {
    static THREAD_SLOT: ThreadSlot = ThreadSlot::acquire();
}

/// Unpins on drop, so a panicking reader closure cannot leave its slot
/// pinned forever (which would stall reclamation process-wide).
struct PinGuard<'a> {
    slot: &'a EpochSlot,
    depth: &'a Cell<usize>,
}

impl<'a> PinGuard<'a> {
    fn pin(ts: &'a ThreadSlot) -> PinGuard<'a> {
        if ts.depth.get() == 0 {
            // Publish the epoch, then verify it did not move: if a writer
            // bumped it in between, re-publish so the slot is never
            // pinned at an epoch older than the pointer we will load.
            loop {
                let e = EPOCH.load(Ordering::SeqCst);
                ts.slot.epoch.store(e, Ordering::SeqCst);
                if EPOCH.load(Ordering::SeqCst) == e {
                    break;
                }
            }
        }
        ts.depth.set(ts.depth.get() + 1);
        PinGuard { slot: ts.slot, depth: &ts.depth }
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        let d = self.depth.get() - 1;
        self.depth.set(d);
        if d == 0 {
            self.slot.epoch.store(IDLE, Ordering::SeqCst);
        }
    }
}

/// An `Arc<T>` that can be read without locking and replaced atomically.
///
/// Readers use [`ArcSwap::with`] (borrow the current value for the span
/// of a closure, zero allocation) or [`ArcSwap::load_full`] (clone the
/// `Arc` out). Writers use [`ArcSwap::store`] / [`ArcSwap::swap`]; they
/// serialize against each other on a small internal mutex, but never
/// against readers.
pub struct ArcSwap<T> {
    ptr: AtomicPtr<T>,
    /// Replaced values awaiting a grace period, each tagged with the
    /// epoch at which it was retired. Guarded by a mutex that also
    /// serializes writers, so the pointer history is totally ordered.
    retired: Mutex<Vec<(*const T, u64)>>,
}

// The raw pointers in `retired` are only dereferenced to drop them after
// a grace period; they originate from `Arc<T>`, so the usual Arc bounds
// make cross-thread use sound.
unsafe impl<T: Send + Sync> Send for ArcSwap<T> {}
unsafe impl<T: Send + Sync> Sync for ArcSwap<T> {}

impl<T> ArcSwap<T> {
    /// Creates a slot holding `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        ArcSwap {
            ptr: AtomicPtr::new(Arc::into_raw(initial) as *mut T),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// From a value directly.
    pub fn from_pointee(value: T) -> Self {
        ArcSwap::new(Arc::new(value))
    }

    /// Borrows the current value for the span of `f`, pinned — the
    /// borrow stays valid even if a writer swaps concurrently. No locks,
    /// no allocation (after the calling thread's first ever pin).
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        THREAD_SLOT.with(|ts| {
            let _pin = PinGuard::pin(ts);
            let p = self.ptr.load(Ordering::SeqCst);
            f(unsafe { &*p })
        })
    }

    /// Clones the current `Arc` out (an atomic refcount bump inside the
    /// pinned section — still no locks and no heap allocation).
    pub fn load_full(&self) -> Arc<T> {
        THREAD_SLOT.with(|ts| {
            let _pin = PinGuard::pin(ts);
            let p = self.ptr.load(Ordering::SeqCst);
            unsafe {
                Arc::increment_strong_count(p);
                Arc::from_raw(p)
            }
        })
    }

    /// Publishes `new`, retiring the previous value for deferred drop.
    pub fn store(&self, new: Arc<T>) {
        drop(self.swap(new));
    }

    /// Publishes `new` and returns the previous value. The returned
    /// `Arc` is a fresh reference; the reference the slot held is
    /// retired internally until in-flight readers move on.
    pub fn swap(&self, new: Arc<T>) -> Arc<T> {
        let mut retired = self.retired.lock().expect("arc-swap retire list");
        let new_ptr = Arc::into_raw(new) as *mut T;
        let old = self.ptr.swap(new_ptr, Ordering::SeqCst);
        // Readers pinned at or below this tag may still hold `old`.
        let tag = EPOCH.fetch_add(1, Ordering::SeqCst);
        let result = unsafe {
            Arc::increment_strong_count(old);
            Arc::from_raw(old)
        };
        retired.push((old as *const T, tag));
        Self::collect_locked(&mut retired);
        result
    }

    /// Attempts to reclaim retired values whose grace period has
    /// elapsed. Writers call this opportunistically on every swap; it is
    /// public so embedders can nudge reclamation from a maintenance path.
    pub fn collect(&self) {
        Self::collect_locked(&mut self.retired.lock().expect("arc-swap retire list"));
    }

    /// Retired values still awaiting their grace period.
    pub fn retired_len(&self) -> usize {
        self.retired.lock().expect("arc-swap retire list").len()
    }

    fn collect_locked(retired: &mut Vec<(*const T, u64)>) {
        if retired.is_empty() {
            return;
        }
        let min_pinned = min_pinned_epoch();
        retired.retain(|&(p, tag)| {
            if min_pinned > tag {
                unsafe { drop(Arc::from_raw(p)) };
                false
            } else {
                true
            }
        });
    }
}

impl<T> Drop for ArcSwap<T> {
    fn drop(&mut self) {
        // Exclusive access: no reader can be pinned on *this* slot any
        // more, so the current pointer and every retired entry can be
        // dropped unconditionally (readers of other ArcSwaps never saw
        // these pointers).
        unsafe { drop(Arc::from_raw(self.ptr.load(Ordering::SeqCst))) };
        for (p, _) in self.retired.get_mut().expect("arc-swap retire list").drain(..) {
            unsafe { drop(Arc::from_raw(p)) };
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcSwap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.with(|v| f.debug_tuple("ArcSwap").field(v).finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// Counts drops so reclamation is observable.
    struct DropProbe(u64, Arc<AtomicUsize>);

    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// How long a test waits for reclamation or slot reuse before failing.
    const DEADLINE: Duration = Duration::from_secs(10);

    /// Collects until `done` holds. The epoch-slot registry is
    /// process-global, so a reader pinned by a test running in parallel
    /// (`concurrent_readers_never_observe_freed_values` pins four) holds
    /// back reclamation on *every* slot until it unpins; a collect that
    /// keeps failing past the deadline is a real leak.
    fn collect_until<T>(slot: &ArcSwap<T>, done: impl Fn() -> bool) {
        let deadline = Instant::now() + DEADLINE;
        loop {
            slot.collect();
            if done() {
                return;
            }
            assert!(Instant::now() < deadline, "retired values never reclaimed");
            std::thread::yield_now();
        }
    }

    #[test]
    fn with_sees_latest_store() {
        let slot = ArcSwap::from_pointee(1u64);
        assert_eq!(slot.with(|v| *v), 1);
        slot.store(Arc::new(2));
        assert_eq!(slot.with(|v| *v), 2);
        assert_eq!(*slot.load_full(), 2);
    }

    #[test]
    fn swap_returns_previous_value() {
        let slot = ArcSwap::from_pointee(10u64);
        let old = slot.swap(Arc::new(20));
        assert_eq!(*old, 10);
        assert_eq!(slot.with(|v| *v), 20);
    }

    #[test]
    fn retired_values_reclaim_once_readers_leave() {
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = ArcSwap::from_pointee(DropProbe(0, drops.clone()));
        for i in 1..=5u64 {
            slot.store(Arc::new(DropProbe(i, drops.clone())));
        }
        // Once no reader is pinned, every replaced value is reclaimed.
        collect_until(&slot, || slot.retired_len() == 0);
        assert_eq!(slot.retired_len(), 0, "all replaced values reclaimed");
        assert_eq!(drops.load(Ordering::SeqCst), 5);
        drop(slot);
        assert_eq!(drops.load(Ordering::SeqCst), 6, "drop frees the resident value");
    }

    #[test]
    fn load_full_keeps_value_alive_past_swap() {
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = ArcSwap::from_pointee(DropProbe(1, drops.clone()));
        let held = slot.load_full();
        slot.store(Arc::new(DropProbe(2, drops.clone())));
        slot.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "held Arc pins the old value");
        assert_eq!(held.0, 1);
        drop(held);
        collect_until(&slot, || drops.load(Ordering::SeqCst) == 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_pins_keep_outer_borrow_protected() {
        let slot = ArcSwap::from_pointee(7u64);
        let other = ArcSwap::from_pointee(8u64);
        let sum = slot.with(|a| other.with(|b| a + b));
        assert_eq!(sum, 15);
    }

    #[test]
    fn concurrent_readers_never_observe_freed_values() {
        // Writer flips between generations while readers hammer `with`;
        // every observed value must be internally consistent (the probe
        // id equals the id the generation was built with).
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = Arc::new(ArcSwap::from_pointee(DropProbe(0, drops.clone())));
        let stop = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let slot = slot.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let mut seen_max = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    slot.with(|v| {
                        assert!(v.0 <= 10_000, "garbage read: {}", v.0);
                        // Generations are monotone: a reader can lag but
                        // never travel back in time within one thread.
                        assert!(v.0 >= seen_max, "time went backwards");
                        seen_max = v.0;
                    });
                }
            }));
        }
        for gen in 1..=2_000u64 {
            slot.store(Arc::new(DropProbe(gen, drops.clone())));
        }
        stop.store(1, Ordering::SeqCst);
        for r in readers {
            r.join().expect("reader clean exit");
        }
        // Everything except the resident generation is reclaimed.
        collect_until(&slot, || slot.retired_len() == 0);
        assert_eq!(slot.retired_len(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 2_000);
        assert_eq!(slot.with(|v| v.0), 2_000);
    }

    #[test]
    fn slots_recycle_across_thread_lifetimes() {
        let slot = Arc::new(ArcSwap::from_pointee(0u64));
        // Sequential short-lived threads reuse the freed slot instead of
        // registering 64 new ones. Threads of tests running in parallel
        // register slots of their own, so a round that saw the registry
        // grow is retried; without reuse every round grows by 64.
        let deadline = Instant::now() + DEADLINE;
        loop {
            let before = registry().slots.lock().unwrap().len();
            for _ in 0..64 {
                let slot = slot.clone();
                std::thread::spawn(move || slot.with(|v| *v)).join().unwrap();
            }
            let after = registry().slots.lock().unwrap().len();
            if after <= before + 2 {
                break;
            }
            assert!(Instant::now() < deadline, "slot registry grew from {before} to {after}");
        }
    }
}
