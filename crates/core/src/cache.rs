//! Client-side caches: the result cache and the local disk cache (§4.2,
//! "Cache management"). Models and feature data live in the client's
//! serve snapshot.

use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration as StdDuration, SystemTime};

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use rc_types::fnv1a;

use crate::prediction::Prediction;

/// A point-in-time copy of the result cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResultCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries removed to make room.
    pub evictions: u64,
    /// Entries written (including overwrites of existing keys).
    pub insertions: u64,
}

/// `Slot::value` of an empty slot.
const EMPTY: u64 = 0;

/// Failed reads a reader spins through before it yields its time slice,
/// so that a writer preempted mid-write on a one-CPU box gets to finish.
const SPIN_LIMIT: u32 = 64;

/// One entry of a shard's open-addressed table: "only the corresponding
/// prediction value and score" (§4.2) next to the key. `value` holds the
/// bucket index plus one and doubles as the occupancy flag ([`EMPTY`]),
/// so every `u64` — `0` and `u64::MAX` included — is a legal key.
#[derive(Debug)]
struct Slot {
    key: AtomicU64,
    value: AtomicU64,
    score: AtomicU64,
}

/// One shard's writer-side state, touched only under the shard's mutex.
#[derive(Debug)]
struct ShardWrite {
    /// The FIFO order book: the resident keys, oldest at `head`.
    ring: Box<[u64]>,
    head: usize,
    insertions: u64,
    evictions: u64,
}

/// One shard: a fixed table of all-atomic slots that writers update in
/// place and readers probe without locking, validated by `seq`.
#[derive(Debug)]
struct Shard {
    /// Even while the slots are stable, odd between a writer's first and
    /// last store. A reader that sees the same even value before and
    /// after its probe saw a consistent table.
    seq: AtomicU64,
    /// Resident entries; written under `write`, read lock-free.
    len: AtomicUsize,
    /// Linear-probed, at most two thirds full, never resized.
    slots: Box<[Slot]>,
    write: Mutex<ShardWrite>,
    /// Lookup counters are padded so that readers bumping them never
    /// share a cache line with `seq` or with another shard.
    hits: CachePadded<AtomicU64>,
    misses: CachePadded<AtomicU64>,
}

/// The slot after `i`, wrapping.
#[inline]
fn next_slot(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        // At most 1.5 slots per entry, and always one to spare so that
        // every probe run ends at an empty slot.
        let n_slots = (capacity * 3).div_ceil(2).max(capacity + 1);
        Shard {
            seq: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            slots: (0..n_slots)
                .map(|_| Slot {
                    key: AtomicU64::new(0),
                    value: AtomicU64::new(EMPTY),
                    score: AtomicU64::new(0),
                })
                .collect(),
            write: Mutex::new(ShardWrite {
                ring: vec![0; capacity].into_boxed_slice(),
                head: 0,
                insertions: 0,
                evictions: 0,
            }),
            hits: CachePadded::new(AtomicU64::new(0)),
            misses: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Where a key's probe run starts: the high bits of a multiplicative
    /// mix, scaled to the slot count, so that it shares nothing with the
    /// xor-fold that picked the shard.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed as u128 * self.slots.len() as u128) >> 64) as usize
    }

    /// Probes for `key`: the slot that holds it with its `value` word, or
    /// the empty slot that ends its run with [`EMPTY`]. A full lap can
    /// only happen to a reader racing a writer, whose sequence check then
    /// discards the answer.
    #[inline]
    fn locate(&self, key: u64) -> (usize, u64) {
        let n = self.slots.len();
        let mut i = self.home(key);
        for _ in 0..n {
            let tagged = self.slots[i].value.load(Ordering::Relaxed);
            if tagged == EMPTY || self.slots[i].key.load(Ordering::Relaxed) == key {
                return (i, tagged);
            }
            i = next_slot(i, n);
        }
        (i, EMPTY)
    }

    /// The lock-free read: probe between two loads of `seq`, retry when a
    /// writer was (or got) in the way. The initial `Acquire` load pairs
    /// with the writer's closing `Release` store, so an even `seq` comes
    /// with every slot store before it; the `Acquire` fence pairs with
    /// the writer's `Release` fence, so a probe that saw any store of a
    /// later write also sees that write's odd `seq` in the second load.
    #[inline]
    fn read(&self, key: u64) -> Option<Prediction> {
        let mut failed = 0u32;
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before & 1 == 0 {
                let (i, tagged) = self.locate(key);
                let score = self.slots[i].score.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == before {
                    return (tagged != EMPTY).then(|| Prediction {
                        value: (tagged - 1) as usize,
                        score: f64::from_bits(score),
                    });
                }
            }
            failed += 1;
            if failed < SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Runs `mutate` with `seq` odd. Callers hold the write mutex, and
    /// `mutate` does nothing that can panic: a writer that died mid-write
    /// would leave `seq` odd and every reader of the shard retrying.
    #[inline]
    fn write_slots(&self, mutate: impl FnOnce()) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        mutate();
        self.seq.store(seq + 2, Ordering::Release);
    }

    #[inline]
    fn fill(&self, i: usize, key: u64, tagged: u64, score: u64) {
        self.slots[i].key.store(key, Ordering::Relaxed);
        self.slots[i].score.store(score, Ordering::Relaxed);
        self.slots[i].value.store(tagged, Ordering::Relaxed);
    }

    /// Empties slot `hole` and closes the gap by backward shift: each
    /// later entry of the run moves into the hole unless its home lies
    /// cyclically after the hole, so every run still ends at the first
    /// empty slot past its keys' homes and no tombstone is left behind.
    fn vacate(&self, mut hole: usize) {
        let n = self.slots.len();
        let mut j = hole;
        loop {
            j = next_slot(j, n);
            let tagged = self.slots[j].value.load(Ordering::Relaxed);
            if tagged == EMPTY {
                break;
            }
            let key = self.slots[j].key.load(Ordering::Relaxed);
            let home = self.home(key);
            let stays = if hole <= j { hole < home && home <= j } else { hole < home || home <= j };
            if !stays {
                self.fill(hole, key, tagged, self.slots[j].score.load(Ordering::Relaxed));
                hole = j;
            }
        }
        self.slots[hole].value.store(EMPTY, Ordering::Relaxed);
    }

    /// One insert under the write mutex: overwrite in place, or evict the
    /// shard's oldest key when full and take the free slot. Returns
    /// `true` on displacement.
    fn insert(&self, key: u64, prediction: Prediction) -> bool {
        assert!(prediction.value < usize::MAX, "bucket index must leave room for the empty flag");
        let (tagged, score) = (prediction.value as u64 + 1, prediction.score.to_bits());
        let mut guard = self.write.lock();
        let write = &mut *guard;
        write.insertions += 1;
        let (at, resident) = self.locate(key);
        if resident != EMPTY {
            self.write_slots(|| self.fill(at, key, tagged, score));
            return false;
        }
        let capacity = write.ring.len();
        let len = self.len.load(Ordering::Relaxed);
        if len < capacity {
            self.write_slots(|| self.fill(at, key, tagged, score));
            write.ring[(write.head + len) % capacity] = key;
            self.len.store(len + 1, Ordering::Relaxed);
            return false;
        }
        // Full: the oldest key leaves and the new one takes its place at
        // the back of the order book, which is the slot `head` frees.
        let (hole, victim) = self.locate(write.ring[write.head]);
        assert!(victim != EMPTY, "the order book names only resident keys");
        self.write_slots(|| {
            self.vacate(hole);
            self.fill(self.locate(key).0, key, tagged, score);
        });
        write.ring[write.head] = key;
        write.head = (write.head + 1) % capacity;
        write.evictions += 1;
        true
    }
}

/// The result cache: an N-way sharded, capacity-bounded table keyed by
/// the hash of `(model name, client inputs)`, FIFO-evicted per shard.
///
/// §6.1's microsecond in-cache latencies only hold if concurrent
/// resource managers never queue on a lock to read, and a miss is a
/// request-to-placement cost, so a write must be cheap too. Each shard is
/// a fixed-capacity open-addressed table of atomic slots: `get` probes
/// it under a per-shard sequence counter — no locks, no heap allocation,
/// a retry only when a write to the same shard overlaps — and `insert`
/// takes the shard's mutex and stores in place, evicting the shard's
/// oldest key by backward-shift deletion once the shard is full. Every
/// insert is visible to every `get` that starts after it returns.
///
/// Statistics stay *exact*: hits/misses are per-shard padded atomics
/// bumped once per lookup; insertions/evictions are updated under the
/// shard's write mutex. [`ShardedResultCache::stats`] sums them.
#[derive(Debug)]
pub struct ShardedResultCache {
    shards: Vec<Shard>,
    /// `n_shards - 1`; the shard count is always a power of two.
    mask: u64,
}

impl ShardedResultCache {
    /// Creates a cache of `n_shards` shards (rounded up to a power of
    /// two, then down to at most `capacity`) whose capacities sum to
    /// exactly `capacity`. The tables are allocated here, once: about 44
    /// bytes per entry of capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize, n_shards: usize) -> Self {
        assert!(capacity > 0, "result cache needs capacity");
        // Every shard holds at least one entry: an empty order book has
        // no slot for the key an insert brings.
        let n_shards = n_shards.clamp(1, 1 << 16).next_power_of_two().min(1 << capacity.ilog2());
        let (per_shard, extra) = (capacity / n_shards, capacity % n_shards);
        ShardedResultCache {
            shards: (0..n_shards).map(|i| Shard::new(per_shard + usize::from(i < extra))).collect(),
            mask: (n_shards - 1) as u64,
        }
    }

    /// Picks the default shard count for a machine: enough shards that
    /// concurrent predictors rarely collide, capped so tiny caches don't
    /// fragment.
    pub fn default_shards() -> usize {
        let cores = std::thread::available_parallelism().map_or(4, |p| p.get());
        (cores * 8).next_power_of_two().clamp(8, 256)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key lives in.
    #[inline]
    pub fn shard_index(&self, key: u64) -> usize {
        // Fold the high bits in so the shard choice does not depend on
        // the low bits alone.
        ((key ^ (key >> 32)) & self.mask) as usize
    }

    /// Looks a key up in its shard's table — no locks, no heap
    /// allocation. Records exactly one hit or miss.
    #[inline]
    pub fn get(&self, key: u64) -> Option<Prediction> {
        let shard = &self.shards[self.shard_index(key)];
        let found = shard.read(key);
        let counter = if found.is_some() { &shard.hits } else { &shard.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a prediction into the owning shard, evicting that shard's
    /// oldest entry when it is full. Returns `true` on displacement.
    ///
    /// # Panics
    ///
    /// Panics when `prediction.value == usize::MAX`.
    pub fn insert(&self, key: u64, prediction: Prediction) -> bool {
        self.shards[self.shard_index(key)].insert(key, prediction)
    }

    /// Empties every shard (statistics are kept). Costs in proportion to
    /// what is resident, not to the capacity: a nearly empty shard deletes
    /// its few keys one by one instead of sweeping its whole table.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut write = shard.write.lock();
            let (len, capacity) = (shard.len.load(Ordering::Relaxed), write.ring.len());
            shard.write_slots(|| {
                if len < shard.slots.len() / 32 {
                    for k in 0..len {
                        let key = write.ring[(write.head + k) % capacity];
                        shard.vacate(shard.locate(key).0);
                    }
                } else {
                    for slot in shard.slots.iter() {
                        slot.value.store(EMPTY, Ordering::Relaxed);
                    }
                }
            });
            write.head = 0;
            shard.len.store(0, Ordering::Relaxed);
        }
    }

    /// Entries currently cached across all shards (lock-free).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len.load(Ordering::Relaxed)).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact aggregate counters, summed across shards.
    pub fn stats(&self) -> ResultCacheStats {
        let mut total = ResultCacheStats::default();
        for shard in &self.shards {
            let write = shard.write.lock();
            total.hits += shard.hits.load(Ordering::Relaxed);
            total.misses += shard.misses.load(Ordering::Relaxed);
            total.evictions += write.evictions;
            total.insertions += write.insertions;
        }
        total
    }

    /// Aggregate hit rate over all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let s = self.stats();
        let total = s.hits + s.misses;
        if total == 0 {
            0.0
        } else {
            s.hits as f64 / total as f64
        }
    }
}

/// Escapes a record name into a filename-safe stem, losslessly.
///
/// Store keys contain `/` (e.g. "model/VM_P95UTIL"). The old scheme
/// flattened `/` to `_`, which collided distinct keys like `a_b` and
/// `a/b` on disk; percent-escaping the three fs-hostile characters keeps
/// every key distinct and invertible.
fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '%' => out.push_str("%25"),
            '/' => out.push_str("%2F"),
            '\\' => out.push_str("%5C"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverts [`escape_name`]. Malformed escapes are kept verbatim so a
/// hand-placed file still lists as *something* rather than panicking.
fn unescape_name(stem: &str) -> String {
    let bytes = stem.as_bytes();
    let mut out = String::with_capacity(stem.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() {
            if let Ok(hex) = std::str::from_utf8(&bytes[i + 1..i + 3]) {
                if let Ok(b) = u8::from_str_radix(hex, 16) {
                    out.push(b as char);
                    i += 3;
                    continue;
                }
            }
        }
        // Multi-byte UTF-8 never starts with '%', so byte-wise advance is
        // only taken on ASCII here; non-ASCII is copied per char below.
        let c = stem[i..].chars().next().expect("in-bounds char");
        out.push(c);
        i += c.len_utf8();
    }
    out
}

/// How a disk-cache load resolved (see [`DiskCache::load_graced`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskLoadResult {
    /// Present, checksum valid, younger than the expiry.
    Fresh(Vec<u8>),
    /// Present and valid, but past the expiry — inside the caller's grace
    /// window (stale-while-revalidate serving).
    Stale(Vec<u8>),
    /// Present and valid, but older than expiry + grace.
    Expired,
    /// Present but torn, truncated, or checksum-mismatched.
    Corrupt,
    /// No entry on disk.
    Missing,
}

/// Frame magic for disk-cache entries ("RC cache v1").
const DISK_MAGIC: [u8; 4] = *b"RCC1";

/// Whether `fname` is a name [`DiskCache`] writes: a record
/// (`<kind>_<escaped name>.bin`) or a temp file (`.tmp_*`).
fn is_cache_file(fname: &str) -> bool {
    fname.starts_with(".tmp_")
        || fname
            .strip_suffix(".bin")
            .and_then(|stem| stem.split_once('_'))
            .is_some_and(|(kind, _)| !kind.is_empty())
}

/// The local disk cache. RC "stores the content of the model and feature
/// data caches in the local file system" and consults it only when the
/// store is unavailable, ignoring it once expired (§4.2).
///
/// Entries are framed (`RCC1` magic + FNV-1a checksum + payload) and
/// written atomically (temp file in the same directory, then rename), so
/// a crash mid-write can never leave a truncated entry that later loads
/// as data — a torn or hand-mangled file surfaces as
/// [`DiskLoadResult::Corrupt`] instead.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
    expiry: StdDuration,
}

impl DiskCache {
    /// Creates a disk cache rooted at `dir` with the given expiry.
    ///
    /// The directory is created on first write.
    pub fn new(dir: PathBuf, expiry: StdDuration) -> Self {
        DiskCache { dir, expiry }
    }

    fn path_for(&self, kind: &str, name: &str) -> PathBuf {
        self.dir.join(format!("{kind}_{}.bin", escape_name(name)))
    }

    /// Persists a record crash-safely: the framed entry is written to a
    /// unique temp file in the cache directory and renamed into place, so
    /// readers only ever observe a complete frame (rename is atomic on
    /// POSIX within one filesystem).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, kind: &str, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let mut framed = Vec::with_capacity(12 + bytes.len());
        framed.extend_from_slice(&DISK_MAGIC);
        framed.extend_from_slice(&fnv1a(bytes).to_le_bytes());
        framed.extend_from_slice(bytes);
        static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(".tmp_{}_{seq}", std::process::id()));
        std::fs::write(&tmp, &framed)?;
        let result = std::fs::rename(&tmp, self.path_for(kind, name));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Unframes one entry's file contents, verifying magic and checksum.
    fn unframe(raw: &[u8]) -> Option<Vec<u8>> {
        if raw.len() < 12 || raw[..4] != DISK_MAGIC {
            return None;
        }
        let stored = u64::from_le_bytes(raw[4..12].try_into().expect("8 bytes"));
        let payload = &raw[12..];
        (fnv1a(payload) == stored).then(|| payload.to_vec())
    }

    /// Loads a record, classifying it by age against the expiry and a
    /// caller-supplied grace window: younger than `expiry` is
    /// [`DiskLoadResult::Fresh`], within `expiry + grace` is
    /// [`DiskLoadResult::Stale`], older is [`DiskLoadResult::Expired`].
    /// Frame or checksum violations are [`DiskLoadResult::Corrupt`].
    pub fn load_graced(&self, kind: &str, name: &str, grace: StdDuration) -> DiskLoadResult {
        let path = self.path_for(kind, name);
        let Ok(meta) = std::fs::metadata(&path) else {
            return DiskLoadResult::Missing;
        };
        let age = meta
            .modified()
            .ok()
            .and_then(|m| SystemTime::now().duration_since(m).ok())
            .unwrap_or(StdDuration::MAX);
        if age > self.expiry.saturating_add(grace) {
            return DiskLoadResult::Expired;
        }
        let Ok(raw) = std::fs::read(&path) else {
            return DiskLoadResult::Missing;
        };
        match Self::unframe(&raw) {
            None => DiskLoadResult::Corrupt,
            Some(payload) if age > self.expiry => DiskLoadResult::Stale(payload),
            Some(payload) => DiskLoadResult::Fresh(payload),
        }
    }

    /// Loads a record if present, intact, *and* younger than the expiry.
    pub fn load_if_fresh(&self, kind: &str, name: &str) -> Option<Vec<u8>> {
        match self.load_graced(kind, name, StdDuration::ZERO) {
            DiskLoadResult::Fresh(bytes) => Some(bytes),
            _ => None,
        }
    }

    /// Names of all persisted records of a kind (fresh or not), restored
    /// to their original (unescaped) form — a listed name can be passed
    /// straight back to [`DiskCache::load_if_fresh`].
    pub fn list(&self, kind: &str) -> Vec<String> {
        let prefix = format!("{kind}_");
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = dir
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let fname = e.file_name().into_string().ok()?;
                let stem = fname.strip_suffix(".bin")?;
                stem.strip_prefix(&prefix).map(unescape_name)
            })
            .collect();
        names.sort();
        names
    }

    /// Removes every record and leftover temp file, and nothing else: a
    /// directory the cache shares keeps the files it did not write.
    pub fn flush(&self) {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in dir.filter_map(|e| e.ok()) {
            if entry.file_name().to_str().is_some_and(is_cache_file) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(v: usize) -> Prediction {
        Prediction { value: v, score: 0.9 }
    }

    #[test]
    fn disk_cache_round_trip_and_expiry() {
        let dir = std::env::temp_dir().join(format!("rc_disk_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(dir.clone(), StdDuration::from_secs(3_600));
        cache.save("model", "model/VM_P95UTIL", b"abc").unwrap();
        assert_eq!(cache.load_if_fresh("model", "model/VM_P95UTIL").unwrap(), b"abc");
        // `list` round-trips the original name, slash intact.
        assert_eq!(cache.list("model"), vec!["model/VM_P95UTIL".to_string()]);

        // An expired cache must be ignored.
        let strict = DiskCache::new(dir.clone(), StdDuration::ZERO);
        std::thread::sleep(StdDuration::from_millis(15));
        assert_eq!(strict.load_if_fresh("model", "model/VM_P95UTIL"), None);

        cache.flush();
        assert_eq!(cache.load_if_fresh("model", "model/VM_P95UTIL"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_keeps_collision_prone_keys_distinct() {
        // The old '/'-to-'_' flattening mapped these three keys onto the
        // same file; percent-escaping must keep them separate and make
        // `list` invertible.
        let dir = std::env::temp_dir().join(format!("rc_disk_collide_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(dir.clone(), StdDuration::from_secs(3_600));
        cache.save("model", "model/a_b", b"underscore").unwrap();
        cache.save("model", "model/a/b", b"slash").unwrap();
        cache.save("model", "model_a/b", b"prefix").unwrap();
        cache.save("model", "model/50%_off", b"percent").unwrap();
        assert_eq!(cache.load_if_fresh("model", "model/a_b").unwrap(), b"underscore");
        assert_eq!(cache.load_if_fresh("model", "model/a/b").unwrap(), b"slash");
        assert_eq!(cache.load_if_fresh("model", "model_a/b").unwrap(), b"prefix");
        assert_eq!(cache.load_if_fresh("model", "model/50%_off").unwrap(), b"percent");
        let mut names = cache.list("model");
        names.sort();
        assert_eq!(names, vec!["model/50%_off", "model/a/b", "model/a_b", "model_a/b"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_detects_torn_writes() {
        let dir = std::env::temp_dir().join(format!("rc_disk_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(dir.clone(), StdDuration::from_secs(3_600));
        cache.save("model", "m", b"intact payload").unwrap();
        let path = dir.join("model_m.bin");
        let full = std::fs::read(&path).unwrap();

        // A crash mid-write leaves a prefix of the frame: every prefix
        // must classify as Corrupt (or Missing for the empty file), never
        // as data.
        for cut in [0, 3, 11, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(
                cache.load_graced("model", "m", StdDuration::ZERO),
                DiskLoadResult::Corrupt,
                "torn at {cut} bytes"
            );
            assert_eq!(cache.load_if_fresh("model", "m"), None);
        }

        // Bit rot inside the payload trips the checksum.
        let mut rotted = full.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x40;
        std::fs::write(&path, &rotted).unwrap();
        assert_eq!(cache.load_graced("model", "m", StdDuration::ZERO), DiskLoadResult::Corrupt);

        // The intact frame still round-trips.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(cache.load_if_fresh("model", "m").unwrap(), b"intact payload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_save_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("rc_disk_tmp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(dir.clone(), StdDuration::from_secs(3_600));
        for i in 0..20 {
            cache.save("model", &format!("m{i}"), b"x").unwrap();
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp_"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        assert_eq!(cache.list("model").len(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_grace_window_serves_stale() {
        let dir = std::env::temp_dir().join(format!("rc_disk_grace_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Expiry zero: everything is stale the moment it lands.
        let cache = DiskCache::new(dir.clone(), StdDuration::ZERO);
        cache.save("model", "m", b"old but usable").unwrap();
        std::thread::sleep(StdDuration::from_millis(15));
        assert_eq!(cache.load_if_fresh("model", "m"), None, "fresh load rejects expired");
        assert_eq!(
            cache.load_graced("model", "m", StdDuration::from_secs(3_600)),
            DiskLoadResult::Stale(b"old but usable".to_vec()),
            "grace window serves it as stale"
        );
        assert_eq!(
            cache.load_graced("model", "m", StdDuration::ZERO),
            DiskLoadResult::Expired,
            "no grace, no serve"
        );
        assert_eq!(cache.load_graced("model", "nope", StdDuration::ZERO), DiskLoadResult::Missing);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escape_round_trips() {
        for name in ["model/VM_P95UTIL", "a_b", "a/b", "a%2Fb", "100%", "%", "nested/x/y_z"] {
            assert_eq!(unescape_name(&escape_name(name)), name, "round-trip of {name:?}");
            assert!(!escape_name(name).contains('/'), "{name:?} escapes to a flat filename");
        }
        // Distinct names never escape to the same stem.
        assert_ne!(escape_name("a_b"), escape_name("a/b"));
        assert_ne!(escape_name("a%2Fb"), escape_name("a/b"));
    }

    /// Alphabet for the percent-escaping properties: every fs-hostile
    /// character the scheme handles, the escape characters themselves,
    /// hex digits (so malformed-looking sequences like `%2F` arise
    /// naturally), and ordinary name characters.
    const HOSTILE: &[char] =
        &['%', '/', '\\', '2', '5', 'F', 'C', 'f', 'c', 'a', '_', '.', '-', 'Z', '0'];

    proptest::proptest! {
        #[test]
        fn escape_round_trips_arbitrary_keys(
            picks in proptest::collection::vec(0usize..HOSTILE.len(), 0..24)
        ) {
            let name: String = picks.iter().map(|&i| HOSTILE[i]).collect();
            let escaped = escape_name(&name);
            proptest::prop_assert_eq!(unescape_name(&escaped), name.clone());
            proptest::prop_assert!(!escaped.contains('/'), "escaped stem must be flat: {:?}", escaped);
            proptest::prop_assert!(!escaped.contains('\\'));
        }

        #[test]
        fn escape_and_path_for_are_injective(
            a in proptest::collection::vec(0usize..HOSTILE.len(), 0..16),
            b in proptest::collection::vec(0usize..HOSTILE.len(), 0..16)
        ) {
            let na: String = a.iter().map(|&i| HOSTILE[i]).collect();
            let nb: String = b.iter().map(|&i| HOSTILE[i]).collect();
            let cache = DiskCache::new(std::path::PathBuf::from("/tmp/rc-prop"), StdDuration::ZERO);
            if na != nb {
                proptest::prop_assert!(escape_name(&na) != escape_name(&nb));
                proptest::prop_assert!(cache.path_for("model", &na) != cache.path_for("model", &nb));
            } else {
                proptest::prop_assert_eq!(cache.path_for("model", &na), cache.path_for("model", &nb));
            }
        }
    }

    #[test]
    fn sharded_cache_routes_and_counts_exactly() {
        let c = ShardedResultCache::new(1024, 8);
        assert_eq!(c.n_shards(), 8);
        for k in 0..500u64 {
            assert_eq!(c.get(k), None);
            assert!(!c.insert(k, pred(k as usize)));
        }
        for k in 0..500u64 {
            assert_eq!(c.get(k).unwrap().value, k as usize);
        }
        let s = c.stats();
        assert_eq!(s.hits, 500);
        assert_eq!(s.misses, 500);
        assert_eq!(s.insertions, 500);
        assert_eq!(s.evictions, 0);
        assert_eq!(c.len(), 500);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        let touched: std::collections::HashSet<usize> =
            (0..500).map(|k| c.shard_index(k)).collect();
        assert!(touched.len() > 1, "keys spread out");
    }

    #[test]
    fn sharded_cache_capacity_splits_across_shards() {
        let c = ShardedResultCache::new(64, 4);
        // Overfill: per-shard FIFO keeps each shard at 16, so the total
        // sits at the configured capacity.
        for k in 0..10_000u64 {
            c.insert(k, pred(1));
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.stats().evictions, 10_000 - 64);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().insertions, 10_000, "clear keeps statistics");
    }

    #[test]
    fn clear_empties_sparse_and_dense_shards_alike() {
        let c = ShardedResultCache::new(4096, 1);
        // Sparse: few enough residents that each is deleted on its own.
        for k in 0..50u64 {
            c.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), pred(k as usize));
        }
        c.clear();
        assert!(c.is_empty());
        for k in 0..50u64 {
            assert_eq!(c.get(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)), None);
        }
        // The order book restarted too: refilling evicts only once full.
        for k in 0..4096u64 {
            assert!(!c.insert(k, pred(1)), "insert {k} into a cleared cache evicted");
        }
        assert!(c.insert(4096, pred(1)));
        assert_eq!(c.get(0), None, "the oldest key after the clear went first");
        // Dense: the whole table is swept.
        c.clear();
        assert!(c.is_empty());
        assert!((0..=4096u64).all(|k| c.get(k).is_none()));
        assert!(!c.insert(7, pred(7)));
        assert_eq!(c.get(7).unwrap().value, 7);
    }

    #[test]
    fn sharded_cache_rounds_shards_to_power_of_two() {
        assert_eq!(ShardedResultCache::new(100, 3).n_shards(), 4);
        assert_eq!(ShardedResultCache::new(100, 1).n_shards(), 1);
        assert_eq!(ShardedResultCache::new(100, 0).n_shards(), 1);
        // Never more shards than entries.
        assert_eq!(ShardedResultCache::new(3, 8).n_shards(), 2);
        assert_eq!(ShardedResultCache::new(1, 16).n_shards(), 1);
        let d = ShardedResultCache::default_shards();
        assert!(d.is_power_of_two() && (8..=256).contains(&d));
    }

    #[test]
    fn shard_capacities_sum_to_the_configured_capacity() {
        for (capacity, n_shards) in [(10, 8), (1, 16), (3, 8), (17, 4), (64, 4)] {
            let c = ShardedResultCache::new(capacity, n_shards);
            for k in 0..10_000u64 {
                c.insert(k, pred(1));
            }
            assert_eq!(c.len(), capacity, "new({capacity}, {n_shards}) overfilled");
        }
    }

    #[test]
    fn sharded_cache_is_exact_under_contention() {
        let c = std::sync::Arc::new(ShardedResultCache::new(1 << 12, 8));
        let n_threads = 8u64;
        let per_thread = 4_000u64;
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let key = t * per_thread + i;
                    if c.get(key).is_none() {
                        c.insert(key, pred(1));
                    }
                    let _ = c.get(key);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        // Each thread does exactly 2 lookups and 1 insert per unique key
        // (keys are disjoint across threads, so the first get misses).
        assert_eq!(s.hits + s.misses, 2 * n_threads * per_thread, "no lost lookup counts");
        assert_eq!(s.insertions, n_threads * per_thread, "no lost insert counts");
        assert!(s.misses >= n_threads * per_thread, "first lookup of each unique key misses");
    }
}
