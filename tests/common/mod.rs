//! Shared test-side reference implementations.

use std::collections::{HashMap, VecDeque};

use rc_core::cache::ResultCacheStats;
use rc_core::Prediction;

/// The result cache as it was before sharding: a `HashMap` plus a FIFO
/// order book behind `&mut self`. Kept only as the oracle
/// `ShardedResultCache` (with one shard) is compared against.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<u64, Prediction>,
    /// Insertion order for FIFO eviction once the capacity is reached.
    order: VecDeque<u64>,
    capacity: usize,
    stats: ResultCacheStats,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "result cache needs capacity");
        ResultCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            stats: ResultCacheStats::default(),
        }
    }

    /// Looks a key up, recording hit/miss statistics.
    pub fn get(&mut self, key: u64) -> Option<Prediction> {
        let found = self.map.get(&key).copied();
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    /// Inserts a prediction, evicting the oldest entry when full.
    /// Returns `true` when the insert displaced an older entry.
    pub fn insert(&mut self, key: u64, prediction: Prediction) -> bool {
        let mut evicted = false;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            while let Some(old) = self.order.pop_front() {
                if self.map.remove(&old).is_some() {
                    self.stats.evictions += 1;
                    evicted = true;
                    break;
                }
            }
        }
        self.stats.insertions += 1;
        if self.map.insert(key, prediction).is_none() {
            self.order.push_back(key);
        }
        evicted
    }

    /// Empties the cache (statistics are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// All counters at once.
    pub fn stats(&self) -> ResultCacheStats {
        self.stats
    }
}
