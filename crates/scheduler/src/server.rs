//! Server state and Algorithm 1's bookkeeping (PlaceVM / VMCompleted).
//!
//! [`ServerFleet`] keeps per-server state in parallel arrays, maintains
//! the fleet-wide aggregates (total allocation, oversubscribable/busy
//! counts) incrementally on place/complete instead of per-query full
//! scans, and indexes servers so selection never touches one that cannot
//! win: empty servers in one bitset, occupied ones in one bitset per
//! (group, allocated cores). `ServerFleet::first_fitting` walks that
//! index in Algorithm 1's preference order, so the first server that
//! passes the caller's remaining filters is the placement.

use rc_types::vm::ProdTag;

use crate::request::VmRequest;

/// Logical server grouping under the oversubscription scheme (§5): empty
/// servers take either kind of VM and are tagged by their first placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// No VMs placed; eligible for either group.
    Empty,
    /// Hosts only production workloads; never oversubscribed.
    NonOversubscribable,
    /// Hosts only non-production workloads; may be oversubscribed.
    Oversubscribable,
}

impl ServerKind {
    /// The group's slot in [`ServerFleet`]'s level index.
    fn group(self) -> usize {
        match self {
            ServerKind::NonOversubscribable => 0,
            ServerKind::Oversubscribable => 1,
            ServerKind::Empty => unreachable!("empty servers have no allocation level"),
        }
    }
}

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

/// One group's occupied servers by allocated cores. Core counts are
/// `u32`, so every allocation is a whole number: its level.
#[derive(Debug, Clone)]
struct Levels {
    /// Bitset words per level (one bit per server).
    words: usize,
    /// Level-major bitsets: bit `i % 64` of `bits[level * words + i / 64]`
    /// is set while server `i` sits at `level` allocated cores.
    bits: Vec<u64>,
    /// Servers per level, so selection passes empty levels unread.
    counts: Vec<u32>,
}

impl Levels {
    fn new(words: usize) -> Self {
        Levels { words, bits: Vec::new(), counts: Vec::new() }
    }

    fn insert(&mut self, level: usize, i: usize) {
        if level >= self.counts.len() {
            self.counts.resize(level + 1, 0);
            self.bits.resize((level + 1) * self.words, 0);
        }
        self.counts[level] += 1;
        set_bit(&mut self.bits[level * self.words..], i);
    }

    fn remove(&mut self, level: usize, i: usize) {
        self.counts[level] -= 1;
        clear_bit(&mut self.bits[level * self.words..], i);
    }

    fn count(&self, level: usize) -> u32 {
        self.counts.get(level).copied().unwrap_or(0)
    }

    fn word(&self, level: usize, w: usize) -> u64 {
        self.bits.get(level * self.words + w).copied().unwrap_or(0)
    }
}

/// Struct-of-arrays server fleet: the scheduler hot path's layout.
///
/// Per-server state lives in parallel arrays; fleet-wide aggregates and
/// the server indexes are maintained incrementally by
/// [`ServerFleet::place`] / [`ServerFleet::complete`], so
/// `total_alloc_cores`, `busy_servers`, and `oversubscribable_servers`
/// are O(1) reads. Core counts are integer-valued `f64`s, so the running
/// total is exact (bit-equal to a fresh full-scan sum).
#[derive(Debug, Clone)]
pub struct ServerFleet {
    capacity_cores: f64,
    capacity_memory_gb: f64,
    alloc_cores: Vec<f64>,
    alloc_memory_gb: Vec<f64>,
    predicted_util_cores: Vec<f64>,
    kind: Vec<ServerKind>,
    n_vms: Vec<u32>,
    /// Exact running sum of `alloc_cores`.
    total_alloc_cores: f64,
    /// Running count of oversubscribable servers.
    n_oversubscribable: usize,
    /// Occupied server indices, in first-fill order (swap-removed).
    occupied: Vec<u32>,
    /// Position of server `i` in `occupied`, or `u32::MAX` when empty.
    occupied_pos: Vec<u32>,
    /// Empty servers, one bit each: the lowest is the canonical empty
    /// candidate (all empties rank equal, and index order breaks ties).
    empty: Vec<u64>,
    /// Occupied servers by group ([`ServerKind::group`]) and level.
    levels: [Levels; 2],
}

impl ServerFleet {
    /// A fleet of `n` identical empty servers.
    pub fn new(n: usize, capacity_cores: f64, capacity_memory_gb: f64) -> Self {
        assert!(u32::try_from(n).is_ok(), "fleet size {n} exceeds u32 indexing");
        let words = n.div_ceil(64);
        let mut empty = vec![0; words];
        (0..n).for_each(|i| set_bit(&mut empty, i));
        ServerFleet {
            capacity_cores,
            capacity_memory_gb,
            alloc_cores: vec![0.0; n],
            alloc_memory_gb: vec![0.0; n],
            predicted_util_cores: vec![0.0; n],
            kind: vec![ServerKind::Empty; n],
            n_vms: vec![0; n],
            total_alloc_cores: 0.0,
            n_oversubscribable: 0,
            occupied: Vec::with_capacity(n),
            occupied_pos: vec![u32::MAX; n],
            empty,
            levels: [Levels::new(words), Levels::new(words)],
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// True for a zero-server fleet.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Physical core capacity of each server.
    pub fn capacity_cores(&self) -> f64 {
        self.capacity_cores
    }

    /// Physical memory capacity of each server.
    pub fn capacity_memory_gb(&self) -> f64 {
        self.capacity_memory_gb
    }

    /// Server `i`'s grouping.
    pub fn kind(&self, i: usize) -> ServerKind {
        self.kind[i]
    }

    /// Server `i`'s allocated cores.
    pub fn alloc_cores(&self, i: usize) -> f64 {
        self.alloc_cores[i]
    }

    /// Server `i`'s free physical memory.
    pub fn free_memory_gb(&self, i: usize) -> f64 {
        self.capacity_memory_gb - self.alloc_memory_gb[i]
    }

    /// Server `i`'s charged predicted-P95 core units.
    pub fn predicted_util_cores(&self, i: usize) -> f64 {
        self.predicted_util_cores[i]
    }

    /// Server `i`'s resident-VM count.
    pub fn n_vms(&self, i: usize) -> u32 {
        self.n_vms[i]
    }

    /// Occupied server indices in first-fill order, swap-removed on
    /// emptying. The simulator's utilization tick sums in this order;
    /// selection ranks servers through the level index instead.
    pub fn occupied(&self) -> &[u32] {
        &self.occupied
    }

    /// The lowest-index empty server, if any.
    pub fn lowest_empty(&self) -> Option<usize> {
        let w = self.empty.iter().position(|&word| word != 0)?;
        Some(w * 64 + self.empty[w].trailing_zeros() as usize)
    }

    /// The first server `accept` takes among the occupied servers of the
    /// given kinds whose allocation stays within `alloc_limit` after
    /// `cores` more, offered in Algorithm 1's preference order: tightest
    /// fit (highest allocation) first, lowest index on ties. `accept`
    /// applies the remaining filters, so the server it takes is the one a
    /// full scan would pick.
    pub(crate) fn first_fitting(
        &self,
        kinds: &[ServerKind],
        cores: f64,
        alloc_limit: f64,
        mut accept: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let n_levels = self.levels.iter().map(|l| l.counts.len()).max().unwrap_or(0);
        for level in (0..n_levels).rev().skip_while(|&level| level as f64 + cores > alloc_limit) {
            if kinds.iter().all(|k| self.levels[k.group()].count(level) == 0) {
                continue;
            }
            for w in 0..self.empty.len() {
                let mut bits =
                    kinds.iter().fold(0, |bits, k| bits | self.levels[k.group()].word(level, w));
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    if accept(i) {
                        return Some(i);
                    }
                    bits &= bits - 1;
                }
            }
        }
        None
    }

    /// Total allocated cores across the fleet — O(1), maintained
    /// incrementally and exact (core counts are integers).
    pub fn total_alloc_cores(&self) -> f64 {
        self.total_alloc_cores
    }

    /// Number of non-empty servers — O(1).
    pub fn busy_servers(&self) -> usize {
        self.occupied.len()
    }

    /// Number of oversubscribable servers — O(1).
    pub fn oversubscribable_servers(&self) -> usize {
        self.n_oversubscribable
    }

    /// Full-scan recomputation of the incremental aggregates:
    /// `(total_alloc_cores, busy, oversubscribable)`. Test oracle for the
    /// incremental bookkeeping; the hot path never calls it.
    pub fn recompute_aggregates(&self) -> (f64, usize, usize) {
        let total: f64 = self.alloc_cores.iter().sum();
        let busy = self.n_vms.iter().filter(|&&n| n > 0).count();
        let oversub = self.kind.iter().filter(|&&k| k == ServerKind::Oversubscribable).count();
        (total, busy, oversub)
    }

    /// Server `i`'s level in its group's index.
    fn level(&self, i: usize) -> usize {
        self.alloc_cores[i] as usize
    }

    /// Algorithm 1, `PlaceVM`, on server `i`; updates the aggregates and
    /// the server indexes.
    pub fn place(&mut self, i: usize, vm: &VmRequest, predicted_util_cores: f64) {
        if self.n_vms[i] == 0 {
            self.kind[i] = match vm.prod {
                ProdTag::Production => ServerKind::NonOversubscribable,
                ProdTag::NonProduction => {
                    self.n_oversubscribable += 1;
                    ServerKind::Oversubscribable
                }
            };
            clear_bit(&mut self.empty, i);
            self.occupied_pos[i] = self.occupied.len() as u32;
            self.occupied.push(i as u32);
        } else {
            let level = self.level(i);
            self.levels[self.kind[i].group()].remove(level, i);
        }
        self.alloc_cores[i] += vm.cores as f64;
        self.alloc_memory_gb[i] += vm.memory_gb;
        self.total_alloc_cores += vm.cores as f64;
        self.n_vms[i] += 1;
        if self.kind[i] == ServerKind::Oversubscribable {
            self.predicted_util_cores[i] += predicted_util_cores;
        }
        let level = self.level(i);
        self.levels[self.kind[i].group()].insert(level, i);
    }

    /// Algorithm 1, `VMCompleted`, on server `i`; an emptied server
    /// reverts to [`ServerKind::Empty`] and rejoins the empty index.
    pub fn complete(&mut self, i: usize, vm: &VmRequest, predicted_util_cores: f64) {
        debug_assert!(self.n_vms[i] > 0, "completing a VM on an empty server");
        let group = self.kind[i].group();
        self.levels[group].remove(self.level(i), i);
        let before = self.alloc_cores[i];
        self.alloc_cores[i] = (self.alloc_cores[i] - vm.cores as f64).max(0.0);
        self.total_alloc_cores -= before - self.alloc_cores[i];
        self.alloc_memory_gb[i] = (self.alloc_memory_gb[i] - vm.memory_gb).max(0.0);
        if self.kind[i] == ServerKind::Oversubscribable {
            self.predicted_util_cores[i] =
                (self.predicted_util_cores[i] - predicted_util_cores).max(0.0);
        }
        self.n_vms[i] -= 1;
        if self.n_vms[i] > 0 {
            let level = self.level(i);
            self.levels[group].insert(level, i);
            return;
        }
        if self.kind[i] == ServerKind::Oversubscribable {
            self.n_oversubscribable -= 1;
        }
        self.kind[i] = ServerKind::Empty;
        self.total_alloc_cores -= self.alloc_cores[i];
        self.alloc_cores[i] = 0.0;
        self.alloc_memory_gb[i] = 0.0;
        self.predicted_util_cores[i] = 0.0;
        // Swap-remove from the occupied list, fixing the moved entry.
        let pos = self.occupied_pos[i] as usize;
        self.occupied.swap_remove(pos);
        if let Some(&moved) = self.occupied.get(pos) {
            self.occupied_pos[moved as usize] = pos as u32;
        }
        self.occupied_pos[i] = u32::MAX;
        set_bit(&mut self.empty, i);
    }

    /// Panics unless every index equals one rebuilt from the per-server
    /// arrays: the empty bitset, each group's level bitsets and counts,
    /// and the occupied list with its backlinks.
    #[cfg(test)]
    pub(crate) fn assert_indexes_match_arrays(&self) {
        let words = self.empty.len();
        let mut empty = vec![0; words];
        let mut levels = [Levels::new(words), Levels::new(words)];
        for i in 0..self.len() {
            if self.n_vms[i] == 0 {
                assert_eq!(self.kind[i], ServerKind::Empty, "server {i}");
                set_bit(&mut empty, i);
            } else {
                levels[self.kind[i].group()].insert(self.level(i), i);
            }
        }
        assert_eq!(self.empty, empty, "empty bitset");
        for (group, (kept, rebuilt)) in self.levels.iter().zip(&levels).enumerate() {
            for level in 0..kept.counts.len().max(rebuilt.counts.len()) {
                assert_eq!(kept.count(level), rebuilt.count(level), "group {group} level {level}");
                for w in 0..words {
                    assert_eq!(
                        kept.word(level, w),
                        rebuilt.word(level, w),
                        "group {group} level {level} word {w}"
                    );
                }
            }
        }
        assert_eq!(self.occupied.len(), self.n_vms.iter().filter(|&&n| n > 0).count());
        for (pos, &i) in self.occupied.iter().enumerate() {
            assert_eq!(self.occupied_pos[i as usize] as usize, pos, "backlink of server {i}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_core::ClientInputs;
    use rc_trace::UtilParams;
    use rc_types::time::Timestamp;
    use rc_types::vm::{OsType, Party, SubscriptionId, VmId, VmRole};

    fn request(cores: u32, prod: ProdTag) -> VmRequest {
        VmRequest {
            vm_id: VmId(1),
            cores,
            memory_gb: 3.5,
            prod,
            created: Timestamp::ZERO,
            deleted: Timestamp::from_hours(1),
            util: UtilParams::creation_test(1),
            inputs: ClientInputs {
                subscription: SubscriptionId(0),
                party: Party::First,
                role: VmRole::Iaas,
                prod,
                os: OsType::Linux,
                sku_index: 2,
                deployment_time: Timestamp::ZERO,
                deployment_size_hint: 1,
                service: None,
            },
            true_p95_bucket: 3,
        }
    }

    #[test]
    fn first_placement_tags_the_server() {
        let mut fleet = ServerFleet::new(2, 16.0, 112.0);
        assert_eq!(fleet.kind(0), ServerKind::Empty);
        fleet.place(0, &request(2, ProdTag::NonProduction), 1.0);
        assert_eq!(fleet.kind(0), ServerKind::Oversubscribable);
        assert_eq!(fleet.alloc_cores(0), 2.0);
        assert_eq!(fleet.predicted_util_cores(0), 1.0);

        fleet.place(1, &request(2, ProdTag::Production), 1.0);
        assert_eq!(fleet.kind(1), ServerKind::NonOversubscribable);
        // Production servers don't track predicted utilization.
        assert_eq!(fleet.predicted_util_cores(1), 0.0);
    }

    #[test]
    fn place_and_complete_are_inverses() {
        let mut fleet = ServerFleet::new(1, 16.0, 112.0);
        let vm = request(4, ProdTag::NonProduction);
        fleet.place(0, &vm, 2.0);
        fleet.place(0, &vm, 2.0);
        fleet.complete(0, &vm, 2.0);
        assert_eq!(fleet.alloc_cores(0), 4.0);
        assert_eq!(fleet.predicted_util_cores(0), 2.0);
        assert_eq!(fleet.n_vms(0), 1);
        fleet.complete(0, &vm, 2.0);
        assert_eq!(fleet.n_vms(0), 0);
        assert_eq!(fleet.kind(0), ServerKind::Empty);
        assert_eq!(fleet.alloc_cores(0), 0.0);
        assert_eq!(fleet.lowest_empty(), Some(0));
    }

    #[test]
    fn emptied_server_takes_either_kind() {
        let mut fleet = ServerFleet::new(1, 16.0, 112.0);
        let nonprod = request(2, ProdTag::NonProduction);
        fleet.place(0, &nonprod, 1.0);
        fleet.complete(0, &nonprod, 1.0);
        fleet.place(0, &request(2, ProdTag::Production), 1.0);
        assert_eq!(fleet.kind(0), ServerKind::NonOversubscribable);
    }

    #[test]
    fn fitting_ranks_tightest_fit_then_lowest_index() {
        let mut fleet = ServerFleet::new(130, 16.0, 112.0);
        let one = request(1, ProdTag::NonProduction);
        let prod = request(1, ProdTag::Production);
        // Levels: servers 129 and 3 at 2 cores, 64 at 1 core, 5 at 3
        // cores but production.
        for i in [129usize, 3, 129, 64, 3] {
            fleet.place(i, &one, 0.0);
        }
        for _ in 0..3 {
            fleet.place(5, &prod, 0.0);
        }
        let order = |kinds: &[ServerKind], cores| {
            let mut offered = Vec::new();
            let taken = fleet.first_fitting(kinds, cores, 20.0, |i| {
                offered.push(i);
                false
            });
            assert_eq!(taken, None);
            offered
        };
        let nonprod = [ServerKind::Oversubscribable];
        assert_eq!(order(&nonprod, 1.0), vec![3, 129, 64]);
        // A 19-core VM fits only on the 1-core server.
        assert_eq!(order(&nonprod, 19.0), vec![64]);
        let both = [ServerKind::NonOversubscribable, ServerKind::Oversubscribable];
        assert_eq!(order(&both, 1.0), vec![5, 3, 129, 64]);
        assert_eq!(fleet.first_fitting(&both, 1.0, 20.0, |i| i != 5), Some(3));
        assert_eq!(fleet.lowest_empty(), Some(0));
        fleet.assert_indexes_match_arrays();
    }

    #[test]
    fn fleet_aggregates_match_full_scans() {
        let mut fleet = ServerFleet::new(8, 16.0, 112.0);
        let nonprod = request(4, ProdTag::NonProduction);
        let prod = request(2, ProdTag::Production);
        for i in [0usize, 3, 5] {
            fleet.place(i, &nonprod, 1.0);
        }
        for i in [1usize, 3] {
            fleet.place(i, &prod, 0.0);
        }
        fleet.complete(5, &nonprod, 1.0);
        let (total, busy, oversub) = fleet.recompute_aggregates();
        assert_eq!(fleet.total_alloc_cores(), total);
        assert_eq!(fleet.busy_servers(), busy);
        assert_eq!(fleet.oversubscribable_servers(), oversub);
    }

    #[test]
    fn fleet_occupied_and_empty_indices_stay_consistent() {
        let mut fleet = ServerFleet::new(5, 16.0, 112.0);
        let vm = request(4, ProdTag::Production);
        for i in 0..5 {
            fleet.place(i, &vm, 0.0);
        }
        assert_eq!(fleet.lowest_empty(), None);
        // Empty out of the middle; swap-remove must keep positions valid.
        fleet.complete(2, &vm, 0.0);
        fleet.complete(0, &vm, 0.0);
        assert_eq!(fleet.lowest_empty(), Some(0));
        assert_eq!(fleet.busy_servers(), 3);
        let mut occ: Vec<u32> = fleet.occupied().to_vec();
        occ.sort_unstable();
        assert_eq!(occ, vec![1, 3, 4]);
        // Refill; the lowest empty is chosen first by convention.
        fleet.place(fleet.lowest_empty().unwrap(), &vm, 0.0);
        assert_eq!(fleet.lowest_empty(), Some(2));
        fleet.assert_indexes_match_arrays();
    }
}
