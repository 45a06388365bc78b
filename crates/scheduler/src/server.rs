//! Server state and Algorithm 1's bookkeeping (PlaceVM / VMCompleted).
//!
//! Two representations live here: [`Server`], the array-of-structs record
//! Algorithm 1 is written against (kept for unit-level reasoning and
//! property tests), and [`ServerFleet`], the struct-of-arrays layout the
//! scheduler's hot path actually runs on. The fleet keeps the per-field
//! arrays cache-friendly for candidate scans, maintains fleet-wide
//! aggregates (total allocation, oversubscribable/busy counts)
//! incrementally on place/complete instead of per-query full scans, and
//! indexes occupied and empty servers so selection never touches servers
//! that cannot win.

use std::collections::BTreeSet;

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

/// One physical server.
#[derive(Debug, Clone)]
pub struct Server {
    /// Physical core capacity (`SERVER_CAPACITY` in Algorithm 1).
    pub capacity_cores: f64,
    /// Physical memory capacity in GB.
    pub capacity_memory_gb: f64,
    /// Sum of resident VMs' core allocations (`c.alloc`).
    pub alloc_cores: f64,
    /// Sum of resident VMs' memory allocations.
    pub alloc_memory_gb: f64,
    /// Sum of resident VMs' predicted P95 utilizations in core units
    /// (`c.util`); tracked only on oversubscribable servers.
    pub predicted_util_cores: f64,
    /// Current grouping.
    pub kind: ServerKind,
    /// Resident VM count.
    pub n_vms: u32,
}

impl Server {
    /// A new, empty server.
    pub fn new(capacity_cores: f64, capacity_memory_gb: f64) -> Self {
        Server {
            capacity_cores,
            capacity_memory_gb,
            alloc_cores: 0.0,
            alloc_memory_gb: 0.0,
            predicted_util_cores: 0.0,
            kind: ServerKind::Empty,
            n_vms: 0,
        }
    }

    /// True when no VMs are resident (`c.alloc == 0` in Algorithm 1).
    pub fn is_empty(&self) -> bool {
        self.n_vms == 0
    }

    /// Algorithm 1, `PlaceVM`: tags an empty server by the VM's type, then
    /// adds the allocation (and predicted utilization when
    /// oversubscribable).
    pub fn place(&mut self, vm: &VmRequest, predicted_util_cores: f64) {
        if self.is_empty() {
            self.kind = match vm.prod {
                ProdTag::Production => ServerKind::NonOversubscribable,
                ProdTag::NonProduction => ServerKind::Oversubscribable,
            };
        }
        self.alloc_cores += vm.cores as f64;
        self.alloc_memory_gb += vm.memory_gb;
        self.n_vms += 1;
        if self.kind == ServerKind::Oversubscribable {
            self.predicted_util_cores += predicted_util_cores;
        }
    }

    /// Algorithm 1, `VMCompleted`: releases the allocation; an emptied
    /// server reverts to [`ServerKind::Empty`].
    pub fn complete(&mut self, vm: &VmRequest, predicted_util_cores: f64) {
        debug_assert!(self.n_vms > 0, "completing a VM on an empty server");
        self.alloc_cores = (self.alloc_cores - vm.cores as f64).max(0.0);
        self.alloc_memory_gb = (self.alloc_memory_gb - vm.memory_gb).max(0.0);
        if self.kind == ServerKind::Oversubscribable {
            self.predicted_util_cores = (self.predicted_util_cores - predicted_util_cores).max(0.0);
        }
        self.n_vms -= 1;
        if self.n_vms == 0 {
            self.kind = ServerKind::Empty;
            self.alloc_cores = 0.0;
            self.alloc_memory_gb = 0.0;
            self.predicted_util_cores = 0.0;
        }
    }

    /// Free physical memory.
    pub fn free_memory_gb(&self) -> f64 {
        self.capacity_memory_gb - self.alloc_memory_gb
    }
}

/// Struct-of-arrays server fleet: the scheduler hot path's layout.
///
/// Per-server state lives in parallel arrays; fleet-wide aggregates and
/// the occupied/empty indices are maintained incrementally by
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
    /// Empty server indices, ordered — the lowest is the canonical empty
    /// candidate (all empties rank equal, and index order breaks ties).
    empty: BTreeSet<u32>,
}

impl ServerFleet {
    /// A fleet of `n` identical empty servers.
    pub fn new(n: usize, capacity_cores: f64, capacity_memory_gb: f64) -> Self {
        assert!(u32::try_from(n).is_ok(), "fleet size {n} exceeds u32 indexing");
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
            empty: (0..n as u32).collect(),
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

    /// Occupied server indices (arbitrary order; callers needing a
    /// deterministic preference must rank candidates explicitly).
    pub fn occupied(&self) -> &[u32] {
        &self.occupied
    }

    /// The lowest-index empty server, if any.
    pub fn lowest_empty(&self) -> Option<usize> {
        self.empty.first().map(|&i| i as usize)
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

    /// An array-of-structs copy of server `i` (tests and diagnostics).
    pub fn server(&self, i: usize) -> Server {
        Server {
            capacity_cores: self.capacity_cores,
            capacity_memory_gb: self.capacity_memory_gb,
            alloc_cores: self.alloc_cores[i],
            alloc_memory_gb: self.alloc_memory_gb[i],
            predicted_util_cores: self.predicted_util_cores[i],
            kind: self.kind[i],
            n_vms: self.n_vms[i],
        }
    }

    /// Algorithm 1, `PlaceVM`, on server `i`; updates the aggregates and
    /// the occupied/empty indices.
    pub fn place(&mut self, i: usize, vm: &VmRequest, predicted_util_cores: f64) {
        if self.n_vms[i] == 0 {
            self.kind[i] = match vm.prod {
                ProdTag::Production => ServerKind::NonOversubscribable,
                ProdTag::NonProduction => {
                    self.n_oversubscribable += 1;
                    ServerKind::Oversubscribable
                }
            };
            self.empty.remove(&(i as u32));
            self.occupied_pos[i] = self.occupied.len() as u32;
            self.occupied.push(i as u32);
        }
        self.alloc_cores[i] += vm.cores as f64;
        self.alloc_memory_gb[i] += vm.memory_gb;
        self.total_alloc_cores += vm.cores as f64;
        self.n_vms[i] += 1;
        if self.kind[i] == ServerKind::Oversubscribable {
            self.predicted_util_cores[i] += predicted_util_cores;
        }
    }

    /// Algorithm 1, `VMCompleted`, on server `i`; an emptied server
    /// reverts to [`ServerKind::Empty`] and rejoins the empty index.
    pub fn complete(&mut self, i: usize, vm: &VmRequest, predicted_util_cores: f64) {
        debug_assert!(self.n_vms[i] > 0, "completing a VM on an empty server");
        let before = self.alloc_cores[i];
        self.alloc_cores[i] = (self.alloc_cores[i] - vm.cores as f64).max(0.0);
        self.total_alloc_cores -= before - self.alloc_cores[i];
        self.alloc_memory_gb[i] = (self.alloc_memory_gb[i] - vm.memory_gb).max(0.0);
        if self.kind[i] == ServerKind::Oversubscribable {
            self.predicted_util_cores[i] =
                (self.predicted_util_cores[i] - predicted_util_cores).max(0.0);
        }
        self.n_vms[i] -= 1;
        if self.n_vms[i] == 0 {
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
            self.empty.insert(i as u32);
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
        let mut s = Server::new(16.0, 112.0);
        assert_eq!(s.kind, ServerKind::Empty);
        s.place(&request(2, ProdTag::NonProduction), 1.0);
        assert_eq!(s.kind, ServerKind::Oversubscribable);
        assert_eq!(s.alloc_cores, 2.0);
        assert_eq!(s.predicted_util_cores, 1.0);

        let mut p = Server::new(16.0, 112.0);
        p.place(&request(2, ProdTag::Production), 1.0);
        assert_eq!(p.kind, ServerKind::NonOversubscribable);
        // Production servers don't track predicted utilization.
        assert_eq!(p.predicted_util_cores, 0.0);
    }

    #[test]
    fn place_and_complete_are_inverses() {
        let mut s = Server::new(16.0, 112.0);
        let vm = request(4, ProdTag::NonProduction);
        s.place(&vm, 2.0);
        s.place(&vm, 2.0);
        s.complete(&vm, 2.0);
        assert_eq!(s.alloc_cores, 4.0);
        assert_eq!(s.predicted_util_cores, 2.0);
        assert_eq!(s.n_vms, 1);
        s.complete(&vm, 2.0);
        assert!(s.is_empty());
        assert_eq!(s.kind, ServerKind::Empty);
        assert_eq!(s.alloc_cores, 0.0);
    }

    #[test]
    fn emptied_server_takes_either_kind() {
        let mut s = Server::new(16.0, 112.0);
        let nonprod = request(2, ProdTag::NonProduction);
        s.place(&nonprod, 1.0);
        s.complete(&nonprod, 1.0);
        let prod = request(2, ProdTag::Production);
        s.place(&prod, 1.0);
        assert_eq!(s.kind, ServerKind::NonOversubscribable);
    }

    #[test]
    fn fleet_mirrors_server_semantics() {
        // Drive a Server and the same index of a ServerFleet through an
        // identical op sequence; every per-server field must agree.
        let mut aos = Server::new(16.0, 112.0);
        let mut fleet = ServerFleet::new(3, 16.0, 112.0);
        let nonprod = request(4, ProdTag::NonProduction);
        let prod = request(2, ProdTag::Production);
        aos.place(&nonprod, 1.5);
        fleet.place(1, &nonprod, 1.5);
        aos.place(&nonprod, 0.5);
        fleet.place(1, &nonprod, 0.5);
        aos.complete(&nonprod, 1.5);
        fleet.complete(1, &nonprod, 1.5);
        let copy = fleet.server(1);
        assert_eq!(copy.alloc_cores, aos.alloc_cores);
        assert_eq!(copy.alloc_memory_gb, aos.alloc_memory_gb);
        assert_eq!(copy.predicted_util_cores, aos.predicted_util_cores);
        assert_eq!(copy.kind, aos.kind);
        assert_eq!(copy.n_vms, aos.n_vms);
        aos.complete(&nonprod, 0.5);
        fleet.complete(1, &nonprod, 0.5);
        assert_eq!(fleet.server(1).kind, ServerKind::Empty);
        aos.place(&prod, 0.0);
        fleet.place(1, &prod, 0.0);
        assert_eq!(fleet.server(1).kind, aos.kind);
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
    }
}
