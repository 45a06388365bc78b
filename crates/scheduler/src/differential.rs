//! Differential test of the placement index: seeded place/complete
//! sequences through [`Scheduler`] against a full scan over every server
//! written from Algorithm 1's rules, with no index at all. Every
//! placement (server, charged utilization, predicted bucket) and every
//! failure must agree, and after each step the fleet's indexes must equal
//! ones rebuilt from its per-server arrays.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rc_core::ClientInputs;
use rc_trace::UtilParams;
use rc_types::buckets::UtilizationBucketizer;
use rc_types::time::Timestamp;
use rc_types::vm::{OsType, Party, ProdTag, SubscriptionId, VmId, VmRole};

use crate::policy::{P95Source, PolicyKind};
use crate::request::VmRequest;
use crate::scheduler::{Placement, Scheduler, SchedulerConfig};
use crate::server::{ServerFleet, ServerKind};

/// Fleet sizes around the 64-server word boundary, plus the `place`
/// benchmark's and the paper's cluster sizes.
const FLEET_SIZES: [usize; 6] = [1, 63, 64, 65, 256, 880];
const MAX_OVERSUB: [f64; 3] = [1.0, 1.25, 1.5];
const CORES_PER_SERVER: f64 = 16.0;

/// Predictions as a fixed function of the VM id: no answer, or a bucket
/// with a confidence on either side of the 0.6 threshold.
struct HashedSource;

impl P95Source for HashedSource {
    fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)> {
        let h = req.vm_id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        let score = [0.3, 0.6, 0.9, 1.0][(h >> 4) as usize % 4];
        (!h.is_multiple_of(10)).then_some(((h % 4) as usize, score))
    }
}

fn request(rng: &mut StdRng, id: u64) -> VmRequest {
    // Zero-core VMs keep occupied servers at allocation level 0; 24
    // cores fit only an empty server at 150% oversubscription.
    let cores = [0, 1, 1, 1, 1, 2, 2, 2, 3, 4, 4, 4, 8, 8, 16, 24][rng.gen_range(0..16usize)];
    let memory_gb = cores as f64 * [1.75, 3.5, 7.0][rng.gen_range(0..3usize)] + rng.gen::<f64>();
    let prod = if rng.gen::<bool>() { ProdTag::Production } else { ProdTag::NonProduction };
    VmRequest {
        vm_id: VmId(id),
        cores,
        memory_gb,
        prod,
        created: Timestamp::ZERO,
        deleted: Timestamp::from_hours(1),
        util: UtilParams::creation_test(id),
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
        true_p95_bucket: rng.gen_range(0..4usize),
    }
}

/// Algorithm 1's candidate selection by full scan: among occupied servers
/// of the VM's group (any group for Baseline) that fit its cores under
/// `alloc_limit`, its memory, and — with `util` — the utilization cap,
/// the highest allocation wins and the lowest index breaks ties; with
/// none, the lowest-index empty server if the VM fits an empty one.
fn full_scan(
    fleet: &ServerFleet,
    req: &VmRequest,
    any_group: bool,
    alloc_limit: f64,
    util: Option<(f64, f64)>,
) -> Option<usize> {
    let cores = req.cores as f64;
    let group = match req.prod {
        ProdTag::Production => ServerKind::NonOversubscribable,
        ProdTag::NonProduction => ServerKind::Oversubscribable,
    };
    let under_cap = |used: f64| util.is_none_or(|(charge, limit)| used + charge <= limit);
    let mut best: Option<usize> = None;
    let mut first_empty = None;
    for i in 0..fleet.len() {
        if fleet.n_vms(i) == 0 {
            first_empty.get_or_insert(i);
        } else if (any_group || fleet.kind(i) == group)
            && fleet.alloc_cores(i) + cores <= alloc_limit
            && fleet.free_memory_gb(i) >= req.memory_gb
            && under_cap(fleet.predicted_util_cores(i))
            && best.is_none_or(|b| fleet.alloc_cores(i) > fleet.alloc_cores(b))
        {
            best = Some(i);
        }
    }
    best.or(first_empty.filter(|_| {
        cores <= alloc_limit && req.memory_gb <= fleet.capacity_memory_gb() && under_cap(0.0)
    }))
}

/// What `Scheduler::schedule` must answer for `req` on `fleet`.
fn reference(fleet: &ServerFleet, config: &SchedulerConfig, req: &VmRequest) -> Option<Placement> {
    let capacity = fleet.capacity_cores();
    let production = req.prod == ProdTag::Production;
    let alloc_limit = if production { capacity } else { config.max_oversub * capacity };
    let place = |server, predicted_util_cores, predicted_p95| Placement {
        server,
        predicted_util_cores,
        predicted_p95,
    };
    match config.policy {
        PolicyKind::Baseline => {
            full_scan(fleet, req, true, capacity, None).map(|s| place(s, 0.0, None))
        }
        PolicyKind::NaiveOversub => {
            full_scan(fleet, req, false, alloc_limit, None).map(|s| place(s, 0.0, None))
        }
        PolicyKind::RcInformedSoft | PolicyKind::RcInformedHard => {
            let (util, bucket) = match HashedSource.predict_p95(req) {
                Some((b, score)) if score >= config.confidence_threshold => {
                    let shifted = (b + config.bucket_shift).min(3);
                    (
                        UtilizationBucketizer::highest_util_in_bucket(shifted) * req.cores as f64,
                        Some(b),
                    )
                }
                _ => (req.cores as f64, None),
            };
            let cap = (!production).then_some((util, config.max_util * capacity));
            let capped = full_scan(fleet, req, false, alloc_limit, cap);
            let relaxed = || full_scan(fleet, req, false, alloc_limit, None);
            let server = match config.policy {
                PolicyKind::RcInformedSoft => capped.or_else(relaxed),
                _ => capped,
            };
            server.map(|s| place(s, util, bucket))
        }
    }
}

/// Runs every fleet size and oversubscription level under `policy`.
fn check_policy(policy: PolicyKind, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut failures_when_full, mut level_zero_wins) = (0, 0);
    for (case, (&n, &max_oversub)) in
        FLEET_SIZES.iter().flat_map(|n| MAX_OVERSUB.iter().map(move |o| (n, o))).enumerate()
    {
        let mut config = SchedulerConfig::new(policy);
        config.max_oversub = max_oversub;
        config.bucket_shift = case % 2;
        let memory_gb = [112.0, 64.0, 256.0][rng.gen_range(0..3usize)];
        let mut s = Scheduler::new(n, CORES_PER_SERVER, memory_gb, config, Box::new(HashedSource));
        let mut live: Vec<(VmRequest, Placement)> = Vec::new();
        for step in 0..200 + 20 * n {
            if live.is_empty() || rng.gen::<f64>() < 0.7 {
                let req = request(&mut rng, step as u64);
                let expected = reference(&s.fleet, &s.config, &req);
                let got = s.schedule(&req);
                assert_eq!(
                    got, expected,
                    "{policy:?}, {n} servers, oversub {max_oversub}, step {step}"
                );
                match got {
                    Some(p) => {
                        if s.fleet.alloc_cores(p.server) == req.cores as f64
                            && s.fleet.n_vms(p.server) > 1
                        {
                            level_zero_wins += 1;
                        }
                        live.push((req, p));
                    }
                    None if s.fleet.lowest_empty().is_none() => failures_when_full += 1,
                    None => {}
                }
            } else {
                let (req, p) = live.swap_remove(rng.gen_range(0..live.len()));
                s.complete(&req, p);
            }
            s.fleet.assert_indexes_match_arrays();
            let (total, busy, oversub) = s.fleet.recompute_aggregates();
            assert_eq!(
                (total, busy, oversub),
                (s.total_alloc_cores(), s.busy_servers(), s.fleet.oversubscribable_servers())
            );
        }
    }
    assert!(failures_when_full > 0, "{policy:?}: no sequence filled its fleet");
    assert!(level_zero_wins > 0, "{policy:?}: no placement chose an occupied level-0 server");
}

#[test]
fn baseline_matches_a_full_scan() {
    check_policy(PolicyKind::Baseline, 1);
}

#[test]
fn naive_matches_a_full_scan() {
    check_policy(PolicyKind::NaiveOversub, 2);
}

#[test]
fn rc_informed_soft_matches_a_full_scan() {
    check_policy(PolicyKind::RcInformedSoft, 3);
}

#[test]
fn rc_informed_hard_matches_a_full_scan() {
    check_policy(PolicyKind::RcInformedHard, 4);
}
