//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;

use rc_analysis::{spearman, Cdf};
use rc_core::{Prediction, ShardedResultCache};
use rc_ml::fft::{fft_in_place, Complex};
use rc_ml::Classifier;
use rc_trace::arrival::gamma_fn;
use rc_trace::UtilParams;
use rc_types::buckets::{
    Bucketizer, DeploymentSizeBucketizer, LifetimeBucketizer, UtilizationBucketizer,
};
use rc_types::telemetry::UtilReading;
use rc_types::time::{Duration, Timestamp};

mod common;

/// Keys the cache-oracle property draws from: both ends of the key space
/// (an empty-slot sentinel must never shadow a legal key), neighbours that
/// share probe runs, and enough others to overflow small capacities.
const ORACLE_KEYS: [u64; 12] =
    [0, u64::MAX, 1, 2, 3, u64::MAX - 1, 1 << 32, (1 << 32) + 1, 0xDEAD_BEEF, 97, 98, 99];

proptest! {
    // --- Bucketizers: total and monotone (Table 3 semantics) ---

    #[test]
    fn utilization_bucketizer_is_total_and_monotone(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let bz = UtilizationBucketizer;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bz.bucket(&lo) < bz.n_buckets());
        prop_assert!(bz.bucket(&lo) <= bz.bucket(&hi));
    }

    #[test]
    fn lifetime_bucketizer_is_total_and_monotone(a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let bz = LifetimeBucketizer;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (dl, dh) = (Duration::from_secs(lo), Duration::from_secs(hi));
        prop_assert!(bz.bucket(&dl) < bz.n_buckets());
        prop_assert!(bz.bucket(&dl) <= bz.bucket(&dh));
    }

    #[test]
    fn deployment_bucketizer_is_total_and_monotone(a in 0u64..100_000, b in 0u64..100_000) {
        let bz = DeploymentSizeBucketizer;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bz.bucket(&lo) < bz.n_buckets());
        prop_assert!(bz.bucket(&lo) <= bz.bucket(&hi));
    }

    // --- Telemetry invariants ---

    #[test]
    fn util_reading_always_restores_invariants(
        min in -2.0f64..2.0,
        avg in -2.0f64..2.0,
        max in -2.0f64..2.0,
    ) {
        let r = UtilReading::new(Timestamp::ZERO, min, avg, max);
        prop_assert!(r.is_valid(), "reading {r:?}");
    }

    #[test]
    fn util_model_readings_are_always_valid(
        seed in any::<u64>(),
        burst_seed in any::<u64>(),
        base in 0.0f64..1.5,
        p95 in 0.0f64..1.5,
        amplitude in 0.0f64..2.0,
        noise in 0.0f64..0.5,
        slot in 0u64..100_000,
    ) {
        let params = UtilParams {
            seed,
            burst_seed,
            base,
            p95_level: p95,
            diurnal_amplitude: amplitude,
            peak_hour: 14.0,
            noise,
        }
        .sanitized();
        let r = params.reading(slot);
        prop_assert!(r.is_valid(), "params {params:?} slot {slot} -> {r:?}");
        // Determinism.
        prop_assert_eq!(r, params.reading(slot));
    }

    // --- Statistics ---

    #[test]
    fn cdf_is_monotone_and_bounded(mut samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Cdf::new(samples.clone());
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &samples {
            let f = cdf.fraction_below(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
        prop_assert_eq!(cdf.fraction_below(f64::MAX), 1.0);
    }

    #[test]
    fn spearman_is_bounded_and_symmetric(
        xs in proptest::collection::vec(-1e3f64..1e3, 3..50),
        seed in any::<u64>(),
    ) {
        // Build ys as a deterministic shuffle-ish transform of xs.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x * (((seed >> (i % 60)) & 1) as f64 * 2.0 - 1.0))
            .collect();
        let r = spearman(&xs, &ys);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
        let r_sym = spearman(&ys, &xs);
        prop_assert!((r - r_sym).abs() < 1e-9);
    }

    #[test]
    fn gamma_satisfies_recurrence(x in 0.1f64..20.0) {
        // Gamma(x + 1) = x * Gamma(x).
        let lhs = gamma_fn(x + 1.0);
        let rhs = x * gamma_fn(x);
        prop_assert!((lhs - rhs).abs() / rhs.abs().max(1e-12) < 1e-8, "x = {x}");
    }

    // --- FFT ---

    #[test]
    fn fft_round_trips(values in proptest::collection::vec(-100.0f64..100.0, 1..6)) {
        // Pad to a power of two >= 8.
        let n = (values.len().next_power_of_two()).max(8);
        let mut data: Vec<Complex> = values
            .iter()
            .map(|&v| Complex::new(v, 0.0))
            .chain(std::iter::repeat(Complex::new(0.0, 0.0)))
            .take(n)
            .collect();
        let orig = data.clone();
        fft_in_place(&mut data, false);
        fft_in_place(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            prop_assert!((a.re - b.re).abs() < 1e-7);
            prop_assert!(a.im.abs() < 1e-7);
        }
    }

    // --- Result cache ---

    #[test]
    fn result_cache_respects_capacity(
        capacity in 1usize..64,
        n_shards in 1usize..16,
        ops in proptest::collection::vec((any::<u64>(), 0usize..4), 1..300),
    ) {
        let cache = ShardedResultCache::new(capacity, n_shards);
        for (key, value) in ops {
            cache.insert(key, Prediction { value, score: 0.5 });
            prop_assert!(cache.len() <= capacity);
            // Whatever was just inserted is retrievable.
            prop_assert_eq!(cache.get(key).map(|p| p.value), Some(value));
        }
    }

    // Random get / insert / clear sequences through a one-shard table and
    // the pre-sharding `ResultCache` kept as its oracle: same answers,
    // same evicted flags, same `len()`, same counters, after every step.
    #[test]
    fn sharded_cache_matches_the_reference_oracle(
        capacity in 1usize..10,
        ops in proptest::collection::vec((0u8..16, 0usize..ORACLE_KEYS.len(), 0usize..4), 1..400),
    ) {
        let cache = ShardedResultCache::new(capacity, 1);
        let mut oracle = common::ResultCache::new(capacity);
        let pred = |key: u64, value: usize| Prediction { value, score: (key % 101) as f64 / 100.0 };
        for &(op, pick, value) in &ops {
            let key = ORACLE_KEYS[pick];
            match op {
                0..=5 => prop_assert_eq!(cache.get(key), oracle.get(key), "get {}", key),
                6..=14 => prop_assert_eq!(
                    cache.insert(key, pred(key, value)),
                    oracle.insert(key, pred(key, value)),
                    "insert {}", key
                ),
                _ => {
                    cache.clear();
                    oracle.clear();
                }
            }
            prop_assert_eq!(cache.len(), oracle.len());
            prop_assert_eq!(cache.stats(), oracle.stats());
        }
        // Full scan: the two agree on every key that was ever in play.
        for key in ORACLE_KEYS {
            prop_assert_eq!(cache.get(key), oracle.get(key), "final scan {}", key);
        }
    }

    // --- Store ---

    #[test]
    fn store_versions_are_dense_and_monotone(n in 1usize..40) {
        let store = rc_store::Store::in_memory();
        for i in 0..n {
            let v = store.put("k", Vec::from([i as u8]).into()).unwrap();
            prop_assert_eq!(v, i as u64 + 1);
        }
        prop_assert_eq!(store.latest_version("k"), Some(n as u64));
        // Every historical version remains readable.
        for i in 1..=n as u64 {
            prop_assert!(store.get_version("k", i).is_ok());
        }
    }

    // --- Quarantine content digest ---

    // The re-promotion check compares a candidate digest (trainer output
    // order) against a quarantined manifest digest (store read-back
    // order). The digest must therefore be a function of the *set*:
    // invariant under reordering, sensitive to any content change.
    #[test]
    fn models_digest_is_order_invariant_and_content_sensitive(
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..8),
        shuffle_seed in any::<u64>(),
        victim in any::<u64>(),
    ) {
        let entries: Vec<(String, u64)> =
            raw.iter().map(|&(k, sum)| (format!("model/{k:016x}"), sum)).collect();
        let baseline = rc_store::models_digest(entries.clone());

        // Any permutation digests identically.
        let mut shuffled = entries.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        prop_assert_eq!(rc_store::models_digest(shuffled), baseline);

        // Flipping one bit of one checksum changes the digest.
        let mut changed = entries;
        let i = victim as usize % changed.len();
        changed[i].1 ^= 1;
        prop_assert!(rc_store::models_digest(changed) != baseline);
    }
}

// Non-proptest invariants that still sweep a broad space.

/// Forest probabilities stay on the simplex for arbitrary inputs, even
/// far outside the training distribution.
#[test]
fn forest_probabilities_on_simplex_for_wild_inputs() {
    use rc_ml::{BinnedDataset, Dataset, RandomForest, RandomForestConfig};
    let mut d = Dataset::new(3, 3);
    let mut state = 5u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
    };
    for _ in 0..300 {
        let x = next() * 2.0;
        let c = ((x + 1.0).clamp(0.0, 2.999) * 1.5) as usize;
        d.push(&[x, next(), next()], c.min(2));
    }
    let binned = BinnedDataset::build(&d);
    let forest =
        RandomForest::fit(&binned, &RandomForestConfig { n_trees: 6, ..Default::default() });
    for wild in [
        [f64::MAX, f64::MIN, 0.0],
        [-1e300, 1e300, 1e-300],
        [0.0, 0.0, 0.0],
        [f64::EPSILON, -f64::EPSILON, 42.0],
    ] {
        let p = forest.predict_proba(&wild);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-5, "{p:?}");
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)), "{p:?}");
    }
}

/// The arena walk on real pipeline output, two trace seeds, rows with NaN
/// and both infinities mixed in: the stack-scratch `predict` names the
/// first maximum of the full `predict_proba` vector, and a model decoded
/// from its own bytes (validated arena and all) answers bit for bit the
/// same. The walk itself is pinned against the pre-arena `Node` walk in
/// `rc-ml`'s unit tests, where the builder's node lists are visible.
///
/// The six fitted models' bytes are pinned too: a change to the tree
/// grower that moves one split, one leaf value or one importance bit
/// moves a digest. So are the six Table 4 rows (accuracy, every bucket's
/// share/precision/recall, `p_theta`, `r_theta`), bit for bit: a change
/// to how validation scores moves the last digest. Re-record only on
/// purpose.
#[test]
fn pipeline_models_predict_identically_through_stack_vec_and_wire() {
    use rc_core::{run_pipeline, PipelineConfig, TrainedModel};
    use rc_trace::{Trace, TraceConfig};
    let golden: [(u64, [u64; 6], u64); 2] = [
        (
            0x5059_2017,
            [
                0xec4f_8cbf_9c83_e4f1,
                0xd204_fe19_24ea_9ecf,
                0xad9b_6de8_f3f8_fbd1,
                0x1205_79d2_31a8_c0d8,
                0x98bb_9efa_4e9d_f77e,
                0x8df6_6405_8fe8_352a,
            ],
            0x5213_8a5e_39d3_1e6c,
        ),
        (
            0xC0FFEE,
            [
                0xced0_ed43_74a9_e4b6,
                0x1dee_23f3_4af0_7577,
                0x3f6d_ecfe_843b_5f80,
                0xcbe2_a313_f2dc_49d4,
                0xedc0_7fbd_eff6_4af7,
                0x5d63_ae82_b834_e082,
            ],
            0xdda1_d9a7_1353_dff8,
        ),
    ];
    for (seed, digests, table4) in golden {
        let trace = Trace::generate(&TraceConfig {
            seed,
            target_vms: 3_000,
            n_subscriptions: 150,
            days: 24,
            ..TraceConfig::small()
        });
        let output = run_pipeline(&trace, &PipelineConfig::fast(24)).expect("pipeline");
        assert_eq!(output.models.len(), 6);
        let got: Vec<u64> =
            output.models.iter().map(|m| rc_store::checksum(&rc_ml::to_bytes(m))).collect();
        assert_eq!(got, digests, "seed {seed:#x}: fitted model bytes moved");
        let mut bits = Vec::new();
        for r in &output.reports {
            let shares = r.buckets.iter().flat_map(|b| [b.share, b.precision, b.recall]);
            for x in std::iter::once(r.accuracy).chain(shares).chain([r.p_theta, r.r_theta]) {
                bits.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        let got = rc_store::checksum(&bits);
        assert_eq!(got, table4, "seed {seed:#x}: Table 4 numbers moved ({got:#018x})");
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for model in &output.models {
            let decoded: TrainedModel =
                rc_ml::from_bytes(&rc_ml::to_bytes(model)).expect("decodes");
            for _ in 0..500 {
                let row: Vec<f64> = (0..model.spec.n_features())
                    .map(|_| match next() % 12 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        _ => (next() % 20_000) as f64 / 1_000.0 - 4.0,
                    })
                    .collect();
                let probs = model.predict_proba(&row);
                let (value, score) = model.predict(&row);
                let first_max = probs.iter().position(|&p| p == score).expect("score is a class's");
                assert_eq!(value, first_max, "{:?}: first-max tie-break", model.spec.metric);
                assert!(probs.iter().all(|&p| p <= score));
                let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&probs),
                    bits(&decoded.predict_proba(&row)),
                    "{:?}",
                    model.spec.metric
                );
                assert_eq!(decoded.predict(&row), (value, score));
            }
        }
    }
}

/// Fits the pipeline never makes, pinned by the digest of their bytes: a
/// bare tree scanning every feature, a forest with a five-row leaf floor,
/// and a boosted model with a split penalty and a hessian floor, each on
/// two- and four-class data. Column 5 repeats column 0 and column 4 is
/// constant, so equal-gain candidates and unsplittable features both
/// occur; the first best split must win every tie.
#[test]
fn rc_ml_fits_match_their_recorded_digests() {
    use rc_ml::{
        BinnedDataset, Dataset, DecisionTree, GradientBoosting, GradientBoostingConfig,
        RandomForest, RandomForestConfig, TreeConfig,
    };
    let golden: [(usize, [u64; 3]); 2] = [
        (2, [0xd760_aced_3e01_8639, 0x38a2_7408_97ad_2d7f, 0x54fa_1c87_4ba4_4363]),
        (4, [0xaf0d_6cf2_c9de_7676, 0x375e_8482_584a_fc08, 0xe84b_a6ae_b0df_d803]),
    ];
    for (n_classes, digests) in golden {
        let mut d = Dataset::new(6, n_classes);
        let mut state = 0x7EE5u64 + n_classes as u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..500 {
            let (a, b, c) = (next(100) as f64, next(7) as f64, next(1_000) as f64 / 10.0);
            let noise = next(10) == 0;
            let label =
                (usize::from(a > 40.0) + 2 * usize::from(b > 3.0) + usize::from(noise)) % n_classes;
            d.push(&[a, b, c, next(3) as f64, 1.0, a], label);
        }
        let b = BinnedDataset::build(&d);
        let tree =
            DecisionTree::fit(&b, &TreeConfig { features_per_split: None, ..Default::default() });
        let forest = RandomForest::fit(
            &b,
            &RandomForestConfig {
                n_trees: 6,
                tree: TreeConfig { min_samples_leaf: 5, ..RandomForestConfig::default().tree },
                n_threads: 2,
                ..Default::default()
            },
        );
        let boosted = GradientBoosting::fit(
            &b,
            &GradientBoostingConfig {
                n_rounds: 8,
                gamma: 0.1,
                min_child_weight: 3.0,
                ..Default::default()
            },
        );
        assert!(tree.n_nodes() > 15 && boosted.n_trees() == 8 * n_classes);
        let got = [
            rc_store::checksum(&rc_ml::to_bytes(&tree)),
            rc_store::checksum(&rc_ml::to_bytes(&forest)),
            rc_store::checksum(&rc_ml::to_bytes(&boosted)),
        ];
        assert_eq!(got, digests, "{n_classes} classes: tree, forest, boosted bytes moved");
    }
}

/// The planned real-input detector against the spectrum path it replaced
/// (`common::old_spectrum`), on every VM of two loop-sized windows that
/// is observed long enough to be classified: the same `periodic` and
/// `enough_data`, and a `power_ratio` that differs only by rounding. The
/// detector is shared across each window, as `labels` shares it, so
/// series of both padded lengths meet one plan in trace order.
#[test]
fn periodicity_detector_agrees_with_the_spectrum_path_it_replaced() {
    use rc_ml::fft::{PeriodicityConfig, PeriodicityDetector};
    use rc_trace::{Trace, TraceConfig, CLASSIFY_MAX_DAYS, CLASSIFY_MIN_DAYS};

    let config = PeriodicityConfig::default();
    let (mut compared, mut periodic, mut worst, mut closest) = (0usize, 0usize, 0.0f64, 1.0f64);
    for seed in [19, 1546] {
        let trace = Trace::generate(&TraceConfig {
            seed,
            days: 18,
            n_subscriptions: 100,
            target_vms: 2_600,
            n_regions: 2,
        });
        let mut detector = PeriodicityDetector::new(config.clone());
        for id in trace.vm_ids() {
            let (first, last) = trace.vm_slots(id);
            let last = last.min(first + (CLASSIFY_MAX_DAYS * 288.0) as u64);
            let series: Vec<f64> =
                (first..last).map(|slot| trace.util_params(id).reading(slot).avg).collect();
            let old = common::old_spectrum::detect_diurnal_periodicity(&series, &config);
            let new = detector.detect(&series);
            assert_eq!((new.periodic, new.enough_data), (old.periodic, old.enough_data));
            // And the trace's own rule is this detector on this series.
            let class = trace.workload_class(id, &mut detector);
            assert_eq!(class, old.enough_data.then_some(old.periodic), "seed {seed} {id:?}");
            if old.enough_data {
                assert!(series.len() as f64 >= CLASSIFY_MIN_DAYS * 288.0);
                let relative = ((new.power_ratio - old.power_ratio) / old.power_ratio).abs();
                assert!(relative <= 1e-9, "seed {seed} {id:?}: {new:?} vs {old:?}");
                worst = worst.max(relative);
                let threshold = config.power_ratio_threshold;
                closest = closest.min(((old.power_ratio - threshold) / threshold).abs());
                compared += 1;
                periodic += usize::from(old.periodic);
            }
        }
    }
    assert!(compared >= 200 && periodic >= 20 && periodic < compared, "{periodic}/{compared}");
    // The margin the rounding difference would have to cross to flip a label.
    assert!(closest > 1e3 * worst, "closest approach {closest:e} vs difference {worst:e}");
    println!("{compared} series, {periodic} periodic, worst relative difference {worst:e}, closest approach to the threshold {closest:e}");
}

/// Scheduler bookkeeping: place/complete sequences never drive a server's
/// accounting negative, and a fully drained server is exactly empty.
#[test]
fn server_accounting_is_conservative() {
    use rc_core::ClientInputs;
    use rc_scheduler::{Server, VmRequest};
    use rc_types::vm::{OsType, Party, ProdTag, SubscriptionId, VmId, VmRole};

    let request = |id: u64, cores: u32| VmRequest {
        vm_id: VmId(id),
        cores,
        memory_gb: cores as f64 * 1.75,
        prod: ProdTag::NonProduction,
        created: Timestamp::ZERO,
        deleted: Timestamp::from_hours(1),
        util: UtilParams::creation_test(id),
        inputs: ClientInputs {
            subscription: SubscriptionId(0),
            party: Party::First,
            role: VmRole::Iaas,
            prod: ProdTag::NonProduction,
            os: OsType::Linux,
            sku_index: 0,
            deployment_time: Timestamp::ZERO,
            deployment_size_hint: 1,
            service: None,
        },
        true_p95_bucket: 1,
    };

    let mut server = Server::new(16.0, 112.0);
    let mut resident = Vec::new();
    let mut state = 11u64;
    for step in 0..2_000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        if !state.is_multiple_of(3) || resident.is_empty() {
            let cores = 1 + (state % 4) as u32;
            let req = request(step, cores);
            let util = cores as f64 * 0.5;
            server.place(&req, util);
            resident.push((req, util));
        } else {
            let idx = (state as usize / 7) % resident.len();
            let (req, util) = resident.swap_remove(idx);
            server.complete(&req, util);
        }
        assert!(server.alloc_cores >= 0.0);
        assert!(server.alloc_memory_gb >= 0.0);
        assert!(server.predicted_util_cores >= -1e-9);
        assert_eq!(server.n_vms as usize, resident.len());
    }
    for (req, util) in resident.drain(..) {
        server.complete(&req, util);
    }
    assert!(server.is_empty());
    assert_eq!(server.alloc_cores, 0.0);
    assert_eq!(server.predicted_util_cores, 0.0);
}
