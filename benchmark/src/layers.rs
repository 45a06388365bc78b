//! The traced run's layer suite: every layer of the stack timed from
//! outside, through its public functions, on a world of the same seed.
//!
//! Calls that take under a few microseconds are timed in batches and the
//! median batch gives the per-call time; each batch is also a span, under
//! a root span per layer. Where an op is made of such calls (a client hit
//! or miss, a loop tick) the parts are replayed one by one, so that the
//! op's self time is what is left after its parts.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use rc_core::labels::{label_deployments, label_vms};
use rc_core::{
    cleanup, run_pipeline, ClientInputs, Estimator, ModelSpec, ShardedResultCache,
    SubscriptionFeatures, TrainedModel,
};
use rc_loop::LoopConfig;
use rc_ml::{BinnedDataset, Classifier, Dataset, GradientBoosting, RandomForest};
use rc_obs::{AccuracyTracker, DriftConfig, Registry, WindowSketch};
use rc_scheduler::{
    simulate_stream, OracleSource, P95Source, PolicyKind, RcSource, Scheduler, SchedulerConfig,
    SimConfig, VmRequest,
};
use rc_store::{Manifest, Store, StoreBackend};
use rc_trace::VmStream;
use rc_types::metrics::PredictionMetric;
use rc_types::time::Timestamp;

use crate::control_loop::{bootstrapped, loop_config, window_trace_config};
use crate::place::{fleet_size, materialise_stream, SERVER_CORES, SERVER_MEMORY_GB};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, percentile};
use crate::window::{Counters, CpuMask};
use crate::world::{
    mix, pipeline_config, trace_config, Requests, World, CACHE_CAPACITY, CACHE_SHARDS, DAYS, GATE,
};

type Metrics = Vec<(&'static str, f64)>;

/// The global counters a window's per-op ratios come from; read them
/// where the window starts.
pub const WINDOW_COUNTERS: [&str; 7] = [
    rc_obs::CLIENT_LOOKUPS,
    rc_obs::CLIENT_RESULT_CACHE_HITS,
    rc_obs::CLIENT_MODEL_EXECS,
    rc_obs::CLIENT_RESULT_CACHE_INSERTIONS,
    rc_obs::CLIENT_RESULT_CACHE_EVICTIONS,
    rc_obs::STORE_GETS,
    rc_obs::STORE_PUTS,
];

/// Ratios over a window of `ops` ops that started at `before`.
pub fn window_metrics(before: &Counters<7>, ops: u64, out: &mut Metrics) {
    let [lookups, hits, execs, insertions, evictions, store_gets, store_puts] = before.deltas();
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    out.extend([
        ("client.execs_per_lookup", per(execs, lookups)),
        ("client.hit_ratio", per(hits, lookups)),
        ("client.evictions_per_insert", per(evictions, insertions)),
        ("store.gets_per_op", per(store_gets, ops)),
        ("store.puts_per_op", per(store_puts, ops)),
    ]);
}

/// Timing helpers that record what they time as spans under `root`.
struct Suite<'a> {
    spans: &'a mut Spans,
    root: Option<SpanId>,
}

impl Suite<'_> {
    /// Opens the root span of a layer; later spans hang under it.
    fn layer(&mut self, name: &'static str) {
        self.spans.close(self.root);
        self.root = self.spans.open(name, None, 0);
    }

    /// Median per-call time in nanoseconds over `reps` batches of `calls`
    /// calls; `f(i)` is the `i`-th call overall.
    fn per_call_ns(
        &mut self,
        name: &'static str,
        reps: usize,
        calls: usize,
        mut f: impl FnMut(usize),
    ) -> f64 {
        let mut batches = Vec::with_capacity(reps);
        for rep in 0..reps {
            let start = self.spans.now();
            for i in rep * calls..(rep + 1) * calls {
                f(i);
            }
            let end = self.spans.now();
            self.spans.record(name, self.root, rep as u64, calls as u64, start, end);
            batches.push(end - start);
        }
        median(&batches) as f64 / calls as f64
    }

    /// Median time of `f` in milliseconds over `reps` runs.
    fn median_ms<R>(&mut self, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
        let mut runs = Vec::with_capacity(reps);
        for rep in 0..reps {
            let start = self.spans.now();
            black_box(f());
            let end = self.spans.now();
            self.spans.record(name, self.root, rep as u64, 1, start, end);
            runs.push(end - start);
        }
        median(&runs) as f64 / 1e6
    }
}

/// Measures every per-layer metric that does not belong to the traced
/// window itself.
///
/// `all_cpus` is the mask the process had before `main` pinned it; the one
/// two-worker measurement runs under it.
pub fn measure(seed: u64, all_cpus: CpuMask, spans: &mut Spans, out: &mut Metrics) {
    let mut suite = Suite { spans, root: None };
    let world = World::build();
    let mut requests = Requests::new(&world, mix(seed, 0x1A));

    let parts = models(&mut suite, &world, &mut requests, out);
    let parts = cache(&mut suite, &mut requests, parts, out);
    client(&mut suite, &world, &mut requests, parts, out);
    scheduler(&mut suite, &world, seed, out);
    offline(&mut suite, &world, all_cpus, out);
    store_and_obs(&mut suite, &world, out);
    control_loop(&mut suite, seed, out);
    suite.spans.close(suite.root);
}

/// Per-call medians of the parts a client op is replayed from.
#[derive(Default)]
struct Parts {
    features: f64,
    predict: f64,
    key: f64,
    get_hit: f64,
    get_miss: f64,
    insert_evict: f64,
}

fn models(suite: &mut Suite, world: &World, requests: &mut Requests, out: &mut Metrics) -> Parts {
    suite.layer("models");
    // Rounds of the six models, as the serve workloads issue them.
    let sample: Vec<(&TrainedModel, ClientInputs, Vec<f64>)> = (0..6 * 512)
        .map(|_| {
            let (name, inputs) = requests.fresh();
            let metric = PredictionMetric::from_model_name(name).expect("known model");
            let model = world.output.model(metric);
            let features =
                model.spec.features(&inputs, &world.output.feature_data[&inputs.subscription]);
            (model, inputs, features)
        })
        .collect();
    let features = suite.per_call_ns("models.features", 256, 12, |i| {
        let (model, inputs, _) = &sample[i];
        black_box(model.spec.features(inputs, &world.output.feature_data[&inputs.subscription]));
    });
    let by_family = |forest: bool| -> Vec<&(&TrainedModel, ClientInputs, Vec<f64>)> {
        sample
            .iter()
            .filter(|(m, _, _)| matches!(m.estimator, Estimator::Forest(_)) == forest)
            .collect()
    };
    let (forests, boosted) = (by_family(true), by_family(false));
    let forest = suite.per_call_ns("models.forest_predict", 128, 8, |i| {
        let (model, _, f) = forests[i];
        black_box(Classifier::predict(*model, f));
    });
    let gbt = suite.per_call_ns("models.gbt_predict", 128, 16, |i| {
        let (model, _, f) = boosted[i];
        black_box(Classifier::predict(*model, f));
    });
    let encoded: Vec<Vec<u8>> = world.output.models.iter().map(rc_ml::to_bytes).collect();
    let encode_ms = suite.median_ms("models.encode", 3, || {
        world.output.models.iter().map(|m| rc_ml::to_bytes(m).len()).sum::<usize>()
    });
    let decode_ms = suite.median_ms("models.decode", 3, || {
        encoded.iter().filter(|b| rc_ml::from_bytes::<TrainedModel>(b).is_ok()).count()
    });
    out.extend([
        ("models.features_ns_p50", features),
        ("models.forest_predict_ns_p50", forest),
        ("models.gbt_predict_ns_p50", gbt),
        ("models.encode_ms", encode_ms),
        ("models.decode_ms", decode_ms),
        ("models.bytes_total", encoded.iter().map(Vec::len).sum::<usize>() as f64),
    ]);
    // A round of six is two forests and four boosted models.
    Parts { features, predict: (2.0 * forest + 4.0 * gbt) / 6.0, ..Parts::default() }
}

fn cache(suite: &mut Suite, requests: &mut Requests, mut parts: Parts, out: &mut Metrics) -> Parts {
    suite.layer("cache");
    let mut fresh_keys = |n: usize| -> Vec<u64> {
        (0..n)
            .map(|_| {
                let (model, inputs) = requests.fresh();
                inputs.cache_key(model)
            })
            .collect()
    };
    let prediction = rc_core::Prediction { value: 1, score: 0.75 };
    // One key more than is timed: the index of each timed call depends on
    // the previous call's result (always 0, which the compiler cannot
    // know), so that the batch measures a call's latency, as the client
    // pays it between a hash and a probe, and not the throughput of
    // independent calls overlapping in the pipeline.
    let resident = fresh_keys(16_385);
    let absent = fresh_keys(16_385);
    let mut carry = 0usize;
    let cache = ShardedResultCache::new(CACHE_CAPACITY, CACHE_SHARDS);
    parts.get_miss = suite.per_call_ns("cache.get_miss", 256, 64, |i| {
        carry = usize::from(cache.get(absent[i + carry]).is_some());
    });
    let insert = suite.per_call_ns("cache.insert", 512, 32, |i| {
        black_box(cache.insert(resident[i], prediction));
    });
    parts.get_hit = suite.per_call_ns("cache.get_hit", 256, 64, |i| {
        carry = cache.get(resident[i + carry]).map_or(1, |p| p.value >> 1);
    });
    assert_eq!(carry, 0, "resident keys hit, absent keys miss");
    for key in fresh_keys(CACHE_CAPACITY + CACHE_CAPACITY / 8) {
        cache.insert(key, prediction);
    }
    let evicting = fresh_keys(16_384);
    parts.insert_evict = suite.per_call_ns("cache.insert_evict", 512, 32, |i| {
        black_box(cache.insert(evicting[i], prediction));
    });
    out.extend([
        ("cache.get_hit_ns_p50", parts.get_hit),
        ("cache.get_miss_ns_p50", parts.get_miss),
        ("cache.insert_ns_p50", insert),
        ("cache.insert_evict_ns_p50", parts.insert_evict),
    ]);
    parts
}

fn client(
    suite: &mut Suite,
    world: &World,
    requests: &mut Requests,
    mut parts: Parts,
    out: &mut Metrics,
) {
    suite.layer("client");
    let client = &world.client;
    let set: Vec<_> = (0..16_128 + 6).map(|_| requests.fresh()).collect();
    // Chained like the cache probes: the next inputs hang on this hash.
    let mut carry = 0usize;
    parts.key = suite.per_call_ns("cache.key", 168, 96, |i| {
        let (model, inputs) = &set[i + carry];
        carry = 6 * usize::from(inputs.cache_key(model) == 0);
    });
    for (model, inputs) in &set {
        client.predict_single(model, inputs);
    }
    let hit = suite.per_call_ns("client.predict_single.hit", 168, 96, |i| {
        let (model, inputs) = &set[i];
        black_box(client.predict_single(model, inputs));
    });
    for _ in 0..CACHE_CAPACITY + CACHE_CAPACITY / 8 {
        let (model, inputs) = requests.fresh();
        client.predict_single(model, &inputs);
    }
    let miss = suite.per_call_ns("client.predict_single.miss", 1024, 12, |_| {
        let (model, inputs) = requests.fresh();
        black_box(client.predict_single(model, &inputs));
    });
    let p95 = PredictionMetric::P95MaxCpuUtil.model_name();
    let batches: Vec<Vec<ClientInputs>> =
        (0..32).map(|_| (0..256).map(|_| requests.fresh().1).collect()).collect();
    let many_ns = suite.per_call_ns("client.predict_many", 32, 1, |i| {
        black_box(client.predict_many(p95, &batches[i]));
    });
    let candidate = world.output.model(PredictionMetric::P95MaxCpuUtil);
    let shadow = suite.per_call_ns("client.shadow_predict", 128, 8, |i| {
        black_box(client.shadow_predict(p95, &set[i].1, candidate));
    });
    let reload_ms = suite.median_ms("client.force_reload_cache", 3, || client.force_reload_cache());
    let hit_parts = parts.key + parts.get_hit;
    let miss_parts =
        parts.key + parts.get_miss + parts.features + parts.predict + parts.insert_evict;
    println!(
        "layer split: hit parts {:.1} of {:.1} ns ({:.0} %), miss parts {:.1} of {:.1} ns ({:.0} %)",
        hit_parts,
        hit,
        100.0 * hit_parts / hit,
        miss_parts,
        miss,
        100.0 * miss_parts / miss
    );
    out.extend([
        ("cache.key_ns_p50", parts.key),
        ("client.hit_ns_p50", hit),
        ("client.self_hit_ns", hit - hit_parts),
        ("client.miss_ns_p50", miss),
        ("client.self_miss_ns", miss - miss_parts),
        ("client.predict_many_per_s", 256.0 * 1e9 / many_ns),
        ("client.shadow_predict_ns_p50", shadow),
        ("client.reload_ms", reload_ms),
    ]);
}

/// An `RcSource` that leaves the duration of its last call where the
/// harness can read it, to split a `schedule` into source and rule chain.
struct TimedSource {
    inner: RcSource,
    last_ns: Arc<AtomicU64>,
}

impl P95Source for TimedSource {
    fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)> {
        let start = Instant::now();
        let out = self.inner.predict_p95(req);
        self.last_ns.store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

fn scheduler(suite: &mut Suite, world: &World, seed: u64, out: &mut Metrics) {
    suite.layer("scheduler");
    let start = Instant::now();
    let stream = materialise_stream(seed);
    let stream_s = start.elapsed().as_secs_f64();
    let n_servers = fleet_size(&stream);
    let config = SchedulerConfig::new(PolicyKind::RcInformedSoft);

    // One pass with every call timed on its own.
    world.client.clear_result_cache();
    let last_ns = Arc::new(AtomicU64::new(0));
    let source =
        TimedSource { inner: RcSource::new(world.client.clone()), last_ns: last_ns.clone() };
    let mut sched =
        Scheduler::new(n_servers, SERVER_CORES, SERVER_MEMORY_GB, config.clone(), Box::new(source));
    let before = Counters::read([
        rc_obs::SCHED_PLACEMENTS,
        rc_obs::SCHED_UTIL_CAP_REJECTIONS,
        rc_obs::SCHED_RULE_RELAXATIONS,
    ]);
    let mut departures = std::collections::BinaryHeap::new();
    let mut placed = vec![None; stream.len()];
    let (mut schedule_ns, mut source_ns, mut self_ns, mut complete_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut busy = 0u64;
    for (i, req) in stream.iter().enumerate() {
        while let Some(&std::cmp::Reverse((deleted, j))) = departures.peek() {
            if deleted > req.created.as_secs() {
                break;
            }
            departures.pop();
            let placement = placed[j as usize].take().expect("departing VM was placed");
            let start = Instant::now();
            sched.complete(&stream[j as usize], placement);
            complete_ns.push(start.elapsed().as_nanos() as u64);
        }
        let start = suite.spans.now();
        let placement = sched.schedule(req);
        let end = suite.spans.now();
        let in_source = last_ns.load(Ordering::Relaxed);
        if i % 64 == 0 {
            let id = suite.spans.record("scheduler.schedule", suite.root, i as u64, 1, start, end);
            suite.spans.record("scheduler.source", id, i as u64, 1, start, start + in_source);
        }
        schedule_ns.push(end - start);
        source_ns.push(in_source);
        self_ns.push((end - start).saturating_sub(in_source));
        placed[i] = placement;
        if placement.is_some() {
            departures.push(std::cmp::Reverse((req.deleted.as_secs(), i as u32)));
        }
        busy += sched.busy_servers() as u64;
    }
    let [placements, cap_rejections, relaxations] = before.deltas().map(|n| n as f64);
    for v in [&mut schedule_ns, &mut source_ns, &mut self_ns, &mut complete_ns] {
        v.sort_unstable();
    }

    // The simulator proper, on the same stream, predictions from the oracle.
    let sim = SimConfig {
        n_servers,
        cores_per_server: SERVER_CORES,
        memory_per_server_gb: SERVER_MEMORY_GB,
        scheduler: config,
        util_shift: 0.0,
        tick_stride: 12,
        obs_tick_secs: 0,
        accuracy: Some(Arc::new(AccuracyTracker::new(DriftConfig::default()))),
    };
    let window = (Timestamp::ZERO, Timestamp::from_days(DAYS as u64));
    let start = suite.spans.now();
    let report = simulate_stream(stream.iter().copied(), &sim, Box::new(OracleSource), window);
    let end = suite.spans.now();
    suite.spans.record("scheduler.simulate_stream", suite.root, 0, 1, start, end);
    let sim_s = (end - start) as f64 / 1e9;
    out.extend([
        ("scheduler.schedule_ns_p50", percentile(&schedule_ns, 0.5) as f64),
        ("scheduler.schedule_ns_p99", percentile(&schedule_ns, 0.99) as f64),
        ("scheduler.source_ns_p50", percentile(&source_ns, 0.5) as f64),
        ("scheduler.self_ns_p50", percentile(&self_ns, 0.5) as f64),
        ("scheduler.complete_ns_p50", percentile(&complete_ns, 0.5) as f64),
        ("scheduler.busy_servers_mean", busy as f64 / stream.len() as f64),
        ("scheduler.util_cap_rejections_per_placement", cap_rejections / placements),
        ("scheduler.rule_relaxations_per_placement", relaxations / placements),
        ("scheduler.sim_arrivals_per_s", report.n_arrivals as f64 / sim_s),
        ("scheduler.sim_readings_per_s", report.total_readings as f64 / sim_s),
        ("trace.stream_reqs_per_s", stream.len() as f64 / stream_s),
    ]);
}

/// Trace generation, labelling, the fits and the pipeline around them.
fn offline(suite: &mut Suite, world: &World, all_cpus: CpuMask, out: &mut Metrics) {
    suite.layer("offline");
    let generate_ms = suite
        .median_ms("trace.generate", 3, || VmStream::new(&trace_config()).collect_trace().n_vms());
    let label_ms = suite.median_ms("labels.label_vms", 3, || label_vms(&world.trace, 120).len());

    // The six training sets, rebuilt as the pipeline builds them except
    // that every row sees the published history instead of the history of
    // its own instant: same shape, same cost to fit.
    let config = pipeline_config();
    let train_end = (config.train_days * 86_400.0) as u64;
    let empty = SubscriptionFeatures::default();
    let history = |inputs: &ClientInputs| {
        world.output.feature_data.get(&inputs.subscription).unwrap_or(&empty)
    };
    let spec = ModelSpec::for_metric;
    let (util, life, class, dep) = (
        spec(PredictionMetric::AvgCpuUtil),
        spec(PredictionMetric::Lifetime),
        spec(PredictionMetric::WorkloadClass),
        spec(PredictionMetric::DeploymentSizeVms),
    );
    let mut sets = [
        Dataset::new(util.n_features(), 4),
        Dataset::new(util.n_features(), 4),
        Dataset::new(dep.n_features(), 4),
        Dataset::new(dep.n_features(), 4),
        Dataset::new(life.n_features(), 4),
        Dataset::new(class.n_features(), 2),
    ];
    for vm in label_vms(&world.trace, 120).iter().filter(|v| v.obs.created_secs < train_end) {
        let sub = history(&vm.inputs);
        let row = util.features(&vm.inputs, sub);
        sets[0].push(&row, vm.obs.avg_bucket);
        sets[1].push(&row, vm.obs.p95_bucket);
        sets[4].push(&life.features(&vm.inputs, sub), vm.obs.lifetime_bucket);
        if let Some(c) = vm.obs.class {
            let row = class.features(&vm.inputs, sub);
            let copies = if c == 1 { config.interactive_oversample.max(1) } else { 1 };
            for _ in 0..copies {
                sets[5].push(&row, c);
            }
        }
    }
    for d in label_deployments(&world.trace).iter().filter(|d| d.obs.created_secs < train_end) {
        let row = dep.features(&d.inputs, history(&d.inputs));
        sets[2].push(&row, d.obs.vms_bucket);
        sets[3].push(&row, d.obs.cores_bucket);
    }
    let (mut bin_ns, mut forest_ns, mut gbt_ns) = (0, 0, 0);
    for (i, set) in sets.iter().enumerate() {
        let start = suite.spans.now();
        let binned = BinnedDataset::build(set);
        let built = suite.spans.now();
        if i < 2 {
            black_box(RandomForest::fit(&binned, &config.forest));
        } else {
            black_box(GradientBoosting::fit(&binned, &config.gbt));
        }
        let fitted = suite.spans.now();
        suite.spans.record("ml.bin_build", suite.root, i as u64, 1, start, built);
        let fit = if i < 2 { "ml.forest_fit" } else { "ml.gbt_fit" };
        suite.spans.record(fit, suite.root, i as u64, 1, built, fitted);
        bin_ns += built - start;
        *(if i < 2 { &mut forest_ns } else { &mut gbt_ns }) += fitted - built;
    }

    let run_ms = suite.median_ms("pipeline.run_pipeline", 3, || {
        run_pipeline(&world.trace, &config).expect("pipeline").models.len()
    });
    let two_workers = rc_core::PipelineConfig { train_workers: 2, ..config.clone() };
    // The only threads the benchmark ever spawns, and the only moment it
    // is not confined to one CPU.
    let pinned = CpuMask::current();
    all_cpus.apply();
    let two_ms = suite.median_ms("pipeline.run_pipeline.2w", 3, || {
        run_pipeline(&world.trace, &two_workers).expect("pipeline").models.len()
    });
    pinned.apply();
    let publish_ms = suite.median_ms("pipeline.publish_gated", 3, || {
        world.output.publish_gated(&Store::in_memory(), GATE).expect("publish")
    });
    out.extend([
        ("trace.generate_vms_per_s", world.trace.n_vms() as f64 / (generate_ms / 1e3)),
        ("labels.label_vms_ms", label_ms),
        ("ml.bin_build_ms", bin_ns as f64 / 1e6),
        ("ml.forest_fit_ms", forest_ns as f64 / 1e6),
        ("ml.gbt_fit_ms", gbt_ns as f64 / 1e6),
        ("pipeline.run_ms", run_ms),
        ("pipeline.publish_ms", publish_ms),
        ("pipeline.train_scaling_2w", run_ms / two_ms),
    ]);
}

fn store_and_obs(suite: &mut Suite, world: &World, out: &mut Metrics) {
    suite.layer("store");
    let store = Store::in_memory();
    let keys: Vec<String> = (0..4096).map(|i| format!("features/{i}")).collect();
    // A feature record is about 850 bytes (§6.1).
    let payload = Bytes::from(vec![b'x'; 850]);
    let put = suite.per_call_ns("store.put", 256, 16, |i| {
        black_box(store.put(&keys[i], payload.clone()).is_ok());
    });
    let get = suite.per_call_ns("store.get_latest", 256, 16, |i| {
        black_box(store.get_latest(&keys[i]).is_ok());
    });
    let fingerprint_ms =
        suite.median_ms("store.fingerprint", 5, || rc_store::fingerprint(&world.store));

    suite.layer("obs");
    let registry = Registry::new();
    let (counter, histogram) =
        (registry.counter("bench_counter"), registry.histogram("bench_histogram"));
    let counter_ns = suite.per_call_ns("obs.counter_inc", 64, 4096, |_| counter.increment());
    let histogram_ns = suite
        .per_call_ns("obs.histogram_record", 64, 4096, |i| histogram.record(300 + i as u64 % 512));
    let tracker = AccuracyTracker::new(DriftConfig::default());
    let accuracy_ns = suite.per_call_ns("obs.accuracy_record", 64, 512, |i| {
        tracker.record_prediction("bench", i as u64, i % 4);
        black_box(tracker.record_outcome("bench", i as u64, (i / 3) % 4));
    });
    let mut sketch = WindowSketch::new();
    let sketch_ns = suite.per_call_ns("obs.sketch_record", 64, 4096, |i| {
        sketch.record("bench", 0.0, 1.0, (i % 1000) as f64 / 1000.0)
    });
    let snapshot_ms =
        suite.median_ms("obs.snapshot", 5, || rc_obs::global().snapshot().counters.len());
    out.extend([
        ("store.put_ns_p50", put),
        ("store.get_ns_p50", get),
        ("store.fingerprint_ms", fingerprint_ms),
        ("obs.counter_inc_ns", counter_ns),
        ("obs.histogram_record_ns", histogram_ns),
        ("obs.accuracy_record_ns", accuracy_ns),
        ("obs.sketch_record_ns", sketch_ns),
        ("obs.snapshot_ms", snapshot_ms),
    ]);
}

/// A steady tick, and the three stages of it that public calls can replay.
fn control_loop(suite: &mut Suite, seed: u64, out: &mut Metrics) {
    suite.layer("loop");
    let config = loop_config(seed);
    let start = suite.spans.now();
    let mut controller = bootstrapped(config.clone());
    let end = suite.spans.now();
    suite.spans.record("loop.bootstrap", suite.root, 0, 1, start, end);
    let bootstrap_ms = (end - start) as f64 / 1e6;
    controller.run_tick();
    let steady_ms = suite.median_ms("loop.run_tick", 12, || controller.run_tick());

    let window_config = window_trace_config(&config);
    let generate_ms = suite.median_ms("loop.window_generate", 5, || {
        cleanup(&VmStream::new(&window_config).collect_trace()).0.n_vms()
    });
    let window = VmStream::new(&window_config).collect_trace();
    let label_ms = suite.median_ms("loop.window_label", 5, || {
        label_vms(&window, 120).len() + label_deployments(&window).len()
    });

    // What the tick serves from: the published models and feature records.
    let store = controller.store();
    let manifest = Manifest::read_current(store).expect("store up").expect("published");
    let fetch =
        |key: &str| store.get_latest(&manifest.versioned_key(key)).expect("published payload").data;
    let models: Vec<TrainedModel> = manifest
        .models
        .iter()
        .map(|e| rc_ml::from_bytes(&fetch(&e.key)).expect("model decodes"))
        .collect();
    let features: std::collections::HashMap<_, SubscriptionFeatures> = manifest
        .features
        .iter()
        .map(|e| rc_ml::from_bytes::<SubscriptionFeatures>(&fetch(&e.key)).expect("record decodes"))
        .map(|f| (f.subscription, f))
        .collect();
    let vms = label_vms(&window, 120);
    let deployments = label_deployments(&window);
    let predict = |metric: PredictionMetric, inputs: &ClientInputs| {
        let model = models.iter().find(|m| m.spec.metric == metric)?;
        let sub = features.get(&inputs.subscription)?;
        Some(Classifier::predict(model, &model.spec.features(inputs, sub)).0)
    };
    let eval_ms = suite.median_ms("loop.window_eval", 5, || {
        use PredictionMetric::*;
        let mut answered = 0;
        // Once for the serving set and once for the frozen one.
        for _ in 0..2 {
            for vm in vms.iter().take(config.eval_per_tick) {
                for metric in [AvgCpuUtil, P95MaxCpuUtil, Lifetime] {
                    answered += usize::from(predict(metric, &vm.inputs).is_some());
                }
                if vm.obs.class.is_some() {
                    answered += usize::from(predict(WorkloadClass, &vm.inputs).is_some());
                }
            }
            for d in deployments.iter().take(config.eval_per_tick) {
                for metric in [DeploymentSizeVms, DeploymentSizeCores] {
                    answered += usize::from(predict(metric, &d.inputs).is_some());
                }
            }
        }
        answered
    });

    // A tick that retrains on cadence and shadow-evaluates the candidate.
    let mut retraining =
        bootstrapped(LoopConfig { retrain_every: 1, watch_ticks: 1, ..config.clone() });
    let retrain_ms = suite.median_ms("loop.run_tick.retrain", 1, || retraining.run_tick());
    assert_eq!(retraining.summary().retrains, 2, "the cadence tick retrained");
    out.extend([
        ("loop.bootstrap_ms", bootstrap_ms),
        ("loop.tick_steady_ms", steady_ms),
        ("loop.window_generate_ms", generate_ms),
        ("loop.window_label_ms", label_ms),
        ("loop.window_eval_ms", eval_ms),
        ("loop.tick_self_ms", steady_ms - generate_ms - label_ms - eval_ms),
        ("loop.tick_retrain_ms", retrain_ms),
    ]);
}
