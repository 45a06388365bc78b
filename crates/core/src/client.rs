//! The client library — the paper's "client DLL" (§4.2, Table 2).
//!
//! A single, general, thread-safe library through which every resource
//! manager consumes predictions. It caches prediction results, models, and
//! feature data in memory; mirrors models and feature data to a local disk
//! cache; and supports both caching modes:
//!
//! - **push** (the production default): `initialize` /
//!   `force_reload_cache` load *everything* from the store, and
//!   predictions never touch the store or the disk on the request path.
//! - **pull**: a result-cache miss returns the no-prediction flag
//!   immediately while a background worker fetches the model/feature data
//!   and executes the model, so a later identical request hits the cache.
//!
//! When the store misbehaves, the client walks a degradation ladder
//! instead of failing (§4.3: RC is non-mission-critical): store pulls are
//! retried with jittered exponential backoff under a per-call deadline,
//! guarded by per-key circuit breakers; failed pulls fall back to the
//! local disk cache, serving entries past their expiry inside a
//! configurable stale-grace window; corrupt or undecodable payloads are
//! counted and treated as fetch failures; and when nothing is loadable at
//! all, every lookup still answers the no-prediction default. The
//! [`RcClient::health`] probe summarizes the ladder for schedulers.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant, SystemTime};

use arc_swap::ArcSwap;
use parking_lot::Mutex;

use rc_obs::{Counter, Gauge, Histogram};
use rc_store::{checksum, Manifest, ModelEntry, Store, StoreBackend, MANIFEST_KEY};
use rc_types::vm::SubscriptionId;

use crate::admission::{AdmissionQueue, SubmitOutcome};
use crate::cache::{DiskCache, DiskLoadResult, ShardedResultCache};
use crate::features::SubscriptionFeatures;
use crate::inputs::ClientInputs;
use crate::models::{feature_store_key, TrainedModel};
use crate::prediction::{Prediction, PredictionResponse, Served, ShadowPrediction};
use crate::resilience::{
    Admission, BreakerConfig, CircuitBreakers, ClientHealth, DegradedReason, RetryJitter,
    RetryPolicy,
};

/// Caching mode (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// RC pushes models and feature data; loads happen at initialize /
    /// reload time and the predict path never blocks on the store.
    Push,
    /// Models and feature data are fetched on demand in the background; a
    /// result-cache miss answers no-prediction.
    Pull,
    /// Models and feature data are fetched on demand *synchronously*: a
    /// result-cache miss blocks on the resilient fetch path (retry +
    /// breaker + disk fallback) and always resolves to a prediction or
    /// the default in one call. The mode the chaos suite exercises.
    PullSync,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Push or pull caching.
    pub mode: CacheMode,
    /// Result-cache capacity in entries (split across the shards).
    pub result_cache_capacity: usize,
    /// Result-cache shard count (rounded up to a power of two, and never
    /// above the capacity); `0` picks a machine-appropriate default. `1`
    /// puts every key in one table behind one write mutex — useful as a
    /// contention baseline.
    pub result_cache_shards: usize,
    /// Directory for the local disk cache; `None` disables it.
    pub disk_cache_dir: Option<std::path::PathBuf>,
    /// Expiry of disk-cache contents.
    pub disk_cache_expiry: StdDuration,
    /// Push-mode background refresh interval: when set, a watcher thread
    /// polls the store's versions and reloads the caches whenever RC
    /// publishes new models or feature data ("RC periodically produces new
    /// models and feature data ... and pushes them in the background to
    /// the caches in the client DLL", §4.2). `None` disables the watcher;
    /// `force_reload_cache` still refreshes on demand.
    pub auto_refresh_interval: Option<StdDuration>,
    /// Retry/backoff/deadline policy for on-demand store pulls.
    pub retry: RetryPolicy,
    /// Per-key circuit-breaker thresholds for on-demand store pulls.
    pub breaker: BreakerConfig,
    /// Stale-while-revalidate window: a disk-cache entry past its expiry
    /// but within `expiry + stale_grace` may still be served (counted as
    /// a stale serve, flagged in [`RcClient::health`]). Zero keeps the
    /// strict §4.2 behaviour: expired means ignored.
    pub stale_grace: StdDuration,
    /// Mirror successful on-demand fetches to the disk cache. Disable to
    /// run against a read-only, pre-primed disk cache (chaos and
    /// reproducibility runs do this so a run never perturbs the next).
    pub disk_write_through: bool,
}

/// Pull-mode admission-queue depth: result-cache misses waiting for the
/// background worker. A full queue sheds further misses (backpressure —
/// they keep answering the default) instead of growing unboundedly.
const PULL_QUEUE_CAPACITY: usize = 4096;

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            mode: CacheMode::Push,
            result_cache_capacity: 1 << 20,
            result_cache_shards: 0,
            disk_cache_dir: None,
            disk_cache_expiry: StdDuration::from_secs(24 * 3600),
            auto_refresh_interval: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            stale_grace: StdDuration::ZERO,
            disk_write_through: true,
        }
    }
}

/// One event this client counts for itself: its own cell and the
/// process-wide registry total move together. The `*_count()` accessors
/// read the client's own cell, so two clients in one process each report
/// only their own events.
struct Tally {
    own: Counter,
    total: Counter,
}

impl Tally {
    fn new(total: Counter) -> Self {
        Tally { own: Counter::new(), total }
    }

    #[inline]
    fn increment(&self) {
        self.own.increment();
        self.total.increment();
    }

    fn get(&self) -> u64 {
        self.own.get()
    }
}

/// Registry handles for the predict path, resolved once at client
/// construction so every per-request update is a plain atomic op (no
/// registry lock on the hot path).
struct ClientMetrics {
    hit_latency: Histogram,
    miss_latency: Histogram,
    result_hits: Counter,
    result_misses: Counter,
    result_insertions: Counter,
    result_evictions: Counter,
    model_cache_hits: Counter,
    model_cache_misses: Counter,
    feature_cache_hits: Counter,
    feature_cache_misses: Counter,
    store_fallbacks: Tally,
    disk_recoveries: Counter,
    model_execs: Tally,
    background_refreshes: Tally,
    batch_predicts: Counter,
    workers_started: Counter,
    workers_stopped: Counter,
    lookups: Tally,
    fresh_fetches: Tally,
    stale_serves: Tally,
    /// Lookups answered with no prediction.
    defaults: Tally,
    retries: Tally,
    corrupt_payloads: Tally,
    model_rejected: Tally,
    /// Manifest-named payloads the store did not return; the registry
    /// has no name for it.
    unfetched_payloads: Counter,
    predictions: Counter,
    inflight: Gauge,
    serve_publishes: Counter,
    serve_generation: Gauge,
    serve_retired: Gauge,
    admission_enqueued: Counter,
    admission_coalesced: Counter,
    admission_rejected: Counter,
}

impl ClientMetrics {
    fn new() -> Self {
        let reg = rc_obs::global();
        let tally = |name: &str| Tally::new(reg.counter(name));
        ClientMetrics {
            hit_latency: reg.histogram(rc_obs::CLIENT_PREDICT_HIT_LATENCY_NS),
            miss_latency: reg.histogram(rc_obs::CLIENT_PREDICT_MISS_LATENCY_NS),
            result_hits: reg.counter(rc_obs::CLIENT_RESULT_CACHE_HITS),
            result_misses: reg.counter(rc_obs::CLIENT_RESULT_CACHE_MISSES),
            result_insertions: reg.counter(rc_obs::CLIENT_RESULT_CACHE_INSERTIONS),
            result_evictions: reg.counter(rc_obs::CLIENT_RESULT_CACHE_EVICTIONS),
            model_cache_hits: reg.counter(rc_obs::CLIENT_MODEL_CACHE_HITS),
            model_cache_misses: reg.counter(rc_obs::CLIENT_MODEL_CACHE_MISSES),
            feature_cache_hits: reg.counter(rc_obs::CLIENT_FEATURE_CACHE_HITS),
            feature_cache_misses: reg.counter(rc_obs::CLIENT_FEATURE_CACHE_MISSES),
            store_fallbacks: tally(rc_obs::CLIENT_STORE_FALLBACKS),
            disk_recoveries: reg.counter(rc_obs::CLIENT_DISK_CACHE_RECOVERIES),
            model_execs: tally(rc_obs::CLIENT_MODEL_EXECS),
            background_refreshes: tally(rc_obs::CLIENT_BACKGROUND_REFRESHES),
            batch_predicts: reg.counter(rc_obs::CLIENT_BATCH_PREDICTS),
            workers_started: reg.counter(rc_obs::CLIENT_WORKERS_STARTED),
            workers_stopped: reg.counter(rc_obs::CLIENT_WORKERS_STOPPED),
            lookups: tally(rc_obs::CLIENT_LOOKUPS),
            fresh_fetches: tally(rc_obs::CLIENT_FRESH_FETCHES),
            stale_serves: tally(rc_obs::CLIENT_STALE_SERVES),
            defaults: tally(rc_obs::CLIENT_DEFAULTS),
            retries: tally(rc_obs::CLIENT_RETRIES),
            corrupt_payloads: tally(rc_obs::CLIENT_CORRUPT_PAYLOADS),
            model_rejected: tally(rc_obs::CLIENT_MODEL_REJECTED),
            unfetched_payloads: Counter::new(),
            predictions: reg.counter(rc_obs::CLIENT_PREDICTIONS),
            inflight: reg.gauge(rc_obs::CLIENT_INFLIGHT),
            serve_publishes: reg.counter(rc_obs::CLIENT_SERVE_SNAPSHOT_PUBLISHES),
            serve_generation: reg.gauge(rc_obs::CLIENT_SERVE_SNAPSHOT_GENERATION),
            serve_retired: reg.gauge(rc_obs::CLIENT_SERVE_SNAPSHOT_RETIRED),
            admission_enqueued: reg.counter(rc_obs::CLIENT_ADMISSION_ENQUEUED),
            admission_coalesced: reg.counter(rc_obs::CLIENT_ADMISSION_COALESCED),
            admission_rejected: reg.counter(rc_obs::CLIENT_ADMISSION_REJECTED),
        }
    }
}

/// RAII marker for `rc_client_inflight`: adds one on entry to a predict
/// call and subtracts it on every exit path, panics included.
struct InflightGuard<'a>(&'a Gauge);

impl<'a> InflightGuard<'a> {
    fn enter(gauge: &'a Gauge) -> Self {
        gauge.add(1.0);
        InflightGuard(gauge)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1.0);
    }
}

/// The immutable serve-path state: everything a predict resolves against
/// — models, feature data, the manifest that loaded them, and staleness
/// membership — published together behind one [`ArcSwap`] pointer.
///
/// Readers take one epoch pin plus one atomic load per call and never
/// block; because model, feature record, staleness, and generation all
/// come from the *same* snapshot, a concurrent swap can never mix
/// versions within one prediction (no torn reads). Writers clone the
/// current snapshot under [`Shared::serve_write`], mutate the copy, and
/// publish it with a single pointer store.
#[derive(Clone)]
struct ServeSnapshot {
    models: HashMap<String, Arc<TrainedModel>>,
    /// Per-subscription feature records, individually `Arc`ed so cloning
    /// the snapshot (and refreshing one subscription) copies pointers,
    /// not feature payloads.
    features: HashMap<SubscriptionId, Arc<SubscriptionFeatures>>,
    /// The publish manifest the resident caches were loaded through;
    /// directs on-demand fetches to the right version and carries the
    /// checksums payloads are verified against. `None` until a store read
    /// finds one (a disk-loaded client starts without).
    manifest: Option<Manifest>,
    /// Model names currently resident from *stale* disk data.
    stale_models: HashSet<String>,
    /// Subscriptions whose resident feature record is stale disk data.
    stale_subs: HashSet<SubscriptionId>,
    /// Monotone publish count; responses attribute to the generation they
    /// resolved against (the swap-race regression test's oracle).
    generation: u64,
}

impl ServeSnapshot {
    fn empty() -> Self {
        ServeSnapshot {
            models: HashMap::new(),
            features: HashMap::new(),
            manifest: None,
            stale_models: HashSet::new(),
            stale_subs: HashSet::new(),
            generation: 0,
        }
    }
}

/// Publishes the next serve snapshot: clone the current one, bump the
/// generation, apply `mutate`, store. Writers serialize on `serve_write`
/// so concurrent publishes never lose each other's updates; readers keep
/// resolving against the previous snapshot until the single store lands.
fn publish_serve(shared: &Shared, mutate: impl FnOnce(&mut ServeSnapshot)) {
    let _write = shared.serve_write.lock();
    let mut next = (*shared.serve.load_full()).clone();
    next.generation += 1;
    mutate(&mut next);
    let generation = next.generation;
    shared.serve.store(Arc::new(next));
    shared.metrics.serve_publishes.increment();
    shared.metrics.serve_generation.set(generation as f64);
    shared.metrics.serve_retired.set(shared.serve.retired_len() as f64);
}

/// A prediction resolved against one pinned serve snapshot, plus the
/// attribution the caller needs: which generation answered, and whether
/// that snapshot held the model or feature record as stale disk data.
struct Executed {
    prediction: Prediction,
    generation: u64,
    stale: bool,
}

/// State shared between the client facade and the background workers.
struct Shared {
    backend: Arc<dyn StoreBackend>,
    config: ClientConfig,
    /// The epoch-swapped serve snapshot; see [`ServeSnapshot`].
    serve: ArcSwap<ServeSnapshot>,
    /// Serializes snapshot publishes (loads, refreshes, on-demand
    /// fetches — all rare). The predict path never touches it.
    serve_write: Mutex<()>,
    results: ShardedResultCache,
    /// Pull-mode admission: the bounded queue of refreshes and the keys
    /// in flight, feeding the pull worker.
    admission: Option<AdmissionQueue>,
    initialized: AtomicBool,
    shutdown: AtomicBool,
    /// FNV fingerprint over (key, version) pairs at the last load; the
    /// push watcher reloads when the store's fingerprint changes.
    store_fingerprint: AtomicU64,
    /// First observed degradation since the last all-clear.
    degraded: Mutex<Option<(SystemTime, DegradedReason)>>,
    breakers: CircuitBreakers,
    jitter: RetryJitter,
    /// Live facade handles (the original plus clones). The last facade to
    /// drop signals shutdown and joins the background workers — an exact
    /// count, unlike the racy `Arc::strong_count` heuristic it replaces
    /// (two concurrent drops could both read a high count and leak the
    /// worker threads forever).
    facades: AtomicUsize,
    /// Live background worker threads; shared out through
    /// [`WorkerLifecycle`] so embedders (and tests) can observe shutdown.
    live_workers: Arc<AtomicUsize>,
    worker_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    disk: Option<DiskCache>,
    metrics: ClientMetrics,
}

/// The Resource Central client.
///
/// Cheap to clone; clones share caches and the background workers. The
/// last clone to drop shuts the workers down and joins them.
pub struct RcClient {
    shared: Arc<Shared>,
}

/// Observer for a client's background worker threads.
///
/// Obtained from [`RcClient::worker_lifecycle`]; stays valid after every
/// facade has dropped, which is exactly when it is useful: embedders can
/// assert the pull worker and push watcher actually exited instead of
/// leaking.
#[derive(Clone)]
pub struct WorkerLifecycle(Arc<AtomicUsize>);

impl WorkerLifecycle {
    /// Background worker threads currently running for the client.
    pub fn live(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

impl RcClient {
    /// Creates a client bound to a plain store. Call
    /// [`RcClient::initialize`] before requesting predictions.
    pub fn new(store: Store, config: ClientConfig) -> Self {
        Self::with_backend(Arc::new(store), config)
    }

    /// Creates a client bound to any [`StoreBackend`] — a plain
    /// [`Store`], or a fault-injecting wrapper like
    /// `rc_store::FaultyStore` for chaos runs.
    pub fn with_backend(backend: Arc<dyn StoreBackend>, config: ClientConfig) -> Self {
        let disk =
            config.disk_cache_dir.clone().map(|dir| DiskCache::new(dir, config.disk_cache_expiry));
        let n_shards = if config.result_cache_shards == 0 {
            ShardedResultCache::default_shards()
        } else {
            config.result_cache_shards
        };
        let results = ShardedResultCache::new(config.result_cache_capacity, n_shards);
        let metrics = ClientMetrics::new();
        rc_obs::global().gauge(rc_obs::CLIENT_RESULT_CACHE_SHARDS).set(results.n_shards() as f64);
        let breakers = CircuitBreakers::new(config.breaker);
        let jitter = RetryJitter::new(&config.retry);
        let admission =
            (config.mode == CacheMode::Pull).then(|| AdmissionQueue::new(PULL_QUEUE_CAPACITY));
        let shared = Arc::new(Shared {
            backend,
            results,
            config,
            serve: ArcSwap::from_pointee(ServeSnapshot::empty()),
            serve_write: Mutex::new(()),
            admission,
            initialized: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            store_fingerprint: AtomicU64::new(0),
            degraded: Mutex::new(None),
            breakers,
            jitter,
            facades: AtomicUsize::new(1),
            live_workers: Arc::new(AtomicUsize::new(0)),
            worker_handles: Mutex::new(Vec::new()),
            disk,
            metrics,
        });

        if shared.admission.is_some() {
            let worker_shared = shared.clone();
            worker_shared.live_workers.fetch_add(1, Ordering::SeqCst);
            worker_shared.metrics.workers_started.increment();
            let handle = std::thread::Builder::new()
                .name("rc-pull-worker".into())
                .spawn(move || {
                    let _guard = WorkerGuard(worker_shared.clone());
                    pull_worker(worker_shared);
                })
                .expect("spawn pull worker");
            shared.worker_handles.lock().push(handle);
        }

        if let Some(interval) = shared.config.auto_refresh_interval {
            let watcher_shared = shared.clone();
            watcher_shared.live_workers.fetch_add(1, Ordering::SeqCst);
            watcher_shared.metrics.workers_started.increment();
            let handle = std::thread::Builder::new()
                .name("rc-push-watcher".into())
                .spawn(move || {
                    let _guard = WorkerGuard(watcher_shared.clone());
                    push_watcher(watcher_shared, interval);
                })
                .expect("spawn push watcher");
            shared.worker_handles.lock().push(handle);
        }

        RcClient { shared }
    }

    /// Table 2: `initialize`. Loads models (and, in push mode, all feature
    /// data) from the store, falling back to a fresh disk cache when the
    /// store is unavailable. Returns `true` when at least one model is
    /// ready to serve.
    pub fn initialize(&self) -> bool {
        let loaded = self.load_from_store() || {
            let recovered = self.load_from_disk();
            if recovered {
                self.shared.metrics.disk_recoveries.increment();
                let mut span = rc_obs::global_tracer().span("client.disk_cache_recovery");
                span.record("models", self.shared.serve.with(|s| s.models.len()) as u64);
                span.finish();
            }
            recovered
        };
        self.shared.initialized.store(loaded, Ordering::SeqCst);
        loaded
    }

    fn load_from_store(&self) -> bool {
        load_from_store_shared(&self.shared)
    }
}

/// Loads the version the store's publish manifest names: its models and,
/// in push mode, all its feature data. A store without a readable manifest
/// has nothing to load. Free function so the push watcher can call it
/// without constructing a facade.
fn load_from_store_shared(shared: &Shared) -> bool {
    let store = shared.backend.as_ref();
    if !store.is_available() {
        return false;
    }
    let Some(manifest) =
        store.get_latest(MANIFEST_KEY).ok().and_then(|rec| Manifest::from_bytes(&rec.data))
    else {
        return false;
    };
    let write_through = shared.config.disk_write_through;
    let mut models = HashMap::new();
    for entry in &manifest.models {
        let name = entry.key.trim_start_matches("model/").to_string();
        let fetched = store.get_latest(&manifest.versioned_key(&entry.key));
        let fetched = fetched.map_err(|_| note_unfetched(shared)).ok().and_then(|rec| {
            match validate_model_payload(&rec.data, entry, &name) {
                Some(model) => {
                    if write_through {
                        if let Some(disk) = &shared.disk {
                            let _ = disk.save("model", &entry.key, &rec.data);
                        }
                    }
                    Some(Arc::new(model))
                }
                None => {
                    note_rejected(shared, &name);
                    None
                }
            }
        });
        // Containment: a rejected (or unfetchable) payload never replaces
        // a resident model — the old one keeps serving.
        if let Some(model) = fetched.or_else(|| shared.serve.with(|s| s.models.get(&name).cloned()))
        {
            models.insert(name, model);
        }
    }
    if models.is_empty() {
        return false;
    }
    let push = shared.config.mode == CacheMode::Push;
    let mut features = HashMap::new();
    if push {
        for entry in &manifest.features {
            let Ok(rec) = store.get_latest(&manifest.versioned_key(&entry.key)) else {
                note_unfetched(shared);
                continue;
            };
            if checksum(&rec.data) != entry.checksum {
                note_corrupt(shared);
                continue;
            }
            match serde_json::from_slice::<SubscriptionFeatures>(&rec.data) {
                Ok(f) => {
                    features.insert(f.subscription, Arc::new(f));
                }
                Err(_) => note_corrupt(shared),
            }
        }
        if write_through {
            if let Some(disk) = &shared.disk {
                let records: Vec<&SubscriptionFeatures> =
                    features.values().map(|f| f.as_ref()).collect();
                if let Ok(blob) = serde_json::to_vec(&records) {
                    let _ = disk.save("features", "all", &blob);
                }
            }
        }
    }
    // Seed the drift monitor's training-time baselines: the manifest
    // records every model's validated accuracy at publish time. A served
    // metric with no manifest entry is still covered — the tracker falls
    // back to `rc_obs::DEFAULT_BASELINE` at tick time rather than never
    // evaluating its drift signal.
    for entry in &manifest.models {
        let name = entry.key.trim_start_matches("model/");
        rc_obs::global_accuracy().set_baseline(name, entry.accuracy);
    }
    // One publish swaps in the whole load: models, feature data,
    // staleness, and manifest become visible together, and the reloaded
    // caches are fresh again. The pull modes start the new version with
    // no feature records and fetch each on demand.
    publish_serve(shared, |s| {
        s.models = models;
        s.stale_models.clear();
        s.features = features;
        s.stale_subs.clear();
        s.manifest = Some(manifest);
    });
    if push {
        *shared.degraded.lock() = None;
    } else {
        maybe_clear_degraded(shared);
    }
    shared.store_fingerprint.store(rc_store::fingerprint(store), Ordering::SeqCst);
    true
}

/// Sanity-checks a fetched model payload before it may be swapped in:
/// the bytes must match the manifest entry's checksum, decode to a model,
/// be the model the manifest slot names, and produce finite outputs on a
/// probe batch. `None` means the payload is poisoned and must not serve.
fn validate_model_payload(
    bytes: &[u8],
    entry: &ModelEntry,
    expected_name: &str,
) -> Option<TrainedModel> {
    if checksum(bytes) != entry.checksum {
        return None;
    }
    let model = rc_ml::from_bytes::<TrainedModel>(bytes).ok()?;
    if model.spec.metric.model_name() != expected_name {
        return None;
    }
    let n = model.spec.n_features();
    for probe in [vec![0.0; n], vec![0.5; n]] {
        let (_, score) = rc_ml::Classifier::predict(&model, &probe);
        if !score.is_finite() {
            return None;
        }
    }
    Some(model)
}

/// Records one rejected model payload (poisoned-model containment).
fn note_rejected(shared: &Shared, model_name: &str) {
    shared.metrics.model_rejected.increment();
    let mut span = rc_obs::global_tracer().span("client.model_rejected");
    span.record("model", model_name);
    span.finish();
}

/// Records one corrupt/undecodable payload (store pull or disk entry).
fn note_corrupt(shared: &Shared) {
    shared.metrics.corrupt_payloads.increment();
}

/// Records one manifest-named payload the store did not return.
fn note_unfetched(shared: &Shared) {
    shared.metrics.unfetched_payloads.increment();
}

/// Marks the client degraded (first cause wins until the next all-clear).
fn note_degraded(shared: &Shared, reason: DegradedReason) {
    let mut degraded = shared.degraded.lock();
    if degraded.is_none() {
        *degraded = Some((SystemTime::now(), reason));
    }
}

/// Clears the degraded mark once the store answers, no breaker is open,
/// and nothing stale is resident.
fn maybe_clear_degraded(shared: &Shared) {
    if shared.breakers.open_count() == 0
        && shared.serve.with(|s| s.stale_models.is_empty() && s.stale_subs.is_empty())
    {
        *shared.degraded.lock() = None;
    }
}

impl RcClient {
    fn load_from_disk(&self) -> bool {
        let shared = &self.shared;
        let Some(disk) = &shared.disk else {
            return false;
        };
        let grace = shared.config.stale_grace;
        let mut models = HashMap::new();
        let mut stale_names = HashSet::new();
        // `list` returns the original store keys (e.g. "model/VM_P95UTIL")
        // thanks to the disk cache's lossless name escaping.
        for name in disk.list("model") {
            let (bytes, stale) = match disk.load_graced("model", &name, grace) {
                DiskLoadResult::Fresh(bytes) => (bytes, false),
                DiskLoadResult::Stale(bytes) => (bytes, true),
                DiskLoadResult::Corrupt => {
                    note_corrupt(shared);
                    continue;
                }
                DiskLoadResult::Expired | DiskLoadResult::Missing => continue,
            };
            match rc_ml::from_bytes::<TrainedModel>(&bytes) {
                Ok(model) => {
                    let model_name = model.spec.metric.model_name().to_string();
                    if stale {
                        stale_names.insert(model_name.clone());
                    }
                    models.insert(model_name, Arc::new(model));
                }
                Err(_) => note_corrupt(shared),
            }
        }
        if models.is_empty() {
            return false;
        }
        let mut features = HashMap::new();
        let mut features_stale = false;
        let blob = match disk.load_graced("features", "all", grace) {
            DiskLoadResult::Fresh(blob) => Some(blob),
            DiskLoadResult::Stale(blob) => {
                features_stale = true;
                Some(blob)
            }
            DiskLoadResult::Corrupt => {
                note_corrupt(shared);
                None
            }
            DiskLoadResult::Expired | DiskLoadResult::Missing => None,
        };
        if let Some(blob) = blob {
            match serde_json::from_slice::<Vec<SubscriptionFeatures>>(&blob) {
                Ok(records) => {
                    for f in records {
                        features.insert(f.subscription, Arc::new(f));
                    }
                }
                Err(_) => note_corrupt(shared),
            }
        }
        if !stale_names.is_empty() || features_stale {
            note_degraded(shared, DegradedReason::StaleData);
        }
        let stale_keys: Vec<SubscriptionId> =
            if features_stale { features.keys().copied().collect() } else { Vec::new() };
        publish_serve(shared, |s| {
            s.stale_subs.extend(stale_keys);
            s.stale_models = stale_names;
            s.models = models;
            s.features = features;
        });
        true
    }

    /// Table 2: `get_available_models`.
    pub fn get_available_models(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.serve.with(|s| s.models.keys().cloned().collect());
        names.sort();
        names
    }

    /// Table 2: `predict_single`.
    pub fn predict_single(&self, model_name: &str, inputs: &ClientInputs) -> PredictionResponse {
        self.predict_single_attributed(model_name, inputs).0
    }

    /// `predict_single` plus the degradation-ladder rung the lookup
    /// landed on. Every call resolves to exactly one [`Served`] class, so
    /// tallies of the second element reconcile exactly with the
    /// `rc_client_lookups` / `..._fresh_fetches` / `..._stale_serves` /
    /// `..._defaults` counters.
    pub fn predict_single_traced(
        &self,
        model_name: &str,
        inputs: &ClientInputs,
    ) -> (PredictionResponse, Served) {
        let (response, served, _) = self.predict_single_attributed(model_name, inputs);
        (response, served)
    }

    /// `predict_single_traced` plus the serve-snapshot generation the
    /// call resolved against — the swap-race regression test's torn-read
    /// oracle. A miss that executes a model attributes to the single
    /// pinned snapshot that supplied both the model and the feature
    /// record; a cache hit (or default) reports the generation current at
    /// answer time, which may postdate the publish that filled the cached
    /// entry.
    pub fn predict_single_attributed(
        &self,
        model_name: &str,
        inputs: &ClientInputs,
    ) -> (PredictionResponse, Served, u64) {
        let start = Instant::now();
        let metrics = &self.shared.metrics;
        let _inflight = InflightGuard::enter(&metrics.inflight);
        metrics.lookups.increment();
        if !self.shared.initialized.load(Ordering::SeqCst) {
            let generation = self.shared.serve.with(|s| s.generation);
            return (self.no_prediction(), Served::Default, generation);
        }
        let key = inputs.cache_key(model_name);
        if let Some(hit) = self.shared.results.get(key) {
            metrics.result_hits.increment();
            metrics.predictions.increment();
            metrics.hit_latency.record_duration(start.elapsed());
            let generation = self.shared.serve.with(|s| s.generation);
            return (PredictionResponse::Predicted(hit), Served::Hit, generation);
        }
        metrics.result_misses.increment();
        let resolved = match self.shared.config.mode {
            CacheMode::Push => execute(&self.shared, model_name, inputs),
            CacheMode::PullSync => resolve_sync(&self.shared, model_name, inputs),
            CacheMode::Pull => {
                // Answer no-prediction now; the pull worker fills the
                // cache so the next identical request hits.
                submit_refresh(&self.shared, model_name, inputs, key);
                None
            }
        };
        let (response, served, generation) = match resolved {
            Some(executed) => {
                fill_result(&self.shared, key, executed.prediction);
                let served = self.count_serve_stale(executed.stale);
                metrics.predictions.increment();
                (PredictionResponse::Predicted(executed.prediction), served, executed.generation)
            }
            None => {
                let generation = self.shared.serve.with(|s| s.generation);
                (self.no_prediction(), Served::Default, generation)
            }
        };
        metrics.miss_latency.record_duration(start.elapsed());
        (response, served, generation)
    }

    /// Classifies (and counts) one served lookup as fresh or stale. The
    /// staleness flag comes from the same pinned snapshot that resolved
    /// the prediction, so no extra lock (or pin) is taken here.
    fn count_serve_stale(&self, stale: bool) -> Served {
        if stale {
            self.shared.metrics.stale_serves.increment();
            note_degraded(&self.shared, DegradedReason::StaleData);
            Served::Stale
        } else {
            self.shared.metrics.fresh_fetches.increment();
            Served::Fresh
        }
    }

    /// Table 2: `predict_many` — `predict_single` over each input, with
    /// positional responses. Every counter moves exactly as if the inputs
    /// were sent one by one; a key repeated in the batch runs its model
    /// once, because its first occurrence fills the result cache.
    pub fn predict_many(
        &self,
        model_name: &str,
        inputs: &[ClientInputs],
    ) -> Vec<PredictionResponse> {
        if !inputs.is_empty() {
            self.shared.metrics.batch_predicts.increment();
        }
        inputs.iter().map(|i| self.predict_single(model_name, i)).collect()
    }

    /// Table 2: `force_reload_cache` — refreshes memory and disk caches
    /// from the store.
    pub fn force_reload_cache(&self) {
        if self.load_from_store() {
            self.shared.results.clear();
            self.shared.initialized.store(true, Ordering::SeqCst);
        }
    }

    /// Table 2: `flush_cache` — drops memory and disk caches. The client
    /// reports [`ClientHealth::Offline`] until re-initialized.
    pub fn flush_cache(&self) {
        // One publish flushes every serve-path structure at once (the
        // generation keeps counting up — flushes are publishes too).
        publish_serve(&self.shared, |s| {
            s.models.clear();
            s.features.clear();
            s.manifest = None;
            s.stale_models.clear();
            s.stale_subs.clear();
        });
        self.shared.results.clear();
        if let Some(disk) = &self.shared.disk {
            disk.flush();
        }
        self.shared.breakers.reset();
        *self.shared.degraded.lock() = None;
        self.shared.initialized.store(false, Ordering::SeqCst);
    }

    /// The health probe (§4.3): `Offline` when uninitialized or flushed
    /// (every lookup answers the default — schedulers should take their
    /// conservative no-prediction path without asking), `Degraded` while
    /// serving from fallbacks (stale data, disk, open breakers), else
    /// `Healthy`.
    pub fn health(&self) -> ClientHealth {
        if !self.shared.initialized.load(Ordering::SeqCst) {
            return ClientHealth::Offline;
        }
        if let Some((since, reason)) = *self.shared.degraded.lock() {
            return ClientHealth::Degraded { since, reason };
        }
        if self.shared.breakers.open_count() > 0 {
            return ClientHealth::Degraded {
                since: SystemTime::now(),
                reason: DegradedReason::BreakerOpen,
            };
        }
        ClientHealth::Healthy
    }

    /// Executes `model_name` on the resident model and feature record,
    /// bypassing the result cache: neither read nor written, and not
    /// counted as a lookup. The cache key buckets the deployment time by
    /// day and the size hint by power of two, so a hit may answer with
    /// the prediction for a neighbouring request; a caller that scores
    /// predictions against labels needs the exact one. Never fetches:
    /// `None` when the model or the subscription's feature record is not
    /// resident.
    pub fn predict_uncached(&self, model_name: &str, inputs: &ClientInputs) -> Option<Prediction> {
        execute(&self.shared, model_name, inputs).map(|executed| executed.prediction)
    }

    /// Shadow-evaluates a candidate model side-by-side with the serving
    /// one. Both models see the feature vector assembled from the *same*
    /// pinned serve snapshot, so a concurrent publish can never make the
    /// comparison lopsided. No production path calls it: the control loop
    /// scores candidates against their own feature records offline. It
    /// stays for the benchmark's layer suite, which times it.
    ///
    /// This path is deliberately invisible to clients: no counter moves,
    /// no cache is read or written, no degradation is noted. The serving
    /// side is `None` when the model or the subscription's feature record
    /// is not resident; the candidate side is `None` only when the
    /// feature record is missing (it needs no resident model).
    pub fn shadow_predict(
        &self,
        model_name: &str,
        inputs: &ClientInputs,
        candidate: &TrainedModel,
    ) -> ShadowPrediction {
        let resolved = self.shared.serve.with(|snap| {
            let sub = snap.features.get(&inputs.subscription).cloned();
            let model = snap.models.get(model_name).cloned();
            (model, sub)
        });
        let (model, sub) = resolved;
        let Some(sub) = sub else {
            return ShadowPrediction { serving: None, candidate: None };
        };
        let serving = model.map(|m| m.predict_for(inputs, &sub));
        ShadowPrediction { serving, candidate: Some(candidate.predict_for(inputs, &sub)) }
    }

    fn no_prediction(&self) -> PredictionResponse {
        self.shared.metrics.defaults.increment();
        PredictionResponse::NoPrediction
    }

    /// Result-cache hit rate so far.
    pub fn result_cache_hit_rate(&self) -> f64 {
        self.shared.results.hit_rate()
    }

    /// Result-cache entry count across all shards.
    pub fn result_cache_len(&self) -> usize {
        self.shared.results.len()
    }

    /// Exact result-cache counters, aggregated across shards.
    pub fn result_cache_stats(&self) -> crate::cache::ResultCacheStats {
        self.shared.results.stats()
    }

    /// Number of result-cache shards this client was built with.
    pub fn result_cache_shards(&self) -> usize {
        self.shared.results.n_shards()
    }

    /// Model executions so far (each one is a result-cache fill).
    pub fn model_exec_count(&self) -> u64 {
        self.shared.metrics.model_execs.get()
    }

    /// Drops only the result cache, keeping models and feature data.
    ///
    /// Useful when the client knows its inputs' behaviour changed (and for
    /// benchmarking the model-execution path).
    pub fn clear_result_cache(&self) {
        self.shared.results.clear();
    }

    /// No-prediction replies so far.
    pub fn no_prediction_count(&self) -> u64 {
        self.shared.metrics.defaults.get()
    }

    /// Pull-mode model fetches that fell back to the disk cache because
    /// the store pull failed. Successful store pulls do not count.
    pub fn store_fallback_count(&self) -> u64 {
        self.shared.metrics.store_fallbacks.get()
    }

    /// Lookups so far — every `predict_single` call and every element of
    /// a `predict_many` batch.
    pub fn lookup_count(&self) -> u64 {
        self.shared.metrics.lookups.get()
    }

    /// Lookups resolved by executing a model against fresh data.
    pub fn fresh_fetch_count(&self) -> u64 {
        self.shared.metrics.fresh_fetches.get()
    }

    /// Lookups resolved against stale (grace-window) disk data.
    pub fn stale_serve_count(&self) -> u64 {
        self.shared.metrics.stale_serves.get()
    }

    /// Store-pull retries performed beyond first attempts.
    pub fn retry_count(&self) -> u64 {
        self.shared.metrics.retries.get()
    }

    /// Corrupt or undecodable payloads skipped (store pulls and disk
    /// entries).
    pub fn corrupt_payload_count(&self) -> u64 {
        self.shared.metrics.corrupt_payloads.get()
    }

    /// Fetched model payloads rejected by the pre-swap sanity check
    /// (checksum mismatch, wrong model in the slot, non-finite outputs).
    /// Each rejection left the previously resident model serving.
    pub fn model_rejected_count(&self) -> u64 {
        self.shared.metrics.model_rejected.get()
    }

    /// Payloads a manifest load named but the store did not return. A
    /// missing model left the previously resident one serving; a missing
    /// feature record left its subscription without data until the next
    /// load.
    pub fn unfetched_payload_count(&self) -> u64 {
        self.shared.metrics.unfetched_payloads.get()
    }

    /// The manifest version the resident caches were loaded through;
    /// `None` until a store read finds one.
    pub fn manifest_version(&self) -> Option<u64> {
        self.shared.serve.with(|s| s.manifest.as_ref().map(|m| m.version))
    }

    /// Per-key circuit breakers currently open.
    pub fn open_breaker_count(&self) -> usize {
        self.shared.breakers.open_count()
    }

    /// Handle for observing this client's background worker threads; it
    /// outlives every facade, so callers can verify the workers exited
    /// after the last clone dropped.
    pub fn worker_lifecycle(&self) -> WorkerLifecycle {
        WorkerLifecycle(self.shared.live_workers.clone())
    }

    /// Background cache refreshes performed by the push watcher.
    pub fn background_refresh_count(&self) -> u64 {
        self.shared.metrics.background_refreshes.get()
    }

    /// Blocks until the pull worker has completed every admitted refresh
    /// (test helper).
    pub fn drain_pull_queue(&self) {
        if let Some(q) = &self.shared.admission {
            q.wait_idle();
        }
    }
}

/// Decrements the live-worker count when a background thread exits, even
/// if the worker body panics.
struct WorkerGuard(Arc<Shared>);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::SeqCst);
        self.0.metrics.workers_stopped.increment();
    }
}

impl Clone for RcClient {
    fn clone(&self) -> Self {
        self.shared.facades.fetch_add(1, Ordering::SeqCst);
        RcClient { shared: self.shared.clone() }
    }
}

impl Drop for RcClient {
    fn drop(&mut self) {
        // Exactly one facade observes the count reach zero, however many
        // clones drop concurrently; that facade owns shutdown.
        if self.shared.facades.fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(q) = &self.shared.admission {
            q.close();
        }
        // Join the workers so "drop the last facade" deterministically
        // means "no client threads remain". Workers never own a facade,
        // so this cannot self-join.
        let handles = std::mem::take(&mut *self.shared.worker_handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// The push watcher: polls the store's version fingerprint and refreshes
/// the caches when RC publishes something new.
fn push_watcher(shared: Arc<Shared>, interval: StdDuration) {
    let step = StdDuration::from_millis(20).min(interval);
    let mut elapsed = StdDuration::ZERO;
    loop {
        std::thread::sleep(step);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        elapsed += step;
        if elapsed < interval {
            continue;
        }
        elapsed = StdDuration::ZERO;
        if !shared.initialized.load(Ordering::SeqCst) || !shared.backend.is_available() {
            continue;
        }
        let current = rc_store::fingerprint(shared.backend.as_ref());
        if current != shared.store_fingerprint.load(Ordering::SeqCst)
            && load_from_store_shared(&shared)
        {
            shared.results.clear();
            shared.metrics.background_refreshes.increment();
        }
    }
}

/// Executes a model synchronously against cached feature data.
///
/// One epoch pin covers the whole resolution: model, feature record,
/// staleness, and generation all come from the same snapshot, so a
/// concurrent publish can never mix versions within one call. Feature
/// assembly and the model run outside the pin, on the stack, against the
/// two `Arc`s cloned under it — a miss allocates nothing.
fn execute(shared: &Shared, model_name: &str, inputs: &ClientInputs) -> Option<Executed> {
    let metrics = &shared.metrics;
    let resolved = shared.serve.with(|snap| {
        let model = match snap.models.get(model_name) {
            Some(m) => {
                metrics.model_cache_hits.increment();
                m.clone()
            }
            None => {
                metrics.model_cache_misses.increment();
                return None;
            }
        };
        let sub = match snap.features.get(&inputs.subscription) {
            Some(sub) => {
                metrics.feature_cache_hits.increment();
                sub.clone()
            }
            None => {
                metrics.feature_cache_misses.increment();
                return None;
            }
        };
        let stale = snap.stale_models.contains(model_name)
            || snap.stale_subs.contains(&inputs.subscription);
        Some((model, sub, snap.generation, stale))
    });
    let (model, sub, generation, stale) = resolved?;
    metrics.model_execs.increment();
    Some(Executed { prediction: model.predict_for(inputs, &sub), generation, stale })
}

/// Synchronous pull: makes the model and the subscription's feature
/// record resident (store → retry/backoff → disk fallback), then
/// executes. `None` when every rung of the ladder failed.
fn resolve_sync(shared: &Shared, model_name: &str, inputs: &ClientInputs) -> Option<Executed> {
    if shared.serve.with(|s| !s.models.contains_key(model_name)) {
        resilient_fetch_model(shared, model_name)?;
    }
    if shared.serve.with(|s| !s.features.contains_key(&inputs.subscription))
        && !resilient_fetch_features(shared, inputs.subscription)
    {
        return None;
    }
    execute(shared, model_name, inputs)
}

/// Writes one resolved prediction into the result cache.
fn fill_result(shared: &Shared, key: u64, prediction: Prediction) {
    let evicted = shared.results.insert(key, prediction);
    shared.metrics.result_insertions.increment();
    if evicted {
        shared.metrics.result_evictions.increment();
    }
}

/// Hands a pull-mode miss to the admission queue and counts how it
/// resolved.
fn submit_refresh(shared: &Shared, model_name: &str, inputs: &ClientInputs, key: u64) {
    let Some(q) = &shared.admission else {
        return;
    };
    let counter = match q.submit(model_name, inputs, key) {
        SubmitOutcome::Enqueued => &shared.metrics.admission_enqueued,
        SubmitOutcome::Coalesced => &shared.metrics.admission_coalesced,
        SubmitOutcome::Rejected => &shared.metrics.admission_rejected,
    };
    counter.increment();
}

/// The pull-mode background worker: resolves each admitted refresh
/// through the synchronous-pull path and fills the result cache, until
/// the queue is closed and drained.
fn pull_worker(shared: Arc<Shared>) {
    let Some(q) = shared.admission.as_ref() else {
        return;
    };
    while let Some((model_name, inputs, key)) = q.next() {
        if let Some(executed) = resolve_sync(&shared, &model_name, &inputs) {
            fill_result(&shared, key, executed.prediction);
        }
        q.complete(key);
    }
}

/// How one resilient store pull resolved.
enum FetchOutcome<T> {
    /// The store answered with a payload that decoded.
    Data(T),
    /// The store answered authoritatively: the key does not exist. Not a
    /// failure — no retry, no disk fallback.
    NotFound,
    /// Every attempt failed (unavailability, transient errors, corrupt
    /// payloads, breaker rejection): time for the next ladder rung.
    Failed,
}

/// One resilient store pull: circuit-breaker admission, then up to
/// `retry.max_attempts` tries under `retry.call_deadline`, with jittered
/// exponential backoff between tries. A payload that fails `decode` is a
/// corrupt payload — counted and retried (the corruption may be
/// per-request; the next pull can return a clean copy).
fn resilient_get<T>(
    shared: &Shared,
    key: &str,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> FetchOutcome<T> {
    if shared.breakers.admit(key) == Admission::Reject {
        return FetchOutcome::Failed;
    }
    let policy = &shared.config.retry;
    let start = Instant::now();
    let mut attempt = 0;
    loop {
        attempt += 1;
        match shared.backend.get_latest(key) {
            // A reply that arrives after the per-call deadline has already
            // blown (e.g. a latency spike sat on the wire longer than the
            // caller will wait) is a *failure*, not data: the attempt
            // counts against the circuit breaker like any other timeout.
            Ok(_) if start.elapsed() >= policy.call_deadline => {}
            Ok(rec) => match decode(&rec.data) {
                Some(value) => {
                    shared.breakers.record(key, true);
                    maybe_clear_degraded(shared);
                    return FetchOutcome::Data(value);
                }
                None => note_corrupt(shared),
            },
            Err(err) if !err.is_retryable() => {
                // The store answered; the key just isn't there.
                shared.breakers.record(key, true);
                return FetchOutcome::NotFound;
            }
            Err(_) => {}
        }
        if attempt >= policy.max_attempts {
            break;
        }
        let backoff = shared.jitter.backoff(policy, attempt);
        if start.elapsed() + backoff >= policy.call_deadline {
            break;
        }
        shared.metrics.retries.increment();
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
    }
    shared.breakers.record(key, false);
    FetchOutcome::Failed
}

/// The manifest the on-demand paths resolve keys through: the cached one
/// when a load already read it, else one resilient pull of the pointer
/// record. `None` when the store has no manifest or is unreachable —
/// callers then use the flat logical keys directly.
fn cached_manifest(shared: &Shared) -> Option<Manifest> {
    if let Some(m) = shared.serve.with(|s| s.manifest.clone()) {
        return Some(m);
    }
    match resilient_get(shared, MANIFEST_KEY, Manifest::from_bytes) {
        FetchOutcome::Data(m) => {
            publish_serve(shared, |s| s.manifest = Some(m.clone()));
            Some(m)
        }
        FetchOutcome::NotFound | FetchOutcome::Failed => None,
    }
}

/// Fetches and caches a model: store (with retry/backoff/breaker), then
/// the disk cache (fresh first, stale within the grace window). When the
/// store publishes a manifest, the pull goes to the manifest's versioned
/// key and the payload must pass [`validate_model_payload`] — a poisoned
/// payload is rejected without touching the resident model.
fn resilient_fetch_model(shared: &Shared, model_name: &str) -> Option<Arc<TrainedModel>> {
    let logical = format!("model/{model_name}");
    let manifest = cached_manifest(shared);
    let entry = manifest.as_ref().and_then(|m| m.model_entry(&logical).cloned());
    // A manifest entry directs the pull to its versioned key; names the
    // manifest does not list (out-of-band models, quarantined metrics)
    // fall back to the flat logical key, as does a client that could not
    // read the manifest.
    let key = match (&manifest, &entry) {
        (Some(m), Some(e)) => m.versioned_key(&e.key),
        _ => logical.clone(),
    };
    let decode = |bytes: &[u8]| match &entry {
        Some(e) => match validate_model_payload(bytes, e, model_name) {
            Some(model) => Some((model, bytes.to_vec())),
            None => {
                note_rejected(shared, model_name);
                None
            }
        },
        None => rc_ml::from_bytes::<TrainedModel>(bytes).ok().map(|m| (m, bytes.to_vec())),
    };
    match resilient_get(shared, &key, decode) {
        FetchOutcome::Data((model, bytes)) => {
            let model = Arc::new(model);
            publish_serve(shared, |s| {
                s.models.insert(model_name.to_string(), model.clone());
                s.stale_models.remove(model_name);
            });
            if shared.config.disk_write_through {
                if let Some(disk) = &shared.disk {
                    // Disk entries key by the *logical* name so a cached
                    // copy survives version flips and serves as the
                    // fallback whatever version published it.
                    let _ = disk.save("model", &logical, &bytes);
                }
            }
            Some(model)
        }
        FetchOutcome::NotFound => None,
        FetchOutcome::Failed => {
            // Only an actual fall-back to the local disk counts toward
            // `store_fallbacks`; a successful store pull is the normal
            // pull-mode path, not a fallback.
            shared.metrics.store_fallbacks.increment();
            let (bytes, stale) = disk_fallback(shared, "model", &logical)?;
            install_disk_model(shared, model_name, &bytes, stale)
        }
    }
}

/// Decodes a disk-cache model payload and makes it resident, tracking
/// whether it is stale-grace data.
fn install_disk_model(
    shared: &Shared,
    model_name: &str,
    bytes: &[u8],
    stale: bool,
) -> Option<Arc<TrainedModel>> {
    let model = match rc_ml::from_bytes::<TrainedModel>(bytes) {
        Ok(model) => Arc::new(model),
        Err(_) => {
            note_corrupt(shared);
            return None;
        }
    };
    publish_serve(shared, |s| {
        s.models.insert(model_name.to_string(), model.clone());
        if stale {
            s.stale_models.insert(model_name.to_string());
        } else {
            s.stale_models.remove(model_name);
        }
    });
    let mut span = rc_obs::global_tracer().span("client.disk_cache_recovery");
    span.record("model", model_name);
    span.finish();
    Some(model)
}

/// Fetches and caches one subscription's feature data, with the same
/// ladder as [`resilient_fetch_model`].
fn resilient_fetch_features(shared: &Shared, sub: SubscriptionId) -> bool {
    let logical = feature_store_key(sub);
    let manifest = cached_manifest(shared);
    let entry = manifest.as_ref().and_then(|m| m.feature_entry(&logical).cloned());
    let key = match (&manifest, &entry) {
        (Some(m), Some(e)) => m.versioned_key(&e.key),
        _ => logical.clone(),
    };
    let decode = |bytes: &[u8]| {
        if let Some(e) = &entry {
            if checksum(bytes) != e.checksum {
                return None;
            }
        }
        serde_json::from_slice::<SubscriptionFeatures>(bytes).ok()
    };
    match resilient_get(shared, &key, decode) {
        FetchOutcome::Data(features) => {
            if shared.config.disk_write_through {
                if let Some(disk) = &shared.disk {
                    if let Ok(blob) = serde_json::to_vec(&features) {
                        let _ = disk.save("features", &logical, &blob);
                    }
                }
            }
            let features = Arc::new(features);
            publish_serve(shared, |s| {
                s.features.insert(sub, features);
                s.stale_subs.remove(&sub);
            });
            true
        }
        FetchOutcome::NotFound => false,
        FetchOutcome::Failed => {
            shared.metrics.store_fallbacks.increment();
            let Some((bytes, stale)) = disk_fallback(shared, "features", &logical) else {
                return false;
            };
            // Like a disk model, a disk record is checked by its own
            // frame, not against the current manifest: it may be an
            // older version's copy, which is still a good fallback.
            let Ok(features) = serde_json::from_slice::<SubscriptionFeatures>(&bytes) else {
                note_corrupt(shared);
                return false;
            };
            let features = Arc::new(features);
            publish_serve(shared, |s| {
                s.features.insert(sub, features);
                if stale {
                    s.stale_subs.insert(sub);
                } else {
                    s.stale_subs.remove(&sub);
                }
            });
            true
        }
    }
}

/// The disk rung of the ladder: a fresh entry if there is one, else a
/// stale entry within the grace window. Returns the payload and whether
/// it was stale; records recovery metrics and the degraded mark.
fn disk_fallback(shared: &Shared, kind: &str, key: &str) -> Option<(Vec<u8>, bool)> {
    let disk = shared.disk.as_ref()?;
    let (bytes, stale) = match disk.load_graced(kind, key, shared.config.stale_grace) {
        DiskLoadResult::Fresh(bytes) => (bytes, false),
        DiskLoadResult::Stale(bytes) => (bytes, true),
        DiskLoadResult::Corrupt => {
            note_corrupt(shared);
            return None;
        }
        DiskLoadResult::Expired | DiskLoadResult::Missing => return None,
    };
    shared.metrics.disk_recoveries.increment();
    note_degraded(
        shared,
        if stale { DegradedReason::StaleData } else { DegradedReason::DiskFallback },
    );
    Some((bytes, stale))
}
