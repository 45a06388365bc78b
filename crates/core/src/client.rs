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
//! - **pull**: a result-cache miss fetches the model and the
//!   subscription's feature record on demand, installs them, and then
//!   executes the model, so the call answers a prediction (or the
//!   default when every rung of the ladder below fails) and a later
//!   identical request hits the cache.
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
//!
//! Models and feature records climb that ladder through one path: a
//! private `Payload` trait holds what differs by kind (store key,
//! manifest entry, decode and sanity check, resident map, disk kind, the
//! counter a rejection moves), and the fetch, verify, install and disk
//! read steps are each written once over it.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant, SystemTime};

use parking_lot::{Mutex, RwLock};

use rc_obs::{Counter, Gauge, Histogram};
use rc_store::{checksum, Manifest, Store, StoreBackend, VersionedRecord, MANIFEST_KEY};
use rc_types::vm::SubscriptionId;

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
    /// §4.2's pull mode: models and feature data are fetched on demand.
    /// A result-cache miss fetches the model and the subscription's
    /// feature record through the resilient path (retry + breaker + disk
    /// fallback), then executes, and resolves to a prediction or the
    /// default in one call. The mode the chaos suite exercises.
    Pull,
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
    /// `force_reload_cache` still refreshes on demand. A zero interval
    /// panics at construction.
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
/// membership — published together as one `Arc` behind [`Shared::serve`].
///
/// A reader resolves everything it needs under one short read section
/// (a pointer's worth of work: map lookups and `Arc` clones), so model,
/// feature record, staleness, and generation all come from the *same*
/// snapshot and a concurrent publish can never mix versions within one
/// prediction (no torn reads). Writers clone the current snapshot under
/// [`Shared::serve_write`], mutate the copy with no lock readers wait on,
/// and take the write lock only to swap the pointer.
#[derive(Clone, Default)]
struct ServeSnapshot {
    models: Resident<TrainedModel>,
    /// Per-subscription feature records, individually `Arc`ed so cloning
    /// the snapshot (and refreshing one subscription) copies pointers,
    /// not feature payloads.
    features: Resident<SubscriptionFeatures>,
    /// The publish manifest the resident caches were loaded through;
    /// directs on-demand fetches to the right version and carries the
    /// checksums payloads are verified against. `None` until a store read
    /// finds one (a disk-loaded client starts without).
    manifest: Option<Manifest>,
}

/// One payload kind's resident values, and which of them are stale disk
/// data. A load replaces both together.
#[derive(Clone)]
struct Resident<P: Payload> {
    values: HashMap<P::Key, Arc<P>>,
    stale: HashSet<P::Key>,
}

impl<P: Payload> Default for Resident<P> {
    fn default() -> Self {
        Resident { values: HashMap::new(), stale: HashSet::new() }
    }
}

impl<P: Payload> Resident<P> {
    /// The one install step: puts `value` in and marks it stale or fresh.
    fn install(&mut self, key: P::Key, value: Arc<P>, stale: bool) {
        if stale {
            self.stale.insert(key.clone());
        } else {
            self.stale.remove(&key);
        }
        self.values.insert(key, value);
    }
}

/// What differs between the two payload kinds the client serves: a model
/// and a subscription's feature record. The on-demand ladder ([`fetch`]),
/// the verify step ([`verify`]), the install step ([`Resident::install`])
/// and the disk read ([`read_disk`]) are written once over it.
trait Payload: Sized {
    /// The resident map's key: a model name or a subscription.
    type Key: Eq + Hash + Clone;
    /// The disk-cache kind the payload is mirrored under.
    const DISK_KIND: &'static str;

    /// The flat logical store key; it also names the manifest entry and
    /// the disk-cache entry.
    fn logical_key(key: &Self::Key) -> String;

    /// The checksum the manifest records for `logical`, if it lists it.
    fn listed_sum(manifest: &Manifest, logical: &str) -> Option<u64>;

    /// Decodes one payload. A payload `checked` against the manifest
    /// entry for that logical key also passes the kind's sanity check.
    fn decode(bytes: &[u8], checked: Option<&str>) -> Option<Self>;

    /// Counts one payload that failed verification against its manifest
    /// entry. An `on_demand` pull also counts it corrupt, in
    /// [`resilient_get`].
    fn note_rejected(shared: &Shared, logical: &str, on_demand: bool);

    /// The kind's resident values in a serve snapshot.
    fn resident(snap: &mut ServeSnapshot) -> &mut Resident<Self>;

    /// Notes a value the on-demand ladder installed from the disk cache.
    fn note_disk_install(_key: &Self::Key) {}
}

impl Payload for TrainedModel {
    type Key = String;
    const DISK_KIND: &'static str = "model";

    fn logical_key(name: &String) -> String {
        format!("model/{name}")
    }

    fn listed_sum(manifest: &Manifest, logical: &str) -> Option<u64> {
        manifest.model_entry(logical).map(|e| e.checksum)
    }

    /// A checked model must be the model its manifest slot names and
    /// produce finite outputs on a probe batch.
    fn decode(bytes: &[u8], checked: Option<&str>) -> Option<Self> {
        let model = rc_ml::from_bytes::<TrainedModel>(bytes).ok()?;
        if let Some(logical) = checked {
            if model.spec.metric.model_name() != logical.trim_start_matches("model/") {
                return None;
            }
            let n = model.spec.n_features();
            for probe in [vec![0.0; n], vec![0.5; n]] {
                let (_, score) = rc_ml::Classifier::predict(&model, &probe);
                if !score.is_finite() {
                    return None;
                }
            }
        }
        Some(model)
    }

    /// Poisoned-model containment: a rejected model never replaces the
    /// resident one.
    fn note_rejected(shared: &Shared, logical: &str, _on_demand: bool) {
        shared.metrics.model_rejected.increment();
        let mut span = rc_obs::global_tracer().span("client.model_rejected");
        span.record("model", logical.trim_start_matches("model/"));
        span.finish();
    }

    fn resident(snap: &mut ServeSnapshot) -> &mut Resident<Self> {
        &mut snap.models
    }

    fn note_disk_install(name: &String) {
        let mut span = rc_obs::global_tracer().span("client.disk_cache_recovery");
        span.record("model", name.as_str());
        span.finish();
    }
}

impl Payload for SubscriptionFeatures {
    type Key = SubscriptionId;
    const DISK_KIND: &'static str = "features";

    fn logical_key(sub: &SubscriptionId) -> String {
        feature_store_key(*sub)
    }

    fn listed_sum(manifest: &Manifest, logical: &str) -> Option<u64> {
        manifest.feature_entry(logical).map(|e| e.checksum)
    }

    fn decode(bytes: &[u8], _checked: Option<&str>) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
    }

    /// A rejected record is a corrupt payload, counted once: on demand,
    /// [`resilient_get`] counts it.
    fn note_rejected(shared: &Shared, _logical: &str, on_demand: bool) {
        if !on_demand {
            shared.metrics.corrupt_payloads.increment();
        }
    }

    fn resident(snap: &mut ServeSnapshot) -> &mut Resident<Self> {
        &mut snap.features
    }
}

/// Publishes the next serve snapshot: clone the current one, apply
/// `mutate`, swap it in and bump the generation. Writers serialize on
/// `serve_write` so concurrent publishes never lose each other's updates,
/// and so no writer is ever waiting while the copy is taken: readers
/// keep resolving against the previous snapshot until the swap. The
/// write lock covers only the pointer swap and the generation bump; the
/// replaced snapshot is dropped after it, and freed with its last
/// reader's clone.
fn publish_serve(shared: &Shared, mutate: impl FnOnce(&mut ServeSnapshot)) {
    let _write = shared.serve_write.lock();
    let mut next = ServeSnapshot::clone(&shared.serve.read());
    mutate(&mut next);
    let _replaced = {
        let mut serve = shared.serve.write();
        shared.generation.fetch_add(1, Ordering::Release);
        std::mem::replace(&mut *serve, Arc::new(next))
    };
    shared.metrics.serve_publishes.increment();
    shared.metrics.serve_generation.set(shared.generation() as f64);
}

/// A prediction resolved against one serve snapshot, plus the
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
    /// The current serve snapshot; see [`ServeSnapshot`]. Readers hold
    /// the read lock only while they resolve against it.
    serve: RwLock<Arc<ServeSnapshot>>,
    /// Monotone publish count, bumped under `serve`'s write lock.
    /// Responses attribute to the generation they resolved against (the
    /// swap-race regression test's oracle): a miss reads it inside its
    /// read section, where the lock ties it to the snapshot being read; a
    /// cache hit or default reads it without a lock. It publishes no
    /// other data: the `Release` bump and `Acquire` loads only keep each
    /// reader's sequence of generations monotone.
    generation: AtomicU64,
    /// Serializes snapshot publishes (loads, refreshes, on-demand
    /// fetches — all rare). The predict path never touches it.
    serve_write: Mutex<()>,
    results: ShardedResultCache,
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

impl Shared {
    /// Runs `f` against the current serve snapshot, under one read
    /// section.
    #[inline]
    fn with_serve<R>(&self, f: impl FnOnce(&ServeSnapshot) -> R) -> R {
        f(&self.serve.read())
    }

    /// The generation of the current serve snapshot. Lock-free; read
    /// inside [`Shared::with_serve`] it is the generation of the snapshot
    /// being read.
    #[inline]
    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
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
/// assert the push watcher actually exited instead of leaking.
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
    ///
    /// # Panics
    ///
    /// Panics when `config.result_cache_capacity == 0`, and when
    /// `config.auto_refresh_interval` is `Some(Duration::ZERO)`: a zero
    /// interval would make the push watcher fingerprint the store in a
    /// loop that never sleeps.
    pub fn with_backend(backend: Arc<dyn StoreBackend>, config: ClientConfig) -> Self {
        assert!(
            config.auto_refresh_interval != Some(StdDuration::ZERO),
            "auto_refresh_interval must be positive"
        );
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
        let shared = Arc::new(Shared {
            backend,
            results,
            config,
            serve: RwLock::new(Arc::default()),
            generation: AtomicU64::new(0),
            serve_write: Mutex::new(()),
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

        if let Some(interval) = shared.config.auto_refresh_interval {
            spawn_worker(&shared, "rc-push-watcher", move |s| push_watcher(s, interval));
        }

        RcClient { shared }
    }

    /// Table 2: `initialize`. Loads models (and, in push mode, all feature
    /// data) from the store, falling back to a fresh disk cache when the
    /// store is unavailable. Returns `true` when at least one model is
    /// ready to serve.
    pub fn initialize(&self) -> bool {
        let loaded = load_from_store(&self.shared) || {
            let recovered = self.load_from_disk();
            if recovered {
                self.shared.metrics.disk_recoveries.increment();
                let mut span = rc_obs::global_tracer().span("client.disk_cache_recovery");
                span.record("models", self.shared.with_serve(|s| s.models.values.len()) as u64);
                span.finish();
            }
            recovered
        };
        self.shared.initialized.store(loaded, Ordering::SeqCst);
        loaded
    }
}

/// Loads the version the store's publish manifest names: its models and,
/// in push mode, all its feature data. A store without a readable manifest
/// has nothing to load. Free function so the push watcher can call it
/// without constructing a facade.
fn load_from_store(shared: &Shared) -> bool {
    let store = shared.backend.as_ref();
    if !store.is_available() {
        return false;
    }
    // Fingerprint before the manifest read: a publish that lands during
    // the load then still differs from the saved fingerprint, and the push
    // watcher reloads it.
    let fingerprint = rc_store::fingerprint(store);
    let Some(manifest) =
        store.get_latest(MANIFEST_KEY).ok().and_then(|rec| Manifest::from_bytes(&rec.data))
    else {
        return false;
    };
    let mut models = Resident::default();
    for entry in &manifest.models {
        let name = entry.key.trim_start_matches("model/").to_string();
        let fetched = load_one::<TrainedModel>(shared, &manifest, &entry.key, entry.checksum).map(
            |(model, rec)| {
                if let Some(disk) = write_through_disk(shared) {
                    let _ = disk.save(TrainedModel::DISK_KIND, &entry.key, &rec.data);
                }
                Arc::new(model)
            },
        );
        // Containment: a rejected (or unfetchable) payload never replaces
        // a resident model — the old one keeps serving.
        if let Some(model) =
            fetched.or_else(|| shared.with_serve(|s| s.models.values.get(&name).cloned()))
        {
            models.install(name, model, false);
        }
    }
    if models.values.is_empty() {
        return false;
    }
    let push = shared.config.mode == CacheMode::Push;
    let mut features = Resident::default();
    if push {
        for entry in &manifest.features {
            if let Some((f, _)) =
                load_one::<SubscriptionFeatures>(shared, &manifest, &entry.key, entry.checksum)
            {
                features.install(f.subscription, Arc::new(f), false);
            }
        }
        // A push load mirrors every record as one `features/all` blob.
        if let Some(disk) = write_through_disk(shared) {
            let records: Vec<&SubscriptionFeatures> =
                features.values.values().map(|f| f.as_ref()).collect();
            if let Ok(blob) = serde_json::to_vec(&records) {
                let _ = disk.save(SubscriptionFeatures::DISK_KIND, "all", &blob);
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
    // caches are fresh again. Pull mode starts the new version with no
    // feature records and fetches each on demand.
    publish_serve(shared, |s| {
        s.models = models;
        s.features = features;
        s.manifest = Some(manifest);
    });
    if push {
        *shared.degraded.lock() = None;
    } else {
        maybe_clear_degraded(shared);
    }
    shared.store_fingerprint.store(fingerprint, Ordering::SeqCst);
    true
}

/// One payload of a bulk load: a plain store read of the manifest's
/// versioned key (the next load is the retry), then [`verify`]. `None`
/// when the store did not return it (counted as unfetched) or it failed
/// verification.
fn load_one<P: Payload>(
    shared: &Shared,
    manifest: &Manifest,
    logical: &str,
    expected: u64,
) -> Option<(P, VersionedRecord)> {
    let Ok(rec) = shared.backend.get_latest(&manifest.versioned_key(logical)) else {
        shared.metrics.unfetched_payloads.increment();
        return None;
    };
    let value = verify::<P>(shared, &rec.data, logical, Some(expected), false)?;
    Some((value, rec))
}

/// The one verify step, for the on-demand pull and both loops of a bulk
/// load: the checksum against the manifest entry when there is one, then
/// the kind's decode, sanity-checked when there was an entry. A payload
/// that fails against its entry is counted by its kind.
fn verify<P: Payload>(
    shared: &Shared,
    bytes: &[u8],
    logical: &str,
    expected: Option<u64>,
    on_demand: bool,
) -> Option<P> {
    let Some(sum) = expected else {
        return P::decode(bytes, None);
    };
    let value = if checksum(bytes) == sum { P::decode(bytes, Some(logical)) } else { None };
    if value.is_none() {
        P::note_rejected(shared, logical, on_demand);
    }
    value
}

/// The disk cache fetched payloads are mirrored to, when write-through
/// is on.
fn write_through_disk(shared: &Shared) -> Option<&DiskCache> {
    shared.disk.as_ref().filter(|_| shared.config.disk_write_through)
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
        && shared.with_serve(|s| s.models.stale.is_empty() && s.features.stale.is_empty())
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
        let mut models = Resident::default();
        // `list` returns the original store keys (e.g. "model/VM_P95UTIL")
        // thanks to the disk cache's lossless name escaping.
        for name in disk.list(TrainedModel::DISK_KIND) {
            let Some((bytes, stale)) = read_disk(shared, TrainedModel::DISK_KIND, &name) else {
                continue;
            };
            if let Some(model) = decode_disk::<TrainedModel>(shared, &bytes) {
                models.install(model.spec.metric.model_name().to_string(), Arc::new(model), stale);
            }
        }
        if models.values.is_empty() {
            return false;
        }
        let mut features = Resident::default();
        let blob = read_disk(shared, SubscriptionFeatures::DISK_KIND, "all");
        if let Some((blob, stale)) = &blob {
            match serde_json::from_slice::<Vec<SubscriptionFeatures>>(blob) {
                Ok(records) => {
                    for f in records {
                        features.install(f.subscription, Arc::new(f), *stale);
                    }
                }
                Err(_) => shared.metrics.corrupt_payloads.increment(),
            }
        }
        if !models.stale.is_empty() || blob.is_some_and(|(_, stale)| stale) {
            note_degraded(shared, DegradedReason::StaleData);
        }
        publish_serve(shared, |s| {
            s.models = models;
            s.features = features;
        });
        true
    }

    /// Table 2: `get_available_models`.
    pub fn get_available_models(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.shared.with_serve(|s| s.models.values.keys().cloned().collect());
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
    /// snapshot that supplied both the model and the feature
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
            return (self.no_prediction(), Served::Default, self.shared.generation());
        }
        let key = inputs.cache_key(model_name);
        if let Some(hit) = self.shared.results.get(key) {
            metrics.result_hits.increment();
            metrics.predictions.increment();
            metrics.hit_latency.record_duration(start.elapsed());
            return (PredictionResponse::Predicted(hit), Served::Hit, self.shared.generation());
        }
        metrics.result_misses.increment();
        let resolved = match self.shared.config.mode {
            CacheMode::Push => execute(&self.shared, model_name, inputs),
            CacheMode::Pull => resolve_sync(&self.shared, model_name, inputs),
        };
        let (response, served, generation) = match resolved {
            Some(executed) => {
                fill_result(&self.shared, key, executed.prediction);
                let served = self.count_serve_stale(executed.stale);
                metrics.predictions.increment();
                (PredictionResponse::Predicted(executed.prediction), served, executed.generation)
            }
            None => (self.no_prediction(), Served::Default, self.shared.generation()),
        };
        metrics.miss_latency.record_duration(start.elapsed());
        (response, served, generation)
    }

    /// Classifies (and counts) one served lookup as fresh or stale. The
    /// staleness flag comes from the same snapshot that resolved the
    /// prediction, so no extra lock is taken here.
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
        if load_from_store(&self.shared) {
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
            s.models = Resident::default();
            s.features = Resident::default();
            s.manifest = None;
        });
        self.shared.results.clear();
        if let Some(disk) = &self.shared.disk {
            disk.flush();
        }
        self.shared.breakers.reset();
        *self.shared.degraded.lock() = None;
        self.shared.initialized.store(false, Ordering::SeqCst);
    }

    /// True when [`RcClient::health`] would report
    /// [`ClientHealth::Offline`]: one atomic load, no lock taken.
    pub fn is_offline(&self) -> bool {
        !self.shared.initialized.load(Ordering::SeqCst)
    }

    /// The health probe (§4.3): `Offline` when uninitialized or flushed
    /// (every lookup answers the default — schedulers should take their
    /// conservative no-prediction path without asking), `Degraded` while
    /// serving from fallbacks (stale data, disk, open breakers), else
    /// `Healthy`.
    pub fn health(&self) -> ClientHealth {
        if self.is_offline() {
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
    /// serve snapshot, so a concurrent publish can never make the
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
        let resolved = self.shared.with_serve(|snap| {
            let sub = snap.features.values.get(&inputs.subscription).cloned();
            let model = snap.models.values.get(model_name).cloned();
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
        self.shared.with_serve(|s| s.manifest.as_ref().map(|m| m.version))
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
}

/// Starts one background worker thread. The last facade to drop joins it.
fn spawn_worker(shared: &Arc<Shared>, name: &str, body: impl FnOnce(Arc<Shared>) + Send + 'static) {
    let worker_shared = shared.clone();
    worker_shared.live_workers.fetch_add(1, Ordering::SeqCst);
    worker_shared.metrics.workers_started.increment();
    let handle = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let _guard = WorkerGuard(worker_shared.clone());
            body(worker_shared);
        })
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    shared.worker_handles.lock().push(handle);
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
        if current != shared.store_fingerprint.load(Ordering::SeqCst) && load_from_store(&shared) {
            shared.results.clear();
            shared.metrics.background_refreshes.increment();
        }
    }
}

/// Executes a model synchronously against cached feature data.
///
/// One read section covers the whole resolution: model, feature record,
/// staleness, and generation all come from the same snapshot, so a
/// concurrent publish can never mix versions within one call. Feature
/// assembly and the model run after the section, on the stack, against
/// the two `Arc`s cloned in it — a miss allocates nothing.
fn execute(shared: &Shared, model_name: &str, inputs: &ClientInputs) -> Option<Executed> {
    let metrics = &shared.metrics;
    let resolved = shared.with_serve(|snap| {
        let model = match snap.models.values.get(model_name) {
            Some(m) => {
                metrics.model_cache_hits.increment();
                m.clone()
            }
            None => {
                metrics.model_cache_misses.increment();
                return None;
            }
        };
        let sub = match snap.features.values.get(&inputs.subscription) {
            Some(sub) => {
                metrics.feature_cache_hits.increment();
                sub.clone()
            }
            None => {
                metrics.feature_cache_misses.increment();
                return None;
            }
        };
        let stale = snap.models.stale.contains(model_name)
            || snap.features.stale.contains(&inputs.subscription);
        Some((model, sub, shared.generation(), stale))
    });
    let (model, sub, generation, stale) = resolved?;
    metrics.model_execs.increment();
    Some(Executed { prediction: model.predict_for(inputs, &sub), generation, stale })
}

/// Pull mode's miss path: makes the model and the subscription's feature
/// record resident (store → retry/backoff → disk fallback), then
/// executes. `None` when every rung of the ladder failed.
fn resolve_sync(shared: &Shared, model_name: &str, inputs: &ClientInputs) -> Option<Executed> {
    if shared.with_serve(|s| !s.models.values.contains_key(model_name))
        && !fetch::<TrainedModel>(shared, &model_name.to_string())
    {
        return None;
    }
    if shared.with_serve(|s| !s.features.values.contains_key(&inputs.subscription))
        && !fetch::<SubscriptionFeatures>(shared, &inputs.subscription)
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
                None => shared.metrics.corrupt_payloads.increment(),
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
    if let Some(m) = shared.with_serve(|s| s.manifest.clone()) {
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

/// The on-demand ladder, for either payload kind. The cached manifest
/// directs the pull to the entry's versioned key, [`resilient_get`] pulls
/// and [`verify`]s it, and the bytes the store returned are written
/// through to disk before the value is installed. When the pull fails,
/// the disk rung serves a fresh entry, else a stale one inside the grace
/// window, installed stale. `false` when the store has no such key or
/// every rung failed; a rejected payload never replaces a resident one.
fn fetch<P: Payload>(shared: &Shared, key: &P::Key) -> bool {
    let logical = P::logical_key(key);
    let manifest = cached_manifest(shared);
    let expected = manifest.as_ref().and_then(|m| P::listed_sum(m, &logical));
    // A manifest entry directs the pull to its versioned key; names the
    // manifest does not list (out-of-band models, quarantined metrics)
    // fall back to the flat logical key, as does a client that could not
    // read the manifest.
    let store_key = match (&manifest, expected) {
        (Some(m), Some(_)) => m.versioned_key(&logical),
        _ => logical.clone(),
    };
    let verified = |bytes: &[u8]| {
        verify::<P>(shared, bytes, &logical, expected, true).map(|value| (value, bytes.to_vec()))
    };
    let (value, stale) = match resilient_get(shared, &store_key, verified) {
        FetchOutcome::Data((value, bytes)) => {
            // Disk entries key by the *logical* name so a cached copy
            // survives version flips and serves as the fallback whatever
            // version published it.
            if let Some(disk) = write_through_disk(shared) {
                let _ = disk.save(P::DISK_KIND, &logical, &bytes);
            }
            (value, false)
        }
        FetchOutcome::NotFound => return false,
        FetchOutcome::Failed => {
            // Only an actual fall-back to the local disk counts toward
            // `store_fallbacks`; a successful store pull is the normal
            // pull-mode path, not a fallback.
            shared.metrics.store_fallbacks.increment();
            let Some((bytes, stale)) = read_disk(shared, P::DISK_KIND, &logical) else {
                return false;
            };
            shared.metrics.disk_recoveries.increment();
            note_degraded(
                shared,
                if stale { DegradedReason::StaleData } else { DegradedReason::DiskFallback },
            );
            let Some(value) = decode_disk::<P>(shared, &bytes) else {
                return false;
            };
            P::note_disk_install(key);
            (value, stale)
        }
    };
    let value = Arc::new(value);
    publish_serve(shared, |s| P::resident(s).install(key.clone(), value, stale));
    true
}

/// The one read of a disk-cache entry: fresh, or stale inside the grace
/// window (`true`). A torn entry counts as corrupt.
fn read_disk(shared: &Shared, kind: &str, name: &str) -> Option<(Vec<u8>, bool)> {
    match shared.disk.as_ref()?.load_graced(kind, name, shared.config.stale_grace) {
        DiskLoadResult::Fresh(bytes) => Some((bytes, false)),
        DiskLoadResult::Stale(bytes) => Some((bytes, true)),
        DiskLoadResult::Corrupt => {
            shared.metrics.corrupt_payloads.increment();
            None
        }
        DiskLoadResult::Expired | DiskLoadResult::Missing => None,
    }
}

/// Decodes a disk-cache payload. Its own frame is its check, not the
/// current manifest: an older version's copy is still a good fallback.
/// Undecodable bytes count as corrupt.
fn decode_disk<P: Payload>(shared: &Shared, bytes: &[u8]) -> Option<P> {
    let value = P::decode(bytes, None);
    if value.is_none() {
        shared.metrics.corrupt_payloads.increment();
    }
    value
}

#[cfg(test)]
mod tests {
    use std::sync::Weak;

    use rc_trace::{Trace, TraceConfig};

    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig};

    /// A replaced serve snapshot is released once no reader holds it: a
    /// model from version N stays alive while a reader still holds
    /// version N's snapshot, and is freed as soon as that reader lets go
    /// of it after the reload to version N+1.
    #[test]
    fn replaced_snapshot_is_released_once_no_reader_holds_it() {
        let trace = Trace::generate(&TraceConfig {
            target_vms: 3_000,
            n_subscriptions: 150,
            days: 18,
            ..TraceConfig::small()
        });
        let output = run_pipeline(&trace, &PipelineConfig::fast(18)).expect("pipeline");
        let store = Store::in_memory();
        output.publish(&store, 0.0).expect("publish version N");
        let client = RcClient::new(store.clone(), ClientConfig::default());
        assert!(client.initialize());
        let version = client.manifest_version().expect("loaded through a manifest");

        let model_of = |client: &RcClient| -> Weak<TrainedModel> {
            client.shared.with_serve(|s| Arc::downgrade(&s.models.values["VM_P95UTIL"]))
        };
        let old_model = model_of(&client);
        let reader = client.shared.serve.read().clone();

        output.publish(&store, 0.0).expect("publish version N+1");
        client.force_reload_cache();
        assert_eq!(client.manifest_version(), Some(version + 1));
        assert!(!Weak::ptr_eq(&old_model, &model_of(&client)), "the reload decoded a new model");
        assert!(old_model.upgrade().is_some(), "a reader still holds version N's snapshot");

        drop(reader);
        assert!(old_model.upgrade().is_none(), "version N's model outlived its last reader");
    }
}
