//! Canonical metric names.
//!
//! Every layer registers through these constants so bench binaries and
//! the README catalog never drift from the instrumented code. Naming
//! follows Prometheus conventions: `rc_<layer>_<what>[_<unit>]`,
//! histograms in nanoseconds suffixed `_ns`.

// --- rc-core client (predict path) ---

/// Predict-path latency when served from the result cache (histogram, ns).
pub const CLIENT_PREDICT_HIT_LATENCY_NS: &str = "rc_client_predict_hit_latency_ns";
/// Predict-path latency on a result-cache miss, including model
/// execution and any store traffic (histogram, ns).
pub const CLIENT_PREDICT_MISS_LATENCY_NS: &str = "rc_client_predict_miss_latency_ns";
/// Result-cache hits (counter).
pub const CLIENT_RESULT_CACHE_HITS: &str = "rc_client_result_cache_hits";
/// Result-cache misses (counter).
pub const CLIENT_RESULT_CACHE_MISSES: &str = "rc_client_result_cache_misses";
/// Result-cache insertions (counter).
pub const CLIENT_RESULT_CACHE_INSERTIONS: &str = "rc_client_result_cache_insertions";
/// Result-cache evictions (counter).
pub const CLIENT_RESULT_CACHE_EVICTIONS: &str = "rc_client_result_cache_evictions";
/// Model-cache hits: predict calls served by an already-resident model
/// (counter).
pub const CLIENT_MODEL_CACHE_HITS: &str = "rc_client_model_cache_hits";
/// Model-cache misses: model had to be fetched before predicting
/// (counter).
pub const CLIENT_MODEL_CACHE_MISSES: &str = "rc_client_model_cache_misses";
/// Feature-cache hits: the subscription's feature record was resident
/// (counter).
pub const CLIENT_FEATURE_CACHE_HITS: &str = "rc_client_feature_cache_hits";
/// Feature-cache misses: no feature record for the subscription
/// (counter).
pub const CLIENT_FEATURE_CACHE_MISSES: &str = "rc_client_feature_cache_misses";
/// Pull-mode model fetches whose store pull failed and fell back to the
/// local disk cache (counter). Successful store pulls do not count.
pub const CLIENT_STORE_FALLBACKS: &str = "rc_client_store_fallbacks";
/// Models recovered from the on-disk cache while the store was
/// unavailable (counter).
pub const CLIENT_DISK_CACHE_RECOVERIES: &str = "rc_client_disk_cache_recoveries";
/// Predict calls answered with "no prediction" (counter).
pub const CLIENT_NO_PREDICTIONS: &str = "rc_client_no_predictions";
/// Model executions — result-cache misses that ran a model (counter).
pub const CLIENT_MODEL_EXECS: &str = "rc_client_model_execs";
/// Background model refreshes applied by pull/push workers (counter).
pub const CLIENT_BACKGROUND_REFRESHES: &str = "rc_client_background_refreshes";
/// Number of result-cache shards the most recently built client uses
/// (gauge).
pub const CLIENT_RESULT_CACHE_SHARDS: &str = "rc_client_result_cache_shards";
/// `predict_many` calls with at least one input (counter).
pub const CLIENT_BATCH_PREDICTS: &str = "rc_client_batch_predicts";
/// Background worker threads (pull worker, push watcher) started
/// (counter).
pub const CLIENT_WORKERS_STARTED: &str = "rc_client_workers_started";
/// Background worker threads that observed shutdown and exited (counter).
pub const CLIENT_WORKERS_STOPPED: &str = "rc_client_workers_stopped";
/// Lookups answered with a concrete predicted bucket — every
/// `Predicted` response, cached or freshly executed (counter).
/// Reconciles: `predictions == lookups - no_predictions`.
pub const CLIENT_PREDICTIONS: &str = "rc_client_predictions";
/// Predict calls currently executing, across all threads (gauge).
pub const CLIENT_INFLIGHT: &str = "rc_client_inflight";
/// Predict lookups over the rolling window (windowed counter; epochs
/// are whatever drives `Registry::tick`).
pub const CLIENT_LOOKUPS_WINDOWED: &str = "rc_client_lookups_windowed";
/// Predict-path latency over the rolling window, hits and misses
/// together (windowed histogram, ns).
pub const CLIENT_PREDICT_LATENCY_WINDOWED_NS: &str = "rc_client_predict_latency_windowed_ns";

// --- rc-core client (lock-free serve path) ---

/// Serve-snapshot publishes: each model/manifest/feature/stale-set
/// change builds a new immutable snapshot and stores it with one atomic
/// swap (counter).
pub const CLIENT_SERVE_SNAPSHOT_PUBLISHES: &str = "rc_client_serve_snapshot_publishes";
/// Generation number of the currently published serve snapshot (gauge).
pub const CLIENT_SERVE_SNAPSHOT_GENERATION: &str = "rc_client_serve_snapshot_generation";
/// Retired serve snapshots awaiting their epoch grace period before
/// reclamation (gauge).
pub const CLIENT_SERVE_SNAPSHOT_RETIRED: &str = "rc_client_serve_snapshot_retired";
/// Pull-mode refresh keys admitted into the bounded admission queue
/// (counter).
pub const CLIENT_ADMISSION_ENQUEUED: &str = "rc_client_serve_admission_enqueued";
/// Refresh keys coalesced because an identical key was already in
/// flight — the thundering-herd dedup (counter).
pub const CLIENT_ADMISSION_COALESCED: &str = "rc_client_serve_admission_coalesced";
/// Refresh keys dropped because the admission queue was full —
/// backpressure; the caller still gets its degraded answer (counter).
pub const CLIENT_ADMISSION_REJECTED: &str = "rc_client_serve_admission_rejected";

// --- rc-core client (resilience layer) ---

/// Predict lookups — every `predict_single` call and every element of a
/// `predict_many` batch (counter). Reconciles exactly:
/// `lookups == result_cache_hits + fresh_fetches + stale_serves + defaults`.
pub const CLIENT_LOOKUPS: &str = "rc_client_lookups";
/// Lookups resolved by executing a model against *fresh* data — data
/// loaded from the store, or from a disk-cache entry still inside its
/// expiry (counter).
pub const CLIENT_FRESH_FETCHES: &str = "rc_client_fresh_fetches";
/// Lookups resolved by executing a model against *stale* data — a
/// disk-cache entry past its expiry but inside the stale-grace window
/// (counter).
pub const CLIENT_STALE_SERVES: &str = "rc_client_stale_serves";
/// Lookups that degraded to the no-prediction default (counter).
pub const CLIENT_DEFAULTS: &str = "rc_client_defaults";
/// Store-pull retry attempts beyond each call's first try (counter).
pub const CLIENT_RETRIES: &str = "rc_client_retries";
/// Circuit-breaker state transitions (Closed→Open, Open→HalfOpen,
/// HalfOpen→Closed, HalfOpen→Open) across all keys (counter).
pub const CLIENT_BREAKER_TRANSITIONS: &str = "rc_client_breaker_transitions";
/// Per-key circuit breakers currently in the Open state (gauge).
pub const CLIENT_BREAKER_OPEN: &str = "rc_client_breaker_open";
/// HalfOpen probe admissions — calls let through an Open or HalfOpen
/// breaker to test recovery; their outcomes drive HalfOpen→Closed /
/// HalfOpen→Open transitions (counter).
pub const CLIENT_BREAKER_HALF_OPEN_PROBES: &str = "rc_client_breaker_half_open_probes";
/// Payloads (store pulls or disk-cache entries) that failed checksum or
/// decode validation and were skipped instead of served (counter).
pub const CLIENT_CORRUPT_PAYLOADS: &str = "rc_client_corrupt_payloads";
/// Fetched models rejected by the pre-swap sanity check (undecodable,
/// checksum/identity mismatch with the manifest, or non-finite probe
/// outputs); the previously resident model keeps serving (counter).
pub const CLIENT_MODEL_REJECTED: &str = "rc_client_model_rejected";

// --- rc-core pipeline (offline training) ---

/// Completed pipeline runs (counter).
pub const PIPELINE_RUNS: &str = "rc_pipeline_runs";
/// Wall time of one full pipeline run (histogram, ns).
pub const PIPELINE_RUN_LATENCY_NS: &str = "rc_pipeline_run_latency_ns";
/// Per-model training wall time across all metrics (histogram, ns).
pub const PIPELINE_TRAIN_LATENCY_NS: &str = "rc_pipeline_train_latency_ns";
/// Models trained (counter).
pub const PIPELINE_MODELS_TRAINED: &str = "rc_pipeline_models_trained";
/// Models that passed validation and were published (counter).
pub const PIPELINE_MODELS_PUBLISHED: &str = "rc_pipeline_models_published";
/// Weekly feature refreshes generated (counter).
pub const PIPELINE_FEATURE_REFRESHES: &str = "rc_pipeline_feature_refreshes";
/// Worker threads the last pipeline run used to train the six per-metric
/// models concurrently (gauge).
pub const PIPELINE_TRAIN_WORKERS: &str = "rc_pipeline_train_workers";
/// Raw records (VMs + deployments) the extract stage pulled from
/// telemetry (counter). Reconciles exactly:
/// `extracted == cleaned + quarantined`.
pub const PIPELINE_EXTRACTED_RECORDS: &str = "rc_pipeline_extracted_records";
/// Records that passed the cleanup stage into aggregation (counter).
pub const PIPELINE_CLEANED_RECORDS: &str = "rc_pipeline_cleaned_records";
/// Records the cleanup stage quarantined, all categories (counter).
pub const PIPELINE_QUARANTINED_RECORDS: &str = "rc_pipeline_quarantined_records";
/// Quarantined: duplicated VM records — a vm_id already ingested
/// (counter).
pub const PIPELINE_QUARANTINED_DUPLICATES: &str = "rc_pipeline_quarantined_duplicates";
/// Quarantined: NaN or out-of-range utilization parameters (counter).
pub const PIPELINE_QUARANTINED_INVALID_UTIL: &str = "rc_pipeline_quarantined_invalid_util";
/// Quarantined: clock-skewed timestamps — deletion before creation
/// (counter).
pub const PIPELINE_QUARANTINED_CLOCK_SKEW: &str = "rc_pipeline_quarantined_clock_skew";
/// Quarantined: truncated VM records with zeroed/sentinel fields
/// (counter).
pub const PIPELINE_QUARANTINED_TRUNCATED: &str = "rc_pipeline_quarantined_truncated";
/// Quarantined: VM records whose deployment id points past the deployment
/// table (counter).
pub const PIPELINE_QUARANTINED_ORPHANED: &str = "rc_pipeline_quarantined_orphaned";
/// Metrics whose train/validate task panicked or failed and were excluded
/// from publication while the rest proceeded (counter).
pub const PIPELINE_METRIC_QUARANTINED: &str = "rc_pipeline_metric_quarantined";
/// Publishes refused by the validation gate — accuracy floor or
/// regression versus the currently published version (counter).
pub const PIPELINE_PUBLISH_BLOCKED: &str = "rc_pipeline_publish_blocked";
/// Manifest rollbacks to `last_good` (counter).
pub const PIPELINE_ROLLBACKS: &str = "rc_pipeline_rollbacks";
/// Manifest flips abandoned because a concurrent writer moved the
/// pointer between the gate read and the flip (counter).
pub const PIPELINE_PUBLISH_RACES: &str = "rc_pipeline_publish_races";

// --- rc-ml worker pool ---

/// Scoped pool invocations — one per parallel fit or train fan-out
/// (counter).
pub const ML_POOL_SCOPES: &str = "rc_ml_pool_scopes";
/// Tasks dispatched through the scoped pool (counter).
pub const ML_POOL_TASKS: &str = "rc_ml_pool_tasks";
/// Worker threads spawned by the scoped pool across all scopes (counter).
pub const ML_POOL_WORKERS_SPAWNED: &str = "rc_ml_pool_workers_spawned";

// --- rc-store ---

/// Store `get` wall time including simulated network latency
/// (histogram, ns).
pub const STORE_GET_LATENCY_NS: &str = "rc_store_get_latency_ns";
/// Store `put` wall time including simulated network latency
/// (histogram, ns).
pub const STORE_PUT_LATENCY_NS: &str = "rc_store_put_latency_ns";
/// Successful gets (counter).
pub const STORE_GETS: &str = "rc_store_gets";
/// Successful puts (counter).
pub const STORE_PUTS: &str = "rc_store_puts";
/// Operations rejected while the store was unavailable (counter).
pub const STORE_UNAVAILABLE: &str = "rc_store_unavailable_errors";
/// Puts that superseded an existing version — version bumps (counter).
pub const STORE_VERSION_BUMPS: &str = "rc_store_version_bumps";
/// Faults injected by a `FaultyStore` wrapper, all kinds (counter).
pub const STORE_INJECTED_FAULTS: &str = "rc_store_injected_faults";
/// Injected per-op unavailability errors (counter).
pub const STORE_INJECTED_UNAVAILABILITY: &str = "rc_store_injected_unavailability";
/// Injected transient errors, including burst continuations (counter).
pub const STORE_INJECTED_TRANSIENTS: &str = "rc_store_injected_transients";
/// Injected latency spikes (counter).
pub const STORE_INJECTED_LATENCY_SPIKES: &str = "rc_store_injected_latency_spikes";
/// Injected payload corruptions on GETs (counter).
pub const STORE_INJECTED_CORRUPTIONS: &str = "rc_store_injected_corruptions";

// --- rc-scheduler ---

/// VMs successfully placed (counter).
pub const SCHED_PLACEMENTS: &str = "rc_sched_placements";
/// Placement failures — no server admitted the VM (counter).
pub const SCHED_FAILURES: &str = "rc_sched_failures";
/// Soft-rule relaxations: the grouped rule chain fell back to
/// ignoring the utilization cap (counter).
pub const SCHED_RULE_RELAXATIONS: &str = "rc_sched_rule_relaxations";
/// Candidate servers rejected by Algorithm 1's predicted-utilization
/// cap (counter).
pub const SCHED_UTIL_CAP_REJECTIONS: &str = "rc_sched_util_cap_rejections";
/// Utilization readings observed at or above 100% of physical cores
/// (counter).
pub const SCHED_OVERLOADED_READINGS: &str = "rc_sched_overloaded_readings";
/// All utilization readings sampled by the simulator (counter).
pub const SCHED_READINGS: &str = "rc_sched_readings";
/// Placements over the rolling window (windowed counter; the simulator
/// ticks it once per `obs_tick_secs` of simulated time).
pub const SCHED_PLACEMENTS_WINDOWED: &str = "rc_sched_placements_windowed";
/// Overloaded (≥100%) readings over the rolling window (windowed
/// counter).
pub const SCHED_OVERLOADED_WINDOWED: &str = "rc_sched_overloaded_readings_windowed";

// --- rc-loop lifecycle controller ---

/// Controller ticks completed (counter).
pub const LOOP_TICKS: &str = "rc_loop_ticks";
/// Telemetry windows ingested, clean or dirty (counter).
pub const LOOP_WINDOWS_INGESTED: &str = "rc_loop_windows_ingested";
/// Retrains started — drift-triggered, cadence-triggered, or bootstrap
/// (counter).
pub const LOOP_RETRAINS: &str = "rc_loop_retrains";
/// Retrains that failed outright (insufficient surviving data, store
/// down) and degraded their tick (counter).
pub const LOOP_RETRAIN_FAILURES: &str = "rc_loop_retrain_failures";
/// Shadow evaluations of a candidate against the serving model
/// (counter).
pub const LOOP_SHADOW_EVALS: &str = "rc_loop_shadow_evals";
/// Candidates the shadow evaluation rejected — the store stays
/// byte-untouched (counter).
pub const LOOP_SHADOW_REJECTIONS: &str = "rc_loop_shadow_rejections";
/// Manifest flips: candidates that won shadow and passed the publish
/// gate (counter).
pub const LOOP_PROMOTIONS: &str = "rc_loop_promotions";
/// Post-flip regressions that auto-rolled the manifest back to
/// `last_good` (counter).
pub const LOOP_ROLLBACKS: &str = "rc_loop_rollbacks";
/// Promotions refused because the candidate's model set matched a
/// quarantined publication (counter).
pub const LOOP_QUARANTINE_BLOCKED: &str = "rc_loop_quarantine_blocked";
/// Ticks degraded by chaos — dirty windows starving the pipeline, store
/// outages mid-flip, failed serving reloads. Each costs exactly its own
/// tick (counter).
pub const LOOP_DEGRADED_TICKS: &str = "rc_loop_degraded_ticks";
/// Manifest version currently serving, 0 before the first publication
/// (gauge).
pub const LOOP_SERVING_VERSION: &str = "rc_loop_serving_version";
/// Shadow accuracy of the latest candidate, per metric (gauge family;
/// names built with `rc_obs::acc_gauge_name`).
pub const LOOP_SHADOW_ACCURACY: &str = "rc_loop_shadow_accuracy";
/// PSI divergence of the latest ingested window's feature distribution
/// versus the serving model's training baseline, per feature (gauge
/// family; names built with `rc_obs::feature_gauge_name`).
pub const LOOP_LEADING_PSI: &str = "rc_loop_leading_psi";
/// Leading-drift signal: 1.0 while a feature's distribution is tripped,
/// 0.0 while stable (gauge family; `rc_obs::feature_gauge_name`).
pub const LOOP_LEADING_DRIFT: &str = "rc_loop_leading_drift";
/// Leading-drift trips — Stable→Drifting transitions of any feature's
/// distribution signal (counter).
pub const LOOP_LEADING_TRIPS: &str = "rc_loop_leading_trips";
/// PSI divergence between the serving and candidate models' predicted
/// bucket distributions over the shadow slice, per metric (gauge
/// family; names built with `rc_obs::acc_gauge_name`).
pub const LOOP_SHADOW_PREDICTION_PSI: &str = "rc_loop_shadow_prediction_psi";
/// Publishes abandoned because a concurrent manual publish raced the
/// controller's manifest flip (counter).
pub const LOOP_PUBLISH_RACES: &str = "rc_loop_publish_races";
/// Chaos faults the controller observed landing on its tick — brownout,
/// telemetry degradation, clock skew, manual publish (counter).
pub const LOOP_CHAOS_INJECTED: &str = "rc_loop_chaos_injected";

// --- prediction accuracy (AccuracyTracker gauge families) ---
//
// These families carry a `{metric="..."}` label embedded in the flat
// registry name; build full names with `rc_obs::acc_gauge_name` /
// `rc_obs::acc_confusion_name`.

/// Rolling accuracy over the live window, per metric (gauge family).
pub const ACC_ROLLING: &str = "rc_acc_rolling";
/// Cumulative accuracy over all resolved outcomes, per metric (gauge
/// family).
pub const ACC_CUMULATIVE: &str = "rc_acc_cumulative";
/// Drift signal: 1.0 while `Drifting`, 0.0 while `Stable` (gauge
/// family).
pub const ACC_DRIFT: &str = "rc_acc_drift";
/// Training-time accuracy baseline from the published manifest (gauge
/// family).
pub const ACC_BASELINE: &str = "rc_acc_baseline";
/// Confusion-matrix cells, labelled `p` (predicted) and `o` (observed)
/// (gauge family).
pub const ACC_CONFUSION: &str = "rc_acc_confusion";
/// Drift-signal transitions in either direction (Stable→Drifting and
/// Drifting→Stable), across all metrics (counter). Each metric's
/// per-direction counts reconcile against this total.
pub const ACC_DRIFT_TRANSITIONS: &str = "rc_acc_drift_transitions";
