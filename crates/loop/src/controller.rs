//! The lifecycle controller: one struct owning the whole
//! retrain/shadow/promote/watch/rollback state machine on a simulated
//! clock.
//!
//! Determinism is the design constraint everything else bends around:
//! the controller owns a private [`rc_obs::Registry`] and
//! [`AccuracyTracker`] (no process-global state in any decision), every
//! window trace is a pure function of `(seed, tick)`, metrics iterate in
//! [`PredictionMetric::ALL`] order, and training runs single-threaded.
//! Two soaks with the same [`LoopConfig`] produce bit-identical event
//! journals and summaries.
//!
//! Live predictions go through [`RcClient`], the same library every other
//! consumer uses: the loop serves, reloads on a flip, and keeps its
//! frozen baseline through push-mode clients over its own store. It
//! scores their exact answers, past the result cache.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use rc_core::labels::labels;
use rc_core::{
    cleanup, label_deployments, run_pipeline, CacheMode, ClientConfig, ClientInputs,
    LabeledDeployment, LabeledVm, PipelineConfig, PublishGate, RcClient, SubscriptionFeatures,
    TrainedModel,
};
use rc_obs::{
    acc_gauge_name, counts_psi, AccuracyTracker, DriftConfig, DriftSignal, LeadingDriftConfig,
    LeadingDriftMonitor, Registry, Scorecard, WindowSketch,
};
use rc_store::{
    checksum, manifest_models_digest, models_digest, rollback, Manifest, QuarantineSet,
    RollbackError, Store, StoreBackend,
};
use rc_trace::{DirtyPlan, DirtyVmStream, Trace, TraceConfig, VmStream};
use rc_types::metrics::PredictionMetric;
use rc_types::vm::SubscriptionId;
use serde::Serialize;

use crate::chaos::{ChaosPlan, ChaosStore};

/// A deterministic workload-distribution shift: every window ingested in
/// `[from_tick, until_tick)` has its per-VM utilization parameters
/// rescaled, which moves both the live ground truth and what a retrain
/// on that window learns. A model trained before the shift mispredicts
/// after it — the drift episode the loop must detect and retrain out of.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadShift {
    /// First tick (inclusive) whose window sees the shift.
    pub from_tick: u32,
    /// First tick past the shift (`u32::MAX` = permanent).
    pub until_tick: u32,
    /// Multiplier on the mean-utilization parameter.
    pub base_mul: f64,
    /// Additive offset on the mean-utilization parameter.
    pub base_add: f64,
    /// Multiplier on the P95-of-max spike level.
    pub p95_mul: f64,
    /// Additive offset on the P95-of-max spike level.
    pub p95_add: f64,
    /// Ticks over which the shift ramps in linearly (0 = a step). A
    /// ramped shift moves the input distribution for several windows
    /// before predictions are wrong enough to trip the label-based
    /// monitor — the gap the leading indicator exists to exploit.
    pub ramp_ticks: u32,
}

impl WorkloadShift {
    /// A strong permanent upward shift starting at `from_tick` — enough
    /// to drag a pre-shift model's accuracy through the drift threshold.
    pub fn surge(from_tick: u32) -> Self {
        WorkloadShift {
            from_tick,
            until_tick: u32::MAX,
            base_mul: 0.4,
            base_add: 0.55,
            p95_mul: 0.3,
            p95_add: 0.65,
            ramp_ticks: 0,
        }
    }

    /// The surge, ramped in over `ramp_ticks` windows instead of
    /// arriving as a step.
    pub fn ramped_surge(from_tick: u32, ramp_ticks: u32) -> Self {
        WorkloadShift { ramp_ticks, ..WorkloadShift::surge(from_tick) }
    }

    fn active(&self, tick: u32) -> bool {
        tick >= self.from_tick && tick < self.until_tick
    }

    /// Shift intensity in `[0, 1]` at `tick`: 0 outside the episode,
    /// ramping linearly over `ramp_ticks` windows, then full strength.
    fn intensity(&self, tick: u32) -> f64 {
        if !self.active(tick) {
            return 0.0;
        }
        if self.ramp_ticks == 0 {
            return 1.0;
        }
        (((tick - self.from_tick) as f64 + 1.0) / self.ramp_ticks as f64).min(1.0)
    }
}

/// Everything a soak needs: clock length, window shape, cadences,
/// promotion thresholds, drift hysteresis, scripted workload shifts, and
/// the chaos schedule. The soak is a pure function of this struct.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Master seed; every window trace derives from `(seed, tick)`.
    pub seed: u64,
    /// Simulated ticks to run (one tick ≈ one retrain-cadence epoch).
    pub ticks: u32,
    /// Days of telemetry per rolling window.
    pub window_days: u32,
    /// Subscriptions per window (a stable id space across windows, so
    /// published feature records stay addressable).
    pub n_subscriptions: usize,
    /// Approximate VMs per window.
    pub window_vms: usize,
    /// Retrain cadence in ticks even without drift (`0` = drift-only).
    pub retrain_every: u32,
    /// Post-promotion watch period: ticks during which a drift trip
    /// triggers rollback instead of retrain.
    pub watch_ticks: u32,
    /// Labelled VM examples replayed through the serving models per tick.
    pub eval_per_tick: usize,
    /// Replay-slice size for shadow evaluation.
    pub shadow_slice: usize,
    /// Shadow pass requires candidate mean accuracy within this of the
    /// serving mean (and better when the margin is negative).
    pub promote_margin: f64,
    /// Shadow pass requires no single metric to regress by more.
    pub shadow_margin: f64,
    /// Drift hysteresis for the live accuracy monitor.
    pub drift: DriftConfig,
    /// Hysteresis for the leading (input-distribution) drift monitor.
    pub leading: LeadingDriftConfig,
    /// When true, leading drift is journaled and metered but never
    /// schedules a retrain — the label-based monitor stays in charge.
    pub leading_observe_only: bool,
    /// Shadow-evaluation guard on prediction-distribution shift: reject
    /// the candidate when any metric's serving-vs-candidate prediction
    /// PSI exceeds this. Infinite by default (observe-only — the PSI is
    /// always gauged), because a candidate retrained *for* drift is
    /// supposed to predict differently.
    pub shadow_psi_limit: f64,
    /// The publish gate candidates must still clear (the loop's shadow
    /// comparison is the sharper filter, so the regression tolerance
    /// here is looser than the gate's own default).
    pub gate: PublishGate,
    /// Scripted workload shifts.
    pub shifts: Vec<WorkloadShift>,
    /// Scripted faults.
    pub chaos: ChaosPlan,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            seed: 0xC0_FFEE,
            ticks: 24,
            window_days: 18,
            n_subscriptions: 100,
            window_vms: 2_600,
            retrain_every: 8,
            watch_ticks: 4,
            eval_per_tick: 400,
            shadow_slice: 300,
            promote_margin: 0.03,
            shadow_margin: 0.15,
            drift: DriftConfig {
                window: 2,
                tolerance: 0.12,
                clear_margin: 0.05,
                trip_ticks: 2,
                clear_ticks: 2,
                min_samples: 30,
            },
            leading: LeadingDriftConfig::default(),
            leading_observe_only: false,
            shadow_psi_limit: f64::INFINITY,
            gate: PublishGate { min_accuracy: 0.40, max_regression: 0.30 },
            shifts: Vec::new(),
            chaos: ChaosPlan::default(),
        }
    }
}

/// Why a retrain was scheduled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum RetrainReason {
    /// No model has ever been published.
    Bootstrap,
    /// The drift monitor tripped on the named metrics.
    Drift { metrics: Vec<String> },
    /// The leading (input-distribution) monitor tripped on the named
    /// features before label-based accuracy fell.
    LeadingDrift { features: Vec<String> },
    /// The refresh cadence expired.
    Cadence,
}

/// One journal entry. The journal is the soak's one record: every
/// `rc_loop_*` counter moves when its event is journaled, a tick is
/// degraded exactly when it journals a degrading event, and the summary's
/// counts are a fold over it. It is also the reproducibility witness: the
/// summary digests it, and the acceptance tests compare it bit-for-bit
/// across same-seed runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum LoopEvent {
    /// A telemetry window was ingested (post-cleanup sizes).
    WindowIngested { vms: u64, quarantined: u64 },
    /// The drift monitor tripped for a metric.
    DriftDetected { metric: String },
    /// A retrain was scheduled.
    RetrainScheduled { reason: RetrainReason },
    /// The training pipeline failed outright; the tick degrades and the
    /// previously published version keeps serving.
    RetrainFailed { error: String },
    /// One metric's trainer faulted; the pipeline isolated it and the
    /// remaining models continued.
    MetricQuarantined { metric: String },
    /// Shadow comparison of candidate vs serving on the replay slice.
    ShadowEvaluated { serving_mean: f64, candidate_mean: f64 },
    /// The candidate lost the shadow comparison; nothing was written.
    ShadowRejected { reason: String },
    /// The candidate's content digest is quarantined from an earlier
    /// rollback; promotion refused before any write.
    QuarantineBlocked { digest: u64 },
    /// Two-phase publish completed; the new version is serving.
    Promoted { version: u64 },
    /// Publish failed (gate or store); the manifest did not move.
    PublishFailed { error: String },
    /// Post-flip regression: rolled back to `to_version` and quarantined
    /// the regressing content digest.
    RolledBack { to_version: u64, quarantined_digest: u64 },
    /// A rollback was needed but no earlier good version exists; the
    /// loop degrades the tick and keeps serving.
    RollbackUnavailable,
    /// A serving-client reload onto version `expected` (after a flip, or
    /// its retry on a later tick) rejected a payload, could not fetch
    /// one, or landed on manifest `serving` instead. The previous
    /// resident model keeps answering for every slot the reload could not
    /// fill; the tick degrades and the next tick retries.
    ServeReloadIncomplete { expected: u64, serving: u64 },
    /// The leading monitor flipped `Stable -> Drifting` for a feature:
    /// the ingested window's distribution has walked away from the
    /// serving model's training baseline.
    LeadingDriftDetected { feature: String, psi: f64 },
    /// A scheduled chaos fault was injected this tick (the new fault
    /// kinds journal here; the original four are visible through the
    /// events they cause).
    ChaosInjected { kind: String },
    /// The manifest flip's compare-and-swap lost to a concurrent
    /// publish; the controller backed off without overwriting it.
    PublishRaceDetected { expected: u64, actual: u64 },
    /// A rollback's quarantine set could not be persisted. The digest is
    /// still quarantined in memory and the rollback goes on; the tick
    /// degrades.
    QuarantineSaveFailed { error: String },
    /// The frozen baseline client's first load onto version `expected`
    /// fell short. It stays unset, so the frozen side scores nothing
    /// until the next promotion loads it; the tick degrades.
    FrozenLoadIncomplete { expected: u64 },
}

impl LoopEvent {
    /// The `rc_loop_*` counter journaling this event moves. None for
    /// `LeadingDriftDetected`: the leading monitor moves
    /// `rc_loop_leading_trips` itself when it trips.
    fn counter(&self) -> Option<&'static str> {
        Some(match self {
            LoopEvent::WindowIngested { .. } => rc_obs::LOOP_WINDOWS_INGESTED,
            LoopEvent::RetrainScheduled { .. } => rc_obs::LOOP_RETRAINS,
            LoopEvent::RetrainFailed { .. } => rc_obs::LOOP_RETRAIN_FAILURES,
            LoopEvent::ShadowEvaluated { .. } => rc_obs::LOOP_SHADOW_EVALS,
            LoopEvent::ShadowRejected { .. } => rc_obs::LOOP_SHADOW_REJECTIONS,
            LoopEvent::Promoted { .. } => rc_obs::LOOP_PROMOTIONS,
            LoopEvent::RolledBack { .. } => rc_obs::LOOP_ROLLBACKS,
            LoopEvent::QuarantineBlocked { .. } => rc_obs::LOOP_QUARANTINE_BLOCKED,
            LoopEvent::PublishRaceDetected { .. } => rc_obs::LOOP_PUBLISH_RACES,
            LoopEvent::ChaosInjected { .. } => rc_obs::LOOP_CHAOS_INJECTED,
            _ => return None,
        })
    }

    /// Whether the event degrades the tick it is journaled on.
    fn degrades(&self) -> bool {
        matches!(
            self,
            LoopEvent::RetrainFailed { .. }
                | LoopEvent::PublishFailed { .. }
                | LoopEvent::PublishRaceDetected { .. }
                | LoopEvent::RollbackUnavailable
                | LoopEvent::ServeReloadIncomplete { .. }
                | LoopEvent::QuarantineSaveFailed { .. }
                | LoopEvent::FrozenLoadIncomplete { .. }
        )
    }
}

/// A journal entry pinned to its tick.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TickEvent {
    /// Simulated tick the event occurred on.
    pub tick: u32,
    /// What happened.
    pub event: LoopEvent,
}

/// Cumulative live-vs-frozen accuracy for one metric.
#[derive(Debug, Clone, Serialize)]
pub struct MetricAccuracy {
    /// Model name (`VM_AVGUTIL`, ...).
    pub metric: String,
    /// Accuracy of whatever the loop kept serving, over the whole soak.
    pub live: f64,
    /// Accuracy of the never-retrained first model over the same
    /// examples.
    pub frozen: f64,
}

/// End-of-soak accounting, serializable into `BENCH_loop.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LoopSummary {
    /// Seed the soak ran under.
    pub seed: u64,
    /// Ticks simulated.
    pub ticks: u32,
    /// Windows ingested (== ticks: ingestion never skips).
    pub windows_ingested: u64,
    /// Retrains attempted.
    pub retrains: u64,
    /// Retrains that failed outright.
    pub retrain_failures: u64,
    /// Shadow comparisons run.
    pub shadow_evals: u64,
    /// Candidates rejected in shadow.
    pub shadow_rejections: u64,
    /// Successful promotions (including bootstrap).
    pub promotions: u64,
    /// Automatic rollbacks.
    pub rollbacks: u64,
    /// Candidate promotions refused because their content digest was
    /// quarantined by an earlier rollback.
    pub quarantine_blocked: u64,
    /// Ticks that journaled at least one degrading event (a failed
    /// retrain, publish or rollback, a lost publish race, an incomplete
    /// client load, an unsaved quarantine set).
    pub degraded_ticks: u64,
    /// Leading-monitor `Stable -> Drifting` transitions over the soak.
    pub leading_trips: u64,
    /// Manifest flips lost to a concurrent publish.
    pub publish_races: u64,
    /// Chaos faults injected (new fault kinds only; see
    /// [`LoopEvent::ChaosInjected`]).
    pub chaos_injected: u64,
    /// Manifest version serving when the soak ended.
    pub final_version: u64,
    /// End-to-end prediction accuracy of the managed (retraining) loop.
    pub live_accuracy: f64,
    /// Accuracy the first model alone would have scored (no-retrain
    /// baseline) over the identical examples.
    pub frozen_accuracy: f64,
    /// Per-metric live vs frozen accuracy.
    pub per_metric: Vec<MetricAccuracy>,
    /// FNV digest of the serialized event journal — the cheap
    /// reproducibility witness two same-seed runs must agree on.
    pub journal_digest: u64,
    /// Fingerprint of the store's final (key, version) state.
    pub store_fingerprint: u64,
}

/// A candidate's models and the feature records they read, borrowed from
/// its pipeline output, with each metric's model looked up once instead
/// of once per prediction. The candidate is not published yet, so no
/// client can serve it.
struct Predictor<'a> {
    /// By [`PredictionMetric::index`].
    models: [Option<&'a TrainedModel>; 6],
    features: &'a HashMap<SubscriptionId, SubscriptionFeatures>,
}

impl<'a> Predictor<'a> {
    fn new(
        models: &'a [TrainedModel],
        features: &'a HashMap<SubscriptionId, SubscriptionFeatures>,
    ) -> Self {
        let mut by_metric = [None; 6];
        for model in models {
            // First wins, as a scan of the list for the name did.
            by_metric[model.spec.metric.index()].get_or_insert(model);
        }
        Predictor { models: by_metric, features }
    }

    fn has_model(&self, metric: PredictionMetric) -> bool {
        self.models[metric.index()].is_some()
    }

    fn predict(&self, metric: PredictionMetric, inputs: &ClientInputs) -> Option<usize> {
        let model = self.models[metric.index()]?;
        let sub = self.features.get(&inputs.subscription)?;
        Some(model.predict_for(inputs, sub).value)
    }
}

/// Where the loop is in its promote/watch cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Normal operation: drift or cadence schedules a retrain.
    Steady,
    /// Recently flipped: a drift trip rolls back instead.
    Watching { remaining: u32 },
}

/// The controller. Construct with [`LoopController::new`], then either
/// [`run`](LoopController::run) the whole soak or step it one
/// [`run_tick`](LoopController::run_tick) at a time (the acceptance
/// tests do, to inspect mid-soak state).
pub struct LoopController {
    config: LoopConfig,
    store: Arc<ChaosStore>,
    registry: Registry,
    tracker: AccuracyTracker,
    /// Input-distribution monitor; baseline installed at promotion.
    leading: LeadingDriftMonitor,
    /// Answers every live prediction; reloaded on each promotion and
    /// rollback, and empty (no prediction) before the first.
    serving: RcClient,
    /// The version a flip's serving reload fell short of, retried every
    /// tick until a reload completes or the next flip.
    reload_pending: Option<u64>,
    /// Loaded at the first promotion and never reloaded: the no-retrain
    /// baseline. A push-mode predict never reads the store, so this
    /// client keeps serving the bootstrap version's models and feature
    /// records.
    frozen: Option<RcClient>,
    quarantine: QuarantineSet,
    phase: Phase,
    tick: u32,
    last_retrain_tick: Option<u32>,
    /// Shadow-measured per-metric accuracy recorded at each promotion,
    /// keyed by version — restored as drift baselines after a rollback.
    promoted_baselines: HashMap<u64, Vec<(String, f64)>>,
    journal: Vec<TickEvent>,
    /// Every answered lookup of the soak, per metric in
    /// [`PredictionMetric::index`] order: the serving and the frozen
    /// client's.
    live: [Scorecard; 6],
    frozen_scores: [Scorecard; 6],
}

impl LoopController {
    /// A controller over a fresh in-memory store.
    pub fn new(config: LoopConfig) -> Self {
        Self::with_store(config, Store::in_memory())
    }

    /// A controller over a caller-supplied store (tests pre-seed or
    /// inspect it).
    pub fn with_store(config: LoopConfig, store: Store) -> Self {
        let registry = Registry::new();
        let tracker = AccuracyTracker::with_registry(registry.clone(), config.drift.clone());
        let leading = LeadingDriftMonitor::with_registry(registry.clone(), config.leading.clone());
        let store = Arc::new(ChaosStore::new(store));
        let serving = loop_client(&store);
        LoopController {
            config,
            store,
            registry,
            tracker,
            leading,
            serving,
            reload_pending: None,
            frozen: None,
            quarantine: QuarantineSet::default(),
            phase: Phase::Steady,
            tick: 0,
            last_retrain_tick: None,
            promoted_baselines: HashMap::new(),
            journal: Vec::new(),
            live: Default::default(),
            frozen_scores: Default::default(),
        }
    }

    /// The controller's private metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The live-accuracy tracker.
    pub fn tracker(&self) -> &AccuracyTracker {
        &self.tracker
    }

    /// The leading (input-distribution) drift monitor.
    pub fn leading(&self) -> &LeadingDriftMonitor {
        &self.leading
    }

    /// The chaos-wrapped store the loop publishes through.
    pub fn store(&self) -> &ChaosStore {
        &self.store
    }

    /// The event journal so far.
    pub fn journal(&self) -> &[TickEvent] {
        &self.journal
    }

    /// Manifest version currently serving (`0` before bootstrap).
    pub fn serving_version(&self) -> u64 {
        self.serving.manifest_version().unwrap_or(0)
    }

    /// Content digests quarantined from re-promotion.
    pub fn quarantined_digests(&self) -> &[u64] {
        self.quarantine.digests()
    }

    /// Runs the remaining ticks and returns the summary.
    pub fn run(mut self) -> LoopSummary {
        while self.tick < self.config.ticks {
            self.run_tick();
        }
        self.summary()
    }

    /// Advances the simulated clock by one tick. Every failure mode
    /// lands back here: nothing a tick does can prevent the next one.
    pub fn run_tick(&mut self) {
        let tick = self.tick;
        self.registry.counter(rc_obs::LOOP_TICKS).increment();
        let first_event = self.journal.len();

        // 0. Arm scheduled store-level chaos for the tick (healed at
        // tick end — nothing here can outlive the tick), then retry a
        // serving reload a flip left incomplete.
        if let Some(shard) = self.config.chaos.brownout_shard(tick) {
            self.store.arm_brownout(shard);
            self.record(tick, LoopEvent::ChaosInjected { kind: format!("brownout:shard{shard}") });
        }
        if self.config.chaos.manual_publish(tick) {
            self.store.arm_manifest_race();
            self.record(tick, LoopEvent::ChaosInjected { kind: "manual_publish".to_string() });
        }
        if let Some(expected) = self.reload_pending {
            self.load_serving(tick, expected);
        }

        // 1. Ingest the next rolling window, sketch its feature
        // distributions, and extract the labels this tick scores: the
        // first `eval_per_tick` of each kind. (A retrain labels the whole
        // window itself, inside `run_pipeline`.)
        let tracer = rc_obs::global_tracer();
        let span = tracer.span("loop.ingest");
        let window = self.ingest_window(tick);
        span.finish();
        let span = tracer.span("loop.sketch");
        let sketch = sketch_window(&window);
        span.finish();
        let mut span = tracer.span("loop.label");
        let eval_vms: Vec<LabeledVm> =
            labels(&window, 120).take(self.config.eval_per_tick).collect();
        let mut eval_deps = label_deployments(&window);
        eval_deps.truncate(self.config.eval_per_tick);
        span.record("vms", eval_vms.len() as u64).record("deployments", eval_deps.len() as u64);
        span.finish();

        // 2. Serve the window through the published models and score it.
        let span = tracer.span("loop.evaluate");
        self.evaluate_live(tick, &eval_vms, &eval_deps);
        self.tracker.tick();
        self.registry.tick();
        span.finish();

        // 3a. Consult the leading (input-distribution) monitor — this
        // sees the shifted window immediately, before mispredictions
        // have accumulated into the label-based signal.
        let span = tracer.span("loop.react");
        for obs in self.leading.observe(&sketch) {
            if obs.tripped {
                let event = LoopEvent::LeadingDriftDetected { feature: obs.feature, psi: obs.psi };
                self.record(tick, event);
            }
        }

        // 3b. Consult the label-based drift monitor.
        let drifting = self.drifting_metrics();
        for metric in &drifting {
            self.record(tick, LoopEvent::DriftDetected { metric: metric.clone() });
        }

        // 4. React: rollback while watching, retrain otherwise. Only
        // the label-based signal can trigger a rollback — leading drift
        // during the watch window says the *inputs* moved, not that the
        // freshly promoted model regressed.
        if let Phase::Watching { remaining } = self.phase {
            if !drifting.is_empty() {
                self.do_rollback(tick);
            } else if remaining <= 1 {
                self.phase = Phase::Steady;
            } else {
                self.phase = Phase::Watching { remaining: remaining - 1 };
            }
        }
        if self.phase == Phase::Steady {
            if let Some(reason) = self.retrain_reason(tick, &drifting) {
                let ingested = IngestedWindow {
                    window: &window,
                    sketch: &sketch,
                    eval_vms: &eval_vms,
                    eval_deps: &eval_deps,
                };
                self.do_retrain(tick, reason, &ingested);
            }
        }
        span.finish();

        // 5. Close the tick: heal chaos, count it degraded if it journaled
        // a degrading event, refresh gauges.
        self.store.heal();
        if self.journal[first_event..].iter().any(|e| e.event.degrades()) {
            self.registry.counter(rc_obs::LOOP_DEGRADED_TICKS).increment();
        }
        self.registry.gauge(rc_obs::LOOP_SERVING_VERSION).set(self.serving_version() as f64);
        self.tick += 1;
    }

    /// Final accounting, folded from the journal and the scorecards.
    /// Callable at any point; [`run`](Self::run) calls it after the last
    /// tick.
    pub fn summary(&self) -> LoopSummary {
        let count = |is: fn(&LoopEvent) -> bool| {
            self.journal.iter().filter(|e| is(&e.event)).count() as u64
        };
        let degraded: HashSet<u32> =
            self.journal.iter().filter(|e| e.event.degrades()).map(|e| e.tick).collect();
        let per_metric = PredictionMetric::ALL
            .iter()
            .map(|&m| MetricAccuracy {
                metric: m.model_name().to_string(),
                live: self.live[m.index()].accuracy(),
                frozen: self.frozen_scores[m.index()].accuracy(),
            })
            .collect();
        let merged = |cards: &[Scorecard]| {
            cards.iter().fold(Scorecard::default(), |mut all, card| {
                all.merge(card);
                all
            })
        };
        LoopSummary {
            seed: self.config.seed,
            ticks: self.tick,
            windows_ingested: count(|e| matches!(e, LoopEvent::WindowIngested { .. })),
            retrains: count(|e| matches!(e, LoopEvent::RetrainScheduled { .. })),
            retrain_failures: count(|e| matches!(e, LoopEvent::RetrainFailed { .. })),
            shadow_evals: count(|e| matches!(e, LoopEvent::ShadowEvaluated { .. })),
            shadow_rejections: count(|e| matches!(e, LoopEvent::ShadowRejected { .. })),
            promotions: count(|e| matches!(e, LoopEvent::Promoted { .. })),
            rollbacks: count(|e| matches!(e, LoopEvent::RolledBack { .. })),
            quarantine_blocked: count(|e| matches!(e, LoopEvent::QuarantineBlocked { .. })),
            degraded_ticks: degraded.len() as u64,
            leading_trips: count(|e| matches!(e, LoopEvent::LeadingDriftDetected { .. })),
            publish_races: count(|e| matches!(e, LoopEvent::PublishRaceDetected { .. })),
            chaos_injected: count(|e| matches!(e, LoopEvent::ChaosInjected { .. })),
            final_version: self.serving_version(),
            live_accuracy: merged(&self.live).accuracy(),
            frozen_accuracy: merged(&self.frozen_scores).accuracy(),
            per_metric,
            journal_digest: journal_digest(&self.journal),
            store_fingerprint: rc_store::fingerprint(self.store()),
        }
    }

    // --- Tick stages ---

    /// Generates (and, on dirty ticks, corrupts), shifts, and cleans the
    /// tick's telemetry window.
    fn ingest_window(&mut self, tick: u32) -> Trace {
        // Every tick replays the same archived window — the same tenant
        // fleet, so published per-subscription feature data stays
        // addressable; chaos and shifts still key off the absolute tick.
        let trace_config = TraceConfig {
            seed: self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            days: self.config.window_days,
            n_subscriptions: self.config.n_subscriptions,
            target_vms: self.config.window_vms,
            n_regions: 2,
        };
        let (mut trace, quarantined_stream) = match self.config.chaos.dirty_rate(tick) {
            Some(rate) => {
                let plan = DirtyPlan::uniform(trace_config.seed ^ (0xD1127 + tick as u64), rate);
                let (trace, report) = DirtyVmStream::new(&trace_config, plan).collect_trace();
                (trace, report.total())
            }
            None => (VmStream::new(&trace_config).collect_trace(), 0),
        };
        for shift in &self.config.shifts {
            if shift.active(tick) {
                apply_shift(&mut trace, shift, shift.intensity(tick));
            }
        }
        // Slow-degrading telemetry: every reading stays individually
        // valid (cleanup keeps it), but the distribution creeps away
        // from the training baseline as the episode's severity ramps.
        let severity = self.config.chaos.degrade_severity(tick);
        if severity > 0.0 {
            let model = self.config.chaos.telemetry_degrade;
            for (i, util) in trace.util.iter_mut().enumerate() {
                model.degrade_util(i as u64, severity, util);
            }
            let kind = format!("degrade_telemetry:{severity:.2}");
            self.record(tick, LoopEvent::ChaosInjected { kind });
        }
        if self.config.chaos.skews_clock(tick) {
            let model = self.config.chaos.telemetry_degrade;
            for (i, vm) in trace.vms.iter_mut().enumerate() {
                model.skew_clock(i as u64, 1.0, vm);
            }
            self.record(tick, LoopEvent::ChaosInjected { kind: "clock_skew".to_string() });
        }
        let (cleaned, report) = cleanup(&trace);
        let cleaned = cleaned.into_owned();
        let quarantined = report.quarantined() + quarantined_stream;
        self.record(tick, LoopEvent::WindowIngested { vms: cleaned.vms.len() as u64, quarantined });
        cleaned
    }

    /// Replays the evaluation slice through the serving and frozen
    /// clients, feeding the drift monitor with the serving side's
    /// outcomes. Before the first promotion nothing is resident and
    /// nothing is scored.
    fn evaluate_live(&mut self, tick: u32, vms: &[LabeledVm], deployments: &[LabeledDeployment]) {
        let mut next_id = (tick as u64) << 32;
        for metric in PredictionMetric::ALL {
            let name = metric.model_name();
            for (inputs, truth) in examples(metric, vms, deployments) {
                if let Some(predicted) = predict(&self.serving, metric, inputs) {
                    self.tracker.record_prediction(name, next_id, predicted);
                    self.tracker.record_outcome(name, next_id, truth);
                    next_id += 1;
                    self.live[metric.index()].record(truth, predicted, true);
                }
                let frozen = self.frozen.as_ref().and_then(|f| predict(f, metric, inputs));
                if let Some(predicted) = frozen {
                    self.frozen_scores[metric.index()].record(truth, predicted, true);
                }
            }
        }
    }

    /// Serving metrics whose drift signal currently reads `Drifting`.
    fn drifting_metrics(&self) -> Vec<String> {
        let serving = self.serving.get_available_models();
        PredictionMetric::ALL
            .iter()
            .map(|metric| metric.model_name())
            .filter(|name| serving.iter().any(|s| s == name))
            .filter(|name| self.tracker.drift(name) == DriftSignal::Drifting)
            .map(str::to_string)
            .collect()
    }

    fn retrain_reason(&self, tick: u32, drifting: &[String]) -> Option<RetrainReason> {
        if self.promoted_baselines.is_empty() {
            return Some(RetrainReason::Bootstrap);
        }
        if !drifting.is_empty() {
            return Some(RetrainReason::Drift { metrics: drifting.to_vec() });
        }
        // The leading signal fires on input distributions alone — the
        // whole point is to retrain before accuracy falls, so it ranks
        // above cadence but below hard label-based evidence.
        if !self.config.leading_observe_only {
            let features = self.leading.drifting_features();
            if !features.is_empty() {
                return Some(RetrainReason::LeadingDrift { features });
            }
        }
        if self.config.retrain_every > 0 {
            let since = tick - self.last_retrain_tick.unwrap_or(0);
            if since >= self.config.retrain_every {
                return Some(RetrainReason::Cadence);
            }
        }
        None
    }

    /// Journals `event` and moves its `rc_loop_*` counter: the one
    /// write path, so the counters can never disagree with the journal.
    fn record(&mut self, tick: u32, event: LoopEvent) {
        if let Some(name) = event.counter() {
            self.registry.counter(name).increment();
        }
        self.journal.push(TickEvent { tick, event });
    }
}

/// One tick's ingested telemetry, bundled for the retrain path: the
/// (possibly chaos-shifted) window, its distribution sketch, and the
/// resolved-label slices used for shadow evaluation.
struct IngestedWindow<'a> {
    window: &'a Trace,
    sketch: &'a WindowSketch,
    eval_vms: &'a [LabeledVm],
    eval_deps: &'a [LabeledDeployment],
}

impl LoopController {
    /// Train → shadow-evaluate → (maybe) promote. Every early return is
    /// a contained failure: the store's manifest has not moved.
    fn do_retrain(&mut self, tick: u32, reason: RetrainReason, ingested: &IngestedWindow<'_>) {
        let IngestedWindow { window, sketch, eval_vms, eval_deps } = *ingested;
        self.last_retrain_tick = Some(tick);
        self.record(tick, LoopEvent::RetrainScheduled { reason });

        // Train — on a sabotaged copy of the window when chaos says so.
        let train_trace;
        let train_on: &Trace = if self.config.chaos.degrades_candidate(tick) {
            train_trace = garble(window);
            &train_trace
        } else {
            window
        };
        let mut pipeline_config = PipelineConfig::fast(self.config.window_days);
        pipeline_config.fail_train = self.config.chaos.train_faults(tick);
        let output = match run_pipeline(train_on, &pipeline_config) {
            Ok(output) => output,
            Err(e) => {
                self.record(tick, LoopEvent::RetrainFailed { error: format!("{e:?}") });
                return;
            }
        };
        for (metric, _) in &output.quarantined_metrics {
            let metric = metric.model_name().to_string();
            self.record(tick, LoopEvent::MetricQuarantined { metric });
        }

        // Shadow-evaluate the candidate against the serving client on the
        // replay slice. No store write, no tracker write: invisible.
        let comparison = shadow_compare(
            &self.serving,
            Predictor::new(&output.models, &output.feature_data),
            &eval_vms[..eval_vms.len().min(self.config.shadow_slice)],
            &eval_deps[..eval_deps.len().min(self.config.shadow_slice)],
        );
        for row in &comparison.rows {
            self.registry
                .gauge(&acc_gauge_name(rc_obs::LOOP_SHADOW_ACCURACY, &row.metric))
                .set(row.candidate);
            self.registry
                .gauge(&acc_gauge_name(rc_obs::LOOP_SHADOW_PREDICTION_PSI, &row.metric))
                .set(row.prediction_psi);
        }
        let ShadowComparison { serving_mean, candidate_mean, .. } = comparison;
        self.record(tick, LoopEvent::ShadowEvaluated { serving_mean, candidate_mean });
        if self.serving_version() > 0 {
            if let Some(reason) = comparison.rejection(&self.config) {
                self.record(tick, LoopEvent::ShadowRejected { reason });
                return;
            }
        }

        // Quarantine check on the candidate's *content*: version numbers
        // recycle after a rollback and the same bad bytes can be
        // retrained — the digest is what must never serve again.
        let digest = models_digest(
            output.models.iter().map(|m| (m.spec.store_key(), checksum(&rc_ml::to_bytes(m)))),
        );
        if self.quarantine.contains_digest(digest) {
            self.record(tick, LoopEvent::QuarantineBlocked { digest });
            return;
        }

        // Promote: gate + two-phase atomic publish. A scheduled store
        // outage arms here so it strikes mid-flip.
        if let Some(budget) = self.config.chaos.outage_budget(tick) {
            self.store.arm_put_outage(budget);
        }
        match output.publish_gated(self.store(), self.config.gate) {
            Ok(version) => {
                self.record(tick, LoopEvent::Promoted { version });
                self.load_serving(tick, version);
                // The promoted models trained on this window, so its
                // sketch becomes the leading monitor's new reference
                // frame — persisted next to the version so a rollback
                // can restore the matching baseline. Best-effort: a
                // store fault here costs only leading coverage, never
                // the promotion.
                let _ = self.store.put(&sketch_key(version), Bytes::from(sketch.to_bytes()));
                self.leading.set_baseline(Some(sketch.clone()));
                // A flip invalidates the rolling comparison window: old
                // outcomes judge a model that is no longer serving. Start
                // the drift monitor fresh, with the held-out validation
                // accuracies as this version's expectation.
                let baselines: Vec<(String, f64)> = output
                    .reports
                    .iter()
                    .map(|r| (r.metric.model_name().to_string(), r.accuracy))
                    .collect();
                self.tracker.reset(&baselines);
                self.promoted_baselines.insert(version, baselines);
                if self.frozen.is_none() {
                    // Left unset if this load falls short; the next
                    // promotion tries again.
                    let frozen = loop_client(&self.store);
                    if reload(&frozen, version) {
                        self.frozen = Some(frozen);
                    } else {
                        self.record(tick, LoopEvent::FrozenLoadIncomplete { expected: version });
                    }
                }
                self.phase = Phase::Watching { remaining: self.config.watch_ticks };
            }
            Err(rc_core::PipelineError::PublishRaced(race)) => {
                // A concurrent publish moved the pointer between our
                // read and our flip. Backing off (instead of blindly
                // overwriting) is the whole contract: the racer's
                // version keeps serving, and the next tick's drift
                // evidence decides whether to retrain again.
                let (expected, actual) = (race.expected, race.actual);
                self.record(tick, LoopEvent::PublishRaceDetected { expected, actual });
            }
            Err(e) => self.record(tick, LoopEvent::PublishFailed { error: format!("{e:?}") }),
        }
    }

    /// Post-flip regression: quarantine the content digest the manifest
    /// pointer names (the version just promoted), then roll the pointer
    /// back to `last_good`.
    fn do_rollback(&mut self, tick: u32) {
        self.phase = Phase::Steady;
        let manifest = match Manifest::read_current(self.store()) {
            Ok(Some(m)) => m,
            Ok(None) => return self.rollback_failed(tick, RollbackError::NoManifest),
            Err(e) => return self.rollback_failed(tick, RollbackError::Store(e)),
        };
        if !manifest.can_rollback() {
            // Nothing to roll back *to*. Degrade the tick, keep serving,
            // never wedge.
            self.record(tick, LoopEvent::RollbackUnavailable);
            return;
        }
        let digest = manifest_models_digest(&manifest);
        self.quarantine.insert(manifest.version, digest);
        if let Err(e) = self.quarantine.save(self.store()) {
            self.record(tick, LoopEvent::QuarantineSaveFailed { error: format!("{e:?}") });
        }
        match rollback(self.store()) {
            Ok(to_version) => {
                self.record(tick, LoopEvent::RolledBack { to_version, quarantined_digest: digest });
                self.load_serving(tick, to_version);
                // Same reasoning as promotion: the bad model's outcomes
                // must not be held against the restored one. Fresh
                // monitor, restored version's own expectations.
                let baselines =
                    self.promoted_baselines.get(&to_version).cloned().unwrap_or_default();
                self.tracker.reset(&baselines);
                // The restored version trained on a different window;
                // re-seat the leading baseline to match (inert until
                // the next promotion if the sketch is unreadable).
                let restored = self
                    .store
                    .get_latest(&sketch_key(to_version))
                    .ok()
                    .and_then(|rec| WindowSketch::from_bytes(&rec.data));
                self.leading.set_baseline(restored);
            }
            Err(e) => self.rollback_failed(tick, e),
        }
    }

    /// A rollback that could not run journals as a failed publish: the
    /// manifest did not move.
    fn rollback_failed(&mut self, tick: u32, e: RollbackError) {
        self.record(tick, LoopEvent::PublishFailed { error: format!("rollback: {e:?}") });
    }

    /// Reloads the serving client onto version `expected`: after a flip,
    /// and on every later tick until a reload completes. An incomplete
    /// one is journaled, which degrades the tick.
    fn load_serving(&mut self, tick: u32, expected: u64) {
        if reload(&self.serving, expected) {
            self.reload_pending = None;
        } else {
            let serving = self.serving_version();
            self.record(tick, LoopEvent::ServeReloadIncomplete { expected, serving });
            self.reload_pending = Some(expected);
        }
    }
}

// --- Shadow comparison ---

struct ShadowRow {
    metric: String,
    serving: f64,
    candidate: f64,
    /// PSI between the serving and candidate predicted-bucket
    /// distributions on the replay slice (0 with no serving set) — the
    /// shadow-side leading indicator: a candidate that predicts a
    /// wildly different bucket mix than the incumbent is suspect even
    /// when its accuracy happens to look fine on the slice.
    prediction_psi: f64,
}

struct ShadowComparison {
    rows: Vec<ShadowRow>,
    serving_mean: f64,
    candidate_mean: f64,
}

impl ShadowComparison {
    /// `Some(reason)` when the candidate must not be promoted.
    fn rejection(&self, config: &LoopConfig) -> Option<String> {
        if self.candidate_mean + config.promote_margin < self.serving_mean {
            return Some(format!(
                "candidate mean {:.3} below serving mean {:.3}",
                self.candidate_mean, self.serving_mean
            ));
        }
        for row in &self.rows {
            if row.candidate < row.serving - config.shadow_margin {
                return Some(format!(
                    "{} regressed {:.3} -> {:.3}",
                    row.metric, row.serving, row.candidate
                ));
            }
            if row.prediction_psi > config.shadow_psi_limit {
                return Some(format!(
                    "{} prediction distribution shifted (psi {:.3} > {:.3})",
                    row.metric, row.prediction_psi, config.shadow_psi_limit
                ));
            }
        }
        None
    }
}

/// Scores the serving client and the candidate on the replay slice.
/// Metrics are compared only where the candidate has a model and at least
/// one example scored, and only on the examples the candidate answered;
/// an example serving gives no answer for counts as a serving miss.
/// Before the first promotion the serving client answers no prediction.
fn shadow_compare(
    serving: &RcClient,
    candidate: Predictor<'_>,
    vms: &[LabeledVm],
    deployments: &[LabeledDeployment],
) -> ShadowComparison {
    let mut rows = Vec::new();
    for metric in PredictionMetric::ALL {
        if !candidate.has_model(metric) {
            continue;
        }
        let (mut served, mut shadowed) = (Scorecard::default(), Scorecard::default());
        for (inputs, truth) in examples(metric, vms, deployments) {
            let Some(c) = candidate.predict(metric, inputs) else { continue };
            shadowed.record(truth, c, true);
            match predict(serving, metric, inputs) {
                Some(s) => served.record(truth, s, true),
                None => served.record_unanswered(),
            }
        }
        if shadowed.answered() > 0 {
            let served_buckets = served.predicted_histogram();
            let prediction_psi = if served_buckets.is_empty() {
                0.0
            } else {
                counts_psi(&served_buckets, &shadowed.predicted_histogram())
            };
            rows.push(ShadowRow {
                metric: metric.model_name().to_string(),
                serving: served.accuracy(),
                candidate: shadowed.accuracy(),
                prediction_psi,
            });
        }
    }
    let mean = |f: fn(&ShadowRow) -> f64, rows: &[ShadowRow]| {
        if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(f).sum::<f64>() / rows.len() as f64
        }
    };
    ShadowComparison {
        serving_mean: mean(|r| r.serving, &rows),
        candidate_mean: mean(|r| r.candidate, &rows),
        rows,
    }
}

// --- Helpers ---

/// The examples a tick scores for `metric`: every VM or deployment of
/// the slice with a label for it, as its inputs and true bucket.
fn examples<'a>(
    metric: PredictionMetric,
    vms: &'a [LabeledVm],
    deployments: &'a [LabeledDeployment],
) -> impl Iterator<Item = (&'a ClientInputs, usize)> {
    let vms = vms.iter().filter_map(move |vm| Some((&vm.inputs, vm_truth(metric, vm)?)));
    let deps =
        deployments.iter().filter_map(move |d| Some((&d.inputs, deployment_truth(metric, d)?)));
    vms.chain(deps)
}

fn vm_truth(metric: PredictionMetric, vm: &LabeledVm) -> Option<usize> {
    match metric {
        PredictionMetric::AvgCpuUtil => Some(vm.obs.avg_bucket),
        PredictionMetric::P95MaxCpuUtil => Some(vm.obs.p95_bucket),
        PredictionMetric::Lifetime => Some(vm.obs.lifetime_bucket),
        PredictionMetric::WorkloadClass => vm.obs.class,
        _ => None,
    }
}

fn deployment_truth(metric: PredictionMetric, dep: &LabeledDeployment) -> Option<usize> {
    match metric {
        PredictionMetric::DeploymentSizeVms => Some(dep.obs.vms_bucket),
        PredictionMetric::DeploymentSizeCores => Some(dep.obs.cores_bucket),
        _ => None,
    }
}

/// Applies a workload shift in place at `intensity` ∈ [0, 1]: the
/// multiplier and offset interpolate linearly from the identity (0) to
/// their configured values (1), which is what lets a ramped shift move
/// the distribution a little per window.
fn apply_shift(trace: &mut Trace, shift: &WorkloadShift, intensity: f64) {
    let base_mul = 1.0 + (shift.base_mul - 1.0) * intensity;
    let base_add = shift.base_add * intensity;
    let p95_mul = 1.0 + (shift.p95_mul - 1.0) * intensity;
    let p95_add = shift.p95_add * intensity;
    for util in &mut trace.util {
        util.base = (util.base * base_mul + base_add).clamp(0.01, 0.98);
        util.p95_level = (util.p95_level * p95_mul + p95_add).clamp(util.base, 0.99);
    }
}

/// Store key the training-window sketch for `version` persists under.
fn sketch_key(version: u64) -> String {
    format!("sketch/v{version}")
}

/// Sketches the feature distributions the leading monitor watches: the
/// cleaned window's utilization parameters, VM lifetimes, and SKU
/// sizes, each over a fixed range so sketches from different windows
/// share bin edges.
fn sketch_window(trace: &Trace) -> WindowSketch {
    let mut sketch = WindowSketch::new();
    for (vm, util) in trace.vms.iter().zip(&trace.util) {
        sketch.record("util_base", 0.0, 1.0, util.base);
        sketch.record("util_p95", 0.0, 1.0, util.p95_level);
        sketch.record("lifetime_hours", 0.0, 720.0, vm.lifetime().as_hours_f64());
        sketch.record("cores", 0.0, 32.0, vm.sku.cores as f64);
    }
    sketch
}

/// A sabotaged copy of the window: utilization inverted, so a model
/// trained on it fits the garbled labels (its own test split looks fine)
/// while being systematically wrong about the real workload.
fn garble(trace: &Trace) -> Trace {
    let mut garbled = trace.clone();
    for util in &mut garbled.util {
        util.base = (0.95 - util.base).clamp(0.01, 0.95);
        util.p95_level = (0.99 - util.p95_level).clamp(util.base, 0.99);
    }
    garbled
}

/// A push-mode client over the loop's store: no disk cache, no watcher.
/// The loop only predicts through [`predict`], which bypasses the result
/// cache, so it gets the smallest one the client accepts.
fn loop_client(store: &Arc<ChaosStore>) -> RcClient {
    RcClient::with_backend(
        store.clone(),
        ClientConfig {
            mode: CacheMode::Push,
            result_cache_capacity: 1,
            disk_cache_dir: None,
            auto_refresh_interval: None,
            ..ClientConfig::default()
        },
    )
}

/// Reloads `client` from the store's current manifest. `true` when it
/// landed on version `expected` and every payload the manifest names was
/// fetched and accepted; otherwise the previous resident model keeps
/// answering for each slot the load could not fill (and a feature record
/// it could not fill is gone).
fn reload(client: &RcClient, expected: u64) -> bool {
    let skipped = |c: &RcClient| {
        c.model_rejected_count() + c.corrupt_payload_count() + c.unfetched_payload_count()
    };
    let before = skipped(client);
    client.force_reload_cache();
    skipped(client) == before && client.manifest_version() == Some(expected)
}

/// The bucket `client` predicts for `metric` from its resident models
/// and feature records; `None` for no prediction. Scored predictions must
/// be exact, so this never answers from the result cache, whose key
/// buckets deployment time by day.
fn predict(client: &RcClient, metric: PredictionMetric, inputs: &ClientInputs) -> Option<usize> {
    client.predict_uncached(metric.model_name(), inputs).map(|p| p.value)
}

/// FNV-1a over the serialized journal: the reproducibility witness.
pub(crate) fn journal_digest(journal: &[TickEvent]) -> u64 {
    let bytes = serde_json::to_vec(&journal.to_vec()).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64, ticks: u32) -> LoopConfig {
        LoopConfig {
            seed,
            ticks,
            window_days: 16,
            n_subscriptions: 80,
            window_vms: 2_200,
            retrain_every: 6,
            eval_per_tick: 250,
            shadow_slice: 200,
            ..LoopConfig::default()
        }
    }

    #[test]
    fn bootstrap_promotes_and_loop_settles() {
        let mut controller = LoopController::new(tiny_config(11, 3));
        controller.run_tick();
        assert_eq!(controller.serving_version(), 1, "bootstrap publishes v1 on the first tick");
        controller.run_tick();
        controller.run_tick();
        let summary = controller.summary();
        assert_eq!(summary.promotions, 1);
        assert_eq!(summary.rollbacks, 0);
        assert_eq!(summary.windows_ingested, 3);
        assert!(summary.live_accuracy > 0.5, "live accuracy {}", summary.live_accuracy);
    }

    #[test]
    fn same_seed_same_journal_digest() {
        let a = LoopController::new(tiny_config(7, 4)).run();
        let b = LoopController::new(tiny_config(7, 4)).run();
        assert_eq!(a.journal_digest, b.journal_digest);
        assert_eq!(a.store_fingerprint, b.store_fingerprint);
        assert_eq!(serde_json::to_vec(&a).unwrap(), serde_json::to_vec(&b).unwrap());
        let c = LoopController::new(tiny_config(8, 4)).run();
        assert_ne!(a.journal_digest, c.journal_digest, "different seed, different soak");
    }

    /// Over the recorded seed-19 soak (five promotions, one rollback):
    /// the serving client is on the version the store's manifest pointer
    /// names and the loop reports, the frozen client never leaves version
    /// 1, and neither client's result cache is ever read or filled, so no
    /// prediction after a flip is answered from the previous version's
    /// entries.
    #[test]
    fn flips_reload_the_serving_client_and_the_frozen_client_stays_on_v1() {
        let anomaly = WorkloadShift {
            from_tick: 8,
            until_tick: 9,
            base_mul: 0.35,
            base_add: 0.05,
            p95_mul: 0.4,
            p95_add: 0.08,
            ramp_ticks: 0,
        };
        let mut controller = LoopController::new(LoopConfig {
            seed: 19,
            ticks: 12,
            retrain_every: 3,
            watch_ticks: 2,
            shifts: vec![WorkloadShift::surge(5), anomaly],
            chaos: ChaosPlan { degrade_candidate_at: vec![6], ..ChaosPlan::default() },
            ..LoopConfig::default()
        });
        let mut execs = 0;
        for tick in 0..12 {
            controller.run_tick();
            let pointer = Manifest::read_current(controller.store()).unwrap().expect("published");
            assert_eq!(controller.serving.manifest_version(), Some(pointer.version));
            assert_eq!(controller.serving_version(), pointer.version);
            let frozen = controller.frozen.as_ref().expect("loaded on the bootstrap tick");
            assert_eq!(frozen.manifest_version(), Some(1), "the frozen client never reloads");

            for client in [&controller.serving, frozen] {
                assert_eq!(client.lookup_count(), 0, "scored past the result cache");
                assert_eq!(client.result_cache_len(), 0);
            }
            // Nothing was resident while the bootstrap tick evaluated.
            let answered = controller.serving.model_exec_count() > execs;
            assert_eq!(answered, tick > 0, "the serving client answers");
            execs = controller.serving.model_exec_count();
        }
        let summary = controller.summary();
        assert_eq!((summary.promotions, summary.rollbacks), (5, 1));
        assert!(!controller
            .journal
            .iter()
            .any(|e| matches!(e.event, LoopEvent::ServeReloadIncomplete { .. })));
    }

    #[test]
    fn garbled_window_trains_a_plausible_but_wrong_candidate() {
        let config = tiny_config(13, 1);
        let mut controller = LoopController::new(config);
        let window = controller.ingest_window(0);
        let garbled = garble(&window);
        // The garbled trace still trains fine — the sabotage is only
        // visible against the *real* window's labels.
        let output = run_pipeline(&garbled, &PipelineConfig::fast(16)).expect("trains");
        assert!(!output.models.is_empty());
    }
}
