//! The offline workflow: extract → cleanup → aggregate → featurize →
//! train → validate → publish (§4.2, Figure 9).
//!
//! The sweep is careful about *time*: a VM's observed behaviour enters the
//! per-subscription aggregates only once the VM has completed, so the
//! features attached to a training example contain strictly pre-creation
//! information — no label leakage, exactly the situation the online system
//! faces. At the train/test boundary the aggregates are snapshotted; that
//! snapshot is the "feature data" RC publishes to the store, and test
//! examples are featurized against it (the paper trains on two months and
//! tests on the third, §6.1).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use serde::{Deserialize, Serialize};

use rc_ml::{
    BinnedDataset, Classifier, Dataset, GradientBoosting, GradientBoostingConfig, RandomForest,
    RandomForestConfig,
};
use rc_obs::Scorecard;
use rc_store::{checksum, FeatureEntry, Manifest, ModelEntry, StoreBackend, MANIFEST_KEY};
use rc_trace::Trace;
use rc_types::metrics::PredictionMetric;
use rc_types::vm::SubscriptionId;

use crate::cleanup::{cleanup, QuarantineReport};
use crate::features::SubscriptionFeatures;
use crate::labels::{label_deployments, label_vms, LabeledDeployment, LabeledVm};
use crate::models::{feature_store_key, Estimator, ModelApproach, ModelSpec, TrainedModel};

/// Pipeline hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Train/test boundary in days from the trace start (the paper trains
    /// on the first two of three months).
    pub train_days: f64,
    /// Confidence threshold for the `P^theta` / `R^theta` columns.
    pub theta: f64,
    /// Random-forest settings for the utilization models.
    pub forest: RandomForestConfig,
    /// Gradient-boosting settings for the remaining models.
    pub gbt: GradientBoostingConfig,
    /// Telemetry readings sampled per VM when labelling utilization.
    pub max_util_samples: usize,
    /// Interactive training examples are replicated this many times to
    /// bias the class model toward interactive recall (the paper accepts
    /// 7% interactive precision to reach 84% recall — mistaking
    /// delay-insensitive for interactive is the safe direction, §6.1).
    /// The paper's population is 99:1 DI:interactive among classified VMs;
    /// the synthetic trace is nearer 9:1, so a mild factor suffices.
    pub interactive_oversample: usize,
    /// Interval, in days, at which refreshed feature-data snapshots are
    /// captured during the test period — modelling the background pushes
    /// RC performs in production ("RC periodically produces new models
    /// and feature data for all subscriptions, and pushes them in the
    /// background", §4.2). Table 4 evaluation always uses the frozen
    /// train-boundary snapshot; the refreshed ones feed the scheduler
    /// experiments.
    pub refresh_every_days: f64,
    /// Ablation switch: when set, every example is featurized against an
    /// *empty* history record, leaving only client inputs. §6.1 claims the
    /// per-bucket history fractions are the most important attributes;
    /// comparing a run with this flag quantifies that claim.
    pub ablate_history: bool,
    /// Worker threads for the train/validate fan-out across the six
    /// per-metric models; `0` picks the available parallelism. `1`
    /// reproduces the old strictly-sequential training loop.
    pub train_workers: usize,
    /// Deterministic fault hook: metrics listed here have their training
    /// task panic, exercising per-metric fault isolation (the other
    /// metrics must train, validate, and publish). Empty in production.
    pub fail_train: Vec<PredictionMetric>,
}

impl PipelineConfig {
    /// Defaults matching the paper's two-month/one-month split for a trace
    /// of `days` days.
    pub fn for_days(days: u32) -> Self {
        PipelineConfig {
            train_days: days as f64 * 2.0 / 3.0,
            theta: 0.6,
            forest: RandomForestConfig::default(),
            gbt: GradientBoostingConfig::default(),
            max_util_samples: 300,
            interactive_oversample: 3,
            refresh_every_days: 7.0,
            ablate_history: false,
            train_workers: 0,
            fail_train: Vec::new(),
        }
    }

    /// A fast configuration for unit tests.
    pub fn fast(days: u32) -> Self {
        PipelineConfig {
            forest: RandomForestConfig { n_trees: 12, ..RandomForestConfig::default() },
            gbt: GradientBoostingConfig { n_rounds: 15, ..GradientBoostingConfig::default() },
            max_util_samples: 120,
            ..Self::for_days(days)
        }
    }
}

/// Per-bucket evaluation row (Table 4's %, P, R columns).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BucketStats {
    /// Fraction of test examples whose true bucket is this one.
    pub share: f64,
    /// Precision for the bucket.
    pub precision: f64,
    /// Recall for the bucket.
    pub recall: f64,
}

/// One metric's evaluation (one row of Table 4, plus Table 1 columns).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricReport {
    /// The metric.
    pub metric: PredictionMetric,
    /// Overall accuracy on the test set.
    pub accuracy: f64,
    /// Per-bucket stats.
    pub buckets: Vec<BucketStats>,
    /// Precision of predictions retained at the confidence threshold.
    pub p_theta: f64,
    /// Coverage at the confidence threshold.
    pub r_theta: f64,
    /// Training examples used.
    pub n_train: usize,
    /// Test examples evaluated.
    pub n_test: usize,
    /// Serialized model size in bytes (Table 1).
    pub model_size_bytes: usize,
    /// Input feature count (Table 1).
    pub n_features: usize,
    /// Feature names ranked by importance, most important first.
    pub top_features: Vec<String>,
}

/// Everything the offline pipeline produces.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The trained models in [`PredictionMetric::index`] order, minus any
    /// quarantined metrics (see [`PipelineOutput::quarantined_metrics`]).
    pub models: Vec<TrainedModel>,
    /// The published per-subscription feature data.
    pub feature_data: HashMap<SubscriptionId, SubscriptionFeatures>,
    /// Validation results per metric.
    pub reports: Vec<MetricReport>,
    /// Total serialized size of the feature data in bytes (Table 1).
    pub feature_data_bytes: usize,
    /// Test-period feature-data refreshes: `(published_at_secs, records)`,
    /// starting with the frozen train-boundary snapshot. Consumers that
    /// model RC's periodic background pushes (e.g. the §6.2 scheduler
    /// harness) pick the latest snapshot published at or before each
    /// prediction request.
    pub feature_refreshes: Vec<(u64, HashMap<SubscriptionId, SubscriptionFeatures>)>,
    /// Version string stamped on this publication.
    pub version_tag: String,
    /// Exact accounting of what the cleanup stage quarantined
    /// (`extracted == cleaned + quarantined`, per category).
    pub quarantine: QuarantineReport,
    /// Metrics whose training failed, with the captured failure message.
    /// Their models are absent from [`PipelineOutput::models`] and from
    /// any publication; the surviving metrics are unaffected.
    pub quarantined_metrics: Vec<(PredictionMetric, String)>,
}

/// Errors the pipeline can raise.
#[derive(Debug)]
pub enum PipelineError {
    /// Not enough examples on one side of the train/test split.
    InsufficientData {
        /// Which stage starved.
        what: &'static str,
    },
    /// A model failed the sanity check gating publication.
    SanityCheckFailed {
        /// The failing metric.
        metric: PredictionMetric,
        /// Its measured accuracy.
        accuracy: f64,
    },
    /// A model regressed too far below the currently published version,
    /// so the publish was blocked and `last_good` keeps serving.
    PublishBlocked {
        /// The regressing metric.
        metric: PredictionMetric,
        /// The candidate model's accuracy.
        accuracy: f64,
        /// The currently published model's accuracy.
        previous: f64,
    },
    /// A payload could not be serialized for publication.
    SerializationFailed {
        /// Which payload failed.
        what: &'static str,
    },
    /// The backing store rejected a publish write.
    StoreFailed(rc_store::StoreError),
    /// A concurrent writer moved the manifest between this publication's
    /// gate read and its pointer flip: the flip was abandoned (phase-one
    /// payloads stay unreferenced) and the racing writer's manifest keeps
    /// serving. The caller must re-read before deciding to republish.
    PublishRaced(rc_store::PublishRace),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InsufficientData { what } => {
                write!(f, "insufficient data for {what}")
            }
            PipelineError::SanityCheckFailed { metric, accuracy } => {
                write!(f, "sanity check failed for {metric}: accuracy {accuracy:.3}")
            }
            PipelineError::PublishBlocked { metric, accuracy, previous } => {
                write!(
                    f,
                    "publish blocked: {metric} regressed to {accuracy:.3} \
                     from published {previous:.3}"
                )
            }
            PipelineError::SerializationFailed { what } => {
                write!(f, "could not serialize {what}")
            }
            PipelineError::StoreFailed(e) => write!(f, "store failed: {e}"),
            PipelineError::PublishRaced(race) => race.fmt(f),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A featurized example stream for one model family.
struct Split {
    train: Dataset,
    test: Dataset,
}

impl Split {
    fn new(n_features: usize, n_classes: usize) -> Self {
        Split {
            train: Dataset::new(n_features, n_classes),
            test: Dataset::new(n_features, n_classes),
        }
    }
}

/// Runs the full offline pipeline on a trace.
///
/// # Errors
///
/// Returns [`PipelineError::InsufficientData`] when either side of the
/// train/test split is starved for any metric.
pub fn run_pipeline(
    trace: &Trace,
    config: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    let run_start = std::time::Instant::now();
    let tracer = rc_obs::global_tracer();
    let registry = rc_obs::global();
    let train_end_secs = (config.train_days * 86_400.0) as u64;

    // --- Cleanup (quarantine dirty telemetry before anything indexes,
    // sorts, or clamps it — a NaN utilization parameter or a dangling
    // deployment id would panic the stages below) ---
    let mut span = tracer.span("pipeline.cleanup");
    let (trace_cow, quarantine) = cleanup(trace);
    let trace: &Trace = trace_cow.as_ref();
    span.record("extracted", quarantine.extracted)
        .record("cleaned", quarantine.cleaned)
        .record("quarantined", quarantine.quarantined());
    span.finish();

    // --- Extraction (telemetry → labelled VMs/deployments) ---
    let mut span = tracer.span("pipeline.extract");
    let vms = label_vms(trace, config.max_util_samples);
    let deployments = label_deployments(trace);
    span.record("vms", vms.len() as u64).record("deployments", deployments.len() as u64);
    span.finish();

    // --- Aggregation prologue: order the creation stream in time ---
    enum Created<'a> {
        Vm(&'a LabeledVm),
        Dep(&'a LabeledDeployment),
    }
    let mut span = tracer.span("pipeline.order");
    let mut events: Vec<(u64, Created<'_>)> = Vec::with_capacity(vms.len() + deployments.len());
    events.extend(vms.iter().map(|v| (v.obs.created_secs, Created::Vm(v))));
    events.extend(deployments.iter().map(|d| (d.obs.created_secs, Created::Dep(d))));
    events.sort_by_key(|(t, _)| *t);
    span.record("events", events.len() as u64);
    span.finish();

    enum Completion<'a> {
        Vm(&'a LabeledVm),
        Dep(&'a LabeledDeployment),
        /// The FFT label becomes known after three days of telemetry —
        /// well before a long-running VM completes.
        Class(usize, SubscriptionId),
    }
    let mut pending: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut completions: Vec<Completion<'_>> = Vec::new();

    let mut running: HashMap<SubscriptionId, SubscriptionFeatures> = HashMap::new();
    let mut snapshot: Option<HashMap<SubscriptionId, SubscriptionFeatures>> = None;

    let spec_util = ModelSpec::for_metric(PredictionMetric::AvgCpuUtil);
    let spec_dep = ModelSpec::for_metric(PredictionMetric::DeploymentSizeVms);
    let spec_life = ModelSpec::for_metric(PredictionMetric::Lifetime);
    let spec_class = ModelSpec::for_metric(PredictionMetric::WorkloadClass);

    let mut avg = Split::new(spec_util.n_features(), 4);
    let mut p95 = Split::new(spec_util.n_features(), 4);
    let mut life = Split::new(spec_life.n_features(), 4);
    let mut class = Split::new(spec_class.n_features(), 2);
    let mut dep_vms = Split::new(spec_dep.n_features(), 4);
    let mut dep_cores = Split::new(spec_dep.n_features(), 4);

    let drain = |heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
                 completions: &Vec<Completion<'_>>,
                 running: &mut HashMap<SubscriptionId, SubscriptionFeatures>,
                 now: u64| {
        while let Some(Reverse((t, idx))) = heap.peek().copied() {
            if t > now {
                break;
            }
            heap.pop();
            match &completions[idx] {
                Completion::Vm(v) => {
                    running
                        .entry(v.inputs.subscription)
                        .or_insert_with(|| SubscriptionFeatures::new(v.inputs.subscription))
                        .observe_vm(&v.obs);
                }
                Completion::Dep(d) => {
                    running
                        .entry(d.inputs.subscription)
                        .or_insert_with(|| SubscriptionFeatures::new(d.inputs.subscription))
                        .observe_deployment(&d.obs);
                }
                Completion::Class(c, sub) => {
                    running
                        .entry(*sub)
                        .or_insert_with(|| SubscriptionFeatures::new(*sub))
                        .observe_class(*c);
                }
            }
        }
    };

    let empty = SubscriptionFeatures::default();
    let refresh_step = (config.refresh_every_days.max(0.5) * 86_400.0) as u64;
    let mut next_refresh = train_end_secs + refresh_step;
    let mut refreshes: Vec<(u64, HashMap<SubscriptionId, SubscriptionFeatures>)> = Vec::new();
    // Aggregation and featurization are one fused sweep: each creation
    // event is featurized against the aggregates as they stood at that
    // instant. The span covers both stages.
    let mut sweep_span = tracer.span("pipeline.aggregate");
    for (t, event) in &events {
        let is_test = *t >= train_end_secs;
        if is_test && snapshot.is_none() {
            // Crossing the boundary: fold in everything that completed
            // before it, then freeze the published feature data.
            drain(&mut pending, &completions, &mut running, train_end_secs);
            snapshot = Some(running.clone());
        }
        // The running aggregates keep folding completions through the test
        // period; weekly snapshots model RC's background pushes.
        drain(&mut pending, &completions, &mut running, *t);
        while is_test && *t >= next_refresh {
            refreshes.push((next_refresh, running.clone()));
            next_refresh += refresh_step;
        }
        // Test examples featurize against the frozen snapshot (set the
        // instant the sweep first crossed the boundary, just above);
        // train examples see the live aggregates.
        let features_map: &HashMap<_, _> = match &snapshot {
            Some(s) if is_test => s,
            _ => &running,
        };
        match event {
            Created::Vm(v) => {
                let sub = if config.ablate_history {
                    &empty
                } else {
                    features_map.get(&v.inputs.subscription).unwrap_or(&empty)
                };
                let urow = spec_util.features(&v.inputs, sub);
                let lrow = spec_life.features(&v.inputs, sub);
                let (avg_ds, p95_ds, life_ds) = if is_test {
                    (&mut avg.test, &mut p95.test, &mut life.test)
                } else {
                    (&mut avg.train, &mut p95.train, &mut life.train)
                };
                avg_ds.push(&urow, v.obs.avg_bucket);
                p95_ds.push(&urow, v.obs.p95_bucket);
                life_ds.push(&lrow, v.obs.lifetime_bucket);
                if let Some(c) = v.obs.class {
                    let crow = spec_class.features(&v.inputs, sub);
                    if is_test {
                        class.test.push(&crow, c);
                    } else {
                        // Oversample the rare interactive class to push its
                        // recall up, accepting low precision (§6.1).
                        let reps = if c == 1 { config.interactive_oversample.max(1) } else { 1 };
                        for _ in 0..reps {
                            class.train.push(&crow, c);
                        }
                    }
                }
                completions.push(Completion::Vm(v));
                pending.push(Reverse((v.completed_secs, completions.len() - 1)));
                if let Some(c) = v.obs.class {
                    let known_at =
                        v.obs.created_secs + (crate::labels::CLASSIFY_MIN_DAYS * 86_400.0) as u64;
                    completions.push(Completion::Class(c, v.inputs.subscription));
                    pending.push(Reverse((known_at, completions.len() - 1)));
                }
            }
            Created::Dep(d) => {
                let sub = if config.ablate_history {
                    &empty
                } else {
                    features_map.get(&d.inputs.subscription).unwrap_or(&empty)
                };
                let row = spec_dep.features(&d.inputs, sub);
                let (vms_ds, cores_ds) = if is_test {
                    (&mut dep_vms.test, &mut dep_cores.test)
                } else {
                    (&mut dep_vms.train, &mut dep_cores.train)
                };
                vms_ds.push(&row, d.obs.vms_bucket);
                cores_ds.push(&row, d.obs.cores_bucket);
                completions.push(Completion::Dep(d));
                pending.push(Reverse((d.completed_secs, completions.len() - 1)));
            }
        }
    }

    sweep_span.record("subscriptions", running.len() as u64);
    sweep_span.finish();
    tracer.event(
        "pipeline.featurize",
        vec![
            ("train_examples".to_string(), serde::Value::U64(avg.train.len() as u64)),
            ("test_examples".to_string(), serde::Value::U64(avg.test.len() as u64)),
        ],
    );

    let feature_data = match snapshot {
        Some(s) => s,
        None => return Err(PipelineError::InsufficientData { what: "test period" }),
    };
    let mut feature_refreshes = vec![(train_end_secs, feature_data.clone())];
    feature_refreshes.extend(refreshes);
    registry.counter(rc_obs::PIPELINE_FEATURE_REFRESHES).add(feature_refreshes.len() as u64);

    // --- Training & validation ---
    // The six per-metric models are independent, so they train and
    // validate concurrently on the scoped worker pool; output order stays
    // [`PredictionMetric::index`] order because the pool returns results
    // by task index. Spans and the shared train-latency histogram are
    // lock-free, so per-metric observability is unchanged.
    let splits: [(&Split, PredictionMetric); 6] = [
        (&avg, PredictionMetric::AvgCpuUtil),
        (&p95, PredictionMetric::P95MaxCpuUtil),
        (&dep_vms, PredictionMetric::DeploymentSizeVms),
        (&dep_cores, PredictionMetric::DeploymentSizeCores),
        (&life, PredictionMetric::Lifetime),
        (&class, PredictionMetric::WorkloadClass),
    ];
    for (split, metric) in &splits {
        if split.train.len() < 50 || split.test.is_empty() {
            return Err(PipelineError::InsufficientData { what: metric.label() });
        }
    }
    let train_latency = registry.histogram(rc_obs::PIPELINE_TRAIN_LATENCY_NS);
    let models_trained = registry.counter(rc_obs::PIPELINE_MODELS_TRAINED);
    let n_workers = if config.train_workers == 0 {
        rc_ml::pool::default_workers().min(splits.len())
    } else {
        config.train_workers.min(splits.len())
    };
    registry.gauge(rc_obs::PIPELINE_TRAIN_WORKERS).set(n_workers as f64);
    let trained: Vec<rc_ml::pool::TaskResult<(TrainedModel, MetricReport)>> =
        rc_ml::pool::try_map(n_workers, &splits, |_, &(split, metric)| {
            if config.fail_train.contains(&metric) {
                panic!("injected training fault for {metric}");
            }
            let mut span = tracer.span("pipeline.train");
            span.record("metric", metric.label()).record("n_train", split.train.len() as u64);
            let train_start = std::time::Instant::now();
            let spec = ModelSpec::for_metric(metric);
            let binned = BinnedDataset::build(&split.train);
            let estimator = match spec.approach {
                ModelApproach::RandomForest => {
                    Estimator::Forest(RandomForest::fit(&binned, &config.forest))
                }
                ModelApproach::GradientBoosting | ModelApproach::FftGradientBoosting => {
                    Estimator::Boosted(GradientBoosting::fit(&binned, &config.gbt))
                }
            };
            let model = TrainedModel { spec, estimator };
            train_latency.record_duration(train_start.elapsed());
            models_trained.increment();
            span.finish();

            let mut span = tracer.span("pipeline.validate");
            span.record("metric", metric.label()).record("n_test", split.test.len() as u64);
            let report = evaluate(&model, &split.test, config.theta, split.train.len());
            span.finish();
            (model, report)
        });
    // Per-metric fault isolation: a metric whose training panicked or
    // failed is quarantined — counted, reported with its failure message,
    // absent from the output — while the surviving metrics proceed to
    // validation and publication untouched.
    let mut models = Vec::with_capacity(splits.len());
    let mut reports = Vec::with_capacity(splits.len());
    let mut quarantined_metrics = Vec::new();
    let metric_quarantined = registry.counter(rc_obs::PIPELINE_METRIC_QUARANTINED);
    for (result, &(_, metric)) in trained.into_iter().zip(&splits) {
        match result {
            Ok((model, report)) => {
                models.push(model);
                reports.push(report);
            }
            Err(message) => {
                metric_quarantined.increment();
                tracer.event(
                    "pipeline.metric_quarantined",
                    vec![("metric".to_string(), serde::Value::Str(metric.label().to_string()))],
                );
                quarantined_metrics.push((metric, message));
            }
        }
    }
    if models.is_empty() {
        return Err(PipelineError::InsufficientData { what: "every metric quarantined" });
    }

    let mut feature_data_bytes = 0usize;
    for f in feature_data.values() {
        feature_data_bytes += serde_json::to_vec(f)
            .map_err(|_| PipelineError::SerializationFailed { what: "feature data" })?
            .len();
    }

    registry.counter(rc_obs::PIPELINE_RUNS).increment();
    registry.histogram(rc_obs::PIPELINE_RUN_LATENCY_NS).record_duration(run_start.elapsed());

    Ok(PipelineOutput {
        models,
        feature_data,
        reports,
        feature_data_bytes,
        feature_refreshes,
        version_tag: format!("trace-{}-train-{}d", trace.config.seed, config.train_days as u64),
        quarantine,
        quarantined_metrics,
    })
}

/// Evaluates a trained model on a test set (one Table 4 row).
fn evaluate(model: &TrainedModel, test: &Dataset, theta: f64, n_train: usize) -> MetricReport {
    let k = model.n_classes();
    let mut card = Scorecard::new(k);
    for i in 0..test.len() {
        let (pred, score) = model.predict(test.row(i));
        card.record(test.label(i), pred, score >= theta);
    }
    let buckets = (0..k)
        .map(|c| BucketStats {
            share: card.true_share(c),
            precision: card.precision(c),
            recall: card.recall(c),
        })
        .collect();

    let names = model.spec.feature_names();
    let importance = model.feature_importance();
    let mut ranked: Vec<(f64, &String)> = importance.iter().copied().zip(names.iter()).collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top_features = ranked.iter().take(8).map(|(_, n)| (*n).clone()).collect();

    MetricReport {
        metric: model.spec.metric,
        accuracy: card.accuracy(),
        buckets,
        p_theta: card.p_theta(),
        r_theta: card.r_theta(),
        n_train,
        n_test: test.len(),
        model_size_bytes: model.serialized_size(),
        n_features: model.spec.n_features(),
        top_features,
    }
}

/// The accuracy gates a publication must pass before anything is written.
#[derive(Debug, Clone, Copy)]
pub struct PublishGate {
    /// Absolute accuracy floor every model must clear.
    pub min_accuracy: f64,
    /// Maximum tolerated accuracy drop versus the same model in the
    /// currently published version (ε): a candidate more than this much
    /// worse blocks the whole publication, leaving `last_good` serving.
    pub max_regression: f64,
}

impl Default for PublishGate {
    fn default() -> Self {
        PublishGate { min_accuracy: 0.5, max_regression: 0.05 }
    }
}

impl PipelineOutput {
    /// The trained model for a metric.
    ///
    /// # Panics
    ///
    /// Panics if the metric was quarantined (its training failed); check
    /// [`PipelineOutput::quarantined_metrics`] first when that is possible.
    pub fn model(&self, metric: PredictionMetric) -> &TrainedModel {
        self.models
            .iter()
            .find(|m| m.spec.metric == metric)
            .unwrap_or_else(|| panic!("model for quarantined metric {metric}"))
    }

    /// The evaluation report for a metric.
    ///
    /// # Panics
    ///
    /// Panics if the metric was quarantined, as [`PipelineOutput::model`].
    pub fn report(&self, metric: PredictionMetric) -> &MetricReport {
        self.reports
            .iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("report for quarantined metric {metric}"))
    }

    /// Sanity-checks the models and publishes them with the default
    /// regression tolerance; see [`PipelineOutput::publish_gated`].
    ///
    /// # Errors
    ///
    /// As [`PipelineOutput::publish_gated`].
    pub fn publish<B: StoreBackend + ?Sized>(
        &self,
        store: &B,
        min_accuracy: f64,
    ) -> Result<u64, PipelineError> {
        self.publish_gated(store, PublishGate { min_accuracy, ..PublishGate::default() })
    }

    /// Two-phase atomic versioned publish (§4.2: "sanity-checks the
    /// models and feature data, and publishes them (with version numbers)
    /// to an existing highly available store").
    ///
    /// Every gate is evaluated *before* the first write: a blocked
    /// publication leaves the store byte-for-byte untouched and the
    /// currently published version serving. Then phase one writes every
    /// model and feature payload under the new `v{N}/` prefix — invisible
    /// to readers, so a crash mid-phase leaves only unreachable garbage —
    /// and phase two flips the single checksummed [`Manifest`] pointer,
    /// which also records the previous version as `last_good` for
    /// [`rc_store::rollback`]. Returns the new manifest version.
    ///
    /// # Errors
    ///
    /// [`PipelineError::SanityCheckFailed`] when a model's accuracy falls
    /// below the floor; [`PipelineError::PublishBlocked`] when a model
    /// regresses more than ε below its currently published accuracy;
    /// [`PipelineError::StoreFailed`] on store errors (phase-one failures
    /// never move the manifest).
    pub fn publish_gated<B: StoreBackend + ?Sized>(
        &self,
        store: &B,
        gate: PublishGate,
    ) -> Result<u64, PipelineError> {
        let registry = rc_obs::global();
        // The publish decomposes into nested spans — gate, payload
        // writes, pointer flip — all children of one `pipeline.publish`
        // parent, so a trace dump shows where a slow publish spent its
        // time. A blocked publish still records the parent and gate spans
        // (both finish on drop at the early return).
        let mut span = rc_obs::global_tracer().span("pipeline.publish");
        let previous = Manifest::read_current(store).map_err(PipelineError::StoreFailed)?;
        // The store version of the manifest pointer at read time: the
        // phase-two flip is conditional on it so a concurrent publisher
        // surfaces as a typed race instead of silent last-writer-wins.
        let expected_pointer = store.latest_version(MANIFEST_KEY).unwrap_or(0);

        // --- Validation gates, all before any write ---
        let mut gate_span = span.child("publish.gate");
        gate_span.record("min_accuracy", gate.min_accuracy);
        for report in &self.reports {
            if report.accuracy < gate.min_accuracy {
                registry.counter(rc_obs::PIPELINE_PUBLISH_BLOCKED).increment();
                return Err(PipelineError::SanityCheckFailed {
                    metric: report.metric,
                    accuracy: report.accuracy,
                });
            }
            let logical = ModelSpec::for_metric(report.metric).store_key();
            if let Some(entry) = previous.as_ref().and_then(|m| m.model_entry(&logical)) {
                if report.accuracy < entry.accuracy - gate.max_regression {
                    registry.counter(rc_obs::PIPELINE_PUBLISH_BLOCKED).increment();
                    return Err(PipelineError::PublishBlocked {
                        metric: report.metric,
                        accuracy: report.accuracy,
                        previous: entry.accuracy,
                    });
                }
            }
        }
        gate_span.finish();

        let published = registry.counter(rc_obs::PIPELINE_MODELS_PUBLISHED);
        let (new_version, last_good) = match &previous {
            Some(m) => (m.version + 1, m.version),
            None => (1, 0),
        };

        // --- Phase one: payloads under the unreferenced v{N}/ prefix ---
        let mut payload_span = span.child("publish.payloads");
        let mut model_entries = Vec::with_capacity(self.models.len());
        for (model, report) in self.models.iter().zip(&self.reports) {
            let logical = model.spec.store_key();
            let bytes = rc_ml::to_bytes(model);
            store
                .put(
                    &format!("{}{logical}", Manifest::version_prefix(new_version)),
                    bytes.clone().into(),
                )
                .map_err(PipelineError::StoreFailed)?;
            model_entries.push(ModelEntry {
                key: logical,
                checksum: checksum(&bytes),
                accuracy: report.accuracy,
            });
            published.increment();
        }
        // Feature records publish in subscription order so a same-seed
        // rerun produces a bit-identical store and manifest.
        let mut subs: Vec<SubscriptionId> = self.feature_data.keys().copied().collect();
        subs.sort_by_key(|s| s.0);
        let mut feature_entries = Vec::with_capacity(subs.len());
        for sub in subs {
            let features = &self.feature_data[&sub];
            let bytes = serde_json::to_vec(features)
                .map_err(|_| PipelineError::SerializationFailed { what: "feature data" })?;
            let logical = feature_store_key(sub);
            store
                .put(
                    &format!("{}{logical}", Manifest::version_prefix(new_version)),
                    bytes.clone().into(),
                )
                .map_err(PipelineError::StoreFailed)?;
            feature_entries.push(FeatureEntry { key: logical, checksum: checksum(&bytes) });
        }
        payload_span
            .record("models", model_entries.len() as u64)
            .record("feature_records", feature_entries.len() as u64);
        payload_span.finish();

        // --- Phase two: the atomic flip ---
        let mut flip_span = span.child("publish.flip");
        let manifest = Manifest::new(
            new_version,
            last_good,
            self.version_tag.clone(),
            model_entries,
            feature_entries,
        );
        store.put_if_version(MANIFEST_KEY, manifest.to_bytes(), expected_pointer).map_err(|e| {
            match e {
                rc_store::StoreError::Race(race) => {
                    registry.counter(rc_obs::PIPELINE_PUBLISH_RACES).increment();
                    PipelineError::PublishRaced(race)
                }
                other => PipelineError::StoreFailed(other),
            }
        })?;
        flip_span.record("version", new_version);
        flip_span.finish();

        span.record("models", self.models.len() as u64)
            .record("feature_records", self.feature_data.len() as u64)
            .record("version", new_version);
        span.finish();
        Ok(new_version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_store::Store;
    use rc_trace::TraceConfig;

    fn pipeline_output() -> PipelineOutput {
        let trace = Trace::generate(&TraceConfig {
            target_vms: 8_000,
            n_subscriptions: 300,
            days: 30,
            ..TraceConfig::small()
        });
        run_pipeline(&trace, &PipelineConfig::fast(30)).expect("pipeline")
    }

    #[test]
    fn pipeline_trains_six_models_with_decent_accuracy() {
        let out = pipeline_output();
        assert_eq!(out.models.len(), 6);
        assert!(out.quarantined_metrics.is_empty());
        // The generator emits only sanitized telemetry, so cleanup is the
        // identity on it — and accounts for that exactly.
        assert_eq!(out.quarantine.quarantined(), 0);
        assert!(out.quarantine.balanced());
        assert_eq!(out.quarantine.extracted, out.quarantine.cleaned);
        for report in &out.reports {
            assert!(report.n_train > 100, "{}: n_train {}", report.metric, report.n_train);
            assert!(report.n_test > 20, "{}: n_test {}", report.metric, report.n_test);
            assert!(report.accuracy > 0.55, "{}: accuracy {:.3}", report.metric, report.accuracy);
            assert!(report.p_theta >= report.accuracy - 0.05);
        }
    }

    #[test]
    fn history_features_dominate_importance() {
        // §6.1: "the most important attributes are the percentage of VMs
        // classified into each bucket to date in the subscription".
        let out = pipeline_output();
        let report = out.report(PredictionMetric::AvgCpuUtil);
        let history_in_top = report
            .top_features
            .iter()
            .take(5)
            .filter(|n| n.contains("hist_") || n.contains("mean_") || n.contains("recent_"))
            .count();
        assert!(
            history_in_top >= 2,
            "top features should be history-based: {:?}",
            report.top_features
        );
    }

    #[test]
    fn publish_writes_models_and_features() {
        let out = pipeline_output();
        let store = Store::in_memory();
        let version = out.publish(&store, 0.5).expect("publish");
        assert_eq!(version, 1);
        let manifest = Manifest::read_current(&store).expect("store up").expect("manifest");
        assert_eq!(manifest.version, 1);
        assert_eq!(manifest.last_good, 0, "first publication has nothing to roll back to");
        assert_eq!(manifest.models.len(), 6);
        assert_eq!(manifest.features.len(), out.feature_data.len());
        for metric in PredictionMetric::ALL {
            let logical = ModelSpec::for_metric(metric).store_key();
            let entry = manifest.model_entry(&logical).unwrap_or_else(|| panic!("entry {logical}"));
            let rec = store.get_latest(&manifest.versioned_key(&logical)).expect("payload");
            assert_eq!(checksum(&rec.data), entry.checksum, "checksum mismatch for {logical}");
        }
        // manifest + 6 models + one feature record per subscription.
        assert_eq!(store.keys().len(), 7 + out.feature_data.len());

        // A second publication bumps the version and records the first as
        // the rollback target.
        let v2 = out.publish(&store, 0.5).expect("second publish");
        assert_eq!(v2, 2);
        let m2 = Manifest::read_current(&store).expect("store up").expect("manifest");
        assert_eq!((m2.version, m2.last_good), (2, 1));
    }

    #[test]
    fn publish_refuses_bad_models() {
        let out = pipeline_output();
        let store = Store::in_memory();
        let err = out.publish(&store, 1.01).unwrap_err();
        assert!(matches!(err, PipelineError::SanityCheckFailed { .. }));
        // Nothing was written.
        assert!(store.keys().is_empty());
    }

    #[test]
    fn feature_refreshes_cover_the_test_period() {
        let out = pipeline_output();
        // First refresh is the frozen train-boundary snapshot (day 20 of
        // 30); weekly pushes follow.
        assert!(out.feature_refreshes.len() >= 2, "want weekly refreshes");
        let times: Vec<u64> = out.feature_refreshes.iter().map(|(t, _)| *t).collect();
        assert_eq!(times[0], 20 * 86_400);
        for w in times.windows(2) {
            assert!(w[0] < w[1], "refresh times must ascend");
        }
        // Later snapshots only grow: they fold in completions the frozen
        // snapshot has not seen.
        let first_vms: u64 = out.feature_refreshes[0].1.values().map(|f| f.n_vms).sum();
        let last_vms: u64 = out.feature_refreshes.last().unwrap().1.values().map(|f| f.n_vms).sum();
        assert!(last_vms > first_vms, "{last_vms} vs {first_vms}");
        // The frozen snapshot in `feature_data` matches refresh zero.
        let frozen: u64 = out.feature_data.values().map(|f| f.n_vms).sum();
        assert_eq!(frozen, first_vms);
    }

    #[test]
    fn feature_data_size_is_proportional_to_subscriptions() {
        let out = pipeline_output();
        let per_sub = out.feature_data_bytes as f64 / out.feature_data.len() as f64;
        // §6.1 cites ~850 bytes per subscription record.
        assert!((400.0..1_600.0).contains(&per_sub), "bytes/subscription = {per_sub}");
    }
}
