//! Shared machinery for the experiment harness.
//!
//! Every paper table and figure has a binary in `src/bin/` that prints the
//! corresponding rows/series from a synthetic trace. Binaries share one
//! trace/pipeline configuration, scalable through the `RC_SCALE`
//! environment variable (default 1.0 ≈ a 90-day, ~80k-VM trace — small
//! enough for minutes-scale runs, large enough for stable distributions;
//! the paper's absolute counts scale linearly).

#![forbid(unsafe_code)]

use rc_core::{run_pipeline, PipelineConfig, PipelineOutput};
use rc_trace::{Trace, TraceConfig};

/// The experiment scale factor from `RC_SCALE` (clamped to `[0.05, 10]`).
pub fn scale() -> f64 {
    std::env::var("RC_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.05, 10.0)
}

/// The trace configuration all experiment binaries share.
pub fn experiment_trace_config() -> TraceConfig {
    let s = scale();
    TraceConfig {
        seed: 0x5059_2017, // SOSP 2017
        days: 90,
        n_subscriptions: ((2_000.0 * s) as usize).max(200),
        target_vms: ((80_000.0 * s) as usize).max(5_000),
        n_regions: 4,
    }
}

/// Generates the shared experiment trace (prints progress to stderr).
pub fn experiment_trace() -> Trace {
    let config = experiment_trace_config();
    eprintln!(
        "[rc-bench] generating trace: {} days, {} subscriptions, ~{} VMs (RC_SCALE={})",
        config.days,
        config.n_subscriptions,
        config.target_vms,
        scale()
    );
    let trace = Trace::generate(&config);
    eprintln!(
        "[rc-bench] generated {} VMs, {} deployments",
        trace.n_vms(),
        trace.deployments.len()
    );
    trace
}

/// The pipeline configuration used for Table 1 / Table 4 / Figure 10.
///
/// Forest/boosting sizes sit between the test-suite "fast" settings and
/// production-sized ensembles; accuracy saturates well before this.
pub fn experiment_pipeline_config(days: u32) -> PipelineConfig {
    let mut config = PipelineConfig::for_days(days);
    config.forest.n_trees = 32;
    config.gbt.n_rounds = 30;
    config
}

/// Runs the pipeline on the shared trace (the slow step of the ML
/// experiments), with progress logging.
pub fn experiment_pipeline(trace: &Trace) -> PipelineOutput {
    eprintln!("[rc-bench] running offline pipeline (train {} days)...", trace.config.days * 2 / 3);
    let started = std::time::Instant::now();
    let output = run_pipeline(trace, &experiment_pipeline_config(trace.config.days))
        .expect("pipeline on experiment trace");
    eprintln!("[rc-bench] pipeline done in {:.1?}", started.elapsed());
    output
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a horizontal rule sized for the experiment tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// How much a counter grew between two registry snapshots (0 when absent).
pub fn counter_delta(
    after: &rc_obs::MetricsSnapshot,
    before: &rc_obs::MetricsSnapshot,
    name: &str,
) -> u64 {
    after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
}

/// The observations a histogram gained between two registry snapshots
/// (empty when the histogram is absent from both).
pub fn histogram_delta(
    after: &rc_obs::MetricsSnapshot,
    before: &rc_obs::MetricsSnapshot,
    name: &str,
) -> rc_obs::HistogramSnapshot {
    match (after.histogram(name), before.histogram(name)) {
        (Some(a), Some(b)) => a.delta(b),
        (Some(a), None) => a.clone(),
        (None, _) => rc_obs::HistogramSnapshot {
            name: name.to_string(),
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        },
    }
}

/// Shared setup for the §6.2 scheduler experiments.
pub mod scheduler_harness {
    use std::collections::HashMap;
    use std::sync::Arc;

    use rc_core::{ClientConfig, RcClient, SubscriptionFeatures, TrainedModel};
    use rc_ml::Classifier;
    use rc_scheduler::{
        simulate, suggest_server_count, NoSource, OracleSource, P95Source, PolicyKind,
        SchedulerConfig, SimConfig, SimReport, VmRequest, WrongSource,
    };
    use rc_store::Store;
    use rc_trace::Trace;
    use rc_types::metrics::PredictionMetric;
    use rc_types::time::Timestamp;
    use rc_types::vm::SubscriptionId;

    /// A [`P95Source`] that models RC's production behaviour: feature data
    /// is refreshed by periodic background pushes, so a request uses the
    /// latest snapshot published at or before its deployment time.
    pub struct RefreshingSource {
        model: Arc<TrainedModel>,
        /// `(published_at_secs, records)`, ascending.
        refreshes: Arc<Vec<(u64, HashMap<SubscriptionId, SubscriptionFeatures>)>>,
    }

    impl RefreshingSource {
        /// Builds the source from a pipeline output.
        pub fn new(output: &rc_core::PipelineOutput) -> Self {
            RefreshingSource {
                model: Arc::new(output.model(PredictionMetric::P95MaxCpuUtil).clone()),
                refreshes: Arc::new(output.feature_refreshes.clone()),
            }
        }
    }

    impl P95Source for RefreshingSource {
        fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)> {
            let t = req.inputs.deployment_time.as_secs();
            // Latest snapshot published at or before the request.
            let idx = self.refreshes.partition_point(|(at, _)| *at <= t);
            let (_, records) = self.refreshes.get(idx.wrapping_sub(1))?;
            let sub = records.get(&req.inputs.subscription)?;
            if sub.is_empty() {
                return None;
            }
            let features = self.model.spec.features(&req.inputs, sub);
            let (bucket, score) = self.model.predict(&features);
            Some((bucket, score))
        }
    }

    /// Everything a scheduler experiment needs: live RC predictions and
    /// the test month's arrival stream.
    pub struct Harness {
        /// The underlying trace.
        pub trace: Trace,
        /// Client serving live predictions from the trained models.
        pub client: RcClient,
        /// Pipeline output (models + feature refreshes).
        pub output: rc_core::PipelineOutput,
        /// Arrivals of the test month.
        pub requests: Vec<VmRequest>,
        /// Utilization-accounting window.
        pub window: (Timestamp, Timestamp),
        /// Fleet size calibrated so Baseline sits at its capacity cliff.
        pub n_servers: usize,
    }

    /// A §6.2 policy variant, including the prediction-quality endpoints.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Variant {
        /// No oversubscription, no production split.
        Baseline,
        /// Oversubscription without predictions.
        Naive,
        /// Algorithm 1, soft utilization rule, live RC predictions.
        RcInformedSoft,
        /// Algorithm 1, hard utilization rule, live RC predictions.
        RcInformedHard,
        /// Soft rule with oracle predictions (RC-soft-right).
        RcSoftRight,
        /// Soft rule with always-wrong predictions (RC-soft-wrong).
        RcSoftWrong,
    }

    impl Variant {
        /// All six §6.2 variants in the paper's order.
        pub const ALL: [Variant; 6] = [
            Variant::Baseline,
            Variant::Naive,
            Variant::RcInformedSoft,
            Variant::RcInformedHard,
            Variant::RcSoftRight,
            Variant::RcSoftWrong,
        ];

        /// Display label.
        pub const fn label(self) -> &'static str {
            match self {
                Variant::Baseline => "Baseline",
                Variant::Naive => "Naive",
                Variant::RcInformedSoft => "RC-informed-soft",
                Variant::RcInformedHard => "RC-informed-hard",
                Variant::RcSoftRight => "RC-soft-right",
                Variant::RcSoftWrong => "RC-soft-wrong",
            }
        }

        /// The rule-chain policy behind the variant.
        pub const fn policy(self) -> PolicyKind {
            match self {
                Variant::Baseline => PolicyKind::Baseline,
                Variant::Naive => PolicyKind::NaiveOversub,
                Variant::RcInformedHard => PolicyKind::RcInformedHard,
                _ => PolicyKind::RcInformedSoft,
            }
        }
    }

    impl Harness {
        /// Builds the harness: train models on the first two thirds of the
        /// trace, publish, build the test month's request stream, and
        /// calibrate the fleet size so Baseline fails ~0.25% of arrivals
        /// (the paper's operating point: "0.25% of failures ... 2.5x
        /// higher than what we consider acceptable").
        pub fn build(trace: Trace) -> Harness {
            let output = crate::experiment_pipeline(&trace);
            let store = Store::in_memory();
            output.publish(&store, 0.5).expect("publish");
            let client = RcClient::new(store, ClientConfig::default());
            assert!(client.initialize(), "client must initialize");

            let test_start = Timestamp::from_days(trace.config.days as u64 * 2 / 3);
            let window_end = Timestamp::from_days(trace.config.days as u64);
            eprintln!("[rc-bench] building request stream for the test month...");
            let unfiltered = VmRequest::stream(&trace, test_start, window_end, 16);
            // Cluster selection keeps deployments that cannot fit this
            // cluster out of its stream; cap them at ~8% of the fleet (the
            // paper's largest deployments vs its 14k-core cluster).
            let fleet_cores = 16.0 * suggest_server_count(&unfiltered, 16.0, 1.0) as f64;
            let cap = ((fleet_cores * 0.08) as u32).max(64);
            let requests =
                VmRequest::stream_filtered(&trace, test_start, window_end, 16, Some(cap));
            eprintln!(
                "[rc-bench] {} arrivals in the test month ({} routed to larger clusters; deployment cap {} cores)",
                requests.len(),
                unfiltered.len() - requests.len(),
                cap
            );

            // Calibrate fleet size: search headroom for ~0.25% Baseline
            // failures.
            eprintln!("[rc-bench] calibrating fleet size to Baseline's capacity cliff...");
            let mut best = (f64::INFINITY, suggest_server_count(&requests, 16.0, 1.0));
            for headroom in [0.92, 0.95, 0.97, 0.99, 1.01, 1.04] {
                let n = suggest_server_count(&requests, 16.0, headroom);
                let report = run_with(
                    &requests,
                    n,
                    Variant::Baseline,
                    &output,
                    (test_start, window_end),
                    1.25,
                    1.0,
                    0.0,
                    4,
                );
                let miss = (report.failure_rate() - 0.0025).abs();
                eprintln!(
                    "[rc-bench]   headroom {headroom}: {n} servers -> {:.3}% failures",
                    report.failure_rate() * 100.0
                );
                if miss < best.0 {
                    best = (miss, n);
                }
            }
            eprintln!("[rc-bench] fleet size: {} servers", best.1);

            Harness {
                trace,
                client,
                output,
                requests,
                window: (test_start, window_end),
                n_servers: best.1,
            }
        }

        /// Runs one variant with the given limits.
        pub fn run(&self, variant: Variant, max_oversub: f64, max_util: f64) -> SimReport {
            self.run_shifted(variant, max_oversub, max_util, 0.0, 0)
        }

        /// Runs one variant with a utilization shift and bucket shift (the
        /// "+25% utilization" sensitivity study).
        pub fn run_shifted(
            &self,
            variant: Variant,
            max_oversub: f64,
            max_util: f64,
            util_shift: f64,
            bucket_shift: usize,
        ) -> SimReport {
            let mut report = run_with(
                &self.requests,
                self.n_servers,
                variant,
                &self.output,
                self.window,
                max_oversub,
                max_util,
                util_shift,
                1,
            );
            report.policy = variant.label().to_string();
            if bucket_shift > 0 {
                // Re-run with the shift applied inside the scheduler.
                let mut config = sim_config(self.n_servers, variant, max_oversub, max_util);
                config.util_shift = util_shift;
                config.scheduler.bucket_shift = bucket_shift;
                config.tick_stride = 1;
                let mut r = simulate(
                    &self.requests,
                    &config,
                    source_for(variant, &self.output),
                    self.window,
                );
                r.policy = variant.label().to_string();
                return r;
            }
            report
        }
    }

    fn sim_config(
        n_servers: usize,
        variant: Variant,
        max_oversub: f64,
        max_util: f64,
    ) -> SimConfig {
        let mut scheduler = SchedulerConfig::new(variant.policy());
        scheduler.max_oversub = max_oversub;
        scheduler.max_util = max_util;
        SimConfig {
            n_servers,
            cores_per_server: 16.0,
            memory_per_server_gb: 112.0,
            scheduler,
            util_shift: 0.0,
            tick_stride: 1,
            obs_tick_secs: rc_scheduler::OBS_TICK_DAILY,
            accuracy: None,
        }
    }

    fn source_for(variant: Variant, output: &rc_core::PipelineOutput) -> Box<dyn P95Source> {
        match variant {
            // Live predictions with periodically-pushed feature data —
            // RC's production configuration.
            Variant::RcInformedSoft | Variant::RcInformedHard => {
                Box::new(RefreshingSource::new(output))
            }
            Variant::RcSoftRight => Box::new(OracleSource),
            Variant::RcSoftWrong => Box::new(WrongSource),
            Variant::Baseline | Variant::Naive => Box::new(NoSource),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_with(
        requests: &[VmRequest],
        n_servers: usize,
        variant: Variant,
        output: &rc_core::PipelineOutput,
        window: (Timestamp, Timestamp),
        max_oversub: f64,
        max_util: f64,
        util_shift: f64,
        tick_stride: u64,
    ) -> SimReport {
        let mut config = sim_config(n_servers, variant, max_oversub, max_util);
        config.util_shift = util_shift;
        config.tick_stride = tick_stride;
        simulate(requests, &config, source_for(variant, output), window)
    }

    /// Prints a report row.
    pub fn print_row(report: &SimReport) {
        println!(
            "{:<18} failures {:>6} ({:>6.3}%, {:>5} prod)   >100% readings {:>7} of {:>9}   mean alloc {:>5.1}%   util {:>5.1}%   oversub srv {:>5.1}",
            report.policy,
            report.n_failures,
            report.failure_rate() * 100.0,
            report.n_failures_production,
            report.readings_above_100,
            report.total_readings,
            report.mean_alloc_fraction * 100.0,
            report.mean_util_fraction * 100.0,
            report.mean_oversubscribable_servers
        );
    }
}
