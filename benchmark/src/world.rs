//! The world the serving workloads run in: a trace, models trained on it,
//! a store they are published to and a push-mode client loaded from it.
//!
//! The trace and the training seeds are pinned. The generator is
//! heavy-tailed: at equal VM count, two generator seeds differ by a third
//! in training cost, model size and resident memory, and on one trace two
//! forest seeds still differ by 12 % in the cost of a `refresh` cycle
//! (deeper trees, more bytes, a decode that grows faster than the bytes).
//! Either would drown a 10 % bound. So `--seed` reaches what leaves the
//! amount of work alone — which requests are made and in which order,
//! which probes verify a reload, where in time the arrival stream sits,
//! which vetted window the control loop replays — and the world stays put.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rc_core::labels::vm_inputs;
use rc_core::{
    run_pipeline, CacheMode, ClientConfig, ClientInputs, PipelineConfig, PipelineOutput,
    PublishGate, RcClient,
};
use rc_store::Store;
use rc_trace::{Trace, TraceConfig};
use rc_types::metrics::PredictionMetric;
use rc_types::time::Timestamp;

/// Observation window of the pinned trace, in days.
pub const DAYS: u32 = 30;

/// Result-cache entries; `serve_miss` keeps it full.
pub const CACHE_CAPACITY: usize = 65_536;

/// Fixed, so that the cache's layout does not follow the box's CPU count.
pub const CACHE_SHARDS: usize = 16;

/// First day handed out for synthetic deployment times: far past the
/// trace, so that no request made up here collides with a real one.
const FIRST_FRESH_DAY: u64 = 10_000;

/// The pinned trace: 30 days, 400 subscriptions, about 6,000 VMs.
pub fn trace_config() -> TraceConfig {
    TraceConfig {
        seed: 0x5059_2017,
        days: DAYS,
        n_subscriptions: 400,
        target_vms: 5_000,
        n_regions: 2,
    }
}

/// Pipeline settings: serial everywhere, and small enough that `refresh`
/// fits well over fifteen cycles in a window.
pub fn pipeline_config() -> PipelineConfig {
    let mut config = PipelineConfig::for_days(DAYS);
    config.train_workers = 1;
    config.forest.n_threads = 1;
    config.forest.n_trees = 12;
    config.forest.tree.max_depth = 8;
    config.gbt.n_rounds = 10;
    config.gbt.max_depth = 4;
    config.max_util_samples = 120;
    config
}

/// The gate every publish goes through. The floors are low because the
/// benchmark times the gate, it does not tune models: no seed may be
/// refused, and a retrain on the same trace regresses by nothing.
pub const GATE: PublishGate = PublishGate { min_accuracy: 0.1, max_regression: 0.5 };

/// SplitMix64 of `seed` and a stream tag: independent sub-seeds.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of words; the `det:` lines print these.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn get(&self) -> u64 {
        self.0
    }
}

pub struct World {
    pub trace: Trace,
    pub output: PipelineOutput,
    pub store: Store,
    pub client: RcClient,
    /// VMs whose subscription has a published feature record: templates
    /// for requests the client can always answer.
    pub templates: Vec<ClientInputs>,
}

pub fn client_config() -> ClientConfig {
    ClientConfig {
        mode: CacheMode::Push,
        result_cache_capacity: CACHE_CAPACITY,
        result_cache_shards: CACHE_SHARDS,
        auto_refresh_interval: None,
        ..ClientConfig::default()
    }
}

impl World {
    /// Generates, trains (one worker), publishes and loads a client.
    pub fn build() -> World {
        let trace = Trace::generate(&trace_config());
        let output =
            run_pipeline(&trace, &pipeline_config()).expect("pipeline on the pinned trace");
        let store = Store::in_memory();
        output.publish_gated(&store, GATE).expect("first publish");
        let client = RcClient::new(store.clone(), client_config());
        assert!(client.initialize(), "client loads the published version");
        let templates = trace
            .vm_ids()
            .map(|id| vm_inputs(&trace, id))
            .filter(|inputs| output.feature_data.contains_key(&inputs.subscription))
            .collect();
        World { trace, output, store, client, templates }
    }

    /// Digest of what the world serves: the trace's size and the bytes of
    /// every trained model.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.add(self.trace.n_vms() as u64);
        for model in &self.output.models {
            d.add(rc_store::checksum(&rc_ml::to_bytes(model)));
        }
        d.get()
    }
}

/// The six model names, in [`PredictionMetric::index`] order.
pub fn model_names() -> [&'static str; 6] {
    PredictionMetric::ALL.map(|m| m.model_name())
}

/// A seeded source of requests the client can answer. Each request is a
/// real VM's inputs moved to a deployment day of its own, so its cache key
/// has never been seen; models are cycled so that every six consecutive
/// requests cover all of them.
pub struct Requests {
    rng: StdRng,
    templates: Vec<ClientInputs>,
    next: u64,
}

impl Requests {
    pub fn new(world: &World, seed: u64) -> Self {
        Requests {
            rng: StdRng::seed_from_u64(mix(seed, 0x5E)),
            templates: world.templates.clone(),
            next: 0,
        }
    }

    /// The next never-seen `(model, inputs)`.
    pub fn fresh(&mut self) -> (&'static str, ClientInputs) {
        let i = self.next;
        self.next += 1;
        let mut inputs = self.templates[self.rng.gen_range(0..self.templates.len())];
        // The key buckets time by day, so one day per round of six models
        // makes every key new; the hour keeps the template's.
        let hour_secs = inputs.deployment_time.as_secs() % 86_400;
        inputs.deployment_time =
            Timestamp::from_secs((FIRST_FRESH_DAY + i / 6) * 86_400 + hour_secs);
        (model_names()[(i % 6) as usize], inputs)
    }
}

/// The prediction the published models give for a request, computed
/// without the client: the reference `refresh` verifies reloads against.
pub fn reference_prediction(
    output: &PipelineOutput,
    model_name: &str,
    inputs: &ClientInputs,
) -> (usize, u64) {
    let metric = PredictionMetric::from_model_name(model_name).expect("known model");
    let model = output.model(metric);
    let features = model.spec.features(inputs, &output.feature_data[&inputs.subscription]);
    let (value, score) = rc_ml::Classifier::predict(model, &features);
    (value, score.to_bits())
}
