//! `place`: one `Scheduler::schedule` per arrival of a pre-materialised
//! stream, with departures completed from a harness-side heap, through
//! `RcSource(RcClient)` at the stream's natural hit ratio.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rc_scheduler::{
    suggest_server_count_stream, Placement, PolicyKind, RcSource, Scheduler, SchedulerConfig,
    StreamRequestSource, VmRequest,
};
use rc_trace::{TraceConfig, VmStream};
use rc_types::metrics::PredictionMetric;
use rc_types::time::{Duration, Timestamp};

use crate::spans::{timed, OpTrace};
use crate::window::{Counters, Report, Workload};
use crate::world::{mix, trace_config, Digest, World, DAYS};

/// Physical cores and memory of one server (the paper's cluster).
pub const SERVER_CORES: f64 = 16.0;
pub const SERVER_MEMORY_GB: f64 = 112.0;

/// Fleet size over the stream's peak core demand. Above 1 so that the
/// soft policy never fails a placement: an op that fails has no latency.
const HEADROOM: f64 = 1.10;

/// The arrival stream's trace: the world's subscriptions (same seed and
/// count, so the client holds their feature records) at eight times the
/// VM rate.
pub fn stream_config() -> TraceConfig {
    let world = trace_config();
    TraceConfig { target_vms: 8 * world.target_vms, ..world }
}

/// Every arrival of the stream's window, in arrival order. The seed moves
/// the deployment times the client sees by whole weeks: hour and weekday,
/// and with them every prediction and placement, stay as they were, while
/// every result-cache key (it buckets time by day) is a different one.
pub fn materialise_stream(seed: u64) -> Vec<VmRequest> {
    let shift = Duration::from_days(7 * (mix(seed, 0x9A) % 520));
    StreamRequestSource::new(
        VmStream::new(&stream_config()),
        Timestamp::ZERO,
        Timestamp::from_days(DAYS as u64),
        SERVER_CORES as u32,
        None,
    )
    .map(|mut req| {
        req.inputs.deployment_time = req.inputs.deployment_time.plus(shift);
        req
    })
    .collect()
}

pub fn fleet_size(stream: &[VmRequest]) -> usize {
    suggest_server_count_stream(stream.iter().copied(), SERVER_CORES, HEADROOM)
}

pub fn new_scheduler(world: &World, n_servers: usize) -> Scheduler {
    Scheduler::new(
        n_servers,
        SERVER_CORES,
        SERVER_MEMORY_GB,
        SchedulerConfig::new(PolicyKind::RcInformedSoft),
        Box::new(RcSource::new(world.client.clone())),
    )
}

/// The counters `place` reconciles over the window.
const COUNTERS: [&str; 7] = [
    rc_obs::SCHED_PLACEMENTS,
    rc_obs::SCHED_FAILURES,
    rc_obs::CLIENT_LOOKUPS,
    rc_obs::CLIENT_RESULT_CACHE_HITS,
    rc_obs::CLIENT_FRESH_FETCHES,
    rc_obs::CLIENT_STALE_SERVES,
    rc_obs::CLIENT_DEFAULTS,
];

pub struct Place {
    world: World,
    stream: Vec<VmRequest>,
    n_servers: usize,
    scheduler: Scheduler,
    /// `(deletion second, arrival index)` of every VM still placed.
    departures: BinaryHeap<Reverse<(u64, u32)>>,
    placed: Vec<Option<Placement>>,
    next: usize,
    before: Counters<7>,
    first_pass_digest: u64,
}

impl Place {
    /// Starts a pass over the stream from an empty fleet and a cold result
    /// cache, so that every pass sees the same hits and misses.
    fn restart(&mut self) {
        self.world.client.clear_result_cache();
        self.scheduler = new_scheduler(&self.world, self.n_servers);
        self.departures.clear();
        self.next = 0;
    }

    fn step(&mut self, mut trace: OpTrace<'_>) -> bool {
        if self.next == self.stream.len() {
            self.restart();
        }
        let i = self.next;
        self.next += 1;
        let req = &self.stream[i];
        let now = req.created.as_secs();
        while let Some(&Reverse((deleted, j))) = self.departures.peek() {
            if deleted > now {
                break;
            }
            self.departures.pop();
            let j = j as usize;
            let placement = self.placed[j].take().expect("departing VM was placed");
            timed(&mut trace, "scheduler.complete", i as u64, 1, || {
                self.scheduler.complete(&self.stream[j], placement)
            });
        }
        let placement =
            timed(&mut trace, "scheduler.schedule", i as u64, 1, || self.scheduler.schedule(req));
        self.placed[i] = placement;
        if placement.is_some() {
            self.departures.push(Reverse((req.deleted.as_secs(), i as u32)));
        }
        placement.is_some()
    }
}

impl Workload for Place {
    const BATCH: usize = 32;
    // A sampled batch is some 65 spans: itself, 32 schedules, the departures.
    const SPAN_STRIDE: u64 = 512;
    const OP_SPAN: &'static str = "place.arrival";

    fn setup(seed: u64) -> Self {
        let world = World::build();
        let stream = materialise_stream(seed);
        let n_servers = fleet_size(&stream);
        let scheduler = new_scheduler(&world, n_servers);
        let mut place = Place {
            placed: vec![None; stream.len()],
            world,
            stream,
            n_servers,
            scheduler,
            departures: BinaryHeap::new(),
            next: 0,
            before: Counters::read(COUNTERS),
            first_pass_digest: 0,
        };
        // Warm-up: one full pass, whose placements are the `det:` line.
        let p95 = PredictionMetric::P95MaxCpuUtil.model_name();
        let mut d = Digest::new();
        for i in 0..place.stream.len() {
            assert!(place.step(None), "the sized fleet places every arrival");
            d.add(place.placed[i].expect("placed").server as u64);
            d.add(place.stream[i].inputs.cache_key(p95));
        }
        place.first_pass_digest = d.get();
        place.restart();
        place.before = Counters::read(COUNTERS);
        place
    }

    #[inline]
    fn op(&mut self, trace: OpTrace<'_>) -> bool {
        self.step(trace)
    }

    fn verify(&mut self, ops: u64, report: &mut Report) {
        let [placements, failures, lookups, hits, fresh, stale, defaults] = self.before.deltas();
        report.check(placements + failures == ops, "placements + failures == arrivals");
        report.check(lookups == ops, "one client lookup per arrival");
        report.check(
            lookups == hits + fresh + stale + defaults,
            "lookups == hits + fresh + stale + defaults",
        );
        let fleet = &self.scheduler.fleet;
        let (alloc, busy, oversub) = fleet.recompute_aggregates();
        report.check(
            (alloc - fleet.total_alloc_cores()).abs() < 1e-6
                && busy == fleet.busy_servers()
                && oversub == fleet.oversubscribable_servers(),
            "recompute_aggregates() equals the incremental totals",
        );
        report.check(self.world.client.worker_lifecycle().live() == 0, "no client worker threads");
        report.det(&format!(
            "place world {:016x} arrivals {} servers {} first_pass {:016x}",
            self.world.digest(),
            self.stream.len(),
            self.n_servers,
            self.first_pass_digest
        ));
    }
}
