//! `serve_hit` and `serve_miss`: `RcClient::predict_single` on a cache
//! that is only read, and on one that is only written.

use rc_core::{ClientInputs, PredictionResponse};

use crate::spans::OpTrace;
use crate::window::{Counters, Report, Workload};
use crate::world::{Digest, Requests, World, CACHE_CAPACITY};

/// Keys `serve_hit` cycles through.
const WORKING_SET: usize = 16_384;

/// The counters both serve workloads reconcile over the window.
const LADDER: [&str; 10] = [
    rc_obs::CLIENT_LOOKUPS,
    rc_obs::CLIENT_RESULT_CACHE_HITS,
    rc_obs::CLIENT_FRESH_FETCHES,
    rc_obs::CLIENT_STALE_SERVES,
    rc_obs::CLIENT_DEFAULTS,
    rc_obs::CLIENT_RESULT_CACHE_MISSES,
    rc_obs::CLIENT_MODEL_EXECS,
    rc_obs::CLIENT_RESULT_CACHE_INSERTIONS,
    rc_obs::CLIENT_RESULT_CACHE_EVICTIONS,
    rc_obs::STORE_GETS,
];

/// The checks that hold on every serve window; `all_hits` says which of
/// the two windows this is.
fn verify_ladder(before: &Counters<10>, ops: u64, all_hits: bool, report: &mut Report) {
    let [lookups, hits, fresh, stale, defaults, misses, execs, insertions, evictions, store_gets] =
        before.deltas();
    report.check(lookups == ops, "one lookup per op");
    report.check(
        lookups == hits + fresh + stale + defaults,
        "lookups == hits + fresh + stale + defaults",
    );
    report.check(execs == misses, "one model exec per miss");
    report.check(store_gets == 0, "zero store gets in a serve window");
    if all_hits {
        report.check(hits == ops && misses == 0, "every op is a result-cache hit");
    } else {
        report.check(misses == ops && fresh == ops, "every op misses and executes a model");
        report.check(
            insertions == ops && evictions == ops,
            "every insert into the full cache evicts",
        );
    }
}

fn digest_of(responses: impl Iterator<Item = PredictionResponse>) -> u64 {
    let mut d = Digest::new();
    for r in responses {
        let p = r.prediction().expect("warm-up requests are answered");
        d.add(p.value as u64);
        d.add(p.score.to_bits());
    }
    d.get()
}

pub struct ServeHit {
    world: World,
    keys: Vec<(&'static str, ClientInputs)>,
    next: usize,
    before: Counters<10>,
    warm_digest: u64,
}

impl Workload for ServeHit {
    const BATCH: usize = 96;
    const SPAN_STRIDE: u64 = 64;
    const OP_SPAN: &'static str = "client.predict_single.hit";

    fn setup(seed: u64) -> Self {
        let world = World::build();
        let mut requests = Requests::new(&world, seed);
        let keys: Vec<_> = (0..WORKING_SET).map(|_| requests.fresh()).collect();
        // The first pass executes the models and fills the cache; the
        // second must already hit on every key.
        let warm_digest = digest_of(keys.iter().map(|(m, i)| world.client.predict_single(m, i)));
        let again = digest_of(keys.iter().map(|(m, i)| world.client.predict_single(m, i)));
        assert_eq!(warm_digest, again, "a hit returns what the miss computed");
        ServeHit { world, keys, next: 0, before: Counters::read(LADDER), warm_digest }
    }

    #[inline]
    fn op(&mut self, _trace: OpTrace<'_>) -> bool {
        let (model, inputs) = &self.keys[self.next];
        self.next = (self.next + 1) % WORKING_SET;
        self.world.client.predict_single(model, inputs).is_predicted()
    }

    fn verify(&mut self, ops: u64, report: &mut Report) {
        verify_ladder(&self.before, ops, true, report);
        report.check(self.world.client.worker_lifecycle().live() == 0, "no client worker threads");
        report.det(&format!(
            "serve_hit world {:016x} working_set {} warm {:016x}",
            self.world.digest(),
            WORKING_SET,
            self.warm_digest
        ));
    }
}

pub struct ServeMiss {
    world: World,
    requests: Requests,
    before: Counters<10>,
    warm_digest: u64,
}

impl Workload for ServeMiss {
    const BATCH: usize = 12;
    const SPAN_STRIDE: u64 = 16;
    const OP_SPAN: &'static str = "client.predict_single.miss";

    fn setup(seed: u64) -> Self {
        let world = World::build();
        let mut requests = Requests::new(&world, seed);
        // Fill the cache to the brim, every shard of it, so that every
        // timed insert evicts.
        let warm_digest = digest_of((0..CACHE_CAPACITY + CACHE_CAPACITY / 8).map(|_| {
            let (model, inputs) = requests.fresh();
            world.client.predict_single(model, &inputs)
        }));
        ServeMiss { world, requests, before: Counters::read(LADDER), warm_digest }
    }

    #[inline]
    fn op(&mut self, _trace: OpTrace<'_>) -> bool {
        let (model, inputs) = self.requests.fresh();
        self.world.client.predict_single(model, &inputs).is_predicted()
    }

    fn verify(&mut self, ops: u64, report: &mut Report) {
        verify_ladder(&self.before, ops, false, report);
        report.check(
            self.world.client.result_cache_len() <= CACHE_CAPACITY,
            "the cache stays within its capacity",
        );
        report.check(self.world.client.worker_lifecycle().live() == 0, "no client worker threads");
        report.det(&format!(
            "serve_miss world {:016x} warm {:016x}",
            self.world.digest(),
            self.warm_digest
        ));
    }
}
