//! `refresh`: the offline-to-online path. One op is `run_pipeline` (one
//! worker) → `publish_gated` → `RcClient::force_reload_cache` → 1,000
//! probes, each checked bit for bit against the model that was trained.

use rc_core::{run_pipeline, ClientInputs, PipelineConfig, PredictionResponse};

use crate::spans::{timed, OpTrace};
use crate::window::{Counters, Report, Workload};
use crate::world::{pipeline_config, reference_prediction, Digest, Requests, World, GATE};

const PROBES: usize = 1_000;

pub struct Refresh {
    world: World,
    config: PipelineConfig,
    probes: Vec<(&'static str, ClientInputs)>,
    cycles: u64,
    version_before: u64,
    puts_before: Counters<1>,
    probe_digest: u64,
}

impl Workload for Refresh {
    const BATCH: usize = 1;
    const SPAN_STRIDE: u64 = 1;
    const OP_SPAN: &'static str = "refresh.cycle";

    fn setup(seed: u64) -> Self {
        let world = World::build();
        let mut requests = Requests::new(&world, seed);
        let probes = (0..PROBES).map(|_| requests.fresh()).collect();
        let version_before = world.client.manifest_version().expect("published");
        let puts_before = Counters::read([rc_obs::STORE_PUTS]);
        Refresh {
            world,
            config: pipeline_config(),
            probes,
            cycles: 0,
            version_before,
            puts_before,
            probe_digest: 0,
        }
    }

    fn op(&mut self, mut trace: OpTrace<'_>) -> bool {
        let op = self.cycles;
        self.cycles += 1;
        let trained = timed(&mut trace, "pipeline.run_pipeline", op, 1, || {
            run_pipeline(&self.world.trace, &self.config)
        });
        let Ok(output) = trained else {
            return false;
        };
        let published = timed(&mut trace, "pipeline.publish_gated", op, 1, || {
            output.publish_gated(&self.world.store, GATE)
        });
        let Ok(version) = published else {
            return false;
        };
        timed(&mut trace, "client.force_reload_cache", op, 1, || {
            self.world.client.force_reload_cache()
        });
        if self.world.client.manifest_version() != Some(version) {
            return false;
        }
        let mut d = Digest::new();
        let all_equal = timed(&mut trace, "client.probes", op, PROBES as u64, || {
            self.probes.iter().all(|(model, inputs)| {
                let PredictionResponse::Predicted(p) =
                    self.world.client.predict_single(model, inputs)
                else {
                    return false;
                };
                d.add(p.value as u64);
                d.add(p.score.to_bits());
                (p.value, p.score.to_bits()) == reference_prediction(&output, model, inputs)
            })
        });
        self.probe_digest = d.get();
        self.world.output = output;
        all_equal
    }

    fn verify(&mut self, ops: u64, report: &mut Report) {
        let version = self.world.client.manifest_version().unwrap_or(0);
        report.check(version == self.version_before + ops, "manifest version +1 per refresh cycle");
        let per_cycle = 1 + self.world.output.models.len() + self.world.output.feature_data.len();
        report.check(
            self.puts_before.deltas() == [ops * per_cycle as u64],
            "store puts per cycle == models + feature records + manifest",
        );
        report.check(self.world.client.worker_lifecycle().live() == 0, "no client worker threads");
        // Every cycle retrains the same trace with the same seeds, so the
        // last cycle's probes equal the first's whatever `ops` was.
        report.det(&format!(
            "refresh world {:016x} probes {:016x}",
            self.world.digest(),
            self.probe_digest
        ));
    }
}
