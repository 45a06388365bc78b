//! Criterion bench for the simulated store's latency-model sampling, which
//! reproduces §6.1's 2.9 / 5.6 ms quantiles. Raw store gets and puts are
//! measured by the benchmark's layer suite (`store.*`).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rc_store::LatencyModel;

fn bench_store(c: &mut Criterion) {
    c.bench_function("latency_model_sample", |b| {
        let model = LatencyModel::paper_store();
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| std::hint::black_box(model.sample_us(&mut rng)))
    });
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
