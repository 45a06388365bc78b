//! Criterion benches for the learning substrate: single-tree training
//! throughput, FFT classification, and the label extraction around it.
//! Forest and boosted fit time and forest predict latency are the
//! benchmark's `ml.forest_fit_ms`, `ml.gbt_fit_ms` and
//! `models.forest_predict_ns_p50`.

use criterion::{criterion_group, criterion_main, Criterion};
use rc_core::label_vms;
use rc_ml::{
    detect_diurnal_periodicity, BinnedDataset, Dataset, DecisionTree, PeriodicityConfig,
    PeriodicityDetector, TreeConfig,
};
use rc_trace::{Trace, TraceConfig};

fn synthetic(n: usize, nf: usize) -> Dataset {
    let mut d = Dataset::new(nf, 4);
    let mut state = 1u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
    };
    for _ in 0..n {
        let row: Vec<f64> = (0..nf).map(|_| next()).collect();
        let label = ((row[0] + 0.5).clamp(0.0, 0.999) * 4.0) as usize;
        d.push(&row, label);
    }
    d
}

fn bench_training(c: &mut Criterion) {
    let data = synthetic(5_000, 24);
    let binned = BinnedDataset::build(&data);

    c.bench_function("tree_fit_5k_x24", |b| {
        b.iter(|| DecisionTree::fit(&binned, &TreeConfig::default()))
    });

    // FFT classification of a 6-day, 5-minute series (the §3.6 analysis).
    let series: Vec<f64> = (0..6 * 288)
        .map(|i| 0.4 + 0.3 * (2.0 * std::f64::consts::PI * i as f64 / 288.0).sin())
        .collect();
    c.bench_function("fft_periodicity_6day_series", |b| {
        b.iter(|| detect_diurnal_periodicity(&series, &PeriodicityConfig::default()))
    });

    // The control loop's window (seed 19 of the benchmark's `LOOP_SEEDS`:
    // 2,788 VMs, 190 of them observed for three days or more).
    let window = Trace::generate(&TraceConfig {
        seed: 19u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        days: 18,
        n_subscriptions: 100,
        target_vms: 2_600,
        n_regions: 2,
    });
    c.bench_function("label_vms_loop_window", |b| b.iter(|| label_vms(&window, 120)));

    // One long-lived VM of that window through `Trace::workload_class`:
    // generate its six-day series, transform, test — with the detector
    // kept across calls, as label extraction keeps it.
    let long_lived = window
        .vm_ids()
        .find(|&id| {
            let (first, last) = window.vm_slots(id);
            last - first >= 6 * 288
        })
        .expect("a loop window holds VMs observed for six days");
    let mut detector = PeriodicityDetector::new(PeriodicityConfig::default());
    c.bench_function("classify_one_6day_vm", |b| {
        b.iter(|| window.workload_class(long_lived, &mut detector))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_training
}
criterion_main!(benches);
