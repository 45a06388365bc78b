//! The one trace path, end to end: golden digests pin what the generator,
//! the corruption driver and the request source emit, and the streaming
//! simulator must reproduce the materialized one bit for bit. A change
//! that moves a digest changes every trace-derived result (labels,
//! models, placements, `BENCH_*.json`), so re-record one only on purpose.

use rc_scheduler::{OracleSource, P95Source};
use rc_trace::{trace_fingerprint, DirtyReport};
use resource_central::prelude::*;

fn config() -> TraceConfig {
    TraceConfig { target_vms: 6_000, n_subscriptions: 250, days: 21, ..TraceConfig::small() }
}

fn sim_config(n_servers: usize) -> SimConfig {
    SimConfig {
        n_servers,
        cores_per_server: 16.0,
        memory_per_server_gb: 112.0,
        scheduler: SchedulerConfig::new(PolicyKind::RcInformedSoft),
        util_shift: 0.0,
        tick_stride: 6,
        obs_tick_secs: 0,
        accuracy: None,
    }
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bytes_digest(bytes: &[u8]) -> u64 {
    digest(bytes.iter().map(|&b| b as u64))
}

/// `(trace_fingerprint, digest of the serialized trace)`: the
/// fingerprint covers records, utilization models and deployments by bit
/// pattern; the JSON closes the gap (subscriptions, regions, intent).
fn trace_digests(trace: &Trace) -> (u64, u64) {
    (trace_fingerprint(trace), bytes_digest(&serde_json::to_vec(trace).expect("no NaNs")))
}

fn requests_digest(requests: &[VmRequest]) -> u64 {
    digest(requests.iter().flat_map(|r| {
        let inputs = bytes_digest(&serde_json::to_vec(&r.inputs).expect("serializes"));
        [
            r.vm_id.0,
            r.cores as u64,
            r.memory_gb.to_bits(),
            r.created.as_secs(),
            r.deleted.as_secs(),
            r.util.seed,
            r.util.base.to_bits(),
            r.util.p95_level.to_bits(),
            r.true_p95_bucket as u64,
            inputs,
        ]
    }))
}

#[test]
fn generated_traces_match_their_recorded_digests() {
    let golden = [
        (config(), (0xf7ad_7381_5b5f_c9fd, 0x69f6_edf7_dc2c_436c)),
        (TraceConfig::small(), (0x8638_e350_1a52_ea56, 0x80fe_8671_3953_7f4f)),
    ];
    for (config, want) in golden {
        assert_eq!(trace_digests(&Trace::generate(&config)), want, "{config:?}");
    }
}

#[test]
fn dirtied_traces_match_their_recorded_digests() {
    let clean = Trace::generate(&config());
    let report = |d: [u64; 7]| DirtyReport {
        dropped: d[0],
        duplicated: d[1],
        nan_util: d[2],
        out_of_range_util: d[3],
        clock_skew: d[4],
        truncated: d[5],
        orphaned: d[6],
    };
    let golden = [
        // Every category fires.
        (
            DirtyPlan::uniform(3, 0.3),
            0x05ec_9d67_1852_bbc8,
            report([294, 317, 302, 301, 284, 263, 227]),
        ),
        (DirtyPlan::uniform(7, 0.08), 0x04bb_06a4_e446_941b, report([95, 80, 90, 74, 95, 75, 78])),
    ];
    for (plan, fingerprint, want) in golden {
        let (dirty, got) = plan.apply(&clean);
        assert_eq!((trace_fingerprint(&dirty), got), (fingerprint, want), "apply {plan:?}");
        let (streamed, got) = DirtyVmStream::new(&config(), plan).collect_trace();
        assert_eq!((trace_fingerprint(&streamed), got), (fingerprint, want), "stream {plan:?}");
    }
}

#[test]
fn filtered_requests_match_their_recorded_digest() {
    let config = config();
    let until = Timestamp::from_days(config.days as u64);
    let from = Timestamp::from_days(2);
    let golden = (4_730, 0x076f_d3cc_6d95_795b);
    let requests = VmRequest::stream_filtered(&Trace::generate(&config), from, until, 16, Some(64));
    assert_eq!((requests.len(), requests_digest(&requests)), golden);
    let streamed: Vec<VmRequest> =
        StreamRequestSource::new(VmStream::new(&config), from, until, 16, Some(64)).collect();
    assert_eq!((streamed.len(), requests_digest(&streamed)), golden);
}

#[test]
fn streaming_simulation_is_byte_identical_to_materialized() {
    let config = config();
    let window = (Timestamp::ZERO, Timestamp::from_days(config.days as u64));

    let trace = Trace::generate(&config);
    let requests = VmRequest::stream(&trace, window.0, window.1, 16);
    let n_servers = suggest_server_count(&requests, 16.0, 0.95);
    let sim = sim_config(n_servers);
    let materialized = simulate(&requests, &sim, Box::new(OracleSource), window);

    let stream = || StreamRequestSource::new(VmStream::new(&config), window.0, window.1, 16, None);
    assert_eq!(suggest_server_count_stream(stream(), 16.0, 0.95), n_servers);
    let streamed = simulate_stream(stream(), &sim, Box::new(OracleSource), window);

    let a = serde_json::to_vec(&materialized).expect("serializes");
    let b = serde_json::to_vec(&streamed).expect("serializes");
    assert_eq!(a, b, "streaming SimReport must match the materialized one byte for byte");
}

#[test]
fn partitioned_simulation_merges_every_arrival_exactly_once() {
    let config = config();
    let window = (Timestamp::ZERO, Timestamp::from_days(config.days as u64));
    let trace = Trace::generate(&config);
    let requests = VmRequest::stream(&trace, window.0, window.1, 16);
    let n = suggest_server_count(&requests, 16.0, 0.95);
    let sim = sim_config(n.div_ceil(3));
    let make = || Box::new(OracleSource) as Box<dyn P95Source>;

    let one_worker = simulate_partitioned(&requests, &sim, &make, window, 3, 1);
    let many_workers = simulate_partitioned(&requests, &sim, &make, window, 3, 8);

    assert_eq!(one_worker.n_arrivals, requests.len() as u64);
    assert_eq!(one_worker.n_servers, 3 * sim.n_servers as u64);
    let a = serde_json::to_vec(&one_worker).expect("serializes");
    let b = serde_json::to_vec(&many_workers).expect("serializes");
    assert_eq!(a, b, "merged report must be identical for any worker count");
}
