//! `FaultyStore` as a layer: transparent when it injects nothing, and its
//! armed faults never disturb its seeded schedule.
//!
//! Both tests read the process-wide `rc_store_injected_*` counters or
//! depend on them staying still, so they take [`SERIAL`] and live in their
//! own test binary, away from the unit tests that inject faults.

use std::sync::Mutex;
use std::time::Duration;

use bytes::Bytes;
use rc_store::{brownout_shard_of, fingerprint, FaultPlan, FaultyStore, Store, StoreBackend};

static SERIAL: Mutex<()> = Mutex::new(());

/// One scripted mix of every store operation — plain and CAS puts
/// (winning and losing), latest and pinned reads (hits and misses),
/// version reads and key scans — and every result, then the fingerprint.
fn scripted_ops<B: StoreBackend>(store: &B) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..60u64 {
        let key = format!("k{}", i % 7);
        let data = Bytes::from(i.to_le_bytes().to_vec());
        // `round` varies the expected and pinned versions, 0 included.
        let round = i / 6;
        out.push(match i % 6 {
            0 => format!("{:?}", store.put(&key, data)),
            1 => format!("{:?}", store.put_if_version(&key, data, round % 3)),
            2 => format!("{:?}", store.get_latest(&key).map(|r| (r.version, r.data))),
            3 => format!("{:?}", store.get_version(&key, round % 4).map(|r| (r.version, r.data))),
            4 => format!("{:?}", store.latest_version(&key)),
            _ => format!("{:?}", store.keys()),
        });
    }
    out.push(format!("{:016x}", fingerprint(store)));
    out
}

/// The loop publishes through a reliable, unarmed `FaultyStore`; this is
/// what keeps its journal and store fingerprint byte-identical to a bare
/// store's.
#[test]
fn reliable_unarmed_wrapper_is_transparent() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let injected = [
        rc_obs::STORE_INJECTED_FAULTS,
        rc_obs::STORE_INJECTED_UNAVAILABILITY,
        rc_obs::STORE_INJECTED_TRANSIENTS,
        rc_obs::STORE_INJECTED_LATENCY_SPIKES,
        rc_obs::STORE_INJECTED_CORRUPTIONS,
    ]
    .map(|name| rc_obs::global().counter(name));
    let before = injected.each_ref().map(|c| c.get());

    let bare = scripted_ops(&Store::in_memory());
    let faulty = FaultyStore::new(Store::in_memory(), FaultPlan::reliable(0x5EED));
    let wrapped = scripted_ops(&faulty);

    assert_eq!(wrapped, bare, "a reliable, unarmed wrapper must change no result");
    assert_eq!(faulty.injector().injected().total(), 0);
    assert_eq!(injected.map(|c| c.get()), before, "no rc_store_injected_* counter may move");
}

/// Armed faults apply after the seeded decision, so browning out a shard
/// changes what fails but not which seeded faults fire.
#[test]
fn a_brownout_leaves_the_seeded_schedule_alone() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan {
        seed: 42,
        p_unavailable: 0.2,
        p_transient: 0.05,
        transient_burst: 2,
        p_latency_spike: 0.1,
        latency_spike: Duration::from_micros(20),
        p_corrupt: 0.2,
    };
    let clear = FaultyStore::new(Store::in_memory(), plan);
    let browned = FaultyStore::new(Store::in_memory(), plan);
    browned.arm_brownout(brownout_shard_of("k3"));

    let (a, b) = (scripted_ops(&clear), scripted_ops(&browned));
    assert_ne!(a, b, "the brownout must fail some operation");
    let (a, b) = (clear.injector().injected(), browned.injector().injected());
    assert_eq!(a, b, "seeded fault counts must not depend on what is armed");
    assert!(a.unavailable > 0 && a.corruptions > 0, "the plan must inject: {a:?}");
}
