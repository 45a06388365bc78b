//! Acceptance tests for the continuous control loop (`rc-loop`).
//!
//! Each test scripts one lifecycle episode from the soak schedule and
//! asserts the loop's exact reaction through its journal, its counters,
//! and the store it manages:
//!
//! (a) a drift episode leads to retrain → shadow pass → promotion, and
//!     end-to-end accuracy recovers past the frozen no-retrain baseline;
//!     at every tick the confusion gauges hold the serving version's
//!     outcomes only;
//! (b) a degraded candidate is rejected in shadow with the store
//!     byte-untouched;
//! (c) a post-flip regression auto-rolls-back, and the quarantined
//!     content digest is blocked from ever re-promoting — bit-identical
//!     across two same-seed runs;
//! (d) a store outage mid-flip degrades exactly that tick, leaves the
//!     manifest consistent, and the loop keeps running;
//! (e) on a slowly ramping workload shift, the leading (input-sketch)
//!     monitor trips ticks before the label-based drift monitor can;
//! (f) the widened chaos plan — correlated brownout, clock skew,
//!     degrading telemetry, a racing manual publish — journals every
//!     fault, bounds the damage, and never wedges the loop;
//! (g) a fixed-seed soak through every transition reproduces a recorded
//!     `LoopSummary` byte for byte;
//! (h) a rollback whose target payload is corrupt, or browned out, keeps
//!     the loop serving and evaluating: the incomplete reload is
//!     journaled, degrades the tick and is retried on the next one, and
//!     no bootstrap retrain is ever scheduled; a rollback whose quarantine
//!     set cannot be saved, or whose manifest cannot be read, journals why
//!     its tick degraded.
//!
//! (f) and (h) also check after every tick that each summary count,
//! folded from the journal, equals its `rc_loop_*` counter.
//!
//! Tests that script the *label* pathway pin `leading_observe_only` so
//! the leading monitor (which otherwise reacts first, by design) records
//! but does not preempt the episode.

use resource_central::lifecycle::{
    brownout_shard_of, ChaosPlan, LoopConfig, LoopController, LoopEvent, RetrainReason, TickEvent,
    WorkloadShift,
};
use resource_central::prelude::*;
use resource_central::store::{fingerprint, MANIFEST_KEY, QUARANTINE_KEY};

/// The soak shape shrunk to integration-test size: drift-only retrains
/// (no cadence) unless a test opts back in, and windows just big enough
/// for the training pipeline.
fn base_config(seed: u64, ticks: u32) -> LoopConfig {
    LoopConfig {
        seed,
        ticks,
        window_days: 16,
        n_subscriptions: 80,
        window_vms: 2_200,
        eval_per_tick: 250,
        shadow_slice: 200,
        retrain_every: 0,
        watch_ticks: 3,
        ..LoopConfig::default()
    }
}

/// A transient repeat of the surge shift: same transform every episode,
/// so a drift-triggered retrain during any episode reproduces the same
/// model bytes — the property the quarantine check keys on.
fn episode(from_tick: u32, until_tick: u32) -> WorkloadShift {
    WorkloadShift { until_tick, ..WorkloadShift::surge(from_tick) }
}

fn events(journal: &[TickEvent]) -> Vec<(u32, &LoopEvent)> {
    journal.iter().map(|e| (e.tick, &e.event)).collect()
}

/// The `rc_acc_confusion{metric,p,o}` gauges describe the serving
/// version alone: each metric's cells sum to the outcomes the tracker
/// holds, so a flip leaves no cell of the previous version behind.
fn assert_confusion_gauges_match_outcomes(controller: &LoopController, tick: u32) {
    let snapshot = controller.registry().snapshot();
    for metric in rc_types::PredictionMetric::ALL {
        let name = metric.model_name();
        let prefix = format!("{}{{metric=\"{name}\",", rc_obs::ACC_CONFUSION);
        let cells: f64 =
            snapshot.gauges.iter().filter(|g| g.name.starts_with(&prefix)).map(|g| g.value).sum();
        let outcomes = controller.tracker().outcomes(name);
        assert_eq!(cells, outcomes as f64, "tick {tick}: {name} confusion gauges");
    }
}

/// Every `LoopSummary` count equals its `rc_loop_*` counter after
/// `ticks_run` ticks: the summary folds the journal, and journaling an
/// event is what moves a counter. Every tick ingests exactly one window.
fn assert_fold_matches_counters(controller: &LoopController, ticks_run: u32) {
    let summary = controller.summary();
    assert_eq!((summary.ticks, summary.windows_ingested), (ticks_run, ticks_run as u64));
    let snapshot = controller.registry().snapshot();
    let folded = [
        (rc_obs::LOOP_TICKS, summary.ticks as u64),
        (rc_obs::LOOP_WINDOWS_INGESTED, summary.windows_ingested),
        (rc_obs::LOOP_RETRAINS, summary.retrains),
        (rc_obs::LOOP_RETRAIN_FAILURES, summary.retrain_failures),
        (rc_obs::LOOP_SHADOW_EVALS, summary.shadow_evals),
        (rc_obs::LOOP_SHADOW_REJECTIONS, summary.shadow_rejections),
        (rc_obs::LOOP_PROMOTIONS, summary.promotions),
        (rc_obs::LOOP_ROLLBACKS, summary.rollbacks),
        (rc_obs::LOOP_QUARANTINE_BLOCKED, summary.quarantine_blocked),
        (rc_obs::LOOP_DEGRADED_TICKS, summary.degraded_ticks),
        (rc_obs::LOOP_LEADING_TRIPS, summary.leading_trips),
        (rc_obs::LOOP_PUBLISH_RACES, summary.publish_races),
        (rc_obs::LOOP_CHAOS_INJECTED, summary.chaos_injected),
    ];
    for (name, count) in folded {
        assert_eq!(snapshot.counter(name).unwrap_or(0), count, "after {ticks_run} ticks: {name}");
    }
}

/// (a) Drift → retrain → shadow pass → promotion → recovery.
#[test]
fn drift_episode_retrains_and_accuracy_recovers() {
    let mut config = base_config(0xA11CE, 9);
    config.shifts = vec![WorkloadShift::surge(4)];
    // This test scripts the label pathway; the leading monitor watches
    // but does not act, and must still see the shift no later than the
    // label detector does.
    config.leading_observe_only = true;
    let mut controller = LoopController::new(config);
    for tick in 0..9 {
        controller.run_tick();
        assert_confusion_gauges_match_outcomes(&controller, tick);
    }
    let summary = controller.summary();

    // Bootstrap plus exactly one drift-triggered promotion; the watchdog
    // never fired.
    assert_eq!(summary.promotions, 2, "journal: {:?}", controller.journal());
    assert_eq!(summary.rollbacks, 0);
    assert_eq!(summary.windows_ingested, 9);

    // The journal tells the story in order: drift detected, a retrain
    // scheduled *because of* drift, then a promotion.
    let journal = events(controller.journal());
    let drift_at = journal
        .iter()
        .position(|(_, e)| matches!(e, LoopEvent::DriftDetected { .. }))
        .expect("the surge must trip the drift monitor");
    let leading_at = journal
        .iter()
        .position(|(_, e)| matches!(e, LoopEvent::LeadingDriftDetected { .. }))
        .expect("the input sketch must see the surge too");
    assert!(
        journal[leading_at].0 <= journal[drift_at].0,
        "the leading signal must fire no later than label drift (leading t{}, label t{})",
        journal[leading_at].0,
        journal[drift_at].0
    );
    let retrain_at = journal[drift_at..]
        .iter()
        .position(|(_, e)| {
            matches!(e, LoopEvent::RetrainScheduled { reason: RetrainReason::Drift { .. } })
        })
        .expect("drift must schedule a retrain");
    assert!(
        journal[drift_at + retrain_at..]
            .iter()
            .any(|(_, e)| matches!(e, LoopEvent::Promoted { .. })),
        "the retrained candidate must win shadow and promote"
    );

    // Recovery within the remaining ticks: the drift signal cleared and
    // the loop beats the frozen first model end to end.
    let avg = rc_types::PredictionMetric::AvgCpuUtil.model_name();
    assert_ne!(controller.tracker().drift(avg), DriftSignal::Drifting);
    assert!(
        summary.live_accuracy > summary.frozen_accuracy,
        "loop {:.4} must beat frozen baseline {:.4}",
        summary.live_accuracy,
        summary.frozen_accuracy
    );
}

/// (b) A degraded candidate loses the shadow comparison and nothing —
/// not one byte — reaches the store.
#[test]
fn degraded_candidate_is_rejected_in_shadow_with_store_untouched() {
    let mut config = base_config(0xB0B, 5);
    config.retrain_every = 4;
    config.watch_ticks = 2;
    config.chaos = ChaosPlan { degrade_candidate_at: vec![4], ..ChaosPlan::default() };
    let mut controller = LoopController::new(config);
    for _ in 0..4 {
        controller.run_tick();
    }
    assert_eq!(controller.serving_version(), 1, "only the bootstrap promotion so far");

    let fp_before = fingerprint(controller.store());
    controller.run_tick(); // tick 4: cadence retrain on garbled telemetry
    let fp_after = fingerprint(controller.store());

    let journal = events(controller.journal());
    assert!(
        journal.iter().any(|(t, e)| *t == 4 && matches!(e, LoopEvent::ShadowRejected { .. })),
        "shadow must reject the degraded candidate: {journal:?}"
    );
    assert!(
        !journal.iter().any(|(t, e)| *t == 4 && matches!(e, LoopEvent::Promoted { .. })),
        "a rejected candidate must not promote"
    );
    assert_eq!(fp_before, fp_after, "shadow rejection must leave the store byte-untouched");
    assert_eq!(controller.serving_version(), 1);
    assert_eq!(controller.summary().shadow_rejections, 1);
}

/// (c) Post-flip regression: rollback, quarantine, and the quarantined
/// bytes never re-promote. The whole scenario is bit-identical across
/// two same-seed runs.
#[test]
fn regression_rolls_back_and_quarantine_blocks_repromotion() {
    let config = || {
        // Not every seed's fleet supports class labelling at this window
        // size; seed 7 does (see rc-loop's unit suite).
        let mut c = base_config(7, 14);
        // Two identical transient episodes. The first tricks the loop
        // into promoting an episode-fitted model that regresses when the
        // episode ends; the second forces a retrain that reproduces the
        // exact quarantined bytes. Label pathway: the episode timing
        // below is keyed to the label monitor's trip ticks.
        c.leading_observe_only = true;
        c.shifts = vec![episode(4, 6), episode(12, 14)];
        c
    };

    let run = || {
        let controller = {
            let mut c = LoopController::new(config());
            for _ in 0..14 {
                c.run_tick();
            }
            c
        };
        let journal: Vec<TickEvent> = controller.journal().to_vec();
        let summary = controller.summary();
        let digests = controller.quarantined_digests().to_vec();
        (journal, summary, digests)
    };

    let (journal, summary, digests) = run();
    let rolled = journal
        .iter()
        .find_map(|e| match &e.event {
            LoopEvent::RolledBack { quarantined_digest, .. } => Some(*quarantined_digest),
            _ => None,
        })
        .unwrap_or_else(|| {
            panic!("the watchdog must roll the regressing promotion back: {journal:?}")
        });
    let blocked = journal
        .iter()
        .find_map(|e| match &e.event {
            LoopEvent::QuarantineBlocked { digest } => Some(*digest),
            _ => None,
        })
        .expect("the second episode must reproduce the quarantined bytes");
    assert_eq!(
        rolled, blocked,
        "the blocked candidate must be the exact content that was rolled back"
    );
    assert_eq!(digests, vec![rolled]);
    assert_eq!(summary.rollbacks, 1);
    assert_eq!(summary.quarantine_blocked, 1, "rc_loop_quarantine_blocked must fire");

    // Bit-identical reproducibility: journal, summary, and store.
    let (journal2, summary2, _) = run();
    assert_eq!(journal, journal2, "same seed must replay the same journal");
    assert_eq!(
        serde_json::to_vec(&summary).unwrap(),
        serde_json::to_vec(&summary2).unwrap(),
        "same seed must serialize the same summary, byte for byte"
    );
    assert_eq!(summary.store_fingerprint, summary2.store_fingerprint);
}

/// (d) The store dies mid-flip: the tick degrades, the manifest stays
/// consistent, and the very next tick publishes normally.
#[test]
fn store_outage_mid_flip_degrades_one_tick_and_manifest_stays_consistent() {
    let mut config = base_config(0xD00D, 3);
    // Allow three payload writes, then fail every put for the rest of
    // the tick — the flip dies before the manifest write.
    config.chaos = ChaosPlan { outage_after_puts: vec![(0, 3)], ..ChaosPlan::default() };
    let mut controller = LoopController::new(config);

    controller.run_tick();
    let journal = events(controller.journal());
    assert!(
        journal.iter().any(|(t, e)| *t == 0 && matches!(e, LoopEvent::PublishFailed { .. })),
        "the outage must abort the bootstrap flip: {journal:?}"
    );
    assert_eq!(
        Manifest::read_current(controller.store()).unwrap(),
        None,
        "an aborted first flip must not leave a manifest behind"
    );
    assert_eq!(controller.serving_version(), 0);

    // The loop is not wedged: the outage healed at tick end and the next
    // bootstrap attempt publishes a fully consistent version.
    controller.run_tick();
    controller.run_tick();
    let manifest = Manifest::read_current(controller.store())
        .unwrap()
        .expect("the retried bootstrap must publish");
    assert_eq!(manifest.version, 1);
    assert!(manifest.verify());
    for entry in &manifest.models {
        let key = format!("v{}/{}", manifest.version, entry.key);
        let rec = controller.store().get_latest(&key).expect("published payload present");
        assert_eq!(rc_store::checksum(&rec.data), entry.checksum, "payload matches manifest");
    }
    let summary = controller.summary();
    assert_eq!(summary.degraded_ticks, 1, "exactly the outage tick degrades");
    assert_eq!(summary.promotions, 1);
    assert_eq!(summary.windows_ingested, 3, "every tick ran to completion");
}

/// (e) On a slowly shifting workload, the input-distribution sketch
/// trips ticks before the label-based monitor *can*: labels need
/// predictions to regress past the accuracy tolerance, the sketch only
/// needs the inputs to move. Observe-only keeps the race fair — the
/// leading monitor is not allowed to repair the drift before the label
/// monitor gets its chance.
#[test]
fn leading_drift_trips_ticks_before_label_drift_on_ramped_shift() {
    // Seed 0xA11CE's label monitor is quiet on an unshifted fleet
    // (test (a) above), so every detection below is of the shift itself.
    let mut config = base_config(0xA11CE, 20);
    // The workload distribution creeps via a slow telemetry-degradation
    // ramp (severity ~0.03/tick): per-VM bias moves the utilization
    // distribution immediately, but accuracy only erodes as the bias
    // decorrelates same-subscription VMs — the regime where a leading
    // indicator genuinely buys warning time. The monitor runs at a
    // sensitive trip threshold (the default 0.25 is the conservative
    // "moderate shift" setting); steady ticks sit below even this one.
    config.chaos = ChaosPlan { degrade_telemetry: vec![(5, 35)], ..ChaosPlan::default() };
    config.leading = rc_obs::LeadingDriftConfig {
        psi_trip: 0.05,
        psi_clear: 0.02,
        ..rc_obs::LeadingDriftConfig::default()
    };
    config.leading_observe_only = true;
    let mut controller = LoopController::new(config);
    for _ in 0..20 {
        controller.run_tick();
    }

    // Only detections from the shift onward count: label-noise blips
    // before the ramp begins are not detections of *this* fault.
    let journal = events(controller.journal());
    let leading_tick = journal
        .iter()
        .find(|(t, e)| *t >= 5 && matches!(e, LoopEvent::LeadingDriftDetected { .. }))
        .map(|(t, _)| *t)
        .expect("the ramp must trip the leading monitor");
    let label_tick = journal
        .iter()
        .find(|(t, e)| *t >= 5 && matches!(e, LoopEvent::DriftDetected { .. }))
        .map(|(t, _)| *t)
        .expect("the ramp must eventually trip label drift");
    assert!(
        label_tick >= leading_tick + 3,
        "the leading signal must buy at least 3 ticks of warning \
         (leading t{leading_tick}, label t{label_tick})"
    );
    assert!(controller.summary().leading_trips >= 1, "rc_loop_leading_trips must count");
}

/// (f) The widened chaos plan: every new fault kind — correlated
/// brownout, collector clock skew, slow telemetry degradation, a manual
/// publish racing the controller's flip — is journaled, bounded, and
/// survivable, and the whole scenario replays bit-identically.
#[test]
fn widened_chaos_plan_journals_every_fault_and_never_wedges() {
    let config = || {
        // Seed 0xB0B's fleet is known to bootstrap at this window size
        // (test (b) above) and cadence-retrains at tick 4.
        let mut c = base_config(0xB0B, 8);
        c.retrain_every = 4;
        c.leading_observe_only = true;
        c.chaos = ChaosPlan {
            brownout_at: vec![(2, 5)],
            clock_skew_at: vec![3],
            // Tick 4 is a cadence retrain whose flip the manual publish
            // races; the loop must back off, not overwrite.
            manual_publish_at: vec![4],
            degrade_telemetry: vec![(5, 8)],
            ..ChaosPlan::default()
        };
        c
    };

    let run = || {
        let mut controller = LoopController::new(config());
        for tick in 1..=8 {
            controller.run_tick();
            assert_fold_matches_counters(&controller, tick);
        }
        let journal: Vec<TickEvent> = controller.journal().to_vec();
        let summary = controller.summary();
        (journal, summary)
    };
    let (journal, summary) = run();

    // Every fault kind left its journal line.
    let chaos_kinds: Vec<(u32, &str)> = journal
        .iter()
        .filter_map(|e| match &e.event {
            LoopEvent::ChaosInjected { kind } => Some((e.tick, kind.as_str())),
            _ => None,
        })
        .collect();
    assert!(chaos_kinds.contains(&(2, "brownout:shard5")), "kinds: {chaos_kinds:?}");
    assert!(chaos_kinds.contains(&(3, "clock_skew")));
    assert!(chaos_kinds.contains(&(4, "manual_publish")));
    assert!(
        chaos_kinds.iter().any(|(t, k)| *t >= 5 && k.starts_with("degrade_telemetry:")),
        "kinds: {chaos_kinds:?}"
    );

    // The race is detected, typed, and backed off: the tick degrades,
    // nothing promotes over the racer.
    assert_eq!(summary.publish_races, 1, "journal: {journal:?}");
    assert!(journal
        .iter()
        .any(|e| e.tick == 4 && matches!(e.event, LoopEvent::PublishRaceDetected { .. })));
    assert!(
        !journal.iter().any(|e| e.tick == 4 && matches!(e.event, LoopEvent::Promoted { .. })),
        "a raced flip must not promote"
    );

    // Blast radius: quiet faults stay quiet, the loop runs every tick,
    // and degradation is bounded to the ticks chaos actually touched.
    assert_eq!(summary.windows_ingested, 8, "the loop must never wedge");
    assert_eq!(summary.rollbacks, 0);
    assert!(
        summary.degraded_ticks <= 3,
        "chaos must bound degradation, got {} degraded ticks",
        summary.degraded_ticks
    );
    for tick in [2, 3] {
        assert!(
            journal.iter().any(|e| e.tick == tick
                && matches!(e.event, LoopEvent::WindowIngested { vms, .. } if vms > 0)),
            "brownout/skew ticks must still ingest"
        );
    }

    // Bit-identical replay, chaos and all.
    let (journal2, summary2) = run();
    assert_eq!(journal, journal2, "same seed must replay the same chaos journal");
    assert_eq!(summary.journal_digest, summary2.journal_digest);
    assert_eq!(summary.store_fingerprint, summary2.store_fingerprint);
}

/// (g) A soak through bootstrap, cadence and drift retrains, promotions
/// and a rollback ends in exactly the summary recorded before label
/// extraction was made lazy and the FFT and utilization kernels were
/// replaced: every counter, every accuracy to the last bit, the journal
/// digest (which hashes the quarantined model bytes' digest) and the
/// store fingerprint. A change to labelling, training or serving that
/// moves any of them has to re-record this line on purpose.
#[test]
fn fixed_seed_soak_reproduces_the_recorded_summary() {
    let anomaly = WorkloadShift {
        from_tick: 8,
        until_tick: 9,
        base_mul: 0.35,
        base_add: 0.05,
        p95_mul: 0.4,
        p95_add: 0.08,
        ramp_ticks: 0,
    };
    let config = LoopConfig {
        seed: 19,
        ticks: 12,
        retrain_every: 3,
        watch_ticks: 2,
        shifts: vec![WorkloadShift::surge(5), anomaly],
        chaos: ChaosPlan { degrade_candidate_at: vec![6], ..ChaosPlan::default() },
        ..LoopConfig::default()
    };
    let summary = LoopController::new(config).run();
    assert_eq!(summary.rollbacks, 1, "the soak is meant to cross a rollback");
    let recorded = concat!(
        r#"{"seed":19,"ticks":12,"windows_ingested":12,"retrains":5,"retrain_failures":0,"#,
        r#""shadow_evals":5,"shadow_rejections":0,"promotions":5,"rollbacks":1,"#,
        r#""quarantine_blocked":0,"degraded_ticks":0,"leading_trips":6,"publish_races":0,"#,
        r#""chaos_injected":0,"final_version":4,"live_accuracy":0.7653769841269841,"#,
        r#""frozen_accuracy":0.7280844155844156,"per_metric":["#,
        r#"{"metric":"VM_AVGUTIL","live":0.5870454545454545,"frozen":0.385},"#,
        r#"{"metric":"VM_P95UTIL","live":0.6363636363636364,"frozen":0.6395454545454545},"#,
        r#"{"metric":"DEP_SIZE_VMS","live":0.9025,"frozen":0.9025},"#,
        r#"{"metric":"DEP_SIZE_CORES","live":0.7875,"frozen":0.7875},"#,
        r#"{"metric":"VM_LIFETIME","live":0.9040909090909091,"frozen":0.915},"#,
        r#"{"metric":"VM_CLASS","live":1,"frozen":1}],"#,
        r#""journal_digest":13448388982521312374,"store_fingerprint":7245373548205799401}"#,
    );
    let got = String::from_utf8(serde_json::to_vec(&summary).expect("finite")).expect("utf-8");
    assert_eq!(got, recorded);
}

/// Test (c)'s scenario — one promotion regresses and is rolled back —
/// stepped up to its rollback tick: the controller about to run that
/// tick, the tick, and the version it restores.
fn before_rollback() -> (LoopController, u32, u64) {
    let config = || {
        let mut c = base_config(7, 14);
        c.leading_observe_only = true;
        c.shifts = vec![episode(4, 6), episode(12, 14)];
        c
    };
    let (rollback_tick, to_version) = {
        let mut reference = LoopController::new(config());
        let mut found = None;
        while found.is_none() {
            reference.run_tick();
            found = reference.journal().iter().find_map(|e| match e.event {
                LoopEvent::RolledBack { to_version, .. } => Some((e.tick, to_version)),
                _ => None,
            });
        }
        found.expect("test (c)'s scenario rolls back")
    };
    let mut controller = LoopController::new(config());
    for tick in 1..=rollback_tick {
        controller.run_tick();
        assert_fold_matches_counters(&controller, tick);
    }
    let manifest = Manifest::read_current(controller.store()).unwrap().expect("published");
    assert!(manifest.version > to_version, "the regressing version is serving");
    (controller, rollback_tick, to_version)
}

/// Every `ServeReloadIncomplete` so far, as `(tick, expected, serving)`.
fn incomplete_reloads(controller: &LoopController) -> Vec<(u32, u64, u64)> {
    let journal = controller.journal().iter();
    journal
        .filter_map(|e| match e.event {
            LoopEvent::ServeReloadIncomplete { expected, serving } => {
                Some((e.tick, expected, serving))
            }
            _ => None,
        })
        .collect()
}

/// (h) The rollback target's model payload is corrupted before the
/// rollback tick. The serving client rejects it and keeps the previous
/// model answering for that slot; the loop journals the incomplete
/// reload, degrades the tick, and goes on serving — it never forgets a
/// version is published.
#[test]
fn corrupt_rollback_target_is_journaled_and_the_loop_keeps_serving() {
    let (mut controller, rollback_tick, to_version) = before_rollback();
    let manifest = Manifest::read_current(controller.store()).unwrap().expect("published");
    let slot = format!("v{to_version}/{}", manifest.models[0].key);
    controller.store().inner().put(&slot, b"not a model".to_vec().into()).unwrap();

    controller.run_tick();
    assert_eq!(
        incomplete_reloads(&controller),
        [(rollback_tick, to_version, to_version)],
        "the rejected payload must be journaled on the rollback tick: {:?}",
        events(controller.journal())
    );
    assert!(controller.serving_version() >= to_version, "a published version keeps serving");
    assert!(controller.summary().degraded_ticks >= 1, "the incomplete reload degrades the tick");

    // The next tick still evaluates live predictions and never mistakes
    // the loop for an unbootstrapped one.
    let avg = rc_types::PredictionMetric::AvgCpuUtil.model_name();
    let before = controller.tracker().predictions(avg);
    controller.run_tick();
    assert!(controller.tracker().predictions(avg) > before, "live evaluation continues");
    assert!(
        !controller.journal().iter().any(|e| e.tick > 0
            && matches!(e.event, LoopEvent::RetrainScheduled { reason: RetrainReason::Bootstrap })),
        "no bootstrap retrain after the first promotion"
    );
}

/// (h) A brownout on the rollback tick, and on the one after, takes out
/// a key shard holding one of the rollback target's model payloads (but
/// not the manifest or the quarantine set, so the rollback itself goes
/// through). The reload cannot fetch that payload: the loop journals it
/// and degrades the tick, retries on the next tick (which fails and is
/// journaled again), and completes on the first tick with the shard back.
#[test]
fn browned_out_rollback_target_is_reloaded_once_the_shard_is_back() {
    let (mut controller, rollback_tick, to_version) = before_rollback();
    let manifest = Manifest::read_current(controller.store()).unwrap().expect("published");
    let spared = [MANIFEST_KEY, QUARANTINE_KEY].map(brownout_shard_of);
    let shard = manifest
        .models
        .iter()
        .map(|e| brownout_shard_of(&format!("v{to_version}/{}", e.key)))
        .find(|s| !spared.contains(s))
        .expect("some model payload shares no shard with the manifest or quarantine set");

    controller.store().arm_brownout(shard);
    controller.run_tick();
    assert_fold_matches_counters(&controller, rollback_tick + 1);
    let journal = events(controller.journal());
    assert!(
        journal.iter().any(|(t, e)| *t == rollback_tick
            && matches!(e, LoopEvent::RolledBack { to_version: v, .. } if *v == to_version)),
        "the rollback itself goes through: {journal:?}"
    );
    assert_eq!(incomplete_reloads(&controller), [(rollback_tick, to_version, to_version)]);
    let degraded = controller.summary().degraded_ticks;
    assert!(degraded >= 1, "the incomplete reload degrades the tick");

    // No flip follows (the brownout also fails any publish), so only the
    // retry can reload the client.
    controller.store().arm_brownout(shard);
    controller.run_tick();
    assert_fold_matches_counters(&controller, rollback_tick + 2);
    controller.run_tick();
    assert_fold_matches_counters(&controller, rollback_tick + 3);
    let journal = events(controller.journal());
    assert!(
        !journal.iter().any(|(t, e)| *t > rollback_tick
            && matches!(e, LoopEvent::Promoted { .. } | LoopEvent::RolledBack { .. })),
        "{journal:?}"
    );
    assert_eq!(
        incomplete_reloads(&controller),
        [(rollback_tick, to_version, to_version), (rollback_tick + 1, to_version, to_version)],
        "retried under the brownout, completed once it healed"
    );
    assert_eq!(controller.serving_version(), to_version);
}

/// (h) A brownout of the quarantine set's shard on the rollback tick: the
/// rollback itself goes through and the digest is quarantined for the
/// run, but the set cannot be saved. The tick degrades, and the journal
/// says why. (The shard also holds some of the restored version's
/// feature records, so the tick journals an incomplete reload too.)
#[test]
fn unsaved_quarantine_set_on_the_rollback_tick_is_journaled_and_degrades() {
    let (mut controller, rollback_tick, to_version) = before_rollback();
    let degraded = controller.summary().degraded_ticks;

    controller.store().arm_brownout(brownout_shard_of(QUARANTINE_KEY));
    controller.run_tick();
    assert_fold_matches_counters(&controller, rollback_tick + 1);
    let journal = events(controller.journal());
    let on_tick =
        |pred: fn(&LoopEvent) -> bool| journal.iter().any(|(t, e)| *t == rollback_tick && pred(e));
    assert!(on_tick(|e| matches!(e, LoopEvent::RolledBack { .. })), "{journal:?}");
    assert!(on_tick(|e| matches!(e, LoopEvent::QuarantineSaveFailed { .. })), "{journal:?}");
    assert_eq!(controller.quarantined_digests().len(), 1, "quarantined in memory");
    assert_eq!(controller.summary().degraded_ticks, degraded + 1, "the rollback tick degrades");
    assert_eq!(controller.serving_version(), to_version);
}

/// (h) The manifest pointer is corrupted before the rollback tick, so
/// the rollback cannot read what to quarantine and aborts. The tick
/// degrades, and the journal says why.
#[test]
fn unreadable_manifest_on_the_rollback_tick_is_journaled_and_degrades() {
    let (mut controller, rollback_tick, _) = before_rollback();
    let degraded = controller.summary().degraded_ticks;
    controller.store().inner().put(MANIFEST_KEY, b"not a manifest".to_vec().into()).unwrap();

    controller.run_tick();
    assert_fold_matches_counters(&controller, rollback_tick + 1);
    let journal = events(controller.journal());
    assert!(
        journal.iter().any(|(t, e)| *t == rollback_tick
            && matches!(e, LoopEvent::PublishFailed { error } if error.starts_with("rollback:"))),
        "{journal:?}"
    );
    assert_eq!(controller.summary().degraded_ticks, degraded + 1, "the rollback tick degrades");
    assert!(controller.quarantined_digests().is_empty(), "nothing was read to quarantine");
}
