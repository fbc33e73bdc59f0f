//! Durability & churn: peers that crash mid-session recover from storage
//! (WAL + snapshots), reconcile missed traffic through watermark-based
//! resync, and the network still converges to the exact no-churn fix-point
//! — at a repair cost far below a full re-propagation.

use p2pdb::core::config::UpdateMode;
use p2pdb::core::dynamic::{lower_reference, upper_reference, ChangeScript};
use p2pdb::core::system::{P2PSystem, P2PSystemBuilder, RunSpec};
use p2pdb::net::{ChurnPlan, SimTime, UniformLatency};
use p2pdb::relational::hom::contained_modulo_nulls;
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{build_system, Distribution, WorkloadConfig};

fn ring_builder(mode: UpdateMode, delta_waves: bool, durable: bool) -> P2PSystemBuilder {
    let mut b = build_system(&WorkloadConfig {
        topology: Topology::Ring { n: 8 },
        records_per_node: 20,
        distribution: Distribution::Disjoint,
        seed: 7,
    })
    .unwrap();
    b.config_mut().mode = mode;
    b.config_mut().paper_faithful = !delta_waves;
    b.config_mut().durability = durable;
    b.config_mut().snapshot_every = 16;
    b.config_mut().max_events = 50_000_000;
    b
}

/// One global session at the super-peer, re-driven up to `redrives`
/// times while it stays open.
fn redriven(redrives: u32) -> RunSpec {
    RunSpec {
        redrives,
        ..Default::default()
    }
}

/// Session length of the clean run, for placing crashes mid-session.
fn probe(mode: UpdateMode) -> (P2PSystem, SimTime) {
    let mut sys = ring_builder(mode, true, true).build().unwrap();
    let report = sys.run_update();
    assert!(report.all_closed, "clean probe must close");
    (sys, report.outcome.virtual_time)
}

/// Two staggered mid-session crashes of non-super peers.
fn two_crashes(t: SimTime) -> ChurnPlan {
    ChurnPlan::none()
        .with_crash(NodeId(3), SimTime(t.0 / 4), SimTime(t.0 / 4 + t.0 / 6))
        .with_crash(NodeId(5), SimTime(t.0 / 2), SimTime(t.0 / 2 + t.0 / 6))
}

/// The ISSUE acceptance criterion: ring(8), ≥2 scheduled crashes, rounds
/// mode — the final databases are tuple-identical to the no-churn run and
/// the centralized oracle, and `resync_rows` stays strictly below a full
/// re-propagation.
#[test]
fn ring8_two_crashes_converges_identically_with_cheap_resync() {
    let (clean, t) = probe(UpdateMode::Rounds);

    // The full re-propagation price: what the delta-less baseline ships.
    let mut full = ring_builder(UpdateMode::Rounds, false, false)
        .build()
        .unwrap();
    full.run_update();
    let full_rows = full.sum_stats().rows_shipped;

    let mut b = ring_builder(UpdateMode::Rounds, true, true);
    b.set_churn(two_crashes(t));
    let mut sys = b.build().unwrap();
    let report = sys.run(&redriven(8)).remove(0);
    assert!(report.outcome.quiescent && report.all_closed, "{report:?}");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let stats = sys.sum_stats();
    assert_eq!(stats.crashes, 2, "{stats}");
    assert_eq!(stats.recoveries, 2, "every crash must recover: {stats}");
    assert!(
        stats.resync_rows > 0,
        "resync must actually engage: {stats}"
    );
    assert!(
        stats.resync_rows < full_rows,
        "crash repair ({}) must be cheaper than full re-propagation ({})",
        stats.resync_rows,
        full_rows
    );
    assert!(
        sys.snapshot().equivalent(&clean.snapshot()),
        "churned fix-point differs from the no-churn run"
    );
    assert!(
        sys.snapshot().equivalent(&sys.oracle().unwrap()),
        "churned fix-point differs from the centralized oracle"
    );
}

/// A crash in the middle of a wave under latency jitter: answers and
/// echoes of the broken round interleave arbitrarily with the crash, the
/// stalled wave is re-driven, and the result is still the oracle's.
#[test]
fn crash_mid_wave_under_uniform_latency_still_converges() {
    let jitter =
        |seed| UniformLatency::new(SimTime::from_micros(300), SimTime::from_micros(2_000), seed);
    // Clean jittered run for the reference fix-point and session length.
    let mut clean_b = ring_builder(UpdateMode::Rounds, true, true);
    clean_b.set_latency(jitter(99));
    let mut clean = clean_b.build().unwrap();
    let clean_report = clean.run_update();
    assert!(clean_report.all_closed);
    let t = clean_report.outcome.virtual_time;

    for seed in [99u64, 100, 101] {
        let mut b = ring_builder(UpdateMode::Rounds, true, true);
        b.set_latency(jitter(seed));
        // One crash squarely mid-session, long enough to break the round.
        b.set_churn(ChurnPlan::none().with_crash(
            NodeId(4),
            SimTime(t.0 * 2 / 5),
            SimTime(t.0 * 3 / 5),
        ));
        let mut sys = b.build().unwrap();
        let report = sys.run(&redriven(8)).remove(0);
        assert!(report.all_closed, "seed {seed}: {report:?}");
        assert!(report.errors.is_empty(), "seed {seed}: {:?}", report.errors);
        assert!(sys.sum_stats().crashes >= 1);
        assert!(
            sys.snapshot().equivalent(&clean.snapshot()),
            "seed {seed}: churned fix-point differs from the no-crash run"
        );
        assert!(
            sys.snapshot().equivalent(&sys.oracle().unwrap()),
            "seed {seed}: churned fix-point differs from the oracle"
        );
    }
}

/// Eager mode: a crash strands the epoch's Dijkstra–Scholten accounting;
/// the re-driven epoch retires the stale state, the recovered peer rejoins,
/// and the fix-point matches the oracle.
#[test]
fn eager_mode_churn_recovers_and_closes() {
    let (clean, t) = probe(UpdateMode::Eager);
    let mut b = ring_builder(UpdateMode::Eager, true, true);
    b.set_churn(two_crashes(t));
    let mut sys = b.build().unwrap();
    let report = sys.run(&redriven(8)).remove(0);
    assert!(report.outcome.quiescent && report.all_closed, "{report:?}");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let stats = sys.sum_stats();
    assert_eq!(stats.crashes, 2);
    assert_eq!(stats.recoveries, 2);
    assert!(sys.snapshot().equivalent(&clean.snapshot()));
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
}

/// Durability off: the crashed peers come back empty. The run must stay
/// *sound* (nothing outside the oracle's fix-point) even though the
/// crashed peers' base data is gone for good — this is the baseline the
/// CLI refuses to combine with `--churn` silently.
#[test]
fn amnesia_baseline_stays_sound_but_loses_data() {
    let (_, t) = probe(UpdateMode::Rounds);
    let mut b = ring_builder(UpdateMode::Rounds, false, false);
    b.set_churn(two_crashes(t));
    let mut sys = b.build().unwrap();
    let report = sys.run(&redriven(4)).remove(0);
    assert!(report.outcome.quiescent);
    let oracle = sys.oracle().unwrap();
    for (node, db) in &sys.snapshot().0 {
        assert!(
            contained_modulo_nulls(db, oracle.node(*node).unwrap()),
            "unsound data at {node} after amnesia churn"
        );
    }
    let stats = sys.sum_stats();
    assert_eq!(stats.crashes, 2);
    assert_eq!(stats.recoveries, 0, "nothing to recover without storage");
}

/// A tight snapshot cadence (snapshot every 4 WAL records, forcing many
/// mid-session snapshots) changes nothing about the recovered fix-point.
#[test]
fn tight_snapshot_cadence_recovers_identically() {
    let (clean, t) = probe(UpdateMode::Rounds);
    let mut b = ring_builder(UpdateMode::Rounds, true, true);
    b.config_mut().snapshot_every = 4;
    b.set_churn(two_crashes(t));
    let mut sys = b.build().unwrap();
    let report = sys.run(&redriven(8)).remove(0);
    assert!(report.all_closed, "{report:?}");
    assert!(sys.snapshot().equivalent(&clean.snapshot()));
    assert_eq!(sys.sum_stats().recoveries, 2);
}

/// Churn composed with transport *drops* must never produce a falsely
/// certified fix-point: a lost resync message keeps the recovered peer
/// open (forcing re-drives that re-send it) rather than closing with a
/// silent hole. If a run does close everywhere, the data IS the oracle's
/// fix-point; either way it stays sound.
#[test]
fn churn_with_drops_never_falsely_closes() {
    use p2pdb::net::FaultPlan;
    let (_, t) = probe(UpdateMode::Rounds);
    for seed in [1u64, 2, 3, 4] {
        let mut b = ring_builder(UpdateMode::Rounds, true, true);
        b.set_churn(two_crashes(t));
        b.set_fault(FaultPlan::random(5, seed));
        let mut sys = b.build().unwrap();
        let report = sys.run(&redriven(6)).remove(0);
        assert!(report.outcome.quiescent, "seed {seed}: {report:?}");
        let oracle = sys.oracle().unwrap();
        for (node, db) in &sys.snapshot().0 {
            assert!(
                contained_modulo_nulls(db, oracle.node(*node).unwrap()),
                "seed {seed}: unsound data at {node} under drops+churn"
            );
        }
        if report.all_closed {
            assert!(
                sys.snapshot().equivalent(&oracle),
                "seed {seed}: false closure — everyone closed on a non-fix-point"
            );
        }
    }
}

/// One run may carry a churn plan *and* a change script (eager mode, the
/// one dynamic changes run in), from two roots: peers crash and recover
/// while a link is deleted, and every session still closes without a peer
/// error, its data inside the Definition 9 envelope of the script.
#[test]
fn churn_and_a_change_script_in_one_run_close() {
    let (_, t) = probe(UpdateMode::Eager);
    let mut b = ring_builder(UpdateMode::Eager, true, true);
    b.set_churn(two_crashes(t));
    let mut sys = b.build().unwrap();
    let deleted = sys.rules().iter().next().unwrap().name.clone();
    let mut script = ChangeScript::new();
    script.push(SimTime(t.0 / 3), sys.make_delete_link(&deleted).unwrap());
    let reports = sys.run(&RunSpec {
        roots: vec![NodeId(0), NodeId(4)],
        script: script.clone(),
        redrives: 8,
        ..Default::default()
    });
    for r in &reports {
        assert!(r.all_closed, "{r:?}");
        assert!(r.errors.is_empty(), "{:?}", r.errors);
    }
    assert_eq!(sys.sum_stats().crashes, 2);
    let upper = sys.oracle_with(&upper_reference(sys.rules(), &script));
    let lower = sys.oracle_with(&lower_reference(sys.rules(), &script));
    let (upper, lower) = (upper.unwrap(), lower.unwrap());
    for (node, db) in &sys.snapshot().0 {
        assert!(
            contained_modulo_nulls(db, upper.node(*node).unwrap()),
            "unsound data at {node}"
        );
        assert!(
            contained_modulo_nulls(lower.node(*node).unwrap(), db),
            "incomplete data at {node}"
        );
    }
}
