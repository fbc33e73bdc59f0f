//! Delta-driven wave answers: correctness (tuple-identical to the full
//! re-ship baseline *and* the global oracle), traffic savings (≥3× fewer
//! rows shipped on a cyclic topology), stale-round accounting, and
//! property-based checks of the delta layer itself.

use p2pdb::core::config::UpdateMode;
use p2pdb::core::joins::{compile_part, eval_part, eval_part_delta_planned, EvalMetrics};
use p2pdb::core::messages::{ProtocolMsg, Query, Start, Via};
use p2pdb::core::peer::DbPeer;
use p2pdb::core::rule::CoordinationRule;
use p2pdb::core::stats::PeerStats;
use p2pdb::core::system::{P2PSystem, P2PSystemBuilder};
use p2pdb::net::{SimTime, Simulator, UniformLatency};
use p2pdb::relational::query::Idents;
use p2pdb::relational::{Database, DatabaseSchema, ShowRow, Val};
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{build_system, Distribution, WorkloadConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The paper's running example (Section 2): a 5-node network with the
/// B↔C dependency cycle that needs several rounds to close.
fn paper_builder(delta_waves: bool) -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int). f(x: int).")
        .unwrap();
    b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
    b.add_node_with_schema(4, "e(x: int, y: int).").unwrap();
    b.add_rule("r1", "E:e(X,Y) => B:b(X,Y)").unwrap();
    b.add_rule("r2", "B:b(X,Y), B:b(Y,Z) => C:c(X,Z)").unwrap();
    b.add_rule("r3", "C:c(X,Y), C:c(Y,Z) => B:b(X,Z)").unwrap();
    b.add_rule("r4", "B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)")
        .unwrap();
    for (x, y) in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)] {
        b.insert(4, "e", vec![Val::Int(x), Val::Int(y)]).unwrap();
    }
    b.config_mut().mode = UpdateMode::Rounds;
    b.config_mut().paper_faithful = !delta_waves;
    b
}

/// One database's facts, as `Database::all_facts` lists them.
type Facts = Vec<(Arc<str>, Vec<Val>)>;

/// Every database's facts, exactly (not just equivalence modulo nulls —
/// the paper example mints no nulls).
fn exact_facts(sys: &P2PSystem) -> Vec<(NodeId, Facts)> {
    sys.peers()
        .map(|(id, p)| (*id, p.database().all_facts()))
        .collect()
}

#[test]
fn paper_example_delta_rounds_identical_to_full_reship_and_oracle() {
    let mut delta = paper_builder(true).build().unwrap();
    let mut full = paper_builder(false).build().unwrap();
    let dr = delta.run_update();
    let fr = full.run_update();
    assert!(dr.all_closed && fr.all_closed);
    assert!(dr.errors.is_empty(), "{:?}", dr.errors);
    assert!(dr.rounds >= 2, "cyclic example needs several rounds");
    assert_eq!(dr.rounds, fr.rounds, "delta must not change convergence");

    // Fact-identical to the full-reship baseline and to the oracle.
    assert_eq!(exact_facts(&delta), exact_facts(&full));
    assert!(delta.snapshot().equivalent(&delta.oracle().unwrap()));

    // The delta machinery actually engaged and saved traffic.
    let ds = delta.sum_stats();
    let fs = full.sum_stats();
    assert!(ds.delta_answers_sent > 0, "{ds}");
    assert!(ds.rows_saved > 0, "{ds}");
    assert!(
        ds.rows_shipped < fs.rows_shipped,
        "delta {} vs full {}",
        ds.rows_shipped,
        fs.rows_shipped
    );
    assert_eq!(fs.delta_answers_sent, 0, "baseline must not ship deltas");
}

fn run_ring(delta_waves: bool) -> (P2PSystem, PeerStats) {
    let cfg = WorkloadConfig {
        topology: Topology::Ring { n: 8 },
        records_per_node: 20,
        distribution: Distribution::Disjoint,
        seed: 7,
    };
    let mut b = build_system(&cfg).unwrap();
    b.config_mut().mode = UpdateMode::Rounds;
    b.config_mut().paper_faithful = !delta_waves;
    b.config_mut().max_events = 50_000_000;
    let mut sys = b.build().unwrap();
    let report = sys.run_update();
    assert!(report.outcome.quiescent && report.all_closed);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.rounds >= 3, "a ring needs several rounds");
    let stats = sys.sum_stats();
    (sys, stats)
}

#[test]
fn cyclic_ring_delta_ships_at_least_3x_fewer_rows() {
    let (delta_sys, ds) = run_ring(true);
    let (full_sys, fs) = run_ring(false);
    // Same fix-point as the baseline and the oracle.
    assert!(delta_sys.snapshot().equivalent(&full_sys.snapshot()));
    assert!(delta_sys
        .snapshot()
        .equivalent(&delta_sys.oracle().unwrap()));
    // ≥3× fewer rows over the wire (the acceptance bar; in practice much
    // more — full re-ship grows quadratically with rounds).
    assert!(
        ds.rows_shipped * 3 <= fs.rows_shipped,
        "delta shipped {} rows, full shipped {} — ratio {:.2}",
        ds.rows_shipped,
        fs.rows_shipped,
        fs.rows_shipped as f64 / ds.rows_shipped.max(1) as f64
    );
    assert!(ds.rows_saved > 0);
}

/// Regression: a wave query for an already-finished round, from a peer that
/// holds everything it was shipped (`resume`), is answered with an
/// **empty** acknowledgement counted under `stale_answers_sent`, not with
/// the full current extension counted as useful traffic. The lagging peer
/// is simulated by injecting its round-1 query after the session closed
/// under a jittery latency model. Asked afresh instead, the finished peer
/// ships the full extension the requester asked for.
#[test]
fn stale_wave_query_ships_empty_ack_not_full_extension() {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_rule("rab", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.add_rule("rbc", "C:c(X,Y) => B:b(X,Y)").unwrap();
    b.add_rule("rca", "A:a(X,Y) => C:c(Y,X)").unwrap();
    for i in 0..10i64 {
        b.insert(2, "c", vec![Val::Int(i), Val::Int(i + 1)])
            .unwrap();
    }
    b.config_mut().mode = UpdateMode::Rounds;
    let peers = b.build_peers().unwrap();

    // A hand-rolled simulator so a stale query can be injected: uniform
    // jitter stands in for the slow links that make peers lag.
    let mut sim: Simulator<ProtocolMsg, DbPeer> = Simulator::new(Box::new(UniformLatency::new(
        SimTime::from_micros(200),
        SimTime::from_micros(5_000),
        13,
    )));
    for (id, peer) in peers {
        sim.add_peer(id, peer);
    }
    let sid = p2pdb::net::SessionId::new(NodeId(0), 1);
    sim.inject(
        NodeId(0),
        NodeId(0),
        ProtocolMsg::StartUpdate { session: sid },
    );
    let outcome = sim.run();
    assert!(outcome.quiescent);
    let final_round = sim.peer(NodeId(0)).unwrap().stats().rounds;
    assert!(final_round >= 2, "cycle needs several rounds");

    let before = sim.peer(NodeId(2)).unwrap().stats().clone();
    let b_received_before = sim.peer(NodeId(1)).unwrap().stats().answers_received;
    assert_eq!(before.stale_answers_sent, 0);

    // The lagging peer B re-asks C for round 1, long finished.
    let resolve = |s: &str| match s {
        "B" => Some(NodeId(1)),
        "C" => Some(NodeId(2)),
        _ => None,
    };
    let rule = CoordinationRule::parse(
        "lag",
        "C:c(X,Y) => B:b(X,Y)",
        None,
        &resolve,
        &mut Idents::new(),
    )
    .unwrap();
    let lagging = |from| {
        let part = rule.parts[0].clone();
        ProtocolMsg::Query(Query::new(sid, rule.id, part, from, Via::Round(1)))
    };
    sim.inject(NodeId(1), NodeId(2), lagging(Start::Resume));
    sim.run();

    let after = sim.peer(NodeId(2)).unwrap().stats().clone();
    assert_eq!(after.stale_answers_sent, 1, "stale ack counted separately");
    assert_eq!(
        after.answers_sent, before.answers_sent,
        "stale ack must not count as a useful answer"
    );
    assert_eq!(
        after.rows_shipped, before.rows_shipped,
        "stale ack must ship zero rows"
    );
    // The requester received the ack and dropped it without corrupting its
    // closed state.
    let b_peer = sim.peer(NodeId(1)).unwrap();
    assert!(b_peer.update_closed());
    assert_eq!(b_peer.stats().answers_received, b_received_before + 1);

    sim.inject(NodeId(1), NodeId(2), lagging(Start::Fresh));
    sim.run();
    let fresh = sim.peer(NodeId(2)).unwrap().stats().clone();
    let extension = sim.peer(NodeId(2)).unwrap().database().total_tuples() as u64;
    assert_eq!(fresh.stale_answers_sent, 1);
    assert_eq!(fresh.answers_sent, after.answers_sent + 1);
    assert_eq!(fresh.rows_shipped, after.rows_shipped + extension);
}

// ---------------------------------------------------------------------------
// Property-based checks of the delta layer
// ---------------------------------------------------------------------------

fn part_rule() -> CoordinationRule {
    let resolve = |s: &str| match s {
        "A" => Some(NodeId(0)),
        "B" => Some(NodeId(1)),
        _ => None,
    };
    CoordinationRule::parse(
        "r",
        "B:b(X,Y), B:b(Y,Z) => A:a(X,Z)",
        None,
        &resolve,
        &mut Idents::new(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary insert interleavings, the union of all shipped deltas
    /// (each taken against the previous answer's watermarks) equals a fresh
    /// full evaluation of the fragment — the invariant that makes
    /// a round's delta answer sound.
    #[test]
    fn deltas_union_to_full_eval(batches in proptest::collection::vec(
        proptest::collection::vec((0..6i64, 0..6i64), 0..8), 1..6)) {
        let rule = part_rule();
        let part = &rule.parts[0];
        let mut db = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        // One compiled body serves every batch, as a peer's does.
        let body = compile_part(part, &db).unwrap();
        let mut metrics = EvalMetrics::default();
        let mut watermarks = BTreeMap::new();
        let mut cached: HashSet<Vec<Val>> = HashSet::new();
        for batch in batches {
            for (x, y) in batch {
                db.insert_values("b", vec![Val::Int(x), Val::Int(y)]).unwrap();
            }
            let delta =
                eval_part_delta_planned(&body, part, &mut db, &watermarks, true, &mut metrics)
                    .unwrap();
            watermarks = db.watermarks();
            // Every delta row is part of the full evaluation …
            let full: HashSet<Vec<Val>> = eval_part(part, &db).unwrap().iter().map(<[Val]>::to_vec).collect();
            for row in delta.iter() {
                prop_assert!(full.contains(row), "delta row {} not in full eval", ShowRow(row));
            }
            cached.extend(delta.iter().map(<[Val]>::to_vec));
            // … and (cached rows ∪ shipped deltas) IS the full evaluation.
            prop_assert_eq!(&cached, &full);
        }
    }

    /// `watermarks` / `facts_since` survive `Database` clones and
    /// serialize/deserialize snapshots: the delta base is portable state.
    #[test]
    fn watermarks_roundtrip_across_clones_and_snapshots(
        first in proptest::collection::vec((0..6i64, 0..6i64), 0..10),
        second in proptest::collection::vec((0..6i64, 0..6i64), 0..10)) {
        let mut db = Database::new(
            DatabaseSchema::parse("a(x: int). b(x: int, y: int).").unwrap());
        for (x, y) in &first {
            db.insert_values("b", vec![Val::Int(*x), Val::Int(*y)]).unwrap();
            db.insert_values("a", vec![Val::Int(*x)]).unwrap();
        }
        let w = db.watermarks();

        let mut cloned = db.clone();
        let json = serde_json::to_string(&db).unwrap();
        let mut restored: Database = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(restored.watermarks(), w.clone());
        prop_assert_eq!(cloned.watermarks(), w.clone());

        // Inserting the same facts into all three yields the same deltas.
        for (x, y) in &second {
            for d in [&mut db, &mut cloned, &mut restored] {
                d.insert_values("b", vec![Val::Int(*x), Val::Int(*y)]).unwrap();
            }
        }
        prop_assert_eq!(db.facts_since(&w), cloned.facts_since(&w));
        prop_assert_eq!(db.facts_since(&w), restored.facts_since(&w));
        // And the current watermarks still describe "nothing new".
        prop_assert!(db.facts_since(&db.watermarks()).is_empty());
    }
}
