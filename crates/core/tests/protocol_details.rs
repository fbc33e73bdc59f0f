//! Protocol-detail tests: super-peer commands (statistics collection/reset,
//! rule-file broadcast — the Section 5 implementation features), the global
//! update's reach, and behaviour under latency jitter.

use p2p_core::rule::{CoordinationRule, RuleSet};
use p2p_core::system::P2PSystemBuilder;
use p2p_net::{BandwidthLatency, SimTime, UniformLatency};
use p2p_relational::Value;
use p2p_topology::NodeId;

fn chain_builder() -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.add_rule("r2", "C:c(X,Y) => B:b(X,Y)").unwrap();
    for i in 0..8i64 {
        b.insert(2, "c", vec![Value::Int(i), Value::Int(i + 1)])
            .unwrap();
    }
    b
}

#[test]
fn collect_stats_covers_every_peer() {
    let mut sys = chain_builder().build().unwrap();
    sys.run_update();
    let stats = sys.collect_stats();
    assert_eq!(stats.len(), 3, "one report per node incl. the super-peer");
    // The data source (C) shipped rows; the sink (A) inserted them.
    assert!(stats[&NodeId(2)].rows_shipped >= 8);
    assert!(stats[&NodeId(0)].tuples_inserted >= 8);
    assert!(stats[&NodeId(0)].queries_sent >= 1);
}

#[test]
fn reset_stats_zeroes_all_peers() {
    let mut sys = chain_builder().build().unwrap();
    sys.run_update();
    sys.reset_stats();
    let stats = sys.collect_stats();
    for (node, s) in &stats {
        assert_eq!(s.tuples_inserted, 0, "{node} not reset");
        assert_eq!(s.rows_shipped, 0, "{node} not reset");
    }
}

#[test]
fn broadcast_rules_swaps_the_topology_at_runtime() {
    // Section 5: "one peer can change the network topology at run-time.
    // This is extremely convenient for running multiple experiments".
    let mut sys = chain_builder().build().unwrap();
    let first = sys.run_update();
    assert!(first.all_closed);
    assert_eq!(
        sys.database(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .len(),
        8
    );

    // New rule file: reverse the data flow (A's data — now 8 tuples — feeds
    // C through B is gone; instead C imports directly from A).
    let names = |s: &str| match s {
        "A" => Some(NodeId(0)),
        "B" => Some(NodeId(1)),
        "C" => Some(NodeId(2)),
        _ => None,
    };
    let mut new_rules = RuleSet::new();
    new_rules
        .add(CoordinationRule::parse("n1", "A:a(X,Y) => C:c(Y,X)", None, &names).unwrap())
        .unwrap();
    sys.broadcast_rules(new_rules);

    let second = sys.run_update();
    assert!(second.outcome.quiescent);
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    // C gained the reversed tuples (its own 8 + 8 reversed, deduplicated by
    // value overlap: (i+1, i) vs (i, i+1) are distinct).
    assert_eq!(
        sys.database(NodeId(2))
            .unwrap()
            .relation("c")
            .unwrap()
            .len(),
        16
    );
}

#[test]
fn broadcast_rules_resets_discovery_knowledge() {
    // Discovery edges learned under the old rule file must not survive a
    // rule broadcast: re-running discovery afterwards reports exactly the
    // new topology.
    let mut sys = chain_builder().build().unwrap();
    sys.run_discovery(&[NodeId(0), NodeId(1), NodeId(2)]);
    assert!(sys
        .peer(NodeId(0))
        .unwrap()
        .known_edges()
        .contains(&(NodeId(0), NodeId(1))));

    let names = |s: &str| match s {
        "A" => Some(NodeId(0)),
        "B" => Some(NodeId(1)),
        "C" => Some(NodeId(2)),
        _ => None,
    };
    let mut new_rules = RuleSet::new();
    new_rules
        .add(CoordinationRule::parse("n1", "A:a(X,Y) => C:c(Y,X)", None, &names).unwrap())
        .unwrap();
    sys.broadcast_rules(new_rules);
    sys.run_discovery(&[NodeId(0), NodeId(1), NodeId(2)]);
    let edges = sys.peer(NodeId(2)).unwrap().known_edges();
    assert!(edges.contains(&(NodeId(2), NodeId(0))), "{edges:?}");
    assert!(
        !edges.contains(&(NodeId(0), NodeId(1))),
        "stale pre-broadcast edge survived: {edges:?}"
    );
}

#[test]
fn flood_initiation_covers_dependants_too() {
    let mut b = chain_builder();
    b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
    b.add_rule("rd", "A:a(X,Y) => D:d(X,Y)").unwrap();
    let mut sys = b.build().unwrap();
    let report = sys.run_update();
    assert!(
        report.all_closed,
        "flood reaches dependants of the super-peer"
    );
    assert_eq!(
        sys.database(NodeId(3))
            .unwrap()
            .relation("d")
            .unwrap()
            .len(),
        8
    );
}

#[test]
fn jitter_reordering_does_not_break_the_protocol() {
    for seed in [1u64, 7, 23, 99] {
        let mut b = chain_builder();
        b.set_latency(UniformLatency::new(
            SimTime::from_micros(100),
            SimTime::from_millis(50),
            seed,
        ));
        let mut sys = b.build().unwrap();
        let report = sys.run_update();
        assert!(report.all_closed, "seed {seed}");
        assert!(
            sys.snapshot().equivalent(&sys.oracle().unwrap()),
            "seed {seed}: jitter changed the fix-point"
        );
    }
}

#[test]
fn bandwidth_latency_penalises_bulk_transfers() {
    let run = |records: i64| {
        let mut b = P2PSystemBuilder::new();
        b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
        b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
        b.add_rule("r", "B:b(X,Y) => A:a(X,Y)").unwrap();
        for i in 0..records {
            b.insert(1, "b", vec![Value::Int(i), Value::Int(i)])
                .unwrap();
        }
        b.set_latency(BandwidthLatency {
            base: SimTime::from_millis(1),
            nanos_per_byte: 1_000_000, // 1 ms per byte: data dominates
        });
        let mut sys = b.build().unwrap();
        sys.run_update().outcome.virtual_time
    };
    assert!(run(50) > run(5), "bigger answers must take longer");
}

#[test]
fn update_report_counts_are_stable_across_identical_runs() {
    let run = || {
        let mut sys = chain_builder().build().unwrap();
        let r = sys.run_update();
        (r.messages, r.bytes)
    };
    assert_eq!(run(), run());
}

#[test]
fn second_epoch_is_cheap_when_nothing_changed() {
    let mut sys = chain_builder().build().unwrap();
    let first = sys.run_update();
    let second = sys.run_update();
    assert!(second.all_closed);
    // Deltas are empty in the second epoch, so fewer bytes move.
    assert!(
        second.bytes <= first.bytes,
        "idempotent re-run must not ship more: {} vs {}",
        second.bytes,
        first.bytes
    );
}
