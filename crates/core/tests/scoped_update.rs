//! Query-dependent updates (Section 5): a scoped refresh rooted at one node
//! touches exactly its dependency-reachable region.

use p2p_core::system::{P2PSystemBuilder, RunSpec};
use p2p_relational::Value;
use p2p_topology::NodeId;

/// The query-dependent update rooted at `root`.
fn scoped_at(root: NodeId) -> RunSpec {
    RunSpec {
        roots: vec![root],
        scoped: true,
        ..Default::default()
    }
}

/// Chain A ← B ← C (A imports from B, B from C) plus an unrelated pair
/// D ← E; data at C and E.
fn builder() -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
    b.add_node_with_schema(4, "e(x: int, y: int).").unwrap();
    b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.add_rule("r2", "C:c(X,Y) => B:b(X,Y)").unwrap();
    b.add_rule("r3", "E:e(X,Y) => D:d(X,Y)").unwrap();
    b.insert(2, "c", vec![Value::Int(1), Value::Int(2)])
        .unwrap();
    b.insert(4, "e", vec![Value::Int(7), Value::Int(8)])
        .unwrap();
    b
}

#[test]
fn scoped_update_fills_only_the_reachable_region() {
    let mut sys = builder().build().unwrap();
    let report = sys.run(&scoped_at(NodeId(0))).remove(0);
    assert!(report.outcome.quiescent);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    // A's chain is refreshed…
    assert_eq!(
        sys.database(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        sys.database(NodeId(1))
            .unwrap()
            .relation("b")
            .unwrap()
            .len(),
        1
    );
    // …the unrelated D ← E pair is untouched.
    assert_eq!(
        sys.database(NodeId(3))
            .unwrap()
            .relation("d")
            .unwrap()
            .len(),
        0
    );
    // The root closed (its fix-point is reached); D did not participate.
    assert!(sys.closed(NodeId(0)));
    assert!(!sys.closed(NodeId(3)));
}

#[test]
fn scoped_update_never_reaches_a_dependant_of_the_root() {
    // F imports from A: under strict A4 propagation A never *forwards* to
    // its dependants, so F has a rule yet never participates.
    let mut b = builder();
    b.add_node_with_schema(5, "f(x: int, y: int).").unwrap();
    b.add_rule("r4", "A:a(X,Y) => F:f(X,Y)").unwrap();
    let mut sys = b.build().unwrap();
    let report = sys.run(&scoped_at(NodeId(0))).remove(0);
    assert!(report.outcome.quiescent);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    // A, B, C participated and closed…
    for node in 0..3 {
        assert!(sys.closed(NodeId(node)), "node {node}");
    }
    // …F stayed open and empty.
    assert!(!report.all_closed);
    assert!(!sys.closed(NodeId(5)));
    assert_eq!(
        sys.database(NodeId(5))
            .unwrap()
            .relation("f")
            .unwrap()
            .len(),
        0
    );
}

#[test]
fn scoped_update_from_mid_chain() {
    let mut sys = builder().build().unwrap();
    sys.run(&scoped_at(NodeId(1)));
    // B refreshed from C; A untouched (nothing depends *from* B on A).
    assert_eq!(
        sys.database(NodeId(1))
            .unwrap()
            .relation("b")
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        sys.database(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .len(),
        0
    );
}

#[test]
fn distributed_query_materialises_then_answers() {
    let mut sys = builder().build().unwrap();
    let before = sys.net_stats().total_messages;
    let scoped = RunSpec {
        roots: vec![NodeId(0)],
        scoped: true,
        ..Default::default()
    };
    sys.run(&scoped);
    let ans = sys.query(NodeId(0), "q(X, Y) :- a(X, Y)").unwrap();
    assert_eq!(ans.len(), 1);
    assert!(
        sys.net_stats().total_messages > before,
        "distributed query must have fetched data"
    );
    // A second identical query needs no new data, but the scoped refresh
    // still runs (cheaply: everything already present, answers are empty
    // deltas).
    sys.run(&scoped);
    let ans2 = sys.query(NodeId(0), "q(X, Y) :- a(X, Y)").unwrap();
    assert_eq!(ans2, ans);
}

#[test]
fn scoped_messages_cheaper_than_global() {
    let scoped_msgs = {
        let mut sys = builder().build().unwrap();
        sys.run(&scoped_at(NodeId(0))).remove(0).messages
    };
    let global_msgs = {
        let mut sys = builder().build().unwrap();
        sys.run_update().messages
    };
    assert!(
        scoped_msgs < global_msgs,
        "scoped ({scoped_msgs}) must beat global ({global_msgs})"
    );
}

#[test]
fn scoped_update_on_cycle_terminates() {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.add_rule("r2", "A:a(X,Y) => B:b(Y,X)").unwrap();
    b.insert(1, "b", vec![Value::Int(1), Value::Int(2)])
        .unwrap();
    let mut sys = b.build().unwrap();
    let report = sys.run(&scoped_at(NodeId(0))).remove(0);
    assert!(report.outcome.quiescent);
    assert!(sys.closed(NodeId(0)));
    // The cycle saturates: a(1,2), a(2,1); b(1,2), b(2,1).
    assert_eq!(
        sys.database(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .len(),
        2
    );
}
