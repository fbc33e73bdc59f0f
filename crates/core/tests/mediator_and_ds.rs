//! Mediator nodes (the paper's Figure 2: "local database may be absent …
//! a given node acts as a mediator for propagating of requests and data")
//! and Dijkstra–Scholten message accounting.

use p2p_core::system::P2PSystemBuilder;
use p2p_relational::Value;
use p2p_topology::NodeId;

#[test]
fn mediator_relays_data_it_never_owned() {
    // A ← M ← C: M declares a schema (DBS "must always be specified in
    // order to allow a node to participate") but holds no base data; it
    // imports from C and relays to A.
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "m(x: int, y: int).").unwrap(); // mediator
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_rule("rm", "C:c(X,Y) => B:m(X,Y)").unwrap();
    b.add_rule("ra", "B:m(X,Y) => A:a(X,Y)").unwrap();
    for i in 0..12i64 {
        b.insert(2, "c", vec![Value::Int(i), Value::Int(2 * i)])
            .unwrap();
    }
    let mut sys = b.build().unwrap();
    let report = sys.run_update();
    assert!(report.all_closed);
    assert_eq!(
        sys.database(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .len(),
        12,
        "data must traverse the mediator"
    );
    // The mediator's cache holds the relayed extension.
    assert_eq!(
        sys.database(NodeId(1))
            .unwrap()
            .relation("m")
            .unwrap()
            .len(),
        12
    );
}

#[test]
fn ds_acks_match_basic_messages_exactly() {
    // Dijkstra–Scholten: every basic message is acknowledged exactly once —
    // by an `Ack`, or, for a query that found its answerer engaged already,
    // by the answer. C is queried twice, so at least one query is.
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
    b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.add_rule("r2", "C:c(X,Y) => B:b(X,Y)").unwrap();
    b.add_rule("r3", "C:c(X,Y) => D:d(X,Y)").unwrap();
    b.insert(2, "c", vec![Value::Int(1), Value::Int(2)])
        .unwrap();
    let mut sys = b.build().unwrap();
    let report = sys.run_update();
    assert!(report.all_closed);

    let stats = sys.net_stats();
    let basic_kinds = [
        "UpdateFlood",
        "Query",
        "Answer",
        "Unsubscribe",
        "CursorVoid",
        "addRule",
        "deleteRule",
    ];
    let basics: u64 = basic_kinds.iter().map(|k| stats.sent_of_kind(k)).sum();
    let acks = stats.sent_of_kind("Ack");
    let acking_answers = sys.sum_stats().acking_answers;
    assert_eq!(
        acks + acking_answers,
        basics,
        "DS must ack each basic message exactly once, by an `Ack` or by the answer \
         replying to it (basics={basics}, acks={acks}, acking answers={acking_answers})"
    );
    assert!(acking_answers > 0);
    // And the fix-point broadcast went to every non-root node exactly once.
    assert_eq!(stats.sent_of_kind("Fixpoint"), 3);
}

/// Chain A←B←C with one tuple at C.
fn chain(paper_faithful: bool) -> p2p_core::system::P2PSystem {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.add_rule("r2", "C:c(X,Y) => B:b(X,Y)").unwrap();
    b.insert(2, "c", vec![Value::Int(1), Value::Int(2)])
        .unwrap();
    b.config_mut().paper_faithful = paper_faithful;
    b.build().unwrap()
}

#[test]
fn data_plane_message_counts_are_explainable() {
    // First contact: data-plane traffic is
    //   2 UpdateFlood — the super-peer's roster send reaches B and C once
    //     each, and nobody forwards it;
    //   2 Query (A→B, B→C) — nothing is held yet
    //   initial Answers (B→A empty, C→B with the tuple)
    //   delta Answers as data and completeness propagate.
    let mut sys = chain(false);
    sys.run_update();
    let first = sys.net_stats().clone();
    assert_eq!(first.sent_of_kind("Query"), 2);
    assert_eq!(first.sent_of_kind("UpdateFlood"), 2);
    // B answers A twice (empty, then the arrived tuple with completeness),
    // C answers B once — plus at most one completeness-only repeat each.
    let answers = first.sent_of_kind("Answer");
    assert!((3..=5).contains(&answers), "answers={answers}");

    // A second session with one more tuple at C: the cursors are the
    // subscriptions, so nobody asks — 2 floods, the tuple pushed C→B and
    // B→A, one ack for each of the four, and the broadcast.
    sys.insert(NodeId(2), "c", vec![Value::Int(3), Value::Int(4)])
        .unwrap();
    assert!(sys.run_update().all_closed);
    let sent = |kind| sys.net_stats().sent_of_kind(kind) - first.sent_of_kind(kind);
    assert_eq!(sent("Query"), 0);
    assert_eq!(sent("UpdateFlood"), 2);
    assert_eq!(sent("Answer"), 2);
    assert_eq!(sent("Ack"), 4);
    assert_eq!(sent("Fixpoint"), 2);
    assert_eq!(sys.database(NodeId(0)).unwrap().total_tuples(), 2);

    // The paper's protocol: B and C each also forward the start request to
    // their other pipe end (4 floods), and every session asks again.
    let mut faithful = chain(true);
    for _ in 0..2 {
        let before = faithful.net_stats().clone();
        faithful.run_update();
        let sent = |kind| faithful.net_stats().sent_of_kind(kind) - before.sent_of_kind(kind);
        assert_eq!(sent("UpdateFlood"), 4);
        assert_eq!(sent("Query"), 2);
    }
    // Message for message and byte for byte what these two sessions cost
    // before the default protocol learned to keep quiet (integers only, so
    // the bytes do not depend on interning order).
    let net = faithful.net_stats();
    assert_eq!(
        (net.sent_of_kind("Answer"), net.sent_of_kind("Ack")),
        (7, 19)
    );
    assert_eq!((net.total_messages, net.total_bytes), (44, 3230));
}
