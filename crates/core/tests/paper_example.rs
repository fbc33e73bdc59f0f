//! End-to-end tests on the paper's Section 2 running example — five nodes
//! A–E, rules r1–r7, with the B↔C and A→B→C→A dependency cycles that make
//! fix-point detection non-trivial.

use p2p_core::config::UpdateMode;
use p2p_core::system::P2PSystemBuilder;
use p2p_relational::Value;
use p2p_topology::paths::format_path;
use p2p_topology::NodeId;

/// Builds the example system with a seed chain in E.
fn example_builder(seed: &[(i64, i64)]) -> P2PSystemBuilder {
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
    b.add_rule("r5", "A:a(X,Y) => C:f(X)").unwrap();
    b.add_rule("r6", "A:a(X,Y) => D:d(Y,X)").unwrap();
    b.add_rule("r7", "D:d(X,Y), D:d(Y,Z) => C:c(X,Y)").unwrap();
    for &(x, y) in seed {
        b.insert(4, "e", vec![Value::Int(x), Value::Int(y)])
            .unwrap();
    }
    b
}

#[test]
fn eager_reaches_the_global_fixpoint() {
    let mut sys = example_builder(&[(1, 2), (2, 3), (3, 1)]).build().unwrap();
    let report = sys.run_update();
    assert!(report.outcome.quiescent, "must quiesce");
    assert!(report.all_closed, "every node must close");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let oracle = sys.oracle().unwrap();
    assert!(
        sys.snapshot().equivalent(&oracle),
        "distributed result must equal the centralized fix-point"
    );
    // The cycle means B and C cannot close via rule flags alone.
    assert!(oracle.total_tuples() > 3, "rules must have derived data");
}

#[test]
fn rounds_reaches_the_same_fixpoint() {
    let mut eager_sys = example_builder(&[(1, 2), (2, 3), (3, 1)]).build().unwrap();
    eager_sys.run_update();

    let mut b = example_builder(&[(1, 2), (2, 3), (3, 1)]);
    b.config_mut().mode = UpdateMode::Rounds;
    let mut sys = b.build().unwrap();
    let report = sys.run_update();
    assert!(report.outcome.quiescent);
    assert!(report.all_closed, "rounds mode must close");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.rounds >= 2, "cyclic example needs several rounds");
    assert!(
        sys.snapshot().equivalent(&eager_sys.snapshot()),
        "both modes converge to the same state"
    );
}

#[test]
fn sync_vs_async_tradeoff_holds() {
    // The paper: the asynchronous model "may be faster at expense of an
    // increase of the number of messages in the network".
    let mut eager = example_builder(&[(1, 2), (2, 3), (3, 1)]).build().unwrap();
    let eager_report = eager.run_update();

    let mut b = example_builder(&[(1, 2), (2, 3), (3, 1)]);
    b.config_mut().mode = UpdateMode::Rounds;
    let mut rounds = b.build().unwrap();
    let rounds_report = rounds.run_update();

    assert!(
        eager_report.outcome.virtual_time <= rounds_report.outcome.virtual_time,
        "eager ({}) should converge no later than rounds ({})",
        eager_report.outcome.virtual_time,
        rounds_report.outcome.virtual_time,
    );
}

#[test]
fn discovery_learns_the_paper_paths() {
    let mut sys = example_builder(&[]).build().unwrap();
    let report = sys.run_discovery(&[]);
    assert!(report.outcome.quiescent);
    assert!(report.all_closed, "discovery must close everywhere");

    let paths_of = |node: u32| -> Vec<String> {
        let mut p: Vec<String> = sys
            .peer(NodeId(node))
            .unwrap()
            .paths()
            .expect("paths computed")
            .iter()
            .map(|p| format_path(p))
            .collect();
        p.sort();
        p
    };
    // The Section 2 table, corrected for the PDF's typographical slips:
    // these rows follow Definitions 6–7 exactly.
    assert_eq!(paths_of(0), vec!["ABCA", "ABCB", "ABCDA", "ABE"]);
    assert_eq!(paths_of(1), vec!["BCAB", "BCB", "BCDAB", "BE"]);
    assert_eq!(
        paths_of(2),
        vec!["CABC", "CABE", "CBC", "CBE", "CDABC", "CDABE"]
    );
    assert_eq!(paths_of(3), vec!["DABCA", "DABCB", "DABCD", "DABE"]);
    assert_eq!(paths_of(4), Vec::<String>::new());
}

#[test]
fn local_queries_after_update_need_no_network() {
    let mut sys = example_builder(&[(1, 2), (2, 3), (3, 1)]).build().unwrap();
    sys.run_update();
    let before = sys.net_stats().total_messages;
    // Query node C locally for derived c-facts.
    let ans = sys.query(NodeId(2), "q(X, Y) :- c(X, Y)").unwrap();
    assert!(!ans.is_empty());
    assert_eq!(
        sys.net_stats().total_messages,
        before,
        "local query must exchange zero messages"
    );
}

#[test]
fn empty_seed_converges_trivially() {
    let mut sys = example_builder(&[]).build().unwrap();
    let report = sys.run_update();
    assert!(report.outcome.quiescent);
    assert!(report.all_closed);
    assert_eq!(sys.snapshot().total_tuples(), 0);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sys = example_builder(&[(1, 2), (2, 3), (3, 1)]).build().unwrap();
        let r = sys.run_update();
        (
            r.messages,
            r.bytes,
            r.outcome.virtual_time,
            sys.snapshot().total_tuples(),
        )
    };
    assert_eq!(run(), run(), "simulator must be deterministic");
}

#[test]
fn larger_seed_more_messages() {
    let small = {
        let mut sys = example_builder(&[(1, 2)]).build().unwrap();
        sys.run_update().bytes
    };
    let large = {
        let seed: Vec<(i64, i64)> = (0..20).map(|i| (i, i + 1)).collect();
        let mut sys = example_builder(&seed).build().unwrap();
        sys.run_update().bytes
    };
    assert!(large > small, "more data must ship more bytes");
}
