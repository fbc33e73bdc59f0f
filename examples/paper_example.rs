//! The paper's Section 2 running example, end to end: nodes A–E, rules
//! r1–r7, topology discovery with maximal dependency paths, a Figure-1
//! style execution trace, and the distributed update on a cyclic network.
//!
//! ```text
//! cargo run --example paper_example
//! ```

use p2pdb::core::system::P2PSystemBuilder;
use p2pdb::relational::Val;
use p2pdb::topology::paths::format_path;
use p2pdb::topology::NodeId;

fn builder() -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int). f(x: int).")
        .unwrap();
    b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
    b.add_node_with_schema(4, "e(x: int, y: int).").unwrap();
    // The seven rules of Section 2, verbatim.
    b.add_rule("r1", "E:e(X,Y) => B:b(X,Y)").unwrap();
    b.add_rule("r2", "B:b(X,Y), B:b(Y,Z) => C:c(X,Z)").unwrap();
    b.add_rule("r3", "C:c(X,Y), C:c(Y,Z) => B:b(X,Z)").unwrap();
    b.add_rule("r4", "B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)")
        .unwrap();
    b.add_rule("r5", "A:a(X,Y) => C:f(X)").unwrap();
    b.add_rule("r6", "A:a(X,Y) => D:d(Y,X)").unwrap();
    b.add_rule("r7", "D:d(X,Y), D:d(Y,Z) => C:c(X,Y)").unwrap();
    b
}

fn main() {
    // ---- Phase 1: topology discovery (algorithms A1–A3) ------------------
    let mut sys = builder().build().unwrap();
    let report = sys.run_discovery();
    println!(
        "discovery: {} messages, closed everywhere: {}\n",
        report.messages, report.all_closed
    );
    println!("maximal dependency paths (Definitions 6-7):");
    for id in 0..5u32 {
        let node = NodeId(id);
        let mut paths: Vec<String> = sys
            .peer(node)
            .unwrap()
            .paths()
            .unwrap_or(&[])
            .iter()
            .map(|p| format_path(p))
            .collect();
        paths.sort();
        println!(
            "  {}: {}",
            node,
            if paths.is_empty() {
                "∅".into()
            } else {
                paths.join(" ")
            }
        );
    }

    // ---- Phase 2: the distributed update on the cyclic network -----------
    let mut b = builder();
    // Tracing + strict A4 propagation (the query-dependent update rooted at
    // the super-peer) reproduces Figure 1's message flow.
    b.config_mut().trace_capacity = 48;
    // Seed E with a 3-cycle of e-facts.
    for (x, y) in [(1, 2), (2, 3), (3, 1)] {
        b.insert(4, "e", vec![Val::Int(x), Val::Int(y)]).unwrap();
    }
    let mut sys = b.build().unwrap();
    let report = sys.run_scoped_update(sys.super_peer());
    println!(
        "\nupdate: virtual time {}, {} messages, all closed: {}",
        report.outcome.virtual_time, report.messages, report.all_closed
    );

    println!("\nFigure-1 style execution trace (:A :B :C :E):\n");
    println!(
        "{}",
        sys.trace()
            .render_sequence_diagram(&[NodeId(0), NodeId(1), NodeId(2), NodeId(4)])
    );

    // The fix-point is exactly the centralized one (Lemma 1).
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
    println!("Lemma 1 check: distributed fix-point == oracle ✓");

    for (node, rel) in [(0u32, "a"), (1, "b"), (2, "c"), (3, "d")] {
        let db = sys.database(NodeId(node)).unwrap();
        println!(
            "  node {}: |{rel}| = {}",
            NodeId(node),
            db.relation(rel).unwrap().len()
        );
    }
}
