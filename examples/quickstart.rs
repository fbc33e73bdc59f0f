//! Quickstart: two database peers sharing data through one coordination
//! rule.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use p2pdb::core::system::P2PSystemBuilder;
use p2pdb::relational::{ShowRow, Val};
use p2pdb::topology::NodeId;

fn main() {
    // Node A (id 0) stores `a(x, y)`; node B (id 1) stores `b(x, y)`.
    let mut builder = P2PSystemBuilder::new();
    builder
        .add_node_with_schema(0, "a(x: int, y: int).")
        .unwrap();
    builder
        .add_node_with_schema(1, "b(x: int, y: int).")
        .unwrap();

    // Coordination rule r1 (paper Definition 2): whatever B stores in `b`,
    // A imports into `a`.
    builder.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();

    // Base data lives at B.
    for (x, y) in [(1, 2), (2, 3), (3, 4)] {
        builder
            .insert(1, "b", vec![Val::Int(x), Val::Int(y)])
            .unwrap();
    }

    let mut sys = builder.build().unwrap();

    // Run the distributed update: the super-peer (node 0) initiates, data
    // propagates, every node reaches `state_u = closed` at its fix-point.
    let report = sys.run_update();
    println!(
        "update finished: virtual time {}, {} messages, all closed: {}",
        report.outcome.virtual_time, report.messages, report.all_closed
    );

    // The point of the update problem (vs. query answering): local queries
    // now need zero network traffic.
    let answers = sys.query(NodeId(0), "q(X, Y) :- a(X, Y)").unwrap();
    println!("node A answers q(X,Y) :- a(X,Y) locally:");
    for row in answers.iter() {
        println!("  {}", ShowRow(row));
    }
    assert_eq!(answers.len(), 3);

    // And the result provably equals the centralized fix-point.
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
    println!("distributed result == centralized fix-point ✓");
}
