//! Dynamic networks (Section 4): coordination rules appear and disappear
//! *while the update runs*; the algorithm still terminates (Theorem 2) with
//! a result inside the Definition 9 soundness/completeness envelope, and a
//! separated component closes despite churn elsewhere (Theorem 3).
//!
//! ```text
//! cargo run --example dynamic_network
//! ```

use p2pdb::core::dynamic::{lower_reference, upper_reference, ChangeScript};
use p2pdb::core::system::{P2PSystemBuilder, RunSpec};
use p2pdb::net::SimTime;
use p2pdb::relational::hom::contained_modulo_nulls;
use p2pdb::relational::Val;
use p2pdb::topology::NodeId;

fn main() {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_rule("r0", "B:b(X,Y) => A:a(X,Y)").unwrap();
    for i in 0..25i64 {
        b.insert(1, "b", vec![Val::Int(i), Val::Int(i + 1)])
            .unwrap();
        b.insert(2, "c", vec![Val::Int(100 + i), Val::Int(i)])
            .unwrap();
    }
    let mut sys = b.build().unwrap();

    // Script: 3 ms into the run, a new rule C→A appears (addLink); at 6 ms
    // the original rule r0 disappears (deleteLink).
    let mut script = ChangeScript::new();
    let add = sys.make_add_link("rx", "C:c(X,Y) => A:a(X,Y)").unwrap();
    script.push(SimTime::from_millis(3), add);
    let del = sys.make_delete_link("r0").unwrap();
    script.push(SimTime::from_millis(6), del);

    println!("running update with a mid-flight addLink + deleteLink script…");
    let report = sys
        .run(&RunSpec {
            script: script.clone(),
            ..Default::default()
        })
        .remove(0);
    println!(
        "terminated: {} (Theorem 2), all closed: {}, {} messages",
        report.outcome.quiescent, report.all_closed, report.messages
    );

    // Definition 9 envelope: sound w.r.t. all-adds-no-deletes, complete
    // w.r.t. deletes-first-no-adds.
    let upper = sys
        .oracle_with(&upper_reference(sys.rules(), &script))
        .unwrap();
    let lower = sys
        .oracle_with(&lower_reference(sys.rules(), &script))
        .unwrap();
    let result = sys.snapshot();
    let sound = result
        .0
        .iter()
        .all(|(n, db)| contained_modulo_nulls(db, upper.node(*n).unwrap()));
    let complete = result
        .0
        .iter()
        .all(|(n, db)| contained_modulo_nulls(lower.node(*n).unwrap(), db));
    println!("Definition 9: sound = {sound}, complete = {complete}");

    let a = sys.database(NodeId(0)).unwrap();
    println!(
        "node A ended with {} tuples in `a` (imported via both the old and the new rule)",
        a.relation("a").unwrap().len()
    );

    // Data imported before a deleteLink is kept — consistent with Def. 9.
    assert!(a.relation("a").unwrap().len() >= 25);
    println!("data imported before deleteLink survives ✓");
}
