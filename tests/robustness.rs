//! Robustness tests: the "robust" of the paper's title under transport
//! faults.
//!
//! message **drops** may cost liveness but never safety: no unsound data,
//! and never a false `closed` state at the super-peer. The links are
//! exactly-once, so nothing is ever delivered twice.
//!
//! Real-thread nondeterminism is `tests/parallel.rs`'s subject.

use p2pdb::core::system::P2PSystemBuilder;
use p2pdb::net::FaultPlan;
use p2pdb::relational::hom::contained_modulo_nulls;
use p2pdb::relational::Val;
use p2pdb::topology::NodeId;

fn builder() -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.add_rule("r2", "C:c(X,Y) => B:b(X,Y)").unwrap();
    b.add_rule("r3", "A:a(X,Y) => C:c(Y,X)").unwrap(); // cycle A→C→B→A
    for i in 0..15i64 {
        b.insert(2, "c", vec![Val::Int(i), Val::Int(i + 1)])
            .unwrap();
    }
    b
}

#[test]
fn drops_never_produce_unsound_data_or_false_closure() {
    let oracle = {
        let sys = builder().build().unwrap();
        sys.oracle().unwrap()
    };
    for seed in [1u64, 5, 9] {
        let mut b = builder();
        b.set_fault(FaultPlan::random(25, seed));
        let mut sys = b.build().unwrap();
        let report = sys.run_update();
        assert!(report.outcome.quiescent, "drops stall but do not loop");
        // Safety 1: everything derived is inside the true fix-point.
        for (node, db) in &sys.snapshot().0 {
            assert!(
                contained_modulo_nulls(db, oracle.node(*node).unwrap()),
                "unsound data at {node} under drops (seed {seed})"
            );
        }
        // Safety 2: if the super-peer claims closure, the data really is the
        // fix-point. (With dropped messages the DS acks usually never clear,
        // so closure simply doesn't happen — which is the correct behaviour.)
        if report.all_closed {
            assert!(sys.snapshot().equivalent(&oracle));
        }
    }
}

#[test]
fn link_outage_delays_but_data_stays_sound() {
    use p2pdb::net::fault::LinkOutage;
    use p2pdb::net::SimTime;
    let mut b = builder();
    b.set_fault(FaultPlan::none().with_outage(LinkOutage {
        from: NodeId(2),
        to: NodeId(1),
        start: SimTime::ZERO,
        end: SimTime::from_millis(2),
    }));
    let mut sys = b.build().unwrap();
    let report = sys.run_update();
    assert!(report.outcome.quiescent);
    let oracle = sys.oracle().unwrap();
    for (node, db) in &sys.snapshot().0 {
        assert!(contained_modulo_nulls(db, oracle.node(*node).unwrap()));
    }
}
