//! Dynamic-network tests (Section 4): termination under finite change
//! (Theorem 2), the Definition 9 soundness/completeness envelope, and
//! separated-subset closure (Theorem 3).

use p2p_core::dynamic::{ChangeOp, ChangeScript};
use p2p_core::system::{P2PSystemBuilder, RunSpec};
use p2p_net::{SimTime, UniformLatency};
use p2p_relational::hom::contained_modulo_nulls;
use p2p_relational::Value;
use p2p_topology::NodeId;

fn three_node_builder() -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_rule("r0", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.insert(1, "b", vec![Value::Int(1), Value::Int(2)])
        .unwrap();
    b.insert(2, "c", vec![Value::Int(7), Value::Int(8)])
        .unwrap();
    b.insert(2, "c", vec![Value::Int(8), Value::Int(9)])
        .unwrap();
    b
}

/// One global session at the super-peer under `script`.
fn with_script(script: ChangeScript) -> RunSpec {
    RunSpec {
        script,
        ..Default::default()
    }
}

#[test]
fn add_link_mid_run_terminates_and_imports() {
    // Theorem 2: finite change ⇒ termination; the added rule C→A must pull
    // C's data into A even though it appears mid-update.
    let mut sys = three_node_builder().build().unwrap();
    let mut script = ChangeScript::new();
    let add = sys.make_add_link("rx", "C:c(X,Y) => A:a(X,Y)").unwrap();
    script.push(SimTime::from_millis(3), add);

    let report = sys.run(&with_script(script)).remove(0);
    assert!(report.outcome.quiescent, "Theorem 2: must terminate");
    assert!(report.all_closed, "must re-close after the change");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let a = sys.database(NodeId(0)).unwrap();
    // b(1,2) via r0 plus c(7,8), c(8,9) via rx.
    assert_eq!(a.relation("a").unwrap().len(), 3);
}

#[test]
fn definition9_sandwich_holds() {
    // Run with an add and a delete mid-flight; the result must contain the
    // lower fix-point (deletes first, no adds) and be contained in the upper
    // fix-point (all adds, no deletes).
    let mut sys = three_node_builder().build().unwrap();
    let mut script = ChangeScript::new();
    let add = sys.make_add_link("rx", "C:c(X,Y) => A:a(X,Y)").unwrap();
    script.push(SimTime::from_millis(2), add.clone());
    let del = sys.make_delete_link("r0").unwrap();
    script.push(SimTime::from_millis(4), del);

    let report = sys.run(&with_script(script.clone())).remove(0);
    assert!(report.outcome.quiescent);
    assert!(report.all_closed);

    // Build the Definition 9 reference rule sets.
    let upper_rules = p2p_core::dynamic::upper_reference(sys.rules(), &script);
    let lower_rules = p2p_core::dynamic::lower_reference(sys.rules(), &script);
    let upper = sys.oracle_with(&upper_rules).unwrap();
    let lower = sys.oracle_with(&lower_rules).unwrap();

    let result = sys.snapshot();
    for (node, db) in &result.0 {
        let up = upper.node(*node).unwrap();
        let low = lower.node(*node).unwrap();
        assert!(
            contained_modulo_nulls(db, up),
            "soundness violated at {node}"
        );
        assert!(
            contained_modulo_nulls(low, db),
            "completeness violated at {node}"
        );
    }
}

#[test]
fn delete_link_keeps_already_imported_data() {
    // Definition 9 permits keeping data imported before the delete; our
    // implementation never retracts. Delete r0 *after* the data flowed.
    let mut sys = three_node_builder().build().unwrap();
    let first = sys.run_update();
    assert!(first.all_closed);
    assert_eq!(
        sys.database(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .len(),
        1
    );

    let mut script = ChangeScript::new();
    let del = sys.make_delete_link("r0").unwrap();
    script.push(SimTime::from_millis(1), del);
    let report = sys.run(&with_script(script)).remove(0);
    assert!(report.outcome.quiescent);
    assert!(report.all_closed);
    // Data survives the deletion.
    assert_eq!(
        sys.database(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn repeated_changes_terminate() {
    // A longer finite script: several adds and deletes interleaved.
    let mut sys = three_node_builder().build().unwrap();
    let mut script = ChangeScript::new();
    let add1 = sys.make_add_link("rx", "C:c(X,Y) => A:a(X,Y)").unwrap();
    let add2 = sys.make_add_link("ry", "C:c(X,Y) => B:b(X,Y)").unwrap();
    script.push(SimTime::from_millis(2), add1.clone());
    script.push(SimTime::from_millis(4), add2);
    if let ChangeOp::AddLink { rule } = &add1 {
        script.push(
            SimTime::from_millis(6),
            ChangeOp::DeleteLink {
                rule: rule.id,
                head: rule.head_node,
            },
        );
    }
    let report = sys.run(&with_script(script)).remove(0);
    assert!(report.outcome.quiescent, "finite change must terminate");
    assert!(report.all_closed);
    // ry imported C's tuples into B, and r0 then relayed them to A.
    let b = sys.database(NodeId(1)).unwrap();
    assert_eq!(b.relation("b").unwrap().len(), 3);
    let a = sys.database(NodeId(0)).unwrap();
    assert_eq!(a.relation("a").unwrap().len(), 3);
}

#[test]
fn separated_component_closes_despite_external_churn() {
    // Theorem 3: {A, B} is separated from {C, D}; churn confined to the
    // C/D side must not keep A/B from closing with sound & complete data.
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
    b.add_rule("rab", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.add_rule("rcd", "D:d(X,Y) => C:c(X,Y)").unwrap();
    b.insert(1, "b", vec![Value::Int(1), Value::Int(2)])
        .unwrap();
    b.insert(3, "d", vec![Value::Int(5), Value::Int(6)])
        .unwrap();
    let mut sys = b.build().unwrap();

    // Verify the Theorem 3 precondition with the topology analyzer.
    let graph = sys.rules().dependency_graph();
    let a_side: std::collections::BTreeSet<NodeId> = [NodeId(0), NodeId(1)].into();
    let mut script = ChangeScript::new();
    let mut graph_changes = Vec::new();
    // Churn: repeatedly add/delete C→D rules.
    for i in 0..5 {
        let add = sys
            .make_add_link(&format!("churn{i}"), "D:d(X,Y) => C:c(Y,X)")
            .unwrap();
        if let ChangeOp::AddLink { rule } = &add {
            graph_changes.push(p2p_topology::GraphChange::AddEdge {
                head: rule.head_node,
                body: rule.parts[0].node,
            });
            script.push(SimTime::from_millis(2 + 2 * i), add.clone());
            script.push(
                SimTime::from_millis(3 + 2 * i),
                ChangeOp::DeleteLink {
                    rule: rule.id,
                    head: rule.head_node,
                },
            );
            graph_changes.push(p2p_topology::GraphChange::RemoveEdge {
                head: NodeId(2),
                body: NodeId(3),
            });
        }
    }
    assert!(p2p_topology::is_separated_under_change(
        &graph,
        &a_side,
        &graph_changes
    ));

    let report = sys.run(&with_script(script)).remove(0);
    assert!(report.outcome.quiescent);
    assert!(sys.closed(NodeId(0)), "A must close (Theorem 3)");
    assert!(sys.closed(NodeId(1)), "B must close (Theorem 3)");
    // And its data is the static fix-point of its own rules.
    assert_eq!(
        sys.database(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn change_long_after_fixpoint_rewakes_session_and_recloses() {
    // The change lands long after the session quiesced, broadcast its
    // fix-point and retired all per-session state. The super-peer must
    // re-join its own session, the head re-wakes via the routed `addRule`,
    // the new rule's data flows, and the re-quiesce broadcast (strictly
    // newer generation) retires everything again — same run, no new epoch.
    let latencies = [
        None, // constant latency: deterministic post-retirement delivery
        Some(UniformLatency::new(
            SimTime::from_micros(200),
            SimTime::from_millis(20),
            21,
        )),
    ];
    for latency in latencies {
        let mut b = three_node_builder();
        if let Some(latency) = latency {
            b.set_latency(latency);
        }
        let mut sys = b.build().unwrap();
        let mut script = ChangeScript::new();
        let add = sys.make_add_link("rx", "C:c(X,Y) => A:a(X,Y)").unwrap();
        // Far beyond any quiescence time of this tiny network.
        script.push(SimTime::from_millis(2_000), add);
        let report = sys.run(&with_script(script)).remove(0);
        assert!(report.outcome.quiescent);
        assert!(report.all_closed, "re-woken session must re-close");
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            sys.database(NodeId(0))
                .unwrap()
                .relation("a")
                .unwrap()
                .len(),
            3,
            "the re-woken session must import the new rule's data"
        );
        for (id, p) in sys.peers() {
            assert_eq!(p.session_table_len(), 0, "peer {id} leaked after re-wake");
        }
    }
}

#[test]
fn plan_cache_survives_add_and_delete_rule() {
    // Compiled plans are cached per rule id. The cache must serve repeated
    // evaluations of a fragment, and must never serve a plan compiled for a
    // body the rule no longer has — here r0 is deleted and re-added under
    // the *same id* with a different body mid-run. (`Unsubscribe` drops the
    // body peer's entry on this path; the fragment fingerprint that backs
    // it up is unit-tested next to the cache in `peer/mod.rs`.)
    let mut sys = three_node_builder().build().unwrap();
    let mut script = ChangeScript::new();
    // C→B grows B's data mid-session, so B re-answers A's standing
    // subscription for r0 — the second evaluation of the same fragment,
    // which a warm plan cache serves without recompiling.
    let add = sys.make_add_link("ry", "C:c(X,Y) => B:b(X,Y)").unwrap();
    script.push(SimTime::from_millis(2), add);
    let del = sys.make_delete_link("r0").unwrap();
    let ChangeOp::DeleteLink { rule: r0_id, .. } = del else {
        unreachable!("make_delete_link builds a DeleteLink")
    };
    script.push(SimTime::from_millis(20), del);
    let mut swapped = sys
        .make_add_link("r0", "B:b(X,Y), X > 1 => A:a(Y,X)")
        .unwrap();
    if let ChangeOp::AddLink { rule } = &mut swapped {
        rule.id = r0_id;
    }
    script.push(SimTime::from_millis(40), swapped);

    let report = sys.run(&with_script(script.clone())).remove(0);
    assert!(report.outcome.quiescent);
    assert!(report.all_closed);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        sys.sum_stats().plan_cache_hits > 0,
        "a fragment evaluated more than once must hit the cache"
    );

    // The Definition 9 sandwich, as for every other change script here.
    let upper = sys
        .oracle_with(&p2p_core::dynamic::upper_reference(sys.rules(), &script))
        .unwrap();
    let lower = sys
        .oracle_with(&p2p_core::dynamic::lower_reference(sys.rules(), &script))
        .unwrap();
    for (node, db) in &sys.snapshot().0 {
        assert!(
            contained_modulo_nulls(db, upper.node(*node).unwrap()),
            "soundness violated at {node}"
        );
        assert!(
            contained_modulo_nulls(lower.node(*node).unwrap(), db),
            "completeness violated at {node}"
        );
    }

    // The re-added r0 ran its new body: B's rows with X > 1 arrive flipped
    // (the old body's plan would have shipped them unflipped, and b(1,2)
    // fails the new constraint).
    let a = sys.database(NodeId(0)).unwrap().relation("a").unwrap();
    let has =
        |x: i64, y: i64| a.contains(&[p2p_relational::Val::Int(x), p2p_relational::Val::Int(y)]);
    assert!(has(8, 7) && has(9, 8), "new body not evaluated: {a}");
    assert!(!has(2, 1), "new body's constraint ignored: {a}");
}

#[test]
fn change_after_closure_starts_new_epoch() {
    // Run to closure, then apply a change in a *second* session: the system
    // must converge again and incorporate the new rule.
    let mut sys = three_node_builder().build().unwrap();
    let r1 = sys.run_update();
    assert!(r1.all_closed);

    let mut script = ChangeScript::new();
    let add = sys.make_add_link("rx", "C:c(X,Y) => A:a(X,Y)").unwrap();
    script.push(SimTime::from_millis(1), add);
    let r2 = sys.run(&with_script(script)).remove(0);
    assert!(r2.outcome.quiescent);
    assert!(r2.all_closed);
    assert_eq!(
        sys.database(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .len(),
        3
    );
}
