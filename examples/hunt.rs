//! Diagnostic driver: searches random dynamic-change scenarios for runs
//! that fail to quiesce within a bounded event budget, and — on the same
//! random networks with a store at every peer — durable-restart schedules
//! (settle, crash and restart one peer between sessions and one mid-session,
//! insert, settle again) for a run that does not close, leaves the oracle's
//! fix-point, or ships a row again after the restart that nothing put at
//! risk (used to investigate slow property-test cases; not part of the
//! library surface).

use p2pdb::core::dynamic::ChangeScript;
use p2pdb::core::system::{P2PSystem, P2PSystemBuilder, RunSpec};
use p2pdb::net::{ChurnPlan, SimTime};
use p2pdb::relational::Val;
use p2pdb::topology::NodeId;
use rand::{Rng, SeedableRng};

/// Settles `sys`, restarts `victim` long after a session's fix-point and
/// again in the middle of one, with a fresh tuple in between; says what
/// went wrong, if anything did.
fn durable_restart(sys: &mut P2PSystem, victim: NodeId) -> Result<(), String> {
    let closed = |sys: &mut P2PSystem, what: &str| {
        let report = sys
            .run(&RunSpec {
                redrives: 4,
                ..Default::default()
            })
            .remove(0);
        if !(report.all_closed && report.errors.is_empty()) {
            return Err(format!("{what}: {report:?}"));
        }
        let oracle = sys.oracle().map_err(|e| e.to_string())?;
        if !sys.snapshot().equivalent(&oracle) {
            return Err(format!("{what}: differs from the oracle"));
        }
        Ok(())
    };
    let ms = SimTime::from_millis;
    closed(sys, "first contact")?;
    sys.set_churn(ChurnPlan::none().with_crash(victim, ms(60_000), ms(60_001)));
    sys.run_update();
    let shipped = sys.sum_stats().rows_shipped;
    closed(sys, "after a restart between sessions")?;
    if sys.sum_stats().rows_shipped != shipped {
        return Err("a restart with nothing at risk re-shipped rows".into());
    }
    let relation = format!("t{}", victim.0);
    sys.insert(victim, &relation, vec![Val::Int(7), Val::Int(7)])
        .map_err(|e| e.to_string())?;
    sys.set_churn(ChurnPlan::none().with_crash(victim, ms(2), ms(6)));
    closed(sys, "after a restart mid-session")
}

fn main() {
    let mut worst = 0u64;
    for seed in 0..400u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(2..6usize);
        let n = nodes as u32;
        let mut edges = vec![];
        for _ in 0..rng.gen_range(1..8) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                edges.push((a, b));
            }
        }
        edges.sort();
        edges.dedup();
        let mut b = P2PSystemBuilder::new();
        for i in 0..n {
            b.add_node_with_schema(i, &format!("t{i}(x: int, y: int)."))
                .unwrap();
        }
        for (k, (h, bo)) in edges.iter().enumerate() {
            b.add_rule(
                &format!("r{k}"),
                &format!(
                    "{}:t{bo}(X,Y) => {}:t{h}(X,Y)",
                    NodeId(*bo).letter(),
                    NodeId(*h).letter()
                ),
            )
            .unwrap();
        }
        for _ in 0..rng.gen_range(1..25) {
            let node = rng.gen_range(0..n);
            let _ = b.insert(
                node,
                &format!("t{node}"),
                vec![Val::Int(rng.gen_range(0..6)), Val::Int(rng.gen_range(0..6))],
            );
        }
        b.config_mut().max_events = 300_000;
        b.config_mut().durability = seed % 2 == 1;
        let mut sys = b.build().unwrap();
        if seed % 2 == 1 {
            // Odd seeds: the durable-restart schedule instead of a change
            // script (the super-peer, node 0, roots the sessions).
            let victim = NodeId(1 + rng.gen_range(0..n - 1));
            if let Err(what) = durable_restart(&mut sys, victim) {
                println!("DURABLE-RESTART seed={seed} nodes={nodes} edges={edges:?} victim={victim}: {what}");
            }
            continue;
        }
        let mut script = ChangeScript::new();
        let rule_names: Vec<String> = (0..edges.len()).map(|k| format!("r{k}")).collect();
        let ops = rng.gen_range(0..4usize);
        for i in 0..ops {
            let kind: u8 = rng.gen_range(0..2);
            let at = SimTime::from_millis(1 + rng.gen_range(0..10u64));
            if kind == 0 {
                let head = (i as u32) % n;
                let body = (head + 1) % n;
                if head != body {
                    let text = format!(
                        "{}:t{body}(X,Y) => {}:t{head}(X,Y)",
                        NodeId(body).letter(),
                        NodeId(head).letter()
                    );
                    if let Ok(op) = sys.make_add_link(&format!("dyn{i}"), &text) {
                        script.push(at, op);
                    }
                }
            } else if let Some(name) = rule_names.get(i) {
                if let Ok(op) = sys.make_delete_link(name) {
                    script.push(at, op);
                }
            }
        }
        let report = sys
            .run(&RunSpec {
                script,
                ..Default::default()
            })
            .remove(0);
        worst = worst.max(report.outcome.delivered);
        if !report.outcome.quiescent {
            println!(
                "NON-QUIESCENT seed={seed} nodes={nodes} edges={edges:?} ops={ops} delivered={}",
                report.outcome.delivered
            );
        }
    }
    println!("hunt done; worst delivered = {worst}");
}
