//! E9 — Theorem 3: separated subset under churn.

use super::Scale;
use crate::table::Table;
use p2p_core::dynamic::{ChangeOp, ChangeScript};
use p2p_core::system::P2PSystemBuilder;
use p2p_net::SimTime;
use p2p_relational::Val;
use p2p_topology::NodeId;

/// E9: a two-component network with churn confined to one side; the
/// separated side must close regardless.
pub fn e9_separation() -> Table {
    let mut table = Table::new(&[
        "churn ops",
        "separated side closed",
        "churn side closed",
        "terminated",
    ]);
    for churn_ops in [2u64, 6, 12] {
        let mut b = P2PSystemBuilder::new();
        b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
        b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
        b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
        b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
        b.add_rule("rab", "B:b(X,Y) => A:a(X,Y)").unwrap();
        b.add_rule("rcd", "D:d(X,Y) => C:c(X,Y)").unwrap();
        for i in 0..10i64 {
            b.insert(1, "b", vec![Val::Int(i), Val::Int(i + 1)])
                .unwrap();
            b.insert(3, "d", vec![Val::Int(i), Val::Int(i + 2)])
                .unwrap();
        }
        let mut sys = b.build().unwrap();
        let mut script = ChangeScript::new();
        for k in 0..churn_ops {
            let add = sys
                .make_add_link(&format!("churn{k}"), "D:d(X,Y) => C:c(Y,X)")
                .unwrap();
            script.push(SimTime::from_millis(2 + 2 * k), add.clone());
            if let ChangeOp::AddLink { rule } = add {
                script.push(
                    SimTime::from_millis(3 + 2 * k),
                    ChangeOp::DeleteLink {
                        rule: rule.id,
                        head: rule.head_node,
                    },
                );
            }
        }
        let report = sys.run_update_with_script(&script);
        table.row(vec![
            (churn_ops * 2).to_string(),
            (sys.closed(NodeId(0)) && sys.closed(NodeId(1))).to_string(),
            (sys.closed(NodeId(2)) && sys.closed(NodeId(3))).to_string(),
            report.outcome.quiescent.to_string(),
        ]);
    }
    table
}

pub(super) fn report(_: Scale) -> String {
    format!("\n{}\n", e9_separation().render())
}
