//! E8 — dynamic changes: Theorem 2 + Definition 9 sandwich.

use super::Scale;
use crate::table::Table;
use p2p_core::dynamic::ChangeScript;
use p2p_core::system::P2PSystemBuilder;
use p2p_net::SimTime;
use p2p_relational::hom::contained_modulo_nulls;
use p2p_relational::Val;

/// E8: a finite add/delete script applied mid-run; reports termination,
/// closure and the Definition 9 soundness/completeness envelope.
pub fn e8_dynamic() -> Table {
    let mut table = Table::new(&[
        "scenario",
        "terminated",
        "all_closed",
        "sound",
        "complete",
        "messages",
    ]);

    let build = || {
        let mut b = P2PSystemBuilder::new();
        b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
        b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
        b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
        b.add_rule("r0", "B:b(X,Y) => A:a(X,Y)").unwrap();
        for i in 0..20i64 {
            b.insert(1, "b", vec![Val::Int(i), Val::Int(i + 1)])
                .unwrap();
            b.insert(2, "c", vec![Val::Int(100 + i), Val::Int(i)])
                .unwrap();
        }
        b.build().unwrap()
    };

    for (scenario, ops) in [
        ("add mid-run", vec![("add", 3u64)]),
        ("delete mid-run", vec![("del", 3)]),
        ("add+delete", vec![("add", 2), ("del", 5)]),
    ] {
        let mut sys = build();
        let mut script = ChangeScript::new();
        for (kind, at) in &ops {
            let op = match *kind {
                "add" => sys.make_add_link("rx", "C:c(X,Y) => A:a(X,Y)").unwrap(),
                _ => sys.make_delete_link("r0").unwrap(),
            };
            script.push(SimTime::from_millis(*at), op);
        }
        let report = sys.run_update_with_script(&script);
        let upper = sys
            .oracle_with(&p2p_core::dynamic::upper_reference(sys.rules(), &script))
            .unwrap();
        let lower = sys
            .oracle_with(&p2p_core::dynamic::lower_reference(sys.rules(), &script))
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
        table.row(vec![
            scenario.to_string(),
            report.outcome.quiescent.to_string(),
            report.all_closed.to_string(),
            sound.to_string(),
            complete.to_string(),
            report.messages.to_string(),
        ]);
    }
    table
}

pub(super) fn report(_: Scale) -> String {
    format!("\n{}\n", e8_dynamic().render())
}
