//! Centralized (global) baseline: ship everything to one node, compute
//! there, ship results back.

use p2p_core::oracle::{global_fixpoint, GlobalDb};
use p2p_core::rule::RuleSet;
use p2p_core::CoreResult;
use p2p_relational::Database;
use p2p_topology::NodeId;
use std::collections::BTreeMap;

/// Cost accounting of a centralized run, in the same units the distributed
/// algorithm reports (message count, bytes, bytes at the hottest node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CentralizedReport {
    /// Upload messages (one per non-central node) + download messages.
    pub messages: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Bytes received by the central node — its load is the whole network's
    /// data, the scalability objection to the global algorithm.
    pub central_bytes_in: u64,
    /// Bytes shipped back out of the central node.
    pub(crate) central_bytes_out: u64,
}

/// Runs the centralized update: uploads every database to `central`,
/// computes the global fix-point there, downloads each node's new state.
/// Returns the resulting databases and the cost report.
pub fn centralized_update(
    databases: &BTreeMap<NodeId, Database>,
    rules: &RuleSet,
    central: NodeId,
    max_null_depth: u32,
) -> CoreResult<(GlobalDb, CentralizedReport)> {
    // Upload phase: every non-central node ships its full database (plus its
    // rules, whose size we fold into the constant envelope).
    let mut messages = 0u64;
    let mut bytes = 0u64;
    let mut central_in = 0u64;
    for (node, db) in databases {
        if *node == central {
            continue;
        }
        let size = p2p_net::encoded_wire_size(db) as u64 + 64;
        messages += 1;
        bytes += size;
        central_in += size;
    }

    // Central computation: the same fix-point engine the oracle uses.
    let result = global_fixpoint(databases, rules, max_null_depth)?;

    // Download phase: ship each node its materialised database back.
    let mut central_out = 0u64;
    for (node, db) in &result.0 {
        if *node == central {
            continue;
        }
        let size = p2p_net::encoded_wire_size(db) as u64 + 64;
        messages += 1;
        bytes += size;
        central_out += size;
    }

    Ok((
        result,
        CentralizedReport {
            messages,
            bytes,
            central_bytes_in: central_in,
            central_bytes_out: central_out,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_core::rule::CoordinationRule;
    use p2p_relational::query::Idents;
    use p2p_relational::{DatabaseSchema, Val};

    fn resolve(s: &str) -> Option<NodeId> {
        match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            _ => None,
        }
    }

    fn setup() -> (BTreeMap<NodeId, Database>, RuleSet) {
        let mut dbs = BTreeMap::new();
        dbs.insert(
            NodeId(0),
            Database::new(DatabaseSchema::parse("a(x: int, y: int).").unwrap()),
        );
        let mut b = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        for i in 0..10 {
            b.insert_values("b", vec![Val::Int(i), Val::Int(i + 1)])
                .unwrap();
        }
        dbs.insert(NodeId(1), b);
        let mut rules = RuleSet::new();
        rules
            .add(
                CoordinationRule::parse(
                    "r",
                    "B:b(X,Y) => A:a(X,Y)",
                    None,
                    &resolve,
                    &mut Idents::new(),
                )
                .unwrap(),
            )
            .unwrap();
        (dbs, rules)
    }

    #[test]
    fn computes_the_fixpoint_and_counts_costs() {
        let (dbs, rules) = setup();
        let (result, report) = centralized_update(&dbs, &rules, NodeId(0), 64).unwrap();
        assert_eq!(
            result.node(NodeId(0)).unwrap().relation("a").unwrap().len(),
            10
        );
        // One upload (B) + one download (B).
        assert_eq!(report.messages, 2);
        assert!(report.central_bytes_in > 0);
        assert!(report.central_bytes_out >= report.central_bytes_in);
        assert!(report.bytes >= report.central_bytes_in + report.central_bytes_out);
    }

    #[test]
    fn matches_the_oracle_by_construction() {
        let (dbs, rules) = setup();
        let (result, _) = centralized_update(&dbs, &rules, NodeId(0), 64).unwrap();
        let oracle = global_fixpoint(&dbs, &rules, 64).unwrap();
        assert!(result.equivalent(&oracle));
    }
}
