//! Acyclic single-pass baseline (Halevy et al. 2003 style).
//!
//! On a DAG dependency graph the fix-point needs no iteration: process
//! nodes in reverse dependency order (data sources first), evaluating each
//! node's rules exactly once against already-final sources. One query + one
//! answer per rule fragment — the message-count floor the distributed
//! algorithm approaches on trees and layered DAGs.

use p2p_core::joins::{apply_rule_head, eval_part, join_parts};
use p2p_core::rule::RuleSet;
use p2p_relational::chase::{ChaseConfig, ChaseState};
use p2p_relational::query::Bindings;
use p2p_relational::{Database, NullFactory};
use p2p_topology::{topological_order, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// Why the acyclic baseline refused to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcyclicError {
    /// The dependency graph has a cycle — the algorithm's published
    /// precondition ("the acyclic case is relatively simple") is violated.
    CyclicDependencies,
    /// A relational error during evaluation.
    Relational(String),
}

impl fmt::Display for AcyclicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcyclicError::CyclicDependencies => {
                write!(f, "dependency graph is cyclic; acyclic baseline refuses")
            }
            AcyclicError::Relational(e) => write!(f, "relational error: {e}"),
        }
    }
}

impl std::error::Error for AcyclicError {}

/// Cost accounting of an acyclic run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcyclicReport {
    /// Messages exchanged (one query + one answer per rule fragment).
    pub messages: u64,
    /// Bytes moved (answers dominate).
    pub bytes: u64,
}

/// Runs the single-pass wave. Returns the final databases and the report,
/// or refuses on cyclic graphs.
pub fn acyclic_update(
    databases: &BTreeMap<NodeId, Database>,
    rules: &RuleSet,
    max_null_depth: u32,
) -> Result<(BTreeMap<NodeId, Database>, AcyclicReport), AcyclicError> {
    let graph = rules.dependency_graph();
    let Some(order) = topological_order(&graph) else {
        return Err(AcyclicError::CyclicDependencies);
    };

    let mut dbs = databases.clone();
    let mut nulls = NullFactory::new(u32::MAX - 2);
    let mut chase = ChaseState::new();
    let cfg = ChaseConfig { max_null_depth };
    let mut messages = 0u64;
    let mut bytes = 0u64;

    // `order` lists dependencies first: by the time a node is processed,
    // everything it imports from is final.
    for node in order {
        for rule in rules.iter().filter(|r| r.head_node == node) {
            let mut parts = Vec::with_capacity(rule.parts.len());
            let mut ok = true;
            for part in &rule.parts {
                let Some(src) = dbs.get(&part.node) else {
                    ok = false;
                    break;
                };
                let rows =
                    eval_part(part, src).map_err(|e| AcyclicError::Relational(e.to_string()))?;
                // One query out, one answer back per fragment.
                messages += 2;
                bytes += 64
                    + rows
                        .iter()
                        .map(|row| p2p_net::encoded_wire_size(&row) as u64)
                        .sum::<u64>();
                parts.push(Bindings {
                    vars: part.vars.clone(),
                    rows,
                });
            }
            if !ok {
                continue;
            }
            let bindings = join_parts(&parts, &rule.join_constraints);
            let Some(head_db) = dbs.get_mut(&rule.head_node) else {
                continue;
            };
            apply_rule_head(rule, &bindings, head_db, &mut nulls, &mut chase, &cfg)
                .map_err(|e| AcyclicError::Relational(e.to_string()))?;
        }
    }
    Ok((dbs, AcyclicReport { messages, bytes }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_core::oracle::global_fixpoint;
    use p2p_core::rule::CoordinationRule;
    use p2p_relational::hom::equivalent_modulo_nulls;
    use p2p_relational::query::Idents;
    use p2p_relational::{DatabaseSchema, Val};

    fn resolve(s: &str) -> Option<NodeId> {
        match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            "C" => Some(NodeId(2)),
            _ => None,
        }
    }

    fn chain_setup() -> (BTreeMap<NodeId, Database>, RuleSet) {
        // A ← B ← C with copy rules; data at C.
        let mut dbs = BTreeMap::new();
        for i in 0..3 {
            let rel = ["a", "b", "c"][i as usize];
            dbs.insert(
                NodeId(i),
                Database::new(DatabaseSchema::parse(&format!("{rel}(x: int, y: int).")).unwrap()),
            );
        }
        let c = dbs.get_mut(&NodeId(2)).unwrap();
        c.insert_values("c", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        c.insert_values("c", vec![Val::Int(3), Val::Int(4)])
            .unwrap();
        let mut rules = RuleSet::new();
        rules
            .add(
                CoordinationRule::parse(
                    "r1",
                    "C:c(X,Y) => B:b(X,Y)",
                    None,
                    &resolve,
                    &mut Idents::new(),
                )
                .unwrap(),
            )
            .unwrap();
        rules
            .add(
                CoordinationRule::parse(
                    "r2",
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
    fn single_pass_matches_oracle_on_chain() {
        let (dbs, rules) = chain_setup();
        let (result, report) = acyclic_update(&dbs, &rules, 64).unwrap();
        let oracle = global_fixpoint(&dbs, &rules, 64).unwrap();
        for (node, db) in &result {
            assert!(equivalent_modulo_nulls(db, oracle.node(*node).unwrap()));
        }
        // Exactly 2 fragments → 4 messages.
        assert_eq!(report.messages, 4);
        assert!(report.bytes > 0);
    }

    #[test]
    fn transitive_data_reaches_the_top() {
        let (dbs, rules) = chain_setup();
        let (result, _) = acyclic_update(&dbs, &rules, 64).unwrap();
        assert_eq!(
            result[&NodeId(0)].relation("a").unwrap().len(),
            2,
            "C's data must traverse B into A in one pass"
        );
    }

    #[test]
    fn refuses_cycles() {
        let (dbs, mut rules) = chain_setup();
        rules
            .add(
                CoordinationRule::parse(
                    "r3",
                    "A:a(X,Y) => C:c(X,Y)",
                    None,
                    &resolve,
                    &mut Idents::new(),
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(
            acyclic_update(&dbs, &rules, 64).unwrap_err(),
            AcyclicError::CyclicDependencies
        );
    }
}
