//! The global fix-point oracle: the centralized reference semantics.
//!
//! Computes, in one process, the least fix-point of the coordination rules
//! over all local databases — what the distributed update must converge to
//! (Lemma 1's soundness and completeness, modulo null renaming). The same
//! computation doubles as the core of the *centralized baseline* (Calvanese
//! et al. 2003 describe "only a global algorithm, that assumes a central
//! node where all computation is performed"); `p2p-baselines` wraps it with
//! message accounting.

use crate::error::{CoreError, CoreResult};
use crate::joins::{apply_rule_head, eval_part, join_parts, VarRows};
use crate::rule::RuleSet;
use p2p_relational::chase::{ChaseConfig, ChaseState};
use p2p_relational::hom::equivalent_modulo_nulls;
use p2p_relational::{Database, NullFactory};
use p2p_topology::NodeId;
use std::collections::BTreeMap;

/// A snapshot of every node's database.
#[derive(Debug, Clone)]
pub struct GlobalDb(pub BTreeMap<NodeId, Database>);

impl GlobalDb {
    /// Access one node's database.
    pub fn node(&self, id: NodeId) -> Option<&Database> {
        self.0.get(&id)
    }

    /// Total tuples across the network.
    pub fn total_tuples(&self) -> usize {
        self.0.values().map(Database::total_tuples).sum()
    }

    /// Node-wise homomorphic equivalence — the correctness notion for
    /// comparing a distributed run against the oracle (labeled nulls are
    /// minted by different parties, so only equivalence up to null renaming
    /// is meaningful).
    pub fn equivalent(&self, other: &GlobalDb) -> bool {
        if self.0.len() != other.0.len() {
            return false;
        }
        self.0.iter().all(|(id, db)| {
            other
                .0
                .get(id)
                .map(|o| equivalent_modulo_nulls(db, o))
                .unwrap_or(false)
        })
    }
}

/// Node id baked into oracle-minted nulls; reserved so oracle nulls can
/// never collide with peer-minted ones.
pub(crate) const ORACLE_NULL_NODE: u32 = u32::MAX - 1;

/// Computes the global fix-point of `rules` over the given databases.
///
/// Round-robin chaotic iteration: apply every rule against the current
/// state until a full pass inserts nothing. For weakly-acyclic rule sets
/// this terminates; otherwise the chase-depth valve aborts with
/// [`CoreError::Relational`].
pub fn global_fixpoint(
    databases: &BTreeMap<NodeId, Database>,
    rules: &RuleSet,
    max_null_depth: u32,
) -> CoreResult<GlobalDb> {
    let mut dbs = databases.clone();
    let mut nulls = NullFactory::new(ORACLE_NULL_NODE);
    let mut chase = ChaseState::new();
    let cfg = ChaseConfig { max_null_depth };

    loop {
        let mut inserted_any = false;
        for rule in rules.iter() {
            // Evaluate every fragment against its node…
            let mut parts = Vec::with_capacity(rule.parts.len());
            let mut missing_node = false;
            for part in &rule.parts {
                let Some(db) = dbs.get(&part.node) else {
                    missing_node = true;
                    break;
                };
                let rows = eval_part(part, db)?;
                parts.push(VarRows {
                    vars: part.vars.clone(),
                    rows,
                });
            }
            if missing_node {
                continue;
            }
            // …join at the head and chase.
            let bindings = join_parts(&parts, &rule.join_constraints);
            let Some(head_db) = dbs.get_mut(&rule.head_node) else {
                return Err(CoreError::UnknownNode(rule.head_node.to_string()));
            };
            let outcome = apply_rule_head(rule, &bindings, head_db, &mut nulls, &mut chase, &cfg)?;
            if !outcome.is_empty() {
                inserted_any = true;
            }
        }
        if !inserted_any {
            return Ok(GlobalDb(dbs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{paper_example_rules, paper_example_schema, CoordinationRule};
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

    fn two_node_dbs() -> BTreeMap<NodeId, Database> {
        let mut dbs = BTreeMap::new();
        dbs.insert(
            NodeId(0),
            Database::new(DatabaseSchema::parse("a(x: int, y: int).").unwrap()),
        );
        let mut b = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        b.insert_values("b", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        b.insert_values("b", vec![Val::Int(2), Val::Int(3)])
            .unwrap();
        dbs.insert(NodeId(1), b);
        dbs
    }

    #[test]
    fn copy_rule_fixpoint() {
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
        let fp = global_fixpoint(&two_node_dbs(), &rules, 64).unwrap();
        assert_eq!(fp.node(NodeId(0)).unwrap().relation("a").unwrap().len(), 2);
        // Source unchanged.
        assert_eq!(fp.node(NodeId(1)).unwrap().relation("b").unwrap().len(), 2);
    }

    #[test]
    fn cyclic_rules_reach_fixpoint() {
        // A:a ⇄ B:b with copy rules both ways plus a transitive rule at B:
        // the loop must saturate and stop.
        let mut rules = RuleSet::new();
        rules
            .add(
                CoordinationRule::parse(
                    "r1",
                    "B:b(X,Y) => A:a(X,Y)",
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
                    "A:a(X,Y) => B:b(X,Y)",
                    None,
                    &resolve,
                    &mut Idents::new(),
                )
                .unwrap(),
            )
            .unwrap();
        let fp = global_fixpoint(&two_node_dbs(), &rules, 64).unwrap();
        // Both sides end with the same 2 tuples.
        assert_eq!(fp.node(NodeId(0)).unwrap().relation("a").unwrap().len(), 2);
        assert_eq!(fp.node(NodeId(1)).unwrap().relation("b").unwrap().len(), 2);
    }

    #[test]
    fn paper_example_fixpoint_saturates() {
        let rules = paper_example_rules();
        let mut dbs: BTreeMap<NodeId, Database> = (0..5)
            .map(|i| (NodeId(i), Database::new(paper_example_schema(NodeId(i)))))
            .collect();
        // Seed E with a small chain.
        let e = dbs.get_mut(&NodeId(4)).unwrap();
        for (x, y) in [(1, 2), (2, 3), (3, 1)] {
            e.insert_values("e", vec![Val::Int(x), Val::Int(y)])
                .unwrap();
        }
        let fp = global_fixpoint(&dbs, &rules, 64).unwrap();
        // r1 copies e into b.
        assert!(fp.node(NodeId(1)).unwrap().relation("b").unwrap().len() >= 3);
        // r2 derives c from b-chains; the 3-cycle has chains everywhere.
        assert!(!fp
            .node(NodeId(2))
            .unwrap()
            .relation("c")
            .unwrap()
            .is_empty());
        // r4 needs b(X,Y), b(X,Z), X≠Z … the cycle saturates b enough.
        assert!(!fp
            .node(NodeId(0))
            .unwrap()
            .relation("a")
            .unwrap()
            .is_empty());
        // r6 populates d from a.
        assert!(!fp
            .node(NodeId(3))
            .unwrap()
            .relation("d")
            .unwrap()
            .is_empty());
        // Deterministic: running again yields an equivalent state.
        let fp2 = global_fixpoint(&dbs, &rules, 64).unwrap();
        assert!(fp.equivalent(&fp2));
    }

    #[test]
    fn existential_rule_invents_once() {
        let mut rules = RuleSet::new();
        rules
            .add(
                CoordinationRule::parse(
                    "r",
                    "B:b(X,Y) => A:a(X,Z)",
                    None,
                    &resolve,
                    &mut Idents::new(),
                )
                .unwrap(),
            )
            .unwrap();
        let fp = global_fixpoint(&two_node_dbs(), &rules, 64).unwrap();
        let a = fp.node(NodeId(0)).unwrap().relation("a").unwrap();
        // One invention per distinct X: X ∈ {1, 2}.
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|t| t[1].is_null()));
    }

    #[test]
    fn depth_valve_aborts_diverging_sets() {
        let mut rules = RuleSet::new();
        rules
            .add(
                CoordinationRule::parse(
                    "f",
                    "A:a(X,Y) => B:b(Y,Z)",
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
                    "g",
                    "B:b(X,Y) => A:a(Y,Z)",
                    None,
                    &resolve,
                    &mut Idents::new(),
                )
                .unwrap(),
            )
            .unwrap();
        let mut dbs = two_node_dbs();
        dbs.get_mut(&NodeId(0))
            .unwrap()
            .insert_values("a", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        let err = global_fixpoint(&dbs, &rules, 8).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Relational(p2p_relational::Error::ChaseDepthExceeded { .. })
        ));
    }

    #[test]
    fn equivalence_detects_differences() {
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
        let fp = global_fixpoint(&two_node_dbs(), &rules, 64).unwrap();
        let empty = GlobalDb(
            two_node_dbs(), // without running rules: A empty
        );
        assert!(!fp.equivalent(&empty));
        assert!(fp.equivalent(&fp.clone()));
    }
}
