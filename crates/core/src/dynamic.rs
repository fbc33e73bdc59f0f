//! Dynamic network changes (Section 4 of the paper).
//!
//! A network change is a sequence of atomic `addLink` / `deleteLink`
//! operations (Definition 8). The head node of the affected rule is notified
//! (`addRule` / `deleteRule`); the update algorithm must terminate for any
//! finite change (Theorem 2) with a result that is **sound** w.r.t. the
//! all-adds-no-deletes network and **complete** w.r.t. the
//! deletes-first-no-adds network (Definition 9). The envelope functions here
//! compute those two reference networks so tests and experiments can verify
//! the sandwich.

use crate::rule::{CoordinationRule, RuleId, RuleSet};
use p2p_net::SimTime;
use p2p_topology::NodeId;
use serde::{Deserialize, Serialize};

/// One atomic change operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChangeOp {
    /// `addLink(i, j, rule, id)`: a new coordination rule appears. The rule
    /// value carries head node, body node(s) and its network-unique id.
    AddLink {
        /// The rule being added.
        rule: CoordinationRule,
    },
    /// `deleteLink(i, j, id)`: the rule with this id disappears. The head
    /// node is carried so the super-peer can route the `deleteRule`
    /// notification (the paper notifies "the node i which will be unable to
    /// fetch data by this rule").
    DeleteLink {
        /// Id of the rule being removed.
        rule: RuleId,
        /// The rule's head node (notification recipient).
        head: NodeId,
    },
}

/// A change scheduled at a virtual time during the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledChange {
    /// When the change hits the network.
    pub at: SimTime,
    /// The operation.
    pub op: ChangeOp,
}

/// A finite change script (Definition 8.2), ordered by time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChangeScript {
    ops: Vec<ScheduledChange>,
}

impl ChangeScript {
    /// Empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation at the given time (times must be non-decreasing;
    /// out-of-order pushes are sorted on read).
    pub fn push(&mut self, at: SimTime, op: ChangeOp) {
        self.ops.push(ScheduledChange { at, op });
    }

    /// Operations sorted by time (stable: pushes at equal times keep order).
    pub fn sorted(&self) -> Vec<ScheduledChange> {
        let mut v = self.ops.clone();
        v.sort_by_key(|c| c.at);
        v
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff there is no operation.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Definition 9's **upper** reference network: all `addLink`s applied (as if
/// before the run), no `deleteLink` applied. The distributed result must be
/// *contained in* the fix-point of this network (soundness).
pub fn upper_reference(initial: &RuleSet, script: &ChangeScript) -> RuleSet {
    let mut rules = initial.clone();
    for c in script.sorted() {
        if let ChangeOp::AddLink { rule } = c.op {
            // Re-add under a fresh registry id but keep the rule identity.
            let mut r = rule.clone();
            r.name = std::sync::Arc::from(format!("{}@upper", rule.name));
            let _ = rules.add(r);
        }
    }
    rules
}

/// Definition 9's **lower** reference network: all `deleteLink`s applied
/// first, no `addLink` applied. The distributed result must *contain* the
/// fix-point of this network (completeness).
pub fn lower_reference(initial: &RuleSet, script: &ChangeScript) -> RuleSet {
    let mut rules = initial.clone();
    for c in script.sorted() {
        if let ChangeOp::DeleteLink { rule, .. } = c.op {
            rules.remove(rule);
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::CoordinationRule;
    use p2p_relational::query::Idents;
    use p2p_topology::NodeId;

    fn resolve(s: &str) -> Option<NodeId> {
        match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            "C" => Some(NodeId(2)),
            _ => None,
        }
    }

    fn rule(name: &str, text: &str) -> CoordinationRule {
        CoordinationRule::parse(name, text, None, &resolve, &mut Idents::new()).unwrap()
    }

    #[test]
    fn script_sorts_by_time() {
        let mut s = ChangeScript::new();
        s.push(
            SimTime::from_millis(10),
            ChangeOp::DeleteLink {
                rule: RuleId(0),
                head: NodeId(0),
            },
        );
        s.push(
            SimTime::from_millis(5),
            ChangeOp::AddLink {
                rule: rule("x", "B:b(X,Y) => A:a(X,Y)"),
            },
        );
        let sorted = s.sorted();
        assert_eq!(sorted[0].at, SimTime::from_millis(5));
        assert_eq!(sorted[1].at, SimTime::from_millis(10));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn references_apply_the_right_halves() {
        let mut initial = RuleSet::new();
        let r0 = initial.add(rule("r0", "B:b(X,Y) => A:a(X,Y)")).unwrap();
        let mut script = ChangeScript::new();
        script.push(
            SimTime::from_millis(1),
            ChangeOp::AddLink {
                rule: rule("r1", "C:c(X,Y) => A:a(X,Y)"),
            },
        );
        script.push(
            SimTime::from_millis(2),
            ChangeOp::DeleteLink {
                rule: r0,
                head: NodeId(0),
            },
        );

        let upper = upper_reference(&initial, &script);
        // Upper: r0 kept (no deletes), r1 added.
        assert_eq!(upper.len(), 2);

        let lower = lower_reference(&initial, &script);
        // Lower: r0 deleted, r1 not added.
        assert_eq!(lower.len(), 0);
    }
}
