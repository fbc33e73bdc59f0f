//! The subscription state's invariants, stated in code: the per-peer rules
//! ([`Subscriptions::check`]) and the invariant that carries them across a
//! restart of either end ([`DbPeer::check_subscriptions`]). Tests call them
//! at quiescent points (`P2PSystem::check_subscriptions`); the protocol
//! never does.

use super::{Rules, Subscriptions};
use crate::messages::Marks;
use crate::peer::DbPeer;
use crate::rule::{BodyPart, CoordinationRule, RuleId};
use p2p_relational::chase::{ChaseConfig, ChaseState, CompiledHead};
use p2p_relational::{Database, NullFactory, RowSet};
use p2p_topology::NodeId;

impl Subscriptions {
    /// The per-peer rules: every fragment held, retained or under repair is
    /// one of a rule the peer has (rows are retained only for a rule with
    /// more than one body node), and no committed cursor is ahead of the
    /// database it reads.
    pub(crate) fn check(&self, rules: &Rules, db: &Database) -> Result<(), String> {
        let parts = |(rule, node): (RuleId, NodeId)| {
            let rule = rules.get(&rule)?;
            rule.parts
                .iter()
                .any(|p| p.node == node)
                .then_some(rule.parts.len())
        };
        let repairs = self
            .pending_resync
            .keys()
            .map(|&(_, rule, node)| (rule, node));
        if let Some(key) = (self.held.iter().copied().chain(repairs)).find(|k| parts(*k).is_none())
        {
            return Err(format!("holds or repairs {key:?}, of no rule it has"));
        }
        if let Some(key) = self
            .fragments
            .keys()
            .find(|k| parts(**k).is_none_or(|n| n < 2))
        {
            return Err(format!(
                "retains rows of {key:?}, which joins no other fragment"
            ));
        }
        for (key, cursor) in self.cursors.iter() {
            for (relation, w) in &cursor.watermarks {
                if db.relation(relation).map_or(true, |r| w > r.len()) {
                    return Err(format!("the cursor of {key:?} is past {relation}"));
                }
            }
        }
        Ok(())
    }
}

impl DbPeer {
    /// [`Subscriptions::check`], and, as a head, the invariant of the
    /// [`crate::peer`] module docs: for every fragment this peer holds, its
    /// body node (looked up through `peer`) has a cursor for that very
    /// fragment, no further than what this peer holds — unless the body
    /// node owes a cursor-void notice, or a repair of the fragment is under
    /// way here. "No further" is checked on the rows: every row the body
    /// node's facts below the cursor derive is among the fragment rows
    /// this peer retains (a rule joining several fragments) or already
    /// chased into its database (any other).
    pub(crate) fn check_subscriptions<'p>(
        &self,
        peer: impl Fn(NodeId) -> Option<&'p DbPeer>,
    ) -> Result<(), String> {
        let subs = &self.subscriptions;
        subs.check(&self.rules, &self.db)?;
        for &(rule, node) in &subs.held {
            let repairing = subs
                .pending_resync
                .keys()
                .any(|k| (k.1, k.2) == (rule, node));
            let body = peer(node).ok_or_else(|| format!("holds ({rule}, {node}) of no peer"))?;
            if repairing || body.subscriptions.void_owed {
                continue;
            }
            let rule = &self.rules[&rule];
            let part = rule.parts.iter().find(|p| p.node == node).expect("checked");
            let cursor = (body.subscriptions.cursors.get(&(self.id, rule.id)))
                .filter(|c| c.part == *part)
                .ok_or_else(|| {
                    format!("holds ({}, {node}), which keeps no cursor for it", rule.id)
                })?;
            let below = rows_below(&body.db, part, &cursor.watermarks)?;
            if !self.holds_rows(rule, part, &below) {
                let id = rule.id;
                return Err(format!("holds ({id}, {node}), whose cursor is ahead of it"));
            }
        }
        Ok(())
    }

    /// Whether this peer holds every one of `rows`, which `part`'s body
    /// node shipped for `rule`.
    fn holds_rows(&self, rule: &CoordinationRule, part: &BodyPart, rows: &RowSet) -> bool {
        if rows.is_empty() {
            return true;
        }
        if rule.parts.len() > 1 {
            let retained = self.subscriptions.fragments.get(&(rule.id, part.node));
            return retained.is_some_and(|f| {
                f.vars == part.vars && rows.iter().all(|row| f.rows.contains(row))
            });
        }
        let holds = crate::joins::join_filter(&part.vars, &rule.join_constraints);
        let Ok(head) = CompiledHead::compile(&rule.head, &part.vars, self.db.schema()) else {
            return false;
        };
        // Chasing the rows again inserts nothing into a database that
        // already satisfies the rule for them (the restricted chase).
        let cfg = ChaseConfig {
            max_null_depth: self.config.max_null_depth,
        };
        let (mut db, mut nulls) = (self.db.clone(), NullFactory::new(self.id.0));
        let rows = rows.iter().filter(|row| holds(row));
        (head.apply_rows(&mut db, rows, &mut nulls, &mut ChaseState::new(), &cfg))
            .is_ok_and(|out| out.is_empty())
    }
}

/// The rows `part` derives from the facts of `db` below `marks` (none of a
/// relation `marks` has no entry for).
fn rows_below(db: &Database, part: &BodyPart, marks: &Marks) -> Result<RowSet, String> {
    let mut below = Database::new(db.schema().clone());
    for atom in &part.atoms {
        let (Ok(relation), Some(upto)) = (db.relation(&atom.relation), marks.get(&atom.relation))
        else {
            continue;
        };
        for row in relation.iter().take(upto) {
            below
                .insert_row(&atom.relation, row)
                .map_err(|e| e.to_string())?;
        }
    }
    crate::joins::eval_part(part, &below).map_err(|e| e.to_string())
}
