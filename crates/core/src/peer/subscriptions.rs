//! What a peer keeps of its subscriptions between sessions, on both ends:
//! [`Subscriptions`], whose methods are the four rules that keep a silent
//! peer unambiguous (named in the [`crate::peer`] module docs) and the only
//! code that reads or writes that state. A method that moves what a
//! subscriber may rely on appends its records to the running delivery's
//! ([`Log`]); `DbPeer::commit` writes them. A head keeps the rows each
//! body node shipped of a rule with more than one, and joins an answer's
//! new rows against the other fragments as it arrives (`absorb`).

mod check;

use super::{part_marks, SessionState, VecMap};
use crate::joins::join_views;
use crate::messages::{Answer, Marks, ProtocolMsg, Query, Start, Via};
use crate::rule::{BodyPart, CoordinationRule, RuleId};
use p2p_net::{Context, SessionId};
use p2p_relational::query::{Bindings, RowsView};
use p2p_relational::{Database, Val};
use p2p_storage::{CursorMark, RecoveredState, WalRecord};
use p2p_topology::NodeId;
use serde::{Content, Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// The records of the running delivery, where the peer has a store.
pub(crate) type Log<'a> = Option<&'a mut Vec<WalRecord>>;

/// The rules a peer is the head of.
pub(crate) type Rules = BTreeMap<RuleId, Arc<CoordinationRule>>;

/// Body side of a subscription between sessions: how much of one rule
/// fragment one subscriber holds. Committed when a session retires.
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    /// The fragment the watermarks were advanced for (the fingerprint),
    /// shared with the subscription it was committed from.
    pub(crate) part: Arc<BodyPart>,
    /// Watermarks of the fragment's relations: the subscriber holds every
    /// row derivable from the facts below them.
    pub(crate) watermarks: Marks,
    /// Rows shipped on the subscription so far, over all its sessions (the
    /// `rows_saved` statistic: what a full re-ship would re-send).
    pub(crate) rows: usize,
}

/// A deliberate corruption of one peer's subscription state — each the
/// residue of a bug the protocol must not have — for the tests that show
/// the oracle comparison and `P2PSystem::check_subscriptions` catch it
/// (`tests/proptest_protocol.rs`). Not part of the protocol; nothing in the
/// program seeds one.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededFault {
    /// The cursor-void notice this peer owes is never sent.
    ForgetVoidNotice,
    /// Every fragment of this peer's rules counts as held, whatever became
    /// of the rule or of the rows.
    HoldEverything,
    /// Every committed cursor claims the subscriber holds everything the
    /// database derives right now.
    CursorsToNow,
    /// Armed until the next restart: the cursors the store gives back are
    /// set to now, as if the restart itself had shipped what lay between.
    RecoveredCursorsToNow,
    /// Armed until the next restart: the peer holds every fragment of its
    /// rules from the moment it is back, without asking a body node for
    /// what its log does not cover.
    HoldWithoutResync,
}

/// A peer's subscription state between sessions (module docs). Volatile
/// but for the cursors, which a durable peer logs and takes back at a
/// restart.
#[derive(Debug, Default)]
pub(crate) struct Subscriptions {
    /// Body side, per `(subscriber, rule)`: the committed delta cursor of
    /// each subscription this peer served. Bounded by rules × neighbours.
    cursors: VecMap<(NodeId, RuleId), Cursor>,
    /// Head side: the `(rule, body node)` fragments of this peer's own rules
    /// of which it holds everything it was shipped — marked when a session
    /// that queried them retires, or a repair answer was absorbed.
    held: BTreeSet<(RuleId, NodeId)>,
    /// Head side, per `(rule, body node)` of the rules with more than one
    /// body node: the rows that body node shipped so far, deduplicated, in
    /// arrival order — the order the semi-naive join stages from, so join
    /// output, insertion order and shipped rows stay deterministic. The one
    /// copy: a durable peer's checkpoints write it, and a restart re-primes
    /// it from the answer log.
    fragments: VecMap<(RuleId, NodeId), Bindings>,
    /// Body side: this peer discarded `cursors` without its subscribers
    /// having asked — or came back unable to vouch for them — and owes every
    /// pipe neighbour a cursor-void notice with the next flood it sees.
    void_owed: bool,
    /// Head side: repair queries sent after a restart whose answers have
    /// not arrived yet, keyed by the session they repair, with the
    /// watermark each was asked from. While any is outstanding the peer
    /// closes no session.
    pending_resync: BTreeMap<(SessionId, RuleId, NodeId), Marks>,
    /// A [`SeededFault`] that does its damage at the next restart.
    armed_fault: Option<SeededFault>,
}

impl Subscriptions {
    /// Where evaluation for `key` starts — the one start-point rule of every
    /// query, of either mode and of a repair: the watermarks and how many
    /// rows the asker holds already, `None` for the full extension.
    ///
    /// * `Resume` starts from the cursor committed for this very fragment.
    /// * `Since(claim)` starts from the per-relation minimum of the claim and
    ///   that cursor, which stays where it is: a claim is the mark of the
    ///   last answer that *arrived*, and lies beyond rows an earlier,
    ///   dropped answer carried, while the cursor was committed when every
    ///   answer up to it had been applied. Under `paper_faithful`, where no
    ///   cursor is kept, from the claim.
    /// * Without such a cursor, both start as `Fresh` does: from the full
    ///   extension, and (rule 3) the cursor is reset to zero, not removed —
    ///   so a subscriber who comes to hold the fragment through a session
    ///   whose retirement this peer misses still finds a standing
    ///   subscription — logged with the delivery that sends the answer.
    pub(crate) fn start(
        &mut self,
        key: (NodeId, RuleId),
        part: &Arc<BodyPart>,
        from: &Start,
        faithful: bool,
        log: Log,
    ) -> Option<(Marks, usize)> {
        let cursor = self.cursors.get(&key).filter(|c| c.part == *part);
        let start = match (from, cursor) {
            (Start::Since(claim), _) if faithful => Some((claim.clone(), 0)),
            (Start::Resume, Some(cursor)) => Some((cursor.watermarks.clone(), cursor.rows)),
            (Start::Since(claim), Some(cursor)) => {
                let held: Marks = (claim.iter())
                    .map(|(relation, w)| {
                        let committed = cursor.watermarks.get(relation).unwrap_or(0);
                        (relation.clone(), w.min(committed))
                    })
                    .collect();
                Some((held, 0))
            }
            _ => None,
        };
        if start.is_none() && !faithful {
            let zero = Cursor {
                part: part.clone(),
                watermarks: Marks::new(),
                rows: 0,
            };
            self.set_cursor(key, zero, true, log);
        }
        start
    }

    /// The first committed cursor past `key` (from the first with `None`),
    /// in key order, with its fragment: the standing subscriptions a flood
    /// opens, one at a time, so that opening one may change the table.
    pub(crate) fn cursor_after(
        &self,
        key: Option<(NodeId, RuleId)>,
    ) -> Option<((NodeId, RuleId), Arc<BodyPart>)> {
        let past = key.map_or(Bound::Unbounded, Bound::Excluded);
        let (key, cursor) = self.cursors.range((past, Bound::Unbounded)).next()?;
        Some((*key, Arc::clone(&cursor.part)))
    }

    /// Commits a retiring session (`paper_faithful` off): its subscriptions
    /// as their keys' cursors, the fragments it queried as held, and its
    /// cursor-void notice as delivered. Only a fragment the session
    /// **queried** becomes held: the others in `parts` were registered
    /// because they were held already, and a rule change or a notice that
    /// un-held one since must stay in force.
    pub(crate) fn commit(&mut self, st: SessionState, mut log: Log) {
        let queried = st.parts.iter().filter(|(_, part)| part.queried);
        self.held.extend(queried.map(|(key, _)| *key));
        if st.upd.void_sent {
            self.void_owed = false;
        }
        for (key, sub) in st.subs {
            // Interleaved sessions retire in any order; watermarks are
            // snapshots of one growing database, so the later snapshot
            // dominates and is the one to keep.
            let newer = self.cursors.get(&key).is_none_or(|c| {
                c.part != sub.part
                    || (c.watermarks.iter())
                        .all(|(rel, w)| sub.watermarks.get(rel).is_some_and(|n| n >= w))
            });
            if newer {
                let shipped = sub.shipped > 0;
                let cursor = Cursor {
                    rows: sub.resumed_rows + sub.shipped,
                    part: sub.part,
                    watermarks: sub.watermarks,
                };
                self.set_cursor(key, cursor, shipped, log.as_deref_mut());
            }
        }
    }

    /// Sets the cursor of `key` and records it where a subscriber may come
    /// to rely on the change: always when the fragment is new for the key,
    /// and when the watermarks differ and `moved` says the difference
    /// matters — a reset does; an advance over facts that derived no row
    /// for the subscriber does not (resumed from the older mark, the same
    /// facts derive nothing again). The fragment rides as an opaque
    /// document in the key's first record only.
    fn set_cursor(&mut self, key: (NodeId, RuleId), cursor: Cursor, moved: bool, log: Log) {
        let held = self.cursors.get(&key);
        let new_part = held.is_none_or(|c| c.part != cursor.part);
        let differs = held.is_none_or(|c| c.watermarks != cursor.watermarks);
        if let Some(log) = log.filter(|_| new_part || (differs && moved)) {
            let part = if new_part {
                (cursor.part.to_content()).expect("a fragment is plain data")
            } else {
                Content::Null
            };
            let mark = CursorMark {
                part,
                watermarks: cursor.watermarks.clone(),
                rows: cursor.rows,
            };
            log.push(cursor_record(key, Some(mark)));
        }
        self.cursors.insert(key, cursor);
    }

    /// Rule 4, body side: the subscriber asked for the cursor of `key` to
    /// go (`Unsubscribe`); it goes, durably.
    pub(crate) fn unsubscribe(&mut self, key: (NodeId, RuleId), log: Log) {
        if let (Some(_), Some(log)) = (self.cursors.remove(&key), log) {
            log.push(cursor_record(key, None));
        }
    }

    /// Rule 1: every cursor goes unasked — a crash (`log` is `None`: the
    /// store keeps them), an amnesiac restart, a rule-file broadcast — so
    /// every pipe neighbour is owed the notice. The head side goes with it.
    pub(crate) fn discard(&mut self, mut log: Log) {
        let served: Vec<(NodeId, RuleId)> = self.cursors.keys().copied().collect();
        for key in served {
            self.unsubscribe(key, log.as_deref_mut());
        }
        self.void_owed = true;
        self.held.clear();
        self.fragments.clear();
        self.pending_resync.clear();
    }

    /// Rule 1: the cursor-void notice is owed; it rides with the next flood.
    pub(crate) fn owes_notice(&self) -> bool {
        self.void_owed
    }

    /// Rule 1, receiver side: `node`'s cursors are gone, so none of the
    /// fragments it serves is held any more.
    pub(crate) fn voided_by(&mut self, node: NodeId) {
        self.held.retain(|(_, n)| *n != node);
    }

    /// Whether this peer holds everything it was shipped of `key`'s
    /// fragment (a session need not query it).
    pub(crate) fn holds(&self, key: (RuleId, NodeId)) -> bool {
        self.held.contains(&key)
    }

    /// Marks `key`'s fragment held: a repair answer brought it up to the
    /// body node's present.
    pub(crate) fn hold(&mut self, key: (RuleId, NodeId)) {
        self.held.insert(key);
    }

    /// Rule 2: a `pushed` answer continues from what the body node believes
    /// this peer holds, so it is applied only for a fragment held here.
    pub(crate) fn admit_push(&self, answer: &Answer, from: NodeId) -> bool {
        !answer.pushed || self.holds((answer.rule, from))
    }

    /// Rule 4, head side: `rule` was replaced or deleted here, so nothing
    /// held, retained or under repair for it stays.
    pub(crate) fn forget_rule(&mut self, rule: RuleId) {
        self.pending_resync.retain(|(_, r, _), _| *r != rule);
        self.held.retain(|(r, _)| *r != rule);
        self.fragments.retain(|(r, _), _| *r != rule);
    }

    /// Merges the rows `from` shipped for `rule` (more than one body node)
    /// into what this peer retains of its fragment, and returns the
    /// bindings that use at least one new row, columns in rule order (each
    /// variable where it first occurs over the fragments). Only this
    /// fragment has new rows (one fragment per body node, one arrival at a
    /// time), so its new rows are joined against the other fragments as
    /// they stand: combinations of old rows were joined when the last of
    /// them arrived. `None`: no binding is new.
    pub(crate) fn absorb<'r>(
        &mut self,
        rule: &CoordinationRule,
        from: NodeId,
        vars: &Arc<[Arc<str>]>,
        rows: impl IntoIterator<Item = &'r [Val]>,
    ) -> Option<Bindings> {
        let at = rule.parts.iter().position(|p| p.node == from)?;
        let since = (self.fragments.or_default((rule.id, from))).merge(vars, rows)?;
        let empty = Bindings::default();
        let fragment = |p: &Arc<BodyPart>| self.fragments.get(&(rule.id, p.node));
        let views: Vec<RowsView<'_>> = (rule.parts.iter())
            .map(|p| fragment(p).unwrap_or(&empty).view())
            .collect();
        // The join starts from the new rows, so what it builds stays
        // proportional to them.
        let arrived = RowsView {
            start: since,
            ..views[at]
        };
        let others = views.iter().enumerate().filter(|&(i, _)| i != at);
        let staged: Vec<RowsView<'_>> = (std::iter::once(arrived))
            .chain(others.map(|(_, view)| *view))
            .collect();
        let joined = join_views(&staged, &rule.join_constraints);
        if joined.rows.is_empty() {
            return None;
        }
        let mut order: Vec<Arc<str>> = Vec::with_capacity(joined.vars.len());
        for var in views.iter().flat_map(|view| view.vars.iter()) {
            if !order.contains(var) {
                order.push(Arc::clone(var));
            }
        }
        Some(joined.with_columns(order))
    }

    /// A durable peer comes back with what its store replayed (`None`: it
    /// held nothing, or did not read back). Body side, rule 1: it takes
    /// back every cursor the recovered database vouches for, and owes the
    /// notice unless that is all of them. Head side: it re-primes the
    /// retained fragments from the answer log — before any delta answer
    /// arrives, which joins against the full retained extensions — and puts
    /// a repair of every rule fragment under way, from the newest
    /// durably-processed watermark, under the newest logged session's tag.
    pub(crate) fn recover(&mut self, rec: Option<RecoveredState>, rules: &Rules, db: &Database) {
        let (tag, mut marks, vouched) = match rec {
            Some(r) => (r.last_session, r.marks, self.restore_cursors(r.cursors, db)),
            None => (SessionId::default(), BTreeMap::new(), false),
        };
        self.void_owed = !vouched;
        let fault = self.armed_fault.take();
        if fault == Some(SeededFault::RecoveredCursorsToNow) {
            self.seed_fault(SeededFault::CursorsToNow, rules, db);
        }
        for rule in rules.values() {
            for part in &rule.parts {
                let key = (rule.id, part.node);
                let mark = marks.remove(&(rule.id.0, part.node)).unwrap_or_default();
                if rule.parts.len() > 1 && !mark.vars.is_empty() {
                    (self.fragments.or_default(key)).merge(&mark.vars, mark.rows.iter());
                }
                if fault == Some(SeededFault::HoldWithoutResync) {
                    self.held.insert(key);
                    continue;
                }
                (self.pending_resync).insert((tag, rule.id, part.node), mark.watermarks);
            }
        }
    }

    /// Takes back the recovered cursors the database vouches for — its
    /// fragment reads back and no watermark lies beyond the relation it
    /// counts in. Returns whether every cursor was.
    fn restore_cursors(
        &mut self,
        cursors: BTreeMap<(NodeId, u32), CursorMark>,
        db: &Database,
    ) -> bool {
        let mut vouched = true;
        for ((subscriber, rule), mark) in cursors {
            let within = (mark.watermarks.iter())
                .all(|(relation, w)| (db.relation(relation)).is_ok_and(|r| w <= r.len()));
            match BodyPart::from_content(&mark.part) {
                Ok(part) if within => {
                    let cursor = Cursor {
                        part: Arc::new(part),
                        watermarks: mark.watermarks,
                        rows: mark.rows,
                    };
                    self.cursors.insert((subscriber, RuleId(rule)), cursor);
                }
                // Left in the store: every restart finds it wanting again,
                // until the subscriber's fresh query replaces it.
                _ => vouched = false,
            }
        }
        vouched
    }

    /// A repair is under way: no session may close here.
    pub(crate) fn resyncing(&self) -> bool {
        !self.pending_resync.is_empty()
    }

    /// Settles the repair of `key` on its answer; false if nobody was
    /// waiting for it (a duplicate, or the rule changed since).
    pub(crate) fn resync_answered(&mut self, key: (SessionId, RuleId, NodeId)) -> bool {
        self.pending_resync.remove(&key).is_some()
    }

    /// Sends every outstanding repair query — at a restart, and again
    /// (at-least-once delivery; both ends are idempotent — the answerer just
    /// delta-evaluates again, the requester's merge deduplicates) whenever
    /// the peer (re-)enters an update session, which is exactly when the
    /// driver's re-drive gives lost repair traffic another chance.
    pub(crate) fn resend(&mut self, rules: &Rules, ctx: &mut Context<ProtocolMsg>) {
        self.pending_resync.retain(|&(sid, rule, node), since| {
            let part =
                (rules.get(&rule)).and_then(|r| r.parts.iter().find(|p| p.node == node).cloned());
            // The rule (or this fragment) gone, nothing is left to reconcile.
            let Some(part) = part else { return false };
            let query = Query::new(sid, rule, part, Start::Since(since.clone()), Via::Repair);
            ctx.send(node, ProtocolMsg::Query(query));
            true
        });
    }

    /// Entries that outlive sessions: cursors and held fragments.
    pub(crate) fn retained_entries(&self) -> (usize, usize) {
        (self.cursors.len(), self.held.len())
    }

    /// The rows `key`'s body node shipped so far, where this peer retains
    /// them (a rule with more than one body node): the one copy, which the
    /// join reads and a checkpoint writes.
    pub(crate) fn fragment(&self, key: (RuleId, NodeId)) -> Option<&Bindings> {
        self.fragments.get(&key)
    }

    /// Fragment rows retained across sessions.
    pub(crate) fn retained_rows(&self) -> usize {
        self.fragments.values().map(|c| c.rows.len()).sum()
    }

    /// Corrupts this state as `fault` describes (tests of the tests).
    pub(crate) fn seed_fault(&mut self, fault: SeededFault, rules: &Rules, db: &Database) {
        match fault {
            SeededFault::ForgetVoidNotice => self.void_owed = false,
            SeededFault::HoldEverything => {
                let fragments =
                    (rules.values()).flat_map(|r| r.parts.iter().map(move |p| (r.id, p.node)));
                self.held.extend(fragments);
            }
            SeededFault::CursorsToNow => {
                for cursor in self.cursors.values_mut() {
                    cursor.watermarks = part_marks(db, &cursor.part);
                }
            }
            SeededFault::RecoveredCursorsToNow | SeededFault::HoldWithoutResync => {
                self.armed_fault = Some(fault)
            }
        }
    }
}

fn cursor_record((subscriber, rule): (NodeId, RuleId), mark: Option<CursorMark>) -> WalRecord {
    WalRecord::Cursor {
        subscriber,
        rule: rule.0,
        mark,
    }
}

#[cfg(test)]
impl Subscriptions {
    pub(crate) fn cursor(&self, key: (NodeId, RuleId)) -> Option<&Cursor> {
        self.cursors.get(&key)
    }

    pub(crate) fn resyncs(&self) -> usize {
        self.pending_resync.len()
    }

    pub(crate) fn await_resync(&mut self, key: (SessionId, RuleId, NodeId), since: Marks) {
        self.pending_resync.insert(key, since);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joins::join_parts;
    use p2p_relational::query::Idents;
    use p2p_relational::RowSet;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// `B:b(X,Y), C:c(Y,Z), D:d(Z,W), X < W => A:a(X,W)`: three fragments
    /// and a constraint across them.
    fn chain_rule() -> CoordinationRule {
        let resolve = |name: &str| (["A", "B", "C", "D"].iter()).position(|n| *n == name);
        let resolve = |name: &str| resolve(name).map(|i| NodeId(i as u32));
        let text = "B:b(X,Y), C:c(Y,Z), D:d(Z,W), X < W => A:a(X,W)";
        CoordinationRule::parse("r", text, None, &resolve, &mut Idents::new()).unwrap()
    }

    /// The bindings of `arrived`'s rows at fragment `at` with the others'
    /// rows, the arrived row first, the others' in fragment order, each
    /// fragment's rows oldest first: a nested loop over
    /// `b(X,Y), c(Y,Z), d(Z,W)` with `X < W`, rows over `X, Y, Z, W`.
    fn nested_loop(
        fragments: &[Vec<[i64; 2]>; 3],
        at: usize,
        arrived: &[[i64; 2]],
    ) -> Vec<[i64; 4]> {
        let mut out = Vec::new();
        let others: Vec<usize> = (0..3).filter(|&i| i != at).collect();
        for &new in arrived {
            for &first in &fragments[others[0]] {
                for &second in &fragments[others[1]] {
                    let mut rows = [[0; 2]; 3];
                    (rows[at], rows[others[0]], rows[others[1]]) = (new, first, second);
                    let [[x, y], [y2, z], [z2, w]] = rows;
                    if y == y2 && z == z2 && x < w && !out.contains(&[x, y, z, w]) {
                        out.push([x, y, z, w]);
                    }
                }
            }
        }
        out
    }

    fn ints(rows: &RowSet) -> Vec<Vec<i64>> {
        let int = |v: &Val| match v {
            Val::Int(i) => *i,
            other => panic!("not an int: {other:?}"),
        };
        rows.iter()
            .map(|row| row.iter().map(int).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A head's join of one arriving fragment answer is exactly what
        /// the full join gained, in the nested loop's order, columns in
        /// rule order; and what the arrivals return adds up to the full
        /// join of what the fragments hold at the end.
        #[test]
        fn an_arrival_joins_to_what_the_full_join_gained(
            arrivals in proptest::collection::vec(
                (0usize..3, proptest::collection::vec((0i64..4, 0i64..4), 0..5)),
                1..12,
            ),
        ) {
            let rule = chain_rule();
            let mut subs = Subscriptions::default();
            let mut model: [Vec<[i64; 2]>; 3] = Default::default();
            let full_join = |subs: &Subscriptions| {
                let fragment = |p: &Arc<BodyPart>| subs.fragment((rule.id, p.node)).cloned();
                let fragments: Vec<Bindings> =
                    rule.parts.iter().map(|p| fragment(p).unwrap_or_default()).collect();
                let joined = join_parts(&fragments, &rule.join_constraints);
                ints(&joined.rows).into_iter().collect::<HashSet<_>>()
            };
            let mut union = HashSet::new();
            for (at, batch) in arrivals {
                let part = &rule.parts[at];
                let rows: Vec<[Val; 2]> = batch.iter().map(|&(a, b)| [Val::Int(a), Val::Int(b)]).collect();
                let mut arrived = Vec::new();
                for (a, b) in batch {
                    if !model[at].contains(&[a, b]) {
                        model[at].push([a, b]);
                        arrived.push([a, b]);
                    }
                }
                let before = full_join(&subs);
                let got = subs.absorb(&rule, part.node, &part.vars, rows.iter().map(|r| &r[..]));
                let after = full_join(&subs);
                let got = got.filter(|joined| !joined.rows.is_empty());
                let got = got.map_or_else(Vec::new, |joined| {
                    let columns: Vec<&str> = joined.vars.iter().map(|v| &**v).collect();
                    assert_eq!(columns, ["X", "Y", "Z", "W"]);
                    ints(&joined.rows)
                });
                let gained: HashSet<Vec<i64>> = after.difference(&before).cloned().collect();
                prop_assert_eq!(got.iter().cloned().collect::<HashSet<_>>(), gained);
                let expected: Vec<Vec<i64>> =
                    nested_loop(&model, at, &arrived).iter().map(|row| row.to_vec()).collect();
                prop_assert_eq!(&got, &expected);
                union.extend(got);
            }
            prop_assert_eq!(union, full_join(&subs));
        }
    }
}
