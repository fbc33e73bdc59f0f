//! The eager (asynchronous) distributed update — algorithms A4–A6 of the
//! paper with subscription-based re-answering.
//!
//! Data plane: the head node of each rule sends `Query` to the rule's body
//! nodes (carrying the fragment and the `SN` path, A4); a queried node
//! answers with its fragment's current extension and **subscribes** the
//! asker (the paper's `owner` array); every time a node's local database
//! grows it re-answers all its subscribers (A5's trailing `foreach`), with
//! deltas unless the run is `paper_faithful`. Loops quiesce because answers
//! only flow when they carry something new — the paper's "node N stops
//! propagating a result set R iff N is contained in the path … and there is
//! no new data in R". A delta needs no record of what was sent to tell what
//! is new: evaluated from a subscription's watermarks, it holds only rows
//! the subscription never shipped ([`DbPeer::advance_subscription`]).
//!
//! What decides when a session is over is **per session** (`EagerState`
//! lives inside `crate::peer::SessionState`): concurrent sessions from
//! different roots keep separate closure flags, fragment completeness and
//! subscriptions — each with the watermarks its next delta starts from —
//! over the shared local database, so any number of initiators
//! interleave soundly: monotone inserts commute, and each global session's
//! subscription graph independently covers every rule. What a session
//! *ships* is per peer: a subscription starts from the cursor the last
//! retired session committed for its `(subscriber, rule)`, and the head
//! joins against the fragment rows it retained, so a session costs what
//! changed since the previous one. By default the subscription itself
//! outlives the session too: a flooded session opens it from the cursor
//! without a `Query`, and it speaks only when it has rows. The
//! commit-at-retirement rule, the standing subscriptions and what keeps
//! their silence unambiguous are in the [`crate::peer`] module docs.
//!
//! Closure: answers carry the sender's `state_u` (A5's completeness flag);
//! a node closes bottom-up when all its rules' fragments are complete (the
//! `Rules` flag criterion of Lemma 1), which resolves all of any acyclic
//! region that was queried. Cyclic regions cannot self-certify this way,
//! and a fragment served by a standing subscription never reports
//! completeness; there the session root's Dijkstra–Scholten detector (see
//! [`crate::termination`], one instance per session) observes the session's
//! quiescence and broadcasts `Fixpoint`, standing in for the paper's
//! maximal-dependency-path flags, whose number is factorial in clique size.
//! The broadcast also **retires** the session's state everywhere — sound
//! because Dijkstra–Scholten guarantees no session traffic is still in
//! flight at termination.

use crate::messages::{Answer, AnswerRows, Marks, ProtocolMsg, Query, Start, Via};
use crate::peer::catalog::held_body;
use crate::peer::durability::Durable;
use crate::peer::{part_marks, DbPeer, SessionState};
use crate::rule::{BodyPart, RuleId};
use crate::stats::ClosedBy;
use p2p_net::{Context, SessionId};
use p2p_relational::RowSet;
use p2p_topology::NodeId;
use std::sync::Arc;

/// A subscription served to a rule's head node (body side), for the
/// lifetime of one session — of either update mode: a rounds session serves
/// its wave queries from one too.
///
/// It keeps where it is, not what it sent: an evaluation from its
/// watermarks returns only rows it has not shipped in this session (see
/// [`DbPeer::advance_subscription`]), so what it ships is counted, not
/// kept.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// The fragment to evaluate for this subscriber (shared with the plan
    /// cache and the cursor it commits to).
    pub part: Arc<BodyPart>,
    /// Distinct rows shipped in this session, over the fragment's
    /// variables.
    pub shipped: usize,
    /// Rows earlier sessions shipped on this subscription (the resumed
    /// cursor's count; 0 when the subscription started from the full
    /// extension).
    pub resumed_rows: usize,
    /// Whether the last answer carried `complete = true`.
    pub sent_complete: bool,
    /// Opened from the committed cursor when the session's flood arrived,
    /// not by a `Query` of this session: its answers go out marked `pushed`
    /// and only when they carry rows, and it takes no part in the
    /// completeness flags. A `Query` that meets it makes it an ordinary
    /// subscription.
    pub standing: bool,
    /// Watermarks of the fragment's relations as of the last evaluation for
    /// this subscriber: re-answers delta-evaluate from here instead of
    /// re-running the full conjunctive query, and retirement commits them as
    /// the `(subscriber, rule)` cursor the next session resumes from.
    pub watermarks: Marks,
}

/// One fragment of one of this peer's rules, as one session sees it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Part {
    /// The body node reported `state_u == closed` (the paper's rule flag;
    /// eager mode only).
    pub complete: bool,
    /// This session sent the body node a `Query` for the fragment (a rounds
    /// session queries every fragment). `false` for a fragment registered
    /// because the peer already holds it and the body node's standing
    /// subscription serves it.
    pub(crate) queried: bool,
}

/// Eager-mode state of one update session at one peer.
#[derive(Debug, Clone, Default)]
pub(crate) struct EagerState {
    /// The session is in progress (or finished) at this node.
    pub(crate) active: bool,
    /// The start-request flood passed through here.
    pub(crate) flood_seen: bool,
    /// `state_u == closed`.
    pub(crate) closed: bool,
    /// Highest fix-point broadcast generation processed.
    pub(crate) fixpoint_gen: u32,
    /// A dynamic change touched this node (rule added/removed here, or a
    /// reopen reached it). From then on the per-rule-flags early closure is
    /// disabled for the session: a dynamically created dependency cycle
    /// would otherwise let close/reopen notification waves chase each other
    /// around the ring forever (each member re-closing on its predecessor's
    /// stale completeness). Closure then comes from the root's fix-point
    /// broadcast, which is always sound.
    pub(crate) suppress_flag_closure: bool,
    /// This peer's cursor-void notice went out with this session's flood;
    /// the debt is cleared when the session retires.
    pub(crate) void_sent: bool,
}

impl DbPeer {
    /// Starts (or joins) the update session. `sn_base` is the path of the
    /// query that caused the node to join (empty when joining via flood or
    /// as the initiator). `by_flood`: the session's flood is what brought
    /// the node in, so every body node sees the flood too and serves the
    /// fragments this peer holds from its standing subscriptions — only the
    /// others are queried. Returns true if participation began now.
    pub(crate) fn begin_session(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
        sn_base: &[NodeId],
        by_flood: bool,
    ) -> bool {
        if st.upd.active {
            return false;
        }
        st.upd = EagerState {
            active: true,
            closed: self.rules.is_empty(),
            ..Default::default()
        };
        st.retired = false;
        self.note_session_joined();
        if st.upd.closed {
            // A node with no rules is trivially at its fix-point.
            self.stats.closed_by = ClosedBy::RulesFlags;
        } else {
            self.stats.closed_by = ClosedBy::Open;
        }
        // The rules are lent out while their queries go, and back before
        // anything else reads them.
        let rules = std::mem::take(&mut self.rules);
        self.issue_queries(st, sid, rules.values(), ctx, sn_base, by_flood);
        self.rules = rules;
        // Crash recovery: give any still-unanswered repair query another
        // chance with the new session (at-least-once; see `durability`).
        self.subscriptions.resend(&self.rules, ctx);
        true
    }

    /// Statistics hook for a session activation: counts participation and
    /// tracks the peak number of simultaneously open sessions (the entry
    /// being activated is not in the table while taken out, hence `+ 1`).
    pub(crate) fn note_session_joined(&mut self) {
        self.stats.sessions_participated += 1;
        let mode = self.config.mode;
        let open = self.sessions.live().filter(|s| s.open(mode)).count() as u64 + 1;
        self.stats.concurrent_peak = self.stats.concurrent_peak.max(open);
    }

    /// Queries the fragments of `rules` this session needs queried. The
    /// queries share one `SN`: the path that brought the peer in, and the
    /// peer.
    fn issue_queries<'r>(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        rules: impl Iterator<Item = &'r Arc<crate::rule::CoordinationRule>>,
        ctx: &mut Context<ProtocolMsg>,
        sn_base: &[NodeId],
        by_flood: bool,
    ) {
        let mut sn: Option<Arc<[NodeId]>> = None;
        for rule in rules {
            for part in &rule.parts {
                let key = (rule.id, part.node);
                let held = !self.config.paper_faithful && self.subscriptions.holds(key);
                let queried = !(by_flood && held);
                st.parts.insert(
                    key,
                    Part {
                        complete: false,
                        queried,
                    },
                );
                if queried {
                    let from = if held { Start::Resume } else { Start::Fresh };
                    let query = Query::new(sid, rule.id, part.clone(), from, Via::Session);
                    let sn = sn
                        .get_or_insert_with(|| sn_base.iter().copied().chain([self.id]).collect());
                    let sn = Arc::clone(sn);
                    self.send_query(st, ctx, Query { sn, ..query });
                }
            }
        }
    }

    /// Sends a query of this peer's, of either update mode, to its body
    /// node.
    pub(crate) fn send_query(
        &mut self,
        st: &mut SessionState,
        ctx: &mut Context<ProtocolMsg>,
        query: Query,
    ) {
        self.stats.queries_sent += 1;
        self.send(st, ctx, query.part.node, ProtocolMsg::Query(query));
    }

    /// Queries afresh the fragment `(rule, node)` this session registered
    /// without querying: the peer turned out not to hold it. A fragment
    /// already queried, or one the session does not listen to, is left
    /// alone.
    fn requery_unheld(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        rule: RuleId,
        node: NodeId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        match st.parts.get_mut(&(rule, node)) {
            Some(part) if !part.queried => part.queried = true,
            _ => return,
        }
        let part = self
            .rules
            .get(&rule)
            .and_then(|r| r.parts.iter().find(|p| p.node == node).cloned());
        if let Some(part) = part {
            let query = Query::new(sid, rule, part, Start::Fresh, Via::Session);
            let sn = [self.id].into();
            self.send_query(st, ctx, Query { sn, ..query });
        }
    }

    /// Handles the flooded global update request.
    pub(crate) fn on_update_flood(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let faithful = self.config.paper_faithful;
        self.begin_session(st, sid, ctx, &[], !faithful);
        if st.upd.flood_seen {
            return;
        }
        st.upd.flood_seen = true;
        if faithful {
            // The paper's propagation: along the acquaintances, of which
            // the sender is one.
            self.add_pipe(from);
            let pipes = self.pipes.nodes.iter().copied();
            let targets: Vec<NodeId> = pipes.filter(|p| *p != from).collect();
            self.send_basic_many(st, ctx, targets, ProtocolMsg::UpdateFlood { session: sid });
        } else {
            // The root's roster send is the flood; nothing to forward.
            self.open_standing(st, sid, ctx);
        }
    }

    /// Body side of the flood's arrival (and of the root's own start): the
    /// committed cursors *are* the subscriptions, so each is opened for this
    /// session without waiting to be asked, and its delta goes out only if
    /// there is one — no news is no message. A peer that discarded cursors
    /// its subscribers still count on says so first.
    pub(crate) fn open_standing(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if self.subscriptions.owes_notice() && !st.upd.void_sent {
            st.upd.void_sent = true;
            let pipes: Vec<NodeId> = self.pipes.nodes.iter().copied().collect();
            self.send_basic_many(st, ctx, pipes, ProtocolMsg::CursorVoid { session: sid });
        }
        let mut past = None;
        while let Some(((to, rule), part)) = self.subscriptions.cursor_after(past) {
            past = Some((to, rule));
            if st.subs.contains_key(&(to, rule)) {
                continue;
            }
            let (mut sub, rows) = self.open_subscription(to, rule, part, &Start::Resume, ctx);
            sub.standing = true;
            if !rows.is_empty() {
                let answer = Answer::new(sid, rule, AnswerRows::default(), Via::Session);
                self.send_answer(st, ctx, to, &sub, rows, answer);
            }
            st.subs.insert((to, rule), sub);
        }
    }

    /// Cursor-void notice from a body node: whatever it served this peer
    /// before, its cursors are gone. Its fragments are not held any more —
    /// a later session queries them — and this session, if it counted on
    /// the body node's standing subscriptions, queries them now.
    pub(crate) fn on_cursor_void(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.subscriptions.voided_by(from);
        let served: Vec<RuleId> = (st.parts.keys())
            .filter(|(_, node)| *node == from)
            .map(|(rule, _)| *rule)
            .collect();
        for rule in served {
            self.requery_unheld(st, sid, rule, from, ctx);
        }
    }

    /// Opens the subscription of `(to, rule)` for one session — the one
    /// path every subscription starts on — from where `from` says
    /// ([`DbPeer::eval_from`]). Returns the subscription and the rows to
    /// ship first.
    pub(crate) fn open_subscription(
        &mut self,
        to: NodeId,
        rule: RuleId,
        part: Arc<BodyPart>,
        from: &Start,
        ctx: &mut Context<ProtocolMsg>,
    ) -> (Subscription, RowSet) {
        let (rows, resumed_rows) = self.eval_from((to, rule), &part, from, ctx);
        let sub = Subscription {
            watermarks: part_marks(&self.db, &part),
            shipped: rows.len(),
            resumed_rows,
            sent_complete: false,
            standing: false,
            part,
        };
        (sub, rows)
    }

    /// Evaluates `part` for `(to, rule)` from where a query starts — the one
    /// start-point rule of every query, of either mode and of a repair.
    /// Returns the rows and how many the asker held already.
    ///
    /// [`Subscriptions::start`](super::subscriptions::Subscriptions::start)
    /// says where.
    pub(crate) fn eval_from(
        &mut self,
        key: (NodeId, RuleId),
        part: &Arc<BodyPart>,
        from: &Start,
        ctx: &mut Context<ProtocolMsg>,
    ) -> (RowSet, usize) {
        let faithful = self.config.paper_faithful;
        let log = self.storage.as_deref_mut().map(Durable::log);
        let start = self.subscriptions.start(key, part, from, faithful, log);
        if let (Start::Resume, Some((_, rows))) = (from, &start) {
            self.stats.resumed_answers += 1;
            self.stats.rows_saved += *rows as u64;
        }
        let since = start.as_ref().map(|(marks, _)| marks);
        let rows = self.eval_part_local(part, since, ctx);
        (rows, start.map_or(0, |(_, held)| held))
    }

    /// Re-evaluates a subscription's fragment — the delta since its last
    /// evaluation, or under `paper_faithful` the full extension — moves its
    /// watermarks and counts the new rows as shipped. Returns the evaluated
    /// rows and how many of them are new in this session.
    ///
    /// A delta is new in full. An answer row binds every distinct variable
    /// of its fragment (no fragment projects), so it fixes the one stored
    /// fact each atom matched, and a delta from the watermarks derives
    /// exactly the rows with a fact past them. Relations only grow, so the
    /// windows between successive watermarks never derive one row twice
    /// (semi-naive evaluation; Abiteboul, Hull & Vianu, *Foundations of
    /// Databases*, §13.1). A full extension only grows within a session:
    /// its new rows number its length less what was shipped.
    ///
    /// A delta over relations that did not grow is empty, so it is not
    /// evaluated at all: the watermarks already read the relations'
    /// lengths, and nothing is allocated. (Public, but hidden from the
    /// docs, so that `tests/sizing_allocates_nothing.rs` can price it.)
    #[doc(hidden)]
    pub fn advance_subscription(
        &mut self,
        sub: &mut Subscription,
        ctx: &mut Context<ProtocolMsg>,
    ) -> (RowSet, usize) {
        let faithful = self.config.paper_faithful;
        if !faithful && !self.grew_past(&sub.part, &sub.watermarks) {
            return (RowSet::new(sub.part.vars.len()), 0);
        }
        let since = (!faithful).then_some(&sub.watermarks);
        let rows = self.eval_part_local(&sub.part, since, ctx);
        debug_assert!(
            held_body(&sub.part, &self.db).is_none_or(|body| body.full.vars == sub.part.vars),
            "a fragment's rows bind its variables, no fewer"
        );
        sub.watermarks = part_marks(&self.db, &sub.part);
        let new = if faithful {
            rows.len() - sub.shipped
        } else {
            rows.len()
        };
        sub.shipped += new;
        (rows, new)
    }

    /// Ships `rows` on `sub` as `reply`, which names the answer's session,
    /// rule, exchange and `acks`. A standing subscription marks its answers
    /// `pushed`.
    fn send_answer(
        &mut self,
        st: &mut SessionState,
        ctx: &mut Context<ProtocolMsg>,
        to: NodeId,
        sub: &Subscription,
        rows: RowSet,
        reply: Answer,
    ) {
        self.stats.answers_sent += 1;
        self.stats.acking_answers += u64::from(reply.acks);
        self.stats.rows_shipped += rows.len() as u64;
        let rows = self.make_answer_rows(to, &sub.part, rows);
        let answer = Answer {
            rows,
            complete: sub.sent_complete,
            pushed: sub.standing,
            ..reply
        };
        self.send(st, ctx, to, ProtocolMsg::Answer(answer));
    }

    /// A4 — `Query(IDs, Q, SN)`, whichever exchange it belongs to: a repair
    /// is answered outside every session; a session's query joins it (an
    /// eager one by A4's forwarding, extending `SN`; a round's by entering
    /// the round) and is served from the session's subscription, unless its
    /// round is over here or it must wait at an acyclic node for the node's
    /// own fragments. `acks`: the answer also acknowledges the query.
    pub(crate) fn on_query(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        query: Query,
        acks: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.add_pipe(from);
        match query.via {
            Via::Repair => return self.answer_repair(sid, from, query, ctx),
            Via::Session => {
                self.stats.queries_received += 1;
                self.begin_session(st, sid, ctx, &query.sn, false);
            }
            Via::Round(round) => {
                self.stats.queries_received += 1;
                self.enter_round(st, sid, round, ctx);
                if round < st.rnd.round {
                    return self.answer_stale(sid, from, query, ctx);
                }
                if !self.in_cycle && !st.rnd.awaiting.is_empty() {
                    return st.rnd.deferred.push((from, query));
                }
            }
        }
        self.answer_query(st, sid, from, query, acks, ctx);
    }

    /// Serves a session's query, of either mode, from the session's
    /// subscription of `(to, rule)`: a `Resume` query that finds one open for
    /// the same fragment advances it (what a standing one pushed is on its
    /// way already); any other query opens it anew from where it starts.
    pub(crate) fn answer_query(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        to: NodeId,
        query: Query,
        acks: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let key = (to, query.rule);
        let (mut sub, rows) = match st.subs.remove(&key) {
            Some(mut sub) if query.from == Start::Resume && sub.part == query.part => {
                let (rows, new) = self.advance_subscription(&mut sub, ctx);
                if !sub.standing {
                    // What a full re-ship would have re-sent.
                    self.stats.delta_answers_sent += 1;
                    let saved = sub.resumed_rows + sub.shipped - new;
                    self.stats.rows_saved += saved as u64;
                }
                sub.standing = false;
                (sub, rows)
            }
            open => {
                if open.is_some_and(|sub| !sub.standing) && query.via == Via::Session {
                    self.stats.duplicate_queries += 1;
                }
                self.open_subscription(to, query.rule, query.part, &query.from, ctx)
            }
        };
        // Completeness is an eager session's flag; a round's answer says none.
        sub.sent_complete = st.upd.closed && query.via == Via::Session;
        let reply = Answer::new(sid, query.rule, AnswerRows::default(), query.via);
        self.send_answer(st, ctx, to, &sub, rows, Answer { acks, ..reply });
        st.subs.insert(key, sub);
    }

    /// A5 — `Answer(ID, QA, SN, state)`, whichever exchange it serves. Every
    /// answer's rows take one path — dictionary, null depths,
    /// [`DbPeer::absorb_fragment`], the durable mark — between its exchange's
    /// own bookkeeping: an eager session's checks and cascade, a round's
    /// echo accounting, a repair's settling and `held` mark.
    pub(crate) fn on_answer(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        mut answer: Answer,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let (rule, via) = (answer.rule, answer.via);
        match via {
            // Nobody is waiting for it — a duplicate, or the rule changed
            // since.
            Via::Repair if !self.subscriptions.resync_answered((sid, rule, from)) => return,
            Via::Repair => self.stats.resync_rows += answer.rows.rows.len() as u64,
            _ => self.stats.answers_received += 1,
        }
        // The sender counts these symbols as known here from now on,
        // whatever becomes of the rows.
        self.absorb_dict(from, &mut answer.rows);
        if via == Via::Session && !self.admit_answer(st, sid, from, &answer, ctx) {
            return;
        }
        for (id, depth) in &answer.rows.null_depths {
            self.nulls.chase.record(*id, *depth);
        }
        // Durable peers log the processed answer (rows + the answerer's
        // watermarks — the crash-resync cursor) in the delivery's frame,
        // with the insertions it derives.
        let inserted = self.absorb_fragment(rule, from, &answer.rows.vars, &answer.rows.rows);
        self.log_answer_mark(sid, rule, from, answer.rows);
        match via {
            Via::Session => {
                if inserted > 0 {
                    // New local facts: cascade to subscribers (A5's trailing
                    // `foreach node ∈ π₁(owner)`).
                    self.reopen_if_closed(st, sid, ctx);
                    self.push_deltas(st, sid, ctx);
                }
                self.maybe_close_by_rules(st, sid, ctx);
            }
            Via::Round(round) => {
                st.rnd.dirty_self |= st.rnd.active && inserted > 0;
                if !st.rnd.active || round != st.rnd.round || !st.rnd.awaiting.remove(&(rule, from))
                {
                    return; // Stale: its rows are in, its round is over.
                }
                if st.rnd.awaiting.is_empty() {
                    // Serve the queries held back.
                    for (to, query) in std::mem::take(&mut st.rnd.deferred) {
                        self.answer_query(st, sid, to, query, false, ctx);
                    }
                    self.maybe_echo(st, sid, ctx);
                }
            }
            Via::Repair => {
                if inserted > 0 {
                    // A wave that is under way here must not certify a clean
                    // round over facts its earlier answers did not carry.
                    for st in self.sessions.live_mut(None) {
                        if st.rnd.active {
                            st.rnd.dirty_self = true;
                        }
                    }
                }
                // The peer now holds the fragment up to the body node's
                // present, at or past the cursor the body node kept.
                if !self.config.paper_faithful {
                    self.subscriptions.hold((rule, from));
                }
            }
        }
    }

    /// An eager session's checks before an answer's rows are taken in; false
    /// when they are not.
    fn admit_answer(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        answer: &Answer,
        ctx: &mut Context<ProtocolMsg>,
    ) -> bool {
        let rule = answer.rule;
        if answer.pushed && !self.rules.contains_key(&rule) {
            // A cursor nobody listens to: the rule went away outside any
            // session the body node took part in.
            self.send(
                st,
                ctx,
                from,
                ProtocolMsg::Unsubscribe { session: sid, rule },
            );
            return false;
        }
        if !st.upd.active {
            if answer.rows.rows.is_empty() {
                return false;
            }
            // Data arrived for a session this peer is not (or no longer)
            // participating in — the defensive counterpart of the old
            // reopen-on-late-data path: a retired subscriber must not
            // silently drop a cascade a re-woken session pushed to it.
            // Re-join; the fresh queries rebuild fragment progress and the
            // session re-quiesces through the normal machinery.
            self.begin_session(st, sid, ctx, &[], false);
        }
        if !self.subscriptions.admit_push(answer, from) {
            // A push continues from what the body node believes this peer
            // holds, and it does not (the rule was replaced, the peer
            // restarted, a notice of the body node's voided the mark): the
            // rows mean nothing here. What does is the full extension, in
            // this session — the body node commits its cursor past these
            // rows when the session retires.
            self.requery_unheld(st, sid, rule, from, ctx);
            return false;
        }
        let Some(part) = st.parts.get_mut(&(rule, from)) else {
            // The rule was deleted or replaced while the answer was in
            // flight.
            return false;
        };
        if answer.reopen {
            part.complete = false;
            st.upd.suppress_flag_closure = true;
            self.reopen_if_closed(st, sid, ctx);
        } else if answer.complete {
            part.complete = true;
        }
        true
    }

    /// Re-answers subscribers whose fragment result changed.
    ///
    /// The fragment is **delta-evaluated** from the subscription's
    /// watermarks — only bindings using facts inserted since the last answer
    /// are computed, and none of them was shipped in this session.
    /// Under `paper_faithful` the fragment is re-evaluated in full and, when
    /// anything is new, re-shipped in full.
    pub(crate) fn push_deltas(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let faithful = self.config.paper_faithful;
        let closed = st.upd.closed;
        // Taken out while the loop sends through `st`.
        let mut subs = std::mem::take(&mut st.subs);
        for (&(to, rule), sub) in subs.iter_mut() {
            let (rows, new) = self.advance_subscription(sub, ctx);
            // Completeness is news to a subscriber that asked; a standing
            // subscription speaks only when it has rows.
            let completeness_news = closed && !sub.sent_complete && !sub.standing;
            if new == 0 && !completeness_news {
                continue;
            }
            sub.sent_complete = closed && !sub.standing;
            if !faithful {
                // What a full re-ship would have re-sent: the whole current
                // extension, approximated by what the subscription shipped.
                self.stats.delta_answers_sent += 1;
                self.stats.rows_saved += (sub.resumed_rows + sub.shipped - new) as u64;
            }
            let answer = Answer::new(sid, rule, AnswerRows::default(), Via::Session);
            self.send_answer(st, ctx, to, sub, rows, answer);
        }
        st.subs = subs;
    }

    /// Lemma 1's `Rules` criterion: every fragment of every rule reported
    /// final data.
    ///
    /// The session's own `parts` are read first: every entry names a
    /// fragment of a rule this peer holds now, since `forget_rule` prunes
    /// the entries of a rule from every live session when it goes. So one
    /// incomplete entry settles it, and the rules are read only when every
    /// entry is complete.
    pub(crate) fn maybe_close_by_rules(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if st.upd.closed
            || !st.upd.active
            || st.upd.suppress_flag_closure
            || self.subscriptions.resyncing()
        {
            return;
        }
        debug_assert!(
            st.parts.keys().all(|(rule, node)| {
                (self.rules.get(rule)).is_some_and(|r| r.parts.iter().any(|p| p.node == *node))
            }),
            "a session listens to fragments of this peer's rules only"
        );
        if st.parts.values().any(|part| !part.complete) {
            return;
        }
        let all_complete = self
            .rules
            .values()
            .flat_map(|r| r.parts.iter().map(move |p| (r.id, p.node)))
            .all(|key| st.parts.get(&key).is_some_and(|p| p.complete));
        if all_complete {
            self.close(st, sid, ClosedBy::RulesFlags, ctx);
        }
    }

    /// Sets `state_u = closed` and (unless closed by the terminal broadcast,
    /// after which nobody is listening) ships final completeness answers.
    pub(crate) fn close(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        by: ClosedBy,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        st.upd.closed = true;
        self.stats.closed_by = by;
        if by != ClosedBy::RootBroadcast {
            self.push_deltas(st, sid, ctx);
        }
    }

    /// Re-opens after a dynamic change (or defensively when data arrives
    /// post-closure) and cascades the invalidation to subscribers.
    pub(crate) fn reopen_if_closed(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if !st.upd.closed {
            return;
        }
        st.upd.closed = false;
        st.upd.suppress_flag_closure = true;
        self.stats.closed_by = ClosedBy::Open;
        let keys: Vec<(NodeId, RuleId)> = st.subs.keys().copied().collect();
        for key in keys {
            // Only subscribers that saw `complete = true` hold stale
            // completeness to invalidate.
            let needs_reopen = match st.subs.get_mut(&key) {
                Some(sub) if sub.sent_complete => {
                    sub.sent_complete = false;
                    true
                }
                _ => false,
            };
            if !needs_reopen {
                continue;
            }
            self.stats.answers_sent += 1;
            let answer = Answer::new(sid, key.1, AnswerRows::default(), Via::Session);
            let reopen = ProtocolMsg::Answer(Answer {
                reopen: true,
                ..answer
            });
            self.send(st, ctx, key.0, reopen);
        }
    }

    /// Fix-point broadcast from the session root. Closes (unless a crash
    /// resync is still outstanding) and **retires** the session's state —
    /// termination detection guarantees no session traffic of the broadcast
    /// quiet period is in flight, so nothing can dangle.
    pub(crate) fn on_fixpoint(&mut self, st: &mut SessionState, generation: u32) {
        if st.ds.deficit() > 0 || (st.ds.engaged() && !st.ds.is_root()) {
            // Mid-diffusing: a post-fixpoint dynamic change re-engaged this
            // peer while a broadcast of the *previous* quiet period was
            // still in flight. That stale broadcast must neither close nor
            // retire live Dijkstra–Scholten state (a discarded deferred ack
            // would wedge the re-woken computation); the re-quiesce
            // broadcast — strictly newer generation — lands when this peer
            // is passive again. Deliberately does not record `generation`.
            return;
        }
        if !st.upd.active {
            // The session never reached this node (no pipes connect it to
            // the root's component). A rule-less node is trivially at its
            // fix-point and may close; a node *with* rules in a
            // disconnected component genuinely was not updated and must
            // stay open (Lemma 1: closed ⇔ fix-point reached *here*).
            if self.rules.is_empty() {
                st.upd.active = true;
                st.upd.closed = true;
                st.upd.fixpoint_gen = generation;
                st.retired = true;
                self.stats.closed_by = ClosedBy::RootBroadcast;
            }
            return;
        }
        if generation <= st.upd.fixpoint_gen {
            return;
        }
        st.upd.fixpoint_gen = generation;
        if !st.upd.closed && !self.subscriptions.resyncing() {
            // A peer still reconciling a crash stays open — the driver sees
            // it and re-drives, which re-sends the resync. Closing here
            // would certify a fix-point with a silent hole if the resync
            // answer was lost.
            st.upd.closed = true;
            self.stats.closed_by = ClosedBy::RootBroadcast;
        }
        if st.upd.closed {
            st.retired = true;
        }
    }

    /// Root side of the broadcast (invoked by the Dijkstra–Scholten hook).
    /// The generation counter lives outside the session entry so it
    /// survives a post-fixpoint re-wake of the session: the re-broadcast is
    /// strictly newer than any still-in-flight copy of the original.
    pub(crate) fn broadcast_fixpoint(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let generation = self.sessions.next_generation();
        ctx.send_to_many(
            self.sessions.others(self.id),
            ProtocolMsg::Fixpoint {
                session: sid,
                generation,
            },
        );
        self.on_fixpoint(st, generation);
    }

    /// `addRule` notification (dynamic change, Section 4).
    pub(crate) fn on_add_rule(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        rule: crate::rule::CoordinationRule,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let rule_id = rule.id;
        self.replace_rule(Arc::new(rule), Some(st));
        if !st.upd.active {
            if sid.epoch == 0 {
                return; // No session yet: queried at the next session start.
            }
            // The change reached a retired (or not-yet-joined) session
            // entry: re-join so the change propagates within this run. The
            // session start queries every rule, including the new one.
            self.begin_session(st, sid, ctx, &[], false);
            st.upd.suppress_flag_closure = true;
            return;
        }
        st.upd.suppress_flag_closure = true;
        self.reopen_if_closed(st, sid, ctx);
        // `install_rule` dropped whatever the id held before: every fragment
        // is queried afresh.
        let rule = self.rules[&rule_id].clone();
        self.issue_queries(st, sid, std::iter::once(&rule), ctx, &[], false);
    }

    /// `deleteRule` notification (dynamic change, Section 4). Previously
    /// imported data is kept — consistent with Definition 9 (see
    /// `crate::dynamic`).
    pub(crate) fn on_delete_rule(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        rule_id: RuleId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let Some(rule) = self.rules.remove(&rule_id) else {
            return;
        };
        self.forget_rule(rule_id, Some(st));
        if st.upd.active {
            st.upd.suppress_flag_closure = true;
            for part in &rule.parts {
                let unsubscribe = ProtocolMsg::Unsubscribe {
                    session: sid,
                    rule: rule_id,
                };
                self.send(st, ctx, part.node, unsubscribe);
            }
            self.maybe_close_by_rules(st, sid, ctx);
        }
    }

    /// Body-node side of `deleteRule`: the subscription dies in every live
    /// session, not only the one the notification travelled in — one left
    /// behind would commit the cursor again when its session retires.
    pub(crate) fn on_unsubscribe(&mut self, st: &mut SessionState, from: NodeId, rule: RuleId) {
        for st in self.sessions.live_mut(Some(st)) {
            st.subs.remove(&(from, rule));
        }
        let log = self.storage.as_deref_mut().map(Durable::log);
        self.subscriptions.unsubscribe((from, rule), log);
    }
}
