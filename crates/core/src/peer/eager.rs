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
//! no new data in R".
//!
//! What decides when a session is over is **per session** ([`EagerState`]
//! lives inside [`crate::peer::SessionState`]): concurrent sessions from
//! different roots keep separate closure flags, fragment completeness and
//! subscriptions — with each subscription's `sent` filter for what is in
//! flight — over the shared local database, so any number of initiators
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

use crate::messages::ProtocolMsg;
use crate::peer::{DbPeer, Marks, SessionState};
use crate::rule::{BodyPart, RuleId};
use crate::stats::ClosedBy;
use p2p_net::{Context, SessionId};
use p2p_relational::{RowSet, Tuple};
use p2p_topology::NodeId;
use std::sync::Arc;

/// A subscription served to a rule's head node (body side), for the
/// lifetime of one session — of either update mode: a rounds session serves
/// its wave queries from one too.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// The fragment to evaluate for this subscriber (shared with the plan
    /// cache and the cursor it commits to).
    pub part: Arc<BodyPart>,
    /// Rows shipped in this session, over the fragment's variables: the
    /// exactness layer over delta evaluation, which may re-derive an
    /// already-shipped row from a new fact.
    pub sent: RowSet,
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
pub struct Part {
    /// The body node reported `state_u == closed` (the paper's rule flag;
    /// eager mode only).
    pub complete: bool,
    /// This session sent the body node a `Query` for the fragment (a rounds
    /// session queries every fragment). `false` for a fragment registered
    /// because the peer already holds it and the body node's standing
    /// subscription serves it.
    pub queried: bool,
}

/// Eager-mode state of one update session at one peer.
#[derive(Debug, Clone, Default)]
pub struct EagerState {
    /// The session is in progress (or finished) at this node.
    pub active: bool,
    /// The start-request flood passed through here.
    pub flood_seen: bool,
    /// `state_u == closed`.
    pub closed: bool,
    /// Highest fix-point broadcast generation processed.
    pub fixpoint_gen: u32,
    /// A dynamic change touched this node (rule added/removed here, or a
    /// reopen reached it). From then on the per-rule-flags early closure is
    /// disabled for the session: a dynamically created dependency cycle
    /// would otherwise let close/reopen notification waves chase each other
    /// around the ring forever (each member re-closing on its predecessor's
    /// stale completeness). Closure then comes from the root's fix-point
    /// broadcast, which is always sound.
    pub suppress_flag_closure: bool,
    /// This peer's cursor-void notice went out with this session's flood;
    /// the debt is cleared when the session retires.
    pub void_sent: bool,
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
        let rules: Vec<_> = self.rules.values().cloned().collect();
        self.issue_queries(st, sid, &rules, ctx, sn_base, by_flood);
        // Crash recovery: give any still-unanswered resync request another
        // chance with the new session (at-least-once; see `durability`).
        self.resend_pending_resyncs(ctx);
        true
    }

    /// Statistics hook for a session activation: counts participation and
    /// tracks the peak number of simultaneously open sessions (the entry
    /// being activated is not in the table while taken out, hence `+ 1`).
    pub(crate) fn note_session_joined(&mut self) {
        self.stats.sessions_participated += 1;
        let open = self
            .sessions
            .values()
            .filter(|s| s.open(self.config.mode))
            .count() as u64
            + 1;
        self.stats.concurrent_peak = self.stats.concurrent_peak.max(open);
    }

    fn issue_queries(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        rules: &[Arc<crate::rule::CoordinationRule>],
        ctx: &mut Context<ProtocolMsg>,
        sn_base: &[NodeId],
        by_flood: bool,
    ) {
        let mut sn = sn_base.to_vec();
        sn.push(self.id);
        for rule in rules {
            for part in &rule.parts {
                let key = (rule.id, part.node);
                let held = !self.config.paper_faithful && self.held.contains(&key);
                let queried = !(by_flood && held);
                st.parts.insert(
                    key,
                    Part {
                        complete: false,
                        queried,
                    },
                );
                if queried {
                    self.send_query(st, sid, rule.id, part.clone(), sn.clone(), held, ctx);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_query(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        rule: RuleId,
        part: BodyPart,
        sn: Vec<NodeId>,
        resume: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.stats.queries_sent += 1;
        self.send_basic(
            st,
            ctx,
            part.node,
            ProtocolMsg::Query {
                session: sid,
                rule,
                part,
                sn,
                resume,
            },
        );
    }

    /// Queries afresh (`resume = false`) the fragment `(rule, node)` this
    /// session registered without querying: the peer turned out not to hold
    /// it. A fragment already queried, or one the session does not listen
    /// to, is left alone.
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
            self.send_query(st, sid, rule, part, vec![self.id], false, ctx);
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
            let targets: Vec<NodeId> = self.pipes.iter().copied().filter(|p| *p != from).collect();
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
        if self.void_owed && !st.upd.void_sent {
            st.upd.void_sent = true;
            let pipes: Vec<NodeId> = self.pipes.iter().copied().collect();
            self.send_basic_many(st, ctx, pipes, ProtocolMsg::CursorVoid { session: sid });
        }
        let unopened: Vec<(NodeId, RuleId)> = (self.cursors.keys().copied())
            .filter(|key| !st.subs.contains_key(key))
            .collect();
        for (to, rule) in unopened {
            let part = self.cursors[&(to, rule)].part.clone();
            let (mut sub, rows) = self.open_subscription(to, rule, part, true, ctx);
            sub.standing = true;
            if !rows.is_empty() {
                self.send_answer(st, sid, to, rule, &sub, rows, false, ctx);
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
        self.held.retain(|(_, node)| *node != from);
        let served: Vec<RuleId> = (st.parts.keys())
            .filter(|(_, node)| *node == from)
            .map(|(rule, _)| *rule)
            .collect();
        for rule in served {
            self.requery_unheld(st, sid, rule, from, ctx);
        }
    }

    /// Opens the subscription of `(to, rule)` for one session — the one
    /// path every subscription starts on: from the committed cursor when
    /// `resume` and the cursor is for this very fragment, otherwise from the
    /// fragment's full extension, voiding the cursor. Returns the
    /// subscription and the rows to ship first.
    pub(crate) fn open_subscription(
        &mut self,
        to: NodeId,
        rule: RuleId,
        part: Arc<BodyPart>,
        resume: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) -> (Subscription, Vec<Tuple>) {
        let key = (to, rule);
        let since = match self.cursors.get(&key) {
            Some(cursor) if resume && cursor.part == part => {
                Some((cursor.watermarks.clone(), cursor.rows))
            }
            _ => None,
        };
        let (rows, resumed_rows) = match &since {
            Some((watermarks, shipped)) => {
                self.stats.resumed_answers += 1;
                self.stats.rows_saved += *shipped as u64;
                let rows = self.eval_part_local(rule, &part, Some(watermarks), ctx);
                (rows, *shipped)
            }
            None => {
                // The subscriber holds nothing (any more), or asks for
                // another fragment: the cursor goes back to zero. It is
                // not removed — the subscriber may come to hold the
                // fragment through a session whose retirement this peer
                // misses (a lost broadcast), and must then still find a
                // standing subscription here, however far back it starts.
                // Logged before the answer leaves: what the subscriber comes
                // to hold must find a cursor in this peer's store too.
                if !self.config.paper_faithful {
                    self.set_cursor(key, crate::peer::Cursor::zero(part.clone()), true);
                }
                (self.eval_part_local(rule, &part, None, ctx), 0)
            }
        };
        let mut sent = RowSet::with_capacity(part.vars.len(), rows.len());
        sent.extend(rows.iter().map(|t| &t.0[..]));
        let sub = Subscription {
            watermarks: self.part_marks(&part),
            sent,
            resumed_rows,
            sent_complete: false,
            standing: false,
            part,
        };
        (sub, rows)
    }

    /// Re-evaluates a subscription's fragment — the delta since its last
    /// evaluation, or under `paper_faithful` the full extension — and moves
    /// its watermarks. Returns the evaluated rows and those among them not
    /// yet shipped in this session. A delta over relations that did not grow
    /// is empty, so it is not evaluated at all: the watermarks already read
    /// the relations' lengths, and nothing is allocated. (Public, but hidden
    /// from the docs, so that `tests/sizing_allocates_nothing.rs` can price
    /// it.)
    #[doc(hidden)]
    pub fn advance_subscription(
        &mut self,
        rule: RuleId,
        sub: &mut Subscription,
        ctx: &mut Context<ProtocolMsg>,
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        if !self.config.paper_faithful && !self.grew_past(&sub.part, &sub.watermarks) {
            return (Vec::new(), Vec::new());
        }
        let since = (!self.config.paper_faithful).then_some(&sub.watermarks);
        let rows = self.eval_part_local(rule, &sub.part, since, ctx);
        sub.watermarks = self.part_marks(&sub.part);
        let unsent = (rows.iter())
            .filter(|t| sub.sent.insert(&t.0))
            .cloned()
            .collect();
        (rows, unsent)
    }

    /// Ships `rows` on a subscription. A standing subscription marks its
    /// answers `pushed` and stays out of the completeness flags. `acks`:
    /// the answer acknowledges the `Query` it replies to, so it is no basic
    /// message and the session's deficit does not count it.
    #[allow(clippy::too_many_arguments)]
    fn send_answer(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        to: NodeId,
        rule: RuleId,
        sub: &Subscription,
        rows: Vec<Tuple>,
        acks: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.stats.answers_sent += 1;
        self.stats.acking_answers += u64::from(acks);
        self.stats.rows_shipped += rows.len() as u64;
        let payload = self.make_answer_rows(to, &sub.part, rows);
        let answer = ProtocolMsg::Answer {
            session: sid,
            rule,
            rows: payload,
            complete: sub.sent_complete,
            reopen: false,
            pushed: sub.standing,
            acks,
        };
        if acks {
            ctx.send(to, answer);
        } else {
            self.send_basic(st, ctx, to, answer);
        }
    }

    /// A4 — `Query(IDs, Q, SN)`. Answers with the fragment's full extension,
    /// or — when the subscriber says `resume` — with what changed since the
    /// standing subscription this session already opened for it, or else
    /// since the committed cursor for this very fragment. `acks`: the
    /// answer also acknowledges the query (the caller sends no `Ack`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_query(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        rule: RuleId,
        part: BodyPart,
        sn: Vec<NodeId>,
        resume: bool,
        acks: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.stats.queries_received += 1;
        self.add_pipe(from);
        // Joining via a query = A4's forwarding: our own queries extend SN.
        self.begin_session(st, sid, ctx, &sn, false);

        let key = (from, rule);
        let standing = match st.subs.remove(&key) {
            Some(sub) if sub.standing => (resume && *sub.part == part).then_some(sub),
            Some(_) => {
                self.stats.duplicate_queries += 1;
                None
            }
            None => None,
        };
        let (mut sub, rows) = match standing {
            // Not re-opened from the cursor: what the subscription pushed
            // since is on its way to the subscriber already.
            Some(mut sub) => {
                let (_, unsent) = self.advance_subscription(rule, &mut sub, ctx);
                sub.standing = false;
                (sub, unsent)
            }
            None => self.open_subscription(from, rule, Arc::new(part), resume, ctx),
        };
        sub.sent_complete = st.upd.closed;
        self.send_answer(st, sid, from, rule, &sub, rows, acks, ctx);
        st.subs.insert(key, sub);
    }

    /// A5 — `Answer(ID, QA, SN, state)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_answer(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        rule: RuleId,
        mut rows: crate::messages::AnswerRows,
        complete: bool,
        reopen: bool,
        pushed: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.stats.answers_received += 1;
        // The sender counts these symbols as known here from now on,
        // whatever becomes of the rows.
        self.absorb_dict(from, &mut rows);
        if pushed && !self.rules.contains_key(&rule) {
            // A cursor nobody listens to: the rule went away outside any
            // session the body node took part in.
            self.send_basic(
                st,
                ctx,
                from,
                ProtocolMsg::Unsubscribe { session: sid, rule },
            );
            return;
        }
        if !st.upd.active {
            if rows.rows.is_empty() {
                return;
            }
            // Data arrived for a session this peer is not (or no longer)
            // participating in — the defensive counterpart of the old
            // reopen-on-late-data path: a retired subscriber must not
            // silently drop a cascade a re-woken session pushed to it.
            // Re-join; the fresh queries rebuild fragment progress and the
            // session re-quiesces through the normal machinery.
            self.begin_session(st, sid, ctx, &[], false);
        }
        if pushed && !self.held.contains(&(rule, from)) {
            // A push continues from what the body node believes this peer
            // holds, and it does not (the rule was replaced, the peer
            // restarted, a notice of the body node's voided the mark): the
            // rows mean nothing here. What does is the full extension, in
            // this session — the body node commits its cursor past these
            // rows when the session retires.
            self.requery_unheld(st, sid, rule, from, ctx);
            return;
        }
        self.absorb_null_depths(&rows);
        let Some(part) = st.parts.get_mut(&(rule, from)) else {
            // The rule was deleted or replaced while the answer was in
            // flight.
            return;
        };
        if reopen {
            part.complete = false;
            st.upd.suppress_flag_closure = true;
            self.reopen_if_closed(st, sid, ctx);
        } else if complete {
            part.complete = true;
        }
        // Durable peers log the processed answer (rows + the answerer's
        // watermarks — the crash-resync cursor), behind the insertions it
        // derives.
        let inserted = self.absorb_fragment(rule, from, &rows.vars, &rows.rows);
        self.log_answer_mark(sid, rule, from, rows);
        if inserted > 0 {
            // New local facts: cascade to subscribers (A5's trailing
            // `foreach node ∈ π₁(owner)`).
            self.reopen_if_closed(st, sid, ctx);
            self.push_deltas(st, sid, ctx);
        }
        self.maybe_close_by_rules(st, sid, ctx);
    }

    /// Re-answers subscribers whose fragment result changed.
    ///
    /// The fragment is **delta-evaluated** from the subscription's
    /// watermarks — only bindings using facts inserted since the last answer
    /// are computed — and only rows not yet shipped in this session go out.
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
            let (rows, delta) = self.advance_subscription(rule, sub, ctx);
            // Completeness is news to a subscriber that asked; a standing
            // subscription speaks only when it has rows.
            let completeness_news = closed && !sub.sent_complete && !sub.standing;
            if delta.is_empty() && !completeness_news {
                continue;
            }
            sub.sent_complete = closed && !sub.standing;
            let ship = if faithful {
                rows
            } else {
                // What a full re-ship would have re-sent: the whole current
                // extension, approximated by what the subscription shipped.
                self.stats.delta_answers_sent += 1;
                self.stats.rows_saved += (sub.resumed_rows + sub.sent.len() - delta.len()) as u64;
                delta
            };
            self.send_answer(st, sid, to, rule, sub, ship, false, ctx);
        }
        st.subs = subs;
    }

    /// Lemma 1's `Rules` criterion: every fragment of every rule reported
    /// final data.
    pub(crate) fn maybe_close_by_rules(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if st.upd.closed
            || !st.upd.active
            || st.upd.suppress_flag_closure
            || !self.pending_resync.is_empty()
        {
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
        self.stats.reopened += 1;
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
            self.send_basic(
                st,
                ctx,
                key.0,
                ProtocolMsg::Answer {
                    session: sid,
                    rule: key.1,
                    rows: Default::default(),
                    complete: false,
                    reopen: true,
                    pushed: false,
                    acks: false,
                },
            );
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
        if !st.upd.closed && self.pending_resync.is_empty() {
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
    /// The generation counter lives in [`crate::peer::SuperState`] so it
    /// survives a post-fixpoint re-wake of the session: the re-broadcast is
    /// strictly newer than any still-in-flight copy of the original.
    pub(crate) fn broadcast_fixpoint(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.sup.fixpoint_generation += 1;
        let generation = self.sup.fixpoint_generation;
        let me = self.id;
        ctx.send_to_many(
            self.sup.all_nodes.iter().copied().filter(|n| *n != me),
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
        let parts: Vec<BodyPart> = rule.parts.clone();
        let rule_id = rule.id;
        self.install_rule(rule);
        // As `forget_rule` does for the sessions in the table (this one is
        // taken out while it is handled).
        st.parts.retain(|(r, _), _| *r != rule_id);
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
        for part in parts {
            st.parts.insert(
                (rule_id, part.node),
                Part {
                    complete: false,
                    queried: true,
                },
            );
            // `install_rule` dropped whatever the id held before.
            self.send_query(st, sid, rule_id, part, vec![self.id], false, ctx);
        }
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
        self.forget_rule(rule_id);
        if st.upd.active {
            st.upd.suppress_flag_closure = true;
            for part in &rule.parts {
                st.parts.remove(&(rule_id, part.node));
                self.send_basic(
                    st,
                    ctx,
                    part.node,
                    ProtocolMsg::Unsubscribe {
                        session: sid,
                        rule: rule_id,
                    },
                );
            }
            self.maybe_close_by_rules(st, sid, ctx);
        }
    }

    /// Body-node side of `deleteRule`: the subscription dies in every live
    /// session, not only the one the notification travelled in — one left
    /// behind would commit the cursor again when its session retires.
    pub(crate) fn on_unsubscribe(&mut self, st: &mut SessionState, from: NodeId, rule: RuleId) {
        self.plans.remove(&rule);
        st.subs.remove(&(from, rule));
        for other in self.sessions.values_mut() {
            other.subs.remove(&(from, rule));
        }
        self.drop_cursor((from, rule));
    }
}
