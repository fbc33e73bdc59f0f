//! The synchronous rounds update — the paper's "synchronous alternative"
//! (Section 1: the asynchronous model "may be faster at expense of an
//! increase of the number of messages"; this mode is the other end of that
//! trade-off).
//!
//! One round = a propagation-of-information-with-feedback (echo) wave:
//!
//! 1. the session root floods `RoundStart` along pipes, building a spanning
//!    tree (first-contact parent);
//! 2. every node issues `WaveQuery` for each of its rule fragments;
//! 3. acyclic nodes *defer* their `WaveAnswer`s until their own fragments
//!    have answered (so one wave carries data all the way up a DAG — this is
//!    what keeps tree/layered execution time linear in depth); nodes on
//!    dependency cycles answer immediately with current data (cutting the
//!    wait cycles that would otherwise deadlock);
//! 4. each node echoes to its flood parent once its fragments have answered
//!    and all its flood children have echoed, aggregating a `dirty` bit
//!    ("did anything get inserted in this subtree?");
//! 5. the root starts round *k+1* iff round *k* was dirty, else broadcasts
//!    `RoundsClosed` — the paper's fix-point, reached when a full wave
//!    produced no new data anywhere (exactly the condition its
//!    maximal-dependency-path flags certify).
//!
//! All of this is **per session**: [`RoundsState`] lives inside
//! [`crate::peer::SessionState`], so several rounds-mode sessions — one per
//! initiating root — run interleaved, each with its own round counter, echo
//! tree, wave bookkeeping and delta machinery over the shared database.
//! `RoundsClosed` retires the session's entry; the table is empty again
//! once every session certified its fix-point. (The per-peer cursors of
//! [`crate::peer`] serve eager sessions and crash recovery; a rounds
//! session's first answer to each requester is always the full extension.)
//!
//! ## Delta-driven wave answers (off under `SystemConfig::paper_faithful`)
//!
//! The paper's fix-point re-evaluates every rule body each round; shipped
//! naively, the extension of every fragment crosses the wire *every* round,
//! so bytes grow quadratically with rounds on cyclic topologies. By default
//! the protocol is **semi-naive** instead:
//!
//! * **Answer side** — a peer keeps, per session and per
//!   `(requester, rule)` subscription, the database watermarks
//!   ([`p2p_relational::Database::watermarks`]) as of its last answer *in
//!   that session*. Watermarks are session-scoped on purpose: two
//!   interleaved sessions ship independent delta streams to the same
//!   requester, and each stream's cursor must only advance with its own
//!   answers — a shared cursor would silently swallow rows from the other
//!   session's stream. The first answer of a session ships the full
//!   extension (`WaveAnswer`); every later one delta-evaluates the fragment
//!   over [`p2p_relational::Database::facts_since`] — only bindings using at
//!   least one fact inserted since the session's watermark — and ships just
//!   those rows as a [`crate::messages::ProtocolMsg::WaveAnswerDelta`].
//! * **Head side** — the head node caches each fragment's accumulated
//!   extension across rounds ([`RoundsState::wave_cache`], again per
//!   session) and merges incoming deltas into it. When all fragments of a
//!   rule have answered in a round, it applies the standard semi-naive
//!   expansion ([`crate::joins::join_parts_seminaive`]): each fragment's
//!   *delta* joined against the other fragments' cached *fulls*, union over
//!   the fragments — every binding using a new row is derived exactly once,
//!   bindings entirely over old rows were derived in an earlier round.
//!
//! Termination, the dirty-bit accounting and the echo tree are unchanged;
//! only the payloads shrink. Under `paper_faithful`, every answer re-ships
//! the full current extension — the baseline the delta mode is checked
//! against (tuple-identical final databases).

use crate::joins::{join_parts_seminaive, join_views, PartDelta, RowsView};
use crate::messages::ProtocolMsg;
use crate::peer::{DbPeer, SessionState};
use crate::rule::{BodyPart, RuleId};
use crate::stats::ClosedBy;
use p2p_net::{Context, SessionId};
use p2p_relational::Tuple;
use p2p_topology::NodeId;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// A shipped fragment extension: variable names plus rows over them.
pub type WaveRows = (Vec<Arc<str>>, Vec<Tuple>);

/// Answer-side delta subscription: what this peer remembers about the last
/// wave answer it shipped to one `(requester, rule)` within one session.
#[derive(Debug, Clone, Default)]
pub struct WaveSub {
    /// Per-relation insertion watermarks at the time of the last answer.
    pub watermarks: BTreeMap<Arc<str>, usize>,
    /// Cumulative rows shipped on this subscription (what a full re-ship
    /// would have re-sent; feeds the `rows_saved` statistic).
    pub rows_sent: u64,
}

/// Head-side per-fragment cache: the accumulated extension — across the
/// rounds of a session here, across sessions in
/// `crate::peer::DbPeer::fragments`.
#[derive(Debug, Clone, Default)]
pub struct PartCache {
    /// Column variables (fixed by the fragment).
    pub vars: Vec<Arc<str>>,
    /// Accumulated rows, in arrival order. Kept alongside `set` because the
    /// semi-naive join stages from here: iterating the `HashSet` instead
    /// would leak nondeterministic order into join output, insertion order
    /// and shipped rows — every observable order in this crate is
    /// deterministic by design.
    pub rows: Vec<Tuple>,
    /// Fast membership for `rows`.
    pub set: HashSet<Tuple>,
}

impl PartCache {
    /// Merges shipped rows into the cache, returning only the genuinely
    /// new ones (in arrival order). Sets the column variables on first
    /// contact. Keeps `rows` and `set` in lockstep — the invariant the
    /// semi-naive join's determinism rests on — so every merge site
    /// (wave answers, eager answers, resync answers, recovery priming) goes
    /// through here.
    pub fn merge(&mut self, vars: &[Arc<str>], rows: Vec<Tuple>) -> Vec<Tuple> {
        if self.vars.is_empty() {
            self.vars = vars.to_vec();
        }
        let mut fresh = Vec::new();
        for t in rows {
            if self.set.insert(t.clone()) {
                self.rows.push(t.clone());
                fresh.push(t);
            }
        }
        fresh
    }

    /// Borrows the accumulated extension for a join.
    pub fn view(&self) -> RowsView<'_> {
        RowsView {
            vars: &self.vars,
            rows: &self.rows,
        }
    }
}

/// Rounds-mode state of one update session at one peer.
#[derive(Debug, Clone, Default)]
pub struct RoundsState {
    /// The session's rounds protocol is active here.
    pub active: bool,
    /// Current round (1-based).
    pub round: u32,
    /// The round's flood reached this node.
    pub flood_seen: bool,
    /// Flood parent (None at the root).
    pub flood_parent: Option<NodeId>,
    /// Echoes still expected from pipe neighbours.
    pub pending_echoes: usize,
    /// Aggregated dirtiness of children subtrees.
    pub child_dirty: bool,
    /// Wave answers still expected for own fragments.
    pub pending_answers: usize,
    /// Facts were inserted at this node this round.
    pub dirty_self: bool,
    /// Echo already sent this round.
    pub echoed: bool,
    /// Queries deferred until own fragments answered.
    pub deferred: Vec<(NodeId, RuleId, Arc<BodyPart>)>,
    /// Fragment extensions received this round, per `(rule, body node)`:
    /// the rows *new to the cache* this round, or under `paper_faithful` the
    /// full shipped extension.
    pub wave_parts: BTreeMap<(RuleId, NodeId), WaveRows>,
    /// Answer-side delta subscriptions, per `(requester, rule)`. Survives
    /// round resets (a session-lifetime map; retired with the session).
    pub wave_subs: BTreeMap<(NodeId, RuleId), WaveSub>,
    /// Head-side fragment caches, per `(rule, body node)`. Survives round
    /// resets (a session-lifetime map; retired with the session).
    pub wave_cache: BTreeMap<(RuleId, NodeId), PartCache>,
    /// Fix-point reached.
    pub closed: bool,
    /// Total rounds executed (set at closure; at the root, running count).
    pub rounds_done: u32,
}

impl RoundsState {
    fn waves_done(&self) -> bool {
        self.pending_answers == 0
    }
}

impl DbPeer {
    /// Root: begin a rounds-mode session.
    pub(crate) fn start_rounds(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        st.rnd = RoundsState {
            active: true,
            ..Default::default()
        };
        st.retired = false;
        self.note_session_joined();
        self.start_round(st, sid, 1, ctx);
    }

    pub(crate) fn start_round(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        round: u32,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.enter_round(st, sid, round, ctx);
        st.rnd.flood_seen = true;
        st.rnd.flood_parent = None;
        st.rnd.rounds_done = round;
        // Pipes plus the full roster: components not pipe-connected to the
        // root must still participate in the wave (same rationale as the
        // eager flood's roster send).
        let mut targets: std::collections::BTreeSet<NodeId> = self.pipes.clone();
        targets.extend(self.sup.all_nodes.iter().copied());
        targets.remove(&self.id);
        st.rnd.pending_echoes = targets.len();
        ctx.send_to_many(
            targets,
            ProtocolMsg::RoundStart {
                session: sid,
                round,
            },
        );
        self.maybe_echo(st, sid, ctx);
    }

    /// Resets per-round state and issues this node's wave queries. Called on
    /// first contact with a round (flood or query, whichever arrives first).
    /// The session-scoped delta-wave maps (`wave_subs`, `wave_cache`) carry
    /// over across rounds.
    fn enter_round(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        round: u32,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if st.rnd.active && st.rnd.round >= round {
            return;
        }
        if !st.rnd.active {
            self.note_session_joined();
            st.retired = false;
        }
        self.stats.rounds += 1;
        let wave_subs = std::mem::take(&mut st.rnd.wave_subs);
        let wave_cache = std::mem::take(&mut st.rnd.wave_cache);
        st.rnd = RoundsState {
            active: true,
            round,
            closed: false,
            wave_subs,
            wave_cache,
            ..Default::default()
        };
        let rules: Vec<_> = self.rules.values().cloned().collect();
        let mut expected = 0usize;
        for rule in &rules {
            for part in &rule.parts {
                expected += 1;
                self.stats.queries_sent += 1;
                ctx.send(
                    part.node,
                    ProtocolMsg::WaveQuery {
                        session: sid,
                        round,
                        rule: rule.id,
                        part: part.clone(),
                    },
                );
            }
        }
        st.rnd.pending_answers = expected;
        // Crash recovery: give any still-unanswered resync request another
        // chance with the new round (at-least-once; see `durability`).
        self.resend_pending_resyncs(ctx);
    }

    /// Flood handler.
    pub(crate) fn on_round_start(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        round: u32,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.add_pipe(from);
        self.enter_round(st, sid, round, ctx);
        if round < st.rnd.round {
            // Stale flood from a previous round: answer so the (obsolete)
            // counter drains; the sender ignores stale echoes.
            ctx.send(
                from,
                ProtocolMsg::RoundEcho {
                    session: sid,
                    round,
                    dirty: false,
                },
            );
            return;
        }
        if !st.rnd.flood_seen {
            st.rnd.flood_seen = true;
            st.rnd.flood_parent = Some(from);
            let targets: Vec<NodeId> = self.pipes.iter().copied().filter(|p| *p != from).collect();
            st.rnd.pending_echoes = targets.len();
            ctx.send_to_many(
                targets,
                ProtocolMsg::RoundStart {
                    session: sid,
                    round,
                },
            );
            self.maybe_echo(st, sid, ctx);
        } else {
            // Duplicate contact: immediate non-child echo.
            ctx.send(
                from,
                ProtocolMsg::RoundEcho {
                    session: sid,
                    round,
                    dirty: false,
                },
            );
        }
    }

    /// Wave query handler.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_wave_query(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        round: u32,
        rule: RuleId,
        part: BodyPart,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.stats.queries_received += 1;
        self.add_pipe(from);
        self.enter_round(st, sid, round, ctx);
        if round < st.rnd.round {
            // Stale: the requester has moved past this round and
            // `on_wave_answer` will drop the payload unread, so shipping the
            // full current extension would be pure waste (and would
            // misattribute the bytes as useful traffic). Send an empty
            // acknowledgement — enough to drain the old round's counter if
            // anyone is still waiting — accounted separately.
            self.stats.stale_answers_sent += 1;
            let payload = crate::messages::AnswerRows {
                vars: part.vars.clone(),
                rows: Vec::new(),
                null_depths: Vec::new(),
                // No watermarks: a stale ack is not a processed answer and
                // must not advance anyone's resync cursor.
                marks: BTreeMap::new(),
                dict: Vec::new(),
            };
            ctx.send(
                from,
                ProtocolMsg::WaveAnswer {
                    session: sid,
                    round,
                    rule,
                    rows: payload,
                },
            );
            return;
        }
        let part = Arc::new(part);
        let defer = !self.in_cycle && !st.rnd.waves_done();
        if defer {
            st.rnd.deferred.push((from, rule, part));
        } else {
            self.answer_wave(st, sid, from, round, rule, &part, ctx);
        }
    }

    /// Ships one wave answer: a full extension on first contact (or under
    /// `paper_faithful`), a semi-naive delta afterwards.
    #[allow(clippy::too_many_arguments)]
    fn answer_wave(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        to: NodeId,
        round: u32,
        rule: RuleId,
        part: &Arc<BodyPart>,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let key = (to, rule);
        if let Some(sub) = st.rnd.wave_subs.get_mut(&key) {
            // Re-answer: only rows derived from facts inserted since the
            // last answer to this requester within this session.
            let rows = self.eval_part_delta_local(rule, part, &sub.watermarks, ctx);
            let shipped = rows.len() as u64;
            self.stats.answers_sent += 1;
            self.stats.delta_answers_sent += 1;
            self.stats.rows_shipped += shipped;
            self.stats.rows_saved += sub.rows_sent;
            sub.watermarks = self.part_marks(part);
            sub.rows_sent += shipped;
            let payload = self.make_answer_rows(to, part, rows);
            ctx.send(
                to,
                ProtocolMsg::WaveAnswerDelta {
                    session: sid,
                    round,
                    rule,
                    rows: payload,
                },
            );
            return;
        }
        let rows = self.eval_part_local(rule, part, ctx);
        self.stats.answers_sent += 1;
        self.stats.rows_shipped += rows.len() as u64;
        if !self.config.paper_faithful {
            st.rnd.wave_subs.insert(
                key,
                WaveSub {
                    watermarks: self.part_marks(part),
                    rows_sent: rows.len() as u64,
                },
            );
        }
        let payload = self.make_answer_rows(to, part, rows);
        ctx.send(
            to,
            ProtocolMsg::WaveAnswer {
                session: sid,
                round,
                rule,
                rows: payload,
            },
        );
    }

    /// Wave answer handler (both the full and the delta flavour).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_wave_answer(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        from: NodeId,
        round: u32,
        rule: RuleId,
        mut rows: crate::messages::AnswerRows,
        is_delta: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.stats.answers_received += 1;
        if !st.rnd.active || round != st.rnd.round {
            return; // Stale answer for a finished round.
        }
        self.absorb_dict(from, &mut rows);
        self.absorb_null_depths(&rows);
        // Durable peers log the processed answer (rows + the answerer's
        // watermarks — the crash-resync cursor), behind the insertions this
        // arrival derives below.
        let mark = self.answer_mark(rule, &rows);
        // A delta answer always goes through the cache, even if this peer's
        // own toggle is off (the sender's config decides the payload shape).
        let use_cache = !self.config.paper_faithful || is_delta;
        if use_cache {
            let cache = st.rnd.wave_cache.entry((rule, from)).or_default();
            let fresh = cache.merge(&rows.vars, rows.rows);
            st.rnd.wave_parts.insert((rule, from), (rows.vars, fresh));
        } else {
            st.rnd
                .wave_parts
                .insert((rule, from), (rows.vars.clone(), rows.rows));
        }
        st.rnd.pending_answers = st.rnd.pending_answers.saturating_sub(1);

        // Recompute the rule if all its fragments arrived this round.
        let arrived =
            self.rules.get(&rule).cloned().filter(|r| {
                (r.parts.iter()).all(|p| st.rnd.wave_parts.contains_key(&(rule, p.node)))
            });
        if let Some(rule_obj) = arrived {
            let bindings = if use_cache {
                // Semi-naive expansion: each fragment's delta against the
                // other fragments' accumulated fulls.
                let staged: Vec<PartDelta> = (rule_obj.parts.iter())
                    .map(|p| {
                        let cache = &st.rnd.wave_cache[&(rule, p.node)];
                        let (vars, fresh) = &st.rnd.wave_parts[&(rule, p.node)];
                        PartDelta {
                            full: cache.view(),
                            delta: RowsView { vars, rows: fresh },
                        }
                    })
                    .collect();
                join_parts_seminaive(&staged, &rule_obj.join_constraints)
            } else {
                let staged: Vec<RowsView> = (rule_obj.parts.iter())
                    .map(|p| {
                        let (vars, rows) = &st.rnd.wave_parts[&(rule, p.node)];
                        RowsView { vars, rows }
                    })
                    .collect();
                join_views(&staged, &rule_obj.join_constraints)
            };
            let inserted = self.apply_rule_bindings(&rule_obj, &bindings);
            if inserted > 0 {
                st.rnd.dirty_self = true;
            }
        }
        self.log_answer_mark(sid, rule, from, mark);

        if st.rnd.waves_done() {
            // Serve the queries we held back.
            let deferred = std::mem::take(&mut st.rnd.deferred);
            let r = st.rnd.round;
            for (to, d_rule, d_part) in deferred {
                self.answer_wave(st, sid, to, r, d_rule, &d_part, ctx);
            }
            self.maybe_echo(st, sid, ctx);
        }
    }

    /// Echo handler.
    pub(crate) fn on_round_echo(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        round: u32,
        dirty: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if !st.rnd.active || round != st.rnd.round {
            return;
        }
        st.rnd.pending_echoes = st.rnd.pending_echoes.saturating_sub(1);
        st.rnd.child_dirty |= dirty;
        self.maybe_echo(st, sid, ctx);
    }

    fn maybe_echo(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if !st.rnd.flood_seen || st.rnd.echoed || !st.rnd.waves_done() || st.rnd.pending_echoes > 0
        {
            return;
        }
        st.rnd.echoed = true;
        // An outstanding resync marks the subtree dirty: the network must
        // not certify a fix-point while a recovered peer is still waiting
        // for missed rows (a lost resync answer would otherwise close the
        // session with a silent hole). The forced next round re-sends the
        // request.
        let dirty = st.rnd.dirty_self || st.rnd.child_dirty || !self.pending_resync.is_empty();
        match st.rnd.flood_parent {
            Some(parent) => {
                ctx.send(
                    parent,
                    ProtocolMsg::RoundEcho {
                        session: sid,
                        round: st.rnd.round,
                        dirty,
                    },
                );
            }
            None => {
                // Root: the round is complete.
                if dirty {
                    let next = st.rnd.round + 1;
                    self.start_round(st, sid, next, ctx);
                } else {
                    let rounds = st.rnd.round;
                    st.rnd.closed = true;
                    st.rnd.rounds_done = rounds;
                    st.retired = true;
                    self.stats.closed_by = ClosedBy::CleanRound;
                    let me = self.id;
                    ctx.send_to_many(
                        self.sup.all_nodes.iter().copied().filter(|n| *n != me),
                        ProtocolMsg::RoundsClosed {
                            session: sid,
                            rounds,
                        },
                    );
                }
            }
        }
    }

    /// Fix-point broadcast (rounds mode): close and retire the session's
    /// state — after a clean round no wave traffic of this session is in
    /// flight, so nothing can dangle.
    pub(crate) fn on_rounds_closed(&mut self, st: &mut SessionState, rounds: u32) {
        if !st.rnd.active && !self.rules.is_empty() {
            // Disconnected component with rules: genuinely not updated.
            return;
        }
        if !self.pending_resync.is_empty() {
            // Still reconciling a crash: refuse to close (the driver sees
            // the open peer and re-drives, which re-sends the resync).
            return;
        }
        if !st.rnd.active {
            self.note_session_joined();
        }
        st.rnd.closed = true;
        st.rnd.active = true;
        st.rnd.rounds_done = rounds;
        st.retired = true;
        self.stats.closed_by = ClosedBy::CleanRound;
    }
}
