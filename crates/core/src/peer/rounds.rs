//! The synchronous rounds update — the paper's "synchronous alternative"
//! (Section 1: the asynchronous model "may be faster at expense of an
//! increase of the number of messages"; this mode is the other end of that
//! trade-off).
//!
//! One round = a propagation-of-information-with-feedback (echo) wave:
//!
//! 1. the session root floods `RoundStart` along pipes, building a spanning
//!    tree (first-contact parent);
//! 2. every node sends a `Query` of the round ([`Via::Round`]) for each of
//!    its rule fragments;
//! 3. acyclic nodes *defer* their `Answer`s until their own fragments
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
//! The wave bookkeeping is **per session**: `RoundsState` lives inside
//! `crate::peer::SessionState`, so several rounds-mode sessions — one per
//! initiating root — run interleaved, each with its own round counter and
//! echo tree over the shared database. `RoundsClosed` retires the session's
//! entry; the table is empty again once every session certified its
//! fix-point.
//!
//! ## Delta-driven wave answers (off under `SystemConfig::paper_faithful`)
//!
//! The paper's fix-point re-evaluates every rule body each round; shipped
//! naively, the extension of every fragment crosses the wire *every* round,
//! so bytes grow quadratically with rounds on cyclic topologies. By default
//! the protocol is **semi-naive** instead, on the tables an eager session
//! uses (see [`crate::peer`]): waves decide *when* a body node answers, the
//! subscriptions and their cursors decide *what* it ships.
//!
//! * **Answer side** — a round's query is served as an eager one is
//!   (`DbPeer::answer_query`), from the session's subscription of
//!   `(requester, rule)`: opened from the committed cursor or the full
//!   extension, then advanced by every later `resume` query — the rows not
//!   yet sent in this session, delta-evaluated from its watermarks. Two
//!   interleaved sessions keep two subscriptions, so each delta stream
//!   advances with its own answers only.
//! * **Head side** — every arriving answer goes through
//!   `DbPeer::absorb_fragment`, as an eager one does: its rows merge into
//!   what the peer retains of the fragment (`Subscriptions::absorb`, for
//!   rules with more than one body node), and only bindings that use a new
//!   row are chased. The rows are applied whatever round they belong to — they
//!   are rows of the fragment either way; only the round's bookkeeping
//!   ignores a stale answer.
//! * **`resume`** — a head says it when it holds everything the
//!   subscription shipped it: on the session's first query, a fragment a
//!   retired session committed as held; on a later one, a fragment whose
//!   answer arrived in the round before. A fragment whose answer a round
//!   missed (dropped, or lost with a crashed peer) is asked without
//!   `resume`, and the body node starts its subscription over.
//! * **Commit** — `RoundsClosed` retires the session as `Fixpoint` retires
//!   an eager one: the body node commits each subscription as its cursor,
//!   the head each fragment as held (`Subscriptions::commit`). The
//!   clean round before it delivered every head its last answers, so no
//!   cursor is ahead of what its head holds, and the next session resumes
//!   from there: it ships what changed since, not the extensions again.
//!
//! Termination, the dirty-bit accounting and the echo tree are unchanged;
//! only the payloads shrink. Under `paper_faithful` no head says `resume`,
//! every answer re-evaluates and re-ships the full current extension, and no
//! cursor is kept — the baseline the delta mode is checked against
//! (tuple-identical final databases).

use crate::messages::{Answer, AnswerRows, ProtocolMsg, Query, Start, Via};
use crate::peer::{DbPeer, Part, SessionState};
use crate::rule::RuleId;
use crate::stats::ClosedBy;
use p2p_net::{Context, SessionId};
use p2p_topology::NodeId;
use std::collections::BTreeSet;

/// Rounds-mode state of one update session at one peer.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundsState {
    /// The session's rounds protocol is active here.
    pub(crate) active: bool,
    /// Current round (1-based).
    pub(crate) round: u32,
    /// The round's flood reached this node.
    pub(crate) flood_seen: bool,
    /// Flood parent (None at the root).
    pub(crate) flood_parent: Option<NodeId>,
    /// Echoes still expected from pipe neighbours.
    pub(crate) pending_echoes: usize,
    /// Aggregated dirtiness of children subtrees.
    pub(crate) child_dirty: bool,
    /// Own fragments, per `(rule, body node)`, whose answer this round still
    /// awaits. What is left when the peer moves to a later round missed its
    /// answer.
    pub(crate) awaiting: BTreeSet<(RuleId, NodeId)>,
    /// Facts were inserted at this node this round.
    pub(crate) dirty_self: bool,
    /// Echo already sent this round.
    pub(crate) echoed: bool,
    /// Queries deferred until own fragments answered, with their askers.
    pub(crate) deferred: Vec<(NodeId, Query)>,
    /// Fix-point reached.
    pub(crate) closed: bool,
    /// Total rounds executed (set at closure; at the root, running count).
    pub(crate) rounds_done: u32,
}

/// A session's [`RoundsState`], held out of line: an eager session never
/// writes it and reads the idle state, so its entry in the session table
/// carries a pointer, not the whole state; the first write allocates it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundsSlot(Option<Box<RoundsState>>);

/// What a session that never ran a round reads.
static IDLE: RoundsState = RoundsState {
    active: false,
    round: 0,
    flood_seen: false,
    flood_parent: None,
    pending_echoes: 0,
    child_dirty: false,
    awaiting: BTreeSet::new(),
    dirty_self: false,
    echoed: false,
    deferred: Vec::new(),
    closed: false,
    rounds_done: 0,
};

impl std::ops::Deref for RoundsSlot {
    type Target = RoundsState;

    fn deref(&self) -> &RoundsState {
        self.0.as_deref().unwrap_or(&IDLE)
    }
}

impl std::ops::DerefMut for RoundsSlot {
    fn deref_mut(&mut self) -> &mut RoundsState {
        self.0.get_or_insert_with(Box::default)
    }
}

/// The echo of a subtree with nothing to report in `round`: a stale or
/// duplicate flood, or one of a session this peer is done with.
pub(crate) fn clean_echo(session: SessionId, round: u32) -> ProtocolMsg {
    ProtocolMsg::RoundEcho {
        session,
        round,
        dirty: false,
    }
}

impl DbPeer {
    /// Root: begin round `round` of the session — its first, the next after
    /// a dirty one, or one a stalled session is resumed at
    /// (`ProtocolMsg::ResumeRounds`).
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
        let mut targets: BTreeSet<NodeId> = self.pipes.nodes.clone();
        targets.extend(self.sessions.others(self.id));
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
    /// Each query says `resume` when this peer holds everything its
    /// fragment's subscription shipped it (module docs).
    pub(crate) fn enter_round(
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
        let missed = std::mem::take(&mut st.rnd.awaiting);
        *st.rnd = RoundsState {
            active: true,
            round,
            ..Default::default()
        };
        let rules: Vec<_> = self.rules.values().cloned().collect();
        for rule in &rules {
            for part in &rule.parts {
                let key = (rule.id, part.node);
                let resume = !self.config.paper_faithful
                    && match st.parts.get(&key) {
                        Some(_) => !missed.contains(&key),
                        None => self.subscriptions.holds(key),
                    };
                let asked = Part {
                    complete: false,
                    queried: true,
                };
                st.parts.insert(key, asked);
                st.rnd.awaiting.insert(key);
                let from = if resume { Start::Resume } else { Start::Fresh };
                let query = Query::new(sid, rule.id, part.clone(), from, Via::Round(round));
                self.send_query(st, ctx, query);
            }
        }
        // Crash recovery: give any still-unanswered repair query another
        // chance with the new round (at-least-once; see `durability`).
        self.subscriptions.resend(&self.rules, ctx);
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
        if round < st.rnd.round || st.rnd.flood_seen {
            // A stale flood from a previous round (its sender ignores the
            // echo), or a duplicate contact: a non-child echo.
            ctx.send(from, clean_echo(sid, round));
            return;
        }
        st.rnd.flood_seen = true;
        st.rnd.flood_parent = Some(from);
        let pipes = self.pipes.nodes.iter().copied();
        let targets: Vec<NodeId> = pipes.filter(|p| *p != from).collect();
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

    /// The stale branch of a round's query: its round or its session is
    /// over here — a late query, or one of a head in a session resumed after
    /// this peer retired it — and it is answered without taking part again.
    /// A requester that holds everything it was shipped (`Resume`) gets an
    /// empty acknowledgement, enough to drain its round's counter, counted
    /// apart from the useful answers; no watermarks ride along, as it must
    /// not advance anyone's resync cursor. One that asked afresh gets the
    /// full extension it asked for.
    pub(crate) fn answer_stale(
        &mut self,
        sid: SessionId,
        to: NodeId,
        query: Query,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let rows = if query.from == Start::Resume {
            self.stats.stale_answers_sent += 1;
            AnswerRows {
                vars: query.part.vars.clone(),
                ..Default::default()
            }
        } else {
            let rows = self.eval_part_local(&query.part, None, ctx);
            self.stats.answers_sent += 1;
            self.stats.rows_shipped += rows.len() as u64;
            self.make_answer_rows(to, &query.part, rows)
        };
        let answer = Answer::new(sid, query.rule, rows, query.via);
        ctx.send(to, ProtocolMsg::Answer(answer));
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

    pub(crate) fn maybe_echo(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if !st.rnd.flood_seen
            || st.rnd.echoed
            || !st.rnd.awaiting.is_empty()
            || st.rnd.pending_echoes > 0
        {
            return;
        }
        st.rnd.echoed = true;
        // An outstanding resync marks the subtree dirty: the network must
        // not certify a fix-point while a recovered peer is still waiting
        // for missed rows (a lost resync answer would otherwise close the
        // session with a silent hole). The forced next round re-sends the
        // request.
        let dirty = st.rnd.dirty_self || st.rnd.child_dirty || self.subscriptions.resyncing();
        let round = st.rnd.round;
        match st.rnd.flood_parent {
            Some(parent) => {
                ctx.send(
                    parent,
                    ProtocolMsg::RoundEcho {
                        session: sid,
                        round,
                        dirty,
                    },
                );
            }
            // Root: the round is complete.
            None if dirty => self.start_round(st, sid, round + 1, ctx),
            None => {
                self.close_rounds(st, round);
                ctx.send_to_many(
                    self.sessions.others(self.id),
                    ProtocolMsg::RoundsClosed {
                        session: sid,
                        rounds: round,
                    },
                );
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
        if self.subscriptions.resyncing() {
            // Still reconciling a crash: refuse to close (the driver sees
            // the open peer and re-drives, which re-sends the resync).
            return;
        }
        if !st.rnd.active {
            self.note_session_joined();
            st.rnd.active = true;
        }
        self.close_rounds(st, rounds);
    }

    /// The session's fix-point, here, after `rounds` rounds: closed and
    /// retired, which commits what it shipped and was shipped.
    fn close_rounds(&mut self, st: &mut SessionState, rounds: u32) {
        st.rnd.closed = true;
        st.rnd.rounds_done = rounds;
        st.retired = true;
        self.stats.closed_by = ClosedBy::CleanRound;
    }
}
