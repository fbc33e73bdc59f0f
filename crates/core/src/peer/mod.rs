//! The peer state machine.
//!
//! One [`DbPeer`] per node implements `p2p_net::Peer<ProtocolMsg>` and runs
//! every protocol of the paper:
//!
//! * topology discovery (algorithms A1–A3) — `discovery`;
//! * the eager (asynchronous) distributed update (A4–A6 with
//!   subscription-based re-answering and Dijkstra–Scholten termination) —
//!   `eager`;
//! * the synchronous rounds update (the paper's "synchronous alternative")
//!   — `rounds`;
//! * super-peer duties (driving, dynamic changes, statistics collection,
//!   rule-file broadcast — Section 5) — `superpeer`;
//! * durable peers: WAL logging, crash recovery from storage, and the
//!   watermark-based resync protocol — `durability`.
//!
//! ## Concurrent update sessions
//!
//! The update session is a first-class object: every session-tagged message
//! carries a [`SessionId`] `(root, epoch)` and is routed to that session's
//! entry in the peer's session table (`Sessions`). Any number of sessions —
//! initiated by any nodes — run interleaved. Entries are **retired** when
//! the session's terminal broadcast lands (`Fixpoint` in eager mode,
//! `RoundsClosed` in rounds mode) — the table must be empty again after
//! every session reaches its fix-point, so interleaving leaks no state. A
//! message of a newer same-root session retires any stranded state of older
//! epochs (the churn-redrive path).
//!
//! ## What is per session and what is per peer
//!
//! **Per session** (`SessionState`) is what decides when *this* diffusing
//! computation is over, and what is still in flight within it: the closure
//! flags, which fragments the session listens to and which of them it
//! queried, the session's own Dijkstra–Scholten detector, rounds mode's echo
//! tree and round counter, and each served subscription's not yet committed
//! watermarks and count of rows shipped. Both update modes keep the last two
//! in the same tables (`SessionState::parts`, `SessionState::subs`).
//!
//! **Per peer** (`Subscriptions`) is what a session leaves behind for the
//! next one, under either mode, so that a session costs what changed, not
//! what exists:
//!
//! * body side, the cursors — per `(subscriber, rule)`, the watermarks up
//!   to which that subscriber holds the fragment's extension, fingerprinted
//!   by the fragment. It exists from the first subscription on (at zero:
//!   "holds nothing"), and it **is** the subscription between sessions;
//! * head side, the `held` marks — the `(rule, body node)` fragments this
//!   peer holds everything it was shipped of — and, for rules with more
//!   than one body node only, the retained fragment rows: the accumulated
//!   extension the other fragments' deltas are joined against. A
//!   single-fragment rule chases each delta into the database and keeps
//!   nothing.
//!
//! **Both ends commit only when the session that carried the rows retires**
//! (`Sessions::finish`, then `Subscriptions::commit`), never at send or
//! receive time: the
//! body node its cursor, the head its `held` mark — and only for a fragment
//! that session *queried*. The terminal broadcast certifies that every
//! answer of the session was applied: an eager `Fixpoint` follows
//! Dijkstra–Scholten termination, which guarantees every query, answer and
//! notice was delivered; a `RoundsClosed` follows a clean round, in which
//! every head took its last answers in, after asking afresh for any
//! fragment whose answer an earlier round missed (`rounds`). A dropped
//! message or a stranded, re-driven epoch therefore re-ships from the last
//! committed point. Sound because the fix-point is monotone: a tuple
//! derived at the head stays derived, so shipping it again is pure cost —
//! and an answer with nothing new changes nothing, so not sending it is
//! sound too, provided silence is never ambiguous.
//!
//! ## One query, one answer
//!
//! Every request for a fragment is a [`ProtocolMsg::Query`], every reply an
//! [`ProtocolMsg::Answer`]. A query says where evaluation starts
//! ([`crate::messages::Start`]: from scratch, the committed cursor, or a
//! restarted head's claim; `DbPeer::eval_from` decides), and both say which
//! exchange they belong to ([`crate::messages::Via`]): an eager session,
//! round *k*, or a repair. A rounds session asks every fragment every round
//! — the wave is its schedule — from the same subscriptions; everything
//! below about standing subscriptions, notices and pushes is eager mode's.
//!
//! ## The subscription outlives the session
//!
//! Under the default configuration ([`SystemConfig::paper_faithful`] off,
//! eager mode) a global session says only what the cursors do not already
//! mean. The root sends the start request once, to every rostered node,
//! and nobody forwards it. When it arrives (and at the root when the
//! session starts):
//!
//! * a **body node** opens one *standing* subscription per committed cursor
//!   — through the same code a `Query { resume }` runs — delta-evaluates
//!   from the cursor and sends an `Answer`, marked `pushed`, only if rows
//!   came out. A standing subscription never sends a completeness-only
//!   answer;
//! * a **head** sends a `Query` only for the fragments it does not hold,
//!   and listens to the others. It closes by the root's `Fixpoint`.
//!
//! A node that joins any other way — a `Query` reached it first, a late
//! answer or a rule change re-woke it, a query-dependent update — cannot
//! know a flood is coming and asks for every fragment with
//! `Query { resume }`, as the paper's A4 does; a `resume` query that meets
//! the standing subscription already opened for it is answered from that
//! subscription's state.
//!
//! Four rules keep silence unambiguous; each is a method of `Subscriptions`
//! (named in brackets), and no other code touches what they guard:
//!
//! 1. **A body node that discards cursors unasked says so.** A peer that
//!    restarts and cannot vouch for the cursors it served — it has no
//!    store, its store does not read back, or a recovered cursor counts
//!    rows the recovered database does not have — and a peer that adopts a
//!    rule-file broadcast owe every pipe neighbour a
//!    [`ProtocolMsg::CursorVoid`], sent with the first flood they see. The
//!    notice is a *basic* message: lost, it is never acknowledged, the
//!    session cannot terminate and is re-driven. The debt is cleared only
//!    when a session that carried the notice retires. The receiver stops
//!    holding the sender's fragments and queries them afresh in that same
//!    session. A durable peer whose store gives its cursors back discards
//!    nothing and owes nothing. The debt itself is not stored: a restart
//!    re-derives it from what the store gives back. The one debt that does
//!    not come back that way is a broadcast's — the store holds the
//!    removals, not that nobody asked for them — and the broadcast covers
//!    it: it reaches every rostered peer, which drops its own `held` marks.
//!    (`discard` at a crash, an amnesiac restart or a broadcast; `recover`;
//!    `owes_notice`; `commit` clears the debt; `voided_by` at the receiver.)
//! 2. **A push is only as good as the head's `held` mark.** A head does not
//!    apply a `pushed` answer for a fragment it does not hold (the rule was
//!    replaced, the head restarted and its resync is not through, a notice
//!    voided the mark): it makes sure the session queries the fragment in
//!    full, and where it no longer has the rule at all it answers
//!    `Unsubscribe`, so the orphaned cursor dies. (`admit_push`.)
//! 3. **A cursor that is reset is not removed.** Opening a subscription
//!    from scratch leaves a zero cursor behind, so a head that comes to
//!    hold the fragment through a session whose retirement the body node
//!    missed (a lost broadcast) still finds a standing subscription — one
//!    that ships everything, once. A repair of a fragment this peer has no
//!    cursor for leaves one too, for the same reason. (`start`.)
//! 4. **Everything else that discards, the head asked for** and therefore
//!    knows: `AddRule` / [`DbPeer::install_rule`] and `DeleteRule` drop the
//!    rule's `held` marks, fragments and durable answer marks — and the
//!    rule's entries in every live session's `parts`, so an answer still in
//!    flight on a subscription opened before the change is neither applied
//!    nor lets that session commit the fragment as held; `Unsubscribe`
//!    kills the cursor and the subscription in every live session; a
//!    `Query` without `resume` or for another fragment resets the cursor
//!    to zero; a crash clears the head side, and the restarted head holds
//!    a fragment again only when it has absorbed the answer to its repair
//!    query — which discards nothing at the body node: the answer starts no
//!    later than the cursor, and the cursor stays. (`forget_rule`, with
//!    `Sessions::forget_rule` for every live session; `unsubscribe`.)
//!
//! One invariant carries all of this across a restart of either end: **for
//! every fragment a head holds, its body node's store has a cursor — for
//! that very fragment — no further than what the head holds.** It is
//! established where a subscription starts (the zero cursor is logged
//! before the first answer leaves), kept where it moves (a cursor advances,
//! in memory and then in the store, only behind Dijkstra–Scholten
//! termination of a session whose answers the head applied and, durable
//! itself, logged before acknowledging them; every step back — a reset, a
//! removal — is logged as it happens), and used where a peer comes back
//! (see `durability`): the body node resumes from its store, the head
//! from its log plus one delta, and the next session ships what was at
//! risk. `P2PSystem::check_subscriptions` checks it, and the per-peer rules
//! (`Subscriptions::check`), on the rows themselves.
//!
//! ## A reply carries its request's acknowledgement
//!
//! A `Query` that reaches a peer already engaged in its session's
//! Dijkstra–Scholten tree is acknowledged at once, and the `Answer` to it
//! leaves the same handler for the same peer: that answer says both
//! (`Answer { acks: true }`), and no `Ack` is sent. Being an
//! acknowledgement, the answer is no basic message itself: the answerer
//! does not count it, and the querier sends no `Ack` for it — not even
//! when its session is stale or retired there. The querier's deficit counts
//! the query until the answer arrives, so the querier and its parent chain
//! up to the root stay engaged while the answer is in flight; a lost answer
//! stalls the querier, and the session is re-driven, as any lost message
//! makes it. The querier handles the answer in full, its own sends counted,
//! and only then debits its deficit. A querier that lost its counters in a
//! crash engages on the answer without a parent and owes nobody an `Ack`.
//!
//! A `Query` that engages its receiver keeps its deferred `Ack`, and its
//! answer is an ordinary basic message: were that answer lost while the
//! `Ack` arrived, the session could close without the answer's rows.
//!
//! Under [`SystemConfig::paper_faithful`] none of this happens: the start
//! request is forwarded along every pipe, every session asks for every
//! fragment, every answer is the full extension, every basic message has an
//! `Ack` of its own, no cursor is kept — the paper's protocol, message for
//! message.
//!
//! Handlers are atomic; all cross-node effects go through the runtime
//! context, and every observable iteration order is deterministic.

pub(crate) mod catalog;
pub(crate) mod discovery;
pub(crate) mod durability;
pub(crate) mod eager;
pub(crate) mod rounds;
mod sessions;
mod subscriptions;
pub(crate) mod superpeer;
pub(crate) mod tables;

use crate::config::{SystemConfig, UpdateMode};
use crate::messages::{AnswerRows, ProtocolMsg, Via};
use crate::rule::{CoordinationRule, RuleId};
use crate::stats::PeerStats;
use crate::termination::{AckDecision, Disengage};
use catalog::Compiled;
use durability::Durable;
use p2p_net::{Context, Peer, SessionId, SimTime};
use p2p_relational::chase::{ChaseConfig, ChaseOutcome, ChaseState};
use p2p_relational::fxhash::FxHashSet;
use p2p_relational::{ConstCatalog, Database, NullFactory, RowSet, SymId, Val};
use p2p_topology::NodeId;
use sessions::Sessions;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use subscriptions::Subscriptions;

/// Virtual processing time charged per fragment row a handler evaluates:
/// models query processing and drives the execution-time axis of the
/// experiments.
pub(crate) const COST_PER_TUPLE: SimTime = SimTime(10);

/// Virtual processing time charged per handled message.
pub(crate) const COST_PER_MESSAGE: SimTime = SimTime(50);

pub(crate) use crate::messages::Marks;

pub(crate) use discovery::DiscoveryState;
pub use eager::Subscription;
pub(crate) use eager::{EagerState, Part};
pub(crate) use rounds::RoundsSlot;
pub(crate) use sessions::SessionState;
pub use subscriptions::SeededFault;
pub(crate) use tables::VecMap;

/// The chase's state at one peer: the fresh-null mint for existential head
/// variables and the chase bookkeeping (null depths, per-row buffers).
/// Reset together at a crash, written together into a checkpoint, and
/// taken back together from a store.
#[derive(Debug)]
pub(crate) struct Nulls {
    pub(crate) mint: NullFactory,
    pub(crate) chase: ChaseState,
}

impl Nulls {
    fn new(node: NodeId) -> Self {
        Nulls {
            mint: NullFactory::new(node.0),
            chase: ChaseState::new(),
        }
    }
}

/// Per-pipe state: the neighbours, and what each is known to know of the
/// dictionary.
#[derive(Debug, Default)]
pub(crate) struct Pipes {
    /// Pipe neighbours (rule sources *and* rule targets, Section 5). Static
    /// configuration: a crash keeps them, a rule-file broadcast recomputes
    /// them.
    pub(crate) nodes: BTreeSet<NodeId>,
    /// The interned symbols each neighbour is known to know (we shipped
    /// them a definition, or they shipped us one). Drives the first-use
    /// dictionary deltas in [`DbPeer::make_answer_rows`] — each constant
    /// string crosses each pipe at most once. Volatile: a crash forgets it
    /// and later answers conservatively re-ship.
    pub(crate) known: VecMap<NodeId, FxHashSet<SymId>>,
}

/// A database peer: local database, coordination rules targeting it, and
/// all protocol state.
#[derive(Debug)]
pub struct DbPeer {
    /// This node's id.
    pub(crate) id: NodeId,
    /// Run configuration (shared across the network).
    pub(crate) config: SystemConfig,
    /// The local database (`LDB`).
    pub(crate) db: Database,
    /// Fresh-null mint and chase bookkeeping.
    pub(crate) nulls: Nulls,
    /// Coordination rules whose head is this node (the paper: "initially
    /// each node knows all rules of which it is a target"). Shared, so a
    /// handler that needs a rule while it mutates the peer holds a refcount,
    /// not a copy.
    pub(crate) rules: BTreeMap<RuleId, Arc<CoordinationRule>>,
    /// Compiled plans and heads, taken from the system's catalog
    /// ([`catalog`]).
    pub(crate) compiled: Compiled,
    /// What outlives a session on both ends of every subscription —
    /// cursors, held fragments, retained fragment rows, the cursor-void
    /// debt, repairs under way — and the four rules that keep silence
    /// unambiguous ([`subscriptions`]).
    pub(crate) subscriptions: Subscriptions,
    /// Pipe neighbours and per-pipe dictionary state.
    pub(crate) pipes: Pipes,
    /// Whether this node lies on a dependency cycle (used by rounds mode to
    /// decide deferred vs. immediate wave answers; `true` is always safe).
    pub(crate) in_cycle: bool,
    /// Statistics module counters.
    pub(crate) stats: PeerStats,
    /// Discovery protocol state.
    pub(crate) disc: DiscoveryState,
    /// Per-session protocol state, the sessions retired here and the
    /// super-peer's driver state ([`sessions`]).
    pub(crate) sessions: Sessions,
    /// Errors recorded during handlers (runtime handlers cannot return
    /// `Result`; the system driver surfaces these after the run).
    pub(crate) errors: Vec<String>,
    /// Durable store (WAL + snapshots) when `SystemConfig::durability` is
    /// on; `None` = the amnesia baseline, where a crash loses everything.
    /// Boxed, so a peer without one pays a pointer, not the store's size.
    pub(crate) storage: Option<Box<Durable>>,
}

impl DbPeer {
    /// Creates a peer.
    pub fn new(id: NodeId, db: Database, config: SystemConfig) -> Self {
        DbPeer {
            id,
            config,
            db,
            nulls: Nulls::new(id),
            rules: BTreeMap::new(),
            compiled: Compiled::default(),
            subscriptions: Subscriptions::default(),
            pipes: Pipes::default(),
            in_cycle: true,
            stats: PeerStats::default(),
            disc: DiscoveryState::default(),
            sessions: Sessions::default(),
            errors: Vec::new(),
            storage: None,
        }
    }

    /// Marks this node as the designated super-peer (any node may root a
    /// session; the super-peer additionally answers driver commands like
    /// statistics collection and rule broadcast).
    pub(crate) fn make_super(&mut self, all_nodes: impl Into<Arc<[NodeId]>>) {
        self.sessions.set_roster(all_nodes.into(), true);
    }

    /// Installs the node roster. The roster is `Arc`-shared: the system
    /// builder hands every peer the same allocation, so building n peers
    /// costs n refcounts, not n copies of an n-entry list.
    pub(crate) fn set_roster(&mut self, all_nodes: impl Into<Arc<[NodeId]>>) {
        self.sessions.set_roster(all_nodes.into(), false);
    }

    /// Installs a rule with head at this node. Whatever was cached under
    /// the id is invalidated (`AddRule` may replace a rule's body); what a
    /// durable peer records for that commits with the running delivery, or
    /// — called from outside one — at the caller's `DbPeer::commit`.
    pub fn install_rule(&mut self, rule: impl Into<Arc<CoordinationRule>>) {
        self.replace_rule(rule.into(), None);
    }

    /// [`DbPeer::install_rule`], with `handled` the session taken out of
    /// the table while its `AddRule` is handled.
    pub(crate) fn replace_rule(
        &mut self,
        rule: Arc<CoordinationRule>,
        handled: Option<&mut SessionState>,
    ) {
        debug_assert_eq!(rule.head_node, self.id);
        for p in &rule.parts {
            self.pipes.nodes.insert(p.node);
        }
        self.forget_rule(rule.id, handled);
        self.rules.insert(rule.id, rule);
    }

    /// Drops what this peer kept for a rule as its head: the retained
    /// fragment state — in the store too, where the answer marks logged
    /// for the rule would otherwise prime the next restart with another
    /// rule's rows and watermarks — so the next `Query` of each fragment
    /// goes out without `resume`. The live
    /// sessions (`handled` among them) forget that they queried the rule,
    /// and a resync under way that it was asked for: what their
    /// subscriptions still deliver belongs to the state just dropped.
    pub(crate) fn forget_rule(&mut self, rule: RuleId, handled: Option<&mut SessionState>) {
        self.log_forget_rule(rule);
        self.subscriptions.forget_rule(rule);
        self.sessions.forget_rule(rule, handled);
    }

    /// Corrupts the subscription state as `fault` describes.
    #[doc(hidden)]
    pub(crate) fn seed_fault(&mut self, fault: SeededFault) {
        self.subscriptions.seed_fault(fault, &self.rules, &self.db);
    }

    /// Registers a pipe neighbour (rule sources learn their targets when the
    /// target opens the pipe).
    pub(crate) fn add_pipe(&mut self, neighbor: NodeId) {
        if neighbor != self.id {
            self.pipes.nodes.insert(neighbor);
        }
    }

    /// Sets the cyclicity hint: whether this node lies on a dependency
    /// cycle (rounds mode uses it to choose deferred vs. immediate wave
    /// answers; `true` is always safe).
    pub(crate) fn set_cycle_hint(&mut self, in_cycle: bool) {
        self.in_cycle = in_cycle;
    }

    // ----------------------------------------------------------------
    // Read accessors (assertions, reports, baselines)
    // ----------------------------------------------------------------

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The local database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable database access (workload seeding).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Statistics counters.
    pub fn stats(&self) -> &PeerStats {
        &self.stats
    }

    /// `state_u == closed`, summarised over sessions: every session this
    /// peer is currently participating in has closed — or, with no live
    /// participation, at least one session completed here. A peer that
    /// never saw any session (or whose sessions are stranded open) reads
    /// `false`.
    pub fn update_closed(&self) -> bool {
        let joined: Vec<&SessionState> = self.sessions.live().filter(|st| st.joined()).collect();
        if joined.is_empty() {
            self.sessions.len().1 > 0
        } else {
            joined.iter().all(|st| st.closed(self.config.mode))
        }
    }

    /// Whether one specific session reached closure at this peer: a live
    /// entry that closed, or a retired one. Peers with rules that were
    /// never reached by the session read `false` (Lemma 1: closed ⇔
    /// fix-point reached *here*).
    pub fn session_closed(&self, sid: SessionId) -> bool {
        match self.sessions.get(sid) {
            Some(st) => st.joined() && st.closed(self.config.mode),
            None => self.sessions.completed(sid).is_some(),
        }
    }

    /// Rounds executed for one session at this peer (0 in eager mode or if
    /// unknown).
    pub(crate) fn session_rounds(&self, sid: SessionId) -> u32 {
        match self.sessions.get(sid) {
            Some(st) => st.rnd.rounds_done,
            None => self.sessions.completed(sid).unwrap_or(0),
        }
    }

    /// The current round of one session (rounds-mode redrive probe).
    pub(crate) fn session_round(&self, sid: SessionId) -> u32 {
        self.sessions.get(sid).map(|st| st.rnd.round).unwrap_or(0)
    }

    /// Live session-table entries. The retirement invariant every test can
    /// lean on: after all sessions reach their fix-point, this is 0 — no
    /// leaked `DiffusingState`, subscriptions or wave state.
    pub fn session_table_len(&self) -> usize {
        self.sessions.len().0
    }

    /// Entries of the two per-peer tables that outlive sessions: committed
    /// subscription cursors and held rule fragments. Bounded by rules ×
    /// neighbours, whatever the number of sessions.
    pub fn retained_entries(&self) -> (usize, usize) {
        self.subscriptions.retained_entries()
    }

    /// Fragment rows retained across sessions (rules with more than one
    /// body node only).
    pub fn retained_rows(&self) -> usize {
        self.subscriptions.retained_rows()
    }

    /// Sessions that completed and retired at this peer.
    pub fn sessions_done(&self) -> usize {
        self.sessions.len().1
    }

    /// `state_d == closed`.
    pub(crate) fn discovery_closed(&self) -> bool {
        self.disc.state_closed
    }

    /// Whether this node participated in a discovery at all (nodes outside
    /// the initiating owner's dependency-reachable region never do — the
    /// paper's single-owner discovery has exactly this footprint).
    pub(crate) fn discovery_started(&self) -> bool {
        self.disc.started
    }

    /// Maximal dependency paths learned in discovery (None before closure).
    pub fn paths(&self) -> Option<&[Vec<NodeId>]> {
        self.disc.paths.as_deref()
    }

    /// Dependency edges learned in discovery.
    pub fn known_edges(&self) -> &BTreeSet<(NodeId, NodeId)> {
        &self.disc.edges
    }

    /// Errors recorded while running.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    // ----------------------------------------------------------------
    // Shared helpers
    // ----------------------------------------------------------------

    /// Records a handler-side error.
    pub(crate) fn fail(&mut self, err: impl ToString) {
        self.errors.push(err.to_string());
    }

    /// Dependency edges induced by this node's own rules.
    pub(crate) fn own_edges(&self) -> BTreeSet<(NodeId, NodeId)> {
        self.rules
            .values()
            .flat_map(|r| r.parts.iter().map(|p| (self.id, p.node)))
            .collect()
    }

    /// Distinct body nodes of this node's rules (its dependency successors).
    pub(crate) fn successors(&self) -> BTreeSet<NodeId> {
        self.rules
            .values()
            .flat_map(|r| r.parts.iter().map(|p| p.node))
            .collect()
    }

    /// Evaluates one fragment over the local database through the compiled
    /// body it holds — in full, or `since` some watermarks: only the rows
    /// derived from facts inserted past them — with statistics and
    /// processing-cost accounting.
    pub(crate) fn eval_part_local(
        &mut self,
        part: &crate::rule::BodyPart,
        since: Option<&Marks>,
        ctx: &mut Context<ProtocolMsg>,
    ) -> RowSet {
        self.stats.local_evaluations += 1;
        match self.eval_part_rows(part, since) {
            Ok(rows) => {
                let cost = p2p_net::SimTime(COST_PER_TUPLE.as_micros() * rows.len() as u64);
                ctx.charge(cost);
                rows
            }
            Err(e) => {
                self.fail(format!("fragment evaluation failed: {e}"));
                RowSet::new(part.vars.len())
            }
        }
    }

    /// The compiled path of [`DbPeer::eval_part_local`]: take the
    /// fragment's [`crate::joins::CompiledBody`] (from the catalog at the
    /// first evaluation), create the persistent indexes the executed plans
    /// probe where missing, execute, and fold the work counters into
    /// [`PeerStats`]. `watermarks: None` is full evaluation; `Some(w)` the
    /// semi-naive delta.
    fn eval_part_rows(
        &mut self,
        part: &crate::rule::BodyPart,
        watermarks: Option<&Marks>,
    ) -> crate::error::CoreResult<RowSet> {
        // Disjoint field borrows: the plan is read while the database is
        // mutably borrowed (index creation only).
        let DbPeer {
            compiled,
            db,
            stats,
            ..
        } = self;
        let body = compiled.body(part, db, watermarks, &mut stats.plan_cache_hits)?;
        let mut metrics = crate::joins::EvalMetrics::default();
        let rows = match watermarks {
            Some(w) => crate::joins::eval_part_delta_planned(body, part, db, w, true, &mut metrics),
            None => crate::joins::eval_part_planned(body, part, db, true, &mut metrics),
        };
        stats.rows_scanned += metrics.rows_scanned;
        stats.index_probes += metrics.index_probes;
        rows
    }

    /// Whether some relation `part` reads holds a row count other than its
    /// entry in `marks` (a missing entry included): only then can a delta
    /// from `marks` be non-empty, or [`part_marks`] read anything
    /// but `marks`. A relation the database lacks counts, so that
    /// evaluation reports it.
    pub(crate) fn grew_past(&self, part: &crate::rule::BodyPart, marks: &Marks) -> bool {
        catalog::relations(part, &self.db)
            .any(|(name, relation)| relation.is_none_or(|r| marks.get(name) != Some(r.len())))
    }

    /// A6 for one arriving fragment answer: merges the rows into what this
    /// peer retains of the fragment and chases the bindings that use at
    /// least one new row (semi-naive; combinations of old rows were chased
    /// when the last of them arrived). A rule with one body node has
    /// nothing to join against: its rows are chased as they arrived and
    /// not kept. Returns the number of facts inserted.
    pub(crate) fn absorb_fragment(
        &mut self,
        rule_id: RuleId,
        from: NodeId,
        vars: &Arc<[Arc<str>]>,
        rows: &RowSet,
    ) -> usize {
        let Some(rule) = self.rules.get(&rule_id).cloned() else {
            return 0;
        };
        let rows = rows.iter();
        if rule.parts.len() == 1 {
            let holds = crate::joins::join_filter(vars, &rule.join_constraints);
            return self.apply_rule_bindings(&rule, vars, rows.filter(|row| holds(row)));
        }
        match self.subscriptions.absorb(&rule, from, vars, rows) {
            Some(bindings) => self.apply_rule_bindings(&rule, &bindings.vars, bindings.rows.iter()),
            None => 0,
        }
    }

    /// Chases already-joined binding rows over `vars` for `rule` into the
    /// local database through the rule's [`crate::joins::CompiledHead`],
    /// taken from the catalog on the first binding (or when the rule or the
    /// binding layout changed). Returns the number of facts inserted — also
    /// when the application fails part-way, whose earlier facts stay. A
    /// durable peer notes each head relation's length first and logs the
    /// rows past it after, error or not, so the log holds every fact the
    /// database does.
    pub(crate) fn apply_rule_bindings<'r>(
        &mut self,
        rule: &Arc<CoordinationRule>,
        vars: &[Arc<str>],
        rows: impl IntoIterator<Item = &'r [Val]>,
    ) -> usize {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return 0;
        }
        let mut ends: Vec<(&str, usize)> = Vec::new();
        if self.storage.is_some() {
            for atom in &rule.head {
                if !ends.iter().any(|(name, _)| **name == *atom.relation) {
                    let len = self.db.relation(&atom.relation).map_or(0, |r| r.len());
                    ends.push((&atom.relation, len));
                }
            }
        }
        let DbPeer {
            config,
            compiled,
            db,
            nulls,
            ..
        } = self;
        let cfg = ChaseConfig {
            max_null_depth: config.max_null_depth,
        };
        let Nulls { mint, chase } = nulls;
        let mut outcome = ChaseOutcome::default();
        let applied = (compiled.head(rule, vars, db.schema())).and_then(|head| {
            for row in rows {
                head.apply(db, row, mint, chase, &cfg, &mut outcome)?;
            }
            Ok(())
        });
        self.stats.tuples_inserted += outcome.inserted as u64;
        self.stats.nulls_minted += outcome.nulls_minted as u64;
        for (relation, end) in ends {
            self.log_rows_past(relation, end);
        }
        if let Err(e) = applied {
            self.fail(format!("rule {} application failed: {e}", rule.name));
        }
        outcome.inserted
    }

    /// Builds the [`crate::messages::AnswerRows`] payload for shipping to
    /// `to`: collects chase depths of any nulls on board and attaches the
    /// first-use dictionary delta — `(symbol, string)` definitions for
    /// interned constants this peer has never shipped down that pipe.
    pub(crate) fn make_answer_rows(
        &mut self,
        to: NodeId,
        part: &crate::rule::BodyPart,
        rows: RowSet,
    ) -> crate::messages::AnswerRows {
        let mut null_depths = Vec::new();
        let mut seen = HashSet::new();
        for v in rows.iter().flatten() {
            if let Val::Null(id) = v {
                if seen.insert(*id) {
                    null_depths.push((*id, self.nulls.chase.depth_of(v)));
                }
            }
        }
        // Only rows that hold a symbol make the pipe a table of the symbols
        // it has carried.
        let dict = match rows.syms().next() {
            Some(_) => {
                let known = self.pipes.known.or_default(to);
                ConstCatalog::global().export(rows.syms().filter(|id| known.insert(*id)))
            }
            None => Vec::new(),
        };
        self.stats.dict_entries_sent += dict.len() as u64;
        crate::messages::AnswerRows {
            vars: Arc::clone(&part.vars),
            rows,
            null_depths,
            dict,
            // With durability on, the answerer's current watermarks ride
            // along so durable receivers can log a resync cursor (see
            // `peer::durability`). Without it nobody would log them, so the
            // map (and its wire bytes) stays empty.
            marks: if self.config.durability {
                part_marks(&self.db, part)
            } else {
                Marks::new()
            },
        }
    }

    /// Folds an answer's dictionary delta into the local catalog and
    /// records that `from` knows those symbols (no need to ship their
    /// definitions back). In one process every peer shares the catalog, so
    /// the absorb is an identity map; across processes (the socket
    /// runtime) the sender's `SymId`s are its own interning order, and the
    /// returned [`SymRemap`] rewrites the answer's rows and dictionary
    /// into this process's ids before anything touches the database.
    pub(crate) fn absorb_dict(&mut self, from: NodeId, rows: &mut crate::messages::AnswerRows) {
        if rows.dict.is_empty() {
            return;
        }
        let remap = ConstCatalog::global().absorb(&rows.dict);
        if !remap.is_identity() {
            rows.rows.remap_syms(&|id| remap.map(id));
            for (id, _) in &mut rows.dict {
                *id = remap.map(*id);
            }
        }
        let known = self.pipes.known.or_default(from);
        known.extend(rows.dict.iter().map(|(id, _)| *id));
    }

    /// Sends a message of one session. A Dijkstra–Scholten *basic* message
    /// ([`ProtocolMsg::is_basic`]: eager mode's) counts the deficit on that
    /// session's detector and wakes its root-quiet flag.
    pub(crate) fn send(
        &mut self,
        st: &mut SessionState,
        ctx: &mut Context<ProtocolMsg>,
        to: NodeId,
        msg: ProtocolMsg,
    ) {
        if msg.is_basic() {
            st.ds.on_send();
            st.root_quiet = false;
        }
        ctx.send(to, msg);
    }

    /// Fan-out variant of [`DbPeer::send`] for basic messages: one shared
    /// payload for the whole target set ([`Context::send_to_many`]), with
    /// the session's Dijkstra–Scholten deficit charged once per receiver.
    pub(crate) fn send_basic_many(
        &mut self,
        st: &mut SessionState,
        ctx: &mut Context<ProtocolMsg>,
        targets: impl IntoIterator<Item = NodeId>,
        msg: ProtocolMsg,
    ) {
        debug_assert!(msg.is_basic(), "send_basic_many used for a control message");
        let before = ctx.pending_sends();
        ctx.send_to_many(targets, msg);
        let sent = ctx.pending_sends() - before;
        for _ in 0..sent {
            st.ds.on_send();
        }
        if sent > 0 {
            st.root_quiet = false;
        }
    }

    /// Post-event hook for one session: runs Dijkstra–Scholten
    /// disengagement and, at the session's root, the fix-point broadcast.
    fn after_event(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if self.config.mode != UpdateMode::Eager {
            return;
        }
        match st.ds.try_disengage() {
            Disengage::None => {}
            Disengage::AckParent(parent) => ctx.send(parent, ProtocolMsg::Ack { session: sid }),
            Disengage::RootTerminated => {
                if st.ds.is_root() && st.upd.active && !st.root_quiet {
                    st.root_quiet = true;
                    self.broadcast_fixpoint(st, sid, ctx);
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // Session dispatch
    // ----------------------------------------------------------------

    /// Message kinds that may re-create state for a completed session: a
    /// dynamic change arriving after the fix-point broadcast legitimately
    /// re-opens the session (the root then re-quiesces and re-broadcasts).
    /// An eager session's row-carrying `Answer` re-wakes too — a re-woken
    /// region may cascade data to a subscriber that already retired, and
    /// dropping it would lose derived facts (the defensive re-join in
    /// `DbPeer::admit_answer`). A round's query or answer does not.
    fn can_rewake(msg: &ProtocolMsg) -> bool {
        match msg {
            ProtocolMsg::StartUpdate { .. }
            | ProtocolMsg::StartScopedUpdate { .. }
            | ProtocolMsg::UpdateFlood { .. }
            | ProtocolMsg::CursorVoid { .. }
            | ProtocolMsg::AddRule { .. }
            | ProtocolMsg::DeleteRule { .. }
            | ProtocolMsg::ResumeRounds { .. } => true,
            ProtocolMsg::Query(query) => query.via == Via::Session,
            ProtocolMsg::Answer(answer) => {
                answer.via == Via::Session && !answer.rows.rows.is_empty()
            }
            _ => false,
        }
    }

    /// Minimal response to a message of a stale or completed session, so
    /// the sender's bookkeeping drains without re-creating any state: basic
    /// messages get their Dijkstra–Scholten ack, a round's queries what
    /// `DbPeer::answer_stale` gives them, round floods a clean echo.
    fn acknowledge_stale(
        &mut self,
        from: NodeId,
        sid: SessionId,
        msg: ProtocolMsg,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        // Delivery counters keep their transport-level meaning even for
        // traffic of finished sessions.
        match msg {
            ProtocolMsg::Answer(_) => self.stats.answers_received += 1,
            ProtocolMsg::Query(_) => self.stats.queries_received += 1,
            _ => {}
        }
        if self.config.mode == UpdateMode::Eager && msg.is_basic() {
            ctx.send(from, ProtocolMsg::Ack { session: sid });
            return;
        }
        match msg {
            ProtocolMsg::Query(query) if matches!(query.via, Via::Round(_)) => {
                self.answer_stale(sid, from, query, ctx)
            }
            ProtocolMsg::RoundStart { round, .. } => ctx.send(from, rounds::clean_echo(sid, round)),
            _ => {}
        }
    }

    /// Puts a session entry back after an event ([`Sessions::finish`]).
    /// Retirement is where the session **commits** (module docs), under
    /// either mode — its subscriptions their cursors, its queried fragments
    /// as held, its cursor-void notice as delivered: the terminal broadcast
    /// certifies that every answer was applied, and every notice delivered.
    fn finish_session_event(&mut self, sid: SessionId, st: SessionState, completed: Option<u32>) {
        let retired = self.sessions.finish(sid, st, completed);
        if let Some(st) = retired.filter(|_| !self.config.paper_faithful) {
            let log = self.storage.as_deref_mut().map(Durable::log);
            self.subscriptions.commit(st, log);
        }
    }

    /// Dijkstra–Scholten ack fast path: debits the session's detector.
    fn on_ack(&mut self, from: NodeId, sid: SessionId, ctx: &mut Context<ProtocolMsg>) {
        if let Some(mut st) = self.sessions.take_live(sid) {
            self.debit(&mut st, from, sid, true);
            self.after_event(&mut st, sid, ctx);
            self.finish_session_event(sid, st, None);
        }
    }

    /// Debits one acknowledgement from `from` — an `Ack`, or an acking
    /// `Answer` once handled — if `counted` says the deficit still holds
    /// the send it acknowledges. Only a peer that lost its counters in a
    /// crash can be acknowledged for a send it does not remember.
    fn debit(&mut self, st: &mut SessionState, from: NodeId, sid: SessionId, counted: bool) {
        if !(counted && st.ds.on_ack()) && self.stats.crashes == 0 {
            self.fail(format!("{sid}: acknowledgement from {from} without a send"));
        }
    }

    /// Routes one session-tagged message: takes the session's entry out of
    /// the table (creating it on first contact), runs the per-session
    /// Dijkstra–Scholten transport layer and the protocol handler, then
    /// re-inserts or retires the entry.
    fn on_session_message(
        &mut self,
        from: NodeId,
        sid: SessionId,
        msg: ProtocolMsg,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if let ProtocolMsg::Ack { .. } = msg {
            return self.on_ack(from, sid, ctx);
        }
        // Crash-recovery repair is control-plane: it repairs the database
        // regardless of what this peer currently holds for the session (the
        // requester may be reconciling an epoch the redrive already
        // superseded, or a fragment never durably answered under any
        // session), so both directions bypass the staleness rules below and
        // run on a detached session state — a dropped repair would stay
        // outstanding forever and wedge every later closure.
        let repair = msg.via() == Some(Via::Repair);
        let entered = match repair {
            true => Some(Default::default()),
            false => self.sessions.enter(sid, Self::can_rewake(&msg)),
        };
        let Some((mut st, completed)) = entered else {
            return self.acknowledge_stale(from, sid, msg, ctx);
        };
        let ack = if self.config.mode == UpdateMode::Eager && msg.is_basic() {
            Some(st.ds.on_receive(from))
        } else {
            None
        };
        // An acking answer is handled in full first, then debits its query,
        // as if an `Ack` had followed it on the pipe.
        let reply = msg.acks_query().then(|| st.ds.on_receive_reply());
        // A query this peer acknowledges at once is acknowledged by its
        // answer, which leaves this handler for the same peer anyway.
        let folded = ack == Some(AckDecision::Immediate)
            && !self.config.paper_faithful
            && matches!(msg, ProtocolMsg::Query(_));
        match msg {
            ProtocolMsg::StartUpdate { .. } => self.start_update(&mut st, sid, ctx),
            ProtocolMsg::StartScopedUpdate { .. } => self.start_scoped_update(&mut st, sid, ctx),
            ProtocolMsg::UpdateFlood { .. } => self.on_update_flood(&mut st, sid, from, ctx),
            ProtocolMsg::Query(query) => self.on_query(&mut st, sid, from, query, folded, ctx),
            ProtocolMsg::Answer(answer) => self.on_answer(&mut st, sid, from, answer, ctx),
            ProtocolMsg::Unsubscribe { rule, .. } => self.on_unsubscribe(&mut st, from, rule),
            ProtocolMsg::CursorVoid { .. } => self.on_cursor_void(&mut st, sid, from, ctx),
            ProtocolMsg::Fixpoint { generation, .. } => self.on_fixpoint(&mut st, generation),
            ProtocolMsg::AddRule { rule, .. } => self.on_add_rule(&mut st, sid, rule, ctx),
            ProtocolMsg::DeleteRule { rule, .. } => self.on_delete_rule(&mut st, sid, rule, ctx),
            ProtocolMsg::RoundStart { round, .. } => {
                self.on_round_start(&mut st, sid, from, round, ctx)
            }
            ProtocolMsg::RoundEcho { round, dirty, .. } => {
                self.on_round_echo(&mut st, sid, round, dirty, ctx)
            }
            ProtocolMsg::RoundsClosed { rounds, .. } => self.on_rounds_closed(&mut st, rounds),
            ProtocolMsg::ResumeRounds { round, .. } => {
                self.on_resume_rounds(&mut st, sid, round, ctx)
            }
            // Session-less kinds never reach this routing.
            _ => {}
        }

        if ack == Some(AckDecision::Immediate) && !folded {
            ctx.send(from, ProtocolMsg::Ack { session: sid });
        }
        if let Some(counted) = reply {
            self.debit(&mut st, from, sid, counted);
        }
        self.after_event(&mut st, sid, ctx);
        self.finish_session_event(sid, st, completed);
    }

    /// Handles one delivered message; `on_message` commits what it recorded.
    fn deliver(&mut self, from: NodeId, msg: ProtocolMsg, ctx: &mut Context<ProtocolMsg>) {
        // An answer whose rows are not as wide as its variables is refused
        // before anything changes, as if it had been lost.
        if msg.answer_rows().is_some_and(AnswerRows::is_ragged) {
            let kind = p2p_net::Wire::kind(&msg);
            return self.fail(format!(
                "{kind} from {from}: a row of another width than its variables"
            ));
        }
        // So is a query whose fragment's variables are not its atoms'
        // distinct variables: its rows would not fix the facts they bind.
        if let ProtocolMsg::Query(query) = &msg {
            if !query.part.vars_are_its_atoms() {
                return self.fail(format!(
                    "Query from {from}: variables other than its atoms' own"
                ));
            }
        }
        ctx.charge(COST_PER_MESSAGE);

        if let Some(sid) = msg.session() {
            return self.on_session_message(from, sid, msg, ctx);
        }

        match msg {
            // Driver commands (super-peer).
            ProtocolMsg::StartDiscovery => self.start_discovery(ctx),
            ProtocolMsg::ApplyChange { change } => self.apply_change(change, ctx),
            ProtocolMsg::CollectStats => self.on_collect_stats(from, ctx),
            ProtocolMsg::ResetStats => self.on_reset_stats(from, ctx),
            ProtocolMsg::BroadcastRules { rules } => self.on_broadcast_rules(from, rules, ctx),
            ProtocolMsg::StatsReport { stats } => self.on_stats_report(from, stats),

            // Discovery.
            ProtocolMsg::RequestNodes { owner } => self.on_request_nodes(from, owner, ctx),
            ProtocolMsg::DiscoveryAnswer {
                owner,
                edges,
                closed,
                finished,
            } => self.on_discovery_answer(from, owner, edges, closed, finished, ctx),
            ProtocolMsg::DiscoveryClosed => self.on_discovery_closed(),

            // Session-tagged kinds are routed above.
            _ => {}
        }
    }
}

/// Each delivery and each restart ends in `DbPeer::commit`: what it
/// recorded is one WAL frame, written before the host takes its sends.
/// A failed commit is in [`DbPeer::errors`]; what the handler sent leaves.
impl Peer<ProtocolMsg> for DbPeer {
    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg, ctx: &mut Context<ProtocolMsg>) {
        self.deliver(from, msg, ctx);
        let _ = self.commit();
    }

    fn on_crash(&mut self) {
        self.crash_volatile_state();
    }

    fn on_restart(&mut self, ctx: &mut Context<ProtocolMsg>) {
        self.restart_and_resync(ctx);
        let _ = self.commit();
    }
}

/// `db`'s insertion watermarks of the relations `part` reads — the cursor
/// currency of every delta stream. Other relations cannot change the
/// fragment's extension, and a missing entry already reads as "the whole
/// relation is new", so nothing else is carried.
pub(crate) fn part_marks(db: &Database, part: &crate::rule::BodyPart) -> Marks {
    catalog::relations(part, db)
        .filter_map(|(name, relation)| Some((name.clone(), relation?.len())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Answer, Query, Start};
    use p2p_relational::query::Idents;
    use p2p_relational::DatabaseSchema;

    /// A fragment holds the plan the catalog hands out for it from its
    /// first evaluation on, and serves it to every later one; another
    /// fragment — under the same rule id, too — holds its own and is never
    /// served the first one's.
    #[test]
    fn cached_plans_are_fingerprinted_by_fragment() {
        let mut db = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        for (x, y) in [(1, 2), (7, 8)] {
            db.insert_values("b", vec![Val::Int(x), Val::Int(y)])
                .unwrap();
        }
        let mut peer = DbPeer::new(NodeId(1), db, SystemConfig::default());
        let resolve = |s: &str| match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            _ => None,
        };
        let part = |text: &str| {
            CoordinationRule::parse("r", text, None, &resolve, &mut Idents::new())
                .unwrap()
                .parts
                .remove(0)
        };
        let (old, new) = (
            part("B:b(X,Y) => A:a(X,Y)"),
            part("B:b(X,Y), X > 1 => A:a(X,Y)"),
        );

        // What the fragment holds is the catalog's plan for it.
        let held_from_catalog = |peer: &DbPeer, part: &crate::rule::BodyPart| {
            let (atoms, constraints) = (&part.atoms, &part.local_constraints);
            let shared = peer
                .compiled
                .catalog
                .body(atoms, constraints, &peer.db)
                .unwrap();
            let held = catalog::held_body(part, &peer.db).expect("held");
            Arc::ptr_eq(&held.full, &shared.full)
        };

        assert!(catalog::held_body(&old, &peer.db).is_none());
        assert_eq!(peer.eval_part_rows(&old, None).unwrap().len(), 2);
        assert_eq!(peer.stats.plan_cache_hits, 0);
        assert!(held_from_catalog(&peer, &old));
        assert_eq!(peer.eval_part_rows(&old, None).unwrap().len(), 2);
        assert_eq!(peer.stats.plan_cache_hits, 1, "same fragment: served");
        // Another fragment: its own plan, not the first one's.
        let rows = peer.eval_part_rows(&new, None).unwrap();
        assert_eq!(
            rows,
            RowSet::from_flat(2, 1, vec![Val::Int(7), Val::Int(8)])
        );
        assert_eq!(peer.stats.plan_cache_hits, 1);
        assert!(held_from_catalog(&peer, &new) && held_from_catalog(&peer, &old));
        let plan = |part: &crate::rule::BodyPart| {
            Arc::clone(&catalog::held_body(part, &peer.db).unwrap().full)
        };
        assert!(!Arc::ptr_eq(&plan(&old), &plan(&new)));
        assert_eq!(peer.eval_part_rows(&new, None).unwrap(), rows);
        assert_eq!(peer.stats.plan_cache_hits, 2);
        assert_eq!(peer.compiled.catalog.len(), 2, "one plan per fragment");
    }

    /// A fragment keeps the plan it took at its first evaluation across a
    /// crash of the peer that evaluates it: the atom order chosen against
    /// that peer's database then stays, and the restarted peer compiles
    /// nothing — not even when its database's sizes would now order the
    /// atoms the other way. Its rows are the fragment's all the same.
    #[test]
    fn a_restarted_peer_keeps_the_plan_its_fragment_holds() {
        let schema = DatabaseSchema::parse("b(x: int, y: int). c(x: int, y: int).").unwrap();
        let mut peer = DbPeer::new(B, Database::new(schema), SystemConfig::default());
        let fill = |peer: &mut DbPeer, b: i64, c: i64| {
            for (relation, n) in [("b", b), ("c", c)] {
                for i in 0..n {
                    let row = vec![Val::Int(i), Val::Int(i)];
                    peer.db.insert_values(relation, row).unwrap();
                }
            }
        };
        let r = rule(3, "B:b(X,Y), B:c(Y,Z) => A:a(X,Z)");
        let part = &r.parts[0];
        let held = |peer: &mut DbPeer| {
            assert_eq!(peer.eval_part_rows(part, None).unwrap().len(), 1);
            Arc::clone(&catalog::held_body(part, &peer.db).unwrap().full)
        };

        // `b` is the smaller relation, so it goes first.
        fill(&mut peer, 1, 3);
        let first = held(&mut peer);
        let own = crate::joins::CompiledBody::compile(&part.atoms, &[], &peer.db).unwrap();
        assert_eq!(first, own.full);
        let references = Arc::strong_count(&first);
        peer.on_crash();
        assert_eq!(Arc::strong_count(&first), references, "kept");
        peer.on_restart(&mut Context::new(B));

        // Now `c` is, and the fragment's plan is still the first one.
        fill(&mut peer, 2, 1);
        assert!(Arc::ptr_eq(&held(&mut peer), &first));
        let own = crate::joins::CompiledBody::compile(&part.atoms, &[], &peer.db).unwrap();
        assert_ne!(own.full.steps[0].atom, first.steps[0].atom);
        assert_eq!(peer.compiled.catalog.len(), 1, "nothing compiled");
    }

    /// A fragment consults its system's catalog for its body once, at its
    /// first evaluation, however many sessions evaluate it after: every
    /// later evaluation, full or delta, is served the plan it holds, and
    /// once each plan a fragment executes has been taken, later sessions
    /// compile nothing.
    #[test]
    fn a_fragment_consults_the_catalog_once_across_sessions() {
        use crate::system::P2PSystemBuilder;
        let mut b = P2PSystemBuilder::new();
        for id in 0..3 {
            b.add_node_with_schema(id, "r(x: int, y: int).").unwrap();
        }
        b.add_rule("ab", "B:r(X,Y) => A:r(X,Y)").unwrap();
        b.add_rule("bc", "C:r(X,Y) => B:r(X,Y)").unwrap();
        b.insert(2, "r", [Val::Int(1), Val::Int(2)]).unwrap();
        let mut sys = b.build().unwrap();
        let mut entries = Vec::new();
        for i in 0..4 {
            sys.insert(NodeId(2), "r", vec![Val::Int(10 + i), Val::Int(i)])
                .unwrap();
            let report = sys.run_update();
            assert!(report.all_closed && report.errors.is_empty());
            entries.push(sys.peer(A).unwrap().compiled.catalog.len());
        }
        assert_eq!(sys.database(A).unwrap().relation("r").unwrap().len(), 5);
        assert!(entries[1..].iter().all(|n| *n == entries[1]), "{entries:?}");
        for body in [B, NodeId(2)] {
            let stats = sys.peer(body).unwrap().stats();
            assert!(stats.local_evaluations >= 4, "{stats:?}");
            assert_eq!(
                stats.local_evaluations - stats.plan_cache_hits,
                1,
                "one consult"
            );
        }
    }

    /// The body side of one subscription over three sessions: the cursor
    /// exists from first contact on — at zero, "the subscriber holds
    /// nothing" — and moves when the session retires (not when the answer
    /// is sent), a `resume` query is then served the delta, and a `resume`
    /// query for a different fragment under the same rule id is served in
    /// full.
    /// A pipe gets a table of the symbols it carried only once an answer
    /// down it holds one: integer rows leave none, and the first rows with a
    /// symbol ship its definition once.
    #[test]
    fn only_rows_with_a_symbol_give_a_pipe_a_symbol_table() {
        let schema = "n(x: int). s(x: str).";
        let mut db = Database::new(DatabaseSchema::parse(schema).unwrap());
        db.insert_values("n", vec![Val::Int(1)]).unwrap();
        db.insert_values("s", vec![Val::str("pipe-table-sym")])
            .unwrap();
        let mut peer = DbPeer::new(NodeId(1), db, SystemConfig::default());
        let resolve = |s: &str| {
            [("A", NodeId(0)), ("B", NodeId(1))]
                .into_iter()
                .find(|n| n.0 == s)
                .map(|n| n.1)
        };
        let part = |text: &str| {
            CoordinationRule::parse("r", text, None, &resolve, &mut Idents::new())
                .unwrap()
                .parts
                .remove(0)
        };
        let (ints, syms) = (part("B:n(X) => A:n(X)"), part("B:s(X) => A:s(X)"));
        let head = NodeId(0);
        let ask = |peer: &mut DbPeer, part: &Arc<crate::rule::BodyPart>, epoch| {
            let session = SessionId::new(head, epoch);
            let query = Query::new(
                session,
                RuleId(epoch as u32),
                part.clone(),
                Start::Fresh,
                Via::Session,
            );
            let mut ctx = Context::new(NodeId(1));
            peer.on_message(head, ProtocolMsg::Query(query), &mut ctx);
            (ctx.take_outgoing().iter())
                .find_map(|out| Some(out.msg.answer_rows()?.dict.len()))
                .expect("the query is answered")
        };
        assert_eq!(ask(&mut peer, &ints, 1), 0);
        assert_eq!(peer.pipes.known.len(), 0, "no symbol went down the pipe");
        assert_eq!(ask(&mut peer, &syms, 2), 1);
        assert_eq!(peer.pipes.known.len(), 1);
        assert_eq!(ask(&mut peer, &syms, 3), 0, "shipped once");
    }

    #[test]
    fn cursor_commits_at_retirement_and_is_fingerprinted_by_fragment() {
        let mut db = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        db.insert_values("b", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        let mut peer = DbPeer::new(NodeId(1), db, SystemConfig::default());
        let resolve = |s: &str| match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            _ => None,
        };
        let part = |text: &str| {
            CoordinationRule::parse("r", text, None, &resolve, &mut Idents::new())
                .unwrap()
                .parts
                .remove(0)
        };
        let (copy, filtered) = (
            part("B:b(X,Y) => A:a(X,Y)"),
            part("B:b(X,Y), X > 0 => A:a(X,Y)"),
        );
        let (head, rule) = (NodeId(0), RuleId(7));

        // One session as the head sees it: query, ack of the answer, and —
        // unless the session strands — the fix-point broadcast. Returns the
        // rows of the answer.
        let mut epoch = 0;
        let mut session = |peer: &mut DbPeer, part: &Arc<crate::rule::BodyPart>, resume, retire| {
            epoch += 1;
            let session = SessionId::new(head, epoch);
            let mut ctx = Context::new(NodeId(1));
            let from = if resume { Start::Resume } else { Start::Fresh };
            let query = Query {
                sn: [head].into(),
                ..Query::new(session, rule, part.clone(), from, Via::Session)
            };
            peer.on_message(head, ProtocolMsg::Query(query), &mut ctx);
            let shipped = ctx
                .take_outgoing()
                .iter()
                .find_map(|out| Some(out.msg.answer_rows()?.rows.len()))
                .expect("the query is answered");
            peer.on_message(head, ProtocolMsg::Ack { session }, &mut ctx);
            if retire {
                let generation = 1;
                peer.on_message(
                    head,
                    ProtocolMsg::Fixpoint {
                        session,
                        generation,
                    },
                    &mut ctx,
                );
                assert_eq!(peer.session_table_len(), 0);
            }
            shipped
        };

        assert_eq!(session(&mut peer, &copy, false, false), 1, "first contact");
        assert_eq!(peer.retained_entries().0, 1);
        assert!(
            peer.subscriptions
                .cursor((head, rule))
                .unwrap()
                .watermarks
                .is_empty(),
            "sent is not committed"
        );
        assert_eq!(
            session(&mut peer, &copy, true, true),
            1,
            "resumed from zero: everything"
        );
        assert!(
            !peer
                .subscriptions
                .cursor((head, rule))
                .unwrap()
                .watermarks
                .is_empty(),
            "retired is committed"
        );
        peer.db
            .insert_values("b", vec![Val::Int(3), Val::Int(4)])
            .unwrap();
        assert_eq!(session(&mut peer, &copy, true, true), 1, "the delta");
        assert_eq!(peer.stats.resumed_answers, 2);
        assert_eq!(
            session(&mut peer, &filtered, true, true),
            2,
            "other fragment"
        );
        assert_eq!(
            session(&mut peer, &filtered, false, true),
            2,
            "head lost it"
        );
        assert_eq!(peer.stats.resumed_answers, 2);
    }

    /// A head `A` with `B:b(X,Y), C:c(Y,Z) => A:a(X,Z)` installed, and the
    /// rule.
    fn head_over_two_body_nodes() -> (DbPeer, CoordinationRule) {
        let schema = DatabaseSchema::parse("a(x: int, z: int).").unwrap();
        let mut peer = DbPeer::new(A, Database::new(schema), SystemConfig::default());
        let rule = rule(0, "B:b(X,Y), C:c(Y,Z) => A:a(X,Z)");
        peer.install_rule(rule.clone());
        (peer, rule)
    }

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);
    const C: NodeId = NodeId(2);
    const D: NodeId = NodeId(3);

    /// A rule over the nodes `A`–`D`, under the id `id`.
    fn rule(id: u32, text: &str) -> CoordinationRule {
        let resolve = |s: &str| match s {
            "A" => Some(A),
            "B" => Some(B),
            "C" => Some(C),
            "D" => Some(D),
            _ => None,
        };
        let mut rule =
            CoordinationRule::parse("r", text, None, &resolve, &mut Idents::new()).unwrap();
        rule.id = RuleId(id);
        rule
    }

    /// Delivers one message; acknowledges every basic message the handler
    /// sent unless `lost`; returns what the peer sent, handling the
    /// acknowledgements included.
    fn deliver(peer: &mut DbPeer, from: NodeId, msg: ProtocolMsg, lost: bool) -> Vec<ProtocolMsg> {
        let mut ctx = Context::new(peer.id);
        peer.on_message(from, msg, &mut ctx);
        let mut sent = ctx.take_outgoing();
        for out in sent.iter().filter(|out| out.msg.is_basic() && !lost) {
            let session = out.msg.session().unwrap();
            peer.on_message(out.to, ProtocolMsg::Ack { session }, &mut ctx);
        }
        sent.extend(ctx.take_outgoing());
        sent.iter().map(|out| (*out.msg).clone()).collect()
    }

    /// The `(body node, resume)` of every `Query` among `sent`.
    fn queries(sent: &[ProtocolMsg]) -> Vec<(NodeId, bool)> {
        sent.iter()
            .filter_map(|msg| match msg {
                ProtocolMsg::Query(query) => Some((query.part.node, query.from == Start::Resume)),
                _ => None,
            })
            .collect()
    }

    /// One row of `from`'s fragment of `rule`, as an `Answer`.
    fn answer(
        rule: &CoordinationRule,
        session: SessionId,
        from: NodeId,
        row: [i64; 2],
        pushed: bool,
    ) -> ProtocolMsg {
        let part = rule.parts.iter().find(|p| p.node == from).unwrap();
        let rows = AnswerRows {
            vars: part.vars.clone(),
            rows: RowSet::from_flat(2, 1, row.map(Val::Int).to_vec()),
            ..Default::default()
        };
        ProtocolMsg::Answer(Answer {
            pushed,
            ..Answer::new(session, rule.id, rows, Via::Session)
        })
    }

    fn fixpoint(session: SessionId) -> ProtocolMsg {
        ProtocolMsg::Fixpoint {
            session,
            generation: 1,
        }
    }

    /// The `Query` of `rule`'s (first) fragment, from its head.
    fn query(rule: &CoordinationRule, session: SessionId) -> ProtocolMsg {
        let query = Query::new(
            session,
            rule.id,
            rule.parts[0].clone(),
            Start::Fresh,
            Via::Session,
        );
        ProtocolMsg::Query(Query {
            sn: [rule.head_node].into(),
            ..query
        })
    }

    /// What body node `B`, holding `b(1,2)`, sends for each of two queries
    /// of one session, `A`'s and then `C`'s. The first engages `B`; its
    /// answer is acknowledged unless `lost`.
    fn two_queries(config: SystemConfig, lost: bool) -> (DbPeer, [Vec<ProtocolMsg>; 2]) {
        let mut db = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        db.insert_values("b", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        let mut peer = DbPeer::new(B, db, config);
        let session = SessionId::new(A, 1);
        let of_a = rule(1, "B:b(X,Y) => A:a(X,Y)");
        let of_c = rule(2, "B:b(X,Y) => C:c(X,Y)");
        let first = deliver(&mut peer, A, query(&of_a, session), lost);
        let second = deliver(&mut peer, C, query(&of_c, session), true);
        (peer, [first, second])
    }

    /// The kind of each of `sent`, and whether it acknowledges the query it
    /// answers.
    fn shape(sent: &[ProtocolMsg]) -> Vec<(&'static str, bool)> {
        sent.iter()
            .map(|msg| (p2p_net::Wire::kind(msg), msg.acks_query()))
            .collect()
    }

    /// An answer of any kind whose rows are not as wide as its variables is
    /// refused where it arrives, at a head with an open session and a
    /// resync under way: recorded as an error, nothing sent, nothing
    /// inserted, no deficit debited and no resync settled — as if it had
    /// been lost, so its well-formed twin is absorbed afterwards.
    #[test]
    fn a_ragged_answer_of_any_kind_is_refused_as_if_lost() {
        let s = SessionId::new(A, 1);
        let of_a = rule(1, "B:b(X,Y) => A:a(X,Y)");
        let rows = crate::messages::AnswerRows {
            vars: of_a.parts[0].vars.clone(),
            rows: RowSet::from_flat(2, 1, vec![Val::Int(1), Val::Int(2)]),
            ..Default::default()
        };
        let kind =
            |via, session, rule, rows| ProtocolMsg::Answer(Answer::new(session, rule, rows, via));
        let vias = [Via::Session, Via::Round(0), Via::Round(1), Via::Repair];
        for (via, wide) in vias.into_iter().zip([1, 3, 0, 1]) {
            let kind = |session, rule, rows| kind(via, session, rule, rows);
            let schema = DatabaseSchema::parse("a(x: int, y: int).").unwrap();
            let mut peer = DbPeer::new(A, Database::new(schema), SystemConfig::default());
            peer.install_rule(of_a.clone());
            let start = ProtocolMsg::StartScopedUpdate { session: s };
            assert_eq!(queries(&deliver(&mut peer, A, start, true)), [(B, false)]);
            (peer.subscriptions).await_resync((s, of_a.id, B), Marks::new());
            let state = |peer: &DbPeer| {
                let deficit = peer.sessions.get(s).unwrap().ds.deficit();
                (
                    deficit,
                    peer.subscriptions.resyncs(),
                    peer.database().total_tuples(),
                )
            };
            let before = state(&peer);

            // Rows of one width, but not the width of the vars.
            let mut ragged = rows.clone();
            ragged.rows = RowSet::from_flat(wide, 1, vec![Val::Int(9); wide]);
            let msg = kind(s, of_a.id, ragged);
            let name = format!("{via:?}");
            assert!(deliver(&mut peer, B, msg, false).is_empty(), "{name}");
            assert_eq!(peer.errors().len(), 1, "{name}: {:?}", peer.errors());
            assert_eq!(state(&peer), before, "{name}");

            deliver(&mut peer, B, kind(s, of_a.id, rows.clone()), false);
            assert_eq!(peer.database().total_tuples(), 1, "{name}: the twin");
            assert_eq!(peer.errors().len(), 1, "{name}");
        }
    }

    /// A query whose fragment's variables are not its atoms' distinct
    /// variables in first-occurrence order — `item(I,S)` over `[I]`, over
    /// `[S, I]` or over `[I, S, I]` — is refused where it arrives: recorded
    /// as an error, nothing sent, no session entered, nothing subscribed.
    /// Its well-formed twin is then served.
    #[test]
    fn a_query_over_other_variables_than_its_atoms_is_refused_as_if_lost() {
        let s = SessionId::new(A, 1);
        let schema = DatabaseSchema::parse("item(i: int, s: str).").unwrap();
        let mut db = Database::new(schema);
        db.insert_values("item", vec![Val::Int(1), Val::str("x")])
            .unwrap();
        let of_a = rule(1, "B:item(I,S) => A:a(I,S)");
        let well_formed = &of_a.parts[0];
        for vars in [&["I"][..], &["S", "I"], &["I", "S", "I"]] {
            let mut peer = DbPeer::new(B, db.clone(), SystemConfig::default());
            let part = crate::rule::BodyPart::new(
                B,
                well_formed.atoms.clone(),
                Vec::new(),
                vars.iter().map(|v| Arc::from(*v)).collect(),
            );
            let malformed = Query::new(s, of_a.id, Arc::new(part), Start::Fresh, Via::Session);
            let msg = ProtocolMsg::Query(Query {
                sn: [A].into(),
                ..malformed
            });
            assert!(deliver(&mut peer, A, msg, false).is_empty(), "{vars:?}");
            assert_eq!(peer.errors().len(), 1, "{vars:?}: {:?}", peer.errors());
            assert!(peer.sessions.get(s).is_none(), "{vars:?}");
            assert_eq!(peer.subscriptions.retained_entries(), (0, 0), "{vars:?}");

            let sent = deliver(&mut peer, A, query(&of_a, s), false);
            let rows = sent.iter().find_map(ProtocolMsg::answer_rows);
            assert_eq!(rows.map(|r| r.rows.len()), Some(1), "{vars:?}: the twin");
            assert_eq!(peer.errors().len(), 1, "{vars:?}");
        }
    }

    /// A query that finds its body node engaged in the session already is
    /// acknowledged by its answer: one message, no `Ack` after it, and not
    /// counted in the body node's deficit.
    #[test]
    fn a_query_to_an_engaged_peer_is_acknowledged_by_its_answer() {
        let (peer, [first, second]) = two_queries(SystemConfig::default(), true);
        assert_eq!(shape(&first), [("Answer", false)]);
        assert_eq!(shape(&second), [("Answer", true)]);
        assert_eq!(peer.stats().acking_answers, 1);
        let s = SessionId::new(A, 1);
        assert_eq!(peer.sessions.get(s).unwrap().ds.deficit(), 1, "A's answer");
    }

    /// Head `C` with `B:b(X,Y) => C:c(X,Y)` (the rule `C` asks `B` for in
    /// [`two_queries`]), flooded into `A`'s session 1 by `A`: its query to
    /// `B` is outstanding.
    fn querier_c() -> DbPeer {
        let schema = DatabaseSchema::parse("c(x: int, y: int).").unwrap();
        let mut peer = DbPeer::new(C, Database::new(schema), SystemConfig::default());
        peer.install_rule(rule(2, "B:b(X,Y) => C:c(X,Y)"));
        let flood = ProtocolMsg::UpdateFlood {
            session: SessionId::new(A, 1),
        };
        assert_eq!(queries(&deliver(&mut peer, A, flood, true)), [(B, false)]);
        peer
    }

    /// An acking answer that reaches its querier after the session went
    /// stale there is dropped like any stale message — and, acknowledging
    /// rather than being acknowledged, gets no `Ack`: its sender never
    /// counted it, and would report one as an acknowledgement without a send.
    #[test]
    fn an_acking_answer_for_a_stale_session_gets_no_ack() {
        let (body, [_, reply]) = two_queries(SystemConfig::default(), true);
        let mut head = querier_c();
        let newer = ProtocolMsg::UpdateFlood {
            session: SessionId::new(A, 2),
        };
        deliver(&mut head, A, newer, true);

        let sent = deliver(&mut head, B, reply[0].clone(), false);
        assert!(sent.is_empty(), "{sent:?}");
        assert_eq!(head.database().total_tuples(), 0);
        assert!(head.errors().is_empty() && body.errors().is_empty());
    }

    /// A querier that crashed while its query was outstanding has no
    /// counters left when the acking answer arrives: it engages without a
    /// parent, handles the answer (here re-joining the session, so it asks
    /// again), and disengages without owing anyone an `Ack`.
    #[test]
    fn an_acking_answer_to_a_restarted_querier_engages_it_without_a_parent() {
        let (body, [_, reply]) = two_queries(SystemConfig::default(), true);
        let mut head = querier_c();
        head.crash_volatile_state();

        let sent = deliver(&mut head, B, reply[0].clone(), false);
        assert_eq!(shape(&sent), [("Query", false)], "{sent:?}");
        let st = head.sessions.get(SessionId::new(A, 1)).unwrap();
        assert!(!st.ds.engaged() && st.ds.deficit() == 0);
        assert!(head.errors().is_empty() && body.errors().is_empty());
    }

    /// A query that engages its body node is answered without the
    /// acknowledgement, which the body node defers until it is passive.
    #[test]
    fn a_query_that_engages_its_peer_keeps_its_deferred_ack() {
        let (peer, [first, _]) = two_queries(SystemConfig::default(), false);
        assert_eq!(shape(&first), [("Answer", false), ("Ack", false)]);
        assert!(peer.errors().is_empty());
    }

    /// The paper's protocol acknowledges every basic message with an `Ack`
    /// of its own, answers included.
    #[test]
    fn paper_faithful_answers_do_not_acknowledge() {
        let config = SystemConfig {
            paper_faithful: true,
            ..SystemConfig::default()
        };
        let (peer, [_, second]) = two_queries(config, true);
        assert_eq!(shape(&second), [("Answer", false), ("Ack", false)]);
        assert_eq!(peer.stats().acking_answers, 0);
    }

    /// The querier's side: an acking answer is handled in full before it
    /// debits the deficit, once. Here the answer brings `a(1,2)`, which the
    /// session's root `A` owes its own subscriber `D`: the push is counted
    /// first, so the root cannot terminate until `D` acknowledges it.
    #[test]
    fn an_acking_answer_debits_the_querier_once_after_its_own_sends() {
        let schema = DatabaseSchema::parse("a(x: int, y: int).").unwrap();
        let mut peer = DbPeer::new(A, Database::new(schema), SystemConfig::default());
        let of_a = rule(1, "B:b(X,Y) => A:a(X,Y)");
        peer.install_rule(of_a.clone());
        let s = SessionId::new(A, 1);
        let deficit = |peer: &DbPeer| peer.sessions.get(s).unwrap().ds.deficit();

        let start = ProtocolMsg::StartScopedUpdate { session: s };
        assert_eq!(queries(&deliver(&mut peer, A, start, true)), [(B, false)]);
        // `D` subscribes; its (empty) answer is acknowledged.
        let of_d = rule(2, "A:a(X,Y) => D:d(X,Y)");
        deliver(&mut peer, D, query(&of_d, s), false);
        assert_eq!(deficit(&peer), 1, "the query to B");

        let mut acking = answer(&of_a, s, B, [1, 2], false);
        if let ProtocolMsg::Answer(answer) = &mut acking {
            answer.acks = true;
        }
        let sent = deliver(&mut peer, B, acking, true);
        // The push to D, and no acknowledgement of the answer.
        assert_eq!(shape(&sent), [("Answer", false)]);
        assert_eq!(deficit(&peer), 1, "the push to D");
        assert!(!peer.session_closed(s));

        deliver(&mut peer, D, ProtocolMsg::Ack { session: s }, true);
        assert!(peer.session_closed(s));
        assert_eq!(peer.session_table_len(), 0);
        assert!(peer.errors().is_empty());
    }

    /// Floods `session` in from its root, answers both fragments in full
    /// and retires it: afterwards the head holds both.
    fn first_contact(peer: &mut DbPeer, rule: &CoordinationRule, session: SessionId) {
        let sent = deliver(
            peer,
            session.root,
            ProtocolMsg::UpdateFlood { session },
            false,
        );
        assert_eq!(queries(&sent), [(B, false), (C, false)], "first contact");
        deliver(peer, B, answer(rule, session, B, [1, 2], false), false);
        deliver(peer, C, answer(rule, session, C, [2, 3], false), false);
        deliver(peer, session.root, fixpoint(session), false);
        assert_eq!(peer.retained_entries().1, 2);
        assert_eq!(peer.session_table_len(), 0);
    }

    /// The head side of a rule over two body nodes, with two sessions live
    /// while the rule is replaced under its id: what the older session's
    /// subscriptions still deliver belongs to the state the replacement
    /// dropped. It is neither applied nor lets that session, when it
    /// retires, mark the fragment as held — so the next session queries the
    /// full extensions again instead of resuming, or listening to a
    /// standing subscription, over a hole, even though the replacement's
    /// own full answers were lost. Once a session that queried them
    /// retires they are held: a flood then brings no query at all, and a
    /// session joined any other way says `resume`.
    #[test]
    fn fragment_is_held_only_through_a_retired_session_that_queried_it() {
        let (mut peer, rule) = head_over_two_body_nodes();
        let (s1, s2) = (SessionId::new(B, 1), SessionId::new(C, 2));

        for session in [s1, s2] {
            let sent = deliver(
                &mut peer,
                session.root,
                ProtocolMsg::UpdateFlood { session },
                false,
            );
            assert_eq!(queries(&sent), [(B, false), (C, false)], "first contact");
            assert!(
                !sent
                    .iter()
                    .any(|m| matches!(m, ProtocolMsg::UpdateFlood { .. })),
                "a receiver does not forward the flood"
            );
            deliver(
                &mut peer,
                B,
                answer(&rule, session, B, [1, 2], false),
                false,
            );
            deliver(
                &mut peer,
                C,
                answer(&rule, session, C, [2, 3], false),
                false,
            );
        }
        assert_eq!(peer.database().total_tuples(), 1, "a(1,3)");
        assert_eq!(peer.retained_rows(), 2);

        // The rule is replaced within session 1, whose new queries — or
        // their answers — are lost.
        let replace = ProtocolMsg::AddRule {
            session: s1,
            rule: rule.clone(),
        };
        let sent = deliver(&mut peer, B, replace, true);
        assert_eq!(queries(&sent), [(B, false), (C, false)]);
        assert_eq!(peer.retained_rows(), 0);

        // Session 2's subscription, opened before, still pushes a delta.
        deliver(&mut peer, B, answer(&rule, s2, B, [5, 2], false), false);
        assert_eq!(peer.retained_rows(), 0, "not applied");
        deliver(&mut peer, C, fixpoint(s2), false);
        assert!(peer.session_closed(s2) && peer.sessions.get(s2).is_none());
        assert_eq!(peer.retained_entries().1, 0, "and not held");

        let s3 = SessionId::new(B, 3);
        let sent = deliver(
            &mut peer,
            B,
            ProtocolMsg::UpdateFlood { session: s3 },
            false,
        );
        assert_eq!(
            queries(&sent),
            [(B, false), (C, false)],
            "the full extensions are asked again"
        );
        // Answered in full and retired, the fragments are held.
        deliver(&mut peer, B, answer(&rule, s3, B, [5, 2], false), false);
        deliver(&mut peer, C, answer(&rule, s3, C, [2, 3], false), false);
        deliver(&mut peer, B, fixpoint(s3), false);
        assert_eq!(peer.retained_entries().1, 2);
        assert_eq!(peer.session_table_len(), 0);

        // Held: the flood of the next session brings no query — the body
        // nodes' standing subscriptions serve it, and what they push is
        // applied.
        let s4 = SessionId::new(B, 4);
        let sent = deliver(
            &mut peer,
            B,
            ProtocolMsg::UpdateFlood { session: s4 },
            false,
        );
        assert!(matches!(&sent[..], [ProtocolMsg::Ack { .. }]), "{sent:?}");
        deliver(&mut peer, B, answer(&rule, s4, B, [7, 2], true), false);
        assert_eq!(peer.retained_rows(), 3);
        assert_eq!(peer.database().total_tuples(), 3, "a(7,3) too");
        deliver(&mut peer, B, fixpoint(s4), false);
        assert_eq!(peer.retained_entries().1, 2);

        // Joined without a flood, the session cannot count on the body
        // nodes having heard of it: it asks, and says what it holds.
        let s5 = SessionId::new(peer.id, 5);
        let sent = deliver(
            &mut peer,
            NodeId(0),
            ProtocolMsg::StartScopedUpdate { session: s5 },
            false,
        );
        assert_eq!(queries(&sent), [(B, true), (C, true)]);
    }

    /// The commit rule under a cursor-void notice, head side. Two sessions
    /// joined by flood both listen to `B`'s standing subscription without
    /// having queried it. `B`'s notice arrives in one of them: the fragment
    /// stops being held and that session queries it in full. The other
    /// session retiring does not hold it again — it never queried it — and
    /// only the retirement of the session that did, does. (Were the notice
    /// lost instead, `B` would never be acknowledged, its session would
    /// never terminate, and nothing would be committed: the body side of
    /// this is `cursor_void_notice_is_owed_until_a_session_carrying_it_retires`.)
    #[test]
    fn cursor_void_notice_unholds_until_a_session_that_requeried_retires() {
        let (mut peer, rule) = head_over_two_body_nodes();
        first_contact(&mut peer, &rule, SessionId::new(B, 1));

        let (s2, s3) = (SessionId::new(B, 2), SessionId::new(C, 3));
        for session in [s2, s3] {
            let flood = ProtocolMsg::UpdateFlood { session };
            assert!(queries(&deliver(&mut peer, session.root, flood, false)).is_empty());
        }

        let sent = deliver(&mut peer, B, ProtocolMsg::CursorVoid { session: s2 }, false);
        assert_eq!(queries(&sent), [(B, false)], "only B's, and in full");
        assert_eq!(peer.retained_entries().1, 1, "B's fragment is not held");
        // A second notice (B's other sessions carry it too) asks nothing
        // more of a session that already asked.
        let again = deliver(&mut peer, B, ProtocolMsg::CursorVoid { session: s2 }, false);
        assert!(queries(&again).is_empty());

        deliver(&mut peer, C, fixpoint(s3), false);
        assert!(peer.session_closed(s3));
        assert_eq!(
            peer.retained_entries().1,
            1,
            "a session that did not query the fragment does not hold it again"
        );

        deliver(&mut peer, B, answer(&rule, s2, B, [1, 2], false), false);
        deliver(&mut peer, B, fixpoint(s2), false);
        assert_eq!(
            peer.retained_entries().1,
            2,
            "re-queried in full, then held"
        );
        assert_eq!(peer.session_table_len(), 0);
    }

    /// A push is only as good as the head's `held` mark: a pushed answer
    /// for a fragment the head does not hold is not applied — the session
    /// asks for the full extension instead, once — and one for a rule the
    /// head no longer has is answered with `Unsubscribe`.
    #[test]
    fn pushed_answer_for_a_fragment_not_held_is_requeried_not_applied() {
        let (mut peer, rule) = head_over_two_body_nodes();
        first_contact(&mut peer, &rule, SessionId::new(B, 1));

        // The head re-reads its rule file between sessions: same id.
        peer.install_rule(rule.clone());
        assert_eq!(peer.retained_entries().1, 0);
        // B's push overtakes the flood: the head joins on it, asking for
        // everything, and does not apply the rows.
        let s2 = SessionId::new(C, 2);
        let sent = deliver(&mut peer, B, answer(&rule, s2, B, [9, 2], true), false);
        assert_eq!(queries(&sent), [(B, false), (C, false)]);
        assert_eq!(peer.retained_rows(), 0, "not applied");
        let sent = deliver(&mut peer, B, answer(&rule, s2, B, [8, 2], true), false);
        assert!(queries(&sent).is_empty(), "asked already: {sent:?}");
        deliver(&mut peer, C, fixpoint(s2), false);

        // Held again; now C loses the head's mark through a notice that
        // reaches the head in another session than the push does.
        assert_eq!(peer.retained_entries().1, 2);
        let (s3, s4) = (SessionId::new(B, 3), SessionId::new(C, 4));
        for session in [s3, s4] {
            let flood = ProtocolMsg::UpdateFlood { session };
            assert!(queries(&deliver(&mut peer, session.root, flood, false)).is_empty());
        }
        deliver(&mut peer, C, ProtocolMsg::CursorVoid { session: s3 }, false);
        let sent = deliver(&mut peer, C, answer(&rule, s4, C, [2, 4], true), false);
        assert_eq!(queries(&sent), [(C, false)], "this session asks too");
        assert_eq!(peer.database().total_tuples(), 1, "a(1,3) only");

        // The rule goes away outside any session: the cursor is orphaned.
        peer.rules.remove(&rule.id);
        peer.forget_rule(rule.id, None);
        let live = peer.session_table_len();
        let s5 = SessionId::new(NodeId(9), 5);
        let sent = deliver(&mut peer, B, answer(&rule, s5, B, [6, 2], true), false);
        assert!(
            matches!(&sent[..], [ProtocolMsg::Unsubscribe { rule: id, .. }, ProtocolMsg::Ack { .. }] if *id == rule.id),
            "{sent:?}"
        );
        assert_eq!(
            peer.session_table_len(),
            live,
            "and no session state for it"
        );
    }

    /// A Dijkstra–Scholten deficit never goes negative: an acknowledgement
    /// no send of a live session accounts for is a protocol error and is
    /// reported as one — except at a peer that crashed, whose pre-crash
    /// sends may still be acknowledged after it forgot them.
    #[test]
    fn acknowledgement_without_a_send_is_reported() {
        let (mut peer, rule) = head_over_two_body_nodes();
        let s1 = SessionId::new(B, 1);
        // Both queries acknowledged, the answers outstanding: zero deficit.
        deliver(
            &mut peer,
            B,
            ProtocolMsg::UpdateFlood { session: s1 },
            false,
        );
        deliver(&mut peer, B, answer(&rule, s1, B, [1, 2], false), false);
        assert!(peer.errors().is_empty());
        deliver(&mut peer, C, ProtocolMsg::Ack { session: s1 }, false);
        assert_eq!(peer.errors().len(), 1, "{:?}", peer.errors());

        peer.crash_volatile_state();
        let s2 = SessionId::new(B, 2);
        deliver(
            &mut peer,
            B,
            ProtocolMsg::UpdateFlood { session: s2 },
            false,
        );
        deliver(&mut peer, B, answer(&rule, s2, B, [1, 2], false), false);
        deliver(&mut peer, C, ProtocolMsg::Ack { session: s2 }, false);
        assert_eq!(peer.errors().len(), 1, "tolerated after a crash");
    }

    /// The body side of the cursor-void notice: a restarted peer sends it
    /// to every pipe with the first flood it sees, keeps owing it while no
    /// session that carried it retires — a lost notice is never
    /// acknowledged, so that session cannot terminate and commits nothing —
    /// and stops once one does.
    #[test]
    fn cursor_void_notice_is_owed_until_a_session_carrying_it_retires() {
        let schema = DatabaseSchema::parse("b(x: int, y: int).").unwrap();
        let mut peer = DbPeer::new(B, Database::new(schema), SystemConfig::default());
        peer.add_pipe(NodeId(0));
        peer.add_pipe(C);
        let root = NodeId(7);
        let notices = |sent: &[ProtocolMsg]| {
            sent.iter()
                .filter(|m| matches!(m, ProtocolMsg::CursorVoid { .. }))
                .count()
        };
        let flood = |peer: &mut DbPeer, epoch, lost| {
            let session = SessionId::new(root, epoch);
            deliver(peer, root, ProtocolMsg::UpdateFlood { session }, lost)
        };

        assert_eq!(notices(&flood(&mut peer, 1, false)), 0, "nothing to void");
        deliver(&mut peer, root, fixpoint(SessionId::new(root, 1)), false);

        peer.crash_volatile_state();
        let sent = flood(&mut peer, 2, true);
        assert_eq!(notices(&sent), 2, "one per pipe");
        assert!(
            !sent.iter().any(|m| matches!(m, ProtocolMsg::Ack { .. })),
            "unacknowledged, the peer stays engaged: the session stalls"
        );
        // The re-drive carries the notice again, and retires.
        let sent = flood(&mut peer, 3, false);
        assert_eq!(notices(&sent), 2);
        assert!(matches!(sent.last(), Some(ProtocolMsg::Ack { .. })));
        assert!(peer.subscriptions.owes_notice(), "sent is not delivered");
        deliver(&mut peer, root, fixpoint(SessionId::new(root, 3)), false);
        assert!(!peer.subscriptions.owes_notice());
        assert_eq!(notices(&flood(&mut peer, 4, false)), 0);
    }

    /// Build-time state exists once. Peers declared with one schema text
    /// share its signatures; each peer holds the builder's own rule `Arc`,
    /// and every peer the build's one catalog; on the simulator a body
    /// peer's cursor holds the head rule's fragment, the plan that fragment
    /// holds and the head the rule holds are the catalog's; and a rule
    /// replaced under its id (the `DeleteRule`/`AddRule` path) holds its
    /// plans and its head anew, again the catalog's.
    #[test]
    fn build_time_state_is_shared_not_copied() {
        use crate::dynamic::{ChangeOp, ChangeScript};
        use crate::system::{P2PSystemBuilder, RunSpec};
        let mut b = P2PSystemBuilder::new();
        for id in 0..3 {
            b.add_node_with_schema(id, "r(x: int, y: int).").unwrap();
        }
        let rid = b.add_rule("r", "B:r(X,Y) => A:r(X,Y)").unwrap();
        for (x, y) in [(1, 2), (3, 4)] {
            b.insert(1, "r", vec![Val::Int(x), Val::Int(y)]).unwrap();
        }
        let (a, body) = (NodeId(0), NodeId(1));

        let peers = b.build_peers().unwrap();
        let signature = |p: &DbPeer| {
            let declared = p.db.schema().relations().next().unwrap().clone();
            let held = p.db.relation("r").unwrap().schema() as *const _;
            assert!(
                std::ptr::eq(held, &*declared),
                "a relation holds its schema's"
            );
            declared
        };
        let first = signature(&peers[0].1);
        for (_, peer) in &peers[1..] {
            assert!(Arc::ptr_eq(&signature(peer), &first));
        }
        let built = b.rules().get(rid).unwrap();
        assert!(Arc::ptr_eq(&peers[0].1.rules[&rid], built));
        for (_, peer) in &peers[1..] {
            assert!(Arc::ptr_eq(
                &peer.compiled.catalog,
                &peers[0].1.compiled.catalog
            ));
        }
        // What `rule` holds is the catalog's.
        let from_catalog = |head: &DbPeer, served: &DbPeer, rule: &CoordinationRule| {
            let part = &rule.parts[0];
            let (atoms, constraints) = (&part.atoms, &part.local_constraints);
            let plan = (served.compiled.catalog.body(atoms, constraints, &served.db)).unwrap();
            let compiled = catalog::held_head(rule).expect("a head held");
            let shared =
                (head
                    .compiled
                    .catalog
                    .head(&rule.head, compiled.vars(), head.db.schema()))
                .unwrap();
            let held = catalog::held_body(part, &served.db).expect("a plan held");
            Arc::ptr_eq(&held.full, &plan.full) && Arc::ptr_eq(compiled, &shared)
        };

        let mut sys = b.build().unwrap();
        assert!(sys.run_update().all_closed);
        let old = Arc::clone(&sys.peer(a).unwrap().rules[&rid]);
        let served = sys.peer(body).unwrap();
        assert!(Arc::ptr_eq(
            &served.subscriptions.cursor((a, rid)).unwrap().part,
            &old.parts[0]
        ));
        assert!(from_catalog(sys.peer(a).unwrap(), served, &old));

        let old_head = Arc::clone(catalog::held_head(&old).unwrap());
        let old_plan = Arc::clone(&catalog::held_body(&old.parts[0], &served.db).unwrap().full);

        let mut script = ChangeScript::new();
        let del = sys.make_delete_link("r").unwrap();
        script.push(SimTime::from_millis(20), del);
        let mut swapped = sys
            .make_add_link("r", "B:r(X,Y), X > 1 => A:r(Y,X)")
            .unwrap();
        if let ChangeOp::AddLink { rule } = &mut swapped {
            rule.id = rid;
        }
        script.push(SimTime::from_millis(40), swapped);
        let report = sys
            .run(&RunSpec {
                script,
                ..Default::default()
            })
            .remove(0);
        assert!(report.all_closed && report.errors.is_empty(), "{report:?}");
        let head = sys.peer(a).unwrap();
        let new = &head.rules[&rid];
        assert!(!Arc::ptr_eq(new, &old));
        let served = sys.peer(body).unwrap();
        assert!(from_catalog(head, served, new), "head and plan taken anew");
        assert!(!Arc::ptr_eq(catalog::held_head(new).unwrap(), &old_head));
        let new_plan = &catalog::held_body(&new.parts[0], &served.db).unwrap().full;
        assert!(!Arc::ptr_eq(new_plan, &old_plan));
        let r = head.db.relation("r").unwrap();
        assert!(
            r.contains(&[Val::Int(4), Val::Int(3)]),
            "new body not applied: {r}"
        );
        assert!(
            !r.contains(&[Val::Int(2), Val::Int(1)]),
            "new constraint ignored: {r}"
        );
    }
}
