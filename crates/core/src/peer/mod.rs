//! The peer state machine.
//!
//! One [`DbPeer`] per node implements `p2p_net::Peer<ProtocolMsg>` and runs
//! every protocol of the paper:
//!
//! * topology discovery (algorithms A1–A3) — [`discovery`];
//! * the eager (asynchronous) distributed update (A4–A6 with
//!   subscription-based re-answering and Dijkstra–Scholten termination) —
//!   [`eager`];
//! * the synchronous rounds update (the paper's "synchronous alternative")
//!   — [`rounds`];
//! * super-peer duties (driving, dynamic changes, statistics collection,
//!   rule-file broadcast — Section 5) — [`superpeer`];
//! * durable peers: WAL logging, crash recovery from storage, and the
//!   watermark-based resync protocol — [`durability`].
//!
//! ## Concurrent update sessions
//!
//! The update session is a first-class object: every session-tagged message
//! carries a [`SessionId`] `(root, epoch)` and is routed to that session's
//! entry in the peer's `DbPeer::sessions` table. Any number of sessions —
//! initiated by any nodes — run interleaved. Entries are **retired** when
//! the session's terminal broadcast lands (`Fixpoint` in eager mode,
//! `RoundsClosed` in rounds mode) — the table must be empty again after
//! every session reaches its fix-point, so interleaving leaks no state. A
//! message of a newer same-root session retires any stranded state of older
//! epochs (the churn-redrive path).
//!
//! ## What is per session and what is per peer
//!
//! **Per session** ([`SessionState`]) is what decides when *this* diffusing
//! computation is over, and what is still in flight within it: the closure
//! flags, which fragments the session listens to and which of them it
//! queried, the session's own Dijkstra–Scholten detector, rounds mode's echo
//! tree and round counter, and each served subscription's `sent` filter and
//! its not yet committed watermarks. Both update modes keep the last two in
//! the same tables (`SessionState::parts`, `SessionState::subs`).
//!
//! **Per peer** is what a session leaves behind for the next one, under
//! either mode, so that a session costs what changed, not what exists:
//!
//! * body side, `DbPeer::cursors` — per `(subscriber, rule)`, the
//!   watermarks up to which that subscriber holds the fragment's extension,
//!   fingerprinted by the fragment like `DbPeer::plans`. It exists from the
//!   first subscription on (at zero: "holds nothing"), and it **is** the
//!   subscription between sessions;
//! * head side, `DbPeer::held` — the `(rule, body node)` fragments this
//!   peer holds everything it was shipped of — and, for rules with more
//!   than one body node only, `DbPeer::fragments`: the accumulated
//!   extension the other fragments' deltas are joined against. A
//!   single-fragment rule chases each delta into the database and keeps
//!   nothing.
//!
//! **Both ends commit only when the session that carried the rows retires**
//! (`DbPeer::finish_session_event`), never at send or receive time: the
//! body node its cursor, the head its `held` mark — and only for a fragment
//! that session *queried*. The terminal broadcast certifies that every
//! answer of the session was applied: an eager `Fixpoint` follows
//! Dijkstra–Scholten termination, which guarantees every query, answer and
//! notice was delivered; a `RoundsClosed` follows a clean round, in which
//! every head took its last answers in, after asking afresh for any
//! fragment whose answer an earlier round missed ([`rounds`]). A dropped
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
//! Four rules keep silence unambiguous:
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
//! 2. **A push is only as good as the head's `held` mark.** A head does not
//!    apply a `pushed` answer for a fragment it does not hold (the rule was
//!    replaced, the head restarted and its resync is not through, a notice
//!    voided the mark): it makes sure the session queries the fragment in
//!    full, and where it no longer has the rule at all it answers
//!    `Unsubscribe`, so the orphaned cursor dies.
//! 3. **A cursor that is reset is not removed.** Opening a subscription
//!    from scratch leaves a zero cursor behind, so a head that comes to
//!    hold the fragment through a session whose retirement the body node
//!    missed (a lost broadcast) still finds a standing subscription — one
//!    that ships everything, once. A repair of a fragment this peer has no
//!    cursor for leaves one too, for the same reason.
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
//!    later than the cursor, and the cursor stays.
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
//! (see [`durability`]): the body node resumes from its store, the head
//! from its log plus one delta, and the next session ships what was at
//! risk.
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

pub mod discovery;
pub mod durability;
pub mod eager;
pub mod rounds;
pub mod superpeer;
pub mod tables;

use crate::config::{SystemConfig, UpdateMode};
use crate::messages::{AnswerRows, ProtocolMsg, Via};
use crate::rule::{CoordinationRule, RuleId};
use crate::stats::{ClosedBy, PeerStats};
use crate::termination::{AckDecision, DiffusingState, Disengage};
use p2p_net::{Context, Peer, SessionId, SimTime};
use p2p_relational::chase::{ChaseConfig, ChaseState};
use p2p_relational::fxhash::{FxHashMap, FxHashSet};
use p2p_relational::{ConstCatalog, Database, NullFactory, SymId, Tuple, Val};
use p2p_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// Virtual processing time charged per fragment row a handler evaluates:
/// models query processing and drives the execution-time axis of the
/// experiments.
pub(crate) const COST_PER_TUPLE: SimTime = SimTime(10);

/// Virtual processing time charged per handled message.
pub(crate) const COST_PER_MESSAGE: SimTime = SimTime(50);

pub(crate) use crate::messages::Marks;

pub use discovery::DiscoveryState;
pub use eager::{EagerState, Part, Subscription};
pub use rounds::RoundsState;
pub use superpeer::SuperState;
pub use tables::VecMap;

/// Everything one peer holds for one update session only (see the module
/// docs for what outlives it). One entry per interleaved session lives in
/// `DbPeer::sessions`; the entry is created on first contact with the
/// session's traffic and retired when the session's terminal broadcast
/// lands.
#[derive(Debug, Clone, Default)]
pub struct SessionState {
    /// The fragments this session listens to, per (rule, body node).
    /// Answers are applied only for fragments in here (eager mode), and
    /// replacing or deleting a rule drops its entries. Every entry is either
    /// `queried` by this session or was held when it was registered;
    /// retirement marks the queried ones held
    /// (`DbPeer::finish_session_event`).
    pub parts: VecMap<(RuleId, NodeId), Part>,
    /// Subscriptions served, keyed by (subscriber, rule); retirement commits
    /// each as the cursor of its key.
    pub subs: VecMap<(NodeId, RuleId), Subscription>,
    /// Eager-mode state: fragment completeness, closure flags.
    pub upd: EagerState,
    /// This session's own Dijkstra–Scholten detector — one diffusing
    /// computation per session, as Dijkstra–Scholten intends.
    pub ds: DiffusingState,
    /// Rounds-mode state: round counter, echo tree, awaited answers.
    pub rnd: RoundsState,
    /// Root side: the root already broadcast for the current quiet period.
    /// (The broadcast generation itself lives in
    /// [`SuperState::fixpoint_generation`] so it survives a post-fixpoint
    /// re-wake of the session.)
    pub root_quiet: bool,
    /// Terminal broadcast processed — the dispatcher moves the entry to
    /// `DbPeer::done` instead of re-inserting it.
    pub retired: bool,
}

impl SessionState {
    /// The peer joined this session (as opposed to an entry created as a
    /// side effect of a dropped or ignored message).
    pub fn joined(&self) -> bool {
        self.upd.active || self.rnd.active
    }

    /// `state_u == closed` for this session under the given mode.
    pub fn closed(&self, mode: UpdateMode) -> bool {
        match mode {
            UpdateMode::Eager => self.upd.closed,
            UpdateMode::Rounds => self.rnd.closed,
        }
    }

    /// Currently participating and not yet closed.
    pub fn open(&self, mode: UpdateMode) -> bool {
        self.joined() && !self.closed(mode)
    }

    /// Nothing worth keeping: never joined and not engaged in termination
    /// detection. Entries created as a side effect of dropped or ignored
    /// messages are swept through this.
    fn vacant(&self) -> bool {
        !self.joined() && !self.ds.engaged() && self.ds.deficit() == 0
    }
}

/// One rule's cached compiled plans, fingerprinted by the body fragment
/// they were compiled for. Rule ids are minted monotonically, but the
/// fragment equality check makes a stale hit impossible even if an id were
/// ever reused (or if a body peer serves different fragments under one id
/// across sessions).
#[derive(Debug, Clone)]
pub(crate) struct CachedPlans {
    /// The fragment the plans were compiled from.
    pub(crate) part: Arc<crate::rule::BodyPart>,
    /// Full + per-atom delta plans.
    pub(crate) body: crate::joins::CompiledBody,
}

/// One rule's compiled head, for the rule it was compiled from (an
/// `Arc::ptr_eq` fingerprint) and the binding layout it expects.
/// Installing a rule under the id drops the entry
/// ([`DbPeer::forget_rule`]), and the fingerprint makes a stale hit
/// impossible even so: a caller holding another rule under the id never
/// reads this one's head. Rules are shared, so re-installing the very same
/// `Arc` keeps the pointer — and the head it would compile is this one.
#[derive(Debug, Clone)]
pub(crate) struct CachedHead {
    rule: Arc<CoordinationRule>,
    head: crate::joins::CompiledHead,
}

impl CachedHead {
    /// The head of `rule` compiled for bindings over `vars`: the cached one
    /// when it fits, else compiled against `schema` into `cache`.
    fn fetch<'c>(
        cache: &'c mut FxHashMap<RuleId, CachedHead>,
        rule: &Arc<CoordinationRule>,
        vars: &[Arc<str>],
        schema: &p2p_relational::DatabaseSchema,
    ) -> crate::error::CoreResult<&'c mut crate::joins::CompiledHead> {
        use std::collections::hash_map::Entry;
        let cached = match cache.entry(rule.id) {
            Entry::Occupied(hit)
                if Arc::ptr_eq(&hit.get().rule, rule) && hit.get().head.vars() == vars =>
            {
                hit.into_mut()
            }
            entry => {
                let head = crate::joins::CompiledHead::compile(&rule.head, vars, schema)?;
                let rule = rule.clone();
                entry.insert_entry(CachedHead { rule, head }).into_mut()
            }
        };
        Ok(&mut cached.head)
    }
}

/// Body side of a subscription between sessions: how much of one rule
/// fragment one subscriber holds. Committed when a session retires.
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    /// The fragment the watermarks were advanced for (the fingerprint, as
    /// in [`CachedPlans`]), shared with the subscription it was committed
    /// from.
    pub(crate) part: Arc<crate::rule::BodyPart>,
    /// Watermarks of the fragment's relations: the subscriber holds every
    /// row derivable from the facts below them.
    pub(crate) watermarks: Marks,
    /// Rows shipped on the subscription so far, over all its sessions (the
    /// `rows_saved` statistic: what a full re-ship would re-send).
    pub(crate) rows: usize,
}

impl Cursor {
    /// The cursor of a subscriber that holds nothing of `part`: resuming
    /// from it ships the full extension.
    pub(crate) fn zero(part: Arc<crate::rule::BodyPart>) -> Self {
        Cursor {
            part,
            watermarks: Marks::new(),
            rows: 0,
        }
    }
}

/// A deliberate corruption of one peer's subscription state — each the
/// residue of a bug the protocol must not have — for the tests that show
/// the oracle comparison catches it (`tests/proptest_protocol.rs`). Not
/// part of the protocol; nothing in the program seeds one.
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

/// A database peer: local database, coordination rules targeting it, and
/// all protocol state.
#[derive(Debug)]
pub struct DbPeer {
    /// This node's id.
    pub(crate) id: NodeId,
    /// Whether this node is the designated super-peer.
    pub(crate) is_super: bool,
    /// Run configuration (shared across the network).
    pub(crate) config: SystemConfig,
    /// The local database (`LDB`).
    pub(crate) db: Database,
    /// Fresh-null mint for existential head variables.
    pub(crate) nulls: NullFactory,
    /// Chase bookkeeping (null depths).
    pub(crate) chase: ChaseState,
    /// Chase configuration.
    pub(crate) chase_cfg: ChaseConfig,
    /// Coordination rules whose head is this node (the paper: "initially
    /// each node knows all rules of which it is a target"). Shared, so a
    /// handler that needs a rule while it mutates the peer holds a refcount,
    /// not a copy.
    pub(crate) rules: BTreeMap<RuleId, Arc<CoordinationRule>>,
    /// Compiled-plan cache, one entry per rule this peer evaluates a body
    /// fragment for (head rules *and* fragments received via subscriptions
    /// or waves). Validated against the fragment on every hit; invalidated
    /// on `AddRule`/`DeleteRule`/`Unsubscribe`. Volatile: a crash clears it
    /// and the next evaluation recompiles.
    pub(crate) plans: FxHashMap<RuleId, CachedPlans>,
    /// Compiled-head cache, one entry per rule of this peer that derived a
    /// binding. Validated against the rule and the binding layout on every
    /// hit; dropped with the rule. Volatile, like `plans`.
    pub(crate) heads: FxHashMap<RuleId, CachedHead>,
    /// Body side, per `(subscriber, rule)`: the committed delta cursor of
    /// each subscription this peer served (module docs). Bounded by rules ×
    /// neighbours. A durable peer logs every move a subscriber may rely on
    /// (`DbPeer::set_cursor`, `DbPeer::drop_cursor`) and takes the cursors
    /// back from its store at a restart.
    pub(crate) cursors: VecMap<(NodeId, RuleId), Cursor>,
    /// Head side: the `(rule, body node)` fragments of this peer's own
    /// rules of which it holds everything it was shipped — marked when a
    /// session that queried them retires (module docs). Volatile.
    pub(crate) held: BTreeSet<(RuleId, NodeId)>,
    /// Head side, per `(rule, body node)` of the rules with more than one
    /// body node: the rows that body node shipped so far, deduplicated, in
    /// arrival order — the order the semi-naive join stages from, so join
    /// output, insertion order and shipped rows stay deterministic. Every
    /// answer's rows go in through [`crate::joins::VarRows::merge`].
    /// Volatile; a durable peer re-primes it from its answer log.
    pub(crate) fragments: VecMap<(RuleId, NodeId), crate::joins::VarRows>,
    /// Body side: this peer discarded `cursors` without its subscribers
    /// having asked — or came back unable to vouch for them — and owes
    /// every pipe neighbour a
    /// [`ProtocolMsg::CursorVoid`] with the next flood it sees. Cleared when
    /// a session that carried the notice retires (module docs).
    pub(crate) void_owed: bool,
    /// Pipe neighbours (rule sources *and* rule targets, Section 5).
    pub(crate) pipes: BTreeSet<NodeId>,
    /// Whether this node lies on a dependency cycle (used by rounds mode to
    /// decide deferred vs. immediate wave answers; `true` is always safe).
    pub(crate) in_cycle: bool,
    /// Statistics module counters.
    pub(crate) stats: PeerStats,
    /// Discovery protocol state.
    pub(crate) disc: DiscoveryState,
    /// Per-session protocol state, keyed by session identity. The heart of
    /// the concurrent control plane: each interleaved session lives in its
    /// own entry and is retired on fix-point. Flat sorted-vec table
    /// ([`VecMap`]): epochs grow monotonically, so inserts land at the end.
    pub(crate) sessions: VecMap<SessionId, SessionState>,
    /// Sessions that closed and retired here, with the rounds executed
    /// (0 in eager mode) — the summary reports and supersession read.
    pub(crate) done: VecMap<SessionId, u32>,
    /// Super-peer driver state.
    pub(crate) sup: SuperState,
    /// Errors recorded during handlers (runtime handlers cannot return
    /// `Result`; the system driver surfaces these after the run).
    pub(crate) errors: Vec<String>,
    /// Durable store (WAL + snapshots) when `SystemConfig::durability` is
    /// on; `None` = the amnesia baseline, where a crash loses everything.
    /// Boxed, so a peer without one pays a pointer, not the store's size.
    pub(crate) storage: Option<Box<durability::Durable>>,
    /// Repair queries sent after a restart whose answers have not arrived
    /// yet, keyed by the session they repair, with the watermark each was
    /// asked from. While non-empty the peer refuses to close **any**
    /// session (a lost resync message must stall, never silently lose
    /// data) and re-sends on every session (re-)entry — at-least-once
    /// delivery, idempotent at both ends.
    pub(crate) pending_resync: BTreeMap<(SessionId, RuleId, NodeId), Marks>,
    /// Per-pipe dictionary state: the interned symbols each neighbour is
    /// known to know (we shipped them a definition, or they shipped us one).
    /// Drives the first-use dictionary deltas in [`DbPeer::make_answer_rows`]
    /// — each constant string crosses each pipe at most once. Volatile: a
    /// crash forgets it and later answers conservatively re-ship.
    pub(crate) sym_sent: VecMap<NodeId, FxHashSet<SymId>>,
    /// A [`SeededFault`] that does its damage at the next restart.
    pub(crate) armed_fault: Option<SeededFault>,
}

impl DbPeer {
    /// Creates a peer.
    pub fn new(id: NodeId, db: Database, config: SystemConfig) -> Self {
        DbPeer {
            id,
            is_super: false,
            chase_cfg: ChaseConfig {
                max_null_depth: config.max_null_depth,
            },
            config,
            db,
            nulls: NullFactory::new(id.0),
            chase: ChaseState::new(),
            rules: BTreeMap::new(),
            plans: FxHashMap::default(),
            heads: FxHashMap::default(),
            cursors: VecMap::default(),
            held: BTreeSet::new(),
            fragments: VecMap::default(),
            void_owed: false,
            pipes: BTreeSet::new(),
            in_cycle: true,
            stats: PeerStats::default(),
            disc: DiscoveryState::default(),
            sessions: VecMap::default(),
            done: VecMap::default(),
            sup: SuperState::default(),
            errors: Vec::new(),
            storage: None,
            pending_resync: BTreeMap::new(),
            sym_sent: VecMap::default(),
            armed_fault: None,
        }
    }

    /// Marks this node as the designated super-peer (any node may root a
    /// session; the super-peer additionally answers driver commands like
    /// statistics collection and rule broadcast).
    pub fn make_super(&mut self, all_nodes: impl Into<Arc<[NodeId]>>) {
        self.is_super = true;
        self.sup.all_nodes = all_nodes.into();
    }

    /// Installs the node roster. The roster is `Arc`-shared: the system
    /// builder hands every peer the same allocation, so building n peers
    /// costs n refcounts, not n copies of an n-entry list.
    pub fn set_roster(&mut self, all_nodes: impl Into<Arc<[NodeId]>>) {
        self.sup.all_nodes = all_nodes.into();
    }

    /// Installs a rule with head at this node. Whatever was cached under
    /// the id is invalidated (`AddRule` may replace a rule's body); what a
    /// durable peer records for that commits with the running delivery, or
    /// — called from outside one — at the caller's [`DbPeer::commit`].
    pub fn install_rule(&mut self, rule: impl Into<Arc<CoordinationRule>>) {
        let rule = rule.into();
        debug_assert_eq!(rule.head_node, self.id);
        for p in &rule.parts {
            self.pipes.insert(p.node);
        }
        self.forget_rule(rule.id);
        self.rules.insert(rule.id, rule);
    }

    /// Drops what this peer cached for a rule as its head: the compiled
    /// plan and the retained fragment state — in the store too, where the
    /// answer marks logged for the rule would otherwise prime the next
    /// restart with another rule's rows and watermarks — so the next
    /// `Query` of each fragment goes out without `resume`. The live
    /// sessions forget that they queried the rule, and a resync under way
    /// that it was asked for: what their subscriptions still deliver
    /// belongs to the state just dropped.
    pub(crate) fn forget_rule(&mut self, rule: RuleId) {
        self.plans.remove(&rule);
        self.heads.remove(&rule);
        self.log_forget_rule(rule);
        self.pending_resync.retain(|(_, r, _), _| *r != rule);
        self.held.retain(|(r, _)| *r != rule);
        self.fragments.retain(|(r, _), _| *r != rule);
        for st in self.sessions.values_mut() {
            st.parts.retain(|(r, _), _| *r != rule);
        }
    }

    /// Corrupts the subscription state as `fault` describes.
    #[doc(hidden)]
    pub fn seed_fault(&mut self, fault: SeededFault) {
        match fault {
            SeededFault::ForgetVoidNotice => self.void_owed = false,
            SeededFault::HoldEverything => {
                let fragments =
                    (self.rules.values()).flat_map(|r| r.parts.iter().map(move |p| (r.id, p.node)));
                self.held.extend(fragments);
            }
            SeededFault::CursorsToNow => {
                let now: Vec<Marks> = (self.cursors.values())
                    .map(|c| self.part_marks(&c.part))
                    .collect();
                for (cursor, marks) in self.cursors.values_mut().zip(now) {
                    cursor.watermarks = marks;
                }
            }
            SeededFault::RecoveredCursorsToNow | SeededFault::HoldWithoutResync => {
                self.armed_fault = Some(fault)
            }
        }
    }

    /// Registers a pipe neighbour (rule sources learn their targets when the
    /// target opens the pipe).
    pub fn add_pipe(&mut self, neighbor: NodeId) {
        if neighbor != self.id {
            self.pipes.insert(neighbor);
        }
    }

    /// Sets the cyclicity hint: whether this node lies on a dependency
    /// cycle (rounds mode uses it to choose deferred vs. immediate wave
    /// answers; `true` is always safe).
    pub fn set_cycle_hint(&mut self, in_cycle: bool) {
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
        let joined: Vec<&SessionState> = self.sessions.values().filter(|st| st.joined()).collect();
        if joined.is_empty() {
            !self.done.is_empty()
        } else {
            joined.iter().all(|st| st.closed(self.config.mode))
        }
    }

    /// Whether one specific session reached closure at this peer: a live
    /// entry that closed, or a retired one. Peers with rules that were
    /// never reached by the session read `false` (Lemma 1: closed ⇔
    /// fix-point reached *here*).
    pub fn session_closed(&self, sid: SessionId) -> bool {
        match self.sessions.get(&sid) {
            Some(st) => st.joined() && st.closed(self.config.mode),
            None => self.done.contains_key(&sid),
        }
    }

    /// Rounds executed for one session at this peer (0 in eager mode or if
    /// unknown).
    pub fn session_rounds(&self, sid: SessionId) -> u32 {
        match self.sessions.get(&sid) {
            Some(st) => st.rnd.rounds_done,
            None => self.done.get(&sid).copied().unwrap_or(0),
        }
    }

    /// The current round of one session (rounds-mode redrive probe).
    pub fn session_round(&self, sid: SessionId) -> u32 {
        self.sessions.get(&sid).map(|st| st.rnd.round).unwrap_or(0)
    }

    /// Live session-table entries. The retirement invariant every test can
    /// lean on: after all sessions reach their fix-point, this is 0 — no
    /// leaked `DiffusingState`, subscriptions or wave state.
    pub fn session_table_len(&self) -> usize {
        self.sessions.len()
    }

    /// Entries of the two per-peer tables that outlive sessions: committed
    /// subscription cursors and held rule fragments. Bounded by rules ×
    /// neighbours, whatever the number of sessions.
    pub fn retained_entries(&self) -> (usize, usize) {
        (self.cursors.len(), self.held.len())
    }

    /// Fragment rows retained across sessions (rules with more than one
    /// body node only).
    pub fn retained_rows(&self) -> usize {
        self.fragments.values().map(|c| c.rows.len()).sum()
    }

    /// Read access to one live session entry (assertions).
    pub fn session_state(&self, sid: SessionId) -> Option<&SessionState> {
        self.sessions.get(&sid)
    }

    /// Sessions that completed and retired at this peer.
    pub fn sessions_done(&self) -> usize {
        self.done.len()
    }

    /// How the node closed (most recent closure event).
    pub fn closed_by(&self) -> ClosedBy {
        self.stats.closed_by
    }

    /// `state_d == closed`.
    pub fn discovery_closed(&self) -> bool {
        self.disc.state_closed
    }

    /// Whether this node participated in a discovery at all (nodes outside
    /// the initiating owner's dependency-reachable region never do — the
    /// paper's single-owner discovery has exactly this footprint).
    pub fn discovery_started(&self) -> bool {
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

    /// Evaluates one fragment over the local database via the compiled-plan
    /// cache — in full, or `since` some watermarks: only the rows derived
    /// from facts inserted past them — with statistics and processing-cost
    /// accounting.
    pub(crate) fn eval_part_local(
        &mut self,
        rule: RuleId,
        part: &Arc<crate::rule::BodyPart>,
        since: Option<&Marks>,
        ctx: &mut Context<ProtocolMsg>,
    ) -> Vec<Tuple> {
        self.stats.local_evaluations += 1;
        match self.eval_part_rows(rule, part, since) {
            Ok(rows) => {
                let cost = p2p_net::SimTime(COST_PER_TUPLE.as_micros() * rows.len() as u64);
                ctx.charge(cost);
                rows
            }
            Err(e) => {
                self.fail(format!("fragment evaluation failed: {e}"));
                Vec::new()
            }
        }
    }

    /// The plan-cache path of [`DbPeer::eval_part_local`]: fetch (or
    /// compile) the fragment's [`crate::joins::CompiledBody`], create the
    /// persistent indexes the executed plans probe where missing, execute,
    /// and fold the work counters into [`PeerStats`]. `watermarks: None` is
    /// full evaluation; `Some(w)` the semi-naive delta.
    fn eval_part_rows(
        &mut self,
        rule: RuleId,
        part: &Arc<crate::rule::BodyPart>,
        watermarks: Option<&Marks>,
    ) -> crate::error::CoreResult<Vec<Tuple>> {
        use std::collections::hash_map::Entry;
        // Disjoint field borrows: the cached plan is read while the
        // database is mutably borrowed (index creation only).
        let DbPeer {
            plans, db, stats, ..
        } = self;
        let cached = match plans.entry(rule) {
            Entry::Occupied(hit) if hit.get().part == *part => {
                stats.plan_cache_hits += 1;
                hit.into_mut()
            }
            // First evaluation of this rule, or a different fragment under
            // its id: compile and (re)place.
            entry => entry
                .insert_entry(CachedPlans {
                    part: part.clone(),
                    body: crate::joins::compile_part(part, db)?,
                })
                .into_mut(),
        };
        let mut metrics = crate::joins::EvalMetrics::default();
        let rows = match watermarks {
            Some(w) => {
                crate::joins::eval_part_delta_planned(&cached.body, part, db, w, true, &mut metrics)
            }
            None => crate::joins::eval_part_planned(&cached.body, part, db, true, &mut metrics),
        };
        stats.rows_scanned += metrics.rows_scanned;
        stats.index_probes += metrics.index_probes;
        rows
    }

    /// The local database's insertion watermarks of the relations `part`
    /// reads — the cursor currency of every delta stream. Other relations
    /// cannot change the fragment's extension, and a missing entry already
    /// reads as "the whole relation is new", so nothing else is carried.
    pub(crate) fn part_marks(&self, part: &crate::rule::BodyPart) -> Marks {
        part.atoms
            .iter()
            .filter_map(|a| {
                let len = self.db.relation(&a.relation).ok()?.len();
                Some((a.relation.clone(), len))
            })
            .collect()
    }

    /// Whether some relation `part` reads holds a row count other than its
    /// entry in `marks` (a missing entry included): only then can a delta
    /// from `marks` be non-empty, or [`DbPeer::part_marks`] read anything
    /// but `marks`. A relation the database lacks counts, so that evaluation
    /// reports it.
    pub(crate) fn grew_past(&self, part: &crate::rule::BodyPart, marks: &Marks) -> bool {
        part.atoms
            .iter()
            .any(|a| match self.db.relation(&a.relation) {
                Ok(relation) => marks.get(&a.relation) != Some(&relation.len()),
                Err(_) => true,
            })
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
        vars: &[Arc<str>],
        rows: &[Tuple],
    ) -> usize {
        let Some(rule) = self.rules.get(&rule_id).cloned() else {
            return 0;
        };
        let rows = rows.iter().map(|t| &t.0[..]);
        if rule.parts.len() == 1 {
            let holds = crate::joins::join_filter(vars, &rule.join_constraints);
            return self.apply_rule_bindings(&rule, vars, rows.filter(|row| holds(row)));
        }
        let cache = self.fragments.or_default((rule_id, from));
        let Some(since) = cache.merge(vars, rows) else {
            return 0;
        };
        let empty = crate::joins::VarRows::default();
        let staged: Vec<crate::joins::PartDelta<'_>> = (rule.parts.iter())
            .map(|p| {
                let full = self.fragments.get(&(rule_id, p.node)).unwrap_or(&empty);
                crate::joins::PartDelta {
                    full: full.view(),
                    since: if p.node == from {
                        since
                    } else {
                        full.rows.len()
                    },
                }
            })
            .collect();
        let bindings = crate::joins::join_parts_seminaive(&staged, &rule.join_constraints);
        self.apply_rule_bindings(&rule, &bindings.vars, bindings.rows.iter())
    }

    /// Chases already-joined binding rows over `vars` for `rule` into the
    /// local database through the rule's cached
    /// [`crate::joins::CompiledHead`], compiling it on the first binding
    /// (or when the rule or the binding layout changed). Returns the number
    /// of facts inserted.
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
        let DbPeer {
            heads,
            db,
            nulls,
            chase,
            chase_cfg,
            ..
        } = self;
        let outcome = CachedHead::fetch(heads, rule, vars, db.schema())
            .and_then(|head| Ok(head.apply_rows(db, rows, nulls, chase, chase_cfg)?));
        match outcome {
            Ok(outcome) => {
                self.stats.tuples_inserted += outcome.inserted.len() as u64;
                self.stats.nulls_minted += outcome.nulls_minted as u64;
                self.log_insertions(&outcome.inserted);
                outcome.inserted.len()
            }
            Err(e) => {
                self.fail(format!("rule {} application failed: {e}", rule.name));
                0
            }
        }
    }

    /// Builds the [`crate::messages::AnswerRows`] payload for shipping to
    /// `to`: collects chase depths of any nulls on board and attaches the
    /// first-use dictionary delta — `(symbol, string)` definitions for
    /// interned constants this peer has never shipped down that pipe.
    pub(crate) fn make_answer_rows(
        &mut self,
        to: NodeId,
        part: &crate::rule::BodyPart,
        rows: Vec<Tuple>,
    ) -> crate::messages::AnswerRows {
        let mut null_depths = Vec::new();
        let mut seen = HashSet::new();
        for t in &rows {
            for (id, depth) in self.chase.depths_for(t) {
                if seen.insert(id) {
                    null_depths.push((id, depth));
                }
            }
        }
        let known = self.sym_sent.or_default(to);
        let fresh: Vec<SymId> = rows
            .iter()
            .flat_map(|t| t.values())
            .filter_map(Val::as_sym)
            .filter(|id| known.insert(*id))
            .collect();
        let dict = ConstCatalog::global().export(fresh);
        self.stats.dict_entries_sent += dict.len() as u64;
        crate::messages::AnswerRows {
            vars: part.vars.clone(),
            rows,
            null_depths,
            dict,
            // With durability on, the answerer's current watermarks ride
            // along so durable receivers can log a resync cursor (see
            // `peer::durability`). Without it nobody would log them, so the
            // map (and its wire bytes) stays empty.
            marks: if self.config.durability {
                self.part_marks(part)
            } else {
                BTreeMap::new()
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
            for tuple in &mut rows.rows {
                if tuple.values().any(|v| remap.val(*v) != *v) {
                    *tuple = Tuple::new(tuple.values().map(|v| remap.val(*v)).collect());
                }
            }
            for (id, _) in &mut rows.dict {
                *id = remap.map(*id);
            }
        }
        let known = self.sym_sent.or_default(from);
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

    /// True iff traffic of `sid` is stale here: a newer session of the same
    /// root is already known (live or completed) — the supersession
    /// relation that retires churn-stranded epochs. `SessionId` orders
    /// root-first, so one range probe past `sid` answers this in
    /// O(log sessions) instead of scanning both maps.
    fn session_is_stale(&self, sid: SessionId) -> bool {
        fn newer_same_root<V>(map: &VecMap<SessionId, V>, sid: SessionId) -> bool {
            map.range((
                std::ops::Bound::Excluded(sid),
                std::ops::Bound::Included(SessionId::new(sid.root, u64::MAX)),
            ))
            .next()
            .is_some()
        }
        newer_same_root(&self.sessions, sid) || newer_same_root(&self.done, sid)
    }

    /// Retires live entries of older same-root sessions when `sid`'s first
    /// message arrives: a churn-stranded epoch can leave a permanent
    /// Dijkstra–Scholten deficit (acks addressed to a crashed peer were
    /// dropped), which would otherwise leak and wedge nothing — but the
    /// table must not grow without bound. Re-drives start from quiescence,
    /// so nothing of the old session is in flight and dropping is safe.
    fn supersede_older(&mut self, sid: SessionId) {
        let older: Vec<SessionId> = self
            .sessions
            .range(SessionId::new(sid.root, 0)..sid)
            .map(|(k, _)| *k)
            .collect();
        for k in older {
            self.sessions.remove(&k);
        }
    }

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

    /// Re-inserts a session entry after an event, retiring it if its
    /// terminal broadcast was processed and sweeping placeholder entries
    /// that hold nothing. The `done` summary keeps only the newest
    /// completed epoch per root — staleness and reporting both read the
    /// newest entry, so a long-lived system's summary stays bounded by its
    /// root count, not its session count.
    ///
    /// Retirement is also where the session **commits** (module docs), under
    /// either mode — its subscriptions their cursors, its queried fragments
    /// as held, its cursor-void notice as delivered: the terminal broadcast
    /// certifies that every answer was applied, and every notice delivered.
    ///
    /// Only a fragment the session **queried** becomes held. The others in
    /// `parts` were registered because they were held already, and a rule
    /// change or a cursor-void notice that un-held one since must stay in
    /// force: each either dropped the entry (`DbPeer::forget_rule`) or had
    /// this session query the fragment after all, or the next session will.
    fn finish_session_event(&mut self, sid: SessionId, st: SessionState) {
        if st.retired {
            if !self.config.paper_faithful {
                let queried = st.parts.iter().filter(|(_, part)| part.queried);
                self.held.extend(queried.map(|(key, _)| *key));
                if st.upd.void_sent {
                    self.void_owed = false;
                }
                for (key, sub) in st.subs {
                    // Interleaved sessions retire in any order; watermarks
                    // are snapshots of one growing database, so the later
                    // snapshot dominates and is the one to keep.
                    let newer = self.cursors.get(&key).is_none_or(|c| {
                        c.part != sub.part
                            || c.watermarks
                                .iter()
                                .all(|(rel, w)| sub.watermarks.get(rel).is_some_and(|n| n >= w))
                    });
                    if newer {
                        let shipped = !sub.sent.is_empty();
                        let cursor = Cursor {
                            rows: sub.resumed_rows + sub.sent.len(),
                            part: sub.part,
                            watermarks: sub.watermarks,
                        };
                        self.set_cursor(key, cursor, shipped);
                    }
                }
            }
            let superseded: Vec<SessionId> = self
                .done
                .range(SessionId::new(sid.root, 0)..sid)
                .map(|(k, _)| *k)
                .collect();
            for k in superseded {
                self.done.remove(&k);
            }
            self.done.insert(sid, st.rnd.rounds_done);
            // The last live session gone, its slot goes too: a table kept
            // at capacity would hold a whole `SessionState` per peer
            // between sessions. (`VecMap::remove`, on every message, keeps
            // the capacity the next re-insert needs.)
            if self.sessions.is_empty() {
                self.sessions = VecMap::default();
            }
        } else if !st.vacant() {
            self.sessions.insert(sid, st);
        }
    }

    /// Dijkstra–Scholten ack fast path: debits the session's detector.
    fn on_ack(&mut self, from: NodeId, sid: SessionId, ctx: &mut Context<ProtocolMsg>) {
        if let Some(mut st) = self.sessions.remove(&sid) {
            self.debit(&mut st, from, sid, true);
            self.after_event(&mut st, sid, ctx);
            self.finish_session_event(sid, st);
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
        // run on a detached session state — a dropped repair would leave
        // `pending_resync` outstanding forever and wedge every later
        // closure.
        let repair = msg.via() == Some(Via::Repair);
        let retired = self.done.contains_key(&sid) && !Self::can_rewake(&msg);
        if !repair && (retired || self.session_is_stale(sid)) {
            self.acknowledge_stale(from, sid, msg, ctx);
            return;
        }
        let (mut st, mut completed) = (SessionState::default(), None);
        if !repair {
            self.supersede_older(sid);
            completed = self.done.remove(&sid);
            st = self.sessions.remove(&sid).unwrap_or_default();
        }
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
        match completed {
            // The message could have re-woken the completed session but did
            // not (a `DeleteRule` re-joins nothing): it is still complete.
            Some(rounds) if st.vacant() => {
                self.done.insert(sid, rounds);
            }
            _ => self.finish_session_event(sid, st),
        }
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

/// Each delivery and each restart ends in [`DbPeer::commit`]: what it
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Answer, Query, Start};
    use p2p_relational::DatabaseSchema;

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
            CoordinationRule::parse("r", text, None, &resolve)
                .unwrap()
                .parts
                .remove(0)
        };
        let (old, new) = (
            part("B:b(X,Y) => A:a(X,Y)"),
            part("B:b(X,Y), X > 1 => A:a(X,Y)"),
        );
        let id = RuleId(7);

        assert_eq!(peer.eval_part_rows(id, &old, None).unwrap().len(), 2);
        assert_eq!(peer.stats.plan_cache_hits, 0);
        assert_eq!(peer.eval_part_rows(id, &old, None).unwrap().len(), 2);
        assert_eq!(peer.stats.plan_cache_hits, 1, "same fragment: served");
        // Same id, different fragment: recompiled, not served stale.
        let rows = peer.eval_part_rows(id, &new, None).unwrap();
        assert_eq!(rows, vec![Tuple::new(vec![Val::Int(7), Val::Int(8)])]);
        assert_eq!(peer.stats.plan_cache_hits, 1);
        assert_eq!(peer.eval_part_rows(id, &new, None).unwrap(), rows);
        assert_eq!(peer.stats.plan_cache_hits, 2);
    }

    /// The body side of one subscription over three sessions: the cursor
    /// exists from first contact on — at zero, "the subscriber holds
    /// nothing" — and moves when the session retires (not when the answer
    /// is sent), a `resume` query is then served the delta, and a `resume`
    /// query for a different fragment under the same rule id is served in
    /// full.
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
            CoordinationRule::parse("r", text, None, &resolve)
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
            let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(1));
            let from = if resume { Start::Resume } else { Start::Fresh };
            let query = Query {
                sn: vec![head],
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
            peer.cursors[&(head, rule)].watermarks.is_empty(),
            "sent is not committed"
        );
        assert_eq!(
            session(&mut peer, &copy, true, true),
            1,
            "resumed from zero: everything"
        );
        assert!(
            !peer.cursors[&(head, rule)].watermarks.is_empty(),
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
        let mut rule = CoordinationRule::parse("r", text, None, &resolve).unwrap();
        rule.id = RuleId(id);
        rule
    }

    /// Delivers one message; acknowledges every basic message the handler
    /// sent unless `lost`; returns what the peer sent, handling the
    /// acknowledgements included.
    fn deliver(peer: &mut DbPeer, from: NodeId, msg: ProtocolMsg, lost: bool) -> Vec<ProtocolMsg> {
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, peer.id);
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
            rows: vec![Tuple::new(row.map(Val::Int).to_vec())],
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
            sn: vec![rule.head_node],
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
            rows: vec![Tuple::new(vec![Val::Int(1), Val::Int(2)])],
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
            peer.pending_resync.insert((s, of_a.id, B), Marks::new());
            let state = |peer: &DbPeer| {
                let deficit = peer.session_state(s).unwrap().ds.deficit();
                (
                    deficit,
                    peer.pending_resync.len(),
                    peer.database().total_tuples(),
                )
            };
            let before = state(&peer);

            let mut ragged = rows.clone();
            ragged.rows.push(Tuple::new(vec![Val::Int(9); wide]));
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
        assert_eq!(peer.session_state(s).unwrap().ds.deficit(), 1, "A's answer");
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
        let st = head.session_state(SessionId::new(A, 1)).unwrap();
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
        let deficit = |peer: &DbPeer| peer.session_state(s).unwrap().ds.deficit();

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
        assert!(peer.session_closed(s2) && peer.session_state(s2).is_none());
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
        peer.forget_rule(rule.id);
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
        assert!(peer.void_owed, "sent is not delivered");
        deliver(&mut peer, root, fixpoint(SessionId::new(root, 3)), false);
        assert!(!peer.void_owed);
        assert_eq!(notices(&flood(&mut peer, 4, false)), 0);
    }

    /// Build-time state exists once. Peers declared with one schema text
    /// share its signatures; each peer holds the builder's own rule `Arc`;
    /// on the simulator a body peer's cursor and plan cache hold the head
    /// rule's fragment; and a rule replaced under its id (the
    /// `DeleteRule`/`AddRule` path) still gets its plans and its head
    /// compiled anew.
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

        let mut sys = b.build().unwrap();
        assert!(sys.run_update().all_closed);
        let old = Arc::clone(&sys.peer(a).unwrap().rules[&rid]);
        let served = sys.peer(body).unwrap();
        assert!(Arc::ptr_eq(&served.cursors[&(a, rid)].part, &old.parts[0]));
        assert!(Arc::ptr_eq(&served.plans[&rid].part, &old.parts[0]));

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
        assert!(Arc::ptr_eq(&head.heads[&rid].rule, new), "head recompiled");
        let served = sys.peer(body).unwrap();
        assert!(
            Arc::ptr_eq(&served.plans[&rid].part, &new.parts[0]),
            "plan recompiled"
        );
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
