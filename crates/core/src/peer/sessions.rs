//! The session table: what a peer holds for each interleaved update
//! session ([`SessionState`]), the summary of the sessions that retired
//! here and supersession between epochs of one root, and the driver state
//! of the sessions this node roots — one owner, [`Sessions`], whose
//! methods are the only code that reads or writes them.

use super::{EagerState, Part, RoundsState, Subscription, VecMap};
use crate::config::UpdateMode;
use crate::rule::RuleId;
use crate::stats::PeerStats;
use crate::termination::DiffusingState;
use p2p_net::SessionId;
use p2p_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything one peer holds for one update session only (see the
/// [`crate::peer`] module docs for what outlives it). One entry per
/// interleaved session lives in the session table; the entry is created on
/// first contact with the session's traffic and retired when the session's
/// terminal broadcast lands.
#[derive(Debug, Clone, Default)]
pub struct SessionState {
    /// The fragments this session listens to, per (rule, body node).
    /// Answers are applied only for fragments in here (eager mode), and
    /// replacing or deleting a rule drops its entries. Every entry is either
    /// `queried` by this session or was held when it was registered;
    /// retirement marks the queried ones held.
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
    /// (The broadcast generation itself lives outside the entry, so it
    /// survives a post-fixpoint re-wake of the session.)
    pub root_quiet: bool,
    /// Terminal broadcast processed — the entry retires instead of going
    /// back into the table.
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

/// A peer's sessions and the driver state of the ones it roots.
#[derive(Debug, Default)]
pub(crate) struct Sessions {
    /// The live table, keyed by session identity: each interleaved session
    /// in its own entry, taken out while a message of it is handled. Flat
    /// ([`VecMap`]): epochs grow monotonically, so inserts land at the end.
    live: VecMap<SessionId, SessionState>,
    /// Sessions that closed and retired here, with the rounds executed (0
    /// in eager mode) — the newest epoch per root only.
    done: VecMap<SessionId, u32>,
    /// Whether this node is the designated super-peer.
    is_super: bool,
    /// Full node roster (installed at build time on every peer, so any node
    /// can root a session and broadcast its fix-point). One shared
    /// allocation across all peers — at 10k+ nodes a per-peer copy would be
    /// O(n²) build memory.
    all_nodes: Arc<[NodeId]>,
    /// The most recent session rooted at this node (dynamic-change
    /// notifications are routed within it).
    rooted: Option<SessionId>,
    /// Fix-point broadcast generation of the session this node currently
    /// roots. Lives outside the session entry on purpose: a post-fixpoint
    /// dynamic change re-creates the retired entry, and the re-quiesce
    /// broadcast must carry a generation **strictly above** the original
    /// one — otherwise a still-in-flight copy of the old broadcast would be
    /// indistinguishable from the new one. Reset when a new session starts.
    generation: u32,
    /// Stats gathered from peers on `CollectStats` (the super-peer).
    collected: BTreeMap<NodeId, PeerStats>,
}

impl Sessions {
    /// Traffic of `sid` is stale here: a newer session of the same root is
    /// known, live or retired — the supersession that retires
    /// churn-stranded epochs. `SessionId` orders root-first, so one range
    /// probe per map past `sid` answers it.
    pub(crate) fn is_stale(&self, sid: SessionId) -> bool {
        fn newer_same_root<V>(map: &VecMap<SessionId, V>, sid: SessionId) -> bool {
            map.range((
                std::ops::Bound::Excluded(sid),
                std::ops::Bound::Included(SessionId::new(sid.root, u64::MAX)),
            ))
            .next()
            .is_some()
        }
        newer_same_root(&self.live, sid) || newer_same_root(&self.done, sid)
    }

    /// Takes `sid`'s entry out to handle a message of it (a fresh one on
    /// first contact), with its rounds if it had retired here. Live entries
    /// of older same-root epochs go: a churn-stranded epoch can keep a
    /// Dijkstra–Scholten deficit forever (acks addressed to a crashed peer
    /// were dropped), and a re-drive starts from quiescence.
    pub(crate) fn take(&mut self, sid: SessionId) -> (SessionState, Option<u32>) {
        let older: Vec<SessionId> = (self.live.range(SessionId::new(sid.root, 0)..sid))
            .map(|(k, _)| *k)
            .collect();
        for k in older {
            self.live.remove(&k);
        }
        let completed = self.done.remove(&sid);
        (self.live.remove(&sid).unwrap_or_default(), completed)
    }

    /// Takes `sid`'s live entry out, if there is one (an `Ack`).
    pub(crate) fn take_live(&mut self, sid: SessionId) -> Option<SessionState> {
        self.live.remove(&sid)
    }

    /// Takes `sid`'s entry out, live or retired, un-retired: a dynamic
    /// change at the session's root re-opens it.
    pub(crate) fn reopen(&mut self, sid: SessionId) -> SessionState {
        self.done.remove(&sid);
        let mut st = self.live.remove(&sid).unwrap_or_default();
        st.retired = false;
        st
    }

    /// Puts a handled entry back and returns it if it retires — its
    /// terminal broadcast was processed — for its commit. The summary of
    /// retired sessions keeps the newest epoch per root only, so it stays
    /// bounded by the root count; an entry holding nothing is swept.
    /// `completed`: the entry had retired before the message, which then
    /// re-woke nothing.
    pub(crate) fn finish(
        &mut self,
        sid: SessionId,
        st: SessionState,
        completed: Option<u32>,
    ) -> Option<SessionState> {
        if let Some(rounds) = completed.filter(|_| st.vacant()) {
            self.done.insert(sid, rounds);
            return None;
        }
        if !st.retired {
            if !st.vacant() {
                self.live.insert(sid, st);
            }
            return None;
        }
        loop {
            let superseded = self.done.range(SessionId::new(sid.root, 0)..sid).next();
            let Some(k) = superseded.map(|(k, _)| *k) else {
                break;
            };
            self.done.remove(&k);
        }
        self.done.insert(sid, st.rnd.rounds_done);
        // The last live session gone, its slot goes too: a table kept at
        // capacity would hold a whole `SessionState` per peer between
        // sessions. (`VecMap::remove`, on every message, keeps the capacity
        // the next re-insert needs.)
        if self.live.is_empty() {
            self.live = VecMap::default();
        }
        Some(st)
    }

    /// Every live session: `handled`, the one taken out while it is
    /// handled, and the table's.
    pub(crate) fn live_mut<'a>(
        &'a mut self,
        handled: Option<&'a mut SessionState>,
    ) -> impl Iterator<Item = &'a mut SessionState> {
        handled.into_iter().chain(self.live.values_mut())
    }

    /// Rule 4 in every live session: an answer still in flight for the
    /// replaced or deleted `rule` is neither applied nor lets its session
    /// commit the fragment as held.
    pub(crate) fn forget_rule(&mut self, rule: RuleId, handled: Option<&mut SessionState>) {
        for st in self.live_mut(handled) {
            st.parts.retain(|(r, _), _| *r != rule);
        }
    }

    /// Drops every session, live and retired: a crash, or a rule-file
    /// broadcast.
    pub(crate) fn discard(&mut self) {
        self.live.clear();
        self.done.clear();
    }

    pub(crate) fn get(&self, sid: SessionId) -> Option<&SessionState> {
        self.live.get(&sid)
    }

    pub(crate) fn live(&self) -> impl Iterator<Item = &SessionState> {
        self.live.values()
    }

    /// The rounds `sid` ran, if it retired here.
    pub(crate) fn completed(&self, sid: SessionId) -> Option<u32> {
        self.done.get(&sid).copied()
    }

    /// Live entries and retired sessions.
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.live.len(), self.done.len())
    }

    /// The rostered nodes but `me`.
    pub(crate) fn others(&self, me: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.all_nodes.iter().copied().filter(move |n| *n != me)
    }

    /// Installs the node roster; `is_super` makes this node the super-peer.
    pub(crate) fn set_roster(&mut self, all_nodes: Arc<[NodeId]>, is_super: bool) {
        self.all_nodes = all_nodes;
        self.is_super |= is_super;
    }

    pub(crate) fn is_super(&self) -> bool {
        self.is_super
    }

    /// `sid` starts here, rooted at this node: dynamic changes are routed
    /// within it, and its fix-point broadcasts count generations from 0.
    pub(crate) fn root(&mut self, sid: SessionId) {
        self.rooted = Some(sid);
        self.generation = 0;
    }

    /// The most recent session rooted here.
    pub(crate) fn rooted(&self) -> Option<SessionId> {
        self.rooted
    }

    /// The next fix-point broadcast generation of the session rooted here.
    pub(crate) fn next_generation(&mut self) -> u32 {
        self.generation += 1;
        self.generation
    }

    /// Statistics gathered at the super-peer (`None` elsewhere).
    pub(crate) fn collected_mut(&mut self) -> Option<&mut BTreeMap<NodeId, PeerStats>> {
        self.is_super.then_some(&mut self.collected)
    }

    pub(crate) fn collected(&self) -> &BTreeMap<NodeId, PeerStats> {
        &self.collected
    }
}
