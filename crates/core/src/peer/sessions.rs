//! The session table: what a peer holds for each interleaved update
//! session ([`SessionState`]), the summary of the sessions that retired
//! here and supersession between epochs of one root, and the driver state
//! of the sessions this node roots — one owner, [`Sessions`], whose
//! methods are the only code that reads or writes them.
//!
//! Both tables hold their first entry inline (p2p_relational's
//! [`InlineMap`], which a fragment's watermarks use too): one live
//! session and one retired epoch per root is the common case, so a session
//! message finds its entry in the peer's own memory, with no heap block to
//! chase, and one probe of each table ([`Sessions::enter`]) says whether
//! the message is stale or retired and takes the entry out if not. The
//! entry is small for the same reason: rounds-mode state lives out of line
//! ([`super::RoundsSlot`]), allocated by a rounds session only.

use super::{EagerState, Part, RoundsSlot, Subscription, VecMap};
use crate::config::UpdateMode;
use crate::rule::RuleId;
use crate::stats::PeerStats;
use crate::termination::DiffusingState;
use p2p_net::SessionId;
use p2p_relational::tables::InlineMap;
use p2p_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything one peer holds for one update session only (see the
/// [`crate::peer`] module docs for what outlives it). One entry per
/// interleaved session lives in the session table; the entry is created on
/// first contact with the session's traffic and retired when the session's
/// terminal broadcast lands.
#[derive(Debug, Clone, Default)]
pub(crate) struct SessionState {
    /// The fragments this session listens to, per (rule, body node).
    /// Answers are applied only for fragments in here (eager mode), and
    /// replacing or deleting a rule drops its entries. Every entry is either
    /// `queried` by this session or was held when it was registered;
    /// retirement marks the queried ones held.
    pub parts: VecMap<(RuleId, NodeId), Part>,
    /// Subscriptions served, keyed by (subscriber, rule); retirement commits
    /// each as the cursor of its key.
    pub(crate) subs: VecMap<(NodeId, RuleId), Subscription>,
    /// Eager-mode state: fragment completeness, closure flags.
    pub(crate) upd: EagerState,
    /// This session's own Dijkstra–Scholten detector — one diffusing
    /// computation per session, as Dijkstra–Scholten intends.
    pub(crate) ds: DiffusingState,
    /// Rounds-mode state: round counter, echo tree, awaited answers — out
    /// of line, so that an eager session's entry stays small.
    pub(crate) rnd: RoundsSlot,
    /// Root side: the root already broadcast for the current quiet period.
    /// (The broadcast generation itself lives outside the entry, so it
    /// survives a post-fixpoint re-wake of the session.)
    pub(crate) root_quiet: bool,
    /// Terminal broadcast processed — the entry retires instead of going
    /// back into the table.
    pub(crate) retired: bool,
}

impl SessionState {
    /// The peer joined this session (as opposed to an entry created as a
    /// side effect of a dropped or ignored message).
    pub(crate) fn joined(&self) -> bool {
        self.upd.active || self.rnd.active
    }

    /// `state_u == closed` for this session under the given mode.
    pub(crate) fn closed(&self, mode: UpdateMode) -> bool {
        match mode {
            UpdateMode::Eager => self.upd.closed,
            UpdateMode::Rounds => self.rnd.closed,
        }
    }

    /// Currently participating and not yet closed.
    pub(crate) fn open(&self, mode: UpdateMode) -> bool {
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
    /// in its own entry, taken out while a message of it is handled.
    live: InlineMap<SessionId, SessionState>,
    /// Sessions that closed and retired here, with the rounds executed (0
    /// in eager mode) — the newest epoch per root only.
    done: InlineMap<SessionId, u32>,
    /// Full node roster (installed at build time on every peer, so any node
    /// can root a session and broadcast its fix-point). One shared
    /// allocation across all peers — at 10k+ nodes a per-peer copy would be
    /// O(n²) build memory.
    all_nodes: Arc<[NodeId]>,
    /// What this node holds as a driver, out of line: most peers never
    /// root a session, and one is the super-peer.
    driver: Option<Box<Driver>>,
}

/// The driver state of a node that roots sessions or is the super-peer.
#[derive(Debug, Default)]
struct Driver {
    /// Whether this node is the designated super-peer.
    is_super: bool,
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
    /// Takes `sid`'s entry out to handle a message of it (a fresh one on
    /// first contact), with its rounds if it had retired here — unless the
    /// message is one to acknowledge and drop (`None`): its session retired
    /// here and the message cannot re-wake it (`rewakes` false), or a newer
    /// session of the same root is known, live or retired — the
    /// supersession that retires churn-stranded epochs. Live entries of
    /// older same-root epochs go: a churn-stranded epoch can keep a
    /// Dijkstra–Scholten deficit forever (acks addressed to a crashed peer
    /// were dropped), and a re-drive starts from quiescence. One probe per
    /// table answers all of it: `SessionId` orders root-first.
    pub(crate) fn enter(
        &mut self,
        sid: SessionId,
        rewakes: bool,
    ) -> Option<(SessionState, Option<u32>)> {
        let (done, live) = (Probe::of(&self.done, sid), Probe::of(&self.live, sid));
        if done.newer || live.newer || (done.at.is_some() && !rewakes) {
            return None;
        }
        let completed = done.at.map(|at| self.done.remove_at(at).1);
        let st = live.at.map(|at| self.live.remove_at(at).1);
        if live.older {
            self.live.remove_range(SessionId::new(sid.root, 0)..sid);
        }
        Some((st.unwrap_or_default(), completed))
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
        self.done.remove_range(SessionId::new(sid.root, 0)..sid);
        self.done.insert(sid, st.rnd.rounds_done);
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
        if is_super {
            self.driver().is_super = true;
        }
    }

    /// This node's driver state, from its first use on.
    fn driver(&mut self) -> &mut Driver {
        self.driver.get_or_insert_with(Box::default)
    }

    pub(crate) fn is_super(&self) -> bool {
        self.driver.as_ref().is_some_and(|d| d.is_super)
    }

    /// `sid` starts here, rooted at this node: dynamic changes are routed
    /// within it, and its fix-point broadcasts count generations from 0.
    pub(crate) fn root(&mut self, sid: SessionId) {
        let driver = self.driver();
        driver.rooted = Some(sid);
        driver.generation = 0;
    }

    /// The most recent session rooted here.
    pub(crate) fn rooted(&self) -> Option<SessionId> {
        self.driver.as_ref()?.rooted
    }

    /// The next fix-point broadcast generation of the session rooted here.
    pub(crate) fn next_generation(&mut self) -> u32 {
        let driver = self.driver();
        driver.generation += 1;
        driver.generation
    }

    /// Statistics gathered at the super-peer (`None` elsewhere).
    pub(crate) fn collected_mut(&mut self) -> Option<&mut BTreeMap<NodeId, PeerStats>> {
        let driver = self.driver.as_deref_mut().filter(|d| d.is_super)?;
        Some(&mut driver.collected)
    }

    /// Statistics gathered at the super-peer (empty elsewhere).
    pub(crate) fn collected(&self) -> &BTreeMap<NodeId, PeerStats> {
        static NONE: BTreeMap<NodeId, PeerStats> = BTreeMap::new();
        self.driver.as_ref().map_or(&NONE, |d| &d.collected)
    }
}

/// Where one session stands in a session table: its entry, if it has one,
/// and whether the table holds an older or a newer epoch of its root.
struct Probe {
    at: Option<usize>,
    older: bool,
    newer: bool,
}

impl Probe {
    fn of<V>(table: &InlineMap<SessionId, V>, sid: SessionId) -> Self {
        let entries = table.entries();
        let at = entries.partition_point(|(k, _)| *k < sid);
        let found = entries.get(at).is_some_and(|(k, _)| *k == sid);
        let same_root =
            |entry: Option<&(SessionId, V)>| entry.is_some_and(|(k, _)| k.root == sid.root);
        Probe {
            at: found.then_some(at),
            older: same_root(entries[..at].last()),
            newer: same_root(entries.get(at + usize::from(found))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An entry the peer joined its session with.
    fn joined() -> SessionState {
        let mut st = SessionState::default();
        st.upd.active = true;
        st
    }

    /// That entry once its session's terminal broadcast landed.
    fn retiring() -> SessionState {
        SessionState {
            retired: true,
            ..joined()
        }
    }

    /// Sessions of two roots interleave at one peer, each in its own
    /// entry; a retired one's traffic is dropped unless it re-wakes it; and
    /// a newer epoch of a root retires the older one by supersession, live
    /// (at the newer one's first message) and retired (when the newer one
    /// retires) alike.
    #[test]
    fn two_roots_interleave_and_a_newer_epoch_supersedes_an_older_one() {
        let mut sessions = Sessions::default();
        let epoch = |root, epoch| SessionId::new(NodeId(root), epoch);
        let (a1, a2, b1, b2) = (epoch(0, 1), epoch(0, 2), epoch(1, 1), epoch(1, 2));

        for sid in [a1, b1] {
            let (st, completed) = sessions.enter(sid, false).expect("first contact");
            assert!(!st.joined() && completed.is_none());
            assert!(sessions.finish(sid, joined(), None).is_none());
        }
        assert_eq!(sessions.len(), (2, 0));
        let (st, _) = sessions.enter(a1, false).expect("live");
        assert!(st.joined());
        assert!(sessions.get(a1).is_none() && sessions.get(b1).is_some());
        sessions.finish(a1, st, None);

        // b1 retires; its traffic is dropped from then on, unless it can
        // re-wake the session.
        let _ = sessions.enter(b1, false).expect("live");
        assert!(sessions.finish(b1, retiring(), None).is_some());
        assert_eq!((sessions.len(), sessions.completed(b1)), ((1, 1), Some(0)));
        assert!(sessions.enter(b1, false).is_none(), "retired");
        let (st, completed) = sessions.enter(b1, true).expect("re-woken");
        assert_eq!(completed, Some(0));
        assert!(sessions.finish(b1, st, completed).is_none());
        assert_eq!(sessions.len(), (1, 1), "a re-wake that held nothing");

        // a2 supersedes the live a1 at its first message.
        let (st, completed) = sessions.enter(a2, false).expect("first contact");
        assert!(!st.joined() && completed.is_none());
        assert_eq!(sessions.len(), (0, 1), "a1's entry went");
        sessions.finish(a2, joined(), None);
        assert!(sessions.enter(a1, true).is_none(), "stale");

        // b2 supersedes the retired b1 when it retires.
        let _ = sessions.enter(b2, false).expect("first contact");
        assert_eq!(sessions.len(), (1, 1));
        assert!(sessions.finish(b2, retiring(), None).is_some());
        assert_eq!(sessions.completed(b1), None);
        assert_eq!(sessions.completed(b2), Some(0));
        assert!(sessions.enter(b1, true).is_none(), "stale");
        assert!(sessions.get(a2).is_some_and(SessionState::joined));
        assert_eq!(sessions.len(), (1, 1));
    }
}
