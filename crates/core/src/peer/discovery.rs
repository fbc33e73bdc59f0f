//! Topology discovery — the paper's algorithms A1 (`Discover`),
//! A2 (`requestNodes`) and A3 (`processAnswer`).
//!
//! The super-peer starts an exploration on its own behalf (`owner = me`).
//! Requests flood along dependency edges with per-owner deduplication; every
//! participant accumulates the dependency `Edges` of its reachable region
//! and re-answers all registered requesters whenever its knowledge grows —
//! A3's trailing `foreach` loop. Branch `finished` flags echo bottom-up over
//! the per-owner first-request tree (loop-back requests are cut with an
//! immediate `finished = true` answer, exactly A2's `else` branch). When all
//! of the owner's branches are finished it sets `state_d = closed`, computes
//! its maximal dependency paths, and — because the per-rule `closed` cascade
//! of the pseudocode deadlocks on cycles (nodes B and C of the running
//! example each wait for the other) — broadcasts `DiscoveryClosed` so every
//! participant closes and derives its paths from its accumulated edges.
//! That broadcast is the one deviation from the pseudocode: without it,
//! discovery never closes on a cyclic topology.

use crate::messages::ProtocolMsg;
use crate::peer::DbPeer;
use p2p_net::Context;
use p2p_topology::paths::DEFAULT_PATH_LIMIT;
use p2p_topology::{maximal_dependency_paths, DependencyGraph, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Per-owner exploration bookkeeping.
#[derive(Debug, Clone, Default)]
pub(crate) struct OwnerProgress {
    /// Nodes that requested on behalf of this owner (the paper's `owner`
    /// pairs, π₁ side).
    pub(crate) requesters: BTreeSet<NodeId>,
    /// Whether this node already forwarded the owner's request.
    pub(crate) explored: bool,
    /// Per-successor branch flags.
    pub(crate) branch: BTreeMap<NodeId, BranchFlags>,
    /// Last `(edge count, closed, finished)` sent per requester, to avoid
    /// re-sending identical answers.
    pub(crate) last_sent: BTreeMap<NodeId, (usize, bool, bool)>,
}

/// Flags learned from one successor branch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BranchFlags {
    /// The successor reported `state_d == closed`.
    pub(crate) closed: bool,
    /// The branch below the successor is exhausted.
    pub(crate) finished: bool,
}

/// Discovery-phase state of one peer.
#[derive(Debug, Clone, Default)]
pub(crate) struct DiscoveryState {
    /// `state_d == closed`: this node knows its complete reachable topology.
    pub(crate) state_closed: bool,
    /// The node has participated in a discovery.
    pub(crate) started: bool,
    /// Dependency edges known so far.
    pub(crate) edges: BTreeSet<(NodeId, NodeId)>,
    /// Per-owner progress.
    pub(crate) owners: BTreeMap<NodeId, OwnerProgress>,
    /// Maximal dependency paths, computed at closure.
    pub(crate) paths: Option<Vec<Vec<NodeId>>>,
    /// Path-enumeration failure (budget exceeded on clique-like regions).
    pub(crate) path_error: Option<String>,
}

impl DiscoveryState {
    fn branch_finished(&self, owner: NodeId) -> bool {
        self.owners
            .get(&owner)
            .map(|op| op.explored && op.branch.values().all(|b| b.finished))
            .unwrap_or(false)
    }
}

impl DbPeer {
    /// A1 — `Discover`: run by the super-peer (or any initiator).
    pub(crate) fn start_discovery(&mut self, ctx: &mut Context<ProtocolMsg>) {
        self.disc.started = true;
        self.disc.edges.extend(self.own_edges());
        if self.rules.is_empty() {
            // `if |Rules| == 0: state_d = closed; Paths = ∅`
            self.disc.state_closed = true;
            self.disc.paths = Some(Vec::new());
            self.broadcast_discovery_closed(ctx);
            return;
        }
        let me = self.id;
        let op = self.disc.owners.entry(me).or_default();
        op.explored = true;
        let succs = self.successors();
        for s in &succs {
            self.disc
                .owners
                .get_mut(&me)
                .expect("just inserted")
                .branch
                .entry(*s)
                .or_default();
        }
        for s in succs {
            self.stats.queries_sent += 1;
            ctx.send(s, ProtocolMsg::RequestNodes { owner: me });
        }
    }

    /// A2 — `requestNodes(IDs, IDo)`.
    pub(crate) fn on_request_nodes(
        &mut self,
        from: NodeId,
        owner: NodeId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.disc.started = true;
        self.disc.edges.extend(self.own_edges());
        self.add_pipe(from);

        if self.rules.is_empty() {
            // Sink: `state_d = closed; finished = true`.
            self.disc.state_closed = true;
            if self.disc.paths.is_none() {
                self.disc.paths = Some(Vec::new());
            }
            let op = self.disc.owners.entry(owner).or_default();
            op.requesters.insert(from);
            ctx.send(
                from,
                ProtocolMsg::DiscoveryAnswer {
                    owner,
                    edges: self.disc.edges.clone(),
                    closed: true,
                    finished: true,
                },
            );
            return;
        }

        let already_explored = self
            .disc
            .owners
            .get(&owner)
            .map(|op| op.explored)
            .unwrap_or(false);
        let op = self.disc.owners.entry(owner).or_default();
        op.requesters.insert(from);

        if !already_explored {
            // First request on behalf of this owner: forward to all
            // successors (`foreach r ∈ Rules: requestNodes_id(r)(ID, IDo)`).
            op.explored = true;
            let succs = self.successors();
            for s in &succs {
                self.disc
                    .owners
                    .get_mut(&owner)
                    .expect("present")
                    .branch
                    .entry(*s)
                    .or_default();
            }
            for s in succs {
                self.stats.queries_sent += 1;
                ctx.send(s, ProtocolMsg::RequestNodes { owner });
            }
            // Immediate answer with current knowledge (finished = false).
            self.answer_requester(from, owner, false, ctx);
        } else {
            // Loop-back: the owner's exploration already traversed this node
            // (`else finished = true` in A2): cut the branch.
            self.answer_requester(from, owner, true, ctx);
        }
    }

    /// A3 — `processAnswer(IDo, set, state, status)`.
    pub(crate) fn on_discovery_answer(
        &mut self,
        from: NodeId,
        owner: NodeId,
        edges: BTreeSet<(NodeId, NodeId)>,
        closed: bool,
        finished: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let before = self.disc.edges.len();
        self.disc.edges.extend(edges);
        let grew = self.disc.edges.len() > before;

        if let Some(op) = self.disc.owners.get_mut(&owner) {
            if let Some(branch) = op.branch.get_mut(&from) {
                branch.closed |= closed;
                branch.finished |= finished;
            }
        }

        // Owner closure: `if ID == IDo ∧ ∀Rules finished: state_d = closed`.
        if owner == self.id && !self.disc.state_closed && self.disc.branch_finished(owner) {
            self.close_discovery();
            self.broadcast_discovery_closed(ctx);
        } else if grew && self.disc.state_closed {
            // A late edge re-answer can legitimately arrive after the
            // owner's `DiscoveryClosed` broadcast (the broadcast travels a
            // different link): fold it in and recompute the paths, so that
            // the state at quiescence always reflects the complete edge set.
            self.close_discovery();
        }

        // A3's trailing loop: re-answer every registered requester whose
        // view would change.
        self.flush_discovery_answers(ctx);
    }

    /// Final broadcast: everyone closes and computes paths.
    pub(crate) fn on_discovery_closed(&mut self) {
        if !self.disc.state_closed {
            self.close_discovery();
        }
    }

    fn close_discovery(&mut self) {
        self.disc.state_closed = true;
        let mut graph = DependencyGraph::new();
        graph.add_node(self.id);
        for (f, t) in &self.disc.edges {
            graph.add_edge(*f, *t);
        }
        match maximal_dependency_paths(&graph, self.id, DEFAULT_PATH_LIMIT) {
            Ok(paths) => self.disc.paths = Some(paths),
            Err(e) => {
                // Factorial blow-up (cliques): record, keep edges usable.
                self.disc.path_error = Some(e.to_string());
                self.disc.paths = Some(Vec::new());
            }
        }
    }

    fn broadcast_discovery_closed(&mut self, ctx: &mut Context<ProtocolMsg>) {
        // The owner knows every participant: they all appear in its edges.
        let mut targets: BTreeSet<NodeId> = BTreeSet::new();
        for (f, t) in &self.disc.edges {
            targets.insert(*f);
            targets.insert(*t);
        }
        targets.remove(&self.id);
        ctx.send_to_many(targets, ProtocolMsg::DiscoveryClosed);
    }

    fn answer_requester(
        &mut self,
        to: NodeId,
        owner: NodeId,
        force_finished: bool,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let finished = force_finished || self.disc.branch_finished(owner);
        let closed = self.disc.state_closed;
        let payload = (self.disc.edges.len(), closed, finished);
        if let Some(op) = self.disc.owners.get_mut(&owner) {
            if op.last_sent.get(&to) == Some(&payload) {
                return;
            }
            op.last_sent.insert(to, payload);
        }
        ctx.send(
            to,
            ProtocolMsg::DiscoveryAnswer {
                owner,
                edges: self.disc.edges.clone(),
                closed,
                finished,
            },
        );
    }

    fn flush_discovery_answers(&mut self, ctx: &mut Context<ProtocolMsg>) {
        let pending: Vec<(NodeId, NodeId)> = self
            .disc
            .owners
            .iter()
            .flat_map(|(owner, op)| op.requesters.iter().map(|r| (*r, *owner)))
            .collect();
        for (requester, owner) in pending {
            // Loop-back requesters were answered `finished = true` once; a
            // repeat answer must not downgrade that flag, so recompute with
            // the sticky last-sent flag.
            let sticky_finished = self
                .disc
                .owners
                .get(&owner)
                .and_then(|op| op.last_sent.get(&requester))
                .map(|(_, _, f)| *f)
                .unwrap_or(false);
            self.answer_requester(requester, owner, sticky_finished, ctx);
        }
    }
}
