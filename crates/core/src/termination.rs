//! Dijkstra–Scholten termination detection for diffusing computations.
//!
//! Each update **session** is a textbook *diffusing computation*: it starts
//! at one node (the session's root), spreads by messages, and is finished
//! exactly when every node is passive and no message of that session is in
//! flight. The paper detects this condition through flags on maximal
//! dependency paths, whose number is factorial in clique size;
//! Dijkstra–Scholten (1980) detects the identical condition with one
//! acknowledgement per message and one counter per node, which is what
//! makes the update scale to the paper's 31-node networks with cyclic
//! topologies.
//!
//! One [`DiffusingState`] instance exists **per session** (inside each
//! peer's session table): concurrent sessions are independent diffusing
//! computations with independent detectors, exactly as Dijkstra–Scholten
//! intends — acks are session-tagged on the wire and debit only their own
//! session's deficit.
//!
//! Mechanics: every *basic* (protocol) message is eventually acknowledged,
//! by an `Ack` or by the `Answer` replying to it. A node's first
//! unacknowledged basic message of a session makes the sender its *parent*
//! in that session's tree; the ack for that engaging message is deferred
//! until the node is passive and all messages *it* sent for the session have
//! been acknowledged. Any other message is acknowledged at once — a `Query`
//! by the `Answer` the same handler sends back (`Answer { acks: true }`,
//! except under `paper_faithful`), which its receiver handles in full before
//! it debits its deficit, exactly as if an `Ack` had followed the answer on
//! the pipe. The root detects termination when its own deficit returns to
//! zero.

use p2p_topology::NodeId;
use serde::{Deserialize, Serialize};

/// What to do about acknowledging a just-processed basic message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckDecision {
    /// Acknowledge immediately after processing (a `Query`: by its answer).
    Immediate,
    /// This message engaged the node; the ack is deferred until disengage.
    Deferred,
}

/// Action produced by [`DiffusingState::try_disengage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disengage {
    /// Nothing to do yet.
    None,
    /// Send the deferred ack to the parent and forget it.
    AckParent(NodeId),
    /// The root's deficit reached zero: the computation has terminated.
    RootTerminated,
}

/// Per-node Dijkstra–Scholten state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DiffusingState {
    engaged: bool,
    is_root: bool,
    parent: Option<NodeId>,
    /// Basic messages sent and not yet acknowledged.
    deficit: u64,
}

impl DiffusingState {
    /// Fresh, disengaged state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets for a new computation (new epoch).
    pub fn reset(&mut self) {
        *self = DiffusingState::default();
    }

    /// Marks this node as the computation's root (the super-peer) and
    /// engages it. Call before the root sends its first basic messages.
    pub fn engage_as_root(&mut self) {
        self.engaged = true;
        self.is_root = true;
        self.parent = None;
    }

    /// True iff currently engaged in the computation.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// True iff this node is the root.
    pub fn is_root(&self) -> bool {
        self.is_root
    }

    /// The engaging parent, if any.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Current deficit (unacknowledged sends).
    pub fn deficit(&self) -> u64 {
        self.deficit
    }

    /// Records the receipt of a basic message from `from`.
    pub fn on_receive(&mut self, from: NodeId) -> AckDecision {
        if self.engaged {
            AckDecision::Immediate
        } else {
            self.engaged = true;
            self.parent = Some(from);
            AckDecision::Deferred
        }
    }

    /// Records the sending of one basic message.
    pub fn on_send(&mut self) {
        debug_assert!(self.engaged, "only engaged nodes send basic messages");
        self.deficit += 1;
    }

    /// Records an acknowledgement of one of our sends; `false` if none was
    /// outstanding, in which case the deficit stays at zero instead of
    /// going negative. That is legitimate after a crash — the node's
    /// deficit is rebuilt from zero, yet acks for pre-crash sends may still
    /// be in flight and arrive post-restart — and a protocol error
    /// otherwise.
    pub fn on_ack(&mut self) -> bool {
        let outstanding = self.deficit > 0;
        self.deficit -= u64::from(outstanding);
        outstanding
    }

    /// Called whenever the node becomes passive (for us: at the end of every
    /// handler — handlers are atomic). Decides whether to disengage.
    pub fn try_disengage(&mut self) -> Disengage {
        if !self.engaged || self.deficit > 0 {
            return Disengage::None;
        }
        if self.is_root {
            // Stay engaged so late messages (dynamic changes in the same
            // epoch) are still part of this computation; the caller
            // broadcasts the fix-point.
            return Disengage::RootTerminated;
        }
        let parent = self.parent.take().expect("engaged non-root has a parent");
        self.engaged = false;
        Disengage::AckParent(parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_with_no_sends_terminates_at_once() {
        let mut ds = DiffusingState::new();
        ds.engage_as_root();
        assert_eq!(ds.try_disengage(), Disengage::RootTerminated);
    }

    #[test]
    fn root_waits_for_acks() {
        let mut ds = DiffusingState::new();
        ds.engage_as_root();
        ds.on_send();
        ds.on_send();
        assert_eq!(ds.try_disengage(), Disengage::None);
        assert!(ds.on_ack());
        assert_eq!(ds.try_disengage(), Disengage::None);
        assert!(ds.on_ack());
        assert_eq!(ds.try_disengage(), Disengage::RootTerminated);
        // One acknowledgement too many: refused, and the deficit stays put.
        assert!(!ds.on_ack());
        assert_eq!(ds.deficit(), 0);
    }

    #[test]
    fn non_root_defers_engaging_ack_until_quiet() {
        let mut ds = DiffusingState::new();
        assert_eq!(ds.on_receive(NodeId(7)), AckDecision::Deferred);
        ds.on_send();
        assert_eq!(ds.try_disengage(), Disengage::None);
        ds.on_ack();
        assert_eq!(ds.try_disengage(), Disengage::AckParent(NodeId(7)));
        assert!(!ds.engaged());
    }

    #[test]
    fn second_message_acked_immediately() {
        let mut ds = DiffusingState::new();
        assert_eq!(ds.on_receive(NodeId(1)), AckDecision::Deferred);
        assert_eq!(ds.on_receive(NodeId(2)), AckDecision::Immediate);
        assert_eq!(ds.on_receive(NodeId(1)), AckDecision::Immediate);
        // Still owes the deferred ack to node 1 only.
        assert_eq!(ds.try_disengage(), Disengage::AckParent(NodeId(1)));
    }

    #[test]
    fn reengagement_after_disengage() {
        let mut ds = DiffusingState::new();
        assert_eq!(ds.on_receive(NodeId(1)), AckDecision::Deferred);
        assert_eq!(ds.try_disengage(), Disengage::AckParent(NodeId(1)));
        // A later message re-engages with a possibly different parent.
        assert_eq!(ds.on_receive(NodeId(2)), AckDecision::Deferred);
        assert_eq!(ds.try_disengage(), Disengage::AckParent(NodeId(2)));
    }

    #[test]
    fn simulated_tree_computation_terminates_correctly() {
        // Root 0 sends to 1 and 2; 1 sends to 2; all acks flow back.
        // Model the message soup explicitly and assert the root terminates
        // only after every ack.
        let mut nodes: Vec<DiffusingState> = (0..3).map(|_| DiffusingState::new()).collect();
        nodes[0].engage_as_root();
        nodes[0].on_send(); // 0→1
        nodes[0].on_send(); // 0→2

        // 1 receives from 0 (engages), sends to 2.
        assert_eq!(nodes[1].on_receive(NodeId(0)), AckDecision::Deferred);
        nodes[1].on_send();
        assert_eq!(nodes[1].try_disengage(), Disengage::None);

        // 2 receives from 0 (engages) …
        assert_eq!(nodes[2].on_receive(NodeId(0)), AckDecision::Deferred);
        // … and from 1 (immediate ack to 1).
        assert_eq!(nodes[2].on_receive(NodeId(1)), AckDecision::Immediate);
        nodes[1].on_ack(); // 1 gets the immediate ack
                           // 2 is passive: acks parent 0.
        assert_eq!(nodes[2].try_disengage(), Disengage::AckParent(NodeId(0)));
        nodes[0].on_ack();
        assert_eq!(nodes[0].try_disengage(), Disengage::None); // deficit 1 left

        // 1 now quiet: acks parent 0.
        assert_eq!(nodes[1].try_disengage(), Disengage::AckParent(NodeId(0)));
        nodes[0].on_ack();
        assert_eq!(nodes[0].try_disengage(), Disengage::RootTerminated);
    }
}
