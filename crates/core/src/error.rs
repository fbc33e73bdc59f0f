//! Errors for the core crate.

use p2p_topology::NodeId;
use std::fmt;

/// Result alias.
pub type CoreResult<T> = std::result::Result<T, CoreError>;

/// Errors raised while building or running a P2P system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A rule references a node name/id that was never declared.
    UnknownNode(String),
    /// Two nodes were declared with the same id.
    DuplicateNode(NodeId),
    /// Two nodes were declared with the same name.
    DuplicateName(String),
    /// Two rules share a name.
    DuplicateRule(String),
    /// The rule has no body atoms or no head atoms.
    MalformedRule(String),
    /// A rule's head and body name the same node (Definition 2 requires
    /// distinct indices).
    SelfRule(String),
    /// A rule head atom is not qualified and no default head node was given.
    UnresolvedHead(String),
    /// The rule failed validation against a node schema.
    SchemaViolation {
        /// The offending rule.
        rule: String,
        /// What went wrong.
        detail: String,
    },
    /// The rule set is not weakly acyclic and the configuration demands it.
    NotWeaklyAcyclic {
        /// A description of one offending cycle.
        witness: String,
    },
    /// An error bubbled up from the relational engine.
    Relational(p2p_relational::Error),
    /// The durable store failed (WAL append, snapshot, recovery).
    Storage(String),
    /// A peer's handler panicked during a parallel run (the network was
    /// drained to quiescence first; see `p2p_net::WorkerPanic`). The
    /// program never returns it: it remains only because the benchmark
    /// harness (`benchmark/src/flood.rs`) builds and matches it, and
    /// ROADMAP item 1(m) removes it.
    PeerPanicked {
        /// The node whose handler panicked.
        node: NodeId,
        /// The panic payload.
        detail: String,
    },
    /// A run on the shard pool was asked for what only the simulator runs:
    /// rounds mode, a change script, a churn or a fault plan
    /// (`P2PSystem::check_run`).
    ShardedUnsupported(&'static str),
    /// A socket-backed node could not bind its listen address (port in
    /// use, bad interface). Kept distinct from the generic transport
    /// error so the CLI can report it as a usage problem.
    Listen {
        /// The address that failed to bind.
        addr: String,
        /// The OS error text.
        detail: String,
    },
    /// A remote peer's connection broke mid-run: the process died, closed
    /// mid-frame, or stopped accepting reconnects (the socket runtime's
    /// counterpart of [`CoreError::PeerPanicked`]).
    PeerDisconnected {
        /// The unreachable node.
        node: NodeId,
        /// The transport-level failure.
        detail: String,
    },
    /// Any other failure of the socket transport or the cluster control
    /// plane (handshake rejections, undecodable frames, launch failures).
    Transport(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            CoreError::DuplicateNode(n) => write!(f, "node {n} declared twice"),
            CoreError::DuplicateName(n) => write!(f, "node name `{n}` declared twice"),
            CoreError::DuplicateRule(r) => write!(f, "rule `{r}` declared twice"),
            CoreError::MalformedRule(r) => write!(f, "malformed rule `{r}`"),
            CoreError::SelfRule(r) => {
                write!(f, "rule `{r}` has head and body at the same node")
            }
            CoreError::UnresolvedHead(r) => write!(
                f,
                "rule `{r}` has an unqualified head atom and no default head node"
            ),
            CoreError::SchemaViolation { rule, detail } => {
                write!(f, "rule `{rule}` violates a schema: {detail}")
            }
            CoreError::NotWeaklyAcyclic { witness } => {
                write!(f, "rule set is not weakly acyclic: {witness}")
            }
            CoreError::Relational(e) => write!(f, "relational error: {e}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::PeerPanicked { node, detail } => {
                write!(f, "peer {node} panicked during a parallel run: {detail}")
            }
            CoreError::ShardedUnsupported(what) => write!(
                f,
                "the sharded runtime cannot run {what}: it is simulator-only"
            ),
            CoreError::Listen { addr, detail } => {
                write!(f, "cannot listen on {addr}: {detail}")
            }
            CoreError::PeerDisconnected { node, detail } => {
                write!(f, "peer {node} disconnected: {detail}")
            }
            CoreError::Transport(detail) => write!(f, "transport error: {detail}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<p2p_relational::Error> for CoreError {
    fn from(e: p2p_relational::Error) -> Self {
        CoreError::Relational(e)
    }
}
