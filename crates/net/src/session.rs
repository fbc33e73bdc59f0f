//! Update-session identity.
//!
//! An update session is a diffusing computation initiated by one node (the
//! session's *root*); any number of sessions from any initiators may run
//! interleaved in one network run. A session is identified network-wide by
//! the pair `(root, epoch)`: the root's node id plus a driver-assigned epoch
//! counter, so two sessions never collide even when several roots (or the
//! same root, across re-drives) initiate concurrently.
//!
//! The type lives in `p2p-net` because the transport layer attributes
//! traffic to sessions — trace entries and per-session message/byte
//! counters — through [`crate::Wire::session`], while staying generic over
//! the protocol's message type.

use p2p_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Network-wide identity of one update session: the initiating node and the
/// driver-assigned epoch. Ordered (root first) so same-root sessions sort by
/// epoch — the order supersession logic relies on.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SessionId {
    /// The node that initiated (and roots) the session's diffusing
    /// computation.
    pub root: NodeId,
    /// Driver-assigned epoch, unique per root (strictly increasing across a
    /// root's sessions; re-drives of a broken session use a fresh epoch).
    pub epoch: u64,
}

impl SessionId {
    /// Constructs a session id.
    pub fn new(root: NodeId, epoch: u64) -> Self {
        SessionId { root, epoch }
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.root, self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_groups_by_root_then_epoch() {
        let a1 = SessionId::new(NodeId(0), 1);
        let a2 = SessionId::new(NodeId(0), 2);
        let b1 = SessionId::new(NodeId(1), 1);
        assert!(a1 < a2);
        assert!(a2 < b1);
    }

    #[test]
    fn display_is_root_hash_epoch() {
        assert_eq!(SessionId::new(NodeId(2), 7).to_string(), "C#7");
    }

    #[test]
    fn serde_round_trip() {
        let s = SessionId::new(NodeId(3), 42);
        let text = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<SessionId>(&text).unwrap(), s);
    }
}
