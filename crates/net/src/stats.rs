//! Network statistics — the transport half of the paper's "statistical
//! module" (Section 5: message counts, data volumes on pipes, per-kind
//! breakdowns; the query/update counters live in `p2p-core::stats`).

use crate::message::SimTime;
use crate::session::SessionId;
use p2p_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Per-update-session transport counters (attribution of deliveries to the
/// session whose [`crate::Wire::session`] tag they carried).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionNetStats {
    /// Messages delivered for this session.
    pub messages: u64,
    /// Bytes delivered for this session.
    pub bytes: u64,
}

/// Per-node transport counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeNetStats {
    /// Messages sent by this node.
    pub sent: u64,
    /// Messages delivered to this node.
    pub received: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Sent-message counts per message kind.
    pub sent_by_kind: BTreeMap<String, u64>,
}

/// Whole-network transport counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Per-node counters.
    pub per_node: BTreeMap<NodeId, NodeNetStats>,
    /// Per-session counters, keyed by the session tag carried on delivered
    /// messages ([`crate::Wire::session`]); session-less control traffic is
    /// not attributed. In-memory only: JSON map keys must be scalars.
    #[serde(skip)]
    pub per_session: BTreeMap<SessionId, SessionNetStats>,
    /// Total messages delivered.
    pub total_messages: u64,
    /// Total bytes delivered.
    pub total_bytes: u64,
    /// Messages dropped by fault injection (or addressed to a crashed or
    /// unknown node).
    pub dropped: u64,
    /// Copies the fault plan made of a send. The link is exactly-once, as
    /// TCP is: it absorbs every copy, so none of them is delivered.
    pub duplicated: u64,
    /// Peer crashes executed from the churn plan.
    pub peer_crashes: u64,
    /// Peer restarts executed from the churn plan.
    pub peer_restarts: u64,
    /// Fan-out sends that reused an already-serialized shared payload
    /// instead of encoding their own copy ([`crate::Context::send_to_many`]).
    /// `encode passes == sends − shared_payload_sends` is the invariant the
    /// codec regression test checks.
    #[serde(default)]
    pub shared_payload_sends: u64,
    /// Sends whose target peer lives on a different shard than the sender
    /// ([`crate::sharded::ShardedNetwork`]): these pay a channel hop. The
    /// locality metric a [`crate::sharded::ShardPlacement`] policy is
    /// judged by; zero under the other runtimes.
    #[serde(default)]
    pub cross_shard_sends: u64,
    /// Virtual (or wall) time at which the run went quiescent.
    pub finished_at: SimTime,
}

impl NetStats {
    /// Records one send of `size` bytes and kind `kind` by `from`.
    pub fn record_send(&mut self, from: NodeId, kind: &'static str, size: usize) {
        let e = self.per_node.entry(from).or_default();
        e.sent += 1;
        e.bytes_sent += size as u64;
        // Probe with the &str first: the kind is almost always already
        // present, and the owned key should only be allocated the first time
        // a node sends that kind — not once per send.
        match e.sent_by_kind.get_mut(kind) {
            Some(count) => *count += 1,
            None => {
                e.sent_by_kind.insert(kind.to_string(), 1);
            }
        }
    }

    /// Records one delivery of `size` bytes to `to`, attributed to
    /// `session` when the message carried a session tag ([`crate::Wire::session`]).
    /// Attribution is part of this call on purpose: a delivery site that
    /// could forget it would silently zero every per-session counter.
    pub fn record_delivery(&mut self, to: NodeId, size: usize, session: Option<SessionId>) {
        let e = self.per_node.entry(to).or_default();
        e.received += 1;
        e.bytes_received += size as u64;
        self.total_messages += 1;
        self.total_bytes += size as u64;
        if let Some(sid) = session {
            let s = self.per_session.entry(sid).or_default();
            s.messages += 1;
            s.bytes += size as u64;
        }
    }

    /// This session's delivered-traffic counters (zero if never seen).
    pub fn session(&self, sid: SessionId) -> SessionNetStats {
        self.per_session.get(&sid).copied().unwrap_or_default()
    }

    /// Merges another stats object into this one (used by the sharded
    /// runtime, where each shard thread keeps local counters).
    pub fn merge(&mut self, other: &NetStats) {
        for (node, s) in &other.per_node {
            let e = self.per_node.entry(*node).or_default();
            e.sent += s.sent;
            e.received += s.received;
            e.bytes_sent += s.bytes_sent;
            e.bytes_received += s.bytes_received;
            for (k, v) in &s.sent_by_kind {
                *e.sent_by_kind.entry(k.clone()).or_default() += v;
            }
        }
        for (sid, s) in &other.per_session {
            let e = self.per_session.entry(*sid).or_default();
            e.messages += s.messages;
            e.bytes += s.bytes;
        }
        self.total_messages += other.total_messages;
        self.total_bytes += other.total_bytes;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.peer_crashes += other.peer_crashes;
        self.peer_restarts += other.peer_restarts;
        self.shared_payload_sends += other.shared_payload_sends;
        self.cross_shard_sends += other.cross_shard_sends;
        if other.finished_at > self.finished_at {
            self.finished_at = other.finished_at;
        }
    }

    /// Sum of one kind's sends across all nodes.
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.per_node
            .values()
            .map(|n| n.sent_by_kind.get(kind).copied().unwrap_or(0))
            .sum()
    }

    /// The node that received the most bytes — the hot spot; the centralized
    /// baseline concentrates nearly all traffic here while the distributed
    /// algorithm spreads it (experiment E11).
    pub fn max_node_bytes_received(&self) -> u64 {
        self.per_node
            .values()
            .map(|n| n.bytes_received)
            .max()
            .unwrap_or(0)
    }

    /// Resets all counters — the super-peer's "reset statistics at all
    /// peers" command.
    pub fn reset(&mut self) {
        *self = NetStats::default();
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "messages={} bytes={} dropped={} duplicated={} finished_at={}",
            self.total_messages, self.total_bytes, self.dropped, self.duplicated, self.finished_at
        )?;
        for (node, s) in &self.per_node {
            writeln!(
                f,
                "  {node}: sent={} recv={} bytes_out={} bytes_in={}",
                s.sent, s.received, s.bytes_sent, s.bytes_received
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = NetStats::default();
        s.record_send(NodeId(0), "Query", 100);
        s.record_delivery(NodeId(1), 100, None);
        s.record_send(NodeId(1), "Answer", 300);
        s.record_delivery(NodeId(0), 300, None);
        assert_eq!(s.total_messages, 2);
        assert_eq!(s.total_bytes, 400);
        assert_eq!(s.per_node[&NodeId(0)].sent, 1);
        assert_eq!(s.per_node[&NodeId(0)].bytes_received, 300);
        assert_eq!(s.sent_of_kind("Query"), 1);
        assert_eq!(s.sent_of_kind("Answer"), 1);
        assert_eq!(s.sent_of_kind("nope"), 0);
    }

    #[test]
    fn session_attribution_counts_and_merges() {
        let sid = SessionId::new(NodeId(0), 1);
        let other = SessionId::new(NodeId(1), 2);
        let mut s = NetStats::default();
        s.record_delivery(NodeId(1), 100, Some(sid));
        s.record_delivery(NodeId(1), 50, None); // control traffic: unattributed
        assert_eq!(s.session(sid).messages, 1);
        assert_eq!(s.session(sid).bytes, 100);
        assert_eq!(s.session(other), SessionNetStats::default());
        let mut b = NetStats::default();
        b.record_delivery(NodeId(1), 10, Some(sid));
        b.record_delivery(NodeId(1), 20, Some(other));
        s.merge(&b);
        assert_eq!(s.session(sid).messages, 2);
        assert_eq!(s.session(sid).bytes, 110);
        assert_eq!(s.session(other).bytes, 20);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = NetStats::default();
        a.record_send(NodeId(0), "Query", 10);
        a.record_delivery(NodeId(1), 10, None);
        let mut b = NetStats::default();
        b.record_send(NodeId(0), "Query", 20);
        b.record_delivery(NodeId(1), 20, None);
        b.finished_at = SimTime(99);
        a.merge(&b);
        assert_eq!(a.per_node[&NodeId(0)].sent, 2);
        assert_eq!(a.total_bytes, 30);
        assert_eq!(a.finished_at, SimTime(99));
        assert_eq!(a.sent_of_kind("Query"), 2);
    }

    #[test]
    fn hot_spot_detection() {
        let mut s = NetStats::default();
        s.record_delivery(NodeId(0), 1_000, None);
        s.record_delivery(NodeId(1), 10, None);
        assert_eq!(s.max_node_bytes_received(), 1_000);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = NetStats::default();
        s.record_send(NodeId(0), "Query", 10);
        s.reset();
        assert_eq!(s, NetStats::default());
    }
}
