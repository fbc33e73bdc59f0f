//! Network statistics — the transport half of the paper's "statistical
//! module" (Section 5: message counts, data volumes on pipes, per-kind
//! breakdowns; the query/update counters live in `p2p-core::stats`).
//!
//! Counting a message is two counter bumps. Every node a [`NetStats`] has
//! seen owns one dense row of [`NodeNetStats`], found by indexing with its
//! id (a hash map entry for an id far past the count of nodes), and every
//! message kind it has seen owns one column of per-row send counts. A
//! [`crate::Wire::kind`] string is interned once per `NetStats`, matched by
//! address and then by text. So once a node has sent a kind,
//! [`NetStats::record_send`] and [`NetStats::record_delivery`] walk no
//! ordered map and allocate nothing. Memory follows the nodes and kinds
//! seen, never an id's value. [`NetStats::merge`] (the shard pool's
//! quiescence) adds the other side's rows and columns into this one's.

use crate::host::NodeRows;
use crate::message::SimTime;
use crate::session::SessionId;
use p2p_topology::fxhash::FxHashMap;
use p2p_topology::NodeId;
use std::borrow::Cow;
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

/// Per-node transport counters ([`NetStats::node`]; the node's sends of
/// one kind are [`NetStats::node_sent_of_kind`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeNetStats {
    /// Messages sent by this node.
    pub sent: u64,
    /// Messages delivered to this node.
    pub received: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
}

impl NodeNetStats {
    fn add(&mut self, other: &NodeNetStats) {
        self.sent += other.sent;
        self.received += other.received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
    }
}

/// The per-node counters: one row per node seen, in first-seen order, and
/// one column of send counts per kind seen.
#[derive(Debug, Clone, Default)]
struct PerNode {
    row_of: NodeRows,
    rows: Vec<(NodeId, NodeNetStats)>,
    kinds: Vec<Cow<'static, str>>,
    /// `sent_by_kind[column][row]`. A column ends at the last row that
    /// sent its kind.
    sent_by_kind: Vec<Vec<u64>>,
}

impl PerNode {
    /// `id`'s row, added (zeroed) when `id` is new.
    #[inline]
    fn row(&mut self, id: NodeId) -> usize {
        let row = self.row_of.row(id);
        if row == self.rows.len() {
            self.rows.push((id, NodeNetStats::default()));
        }
        row
    }

    /// `kind`'s column, added when `kind` is new. An interned kind is found
    /// by address first — a [`crate::Wire::kind`] is a `'static` string,
    /// the same one on every send — and only then by text.
    #[inline]
    fn column(&mut self, kind: Cow<'static, str>) -> usize {
        let here = |k: &Cow<'static, str>| k.as_ptr() == kind.as_ptr() && k.len() == kind.len();
        let found = (self.kinds.iter().position(here))
            .or_else(|| self.kinds.iter().position(|k| *k == kind));
        found.unwrap_or_else(|| {
            self.kinds.push(kind);
            self.sent_by_kind.push(Vec::new());
            self.kinds.len() - 1
        })
    }

    /// Adds `n` sends of `column`'s kind to `row`.
    #[inline]
    fn add_sends(&mut self, column: usize, row: usize, n: u64) {
        let sends = &mut self.sent_by_kind[column];
        if sends.len() <= row {
            sends.resize(row + 1, 0);
        }
        sends[row] += n;
    }

    fn column_of(&self, kind: &str) -> Option<&[u64]> {
        let column = self.kinds.iter().position(|k| k == kind)?;
        Some(&self.sent_by_kind[column])
    }

    /// The rows in node id order.
    fn in_id_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_unstable_by_key(|&row| self.rows[row].0);
        order
    }

    fn merge(&mut self, other: &PerNode) {
        let rows: Vec<usize> = (other.rows.iter())
            .map(|(id, counts)| {
                let row = self.row(*id);
                self.rows[row].1.add(counts);
                row
            })
            .collect();
        for (kind, sends) in other.kinds.iter().zip(&other.sent_by_kind) {
            let column = self.column(kind.clone());
            for (&row, &n) in rows.iter().zip(sends).filter(|(_, &n)| n > 0) {
                self.add_sends(column, row, n);
            }
        }
    }
}

/// Whole-network transport counters: a table read through its accessors
/// and its display, never stored or sent.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Per-node counters ([`NetStats::node`], [`NetStats::nodes`],
    /// [`NetStats::node_sent_of_kind`]).
    per_node: PerNode,
    /// Per-session counters, keyed by the session tag carried on delivered
    /// messages ([`crate::Wire::session`]); session-less control traffic is
    /// not attributed.
    pub per_session: FxHashMap<SessionId, SessionNetStats>,
    /// Total messages delivered.
    pub total_messages: u64,
    /// Total bytes delivered.
    pub total_bytes: u64,
    /// Messages dropped by fault injection (or addressed to a crashed or
    /// unknown node).
    pub dropped: u64,
    /// Peer crashes executed from the churn plan.
    pub(crate) peer_crashes: u64,
    /// Peer restarts executed from the churn plan.
    pub(crate) peer_restarts: u64,
    /// Fan-out sends that reused an already-serialized shared payload
    /// instead of encoding their own copy ([`crate::Context::send_to_many`]).
    /// `encode passes == sends − shared_payload_sends` is the invariant the
    /// codec regression test checks.
    pub shared_payload_sends: u64,
    /// Sends whose target peer lives on a different shard than the sender
    /// ([`crate::sharded::ShardedNetwork`]): these pay a queue hop to
    /// another shard. Zero under the other runtimes.
    pub cross_shard_sends: u64,
    /// Virtual (or wall) time at which the run went quiescent.
    pub finished_at: SimTime,
}

impl NetStats {
    /// Records one send of `size` bytes and kind `kind` by `from`.
    #[inline]
    pub fn record_send(&mut self, from: NodeId, kind: &'static str, size: usize) {
        let row = self.per_node.row(from);
        let counts = &mut self.per_node.rows[row].1;
        counts.sent += 1;
        counts.bytes_sent += size as u64;
        let column = self.per_node.column(Cow::Borrowed(kind));
        self.per_node.add_sends(column, row, 1);
    }

    /// Records one delivery of `size` bytes to `to`, attributed to
    /// `session` when the message carried a session tag ([`crate::Wire::session`]).
    /// Attribution is part of this call on purpose: a delivery site that
    /// could forget it would silently zero every per-session counter.
    #[inline]
    pub fn record_delivery(&mut self, to: NodeId, size: usize, session: Option<SessionId>) {
        let row = self.per_node.row(to);
        let counts = &mut self.per_node.rows[row].1;
        counts.received += 1;
        counts.bytes_received += size as u64;
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

    /// `id`'s counters (zero if never seen).
    pub fn node(&self, id: NodeId) -> NodeNetStats {
        (self.per_node.row_of.get(id))
            .map_or_else(NodeNetStats::default, |row| self.per_node.rows[row].1)
    }

    /// Every node that sent or received, with its counters, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, NodeNetStats)> + '_ {
        (self.per_node.in_id_order().into_iter()).map(|row| self.per_node.rows[row])
    }

    /// `id`'s sends of one kind.
    pub fn node_sent_of_kind(&self, id: NodeId, kind: &str) -> u64 {
        let sends = self.per_node.column_of(kind).unwrap_or_default();
        let row = self.per_node.row_of.get(id);
        row.and_then(|row| sends.get(row)).copied().unwrap_or(0)
    }

    /// Merges another stats object into this one (used by the sharded
    /// runtime, where each shard thread keeps local counters).
    pub fn merge(&mut self, other: &NetStats) {
        self.per_node.merge(&other.per_node);
        for (sid, s) in &other.per_session {
            let e = self.per_session.entry(*sid).or_default();
            e.messages += s.messages;
            e.bytes += s.bytes;
        }
        self.total_messages += other.total_messages;
        self.total_bytes += other.total_bytes;
        self.dropped += other.dropped;
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
            .column_of(kind)
            .unwrap_or_default()
            .iter()
            .sum()
    }

    /// The node that received the most bytes — the hot spot; the centralized
    /// baseline concentrates nearly all traffic here while the distributed
    /// algorithm spreads it (experiment E11).
    pub fn max_node_bytes_received(&self) -> u64 {
        (self.per_node.rows.iter())
            .map(|(_, n)| n.bytes_received)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "messages={} bytes={} dropped={} finished_at={}",
            self.total_messages, self.total_bytes, self.dropped, self.finished_at
        )?;
        for (node, s) in self.nodes() {
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
        assert_eq!(s.node(NodeId(0)).sent, 1);
        assert_eq!(s.node(NodeId(0)).bytes_received, 300);
        assert_eq!(s.node(NodeId(7)), NodeNetStats::default());
        assert_eq!(s.node_sent_of_kind(NodeId(1), "Answer"), 1);
        assert_eq!(s.node_sent_of_kind(NodeId(1), "Query"), 0);
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
        assert_eq!(a.node(NodeId(0)).sent, 2);
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

    /// A small table's display, byte for byte as it was while the counters
    /// lived in ordered maps keyed by node and kind name (the table's JSON
    /// form is gone: nothing stored or sent one).
    #[test]
    fn json_and_display_keep_their_bytes() {
        let sid = SessionId::new(NodeId(0), 3);
        let mut s = NetStats::default();
        s.record_send(NodeId(2), "Query", 100);
        s.record_send(NodeId(2), "Query", 40);
        s.record_send(NodeId(2), "Ack", 5);
        s.record_send(NodeId(0), "odd \"kind\"", 7);
        s.record_delivery(NodeId(4_000_000_000), 100, Some(sid));
        s.record_delivery(NodeId(0), 45, None);
        s.record_send(NodeId(4_000_000_000), "Answer", 300);
        s.dropped = 1;
        s.peer_crashes = 3;
        s.peer_restarts = 4;
        s.shared_payload_sends = 5;
        s.cross_shard_sends = 6;
        s.finished_at = SimTime(77);
        assert_eq!(
            s.to_string(),
            "messages=2 bytes=145 dropped=1 finished_at=0.077ms\n  \
             A: sent=1 recv=1 bytes_out=7 bytes_in=45\n  \
             C: sent=3 recv=0 bytes_out=145 bytes_in=0\n  \
             N4000000000: sent=1 recv=1 bytes_out=300 bytes_in=100\n"
        );
    }

    /// Memory follows the nodes seen: the largest id costs one row.
    #[test]
    fn the_largest_id_costs_one_row() {
        let mut s = NetStats::default();
        s.record_send(NodeId(u32::MAX), "Query", 10);
        s.record_delivery(NodeId(u32::MAX), 10, None);
        assert_eq!(s.per_node.rows.len(), 1);
        assert_eq!(s.per_node.sent_by_kind[0].len(), 1);
        assert_eq!(s.node(NodeId(u32::MAX)).bytes_received, 10);
        assert_eq!(s.node_sent_of_kind(NodeId(u32::MAX), "Query"), 1);
    }

    /// A kind is one column whatever address its text sits at.
    #[test]
    fn a_kind_is_one_column_by_text() {
        let copy: &'static str = Box::leak(String::from("Query").into_boxed_str());
        assert_ne!(copy.as_ptr(), "Query".as_ptr());
        let mut s = NetStats::default();
        s.record_send(NodeId(0), "Query", 1);
        s.record_send(NodeId(0), copy, 1);
        assert_eq!(s.per_node.kinds.len(), 1);
        assert_eq!(s.node_sent_of_kind(NodeId(0), "Query"), 2);
    }
}
