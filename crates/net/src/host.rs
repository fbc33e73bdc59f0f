//! The peer host every runtime shares.
//!
//! The paper's update algorithm is one asynchronous message-passing
//! protocol whose outcome does not depend on who delivers the messages.
//! This module holds what is the same whoever delivers them: [`Peer`],
//! [`Context`] and [`Outgoing`]; the peer table (a dense `Vec` behind a
//! `NodeId → slot` table, `NodeRows`, that no id's value sizes); the
//! once-per-payload [`PayloadMemo`]; and the send and delivery steps
//! (`Meter`). The send step sizes each unique payload of a drain once under
//! the run's codec and counts every send; the delivery step counts the
//! delivery, takes the payload without a copy at its last reference and
//! calls [`Peer::on_envelope`]. Counting walks no ordered map: [`NetStats`]
//! finds the node's row through its own `NodeRows` and the kind's column
//! by address, and bumps counters; once the node has sent that kind it
//! allocates nothing. The simulator ([`crate::sim`]) adds only its virtual
//! clock, the shard pool ([`crate::sharded`]) only its threads, queues
//! and quiescence barrier, so a scenario reports the same counts on either.
//!
//! A handler's sends go into one buffer its runtime keeps: the simulator
//! and each shard thread hand every handler's [`Context`] the same `Vec`
//! (`Context::reusing`), the send step drains it in place and gives it
//! back empty with its capacity, so a runtime allocates its send buffer
//! once, grown to its largest drain, instead of once per handler that
//! sends. (The payload of each send is still its own `Arc`.)

use crate::codec::Codec;
use crate::message::{SimTime, Wire};
use crate::stats::NetStats;
use p2p_topology::fxhash::FxHashMap;
use p2p_topology::NodeId;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// A protocol participant. One instance per node; handlers are atomic (run
/// to completion) and communicate only through the [`Context`].
pub trait Peer<M>: Send {
    /// Handles one delivered message.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<M>);

    /// Delivery entry point used by the runtimes. `msg_id` identifies the
    /// send. The links are exactly-once — the simulator and the shard pool
    /// hand each send over once, the socket runtime rides on TCP — so a
    /// peer keeps no per-delivery state. The default forwards to
    /// [`Peer::on_message`]; an override wraps it (a tracing host, say).
    /// No peer of the program reads `msg_id`: it remains only for the
    /// benchmark harness's `TracedPeer`, the one override, and ROADMAP item
    /// 1(i) drops it.
    fn on_envelope(&mut self, from: NodeId, msg_id: u64, msg: M, ctx: &mut Context<M>) {
        let _ = msg_id;
        self.on_message(from, msg, ctx);
    }

    /// Churn hook: the peer's process dies. All in-memory state should be
    /// wiped here; only what the peer persisted elsewhere may survive. No
    /// context — a dying process sends nothing.
    fn on_crash(&mut self) {}

    /// Churn hook: the peer's process comes back after a crash. This is
    /// where a durable peer recovers from storage and sends whatever
    /// resynchronisation traffic its protocol defines.
    fn on_restart(&mut self, ctx: &mut Context<M>) {
        let _ = ctx;
    }
}

/// An outgoing message queued by a handler. The payload is `Arc`-shared:
/// a unicast send holds the only reference (delivery unwraps it without a
/// copy), a [`Context::send_to_many`] fan-out shares one allocation across
/// all receivers.
#[derive(Debug, Clone)]
pub struct Outgoing<M> {
    /// Recipient.
    pub to: NodeId,
    /// Payload (shared across fan-out receivers).
    pub msg: Arc<M>,
    /// Extra delay beyond link latency (processing cost, scheduled work).
    pub(crate) delay: SimTime,
}

/// Handler-side view of the network: the only way peers interact with the
/// outside world.
#[derive(Debug)]
pub struct Context<M> {
    id: NodeId,
    charged: SimTime,
    outgoing: Vec<Outgoing<M>>,
}

impl<M> Context<M> {
    /// Creates a context for one handler invocation.
    pub fn new(id: NodeId) -> Self {
        Context::reusing(id, Vec::new())
    }

    /// [`Context::new`] queueing its sends in `outgoing`, a buffer an
    /// earlier invocation's sends were drained from (it is cleared first):
    /// a runtime that hands its handlers one buffer over and over (see the
    /// module docs) allocates it once, not once per handler that sends.
    pub(crate) fn reusing(id: NodeId, mut outgoing: Vec<Outgoing<M>>) -> Self {
        outgoing.clear();
        Context {
            id,
            charged: SimTime::ZERO,
            outgoing,
        }
    }

    /// The handling node's own id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends a message (subject to link latency and any charged processing
    /// time).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outgoing.push(Outgoing {
            to,
            msg: Arc::new(msg),
            delay: self.charged,
        });
    }

    /// Sends one message to many receivers, sharing a single payload
    /// allocation (and a single serialization) across the whole fan-out.
    /// This is the broadcast primitive floods and fix-point announcements
    /// should use.
    pub fn send_to_many(&mut self, to: impl IntoIterator<Item = NodeId>, msg: M) {
        let shared = Arc::new(msg);
        for t in to {
            self.outgoing.push(Outgoing {
                to: t,
                msg: Arc::clone(&shared),
                delay: self.charged,
            });
        }
    }

    /// Charges local processing time: all *subsequent* sends from this
    /// handler are delayed by the accumulated charge. Models per-tuple query
    /// evaluation cost without a full node-busy queueing model.
    pub fn charge(&mut self, cost: SimTime) {
        self.charged += cost;
    }

    /// Number of sends queued so far in this handler invocation (lets
    /// callers of the fan-out primitives account per-receiver bookkeeping
    /// without materialising the target list twice).
    pub fn pending_sends(&self) -> usize {
        self.outgoing.len()
    }

    /// Takes the queued sends, in the buffer they were queued in (runtime
    /// internal).
    pub fn take_outgoing(&mut self) -> Vec<Outgoing<M>> {
        std::mem::take(&mut self.outgoing)
    }
}

/// The once-per-payload memo: what a runtime derived from each payload of
/// one drain, keyed on the `Arc`'s address (never dereferenced). Addresses
/// are only compared among payloads alive together — the sends of one
/// drain — so `PayloadMemo::clear` must run before the next drain.
pub struct PayloadMemo<V> {
    seen: Vec<(usize, V)>,
}

impl<V> Default for PayloadMemo<V> {
    fn default() -> Self {
        PayloadMemo { seen: Vec::new() }
    }
}

impl<V: Clone> PayloadMemo<V> {
    /// `msg`'s value: computed by `derive` the first time this drain sees
    /// the payload, reused after that. The flag is `true` on a reuse — a
    /// fan-out send that shares an already-derived payload.
    pub fn get_or_insert_with<M>(
        &mut self,
        msg: &Arc<M>,
        derive: impl FnOnce(&M) -> V,
    ) -> (V, bool) {
        let addr = Arc::as_ptr(msg) as usize;
        if let Some((_, v)) = self.seen.iter().find(|(a, _)| *a == addr) {
            return (v.clone(), true);
        }
        let v = derive(msg);
        self.seen.push((addr, v.clone()));
        (v, false)
    }

    /// Forgets the finished drain (its payload addresses may be reused).
    pub(crate) fn clear(&mut self) {
        self.seen.clear();
    }
}

/// `NodeId → row` for a table whose rows are handed out in first-seen order
/// and never move: the peer table's slots, [`NetStats`]'s counter rows. An
/// id below twice the rows handed out so far, plus [`NodeRows::SLACK`],
/// finds its row by indexing a table with its value (the common case: ids
/// counted from 0); any other id is a hash map entry. So memory follows the
/// ids present and never the largest id's value: `NodeId(u32::MAX)` costs
/// one map entry.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeRows {
    /// `id.0 → row`, [`NodeRows::NONE`] where `id` has none.
    direct: Vec<u32>,
    /// The rows of the ids that were past the direct table's bound.
    sparse: FxHashMap<NodeId, u32>,
    len: u32,
}

impl NodeRows {
    const NONE: u32 = u32::MAX;
    const SLACK: usize = 1024;

    /// `id`'s row, if it has one.
    #[inline]
    pub(crate) fn get(&self, id: NodeId) -> Option<usize> {
        match self.direct.get(id.0 as usize) {
            Some(&row) if row != Self::NONE => Some(row as usize),
            _ if self.sparse.is_empty() => None,
            _ => self.sparse.get(&id).map(|&row| row as usize),
        }
    }

    /// `id`'s row, handing out the next one (the count of rows so far)
    /// when `id` is new.
    #[inline]
    pub(crate) fn row(&mut self, id: NodeId) -> usize {
        if let Some(row) = self.get(id) {
            return row;
        }
        let row = self.len;
        self.len += 1;
        let key = id.0 as usize;
        if key < 2 * row as usize + Self::SLACK {
            if key >= self.direct.len() {
                self.direct.resize(key + 1, Self::NONE);
            }
            self.direct[key] = row;
        } else {
            self.sparse.insert(id, row);
        }
        row as usize
    }
}

/// The hosted peers: a dense `Vec` behind a `NodeId → slot` table. Slots
/// are handed out in insertion order and never move; adding a peer under an
/// id already present replaces the peer in its slot.
pub(crate) struct PeerTable<P> {
    peers: Vec<(NodeId, P)>,
    slot_of: NodeRows,
}

impl<P> Default for PeerTable<P> {
    fn default() -> Self {
        PeerTable {
            peers: Vec::new(),
            slot_of: NodeRows::default(),
        }
    }
}

impl<P> PeerTable<P> {
    /// Hosts `peer` under `id` (replacing the one already there) and returns
    /// its slot.
    pub(crate) fn insert(&mut self, id: NodeId, peer: P) -> usize {
        let slot = self.slot_of.row(id);
        if slot == self.peers.len() {
            self.peers.push((id, peer));
        } else {
            self.peers[slot].1 = peer;
        }
        slot
    }

    /// The slot of the peer hosted under `id`, if any.
    #[inline]
    pub(crate) fn slot(&self, id: NodeId) -> Option<usize> {
        self.slot_of.get(id)
    }

    /// The peers in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&NodeId, &P)> {
        let mut sorted: Vec<_> = self.peers.iter().map(|(id, p)| (id, p)).collect();
        sorted.sort_by_key(|(id, _)| **id);
        sorted.into_iter()
    }

    /// The peers in id order, by value.
    pub(crate) fn into_sorted(mut self) -> Vec<(NodeId, P)> {
        self.peers.sort_by_key(|(id, _)| *id);
        self.peers
    }
}

impl<P> Index<usize> for PeerTable<P> {
    type Output = P;

    fn index(&self, slot: usize) -> &P {
        &self.peers[slot].1
    }
}

impl<P> IndexMut<usize> for PeerTable<P> {
    fn index_mut(&mut self, slot: usize) -> &mut P {
        &mut self.peers[slot].1
    }
}

/// One message on its way to a receiver: the send's identity, the payload,
/// and its wire size measured at the send.
pub(crate) struct Parcel<M> {
    pub(crate) msg_id: u64,
    pub(crate) msg: Arc<M>,
    pub(crate) size: usize,
}

/// The send and delivery steps, with the counters they feed: one per
/// simulator, one per shard thread (merged at quiescence).
pub(crate) struct Meter {
    /// The codec every send is sized under.
    pub(crate) codec: Codec,
    sized: PayloadMemo<usize>,
    pub(crate) stats: NetStats,
}

impl Meter {
    /// A meter measuring messages under `codec`.
    pub(crate) fn new(codec: Codec) -> Self {
        Meter {
            codec,
            sized: PayloadMemo::default(),
            stats: NetStats::default(),
        }
    }

    /// The send step for one drain — the sends one handler queued, or one
    /// the driver injects. Sizes each unique payload once under the run's
    /// codec, counts every send (a reuse of a sized payload also as a shared
    /// payload send) and hands it to `route` with its size. `route` decides
    /// what becomes of it: scheduled, dropped, handed to another shard.
    /// `out` is left empty with its capacity, for the runtime to hand the
    /// next handler's [`Context::reusing`].
    pub(crate) fn send_all<M: Wire>(
        &mut self,
        from: NodeId,
        out: &mut Vec<Outgoing<M>>,
        mut route: impl FnMut(&mut NetStats, Outgoing<M>, usize),
    ) {
        self.sized.clear();
        let codec = self.codec;
        for o in out.drain(..) {
            let (size, shared) = self
                .sized
                .get_or_insert_with(&o.msg, |m| m.wire_size_with(codec));
            if shared {
                self.stats.shared_payload_sends += 1;
            }
            self.stats.record_send(from, o.msg.kind(), size);
            route(&mut self.stats, o, size);
        }
    }

    /// The delivery step: counts the delivery to `ctx`'s node, takes the
    /// payload (a move at its last reference, a clone while other deliveries
    /// of a fan-out are still in flight) and runs the handler.
    pub(crate) fn deliver<M: Wire, P: Peer<M>>(
        &mut self,
        peer: &mut P,
        from: NodeId,
        parcel: Parcel<M>,
        ctx: &mut Context<M>,
    ) {
        self.stats
            .record_delivery(ctx.id(), parcel.size, parcel.msg.session());
        let msg = Arc::try_unwrap(parcel.msg).unwrap_or_else(|shared| (*shared).clone());
        peer.on_envelope(from, parcel.msg_id, msg, ctx);
    }
}

#[cfg(test)]
impl<M> Context<M> {
    /// Sends after an explicit additional delay.
    pub(crate) fn send_after(&mut self, delay: SimTime, to: NodeId, msg: M) {
        self.outgoing.push(Outgoing {
            to,
            msg: Arc::new(msg),
            delay: self.charged + delay,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ConstantLatency;
    use crate::{ShardedNetwork, Simulator};

    #[test]
    fn peer_table_finds_every_peer_after_out_of_order_inserts_and_a_replacement() {
        let ids = [7u32, 2, 40, 0, 13];
        let mut table = PeerTable::default();
        for id in ids {
            table.insert(NodeId(id), format!("peer {id}"));
        }
        let replaced = table.insert(NodeId(40), "peer 40, again".to_string());
        assert_eq!(table.slot(NodeId(40)), Some(replaced));
        for id in ids {
            let want = if id == 40 {
                "peer 40, again".to_string()
            } else {
                format!("peer {id}")
            };
            let slot = table.slot(NodeId(id)).unwrap();
            assert_eq!(table[slot], want, "id {id}");
        }
        for unknown in [1u32, 39, 41, 1_000] {
            assert_eq!(table.slot(NodeId(unknown)), None);
        }
        let order: Vec<u32> = table.iter().map(|(id, _)| id.0).collect();
        assert_eq!(order, vec![0, 2, 7, 13, 40]);
        let sorted: Vec<u32> = table
            .into_sorted()
            .into_iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(sorted, order);
    }

    /// Rows come in first-seen order whichever side of the direct table's
    /// bound an id falls on, and stay put when the table grows over an id
    /// the map already holds.
    #[test]
    fn node_rows_keep_first_seen_order_on_both_sides_of_the_bound() {
        let ids = [5_000u32, 3, u32::MAX, 0, 4_000_000_000, 2_000, 1];
        let mut rows = NodeRows::default();
        for (want, id) in ids.into_iter().enumerate() {
            assert_eq!(rows.row(NodeId(id)), want, "id {id}");
        }
        assert_eq!(rows.sparse.len(), 4);
        for id in 10..4_000 {
            rows.row(NodeId(id));
        }
        for (want, id) in ids.into_iter().enumerate() {
            assert_eq!(rows.get(NodeId(id)), Some(want), "id {id}");
            assert_eq!(rows.row(NodeId(id)), want, "id {id}");
        }
        assert_eq!(rows.get(NodeId(7)), None);
        assert_eq!(rows.get(NodeId(4_000)), None);
        assert!(rows.direct.len() <= 2 * rows.len as usize + NodeRows::SLACK);
    }

    /// An id's value sizes nothing: the largest id takes one slot and one
    /// map entry, as the smallest does.
    #[test]
    fn peer_table_hosts_the_largest_id_in_one_slot() {
        let mut table = PeerTable::default();
        assert_eq!(table.insert(NodeId(u32::MAX), "max"), 0);
        assert_eq!(table.insert(NodeId(0), "zero"), 1);
        assert_eq!(table.insert(NodeId(u32::MAX), "max, again"), 0);
        assert_eq!(table.slot(NodeId(u32::MAX)), Some(0));
        assert_eq!(table.slot(NodeId(u32::MAX - 1)), None);
        assert_eq!(table[0], "max, again");
        assert!(table.slot_of.direct.capacity() <= 2 * NodeRows::SLACK);
        assert_eq!(table.slot_of.sparse.len(), 1);
        let order: Vec<u32> = table.iter().map(|(id, _)| id.0).collect();
        assert_eq!(order, vec![0, u32::MAX]);
    }

    /// A message kind per role, each with its own size, so a kind or a
    /// byte counted twice (or not at all) shows.
    #[derive(Debug, Clone)]
    enum Msg {
        Go,
        Work,
        Ack,
        Token(u32),
    }

    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            match self {
                Msg::Go => 1,
                Msg::Work => 16,
                Msg::Ack => 2,
                Msg::Token(_) => 4,
            }
        }
        fn kind(&self) -> &'static str {
            match self {
                Msg::Go => "Go",
                Msg::Work => "Work",
                Msg::Ack => "Ack",
                Msg::Token(_) => "Token",
            }
        }
    }

    const HUB: NodeId = NodeId(0);
    const LEAVES: std::ops::RangeInclusive<u32> = 1..=5;
    const RING: std::ops::Range<u32> = 10..16;
    const UNKNOWN: NodeId = NodeId(99);

    /// A fan-out hub with acking leaves, and a token ring.
    enum Node {
        Hub,
        Leaf,
        Ring(NodeId),
    }

    impl Peer<Msg> for Node {
        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<Msg>) {
            match (self, msg) {
                (Node::Hub, Msg::Go) => ctx.send_to_many(LEAVES.map(NodeId), Msg::Work),
                (Node::Leaf, Msg::Work) => ctx.send(from, Msg::Ack),
                (Node::Ring(next), Msg::Token(n)) if n > 0 => ctx.send(*next, Msg::Token(n - 1)),
                _ => {}
            }
        }
    }

    fn nodes() -> Vec<(NodeId, Node)> {
        let mut nodes = vec![(HUB, Node::Hub)];
        nodes.extend(LEAVES.map(|i| (NodeId(i), Node::Leaf)));
        let next = |i: u32| NodeId(RING.start + (i + 1 - RING.start) % RING.len() as u32);
        nodes.extend(RING.map(|i| (NodeId(i), Node::Ring(next(i)))));
        nodes
    }

    fn initial() -> Vec<(NodeId, NodeId, Msg)> {
        vec![
            (HUB, HUB, Msg::Go),
            (NodeId(RING.start), NodeId(RING.start), Msg::Token(20)),
            (HUB, UNKNOWN, Msg::Ack),
        ]
    }

    /// One scenario, three runs — the simulator and the shard pool at 1 and
    /// 2 shards — and one set of counts: every runtime sends through the
    /// same step.
    #[test]
    fn every_runtime_counts_one_scenario_the_same() {
        let mut sim = Simulator::new(Box::new(ConstantLatency(SimTime(3))));
        for (id, node) in nodes() {
            sim.add_peer(id, node);
        }
        for (from, to, msg) in initial() {
            sim.inject(from, to, msg);
        }
        assert!(sim.run().quiescent);
        let want = sim.stats().clone();
        // Go + 5 Work + 5 Ack + 21 Token delivered; the stray Ack dropped.
        assert_eq!(want.total_messages, 32);
        assert_eq!(want.total_bytes, 1 + 5 * 16 + 5 * 2 + 21 * 4);
        assert_eq!(want.dropped, 1);
        assert_eq!(want.shared_payload_sends, 4);
        assert_eq!(want.sent_of_kind("Ack"), 6);
        let by_node = |s: &NetStats| -> Vec<_> {
            let kinds = ["Go", "Work", "Ack", "Token"];
            (s.nodes())
                .map(|(id, n)| (id, n, kinds.map(|k| s.node_sent_of_kind(id, k))))
                .collect()
        };

        for shards in [1usize, 2] {
            let mut net = ShardedNetwork::new();
            net.set_shards(shards);
            for (id, node) in nodes() {
                net.add_peer(id, node);
            }
            let (_, got) = net.run(initial()).unwrap();
            assert_eq!(got.total_messages, want.total_messages, "shards={shards}");
            assert_eq!(got.total_bytes, want.total_bytes, "shards={shards}");
            assert_eq!(by_node(&got), by_node(&want), "shards={shards}");
            let shared = got.shared_payload_sends;
            assert_eq!(shared, want.shared_payload_sends, "shards={shards}");
            assert_eq!(got.dropped, want.dropped, "shards={shards}");
        }
    }
}
