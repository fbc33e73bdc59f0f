//! Sharded runtime: the simulator's delivery loop on `T` shard threads.
//!
//! This is the paper's asynchronous model of communications on real
//! parallelism, at the 10k-peer scales the simulator reaches. Peers are
//! dealt to shards round-robin in id order, and each shard thread owns its
//! peers outright: it pops the next delivery from its one FIFO queue, runs
//! the receiver's handler through the shared [`crate::host`] delivery step,
//! and pushes every send at the back of the receiver's shard queue — its
//! own or another shard's. Each sender→receiver pipe stays FIFO, because
//! one thread makes all of a sender's sends and one queue holds all of a
//! receiver's deliveries. A send to a peer homed on another shard is
//! counted in [`NetStats::cross_shard_sends`], the pool's locality metric.
//!
//! Termination is an outstanding-message counter shared by all shards as a
//! quiescence barrier: it is incremented before a delivery is queued and
//! decremented only after the receiving handler *and all sends it
//! performed* completed, so it reads zero exactly at the Dijkstra–Scholten
//! fix-point, when every queue is empty and no handler runs. A shard sleeps
//! on its queue only while the queue is empty and the barrier above zero; a
//! sender wakes only a sleeping owner, and the decrement that reaches zero
//! wakes them all to exit. A panicking peer is poisoned: its deliveries are
//! dropped (still decrementing the counter) so the barrier releases, and
//! [`ShardedNetwork::run`] reports the first [`WorkerPanic`] naming the
//! node. Every shard thread keeps a private [`NetStats`], merged once at
//! quiescence.

use crate::codec::Codec;
use crate::host::{Context, Meter, Outgoing, Parcel, Peer, PeerTable};
use crate::message::{SimTime, Wire};
use crate::stats::NetStats;
use p2p_topology::NodeId;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// A peer handler panicked during a sharded run: which node, and the
/// panic payload (stringified). The rest of the network was drained to
/// quiescence before this was reported, so no worker thread is leaked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The node whose handler panicked (first panic wins if several did).
    pub node: NodeId,
    /// The panic payload, if it was a string (the common `panic!` case).
    pub payload: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer {} panicked: {}", self.node, self.payload)
    }
}

impl std::error::Error for WorkerPanic {}

fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How peers are assigned to shard threads: peer `i` (in id order) goes to
/// shard `i mod T`, whatever the topology. Kept only because the benchmark
/// harness (`benchmark/src/flood.rs`) names it in its one call to
/// [`ShardedNetwork::set_placement`]; ROADMAP item 1(m) removes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlacement {
    /// The one placement.
    #[default]
    RoundRobin,
}

/// Where a hosted peer lives: its shard, and its index among that shard's
/// peers.
#[derive(Clone, Copy)]
struct Home {
    shard: usize,
    index: usize,
}

/// A peer on its shard thread, `poisoned` once its handler panicked.
struct Hosted<P> {
    id: NodeId,
    peer: P,
    poisoned: bool,
}

/// One queued delivery, to the peer at `index` on the queue's shard.
struct Delivery<M> {
    index: usize,
    from: NodeId,
    parcel: Parcel<M>,
}

/// A shard's deliveries in arrival order, and whether its owner sleeps
/// waiting for one.
struct Queue<M> {
    deliveries: VecDeque<Delivery<M>>,
    sleeping: bool,
}

/// State shared by all shard threads.
struct Shared<M> {
    homes: PeerTable<Home>,
    /// Per shard: its queue, and the condition variable its owner sleeps on.
    queues: Vec<(Mutex<Queue<M>>, Condvar)>,
    /// The quiescence barrier: >0 while any delivery is queued or any
    /// handler is running; zero exactly at fix-point.
    outstanding: AtomicUsize,
    msg_ids: AtomicU64,
    first_panic: Mutex<Option<WorkerPanic>>,
    codec: Codec,
}

/// A network of peers multiplexed over a bounded pool of shard threads.
///
/// Runs the same [`Peer`] code as [`crate::Simulator`] but is *not*
/// deterministic: tests compare its fix-points with simulator runs modulo
/// null renaming.
pub struct ShardedNetwork<M: Wire, P: Peer<M> + 'static> {
    peers: PeerTable<P>,
    codec: Codec,
    shards: usize,
    _marker: std::marker::PhantomData<M>,
}

impl<M: Wire + Sync, P: Peer<M> + 'static> Default for ShardedNetwork<M, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Wire + Sync, P: Peer<M> + 'static> ShardedNetwork<M, P> {
    /// An empty network with as many shards as the host has cores.
    pub fn new() -> Self {
        ShardedNetwork {
            peers: PeerTable::default(),
            codec: Codec::default(),
            shards: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Registers a peer (replacing any previous peer under the same id).
    pub fn add_peer(&mut self, id: NodeId, peer: P) {
        self.peers.insert(id, peer);
    }

    /// Selects the wire codec messages are measured in.
    pub fn set_codec(&mut self, codec: Codec) {
        self.codec = codec;
    }

    /// Sets the shard-thread count. `0` (the default) means one shard per
    /// available core. A run never starts more shards than it has peers:
    /// a count above the peer count runs one shard per peer.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards;
    }

    /// Selects the peer→shard placement; there is one, so this changes
    /// nothing. Kept only for the benchmark harness (see [`ShardPlacement`]).
    pub fn set_placement(&mut self, _placement: ShardPlacement) {}

    /// Runs the network to quiescence: delivers `initial` messages, lets
    /// the peers converse across the shard pool, and joins every shard
    /// thread once the outstanding counter reads zero. Returns the peers
    /// (sorted by id, with their final state) and the merged transport
    /// stats — or the first [`WorkerPanic`].
    #[allow(clippy::type_complexity)]
    pub fn run(
        self,
        initial: Vec<(NodeId, NodeId, M)>,
    ) -> Result<(Vec<(NodeId, P)>, NetStats), WorkerPanic> {
        let started = Instant::now();
        let sorted = self.peers.into_sorted();
        let n = sorted.len();
        let shards = match self.shards {
            0 => std::thread::available_parallelism().map_or(1, |c| c.get()),
            t => t,
        }
        .clamp(1, n.max(1));
        let mut homes = PeerTable::default();
        let mut hosted: Vec<Vec<Hosted<P>>> = (0..shards)
            .map(|_| Vec::with_capacity(n.div_ceil(shards)))
            .collect();
        for (i, (id, peer)) in sorted.into_iter().enumerate() {
            let shard = i % shards;
            let index = hosted[shard].len();
            homes.insert(id, Home { shard, index });
            let poisoned = false;
            hosted[shard].push(Hosted { id, peer, poisoned });
        }
        let shared = Shared {
            homes,
            queues: (0..shards)
                .map(|_| {
                    let deliveries = VecDeque::new();
                    let queue = Queue {
                        deliveries,
                        sleeping: false,
                    };
                    (Mutex::new(queue), Condvar::new())
                })
                .collect(),
            outstanding: AtomicUsize::new(0),
            msg_ids: AtomicU64::new(0),
            first_panic: Mutex::new(None),
            codec: self.codec,
        };

        // Count and queue the initial messages before any thread starts,
        // so the barrier can never transiently read zero while work remains.
        let mut meter = Meter::new(self.codec);
        let mut out = Vec::new();
        for (from, to, msg) in initial {
            out.push(Outgoing {
                to,
                msg: Arc::new(msg),
                delay: SimTime::ZERO,
            });
            meter.send_all(from, &mut out, |stats, o, size| {
                shared.post(stats, None, from, o, size)
            });
        }
        let mut returned = Vec::with_capacity(shards);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (hosted.into_iter().enumerate())
                .map(|(shard, hosted)| {
                    let shared = &shared;
                    scope.spawn(move || shared.shard_loop(shard, hosted))
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok((hosted, shard_stats)) => {
                        meter.stats.merge(&shard_stats);
                        returned.push(hosted.into_iter());
                    }
                    // Handlers panic inside catch_unwind, so a dead thread
                    // means the shard loop itself failed; surface it rather
                    // than aborting the driver.
                    Err(panic) => shared.record_panic(NodeId(u32::MAX), panic.as_ref()),
                }
            }
        });
        if let Some(panic) = shared.first_panic.into_inner().expect("panic slot") {
            return Err(panic);
        }
        // Back in id order without a sort (whose scratch copy of the peers
        // would raise peak memory): the i-th peer is its shard's next one.
        let peers = (0..n)
            .filter_map(|i| returned[i % shards].next())
            .map(|host| (host.id, host.peer))
            .collect();
        meter.stats.finished_at = SimTime(started.elapsed().as_micros() as u64);
        Ok((peers, meter.stats))
    }
}

impl<M: Wire + Sync> Shared<M> {
    /// Keeps the first panic of the run.
    fn record_panic(&self, node: NodeId, panic: &(dyn std::any::Any + Send)) {
        let payload = payload_string(panic);
        let mut slot = self.first_panic.lock().expect("panic slot");
        slot.get_or_insert(WorkerPanic { node, payload });
    }

    /// Releases `shard`'s queue and wakes its owner if it sleeps. Only a
    /// sleeping owner costs a notification, so most sends make no system
    /// call.
    fn release(&self, shard: usize, mut queue: MutexGuard<'_, Queue<M>>) {
        let sleeping = std::mem::take(&mut queue.sleeping);
        drop(queue);
        if sleeping {
            self.queues[shard].1.notify_one();
        }
    }

    /// One shard thread: deliver from the shard's queue through the host's
    /// delivery step (panic-safe), route each handler's sends through the
    /// send step, and hand back the peers and the shard's counters once
    /// the quiescence barrier reads zero.
    fn shard_loop<P: Peer<M>>(
        &self,
        shard: usize,
        mut hosted: Vec<Hosted<P>>,
    ) -> (Vec<Hosted<P>>, NetStats) {
        let mut meter = Meter::new(self.codec);
        // The send buffer every handler of the shard queues into.
        let mut spare = Vec::new();
        while let Some(Delivery {
            index,
            from,
            parcel,
        }) = self.next(shard)
        {
            let host = &mut hosted[index];
            if host.poisoned {
                meter.stats.dropped += 1;
                self.done();
                continue;
            }
            let id = host.id;
            let mut ctx = Context::reusing(id, spare);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                meter.deliver(&mut host.peer, from, parcel, &mut ctx)
            }));
            if let Err(panic) = outcome {
                host.poisoned = true;
                self.record_panic(id, panic.as_ref());
            }
            // Sends queued before a panic still go out.
            spare = ctx.take_outgoing();
            meter.send_all(id, &mut spare, |stats, o, size| {
                self.post(stats, Some(shard), id, o, size)
            });
            self.done();
        }
        (hosted, meter.stats)
    }

    /// The shard's next delivery, sleeping while its queue is empty and the
    /// barrier above zero; `None` at quiescence (the barrier never rises
    /// again from zero — a rise needs a running handler).
    fn next(&self, shard: usize) -> Option<Delivery<M>> {
        let mut queue = self.queues[shard].0.lock().expect("queue lock");
        loop {
            if let Some(delivery) = queue.deliveries.pop_front() {
                return Some(delivery);
            }
            if self.outstanding.load(Ordering::SeqCst) == 0 {
                return None;
            }
            queue.sleeping = true;
            queue = self.queues[shard].1.wait(queue).expect("queue lock");
            queue.sleeping = false;
        }
    }

    /// Routes one counted send: dropped when no peer is hosted under its
    /// receiver, else one more outstanding delivery at the back of the
    /// receiver's shard queue (cross-shard when `from_shard` is another).
    fn post(
        &self,
        stats: &mut NetStats,
        from_shard: Option<usize>,
        from: NodeId,
        out: Outgoing<M>,
        size: usize,
    ) {
        let Some(slot) = self.homes.slot(out.to) else {
            stats.dropped += 1;
            return;
        };
        let Home { shard, index } = self.homes[slot];
        if from_shard.is_some_and(|s| s != shard) {
            stats.cross_shard_sends += 1;
        }
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        let msg_id = self.msg_ids.fetch_add(1, Ordering::Relaxed);
        let parcel = Parcel {
            msg_id,
            msg: out.msg,
            size,
        };
        let mut queue = self.queues[shard].0.lock().expect("queue lock");
        queue.deliveries.push_back(Delivery {
            index,
            from,
            parcel,
        });
        self.release(shard, queue);
    }

    /// Retires one delivery from the barrier; the decrement that reaches
    /// zero wakes every sleeping shard so it sees quiescence and exits.
    fn done(&self) {
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            for shard in 0..self.queues.len() {
                self.release(shard, self.queues[shard].0.lock().expect("queue lock"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Token(u32);

    impl Wire for Token {
        fn wire_size(&self) -> usize {
            4
        }
        fn kind(&self) -> &'static str {
            "Token"
        }
    }

    #[derive(Debug)]
    struct RingPeer {
        next: NodeId,
        seen: u32,
    }

    impl Peer<Token> for RingPeer {
        fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Context<Token>) {
            self.seen += 1;
            if msg.0 > 0 {
                ctx.send(self.next, Token(msg.0 - 1));
            }
        }
    }

    fn ring(n: u32, shards: usize) -> ShardedNetwork<Token, RingPeer> {
        let mut net = ShardedNetwork::new();
        net.set_shards(shards);
        for i in 0..n {
            net.add_peer(
                NodeId(i),
                RingPeer {
                    next: NodeId((i + 1) % n),
                    seen: 0,
                },
            );
        }
        net
    }

    #[test]
    fn token_ring_quiesces_on_every_shard_count() {
        for shards in [1usize, 2, 3, 8, 16] {
            let net = ring(5, shards);
            let (peers, stats) = net.run(vec![(NodeId(0), NodeId(0), Token(24))]).unwrap();
            let total_seen: u32 = peers.iter().map(|(_, p)| p.seen).sum();
            assert_eq!(total_seen, 25, "shards={shards}");
            assert_eq!(stats.total_messages, 25, "shards={shards}");
        }
    }

    #[test]
    fn more_shards_than_peers_still_quiesces() {
        let net = ring(3, 9);
        let (peers, stats) = net.run(vec![(NodeId(0), NodeId(0), Token(11))]).unwrap();
        let total_seen: u32 = peers.iter().map(|(_, p)| p.seen).sum();
        assert_eq!(total_seen, 12);
        assert_eq!(stats.total_messages, 12);
    }

    #[test]
    fn empty_initial_returns_immediately() {
        let mut net: ShardedNetwork<Token, RingPeer> = ShardedNetwork::new();
        net.add_peer(
            NodeId(0),
            RingPeer {
                next: NodeId(0),
                seen: 0,
            },
        );
        let (peers, stats) = net.run(vec![]).unwrap();
        assert_eq!(peers.len(), 1);
        assert_eq!(stats.total_messages, 0);
    }

    #[test]
    fn initial_message_to_unknown_node_is_skipped() {
        let mut net: ShardedNetwork<Token, RingPeer> = ShardedNetwork::new();
        net.add_peer(
            NodeId(0),
            RingPeer {
                next: NodeId(0),
                seen: 0,
            },
        );
        let (_, stats) = net.run(vec![(NodeId(0), NodeId(42), Token(1))]).unwrap();
        // Counted like a handler's send to an unknown node, and like the
        // simulator counts one: sent once, dropped once, never delivered.
        assert_eq!(stats.total_messages, 0);
        assert_eq!(stats.sent_of_kind("Token"), 1);
        assert_eq!(stats.dropped, 1);
    }

    /// Two peers on two shards volley one ball 10 000 round trips. Every
    /// send crosses shards and finds its receiver asleep or about to sleep,
    /// so a lost wake-up hangs this test.
    #[test]
    fn cross_shard_ping_pong_loses_no_wake_up() {
        #[derive(Debug)]
        struct Player {
            hits: u32,
        }
        impl Peer<Token> for Player {
            fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut Context<Token>) {
                self.hits += 1;
                if msg.0 > 0 {
                    ctx.send(from, Token(msg.0 - 1));
                }
            }
        }
        const VOLLEYS: u32 = 2 * 10_000;
        let mut net = ShardedNetwork::new();
        net.set_shards(2);
        for i in 0..2 {
            net.add_peer(NodeId(i), Player { hits: 0 });
        }
        let start = vec![(NodeId(0), NodeId(1), Token(VOLLEYS - 1))];
        let (peers, stats) = net.run(start).unwrap();
        let hits: Vec<u32> = peers.iter().map(|(_, p)| p.hits).collect();
        assert_eq!(hits, vec![VOLLEYS / 2, VOLLEYS / 2]);
        assert_eq!(stats.total_messages, u64::from(VOLLEYS));
        assert_eq!(stats.cross_shard_sends, u64::from(VOLLEYS - 1));
    }

    /// A sender on one shard sends 1 000 numbered messages to a receiver on
    /// the other, one per handler run, while the receiver drains them
    /// concurrently: they arrive in send order.
    #[test]
    fn a_cross_shard_pipe_delivers_in_send_order() {
        const BURST: u32 = 1_000;
        enum Node {
            Sender,
            Receiver(Vec<u32>),
        }
        impl Peer<Token> for Node {
            fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Context<Token>) {
                match self {
                    Node::Sender if msg.0 < BURST => {
                        ctx.send(NodeId(1), Token(msg.0));
                        ctx.send(NodeId(0), Token(msg.0 + 1));
                    }
                    Node::Sender => {}
                    Node::Receiver(got) => got.push(msg.0),
                }
            }
        }
        let mut net = ShardedNetwork::new();
        net.set_shards(2);
        net.add_peer(NodeId(0), Node::Sender);
        net.add_peer(NodeId(1), Node::Receiver(Vec::new()));
        let (peers, stats) = net.run(vec![(NodeId(0), NodeId(0), Token(0))]).unwrap();
        let Node::Receiver(got) = &peers[1].1 else {
            unreachable!()
        };
        assert_eq!(*got, (0..BURST).collect::<Vec<_>>());
        assert_eq!(stats.cross_shard_sends, u64::from(BURST));
    }

    #[test]
    fn panicking_peer_is_a_structured_error_not_a_wedge() {
        // Node 2 panics on its first message; tokens keep circling at it.
        // The barrier must still release (no deadlock on items queued to
        // the dead peer) and the first panic must be named.
        #[derive(Debug)]
        struct Bomb {
            next: NodeId,
            armed: bool,
        }
        impl Peer<Token> for Bomb {
            fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Context<Token>) {
                if self.armed {
                    panic!("boom at token {}", msg.0);
                }
                if msg.0 > 0 {
                    ctx.send(self.next, Token(msg.0 - 1));
                }
            }
        }
        for shards in [1usize, 2, 4] {
            let n = 4u32;
            let mut net = ShardedNetwork::new();
            net.set_shards(shards);
            for i in 0..n {
                net.add_peer(
                    NodeId(i),
                    Bomb {
                        next: NodeId((i + 1) % n),
                        armed: i == 2,
                    },
                );
            }
            let err = net
                .run(vec![(NodeId(0), NodeId(0), Token(24))])
                .unwrap_err();
            assert_eq!(err.node, NodeId(2), "shards={shards}");
            assert!(err.payload.contains("boom"), "payload: {}", err.payload);
            assert!(err.to_string().contains("peer C"), "display: {err}");
        }
    }

    #[test]
    fn fan_out_shares_one_serialization() {
        struct Hub {
            workers: Vec<NodeId>,
            acks: u32,
        }
        #[derive(Debug, Clone)]
        enum Msg {
            Go,
            Work(#[allow(dead_code)] u32),
            Ack,
        }
        impl Wire for Msg {
            fn wire_size(&self) -> usize {
                4
            }
            fn kind(&self) -> &'static str {
                match self {
                    Msg::Go => "Go",
                    Msg::Work(_) => "Work",
                    Msg::Ack => "Ack",
                }
            }
        }
        enum NodeKind {
            Hub(Hub),
            Worker,
        }
        impl Peer<Msg> for NodeKind {
            fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<Msg>) {
                match (self, msg) {
                    (NodeKind::Hub(h), Msg::Go) => {
                        ctx.send_to_many(h.workers.iter().copied(), Msg::Work(3));
                    }
                    (NodeKind::Hub(h), Msg::Ack) => h.acks += 1,
                    (NodeKind::Worker, Msg::Work(_)) => ctx.send(from, Msg::Ack),
                    _ => {}
                }
            }
        }
        let mut net = ShardedNetwork::new();
        net.set_shards(4);
        let workers: Vec<NodeId> = (1..=8).map(NodeId).collect();
        net.add_peer(
            NodeId(0),
            NodeKind::Hub(Hub {
                workers: workers.clone(),
                acks: 0,
            }),
        );
        for w in workers {
            net.add_peer(w, NodeKind::Worker);
        }
        let (peers, stats) = net.run(vec![(NodeId(0), NodeId(0), Msg::Go)]).unwrap();
        match &peers[0].1 {
            NodeKind::Hub(h) => assert_eq!(h.acks, 8),
            _ => unreachable!(),
        }
        assert_eq!(stats.total_messages, 17); // Go + 8 Work + 8 Ack
        assert_eq!(stats.sent_of_kind("Work"), 8);
        // The 8-way fan-out encoded its payload once: 7 sends reused it.
        assert_eq!(stats.shared_payload_sends, 7);
    }
}
