//! Sharded worker-pool runtime: `T` shard threads multiplex `n/T` peers each.
//!
//! This is the paper's asynchronous model of communications on real
//! parallelism, at the 10k-peer scales the simulator reaches: the thread
//! count stays bounded because peers are *placed* on shards
//! ([`ShardPlacement`]), each shard thread owns a run queue of scheduled
//! peers, and idle shards steal runnable peers from their neighbours. With
//! `T ≥ n` it is one thread per peer.
//!
//! The peers live on the shared [`crate::host`]: its peer table holds one
//! cell per peer, and every send and delivery goes through the host's send
//! and delivery steps, exactly as on the simulator. What this runtime adds
//! is its scheduling — run queues, cross-shard channels, stealing, the
//! outstanding-message barrier and panic poisoning.
//!
//! Scheduling is the classic actor-mailbox protocol. Every peer owns a
//! FIFO inbox plus a `scheduled` flag; a sender enqueues the work item and
//! claims the flag with a `swap`, and exactly the claimant that observes
//! `false` makes the peer runnable. The thread that picks a runnable peer
//! up drains its inbox exclusively, so one peer never runs on two threads
//! at once and each sender→receiver pipe stays FIFO — the property the
//! protocol's completeness flags rely on.
//!
//! Message routing distinguishes home shards:
//!
//! * **intra-shard** sends short-circuit: the item goes straight into the
//!   target's inbox (payload still behind the sender's `Arc`, no channel
//!   hop) and the peer onto the home shard's run queue;
//! * **cross-shard** sends hand the `(from, msg)` item to the target's home
//!   shard over an `mpsc` channel and are counted in
//!   [`NetStats::cross_shard_sends`] — the locality metric a placement
//!   policy is judged by. The split is decided by *home* shards, so the
//!   counter measures placement quality, not scheduling accidents.
//!
//! Termination is an outstanding-message counter shared by all shards as a
//! quiescence barrier: it is incremented before any item is enqueued
//! (inbox or channel) and decremented only after the receiving handler
//! *and all sends it performed* completed, so it reads zero exactly at the
//! Dijkstra–Scholten fix-point — at which moment no inbox, run queue or
//! channel holds work and no handler is running, and every shard thread
//! exits. A panicking peer is poisoned:
//! its remaining and future items are dropped (still decrementing the
//! counter) so the barrier releases, and [`ShardedNetwork::run`] reports
//! the first [`WorkerPanic`] naming the node instead of propagating the
//! panic into the driver thread.
//!
//! Statistics stay off the hot path: every shard thread keeps a private
//! [`NetStats`] merged once at quiescence.

use crate::codec::Codec;
use crate::host::{Context, Meter, Outgoing, Parcel, Peer, PeerTable};
use crate::message::{SimTime, Wire};
use crate::stats::NetStats;
use p2p_topology::NodeId;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

/// How peers are assigned to shard threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlacement {
    /// Peer `i` (in id order) goes to shard `i mod T`. Spreads load evenly
    /// regardless of topology; the default.
    #[default]
    RoundRobin,
    /// Contiguous blocks of the id order: peer `i` goes to shard
    /// `i·T / n`. Topology-aware for ring-like graphs, where neighbours
    /// have adjacent ids — almost every send becomes intra-shard.
    Blocks,
}

impl ShardPlacement {
    /// Shard of the `i`-th peer (id order) among `n` peers on `t` shards.
    fn shard_of(self, i: usize, n: usize, t: usize) -> usize {
        match self {
            ShardPlacement::RoundRobin => i % t,
            ShardPlacement::Blocks => i * t / n.max(1),
        }
    }
}

/// One queued delivery: the `(from, msg)` work item of a shard run queue.
struct WorkItem<M> {
    from: NodeId,
    parcel: Parcel<M>,
}

/// Cross-shard hand-off traffic.
enum ShardMsg<M> {
    /// A work item for the peer in peer-table slot `cell` (homed on the
    /// receiving shard).
    Work { cell: u32, item: WorkItem<M> },
    /// Quiescence nudge: re-check the outstanding counter.
    Wake,
}

/// A peer's running state; behind a mutex that is uncontended by
/// construction (the `scheduled` flag admits one draining thread at a
/// time) but keeps the runtime within `forbid(unsafe_code)`.
struct CellState<P> {
    peer: P,
    /// Set when this peer's handler panicked: later items are dropped
    /// (still decrementing the outstanding counter) so the quiescence
    /// barrier releases instead of wedging on a dead peer.
    poisoned: bool,
}

/// One peer's cell in the host's peer table: home shard, mailbox and
/// claim flag.
struct PeerCell<M, P> {
    home: usize,
    scheduled: AtomicBool,
    inbox: Mutex<VecDeque<WorkItem<M>>>,
    state: Mutex<CellState<P>>,
}

/// State shared by all shard threads.
struct Shared<M, P> {
    cells: PeerTable<PeerCell<M, P>>,
    /// Per-shard run queues of runnable cell slots. The owning shard
    /// pops from the front; idle thieves pop from the back.
    runnable: Vec<Mutex<VecDeque<u32>>>,
    /// Per-shard hand-off channels.
    handoff: Vec<Sender<ShardMsg<M>>>,
    /// The sharded quiescence barrier: >0 while any item is queued or any
    /// handler is running; zero exactly at fix-point.
    outstanding: AtomicI64,
    msg_ids: AtomicU64,
    first_panic: Mutex<Option<WorkerPanic>>,
    codec: Codec,
    epoch: Instant,
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
    placement: ShardPlacement,
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
            placement: ShardPlacement::default(),
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
    /// available core. Counts above the peer count are allowed — the extra
    /// shards simply own no peers and live off stolen work.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards;
    }

    /// Selects the peer→shard placement policy.
    pub fn set_placement(&mut self, placement: ShardPlacement) {
        self.placement = placement;
    }

    fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1)
        }
    }

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
        let shards = self.effective_shards();
        let placement = self.placement;
        let sorted = self.peers.into_sorted();
        let n = sorted.len();
        let mut cells = PeerTable::default();
        for (i, (id, peer)) in sorted.into_iter().enumerate() {
            let cell = PeerCell {
                home: placement.shard_of(i, n, shards),
                scheduled: AtomicBool::new(false),
                inbox: Mutex::new(VecDeque::new()),
                state: Mutex::new(CellState {
                    peer,
                    poisoned: false,
                }),
            };
            cells.insert(id, cell);
        }
        let (handoff, receivers): (Vec<_>, Vec<_>) = (0..shards).map(|_| mpsc::channel()).unzip();
        let shared = Arc::new(Shared {
            cells,
            runnable: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            handoff,
            outstanding: AtomicI64::new(0),
            msg_ids: AtomicU64::new(0),
            first_panic: Mutex::new(None),
            codec: self.codec,
            epoch: started,
        });

        // Count and enqueue the initial messages before any thread starts,
        // so the barrier can never transiently read zero while work remains.
        let mut meter = Meter::new(self.codec);
        for (from, to, msg) in initial {
            let out = vec![Outgoing {
                to,
                msg: Arc::new(msg),
                delay: SimTime::ZERO,
            }];
            meter.send_all(from, out, |stats, o, size| {
                post(&shared, stats, None, from, o, size)
            });
        }
        // With nothing to deliver, no shard thread is spun up.
        if shared.outstanding.load(Ordering::SeqCst) > 0 {
            let handles: Vec<_> = (receivers.into_iter().enumerate())
                .map(|(shard, rx)| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || shard_loop(shard, &shared, rx))
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(shard_stats) => meter.stats.merge(&shard_stats),
                    // Handlers panic inside catch_unwind, so a dead thread
                    // means the shard loop itself failed; surface it rather
                    // than aborting the driver.
                    Err(panic) => record_panic(&shared, NodeId(u32::MAX), panic.as_ref()),
                }
            }
        }
        let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| unreachable!());
        if let Some(panic) = shared.first_panic.into_inner().expect("panic slot") {
            return Err(panic);
        }
        let peers = (shared.cells.into_sorted().into_iter())
            .map(|(id, c)| (id, c.state.into_inner().expect("state lock").peer))
            .collect();
        meter.stats.finished_at = SimTime(started.elapsed().as_micros() as u64);
        Ok((peers, meter.stats))
    }
}

/// Keeps the first panic of the run.
fn record_panic<M, P>(shared: &Shared<M, P>, node: NodeId, panic: &(dyn std::any::Any + Send)) {
    let mut slot = shared.first_panic.lock().expect("panic slot");
    if slot.is_none() {
        *slot = Some(WorkerPanic {
            node,
            payload: payload_string(panic),
        });
    }
}

/// One shard thread: drain the local run queue, accept cross-shard
/// hand-offs, steal when idle, exit when the quiescence barrier reads zero.
fn shard_loop<M: Wire + Sync, P: Peer<M>>(
    shard: usize,
    shared: &Shared<M, P>,
    rx: Receiver<ShardMsg<M>>,
) -> NetStats {
    let mut meter = Meter::new(shared.codec);
    loop {
        let local = shared.runnable[shard]
            .lock()
            .expect("runnable lock")
            .pop_front();
        if let Some(idx) = local {
            drain_cell(idx, shared, &mut meter);
            continue;
        }
        match rx.try_recv() {
            Ok(msg) => {
                accept(msg, shared);
                continue;
            }
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => break,
        }
        if let Some(idx) = steal(shard, shared) {
            drain_cell(idx, shared, &mut meter);
            continue;
        }
        // Nothing local, nothing handed off, nothing stealable: quiescent
        // if the barrier reads zero (it can never grow again — growth
        // requires a running handler, which requires an outstanding item);
        // otherwise wait briefly for a hand-off or a wake nudge.
        if shared.outstanding.load(Ordering::SeqCst) == 0 {
            break;
        }
        match rx.recv_timeout(Duration::from_micros(200)) {
            Ok(msg) => accept(msg, shared),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    meter.stats
}

/// Routes one cross-shard hand-off into the local mailbox/run queue.
fn accept<M, P>(msg: ShardMsg<M>, shared: &Shared<M, P>) {
    match msg {
        ShardMsg::Wake => {}
        ShardMsg::Work { cell, item } => schedule(shared, cell, item),
    }
}

/// Puts `item` into the mailbox of the peer in `cell` and, when this call
/// claims the peer's flag, the peer onto its home shard's run queue.
fn schedule<M, P>(shared: &Shared<M, P>, cell: u32, item: WorkItem<M>) {
    let c = &shared.cells[cell as usize];
    c.inbox.lock().expect("inbox lock").push_back(item);
    if !c.scheduled.swap(true, Ordering::SeqCst) {
        shared.runnable[c.home]
            .lock()
            .expect("runnable lock")
            .push_back(cell);
    }
}

/// Routes one counted send. A send to a node no peer is hosted under is
/// dropped. Any other becomes one more outstanding item. It goes straight
/// into the target's mailbox when the target is homed on the sending shard
/// (`from_home`), or when no shard sends it (`None`: the driver's initial
/// messages). Otherwise it goes over the target home's hand-off channel.
fn post<M, P>(
    shared: &Shared<M, P>,
    stats: &mut NetStats,
    from_home: Option<usize>,
    from: NodeId,
    out: Outgoing<M>,
    size: usize,
) {
    let Some(slot) = shared.cells.slot(out.to) else {
        stats.dropped += 1;
        return;
    };
    shared.outstanding.fetch_add(1, Ordering::SeqCst);
    let msg_id = shared.msg_ids.fetch_add(1, Ordering::Relaxed);
    let parcel = Parcel {
        msg_id,
        msg: out.msg,
        size,
    };
    let item = WorkItem { from, parcel };
    let (cell, home) = (slot as u32, shared.cells[slot].home);
    match from_home {
        Some(h) if h != home => {
            stats.cross_shard_sends += 1;
            let _ = shared.handoff[home].send(ShardMsg::Work { cell, item });
        }
        // Intra-shard short-circuit: no channel hop, payload still behind
        // the sender's Arc.
        _ => schedule(shared, cell, item),
    }
}

/// Pops a runnable peer from some other shard's queue (back end, so the
/// victim's own front-pops race as little as possible).
fn steal<M, P>(me: usize, shared: &Shared<M, P>) -> Option<u32> {
    let t = shared.runnable.len();
    for off in 1..t {
        let victim = (me + off) % t;
        if let Some(idx) = shared.runnable[victim]
            .lock()
            .expect("runnable lock")
            .pop_back()
        {
            return Some(idx);
        }
    }
    None
}

/// Exclusively drains one claimed peer's inbox, running its handler per
/// item and routing the sends. The exit re-check (`store(false)`, look
/// again, re-`swap`) closes the race with a concurrent enqueuer: exactly
/// one of the two observes `false` and keeps the peer scheduled.
fn drain_cell<M: Wire + Sync, P: Peer<M>>(idx: u32, shared: &Shared<M, P>, meter: &mut Meter) {
    let slot = idx as usize;
    let cell = &shared.cells[slot];
    let mut state = cell.state.lock().expect("state lock");
    loop {
        let item = cell.inbox.lock().expect("inbox lock").pop_front();
        match item {
            Some(item) => process(slot, &mut state, item, shared, meter),
            None => {
                cell.scheduled.store(false, Ordering::SeqCst);
                let refilled = !cell.inbox.lock().expect("inbox lock").is_empty();
                if refilled && !cell.scheduled.swap(true, Ordering::SeqCst) {
                    continue;
                }
                break;
            }
        }
    }
}

/// Delivers one work item through the host's delivery step (panic-safe)
/// and routes the sends it queued through the send step.
fn process<M: Wire + Sync, P: Peer<M>>(
    slot: usize,
    state: &mut CellState<P>,
    item: WorkItem<M>,
    shared: &Shared<M, P>,
    meter: &mut Meter,
) {
    if state.poisoned {
        meter.stats.dropped += 1;
        dec_outstanding(shared);
        return;
    }
    let id = shared.cells.id(slot);
    let now = SimTime(shared.epoch.elapsed().as_micros() as u64);
    let mut ctx = Context::new(now, id);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        meter.deliver(&mut state.peer, item.from, item.parcel, &mut ctx)
    }));
    if let Err(panic) = outcome {
        state.poisoned = true;
        record_panic(shared, id, panic.as_ref());
    }
    // Sends queued before a panic still go out.
    let home = shared.cells[slot].home;
    meter.send_all(id, ctx.take_outgoing(), |stats, o, size| {
        post(shared, stats, Some(home), id, o, size)
    });
    dec_outstanding(shared);
}

/// Decrements the quiescence barrier; the decrement that reaches zero
/// nudges every shard so sleepers re-check and exit.
fn dec_outstanding<M, P>(shared: &Shared<M, P>) {
    if shared.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
        for tx in &shared.handoff {
            let _ = tx.send(ShardMsg::Wake);
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

    fn ring(n: u32, shards: usize, placement: ShardPlacement) -> ShardedNetwork<Token, RingPeer> {
        let mut net = ShardedNetwork::new();
        net.set_shards(shards);
        net.set_placement(placement);
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
            let net = ring(5, shards, ShardPlacement::RoundRobin);
            let (peers, stats) = net.run(vec![(NodeId(0), NodeId(0), Token(24))]).unwrap();
            let total_seen: u32 = peers.iter().map(|(_, p)| p.seen).sum();
            assert_eq!(total_seen, 25, "shards={shards}");
            assert_eq!(stats.total_messages, 25, "shards={shards}");
        }
    }

    #[test]
    fn more_shards_than_peers_still_quiesces() {
        let net = ring(3, 9, ShardPlacement::RoundRobin);
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

    #[test]
    fn blocks_placement_localizes_ring_traffic() {
        // On a ring with contiguous blocks, only the 4 block-boundary hops
        // are cross-shard; round-robin makes every hop cross-shard.
        let net = ring(32, 4, ShardPlacement::Blocks);
        let (_, stats) = net.run(vec![(NodeId(0), NodeId(0), Token(64))]).unwrap();
        let blocks_cross = stats.cross_shard_sends;
        let net = ring(32, 4, ShardPlacement::RoundRobin);
        let (_, stats) = net.run(vec![(NodeId(0), NodeId(0), Token(64))]).unwrap();
        let rr_cross = stats.cross_shard_sends;
        assert!(
            blocks_cross < rr_cross,
            "blocks={blocks_cross} rr={rr_cross}"
        );
        // 64 handler sends, two ring laps: each lap crosses 4 boundaries.
        assert!(blocks_cross <= 9, "blocks={blocks_cross}");
        assert_eq!(rr_cross, 64);
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
