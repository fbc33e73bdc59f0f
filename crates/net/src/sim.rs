//! The deterministic discrete-event simulator.
//!
//! Events are delivered in `(time, sequence)` order; all randomness (latency
//! jitter, fault decisions) comes from seeded RNGs, so a run is a pure
//! function of its inputs. That determinism is what lets the test suite
//! assert exact message counts and lets experiments be reproduced bit-for-bit
//! — the one capability the paper's JXTA testbed fundamentally lacked.
//!
//! The peers live on the shared [`crate::host`]: its peer table, send step
//! and delivery step. What the simulator adds is its clock — latency,
//! faults, churn and the trace around an event loop arranged for 10k+ peers
//! by three ideas:
//!
//! * **Shared payloads** — handlers queue [`Outgoing`] entries carrying
//!   `Arc<M>`; a fan-out ([`Context::send_to_many`]) allocates the message
//!   once and every receiver shares it. The host's send step serializes it
//!   exactly once per *unique* message and the delivery step unwraps it
//!   without a copy at the last delivery (`Arc::try_unwrap`).
//!   [`NetStats::shared_payload_sends`] counts the re-uses, and the
//!   `tests/codec.rs` regression test asserts encode passes == unique
//!   messages.
//! * **Flat event arena + index heap** — queued events live in a slab of
//!   reusable slots; the `BinaryHeap` orders bare `(time, seq, slot)`
//!   triples (24 bytes) instead of whole envelopes, so heap sift-ups move
//!   words, not payloads, and slot/`Vec` capacity is recycled through free
//!   lists instead of being reallocated per event.
//! * **Per-pipe batching** — each FIFO pipe `(from, to)` remembers its tail
//!   slot: a message scheduled on the same pipe for the *same* virtual
//!   instant coalesces into that slot instead of growing the heap. A batch
//!   delivers its messages back-to-back in send order (exactly what the
//!   FIFO contract promises), each through its own handler invocation, so
//!   protocol semantics — including `DbPeer`'s ack/wave coalescing — are
//!   preserved; only the heap traffic shrinks. Batching never delays or
//!   reorders a pipe's messages relative to each other, and cross-pipe
//!   deliveries scheduled for the same instant remain simultaneous in
//!   virtual time.
//!
//! Pipes are always FIFO: JXTA pipes (and any TCP-backed transport) never
//! reorder messages on one link, and the update protocol's completeness
//! flags rely on that. The pipe tails sit in one hash table keyed by the
//! `(from, to)` pair under the workspace's Fx hasher: a 10k-peer session
//! touches ~100k pipes and every message looks its pipe up on send and on
//! delivery, which as an ordered map was 17 levels of pointer chasing each
//! time. The table is never iterated, and pairs are keyed by `NodeId` — not
//! by peer slot — so a sender or receiver the simulator hosts no peer for
//! (the external driver, a node that left) keeps its FIFO floor too.

use crate::codec::Codec;
use crate::fault::{FaultDecision, FaultPlan};
use crate::host::{Context, Meter, Outgoing, Parcel, Peer, PeerTable};
use crate::latency::LatencyModel;
use crate::message::{SimTime, Wire};
use crate::stats::NetStats;
use crate::trace::{Trace, TraceEntry};
use p2p_topology::fxhash::FxHashMap;
use p2p_topology::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Virtual time of the last delivered event.
    pub virtual_time: SimTime,
    /// Number of deliveries processed.
    pub delivered: u64,
    /// True iff the event queue drained; false iff the event budget was hit
    /// (a diverging protocol, or faults that stranded the run).
    pub quiescent: bool,
}

/// What an arena slot currently holds.
enum SlotKind {
    /// On the free list.
    Free,
    /// A (batched) delivery; `from`/`to`/`items` on the slot apply.
    Deliver,
    /// Crash control event (churn plan).
    Crash(NodeId),
    /// Restart control event (churn plan).
    Restart(NodeId),
}

/// An arena slot. `items` keeps its capacity across reuses via the vec
/// pool, so steady-state scheduling allocates nothing.
struct Slot<M> {
    kind: SlotKind,
    from: NodeId,
    to: NodeId,
    items: Vec<Parcel<M>>,
}

/// Per-pipe FIFO state: the monotone delivery floor plus the appendable
/// tail slot for same-instant batching.
#[derive(Clone, Copy)]
struct PipeTail {
    floor: SimTime,
    /// Arena index of the pipe's most recently scheduled, still-queued
    /// slot; `NO_SLOT` when the tail was popped (or never existed).
    slot: u32,
    /// Virtual time that tail slot fires at.
    slot_at: SimTime,
}

const NO_SLOT: u32 = u32::MAX;

impl Default for PipeTail {
    fn default() -> Self {
        PipeTail {
            floor: SimTime::ZERO,
            slot: NO_SLOT,
            slot_at: SimTime::ZERO,
        }
    }
}

/// The simulator's clock: the event arena and its index heap, the pipe
/// tails, latency and faults.
struct Agenda<M> {
    /// Event arena + free list + recycled item vectors.
    slots: Vec<Slot<M>>,
    free_slots: Vec<u32>,
    vec_pool: Vec<Vec<Parcel<M>>>,
    /// Index heap over the arena: `(fire time, seq, slot)`.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    latency: Box<dyn LatencyModel>,
    fault: FaultPlan,
    now: SimTime,
    seq: u64,
    next_msg_id: u64,
    /// Hash-keyed, never iterated: a session touches ~100k pipes at 10k
    /// peers and looks one up on every send and every delivery.
    pipes: FxHashMap<(NodeId, NodeId), PipeTail>,
}

impl<M> Agenda<M> {
    fn alloc_slot(&mut self, kind: SlotKind, from: NodeId, to: NodeId) -> u32 {
        if let Some(idx) = self.free_slots.pop() {
            let s = &mut self.slots[idx as usize];
            s.kind = kind;
            s.from = from;
            s.to = to;
            debug_assert!(s.items.is_empty());
            idx
        } else {
            self.slots.push(Slot {
                kind,
                from,
                to,
                items: self.vec_pool.pop().unwrap_or_default(),
            });
            (self.slots.len() - 1) as u32
        }
    }

    fn free_slot(&mut self, idx: u32, mut items: Vec<Parcel<M>>) {
        items.clear();
        let s = &mut self.slots[idx as usize];
        s.kind = SlotKind::Free;
        // Keep the larger of the two buffers on the slot so capacity
        // accumulates where it is reused first.
        if items.capacity() > s.items.capacity() {
            let old = std::mem::replace(&mut s.items, items);
            self.vec_pool.push(old);
        } else {
            self.vec_pool.push(items);
        }
        self.free_slots.push(idx);
    }

    /// Queues `slot` to fire at `at`, after everything already due then.
    fn push(&mut self, at: SimTime, slot: u32) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Queues one parcel as a delivery slot of its own; returns the slot.
    fn push_parcel(&mut self, at: SimTime, from: NodeId, to: NodeId, parcel: Parcel<M>) -> u32 {
        let slot = self.alloc_slot(SlotKind::Deliver, from, to);
        self.slots[slot as usize].items.push(parcel);
        self.push(at, slot);
        slot
    }

    /// Schedules one counted send: the fault plan decides how many copies
    /// travel, each arrives after link latency and the handler's charge, no
    /// earlier than its pipe's floor, and joins the pipe's tail batch when
    /// that fires at the same instant.
    fn route(&mut self, stats: &mut NetStats, from: NodeId, out: Outgoing<M>, size: usize) {
        let to = out.to;
        let copies = match self.fault.decide(from, to, self.now) {
            FaultDecision::Drop => {
                stats.dropped += 1;
                0
            }
            FaultDecision::Deliver => 1,
            FaultDecision::Duplicate => {
                stats.duplicated += 1;
                2
            }
        };
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        for _ in 0..copies {
            let latency = self.latency.latency(from, to, size);
            let tail = self.pipes.entry((from, to)).or_default();
            let at = (self.now + out.delay + latency).max(tail.floor);
            tail.floor = at;
            let parcel = Parcel {
                msg_id,
                msg: Arc::clone(&out.msg),
                size,
            };
            if tail.slot != NO_SLOT && tail.slot_at == at {
                // Same pipe, same instant: coalesce into the queued tail
                // batch instead of growing the heap.
                let tail_slot = tail.slot;
                self.slots[tail_slot as usize].items.push(parcel);
                continue;
            }
            let slot = self.push_parcel(at, from, to, parcel);
            let tail = self.pipes.entry((from, to)).or_default();
            tail.slot = slot;
            tail.slot_at = at;
        }
    }
}

/// The discrete-event simulator over a homogeneous peer type `P`.
pub struct Simulator<M: Wire, P: Peer<M>> {
    peers: PeerTable<P>,
    /// Peer-slot-indexed crash flags.
    down: Vec<bool>,
    meter: Meter,
    agenda: Agenda<M>,
    trace: Trace,
    max_events: u64,
}

impl<M: Wire, P: Peer<M>> Simulator<M, P> {
    /// Creates a simulator with the given latency model, reliable transport
    /// and tracing off.
    pub fn new(latency: Box<dyn LatencyModel>) -> Self {
        Simulator {
            peers: PeerTable::default(),
            down: Vec::new(),
            meter: Meter::new(Codec::default()),
            agenda: Agenda {
                slots: Vec::new(),
                free_slots: Vec::new(),
                vec_pool: Vec::new(),
                heap: BinaryHeap::new(),
                latency,
                fault: FaultPlan::none(),
                now: SimTime::ZERO,
                seq: 0,
                next_msg_id: 0,
                pipes: FxHashMap::default(),
            },
            trace: Trace::default(),
            max_events: 10_000_000,
        }
    }

    /// Selects the wire codec. Every message sent from now on is measured
    /// (once, at send) under this codec.
    pub fn set_codec(&mut self, codec: Codec) {
        self.meter.codec = codec;
    }

    /// Installs a fault plan.
    pub fn set_fault_plan(&mut self, fault: FaultPlan) {
        self.agenda.fault = fault;
    }

    /// Schedules a churn plan: each crash/restart pair becomes a pair of
    /// control events at `base + offset`. While a peer is down, deliveries
    /// to it are dropped; at the restart event its
    /// [`Peer::on_restart`] hook runs (with a context, so it can send).
    pub fn schedule_churn(&mut self, plan: &crate::churn::ChurnPlan, base: SimTime) {
        for ev in plan.events() {
            for (at, kind) in [
                (base + ev.crash_at, SlotKind::Crash(ev.node)),
                (base + ev.restart_at, SlotKind::Restart(ev.node)),
            ] {
                let slot = self.agenda.alloc_slot(kind, ev.node, ev.node);
                self.agenda.push(at, slot);
            }
        }
    }

    /// True iff `node` is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.peers.slot(node).is_some_and(|s| self.down[s])
    }

    /// Enables message tracing with the given capacity.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace = Trace::with_capacity(capacity);
    }

    /// Caps the number of deliveries per [`Simulator::run`] (safety net
    /// against diverging protocols).
    pub fn set_max_events(&mut self, max_events: u64) {
        self.max_events = max_events;
    }

    /// Registers a peer (replacing any previous peer under the same id).
    pub fn add_peer(&mut self, id: NodeId, peer: P) {
        let slot = self.peers.insert(id, peer);
        if slot == self.down.len() {
            self.down.push(false);
        } else {
            self.down[slot] = false;
        }
    }

    /// Immutable access to a peer's state (assertions, result extraction).
    pub fn peer(&self, id: NodeId) -> Option<&P> {
        self.peers.slot(id).map(|s| &self.peers[s])
    }

    /// Mutable access to a peer's state.
    pub fn peer_mut(&mut self, id: NodeId) -> Option<&mut P> {
        let slot = self.peers.slot(id)?;
        Some(&mut self.peers[slot])
    }

    /// Iterates peers in id order.
    pub fn peers(&self) -> impl Iterator<Item = (&NodeId, &P)> {
        self.peers.iter()
    }

    /// Transport statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.meter.stats
    }

    /// The trace (empty unless enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.agenda.now
    }

    /// Injects a message from an external driver, delivered after link
    /// latency from the current time.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.send(
            from,
            vec![Outgoing {
                to,
                msg: Arc::new(msg),
                delay: SimTime::ZERO,
            }],
        );
    }

    /// Schedules a message for delivery at an absolute time (dynamic-change
    /// scripts). No latency is added: `at` *is* the delivery time.
    pub fn inject_at(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        let out = vec![Outgoing {
            to,
            msg: Arc::new(msg),
            delay: SimTime::ZERO,
        }];
        let agenda = &mut self.agenda;
        self.meter.send_all(from, out, |_, o, size| {
            let msg_id = agenda.next_msg_id;
            agenda.next_msg_id += 1;
            let parcel = Parcel {
                msg_id,
                msg: o.msg,
                size,
            };
            agenda.push_parcel(at, from, o.to, parcel);
        });
    }

    /// Routes the sends of one drain through the host's send step.
    fn send(&mut self, from: NodeId, out: Vec<Outgoing<M>>) {
        let agenda = &mut self.agenda;
        self.meter.send_all(from, out, |stats, o, size| {
            agenda.route(stats, from, o, size)
        });
    }

    /// Pops and processes one heap entry, returning how many budgeted
    /// events it contained (`None` when the queue is empty).
    fn step_counted(&mut self) -> Option<u64> {
        let Reverse((at, _seq, slot_idx)) = self.agenda.heap.pop()?;
        self.agenda.now = at;
        let slot = &mut self.agenda.slots[slot_idx as usize];
        let kind = std::mem::replace(&mut slot.kind, SlotKind::Free);
        match kind {
            SlotKind::Free => unreachable!("popped a free slot"),
            SlotKind::Crash(node) => {
                self.agenda.free_slots.push(slot_idx);
                self.crash(node);
                Some(1)
            }
            SlotKind::Restart(node) => {
                self.agenda.free_slots.push(slot_idx);
                self.restart(node);
                Some(1)
            }
            SlotKind::Deliver => {
                let from = slot.from;
                let to = slot.to;
                let items = std::mem::take(&mut slot.items);
                // The popped slot can no longer accept same-instant
                // appends; new sends on this pipe must open a fresh slot.
                if let Some(tail) = self.agenda.pipes.get_mut(&(from, to)) {
                    if tail.slot == slot_idx {
                        tail.slot = NO_SLOT;
                    }
                }
                let n = items.len() as u64;
                let items = self.deliver_batch(from, to, items);
                self.agenda.free_slot(slot_idx, items);
                Some(n)
            }
        }
    }

    fn crash(&mut self, node: NodeId) {
        self.meter.stats.peer_crashes += 1;
        self.trace_churn(node, "Crash");
        if let Some(s) = self.peers.slot(node) {
            self.down[s] = true;
            self.peers[s].on_crash();
        }
    }

    fn restart(&mut self, node: NodeId) {
        self.meter.stats.peer_restarts += 1;
        self.trace_churn(node, "Restart");
        if let Some(s) = self.peers.slot(node) {
            self.down[s] = false;
            let mut ctx = Context::new(self.agenda.now, node);
            self.peers[s].on_restart(&mut ctx);
            self.send(node, ctx.take_outgoing());
        }
    }

    fn trace_churn(&mut self, node: NodeId, kind: &'static str) {
        if self.trace.enabled() {
            self.trace.record(TraceEntry {
                at: self.agenda.now,
                from: node,
                to: node,
                kind,
                session: None,
                detail: String::new(),
            });
        }
    }

    /// Delivers a batch's messages back-to-back in send order, each through
    /// its own handler invocation. Returns the drained item vector so its
    /// capacity can be recycled.
    fn deliver_batch(
        &mut self,
        from: NodeId,
        to: NodeId,
        mut items: Vec<Parcel<M>>,
    ) -> Vec<Parcel<M>> {
        let Some(to_slot) = self.peers.slot(to) else {
            // Messages to a node that does not exist (yet / anymore) —
            // exactly like packets to a dead process.
            self.meter.stats.dropped += items.len() as u64;
            items.clear();
            return items;
        };
        for parcel in items.drain(..) {
            if self.down[to_slot] {
                self.meter.stats.dropped += 1;
                continue;
            }
            if self.trace.enabled() {
                self.trace.record(TraceEntry {
                    at: self.agenda.now,
                    from,
                    to,
                    kind: parcel.msg.kind(),
                    session: parcel.msg.session(),
                    detail: String::new(),
                });
            }
            let mut ctx = Context::new(self.agenda.now, to);
            self.meter
                .deliver(&mut self.peers[to_slot], from, parcel, &mut ctx);
            self.send(to, ctx.take_outgoing());
        }
        items
    }

    /// Runs until quiescence or the event budget.
    pub fn run(&mut self) -> RunOutcome {
        let start_messages = self.meter.stats.total_messages;
        let mut processed = 0u64;
        let quiescent = loop {
            if processed >= self.max_events {
                break false;
            }
            match self.step_counted() {
                Some(n) => processed += n,
                None => break true,
            }
        };
        let now = self.agenda.now;
        self.meter.stats.finished_at = now;
        RunOutcome {
            virtual_time: now,
            delivered: self.meter.stats.total_messages - start_messages,
            quiescent,
        }
    }

    /// Consumes the simulator, returning its peers (id order) — used by
    /// drivers that need to hand peer state onward.
    pub fn into_peers(self) -> Vec<(NodeId, P)> {
        self.peers.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{ConstantLatency, UniformLatency};

    /// Ping-pong test message.
    #[derive(Debug, Clone)]
    struct Ping(u32);

    impl Wire for Ping {
        fn wire_size(&self) -> usize {
            4
        }
        fn kind(&self) -> &'static str {
            "Ping"
        }
    }

    /// A peer that decrements the counter and bounces the message back until
    /// it reaches zero.
    struct Bouncer {
        seen: Vec<u32>,
    }

    impl Peer<Ping> for Bouncer {
        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
            self.seen.push(msg.0);
            if msg.0 > 0 {
                ctx.send(from, Ping(msg.0 - 1));
            }
        }
    }

    fn two_bouncers(latency: Box<dyn LatencyModel>) -> Simulator<Ping, Bouncer> {
        let mut sim = Simulator::new(latency);
        sim.add_peer(NodeId(0), Bouncer { seen: vec![] });
        sim.add_peer(NodeId(1), Bouncer { seen: vec![] });
        sim
    }

    #[test]
    fn ping_pong_terminates_with_exact_counts() {
        let mut sim = two_bouncers(Box::new(ConstantLatency(SimTime::from_millis(1))));
        sim.inject(NodeId(0), NodeId(1), Ping(5));
        let outcome = sim.run();
        assert!(outcome.quiescent);
        assert_eq!(outcome.delivered, 6); // 5,4,3,2,1,0
        assert_eq!(outcome.virtual_time, SimTime::from_millis(6));
        assert_eq!(sim.peer(NodeId(1)).unwrap().seen, vec![5, 3, 1]);
        assert_eq!(sim.peer(NodeId(0)).unwrap().seen, vec![4, 2, 0]);
        assert_eq!(sim.stats().total_messages, 6);
        assert_eq!(sim.stats().total_bytes, 24);
    }

    #[test]
    fn deterministic_under_jitter() {
        let run = || {
            let mut sim = two_bouncers(Box::new(UniformLatency::new(
                SimTime(100),
                SimTime(1_000),
                1234,
            )));
            sim.inject(NodeId(0), NodeId(1), Ping(20));
            let o = sim.run();
            (o.virtual_time, o.delivered)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn event_budget_stops_runaway() {
        /// A peer that echoes forever.
        struct Echo;
        impl Peer<Ping> for Echo {
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                ctx.send(from, msg);
            }
        }
        let mut sim: Simulator<Ping, Echo> = Simulator::new(Box::new(ConstantLatency(SimTime(1))));
        sim.add_peer(NodeId(0), Echo);
        sim.add_peer(NodeId(1), Echo);
        sim.set_max_events(100);
        sim.inject(NodeId(0), NodeId(1), Ping(0));
        let o = sim.run();
        assert!(!o.quiescent);
        assert_eq!(o.delivered, 100);
    }

    #[test]
    fn message_to_unknown_node_is_dropped() {
        let mut sim = two_bouncers(Box::new(ConstantLatency(SimTime(1))));
        sim.inject(NodeId(0), NodeId(9), Ping(3));
        let o = sim.run();
        assert!(o.quiescent);
        assert_eq!(o.delivered, 0);
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn drops_break_the_chain() {
        let mut sim = two_bouncers(Box::new(ConstantLatency(SimTime(1))));
        sim.set_fault_plan(FaultPlan::random(100, 0, 1));
        sim.inject(NodeId(0), NodeId(1), Ping(5));
        let o = sim.run();
        assert!(o.quiescent);
        assert_eq!(o.delivered, 0);
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn duplication_inflates_deliveries() {
        let mut sim = two_bouncers(Box::new(ConstantLatency(SimTime(1))));
        sim.set_fault_plan(FaultPlan::random(0, 100, 1));
        sim.inject(NodeId(0), NodeId(1), Ping(1));
        let o = sim.run();
        assert!(o.quiescent);
        // Ping(1) duplicated → two Ping(1) deliveries → each bounces a
        // Ping(0), also duplicated → four Ping(0) deliveries.
        assert_eq!(o.delivered, 6);
        assert!(sim.stats().duplicated >= 2);
    }

    #[test]
    fn charge_delays_subsequent_sends() {
        struct Charger;
        impl Peer<Ping> for Charger {
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                if msg.0 == 2 {
                    ctx.charge(SimTime::from_millis(10));
                    ctx.send(from, Ping(1));
                }
            }
        }
        let mut sim: Simulator<Ping, Charger> =
            Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(1))));
        sim.add_peer(NodeId(0), Charger);
        sim.add_peer(NodeId(1), Charger);
        sim.inject(NodeId(0), NodeId(1), Ping(2));
        let o = sim.run();
        // 1ms (inject latency) + 10ms charge + 1ms latency.
        assert_eq!(o.virtual_time, SimTime::from_millis(12));
    }

    #[test]
    fn inject_at_delivers_at_absolute_time() {
        let mut sim = two_bouncers(Box::new(ConstantLatency(SimTime(1))));
        sim.inject_at(SimTime::from_millis(500), NodeId(0), NodeId(1), Ping(0));
        let o = sim.run();
        assert_eq!(o.virtual_time, SimTime::from_millis(500));
        assert_eq!(o.delivered, 1);
    }

    #[test]
    fn trace_captures_deliveries() {
        let mut sim = two_bouncers(Box::new(ConstantLatency(SimTime(1))));
        sim.set_trace_capacity(10);
        sim.inject(NodeId(0), NodeId(1), Ping(2));
        sim.run();
        let kinds: Vec<_> = sim.trace().entries().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["Ping", "Ping", "Ping"]);
    }

    #[test]
    fn churn_drops_deliveries_while_down_and_fires_hooks() {
        use crate::churn::ChurnPlan;

        /// A bouncer that also counts crash/restart hook invocations and
        /// wipes its memory on crash like a real process would.
        struct Churny {
            seen: Vec<u32>,
            crashes: u32,
            restarts: u32,
        }
        impl Peer<Ping> for Churny {
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                self.seen.push(msg.0);
                if msg.0 > 0 {
                    ctx.send(from, Ping(msg.0 - 1));
                }
            }
            fn on_crash(&mut self) {
                self.crashes += 1;
                self.seen.clear();
            }
            fn on_restart(&mut self, ctx: &mut Context<Ping>) {
                self.restarts += 1;
                // Resync-style traffic from the restart hook must flow.
                ctx.send(NodeId(0), Ping(0));
            }
        }

        let mut sim: Simulator<Ping, Churny> =
            Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(1))));
        for id in [0u32, 1] {
            sim.add_peer(
                NodeId(id),
                Churny {
                    seen: vec![],
                    crashes: 0,
                    restarts: 0,
                },
            );
        }
        // Node 1 is down between 1.5 ms and 4.5 ms: the Ping(9) chain dies
        // when the second hop (at 2 ms) hits the crashed peer.
        sim.schedule_churn(
            &ChurnPlan::none().with_crash(
                NodeId(1),
                SimTime::from_micros(1_500),
                SimTime::from_micros(4_500),
            ),
            SimTime::ZERO,
        );
        sim.inject(NodeId(0), NodeId(1), Ping(9));
        let o = sim.run();
        assert!(o.quiescent);
        let p1 = sim.peer(NodeId(1)).unwrap();
        assert_eq!(p1.crashes, 1);
        assert_eq!(p1.restarts, 1);
        // Ping(9) arrived before the crash, was wiped, and the chain's
        // Ping(7) (due at 3 ms) was dropped while down.
        assert!(p1.seen.is_empty() || !p1.seen.contains(&9));
        assert_eq!(sim.stats().peer_crashes, 1);
        assert_eq!(sim.stats().peer_restarts, 1);
        assert!(sim.stats().dropped >= 1, "delivery while down must drop");
        // The restart hook's message reached node 0 (it bounces Ping(0)
        // into `seen` at node 0).
        assert!(sim.peer(NodeId(0)).unwrap().seen.contains(&0));
        assert!(!sim.is_down(NodeId(1)));
    }

    #[test]
    fn churned_runs_are_deterministic() {
        use crate::churn::ChurnPlan;
        let run = || {
            let mut sim = two_bouncers(Box::new(UniformLatency::new(
                SimTime(100),
                SimTime(1_000),
                77,
            )));
            sim.schedule_churn(
                &ChurnPlan::none().with_crash(NodeId(1), SimTime(2_000), SimTime(5_000)),
                SimTime::ZERO,
            );
            sim.inject(NodeId(0), NodeId(1), Ping(30));
            let o = sim.run();
            (o.virtual_time, o.delivered, sim.stats().dropped)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fifo_order_for_equal_latency() {
        // Two messages sent in one handler arrive in send order.
        struct Burst;
        impl Peer<Ping> for Burst {
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                if msg.0 == 9 {
                    ctx.send(from, Ping(1));
                    ctx.send(from, Ping(2));
                }
            }
        }
        struct Sink {
            seen: Vec<u32>,
        }
        // Heterogeneous peers via an enum wrapper.
        enum Node {
            Burst(Burst),
            Sink(Sink),
        }
        impl Peer<Ping> for Node {
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                match self {
                    Node::Burst(b) => b.on_message(from, msg, ctx),
                    Node::Sink(s) => s.seen.push(msg.0),
                }
            }
        }
        let mut sim: Simulator<Ping, Node> = Simulator::new(Box::new(ConstantLatency(SimTime(5))));
        sim.add_peer(NodeId(0), Node::Sink(Sink { seen: vec![] }));
        sim.add_peer(NodeId(1), Node::Burst(Burst));
        sim.inject(NodeId(0), NodeId(1), Ping(9));
        sim.run();
        match sim.peer(NodeId(0)).unwrap() {
            Node::Sink(s) => assert_eq!(s.seen, vec![1, 2]),
            _ => unreachable!(),
        }
    }

    /// A same-pipe burst at one virtual instant coalesces into a single
    /// batch slot (one heap entry) while still delivering every message,
    /// in order, through its own handler invocation.
    #[test]
    fn same_instant_pipe_burst_is_batched_and_ordered() {
        struct Burst;
        impl Peer<Ping> for Burst {
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                if msg.0 == 100 {
                    for k in 1..=5 {
                        ctx.send(from, Ping(k));
                    }
                }
            }
        }
        struct Sink {
            seen: Vec<u32>,
        }
        enum Node {
            Burst(Burst),
            Sink(Sink),
        }
        impl Peer<Ping> for Node {
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                match self {
                    Node::Burst(b) => b.on_message(from, msg, ctx),
                    Node::Sink(s) => s.seen.push(msg.0),
                }
            }
        }
        let mut sim: Simulator<Ping, Node> = Simulator::new(Box::new(ConstantLatency(SimTime(7))));
        sim.add_peer(NodeId(0), Node::Sink(Sink { seen: vec![] }));
        sim.add_peer(NodeId(1), Node::Burst(Burst));
        sim.inject(NodeId(0), NodeId(1), Ping(100));
        let o = sim.run();
        assert_eq!(o.delivered, 6);
        // All five bursts share one latency, one pipe, one instant.
        assert_eq!(o.virtual_time, SimTime(14));
        match sim.peer(NodeId(0)).unwrap() {
            Node::Sink(s) => assert_eq!(s.seen, vec![1, 2, 3, 4, 5]),
            _ => unreachable!(),
        }
    }

    /// A fan-out via `send_to_many` shares one payload: every receiver
    /// sees the message, and the shared-payload counter records the reuse.
    #[test]
    fn fan_out_shares_payload_and_counts_reuse() {
        struct Hub {
            n: u32,
        }
        struct Leaf {
            got: Vec<u32>,
        }
        enum Node {
            Hub(Hub),
            Leaf(Leaf),
        }
        impl Peer<Ping> for Node {
            fn on_message(&mut self, _from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                match self {
                    Node::Hub(h) => {
                        ctx.send_to_many((1..=h.n).map(NodeId), Ping(msg.0 + 1));
                    }
                    Node::Leaf(l) => l.got.push(msg.0),
                }
            }
        }
        let mut sim: Simulator<Ping, Node> = Simulator::new(Box::new(ConstantLatency(SimTime(1))));
        sim.add_peer(NodeId(0), Node::Hub(Hub { n: 8 }));
        for i in 1..=8 {
            sim.add_peer(NodeId(i), Node::Leaf(Leaf { got: vec![] }));
        }
        sim.inject(NodeId(9), NodeId(0), Ping(41));
        let o = sim.run();
        assert_eq!(o.delivered, 9); // the injected ping + 8 fan-out copies
        for i in 1..=8 {
            match sim.peer(NodeId(i)).unwrap() {
                Node::Leaf(l) => assert_eq!(l.got, vec![42]),
                _ => unreachable!(),
            }
        }
        // One payload measured once, reused for the 7 other receivers.
        assert_eq!(sim.stats().shared_payload_sends, 7);
    }

    /// The pipe table under a sender with far more than 1 000 pipes (the
    /// root's roster fan-out): every pipe keeps its own FIFO floor — a
    /// message sent after a delayed one waits for it instead of overtaking
    /// — and its own tail slot, so the three messages of one pipe that end
    /// up due at one instant share a heap entry, round after round.
    #[test]
    fn wide_fan_out_keeps_per_pipe_floors_and_batches() {
        const LEAVES: u32 = 1_500;
        enum Node {
            Hub,
            Leaf(Vec<u32>),
        }
        impl Peer<Ping> for Node {
            fn on_message(&mut self, _from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                match self {
                    Node::Hub => {
                        for leaf in (1..=LEAVES).map(NodeId) {
                            ctx.send_after(SimTime(50), leaf, Ping(1));
                            ctx.send(leaf, Ping(2));
                            ctx.send(leaf, Ping(3));
                        }
                    }
                    Node::Leaf(got) => got.push(msg.0),
                }
            }
        }
        let mut sim: Simulator<Ping, Node> = Simulator::new(Box::new(ConstantLatency(SimTime(7))));
        sim.add_peer(NodeId(0), Node::Hub);
        for i in 1..=LEAVES {
            sim.add_peer(NodeId(i), Node::Leaf(vec![]));
        }
        for round in 1..=2u32 {
            let start = sim.now();
            sim.inject(NodeId(LEAVES + 1), NodeId(0), Ping(0));
            assert!(sim.step_counted().is_some(), "the trigger reaches the hub");
            assert_eq!(sim.agenda.heap.len(), LEAVES as usize, "one batch per pipe");
            assert_eq!(sim.agenda.pipes.len(), LEAVES as usize + 1);
            let o = sim.run();
            assert!(o.quiescent);
            assert_eq!(o.delivered, 3 * u64::from(LEAVES));
            // Trigger latency, then the delayed message's 50 + 7; the two
            // undelayed ones were floored to it.
            assert_eq!(o.virtual_time, start + SimTime(7 + 50 + 7));
            for i in 1..=LEAVES {
                match sim.peer(NodeId(i)).unwrap() {
                    Node::Leaf(got) => assert_eq!(got.len(), 3 * round as usize),
                    Node::Hub => unreachable!(),
                }
            }
        }
        match sim.peer(NodeId(LEAVES)).unwrap() {
            Node::Leaf(got) => assert_eq!(got, &[1, 2, 3, 1, 2, 3]),
            Node::Hub => unreachable!(),
        }
        assert_eq!(sim.stats().dropped, 0);
    }

    /// The event arena recycles slots: a long run keeps the arena small
    /// instead of growing with total message count.
    #[test]
    fn arena_recycles_slots() {
        let mut sim = two_bouncers(Box::new(ConstantLatency(SimTime(1))));
        sim.inject(NodeId(0), NodeId(1), Ping(500));
        let o = sim.run();
        assert!(o.quiescent);
        assert_eq!(o.delivered, 501);
        assert!(
            sim.agenda.slots.len() <= 4,
            "arena grew to {} slots for a 1-in-flight workload",
            sim.agenda.slots.len()
        );
    }
}
