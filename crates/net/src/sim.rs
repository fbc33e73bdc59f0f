//! The deterministic discrete-event simulator.
//!
//! Events fire in `(time, sequence)` order; all randomness (latency
//! jitter, fault decisions) comes from seeded RNGs, so a run is a pure
//! function of its inputs. That determinism is what lets the test suite
//! assert exact message counts and lets experiments be reproduced bit-for-bit
//! — the one capability the paper's JXTA testbed fundamentally lacked.
//!
//! The peers live on the shared [`crate::host`]: its peer table, send step
//! and delivery step. What the simulator adds is its clock — latency,
//! faults, churn and the trace around one agenda:
//!
//! * **Two lanes, one event per delivery** — every send, crash and restart is
//!   a `(time, seq, event)` entry, fired in that order. A simulation mostly
//!   schedules in time order (as calendar queues observe): ~76k of a
//!   10k-peer session's ~98k sends land no earlier than every send already
//!   scheduled, so they go to the back of a FIFO lane (`VecDeque`); the
//!   rest — a send a charge or jitter puts behind the lane's last, churn,
//!   [`Simulator::inject_at`] — go to a `BinaryHeap`. A pop takes the earlier
//!   front. The clock never runs back: an entry due in the past is due now.
//! * **Shared payloads** — handlers queue [`Outgoing`] entries carrying
//!   `Arc<M>`; a fan-out ([`Context::send_to_many`]) allocates the message
//!   once and every receiver shares it. The host's send step serializes it
//!   exactly once per *unique* message and the delivery step unwraps it
//!   without a copy at the last delivery (`Arc::try_unwrap`).
//!   [`NetStats::shared_payload_sends`] counts the re-uses, and the
//!   `tests/codec.rs` regression test asserts encode passes == unique
//!   messages.
//!
//! The link is what the paper's update runs over: FIFO pipes that deliver
//! each message at most once, as JXTA pipes and TCP do. FIFO is one floor
//! per pipe — a send never arrives before the pipe's previous one — and the
//! update protocol's completeness flags rely on it. A floor binds only
//! while the pipe's previous send is in flight, so it lives with the
//! sender, for its sends in flight: their latest arrival per receiver
//! and of all, forgotten once the clock reaches that. Senders are keyed by
//! `NodeId`, not by peer slot, so one the simulator hosts no peer for (the
//! external driver, a node that left) keeps its floors too.

use crate::codec::Codec;
use crate::fault::{FaultDecision, FaultPlan};
use crate::host::{Context, Meter, NodeRows, Outgoing, Parcel, Peer, PeerTable};
use crate::latency::LatencyModel;
use crate::message::{SimTime, Wire};
use crate::stats::NetStats;
use crate::trace::{Trace, TraceEntry};
use p2p_topology::fxhash::FxHashMap;
use p2p_topology::NodeId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
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

/// What fires when an entry of the agenda comes due.
enum Event<M> {
    /// One message goes from a node to another: the payload and its wire
    /// size, in 32 bits as a frame's length is, so that an entry takes 40
    /// bytes.
    Deliver(NodeId, NodeId, Arc<M>, u32),
    /// Churn plan: the node's process dies.
    Crash(NodeId),
    /// Churn plan: the node's process comes back.
    Restart(NodeId),
}

/// An agenda entry: its event fires at `at`, after every entry due then
/// with a smaller `seq`. A delivery's `seq` is its send's identity.
struct Due<M> {
    at: SimTime,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for Due<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<M> Eq for Due<M> {}

impl<M> PartialOrd for Due<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Due<M> {
    /// Reversed, so the max-heap pops the earliest entry first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One sender's sends in flight: each pipe's latest arrival, its FIFO
/// floor, and the latest of all. Most senders have a few pipes in flight,
/// so the first four sit in the entry and only the rest in a map.
#[derive(Default)]
struct InFlight {
    until: SimTime,
    /// How many of `to`/`at` are in use; `far` is empty until all are.
    len: u8,
    to: [NodeId; 4],
    at: [SimTime; 4],
    far: Option<Box<FxHashMap<NodeId, SimTime>>>,
}

impl InFlight {
    /// `at` raised to the floor of the pipe to `to`, which it becomes, after
    /// forgetting what arrived by `now`. Only a send landing before the
    /// latest in flight meets a floor; only one landing after `now` sets one.
    fn floor(&mut self, to: NodeId, at: SimTime, now: SimTime) -> SimTime {
        if self.until <= now && self.len > 0 {
            self.len = 0;
            self.far.iter_mut().for_each(|far| far.clear());
        }
        if self.until <= at && at <= now {
            return at;
        }
        let len = usize::from(self.len);
        let floor = match self.to[..len].iter().position(|&t| t == to) {
            Some(i) => &mut self.at[i],
            None if len < self.to.len() => {
                (self.len, self.to[len], self.at[len]) = (self.len + 1, to, at);
                &mut self.at[len]
            }
            None => self.far.get_or_insert_default().entry(to).or_insert(at),
        };
        *floor = at.max(*floor);
        self.until = self.until.max(*floor);
        *floor
    }
}

/// The simulator's clock: the two lanes, the pipe floors, latency and
/// faults.
struct Agenda<M> {
    /// Sends in `(at, seq)` order: each due no earlier than the one before.
    lane: VecDeque<Due<M>>,
    /// Every other entry.
    heap: BinaryHeap<Due<M>>,
    latency: Box<dyn LatencyModel>,
    fault: FaultPlan,
    now: SimTime,
    seq: u64,
    /// `NodeId → in_flight` row of every node that has sent.
    senders: NodeRows,
    in_flight: Vec<InFlight>,
}

impl<M> Agenda<M> {
    /// Queues `event` at `at` — or now, if `at` is past — after everything
    /// already due then: a `send` at the back of the lane unless an entry
    /// there is due later, anything else on the heap.
    fn push(&mut self, at: SimTime, event: Event<M>, send: bool) {
        let (at, seq) = (at.max(self.now), self.seq);
        let due = Due { at, seq, event };
        self.seq += 1;
        if send && self.lane.back().is_none_or(|last| last.at <= due.at) {
            self.lane.push_back(due);
        } else {
            self.heap.push(due);
        }
    }

    /// Takes the earlier of the two lanes' first entries and moves the
    /// clock to it.
    fn pop(&mut self) -> Option<Due<M>> {
        // `Due` orders reversed: of two entries, the greater is due first.
        let due = match (self.lane.front(), self.heap.peek()) {
            (Some(first), Some(top)) if top > first => self.heap.pop(),
            (Some(_), _) => self.lane.pop_front(),
            (None, _) => self.heap.pop(),
        }?;
        self.now = due.at;
        Some(due)
    }

    /// Schedules one counted send, unless the fault plan drops it: it
    /// arrives after link latency and the handler's charge, no earlier than
    /// its pipe's floor.
    fn route(&mut self, stats: &mut NetStats, from: NodeId, out: Outgoing<M>, size: usize) {
        let to = out.to;
        if self.fault.decide(from, to, self.now) == FaultDecision::Drop {
            stats.dropped += 1;
            return;
        }
        let row = self.senders.row(from);
        if row == self.in_flight.len() {
            self.in_flight.push(InFlight::default());
        }
        let at = self.now + out.delay + self.latency.latency(from, to, size);
        let at = self.in_flight[row].floor(to, at, self.now);
        let size = u32::try_from(size).expect("a message fits a frame");
        self.push(at, Event::Deliver(from, to, out.msg, size), true);
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
    /// The send buffer every handler's [`Context`] queues into, empty
    /// between handlers: allocated once, grown to the largest drain.
    spare: Vec<Outgoing<M>>,
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
                lane: VecDeque::new(),
                heap: BinaryHeap::new(),
                latency,
                fault: FaultPlan::none(),
                now: SimTime::ZERO,
                seq: 0,
                senders: NodeRows::default(),
                in_flight: Vec::new(),
            },
            trace: Trace::default(),
            max_events: 10_000_000,
            spare: Vec::new(),
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
    /// control events at `base + offset` (or now, if that is past). While a
    /// peer is down, deliveries to it are dropped; at the restart event its
    /// [`Peer::on_restart`] hook runs (with a context, so it can send).
    pub fn schedule_churn(&mut self, plan: &crate::churn::ChurnPlan, base: SimTime) {
        for ev in plan.events() {
            let agenda = &mut self.agenda;
            agenda.push(base + ev.crash_at, Event::Crash(ev.node), false);
            agenda.push(base + ev.restart_at, Event::Restart(ev.node), false);
        }
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
        let mut out = std::mem::take(&mut self.spare);
        out.push(Outgoing {
            to,
            msg: Arc::new(msg),
            delay: SimTime::ZERO,
        });
        self.send(from, out);
    }

    /// Schedules a message for delivery at an absolute time (dynamic-change
    /// scripts). No latency is added: `at` *is* the delivery time — or now,
    /// if `at` is past, since the clock never runs back.
    pub fn inject_at(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        let mut out = std::mem::take(&mut self.spare);
        out.push(Outgoing {
            to,
            msg: Arc::new(msg),
            delay: SimTime::ZERO,
        });
        let agenda = &mut self.agenda;
        self.meter.send_all(from, &mut out, |_, o, size| {
            let size = u32::try_from(size).expect("a message fits a frame");
            agenda.push(at, Event::Deliver(from, to, o.msg, size), false);
        });
        self.spare = out;
    }

    /// Routes the sends of one drain through the host's send step, and
    /// keeps their buffer for the next handler.
    fn send(&mut self, from: NodeId, mut out: Vec<Outgoing<M>>) {
        let agenda = &mut self.agenda;
        self.meter.send_all(from, &mut out, |stats, o, size| {
            agenda.route(stats, from, o, size)
        });
        self.spare = out;
    }

    /// A context for a handler of `node`'s, queueing into the kept buffer.
    fn context(&mut self, node: NodeId) -> Context<M> {
        Context::reusing(node, std::mem::take(&mut self.spare))
    }

    /// Pops and fires the earliest event; `false` when the agenda is empty.
    fn step(&mut self) -> bool {
        let Some(due) = self.agenda.pop() else {
            return false;
        };
        match due.event {
            Event::Deliver(from, to, msg, size) => {
                let (msg_id, size) = (due.seq, size as usize);
                self.deliver(from, to, Parcel { msg_id, msg, size });
            }
            Event::Crash(node) => self.crash(node),
            Event::Restart(node) => self.restart(node),
        }
        true
    }

    fn crash(&mut self, node: NodeId) {
        self.trace_churn(node, "Crash");
        if let Some(s) = self.peers.slot(node) {
            self.down[s] = true;
            self.peers[s].on_crash();
        }
    }

    fn restart(&mut self, node: NodeId) {
        self.trace_churn(node, "Restart");
        if let Some(s) = self.peers.slot(node) {
            self.down[s] = false;
            let mut ctx = self.context(node);
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
            });
        }
    }

    /// Hands one message to its receiver's handler and routes what the
    /// handler sends. A message to a node that does not exist (yet /
    /// anymore) or is down is dropped — exactly like a packet to a dead
    /// process.
    fn deliver(&mut self, from: NodeId, to: NodeId, parcel: Parcel<M>) {
        let Some(slot) = self.peers.slot(to).filter(|&s| !self.down[s]) else {
            self.meter.stats.dropped += 1;
            return;
        };
        if self.trace.enabled() {
            self.trace.record(TraceEntry {
                at: self.agenda.now,
                from,
                to,
                kind: parcel.msg.kind(),
                session: parcel.msg.session(),
            });
        }
        let mut ctx = self.context(to);
        self.meter
            .deliver(&mut self.peers[slot], from, parcel, &mut ctx);
        self.send(to, ctx.take_outgoing());
    }

    /// Runs until quiescence or the event budget.
    pub fn run(&mut self) -> RunOutcome {
        let start_messages = self.meter.stats.total_messages;
        let mut processed = 0u64;
        let quiescent = loop {
            if processed >= self.max_events {
                break false;
            }
            if !self.step() {
                break true;
            }
            processed += 1;
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

    /// Hands out every peer (id order), leaving none hosted and none down:
    /// a driver runs them on another runtime, then hosts them again with
    /// [`Simulator::add_peer`] and adds that run's counters with
    /// [`Simulator::merge_stats`].
    pub fn take_peers(&mut self) -> Vec<(NodeId, P)> {
        self.down.clear();
        std::mem::take(&mut self.peers).into_sorted()
    }

    /// Adds the counters of a run these peers made on another runtime; its
    /// end becomes [`NetStats::finished_at`], as the end of a run here does.
    pub fn merge_stats(&mut self, stats: &NetStats) {
        self.meter.stats.merge(stats);
        self.meter.stats.finished_at = stats.finished_at;
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
        sim.set_fault_plan(FaultPlan::random(100, 1));
        sim.inject(NodeId(0), NodeId(1), Ping(5));
        let o = sim.run();
        assert!(o.quiescent);
        assert_eq!(o.delivered, 0);
        assert_eq!(sim.stats().dropped, 1);
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
        sim.set_trace_capacity(100);
        sim.inject(NodeId(0), NodeId(1), Ping(9));
        let o = sim.run();
        assert!(o.quiescent);
        let p1 = sim.peer(NodeId(1)).unwrap();
        assert_eq!(p1.crashes, 1);
        assert_eq!(p1.restarts, 1);
        let churn: Vec<(SimTime, NodeId, &str)> = (sim.trace().entries().iter())
            .filter(|e| e.from == e.to)
            .map(|e| (e.at, e.to, e.kind))
            .collect();
        assert_eq!(
            churn,
            [
                (SimTime::from_micros(1_500), NodeId(1), "Crash"),
                (SimTime::from_micros(4_500), NodeId(1), "Restart")
            ]
        );
        // Ping(9) arrived before the crash, was wiped, and the chain's
        // Ping(7) (due at 3 ms) was dropped while down.
        assert!(p1.seen.is_empty() || !p1.seen.contains(&9));
        assert!(sim.stats().dropped >= 1, "delivery while down must drop");
        // The restart hook's message reached node 0 (it bounces Ping(0)
        // into `seen` at node 0).
        assert!(sim.peer(NodeId(0)).unwrap().seen.contains(&0));
        assert!(!sim.down[sim.peers.slot(NodeId(1)).unwrap()]);
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

    /// A same-pipe burst due at one virtual instant is delivered in send
    /// order, each message through its own handler invocation.
    #[test]
    fn same_instant_pipe_burst_arrives_in_send_order() {
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
        match sim.peer(NodeId(0)).unwrap() {
            Node::Sink(s) => assert_eq!(s.seen, vec![1, 2, 3, 4, 5]),
            _ => unreachable!(),
        }
    }

    /// Events due at one instant fire in the order they were scheduled,
    /// across pipes as well as on one: a pipe's second message waits for
    /// the other pipes' messages sent before it.
    #[test]
    fn same_instant_events_fire_in_scheduling_order_across_pipes() {
        const ORDER: [u32; 6] = [2, 1, 2, 3, 1, 4];
        struct Hub;
        impl Peer<Ping> for Hub {
            fn on_message(&mut self, _from: NodeId, _msg: Ping, ctx: &mut Context<Ping>) {
                if ctx.id() == NodeId(0) {
                    for (k, to) in ORDER.into_iter().enumerate() {
                        ctx.send(NodeId(to), Ping(k as u32));
                    }
                }
            }
        }
        let mut sim: Simulator<Ping, Hub> = Simulator::new(Box::new(ConstantLatency(SimTime(3))));
        for i in 0..=4 {
            sim.add_peer(NodeId(i), Hub);
        }
        sim.set_trace_capacity(100);
        sim.inject(NodeId(9), NodeId(0), Ping(0));
        sim.run();
        let burst: Vec<(u32, SimTime)> = sim.trace().entries()[1..]
            .iter()
            .map(|e| {
                assert_eq!(e.from, NodeId(0));
                (e.to.0, e.at)
            })
            .collect();
        let want: Vec<(u32, SimTime)> = ORDER.iter().map(|&to| (to, SimTime(6))).collect();
        assert_eq!(burst, want);
    }

    /// A burst of sends on one pipe under wide jitter arrives in send order:
    /// a message drawn a shorter latency than its predecessor waits for it.
    #[test]
    fn jittered_burst_arrives_in_send_order() {
        enum Node {
            Burst,
            Sink(Vec<u32>),
        }
        impl Peer<Ping> for Node {
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                match self {
                    Node::Burst => (0..100).for_each(|k| ctx.send(from, Ping(k))),
                    Node::Sink(seen) => seen.push(msg.0),
                }
            }
        }
        let mut sim: Simulator<Ping, Node> = Simulator::new(Box::new(UniformLatency::new(
            SimTime(1),
            SimTime(10_000),
            5,
        )));
        sim.add_peer(NodeId(0), Node::Sink(vec![]));
        sim.add_peer(NodeId(1), Node::Burst);
        sim.inject(NodeId(0), NodeId(1), Ping(0));
        let o = sim.run();
        assert_eq!(o.delivered, 101);
        match sim.peer(NodeId(0)).unwrap() {
            Node::Sink(seen) => assert_eq!(*seen, (0..100).collect::<Vec<_>>()),
            Node::Burst => unreachable!(),
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

    /// The floors under a sender with far more than 1 000 pipes (the
    /// root's roster fan-out): every pipe keeps its own FIFO floor — a
    /// message sent after a delayed one waits for it instead of overtaking
    /// — round after round.
    #[test]
    fn wide_fan_out_keeps_per_pipe_floors() {
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
        // At zero latency an undelayed send lands the instant it is made,
        // and still waits for the delayed one before it.
        for latency in [7, 0] {
            let mut sim: Simulator<Ping, Node> =
                Simulator::new(Box::new(ConstantLatency(SimTime(latency))));
            sim.add_peer(NodeId(0), Node::Hub);
            for i in 1..=LEAVES {
                sim.add_peer(NodeId(i), Node::Leaf(vec![]));
            }
            for round in 1..=2 {
                let start = sim.now();
                sim.inject(NodeId(LEAVES + 1), NodeId(0), Ping(0));
                assert!(sim.step(), "the trigger reaches the hub");
                let agenda = &sim.agenda;
                assert_eq!(agenda.lane.len() + agenda.heap.len(), 3 * LEAVES as usize);
                let hub = agenda.senders.get(NodeId(0)).expect("the hub has sent");
                let sent = &agenda.in_flight[hub];
                let far = sent.far.as_ref().map_or(0, |far| far.len());
                assert_eq!(usize::from(sent.len) + far, LEAVES as usize);
                let o = sim.run();
                assert!(o.quiescent);
                assert_eq!(o.delivered, 3 * u64::from(LEAVES));
                // Trigger latency, then the delayed message's 50 + latency;
                // the two undelayed ones were floored to it.
                assert_eq!(o.virtual_time, start + SimTime(latency + 50 + latency));
                for i in 1..=LEAVES {
                    match sim.peer(NodeId(i)).unwrap() {
                        Node::Leaf(got) => assert_eq!(*got, [1, 2, 3].repeat(round)),
                        Node::Hub => unreachable!(),
                    }
                }
            }
            assert_eq!(sim.stats().dropped, 0);
        }
    }

    /// Ten thousand pipes under jitter, two sends each: the second of every
    /// pair is drawn a shorter latency about half the time and must wait for
    /// the first, found among the hub's 10 000 in-flight records.
    #[test]
    fn jittered_ten_thousand_pipe_fan_out_keeps_every_pipe_in_order() {
        const LEAVES: u32 = 10_000;
        enum Node {
            Hub,
            Leaf(Vec<u32>),
        }
        impl Peer<Ping> for Node {
            fn on_message(&mut self, _from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                match self {
                    Node::Hub => {
                        for leaf in (1..=LEAVES).map(NodeId) {
                            ctx.send(leaf, Ping(1));
                            ctx.send(leaf, Ping(2));
                        }
                    }
                    Node::Leaf(got) => got.push(msg.0),
                }
            }
        }
        let mut sim: Simulator<Ping, Node> =
            Simulator::new(Box::new(UniformLatency::new(SimTime(1), SimTime(5_000), 3)));
        sim.add_peer(NodeId(0), Node::Hub);
        for i in 1..=LEAVES {
            sim.add_peer(NodeId(i), Node::Leaf(vec![]));
        }
        sim.inject(NodeId(LEAVES + 1), NodeId(0), Ping(0));
        let o = sim.run();
        assert_eq!(o.delivered, 1 + 2 * u64::from(LEAVES));
        for i in 1..=LEAVES {
            match sim.peer(NodeId(i)).unwrap() {
                Node::Leaf(got) => assert_eq!(got, &[1, 2], "pipe 0 -> {i}"),
                Node::Hub => unreachable!(),
            }
        }
    }

    /// A delivery scheduled for a past instant is due now: the clock never
    /// runs back.
    #[test]
    fn inject_at_a_past_time_delivers_now_and_the_clock_never_runs_back() {
        let mut sim = two_bouncers(Box::new(ConstantLatency(SimTime(10))));
        sim.inject(NodeId(0), NodeId(1), Ping(3));
        assert_eq!(sim.run().virtual_time, SimTime(40));
        sim.set_trace_capacity(100);
        sim.inject_at(SimTime(5), NodeId(0), NodeId(1), Ping(2));
        sim.inject(NodeId(1), NodeId(0), Ping(0));
        let mut last = sim.now();
        while sim.step() {
            assert!(sim.now() >= last, "the clock ran back");
            last = sim.now();
        }
        let at: Vec<(u32, SimTime)> = sim
            .trace()
            .entries()
            .iter()
            .map(|e| (e.to.0, e.at))
            .collect();
        // The past delivery fires at 40 and its reply lands at 50 behind
        // the injected `Ping(0)`, whose reply lands at 60.
        assert_eq!(
            at,
            [
                (1, SimTime(40)),
                (0, SimTime(50)),
                (0, SimTime(50)),
                (1, SimTime(60))
            ]
        );
    }

    /// The two lanes pop exactly what one `(at, seq)` heap pops, over
    /// schedules of in-order runs, equal times, sends overtaken by earlier
    /// ones, and far-future churn, with the clock only moving forward.
    #[test]
    fn two_lanes_pop_what_one_heap_pops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;

        let (mut in_lane, mut in_heap) = (0, 0);
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sim: Simulator<Ping, Bouncer> =
                Simulator::new(Box::new(ConstantLatency(SimTime(1))));
            let mut agenda = sim.agenda;
            let mut reference = BinaryHeap::new();
            let (mut popped, mut want) = (Vec::new(), Vec::new());
            // The latest time sent to so far; sends land at it or before.
            let mut front = SimTime::ZERO;
            let node = NodeId(0);
            for _ in 0..rng.gen_range(1..400usize) {
                let seq = agenda.seq;
                let now = agenda.now;
                match rng.gen_range(0..10u32) {
                    // Pop a few.
                    0..=2 => {
                        for _ in 0..rng.gen_range(1..8u32) {
                            let (Some(due), Some(Reverse(at_seq))) =
                                (agenda.pop(), reference.pop())
                            else {
                                break;
                            };
                            popped.push((due.at, due.seq));
                            want.push(at_seq);
                        }
                        front = front.max(agenda.now);
                    }
                    // An in-order send, at or past the latest one.
                    3..=6 => {
                        front += SimTime(rng.gen_range(0..4u64));
                        agenda.push(front, Event::Crash(node), true);
                        reference.push(Reverse((front, seq)));
                    }
                    // A send overtaken by earlier ones.
                    7 | 8 => {
                        let at = now + SimTime(rng.gen_range(0..=(front - now).0));
                        agenda.push(at, Event::Crash(node), true);
                        reference.push(Reverse((at, seq)));
                    }
                    // Far-future churn.
                    _ => {
                        let at = front + SimTime(rng.gen_range(1_000..2_000u64));
                        agenda.push(at, Event::Restart(node), false);
                        reference.push(Reverse((at, seq)));
                    }
                }
                in_lane += agenda.lane.len();
                in_heap += agenda.heap.len();
            }
            while let Some(due) = agenda.pop() {
                popped.push((due.at, due.seq));
            }
            want.extend(std::iter::from_fn(|| reference.pop().map(|Reverse(e)| e)));
            assert_eq!(popped, want, "schedule {seed}");
        }
        assert!(in_lane > 0 && in_heap > 0, "both lanes were used");
    }

    /// The agenda's memory follows its entries and its senders: an entry
    /// takes 40 bytes, a sender's in-flight records 72 until it has more
    /// than four pipes in flight.
    #[test]
    fn an_entry_takes_40_bytes_and_a_sender_72() {
        assert_eq!(std::mem::size_of::<Due<Ping>>(), 40);
        assert_eq!(std::mem::size_of::<InFlight>(), 72);
    }

    /// FNV-1a over the trace's `(at, from, to, kind)`: a fingerprint of a
    /// run's delivery order and timestamps.
    fn trace_digest(trace: &Trace) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in trace.entries() {
            let bytes =
                e.at.0
                    .to_le_bytes()
                    .into_iter()
                    .chain(e.from.0.to_le_bytes())
                    .chain(e.to.0.to_le_bytes())
                    .chain(e.kind.bytes());
            for b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// A pinned run — jitter, delayed sends, a 1 500-receiver fan-out with
    /// two sends per pipe, replies, and a crash and restart — delivers in
    /// one order, at one set of times. A scheduler change that moves either
    /// moves the digest.
    #[test]
    fn a_pinned_run_keeps_its_delivery_order() {
        use crate::churn::ChurnPlan;
        const LEAVES: u32 = 1_500;
        enum Node {
            Hub,
            Leaf,
        }
        impl Peer<Ping> for Node {
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
                match (self, msg.0) {
                    (Node::Hub, 9) => {
                        for leaf in (1..=LEAVES).map(NodeId) {
                            ctx.send_after(SimTime(u64::from(leaf.0 % 7) * 40), leaf, Ping(1));
                            ctx.send(leaf, Ping(2));
                        }
                    }
                    (Node::Leaf, 2) => ctx.send(from, Ping(0)),
                    _ => {}
                }
            }
            fn on_restart(&mut self, ctx: &mut Context<Ping>) {
                ctx.send(NodeId(0), Ping(0));
            }
        }
        let mut sim: Simulator<Ping, Node> = Simulator::new(Box::new(UniformLatency::new(
            SimTime(100),
            SimTime(1_000),
            11,
        )));
        sim.add_peer(NodeId(0), Node::Hub);
        for i in 1..=LEAVES {
            sim.add_peer(NodeId(i), Node::Leaf);
        }
        sim.set_trace_capacity(20_000);
        sim.schedule_churn(
            &ChurnPlan::none()
                .with_crash(NodeId(7), SimTime(300), SimTime(1_500))
                .with_crash(NodeId(0), SimTime(1_200), SimTime(1_400)),
            SimTime::ZERO,
        );
        sim.inject(NodeId(LEAVES + 1), NodeId(0), Ping(9));
        let first = sim.run();
        sim.inject(NodeId(LEAVES + 1), NodeId(0), Ping(9));
        let second = sim.run();
        assert!(first.quiescent && second.quiescent);
        assert_eq!(
            (
                first.delivered,
                second.delivered,
                sim.trace().entries().len()
            ),
            (4_232, 4_501, 8_737)
        );
        // The one-heap scheduler's digest: the lanes keep its order.
        assert_eq!(trace_digest(sim.trace()), 2_260_715_737_226_443_690);
    }
}
