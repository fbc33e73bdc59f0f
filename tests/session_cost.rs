//! A session costs what changed, not what exists: on a long-lived system the
//! rows a session ships follow the delta inserted before it, not the size
//! the databases have grown to — because subscription cursors outlive the
//! session — and so do its messages: the cursors are standing
//! subscriptions, so nobody asks again and nobody answers with nothing.
//! And durability costs what changed, too: what a durable peer
//! holds on disk and replays at a restart follows its state, not its
//! history. Deterministic counts on the simulator, no timing.

use p2pdb::core::config::UpdateMode;
use p2pdb::core::oracle::global_fixpoint;
use p2pdb::core::peer::DbPeer;
use p2pdb::core::stats::PeerStats;
use p2pdb::core::system::P2PSystem;
use p2pdb::core::ProtocolMsg;
use p2pdb::net::{
    ChurnPlan, Codec, ConstantLatency, Context, NetStats, Peer, SessionId, SimTime, Simulator,
};
use p2pdb::storage::{
    FileBackend, MemoryBackend, PeerStorage, StorageBackend, StorageError, StorageResult,
};
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{
    build_system, DblpGenerator, Distribution, Publication, SchemaFamily, WorkloadConfig,
};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const NODES: u32 = 8;
const SESSIONS: usize = 30;

/// DBLP ring(8): three schema families round-robin, translation rules along
/// every ring edge (cyclic, with existential heads), 40 disjoint base
/// publications per node.
fn ring(mode: UpdateMode, paper_faithful: bool) -> P2PSystem {
    let mut b = build_system(&WorkloadConfig {
        topology: Topology::Ring { n: NODES },
        records_per_node: 40,
        distribution: Distribution::Disjoint,
        seed: 3,
    })
    .unwrap();
    b.config_mut().mode = mode;
    b.config_mut().paper_faithful = paper_faithful;
    b.build().unwrap()
}

/// Two fresh publications, their ids far above anything the base data
/// holds.
fn fresh_pubs(fresh: &mut DblpGenerator) -> Vec<Publication> {
    (fresh.batch(2).into_iter())
        .map(|mut p| {
            p.id += 10_000_000;
            p
        })
        .collect()
}

fn insert(sys: &mut P2PSystem, node: NodeId, pubs: &[Publication]) {
    for p in pubs {
        for (relation, vals) in SchemaFamily::for_node(node.0).tuples_for(p) {
            sys.insert(node, relation, vals).unwrap();
        }
    }
}

/// What one session added to the network-wide counters.
struct Cost {
    rows_shipped: u64,
    tuples_inserted: u64,
    resumed_answers: u64,
    /// Answers that also acknowledged the query they reply to.
    acking_answers: u64,
    messages: u64,
    /// Sends by kind: `UpdateFlood`, `Query`, `Answer`, `Ack`, `Fixpoint`,
    /// `CursorVoid`.
    sent: [u64; 6],
}

const KINDS: [&str; 6] = [
    "UpdateFlood",
    "Query",
    "Answer",
    "Ack",
    "Fixpoint",
    "CursorVoid",
];

fn sent_by_kind(net: &NetStats) -> [u64; 6] {
    KINDS.map(|kind| net.sent_of_kind(kind))
}

fn session(sys: &mut P2PSystem, before: &mut PeerStats) -> Cost {
    let sent_before = sent_by_kind(sys.net_stats());
    let report = sys.run_update();
    assert!(report.all_closed && report.errors.is_empty(), "{report:?}");
    let after = sys.sum_stats();
    let sent_after = sent_by_kind(sys.net_stats());
    let cost = Cost {
        rows_shipped: after.rows_shipped - before.rows_shipped,
        tuples_inserted: after.tuples_inserted - before.tuples_inserted,
        resumed_answers: after.resumed_answers - before.resumed_answers,
        acking_answers: after.acking_answers - before.acking_answers,
        messages: report.messages,
        sent: std::array::from_fn(|i| sent_after[i] - sent_before[i]),
    };
    *before = after;
    cost
}

#[test]
fn thirty_sessions_of_two_publications_ship_the_delta_not_the_database() {
    let mut sys = ring(UpdateMode::Eager, false);
    let mut baseline = ring(UpdateMode::Eager, true);
    let rules = sys.rules().len();
    let n = u64::from(NODES);
    let mut fresh = DblpGenerator::new(0x5e55_1075);
    let (mut seen, mut seen_baseline) = (PeerStats::default(), PeerStats::default());
    let mut costs = Vec::new();
    let mut retained_at_first = None;

    for k in 0..SESSIONS {
        let writer = NodeId(k as u32 % NODES);
        let pubs = fresh_pubs(&mut fresh);
        insert(&mut sys, writer, &pubs);
        insert(&mut baseline, writer, &pubs);

        let cost = session(&mut sys, &mut seen);
        let full = session(&mut baseline, &mut seen_baseline);
        // The paper's skeleton, every session: the start request forwarded
        // along every pipe on top of the roster send, every fragment asked
        // for again.
        let [floods, queries, _, _, fixpoints, notices] = full.sent;
        assert_eq!(
            (floods, queries, fixpoints, notices),
            (19, rules as u64, n - 1, 0),
            "session {k}, paper-faithful"
        );
        assert_eq!(full.resumed_answers, 0, "the baseline keeps no cursor");
        // By default only the first contact asks; from then on a session is
        // the start request once per node, an answer where there are rows,
        // one acknowledgement for each of those, and the broadcast. Every
        // basic message is acknowledged once: by an `Ack`, or — a query
        // that found its answerer engaged in the session — by the answer,
        // which is then no basic message of its own.
        let [floods, queries, answers, acks, fixpoints, notices] = cost.sent;
        assert_eq!(
            (floods, fixpoints, notices),
            (n - 1, n - 1, 0),
            "session {k}"
        );
        assert_eq!(
            queries,
            if k == 0 { rules as u64 } else { 0 },
            "session {k}"
        );
        assert_eq!(
            acks + cost.acking_answers,
            floods + queries + answers - cost.acking_answers,
            "session {k}"
        );
        assert_eq!(cost.acking_answers > 0, queries > 0, "session {k}");
        assert_eq!(
            cost.messages,
            1 + floods + queries + answers + acks + fixpoints
        );
        if k > 0 {
            assert!(
                answers > 0 && answers <= rules as u64,
                "session {k}: {answers}"
            );
        }
        assert!(
            sys.snapshot().equivalent(&sys.oracle().unwrap()),
            "session {k}: fix-point differs from the oracle"
        );
        for (id, peer) in sys.peers() {
            assert_eq!(peer.session_table_len(), 0, "session {k}: leak at {id}");
            // Neither per-peer table grows with the number of sessions: a
            // peer holds at most one cursor and one held-fragment mark per
            // rule it serves or heads, and — every rule here reading one
            // body node — no fragment rows at all.
            let (cursors, fragments) = peer.retained_entries();
            assert!(
                cursors <= rules && fragments <= rules,
                "session {k} at {id}"
            );
            assert_eq!(peer.retained_rows(), 0, "session {k} at {id}");
        }
        let retained: Vec<(usize, usize)> =
            sys.peers().map(|(_, p)| p.retained_entries()).collect();
        match &retained_at_first {
            None => retained_at_first = Some(retained),
            Some(first) => assert_eq!(&retained, first, "session {k}: retained state moved"),
        }
        if k > 0 {
            assert_eq!(
                cost.resumed_answers, rules as u64,
                "session {k}: every subscription resumes from its cursor"
            );
            assert!(
                cost.rows_shipped * 10 < full.rows_shipped,
                "session {k}: {} rows against the baseline's {}",
                cost.rows_shipped,
                full.rows_shipped
            );
        }
        costs.push(cost);
    }

    // Sessions 11–30 (1-based): what is shipped follows what is inserted …
    let steady = &costs[10..];
    let shipped: u64 = steady.iter().map(|c| c.rows_shipped).sum();
    let inserted: u64 = steady.iter().map(|c| c.tuples_inserted).sum();
    assert!(inserted > 0);
    assert!(
        shipped <= 4 * inserted,
        "{shipped} rows shipped for {inserted} tuples inserted"
    );
    // … and is flat in the size of the database, which keeps growing.
    let (first, last) = (&costs[10], &costs[SESSIONS - 1]);
    assert!(
        2 * last.rows_shipped <= 3 * first.rows_shipped,
        "session 30 ships {} rows, session 11 shipped {}",
        last.rows_shipped,
        first.rows_shipped
    );

    // A session with nothing new is its skeleton and nothing else: the
    // injected start command, then flood, its acknowledgement and the
    // broadcast, once per other node.
    let idle = session(&mut sys, &mut seen);
    assert_eq!(idle.sent, [n - 1, 0, 0, n - 1, n - 1, 0]);
    assert_eq!(idle.messages, 1 + 3 * (n - 1));
    assert_eq!((idle.rows_shipped, idle.tuples_inserted), (0, 0));

    // The paper-faithful twin is message for message what it was before
    // the default protocol learned to keep quiet: the totals of this very
    // script at the parent of the commit that introduced standing
    // subscriptions. (Bytes depend on the order symbols are interned in,
    // which other tests of this process share; the integer-only chain in
    // `mediator_and_ds` pins those.)
    let net = baseline.net_stats();
    assert_eq!(sent_by_kind(net), [570, 390, 504, 1464, 210, 0]);
    assert_eq!(net.total_messages, 3168);
}

/// Rounds mode keeps the same per-peer tables: `RoundsClosed` commits the
/// cursors and the held fragments as `Fixpoint` does, so from the second
/// session on each fragment's first wave query resumes from its cursor, and
/// a session ships the delta inserted before it, not the extensions again.
#[test]
fn later_rounds_sessions_ship_the_delta_not_the_database() {
    let mut sys = ring(UpdateMode::Rounds, false);
    let mut baseline = ring(UpdateMode::Rounds, true);
    let rules = sys.rules().len() as u64;
    let mut fresh = DblpGenerator::new(0x0520_0d5e);
    let (mut seen, mut seen_baseline) = (PeerStats::default(), PeerStats::default());
    let mut retained_at_first = None;

    for k in 0..12 {
        let writer = NodeId(k % NODES);
        let pubs = fresh_pubs(&mut fresh);
        insert(&mut sys, writer, &pubs);
        insert(&mut baseline, writer, &pubs);
        let cost = session(&mut sys, &mut seen);
        let full = session(&mut baseline, &mut seen_baseline);
        assert!(
            sys.snapshot().equivalent(&sys.oracle().unwrap()),
            "session {k}: fix-point differs from the oracle"
        );
        for (id, peer) in sys.peers() {
            assert_eq!(peer.session_table_len(), 0, "session {k}: leak at {id}");
        }
        let retained: Vec<(usize, usize)> =
            sys.peers().map(|(_, p)| p.retained_entries()).collect();
        match &retained_at_first {
            None => retained_at_first = Some(retained),
            Some(first) => assert_eq!(&retained, first, "session {k}: retained state moved"),
        }
        if k > 0 {
            assert_eq!(cost.resumed_answers, rules, "session {k}");
            assert!(
                cost.rows_shipped * 10 < full.rows_shipped,
                "session {k}: {} rows against the baseline's {}",
                cost.rows_shipped,
                full.rows_shipped
            );
        }
    }
}

/// Two fresh publications at `writer`, then a session: its cost and the
/// bytes it put on the wire.
fn written_session(
    sys: &mut P2PSystem,
    seen: &mut PeerStats,
    fresh: &mut DblpGenerator,
    writer: NodeId,
) -> (Cost, u64) {
    let pubs = fresh_pubs(fresh);
    insert(sys, writer, &pubs);
    let before = sys.net_stats().total_bytes;
    let cost = session(sys, seen);
    (cost, sys.net_stats().total_bytes - before)
}

/// The settled DBLP ring, taken through `warm`, with `victim` then crashed
/// and restarted — and, with a store, resynced — long after the fix-point
/// of one more session, inside that session's run.
fn ring_with_a_restarted_peer(
    durable: bool,
    victim: NodeId,
    warm: impl FnOnce(&mut P2PSystem, &mut PeerStats),
) -> (P2PSystem, PeerStats) {
    let mut b = build_system(&WorkloadConfig {
        topology: Topology::Ring { n: NODES },
        records_per_node: 40,
        distribution: Distribution::Disjoint,
        seed: 3,
    })
    .unwrap();
    b.config_mut().durability = durable;
    let mut sys = b.build().unwrap();
    let mut seen = PeerStats::default();
    session(&mut sys, &mut seen);
    assert_eq!(session(&mut sys, &mut seen).sent[1], 0, "settled: no query");
    warm(&mut sys, &mut seen);

    sys.set_churn(ChurnPlan::none().with_crash(
        victim,
        SimTime::from_millis(60_000),
        SimTime::from_millis(60_001),
    ));
    // (The victim forgets that session with everything else, so this run
    // does not read as closed everywhere.)
    assert!(sys.run_update().errors.is_empty());
    seen = sys.sum_stats();
    assert_eq!(seen.crashes, 1);
    (sys, seen)
}

/// Silence is never ambiguous: a body node that lost its cursors says so.
/// The first session after the crash of a peer without a store carries its
/// notice to each of its pipes, and what is asked again — in full — is that
/// node's fragments and nothing else: by its heads because of the notice,
/// and by the node itself, whose own `held` marks went with the crash. The
/// session after that is quiet again.
#[test]
fn first_session_after_an_amnesiac_restart_carries_the_notice_and_requeries_that_node_only() {
    let victim = NodeId(3);
    let (mut sys, mut seen) = ring_with_a_restarted_peer(false, victim, |_, _| {});

    let rules = sys.rules().clone();
    let edges = || (rules.iter()).flat_map(|r| r.parts.iter().map(move |p| (r.head_node, p.node)));
    let fragments = |pick: &dyn Fn(NodeId, NodeId) -> bool| {
        edges().filter(|(head, body)| pick(*head, *body)).count() as u64
    };
    let served = fragments(&|head, body| body == victim && head != victim);
    let headed = fragments(&|head, _| head == victim);
    assert!(served > 0 && headed > 0);
    // deg(victim): the other end of every rule it heads or serves.
    let pipes: std::collections::BTreeSet<NodeId> = edges()
        .filter(|(head, body)| (*head == victim) != (*body == victim))
        .map(|(head, body)| if head == victim { body } else { head })
        .collect();
    let queries_of = |net: &NetStats, id| net.node_sent_of_kind(id, "Query");
    let queries_before: BTreeMap<NodeId, u64> = (sys.net_stats().nodes())
        .map(|(id, _)| (id, queries_of(sys.net_stats(), id)))
        .collect();

    let after_crash = session(&mut sys, &mut seen);
    let [floods, queries, _, _, fixpoints, notices] = after_crash.sent;
    let n = u64::from(NODES);
    assert_eq!((floods, fixpoints), (n - 1, n - 1));
    assert_eq!(notices, pipes.len() as u64, "one notice per pipe");
    assert_eq!(queries, served + headed);
    for (id, _) in sys.net_stats().nodes() {
        let asked = queries_of(sys.net_stats(), id) - queries_before[&id];
        let expected = if id == victim {
            headed
        } else {
            fragments(&|head, body| head == id && body == victim)
        };
        assert_eq!(asked, expected, "queries sent by {id}");
    }
    // (No oracle comparison: the victim's own base data went with the crash.)

    let quiet = session(&mut sys, &mut seen);
    assert_eq!(quiet.sent, [n - 1, 0, 0, n - 1, n - 1, 0]);
}

/// A crash costs what was at risk, not what is held: a durable peer comes
/// back with the cursors it served, and its resync leaves it holding the
/// fragments it heads — so the first session after its restart is an
/// ordinary one. No notice, no query, and, with two fresh publications
/// inserted before each, no more rows than an ordinary session ships and
/// hardly more bytes than the session before the crash; with nothing
/// inserted, the skeleton only.
#[test]
fn first_session_after_a_durable_restart_is_an_ordinary_session() {
    let n = u64::from(NODES);
    let (victim, writer) = (NodeId(3), NodeId(5));
    let mut fresh = DblpGenerator::new(0x0c4a_54ed);

    let mut ordinary = Vec::new();
    let (mut sys, mut seen) = ring_with_a_restarted_peer(true, victim, |sys, seen| {
        ordinary.push(written_session(sys, seen, &mut fresh, writer));
        ordinary.push(written_session(sys, seen, &mut fresh, writer));
    });
    assert_eq!(seen.recoveries, 1);
    let (after_crash, bytes) = written_session(&mut sys, &mut seen, &mut fresh, writer);
    let [floods, queries, answers, acks, fixpoints, notices] = after_crash.sent;
    assert_eq!((queries, notices), (0, 0));
    assert_eq!((floods, fixpoints), (n - 1, n - 1));
    assert_eq!(acks, floods + answers);
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
    ordinary.push(written_session(&mut sys, &mut seen, &mut fresh, writer));

    let most_rows = ordinary.iter().map(|(c, _)| c.rows_shipped).max().unwrap();
    assert!(
        after_crash.rows_shipped <= most_rows,
        "{} rows after the restart, at most {most_rows} in an ordinary session",
        after_crash.rows_shipped
    );
    let (_, before_crash) = ordinary[1];
    assert!(
        2 * bytes <= 3 * before_crash,
        "{bytes} bytes after the restart, {before_crash} in the session before the crash"
    );

    // And quiet again: a session with nothing new is its skeleton, leaves
    // no session state behind and moves neither retained table.
    let retained: Vec<(usize, usize)> = sys.peers().map(|(_, p)| p.retained_entries()).collect();
    let idle = session(&mut sys, &mut seen);
    assert_eq!(idle.sent, [n - 1, 0, 0, n - 1, n - 1, 0]);
    assert_eq!(idle.rows_shipped, 0);

    // The same right after a restart, with nothing inserted in between.
    let (mut sys, mut seen) = ring_with_a_restarted_peer(true, victim, |_, _| {});
    let retained_after_restart: Vec<(usize, usize)> =
        sys.peers().map(|(_, p)| p.retained_entries()).collect();
    assert_eq!(
        retained_after_restart, retained,
        "the restart gave every entry back"
    );
    let idle = session(&mut sys, &mut seen);
    assert_eq!(idle.sent, [n - 1, 0, 0, n - 1, n - 1, 0]);
    assert_eq!(idle.rows_shipped, 0);
    for ((id, peer), before) in sys.peers().zip(&retained) {
        assert_eq!(peer.session_table_len(), 0, "leak at {id}");
        assert_eq!(
            peer.retained_entries(),
            *before,
            "retained state moved at {id}"
        );
    }
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
}

/// A `MemoryBackend` the test keeps a second handle on, to read what a
/// peer's store holds.
#[derive(Debug, Clone, Default)]
struct SharedMemory(Arc<Mutex<MemoryBackend>>);

impl SharedMemory {
    fn with<T>(&self, f: impl FnOnce(&mut MemoryBackend) -> T) -> T {
        f(&mut self.0.lock().expect("no test thread panics holding it"))
    }
}

impl StorageBackend for SharedMemory {
    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
        self.with(|b| b.append_wal_bytes(frame))
    }
    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
        self.with(|b| b.read_wal_bytes())
    }
    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        self.with(|b| b.write_snapshot_bytes(snapshot))
    }
    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
        self.with(|b| b.read_snapshot_bytes())
    }
}

/// A peer's store as its peer sees it, counting the frames appended to it.
#[derive(Debug)]
struct Counting(Box<dyn StorageBackend>, Arc<AtomicUsize>);

impl StorageBackend for Counting {
    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.append_wal_bytes(frame)
    }
    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
        self.0.read_wal_bytes()
    }
    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        self.0.write_snapshot_bytes(snapshot)
    }
    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
        self.0.read_snapshot_bytes()
    }
}

/// A durable peer whose every delivery and restart writes at most one WAL
/// frame; counts those that wrote one.
struct OneFrame {
    peer: DbPeer,
    appends: Arc<AtomicUsize>,
    recorded: usize,
}

impl OneFrame {
    /// Runs `step` on the peer; returns the frames it appended, at most one.
    fn frames(&mut self, step: impl FnOnce(&mut DbPeer)) -> usize {
        let before = self.appends.load(Ordering::Relaxed);
        step(&mut self.peer);
        let frames = self.appends.load(Ordering::Relaxed) - before;
        assert!(frames <= 1, "{}: one step, {frames} frames", self.peer.id());
        frames
    }
}

impl Peer<ProtocolMsg> for OneFrame {
    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg, ctx: &mut Context<ProtocolMsg>) {
        self.recorded += self.frames(|peer| peer.on_message(from, msg, ctx));
    }
    fn on_crash(&mut self) {
        self.peer.on_crash();
    }
    fn on_restart(&mut self, ctx: &mut Context<ProtocolMsg>) {
        self.recorded += self.frames(|peer| peer.on_restart(ctx));
    }
}

impl Deref for OneFrame {
    type Target = DbPeer;
    fn deref(&self) -> &DbPeer {
        &self.peer
    }
}

impl DerefMut for OneFrame {
    fn deref_mut(&mut self) -> &mut DbPeer {
        &mut self.peer
    }
}

/// Where a durable ring keeps its peers' stores, and how the test reads
/// them back: a second handle on the same memory, or the directory reopened
/// the way a restarted process would.
enum Disk {
    Memory(BTreeMap<NodeId, SharedMemory>),
    Files(PathBuf),
}

impl Disk {
    fn backend(&mut self, node: NodeId) -> StorageResult<Box<dyn StorageBackend>> {
        Ok(match self {
            Disk::Memory(stores) => Box::new(stores.entry(node).or_default().clone()),
            Disk::Files(dir) => Box::new(FileBackend::open(Self::node_dir(dir, node))?),
        })
    }

    fn node_dir(dir: &Path, node: NodeId) -> PathBuf {
        dir.join(format!("node-{}", node.0))
    }

    /// Bytes of every file in a peer's directory, and how many there are.
    fn dir_bytes(dir: &Path) -> (u64, usize) {
        let sizes: Vec<u64> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .collect();
        (sizes.iter().sum(), sizes.len())
    }
}

/// What one peer's store holds: the newest snapshot's bytes and the frames
/// since it.
struct Held {
    snapshot: usize,
    frames: Vec<usize>,
}

impl Held {
    fn read(backend: &dyn StorageBackend) -> Held {
        Held {
            snapshot: (backend.read_snapshot_bytes().unwrap())
                .expect("attached")
                .len(),
            frames: (backend.read_wal_bytes().unwrap().iter())
                .map(Vec::len)
                .collect(),
        }
    }

    fn bytes(&self) -> usize {
        self.snapshot + self.frames.iter().sum::<usize>()
    }
}

const DURABLE_SESSIONS: usize = 150;
const CRASH_EVERY: usize = 10;

/// `writers_ring`'s shape made durable — DBLP ring(8), two fresh
/// publications at a rotating writer before each of 150 sessions, default
/// snapshot cadence — with a non-root peer crashed and restarted before
/// every tenth session. Each delivery that records writes one frame, and
/// each base fact inserted between sessions one more: nothing else
/// appends.
fn durable_ring_stays_bounded(mut disk: Disk) {
    let mut b = build_system(&WorkloadConfig {
        topology: Topology::Ring { n: NODES },
        records_per_node: 40,
        distribution: Distribution::Disjoint,
        seed: 3,
    })
    .unwrap();
    let config = *b.config_mut();
    let rules = b.rules().clone();
    let mut sim = Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(1))));
    sim.set_max_events(config.effective_max_events(NODES as usize));
    let mut truth = BTreeMap::new();
    let appends = Arc::new(AtomicUsize::new(0));
    for (id, mut peer) in b.build_peers().unwrap() {
        truth.insert(id, peer.database().clone());
        let backend = Counting(disk.backend(id).unwrap(), appends.clone());
        let store = PeerStorage::with_codec(Box::new(backend), config.snapshot_every, Codec::Json);
        peer.attach_storage(store).unwrap();
        let appends = appends.clone();
        sim.add_peer(
            id,
            OneFrame {
                peer,
                appends,
                recorded: 0,
            },
        );
    }
    let mut base_frames = 0;
    let root = NodeId(0);
    let read = |disk: &mut Disk, node: NodeId| Held::read(&*disk.backend(node).unwrap());
    let recovered = |disk: &mut Disk, node: NodeId| {
        PeerStorage::with_codec(disk.backend(node).unwrap(), 0, Codec::Json)
            .recover(node.0)
            .unwrap()
            .expect("attached")
    };

    let mut fresh = DblpGenerator::new(0xd07a_b1e5);
    let mut replayed = Vec::new();
    let mut largest_frame = 0;
    for k in 0..DURABLE_SESSIONS {
        if k > 0 && k % CRASH_EVERY == 0 {
            let victim = NodeId(1 + (k / CRASH_EVERY) as u32 % (NODES - 1));
            replayed.push(read(&mut disk, victim).frames.len());
            let plan = ChurnPlan::none().with_crash(
                victim,
                SimTime::from_millis(1),
                SimTime::from_millis(2),
            );
            sim.schedule_churn(&plan, sim.now());
            assert!(sim.run().quiescent, "recovery before session {k}");
        }
        let writer = NodeId(k as u32 % NODES);
        for mut p in fresh.batch(2) {
            p.id += 10_000_000;
            for (relation, vals) in SchemaFamily::for_node(writer.0).tuples_for(&p) {
                let peer = sim.peer_mut(writer).unwrap();
                base_frames += peer.frames(|peer| {
                    peer.insert_base_fact(relation, vals.clone()).unwrap();
                });
                let truth = truth.get_mut(&writer).unwrap();
                truth.insert_values(relation, vals).unwrap();
            }
        }
        let sid = SessionId::new(root, k as u64 + 1);
        sim.inject(root, root, ProtocolMsg::StartUpdate { session: sid });
        assert!(sim.run().quiescent, "session {k}");
        for (id, peer) in sim.peers() {
            assert!(peer.session_closed(sid), "session {k} open at {id}");
            assert!(peer.errors().is_empty(), "{id}: {:?}", peer.errors());
            // What the peer holds is bounded by what it is, not by what it
            // has been through: twice its newest snapshot plus one record.
            let held = read(&mut disk, *id);
            largest_frame = largest_frame.max(held.frames.iter().copied().max().unwrap_or(0));
            assert!(
                held.bytes() <= 2 * held.snapshot + largest_frame,
                "session {k} at {id}: {} bytes held beside a {}-byte snapshot",
                held.bytes(),
                held.snapshot
            );
            if let Disk::Files(dir) = &disk {
                // … and on disk that is one snapshot and at most one log,
                // a length and a checksum (8 bytes) on each frame and a
                // checksum (4 bytes) on the snapshot.
                let (bytes, files) = Disk::dir_bytes(&Disk::node_dir(dir, *id));
                assert!(files <= 2, "session {k} at {id}: {files} files");
                assert_eq!(bytes as usize, held.bytes() + 8 * held.frames.len() + 4);
            }
        }
    }

    // The frames a recovery replays did not grow with the session index:
    // the last recoveries replay what the first ones did, give or take the
    // database's growth (the log may reach its snapshot's size).
    assert_eq!(replayed.len(), DURABLE_SESSIONS / CRASH_EVERY - 1);
    let (early, late) = replayed.split_at(replayed.len() / 2);
    let most = |part: &[usize]| part.iter().copied().max().unwrap();
    assert!(
        most(late) <= 3 * most(early).max(config.snapshot_every as usize),
        "frames replayed per recovery: {replayed:?}"
    );

    // Every acknowledged write survives: a restarted process would recover
    // each peer's live database, and the network is at the oracle's
    // fix-point over the base data plus every insert.
    let mut live = BTreeMap::new();
    for (id, peer) in sim.peers() {
        let rec = recovered(&mut disk, *id);
        assert_eq!(rec.db.all_facts(), peer.database().all_facts(), "{id}");
        live.insert(*id, peer.database().clone());
    }
    let oracle = global_fixpoint(&truth, &rules, config.max_null_depth).unwrap();
    assert!(p2pdb::core::oracle::GlobalDb(live).equivalent(&oracle));
    let stats = sim.peers().fold(PeerStats::default(), |mut total, (_, p)| {
        total.merge(p.stats());
        total
    });
    assert_eq!(stats.crashes, replayed.len() as u64);
    assert_eq!(stats.recoveries, stats.crashes);
    let recorded: usize = sim.peers().map(|(_, p)| p.recorded).sum();
    assert!(base_frames > 0 && recorded > 0);
    assert_eq!(appends.load(Ordering::Relaxed), recorded + base_frames);
}

#[test]
fn durable_ring_holds_and_replays_its_state_not_its_history_in_memory() {
    durable_ring_stays_bounded(Disk::Memory(BTreeMap::new()));
}

#[test]
fn durable_ring_holds_and_replays_its_state_not_its_history_on_files() {
    let dir = std::env::temp_dir().join(format!("p2pdb_durable_ring_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    durable_ring_stays_bounded(Disk::Files(dir.clone()));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store that cannot be read fails `attach_storage` with the typed error
/// — it is not mistaken for an empty one, and nothing panics.
#[test]
fn unreadable_store_fails_attach_with_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("p2pdb_bad_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let peer = || {
        let mut b = build_system(&WorkloadConfig {
            topology: Topology::Ring { n: 3 },
            records_per_node: 2,
            distribution: Distribution::Disjoint,
            seed: 1,
        })
        .unwrap();
        b.build_peers().unwrap().remove(0).1
    };
    let attach = |peer: &mut DbPeer| {
        let backend = Box::new(FileBackend::open(&dir)?);
        peer.attach_storage(PeerStorage::new(backend, 0))
    };
    attach(&mut peer()).unwrap();
    attach(&mut peer()).unwrap();

    // Damage the snapshot's body under a matching trailer …
    let mut backend = FileBackend::open(&dir).unwrap();
    backend
        .write_snapshot_bytes(b"{\"not\":\"a snapshot\"}")
        .unwrap();
    drop(backend);
    assert!(matches!(attach(&mut peer()), Err(StorageError::Corrupt(_))));
    // … and one that fails its trailer with a log behind it.
    let mut backend = FileBackend::open(&dir).unwrap();
    backend.append_wal_bytes(b"{}").unwrap();
    drop(backend);
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().contains("snapshot-"))
        .unwrap();
    std::fs::write(newest, "torn").unwrap();
    assert!(matches!(attach(&mut peer()), Err(StorageError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).unwrap();
}
