//! Sizing a message is a walk, not a build: every in-process runtime calls
//! `Wire::wire_size_with` once per send, and under the JSON codec that call
//! must not touch the heap — the message streams into a byte counter.
//! Encoding to text allocates for the text and nothing else.
//!
//! The same allocator prices the per-message protocol path: a whole eager
//! session (and its split by delivered kind, handlers against runtime), a
//! copied row (nothing beyond its relation's storage when it is new,
//! nothing at all when it is not), a
//! served subscription whose fragment did not grow (nothing), a fragment
//! or head of a shape another peer of the system compiled already
//! (no compile), a stored row (nothing of its own: its relation's
//! buffers grow by doubling, and a clone shares them), a delta over two
//! grown relations (one membership table), and the one peer a `serve`
//! process builds (nothing of the other nodes' rows, in bytes). It prices
//! building too: the peers of a 2 000-peer network, and a weak-acyclicity
//! check of rules without existential variables (nothing).
//!
//! The counting allocator below is this test binary's global allocator; it
//! counts per thread, so the test harness's own threads do not disturb it.

use p2pdb::core::joins::{join_parts_seminaive, PartDelta, VarRows};
use p2pdb::core::messages::{Answer, AnswerRows, ProtocolMsg, Query, Start, Via};
use p2pdb::core::netfile::{NetworkFile, NodeDecl, RuleDecl};
use p2pdb::core::peer::{DbPeer, Subscription};
use p2pdb::core::rule::{BodyPart, CoordinationRule, RuleId};
use p2pdb::core::socket::{prepare, ServeConfig};
use p2pdb::core::system::{P2PSystem, P2PSystemBuilder};
use p2pdb::core::SystemConfig;
use p2pdb::net::{
    Codec, ConstantLatency, Context, NetStats, Peer, SessionId, SimTime, Simulator, Wire,
};
use p2pdb::relational::chase::{ChaseConfig, ChaseOutcome, ChaseState, CompiledHead};
use p2pdb::relational::query::{
    evaluate_bindings_since_planned, Atom, CompiledBody, EvalMetrics, Idents, Marks, Term,
};
use p2pdb::relational::{
    key_hash, ColumnType, Database, DatabaseSchema, NullFactory, Relation, RelationSchema, RowSet,
    SymId, Val, Value,
};
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{scale_system, ScaleConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is two thread-local counter bumps, which neither allocate
// (const-initialised `Cell`s with no destructor) nor unwind (`try_with`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread performs inside `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Bytes this thread allocates (and reallocates to) inside `f`, freed or
/// not.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

fn samples() -> Vec<ProtocolMsg> {
    let session = SessionId::new(NodeId(0), 41);
    let var = |names: &[&str]| names.iter().map(Term::var).collect::<Vec<_>>();
    let mut wrote = var(&["I", "A"]);
    wrote.push(Term::Const(Val::str("open")));
    let query = ProtocolMsg::Query(Query {
        session,
        rule: RuleId(2),
        part: Arc::new(BodyPart::new(
            NodeId(3),
            vec![
                Atom::new("pub", var(&["I", "T", "Y"])),
                Atom::new("wrote", wrote),
            ],
            vec![],
            ["I", "T", "Y", "A"].map(Arc::from).into(),
        )),
        sn: [NodeId(0), NodeId(1), NodeId(3)].into(),
        from: Start::Resume,
        via: Via::Session,
    });
    let answer = ProtocolMsg::Answer(Answer {
        session,
        rule: RuleId(2),
        rows: AnswerRows {
            vars: ["I", "T", "Y"].map(Arc::from).into(),
            rows: RowSet::from_flat(
                3,
                20,
                (0..20)
                    .flat_map(|i| {
                        [
                            Val::Int(i),
                            Val::Sym(SymId(1000 + i as u32)),
                            Val::Int(1999),
                        ]
                    })
                    .collect(),
            ),
            null_depths: vec![],
            marks: [(Arc::<str>::from("pub"), 17usize)].into_iter().collect(),
            dict: (0..20)
                .map(|i| {
                    (
                        SymId(1000 + i),
                        Arc::from(format!("Title \"{i}\" of a paper")),
                    )
                })
                .collect(),
        },
        complete: false,
        reopen: false,
        pushed: true,
        acks: false,
        via: Via::Session,
    });
    vec![
        ProtocolMsg::Ack { session },
        ProtocolMsg::UpdateFlood { session },
        ProtocolMsg::Fixpoint {
            session,
            generation: 3,
        },
        query,
        answer,
    ]
}

#[test]
fn json_wire_sizing_performs_no_allocation() {
    for msg in samples() {
        let (size, allocations) = allocations_in(|| msg.wire_size_with(Codec::Json));
        assert_eq!(allocations, 0, "sizing a {} allocated", msg.kind());
        assert_eq!(size, serde_json::to_string(&msg).unwrap().len());
    }
}

#[test]
fn json_encoding_allocates_for_its_output_only() {
    for msg in samples() {
        let (text, allocations) = allocations_in(|| serde_json::to_string(&msg).unwrap());
        // A growing buffer at worst doubles from one byte: ⌈log₂ len⌉ + 1
        // (re)allocations. One per value, key or number would be hundreds.
        let bound = u64::from(text.len().next_power_of_two().trailing_zeros()) + 1;
        assert!(
            allocations <= bound,
            "{}: {allocations} allocations for {} bytes (bound {bound})",
            msg.kind(),
            text.len()
        );
    }
}

/// Counting a message is two counter bumps: once a node has sent a kind,
/// its further sends of that kind allocate nothing, and neither does a
/// delivery to a node already counted, with or without a session seen
/// before. The largest id counts like any other.
#[test]
fn counting_a_send_or_a_delivery_allocates_nothing() {
    let session = SessionId::new(NodeId(0), 1);
    let kinds = ["Query", "Answer", "Ack"];
    let nodes: Vec<NodeId> = (0..1_000).map(NodeId).chain([NodeId(u32::MAX)]).collect();
    let mut stats = NetStats::default();
    for &node in &nodes {
        for kind in kinds {
            stats.record_send(node, kind, 1);
        }
    }
    stats.record_delivery(NodeId(5_000), 1, Some(session));
    let ((), allocations) = allocations_in(|| {
        for round in 0..10 {
            for &node in nodes.iter().rev() {
                for kind in kinds {
                    stats.record_send(node, kind, 100);
                }
                stats.record_delivery(node, 100, Some(session));
                stats.record_delivery(node, 100, None);
            }
            stats.record_delivery(NodeId(5_000), round, None);
        }
    });
    assert_eq!(allocations, 0);
    assert_eq!(stats.sent_of_kind("Answer"), 11 * 1_001);
    assert_eq!(stats.session(session).messages, 1 + 10 * 1_001);
}

/// Allocations of one first-contact eager session on a 500-peer degree-4
/// expander of single-atom copy rules (the `scale` scenario `flood_sim` runs
/// at 10 000 peers), and the messages it takes. Per delivered message that
/// was 19.71 before rule heads were compiled and rules shared, 8.92 after,
/// and 8.47 once a stored row and a join key stopped owning a `Vec`: 57 606
/// allocations over 6 802 messages. An answer that carries its query's
/// acknowledgement left 56 631 over 5 892 — fewer allocations, but fewer
/// cheap messages still, so the budget is per session, not per message.
/// Keeping what a subscription sent in a row set (three buffers, where a
/// set of shared tuples took one table) made it 58 631. An answer that
/// acknowledges its query getting no `Ack` of its own: 56 646 over 4 982.
/// One heap entry per delivery, with no slot arena under it and no
/// per-peer set of delivered message ids: 54 112 over 4 982. A `Query`
/// that carries its rule's shared fragment instead of a deep copy (four
/// allocations fewer each): 50 112 over 4 982. Send accounting in dense
/// counters, with no `String` key per node and kind: 48 249 over 4 982.
/// Plans and heads taken from the system's catalog, compiled once per
/// shape instead of once per peer: 38 263 over 4 982. A FIFO lane beside
/// the event heap, and pipe floors kept with their sender instead of in one
/// table: 38 284 over 4 982. A fragment's rows shipped as the row set the
/// evaluator's buffer becomes, with no `Tuple` per row: 35 697 over 4 982
/// (38 697 before it). A chase that counts what it inserts, the facts
/// living in their relations only: 30 697 over 4 982. A set of at most 8
/// rows with no membership index, variable lists and `SN`s shared, a
/// cursor's watermarks of one relation inline, one send buffer per runtime
/// and no symbol table for a pipe that carried no symbol: 13 616 over
/// 4 982, 2.73 a message. Session tables that hold their first entry
/// inline, and plans and heads held by the fragment and the rule they were
/// compiled for instead of in two tables per peer: 11 616, 2.33 a message.
/// A subscription that counts the rows it shipped instead of copying them,
/// and a one-atom fragment with no slots for delta plans: 9 616, 1.93 a
/// message.
const SESSION_ALLOCATIONS: u64 = 9_616;
const SESSION_MESSAGES: u64 = 4_982;
/// What a first-contact session may cost a message, whatever the pin:
/// 6.2 before sets of few rows kept no index and a runtime reused its
/// send buffer.
const SESSION_ALLOCATIONS_PER_MESSAGE: f64 = 2.8;

/// The system of that session, before it runs.
fn first_contact_system() -> P2PSystem {
    first_contact_builder().build().unwrap()
}

/// The builder of that system.
fn first_contact_builder() -> P2PSystemBuilder {
    let cfg = ScaleConfig {
        topology: Topology::Expander {
            n: 500,
            degree: 4,
            seed: 1,
        },
        records_per_node: 4,
    };
    scale_system(&cfg).unwrap()
}

#[test]
fn an_eager_session_stays_within_its_allocation_budget() {
    let mut sys = first_contact_system();
    let (report, allocations) = allocations_in(|| sys.run_update());
    assert!(report.all_closed && report.errors.is_empty());
    println!(
        "{allocations} allocations over {} messages (budget {SESSION_ALLOCATIONS} + 10 %)",
        report.messages
    );
    assert_eq!(report.messages, SESSION_MESSAGES);
    assert!(
        allocations as f64 <= SESSION_ALLOCATIONS as f64 * 1.1,
        "{allocations} allocations"
    );
    let each = allocations as f64 / report.messages as f64;
    assert!(
        each <= SESSION_ALLOCATIONS_PER_MESSAGE,
        "{each:.2} a message"
    );
}

/// Allocations of the second session on the same system: write-free, so
/// every fragment is held and served from its standing subscription,
/// nothing is queried and no row moves — the skeleton alone. 1 407 over
/// 1 498 messages, 0.94 a message; 1 810 (1.21) while a flood collected
/// the cursors it opened into a list first, 2 310 (1.54) while every
/// retirement dropped the peer's live-session table and the next session
/// grew it again, and 4 803 (3.2) while a cursor's watermarks were a heap
/// block each, copied when a standing subscription opened, and a retiring
/// session collected the entries it superseded into a list.
const WRITE_FREE_ALLOCATIONS: u64 = 1_407;
const WRITE_FREE_MESSAGES: u64 = 1_498;
/// What ROADMAP item 21 asks a write-free session to cost a message,
/// whatever the pin.
const WRITE_FREE_ALLOCATIONS_PER_MESSAGE: f64 = 1.5;

#[test]
fn a_write_free_session_stays_within_its_allocation_budget() {
    let mut sys = first_contact_system();
    let first = sys.run_update();
    assert!(first.all_closed && first.errors.is_empty());
    let (report, allocations) = allocations_in(|| sys.run_update());
    assert!(report.all_closed && report.errors.is_empty());
    let each = allocations as f64 / report.messages as f64;
    println!(
        "{allocations} allocations over {} messages, {each:.2} a message against item 21's 1.5 (budget {WRITE_FREE_ALLOCATIONS} + 10 %)",
        report.messages
    );
    assert_eq!(report.messages, WRITE_FREE_MESSAGES);
    assert!(
        allocations as f64 <= WRITE_FREE_ALLOCATIONS as f64 * 1.1,
        "{allocations} allocations"
    );
    assert!(
        each <= WRITE_FREE_ALLOCATIONS_PER_MESSAGE,
        "{each:.2} a message"
    );
}

/// What that session sends, kind by kind — exact, so that a change to the
/// acknowledgements (or to anything else on the protocol path) shows which
/// kind it moved. An `Answer` that acknowledges its query gets no `Ack`:
/// every other `UpdateFlood`, `Query` and `Answer` gets one.
#[test]
fn a_first_contact_session_sends_these_messages_by_kind() {
    let mut sys = first_contact_system();
    let report = sys.run_update();
    assert!(report.all_closed && report.errors.is_empty());
    let stats = sys.net_stats();
    let sent = [
        "StartUpdate",
        "UpdateFlood",
        "Query",
        "Answer",
        "Ack",
        "Fixpoint",
    ]
    .map(|kind| (kind, stats.sent_of_kind(kind)));
    println!("{sent:?}");
    assert_eq!(
        sent,
        [
            ("StartUpdate", 1),
            ("UpdateFlood", 499),
            ("Query", 1_000),
            ("Answer", 1_652),
            ("Ack", 1_331),
            ("Fixpoint", 499),
        ]
    );
    let total: u64 = sent.iter().map(|(_, n)| n).sum();
    assert_eq!(total, report.messages, "no other kind");
    let acking = sys.sum_stats().acking_answers;
    let [_, floods, queries, answers, acks, _] = sent.map(|(_, n)| n);
    assert_eq!(acks + acking, floods + queries + answers - acking);
}

/// The allocations of the budgeted session, split by the kind of message
/// whose handler made them: per kind, its deliveries and the allocation
/// budget of their handlers — `Query` handlers evaluate fragments,
/// `UpdateFlood` handlers open subscriptions and `Answer` handlers chase
/// heads, while an `Ack` allocates almost nothing. The runtime's share
/// (sizing, counting, scheduling, copying a shared payload for its
/// receiver) is the rest. Each budget is the measured count + 10 %, as for
/// [`SESSION_ALLOCATIONS`].
///
/// Measured: 38 278 allocations, of which `Query` handlers make 19 741 (19.7
/// per delivery), `Answer` 12 129 (7.3), `UpdateFlood` 4 375 (8.8),
/// `Fixpoint` 911 (1.8), `Ack` 935 (0.7), the one `StartUpdate` 103, and the
/// runtime 84 (63 with one event heap and one floor table; the lane and the
/// senders' in-flight records grow a buffer each). Since a fragment's rows
/// travel as a row set: 35 691, `Query` 16 741 (16.7: three fewer each,
/// with no row copy per shipped row), `Answer` 12 542 (7.6, as it measured
/// before that change too). Since the chase keeps no copy of an inserted
/// fact: 30 691, `Answer` 7 542 (4.57), every other kind and the runtime as
/// before. Since sets of at most 8 rows keep no membership index, variable
/// lists, `SN`s and one relation's watermarks cost no block of their own
/// and the runtime hands every handler one send buffer: 13 609, `Query`
/// 5 324 (5.32), `UpdateFlood` 2 392 (4.79), `Answer` 4 336 (2.62), `Ack`
/// 465 (0.35), the `StartUpdate` 97, `Fixpoint` and the runtime as before.
/// Since a peer's session tables hold their first entry inline and a
/// fragment and a rule hold their plans and head: 11 609, `UpdateFlood`
/// 1 897 (3.80), `Query` 4 830 (4.83), `Answer` 3 826 (2.32), `Fixpoint`
/// 412 (0.83: a retirement no longer drops the live table), `Ack` 464, the
/// `StartUpdate` 96, the runtime as before. Since a subscription counts the
/// rows it shipped instead of copying them, and a one-atom fragment holds
/// no slots for delta plans: 9 609, `Query` 2 830 (2.83), every other kind
/// and the runtime as before.
const SESSION_SPLIT: [(&str, u64, u64); 6] = [
    ("StartUpdate", 1, 96),
    ("UpdateFlood", 499, 1_897),
    ("Query", 1_000, 2_830),
    ("Answer", 1_652, 3_826),
    ("Ack", 1_331, 464),
    ("Fixpoint", 499, 412),
];
const SESSION_RUNTIME_ALLOCATIONS: u64 = 84;
/// What a `Query` handler may cost a delivery, whatever the pin: 16.7
/// before.
const QUERY_ALLOCATIONS_PER_DELIVERY: f64 = 7.0;

thread_local! {
    /// Per kind of [`SESSION_SPLIT`]: deliveries, and allocations in their
    /// handlers.
    static BY_KIND: Cell<[(u64, u64); 6]> = const { Cell::new([(0, 0); 6]) };
}

/// A `DbPeer` that counts each handler's allocations under the kind it
/// delivers.
struct Counted(DbPeer);

impl Peer<ProtocolMsg> for Counted {
    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg, ctx: &mut Context<ProtocolMsg>) {
        self.0.on_message(from, msg, ctx);
    }

    fn on_envelope(
        &mut self,
        from: NodeId,
        msg_id: u64,
        msg: ProtocolMsg,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        let kind = SESSION_SPLIT.iter().position(|&(k, ..)| k == msg.kind());
        let kind = kind.expect("a first-contact session's kind");
        let ((), n) = allocations_in(|| self.0.on_envelope(from, msg_id, msg, ctx));
        BY_KIND.with(|cell| {
            let mut split = cell.get();
            split[kind].0 += 1;
            split[kind].1 += n;
            cell.set(split);
        });
    }
}

#[test]
fn a_first_contact_sessions_allocations_split_by_kind_and_layer() {
    let peers = first_contact_builder().build_peers().unwrap();
    let mut sim = Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(1))));
    for (id, peer) in peers {
        sim.add_peer(id, Counted(peer));
    }
    let root = NodeId(0);
    let start = ProtocolMsg::StartUpdate {
        session: SessionId::new(root, 1),
    };
    let (outcome, total) = allocations_in(|| {
        sim.inject(root, root, start);
        sim.run()
    });
    assert!(outcome.quiescent);
    assert_eq!(outcome.delivered, SESSION_MESSAGES);
    let split = BY_KIND.with(Cell::get);
    let runtime = total - split.iter().map(|&(_, n)| n).sum::<u64>();
    for ((kind, ..), (deliveries, n)) in SESSION_SPLIT.into_iter().zip(split) {
        let each = n as f64 / deliveries as f64;
        println!("{kind}: {deliveries} deliveries, {n} allocations ({each:.2} each)");
    }
    println!("runtime: {runtime} of {total} allocations");
    for ((kind, want, budget), (deliveries, n)) in SESSION_SPLIT.into_iter().zip(split) {
        assert_eq!(deliveries, want, "{kind} deliveries");
        assert!(n as f64 <= budget as f64 * 1.1, "{kind}: {n} allocations");
    }
    let (queries, by_queries) = split[2];
    let each = by_queries as f64 / queries as f64;
    assert!(each <= QUERY_ALLOCATIONS_PER_DELIVERY, "{each:.2} a query");
    assert!(
        runtime as f64 <= SESSION_RUNTIME_ALLOCATIONS as f64 * 1.1,
        "runtime: {runtime} allocations"
    );
}

/// A fact lives in its relation only: chasing a new one allocates what
/// storing it costs the relation (its twin grows the same way) and nothing
/// else, and a present one costs nothing.
#[test]
fn a_new_fact_costs_the_chase_only_its_relations_storage() {
    let schema = DatabaseSchema::parse("a(x: int, y: int).").unwrap();
    let (mut db, mut twin) = (Database::new(schema.clone()), Database::new(schema));
    let vars: Vec<Arc<str>> = ["X", "Y"].map(Arc::from).to_vec();
    let head = [Atom::new("a", vec![Term::var("X"), Term::var("Y")])];
    let head = CompiledHead::compile(&head, &vars, db.schema()).unwrap();
    let (mut nulls, mut state, cfg) = (
        NullFactory::new(0),
        ChaseState::new(),
        ChaseConfig::default(),
    );
    let mut out = ChaseOutcome::default();
    for i in 0..16 {
        let row = [Val::Int(i), Val::Int(10 * i)];
        let (_, stored) = allocations_in(|| twin.relation_mut("a").unwrap().insert_row(&row));
        let (applied, chased) =
            allocations_in(|| head.apply(&mut db, &row, &mut nulls, &mut state, &cfg, &mut out));
        applied.unwrap();
        assert_eq!(chased, stored, "row {i}: the relation's storage only");
        let (applied, again) =
            allocations_in(|| head.apply(&mut db, &row, &mut nulls, &mut state, &cfg, &mut out));
        applied.unwrap();
        assert_eq!(again, 0, "row {i}: a present fact costs nothing");
    }
    assert_eq!(out.inserted, 16);
}

#[test]
fn a_subscription_whose_fragment_did_not_grow_allocates_nothing() {
    let mut db = Database::new(DatabaseSchema::parse("item(id: int, src: int).").unwrap());
    for i in 0..4 {
        db.insert_values("item", vec![Val::Int(i), Val::Int(1)])
            .unwrap();
    }
    let mut peer = DbPeer::new(NodeId(1), db, SystemConfig::default());
    let resolve = |s: &str| match s {
        "A" => Some(NodeId(0)),
        "B" => Some(NodeId(1)),
        _ => None,
    };
    let rule = CoordinationRule::parse(
        "s1",
        "B:item(I,S) => A:inbox(I,S)",
        None,
        &resolve,
        &mut Idents::new(),
    )
    .unwrap();
    let marks = [(Arc::<str>::from("item"), 4usize)].into_iter().collect();
    let mut sub = subscription(&rule.parts[0], marks);
    let mut ctx = Context::new(NodeId(1));
    let ((rows, new), allocations) =
        allocations_in(|| peer.advance_subscription(&mut sub, &mut ctx));
    assert!(rows.is_empty() && new == 0);
    assert_eq!(allocations, 0);

    // Once the fragment's relation grows, the delta is evaluated.
    peer.database_mut()
        .insert_values("item", vec![Val::Int(9), Val::Int(1)])
        .unwrap();
    let (rows, new) = peer.advance_subscription(&mut sub, &mut ctx);
    assert_eq!(
        rows,
        RowSet::from_flat(2, 1, vec![Val::Int(9), Val::Int(1)])
    );
    assert_eq!(new, 1);
    assert_eq!(sub.shipped, 1);
    assert_eq!(sub.watermarks["item"], 5);
}

/// `build_peers` on the 2 000-peer expander of `tests/peer_footprint.rs`
/// (degree 4, seed 1, 4 records a node): the peers themselves, their
/// rules, pipes and cycle hints from flat lists over the roster, and no
/// position graph, since no copy rule has an existential variable: 7 649
/// allocations, plus 10 %. Ordered maps per node, a dependency graph, a
/// second validation of every rule and a position graph made it 97 115.
const BUILD_ALLOCATIONS: u64 = 8_400;

#[test]
fn building_the_peers_of_a_2_000_peer_expander_stays_within_its_budget() {
    let cfg = ScaleConfig {
        topology: Topology::Expander {
            n: 2_000,
            degree: 4,
            seed: 1,
        },
        records_per_node: 4,
    };
    let mut builder = scale_system(&cfg).unwrap();
    let (peers, allocations) = allocations_in(|| builder.build_peers().unwrap());
    assert_eq!(peers.len(), 2_000);
    println!("build_peers: {allocations} allocations for 2 000 peers");
    assert!(
        allocations <= BUILD_ALLOCATIONS,
        "{allocations} allocations against a budget of {BUILD_ALLOCATIONS}"
    );
}

/// The 20 000 copy rules of `flood_sim` (a 10 000-peer expander of degree
/// 4, seed 1) have no existential head variable, so no special edge:
/// checking weak acyclicity builds nothing.
#[test]
fn a_rule_set_without_existentials_checks_weak_acyclicity_without_allocating() {
    let cfg = ScaleConfig {
        topology: Topology::Expander {
            n: 10_000,
            degree: 4,
            seed: 1,
        },
        records_per_node: 1,
    };
    let builder = scale_system(&cfg).unwrap();
    let rules = builder.rules();
    assert_eq!(rules.len(), 20_000);
    let (checked, allocations) = allocations_in(|| rules.check_weak_acyclicity());
    assert_eq!(checked, Ok(()));
    assert_eq!(allocations, 0);
}

/// A fragment of two atoms whose relations both grew runs both delta plans
/// and unions their rows into one `RowSet`, whose membership table is the
/// only one built: the set is the fragment's rows as it stands. Each plan
/// alone costs what it costs when its relation is the only one that grew,
/// and the union what building that set by hand costs. Flattening the
/// union and hashing its rows again into a second table (`RowSet::from_flat`)
/// cost two allocations more: that table's buckets and its chain.
#[test]
fn a_two_atom_delta_builds_one_membership_table() {
    let schema = "a(x: int, y: int). b(y: int, z: int).";
    let mut db = Database::new(DatabaseSchema::parse(schema).unwrap());
    let insert = |db: &mut Database, rel: &str, x: i64, y: i64| {
        db.insert_values(rel, vec![Val::Int(x), Val::Int(y)])
            .unwrap();
    };
    for i in 0..4 {
        insert(&mut db, "a", i, i % 2);
        insert(&mut db, "b", i % 2, 10 * i);
    }
    let atoms = [
        Atom::new("a", vec![Term::var("X"), Term::var("Y")]),
        Atom::new("b", vec![Term::var("Y"), Term::var("Z")]),
    ];
    let body = CompiledBody::compile(&atoms, &[], &db).unwrap();
    for i in 4..7 {
        insert(&mut db, "a", i, i % 2);
        insert(&mut db, "b", i % 2, 10 * i);
    }
    let since = |a: usize, b: usize| -> Marks {
        [(Arc::from("a"), a), (Arc::from("b"), b)]
            .into_iter()
            .collect()
    };
    let eval = |marks: &Marks| {
        let mut m = EvalMetrics::default();
        evaluate_bindings_since_planned(&body, &atoms, &[], &db, marks, &mut m).unwrap()
    };
    let [both_marks, a_marks, b_marks] = [since(4, 4), since(4, 7), since(7, 4)];
    // Compile both delta plans first.
    let expected = eval(&both_marks).into_rows();

    let (only_a, a_alone) = allocations_in(|| eval(&a_marks));
    let (only_b, b_alone) = allocations_in(|| eval(&b_marks));
    let (union, by_hand) = allocations_in(|| {
        let mut set = RowSet::new(only_a.vars.len());
        set.extend(only_a.rows());
        set.extend(only_b.rows());
        set
    });
    let (rows, both) = allocations_in(|| eval(&both_marks).into_rows());
    assert_eq!(rows, union);
    assert_eq!(rows, expected);
    assert!(only_a.len() > 1 && only_b.len() > 1 && rows.len() < only_a.len() + only_b.len());
    println!("{both} allocations: {a_alone} and {b_alone} for the plans, {by_hand} for the union");
    assert_eq!(
        both,
        a_alone + b_alone + by_hand,
        "one membership table, not two"
    );
}

/// A fresh subscription to `part` whose subscriber holds everything below
/// `watermarks`.
fn subscription(part: &Arc<BodyPart>, watermarks: Marks) -> Subscription {
    Subscription {
        part: Arc::clone(part),
        shipped: 0,
        resumed_rows: 0,
        sent_complete: false,
        standing: false,
        watermarks,
    }
}

/// Peers of one build share their compiled plans and heads. Nodes B and C
/// serve `item(I,S)` fragments of the same shape to heads D and E, over the
/// same four rows: B's first evaluation compiles the plans, and C's takes
/// them from the system's catalog, so it costs no more than C's next
/// evaluation of the same rows: a one-atom fragment holds no table of
/// delta plans to allocate. Likewise D's first answer compiles the
/// `inbox(I,S)` head, and E's, in the very same state, is cheaper by at
/// least the compile.
#[test]
fn a_second_peer_of_one_shape_compiles_nothing() {
    let schema = "item(id: int, src: int). inbox(id: int, src: int).";
    let mut b = P2PSystemBuilder::new();
    for id in 0..5 {
        b.add_node_with_schema(id, schema).unwrap();
    }
    let (bd, ce) = (
        b.add_rule("bd", "B:item(I,S) => D:inbox(I,S)").unwrap(),
        b.add_rule("ce", "C:item(I,S) => E:inbox(I,S)").unwrap(),
    );
    for node in [1, 2] {
        for i in 0..4 {
            b.insert(node, "item", vec![Val::Int(i), Val::Int(node.into())])
                .unwrap();
        }
    }
    let parts = [bd, ce].map(|id| Arc::clone(&b.rules().get(id).unwrap().parts[0]));
    let mut peers: Vec<DbPeer> = b
        .build_peers()
        .unwrap()
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    let [_, body_b, body_c, head_d, head_e] = &mut peers[..] else {
        unreachable!("five nodes")
    };

    // Everything is new to a subscriber that holds nothing.
    let first = |peer: &mut DbPeer, part: &Arc<BodyPart>| {
        let mut sub = subscription(part, Marks::new());
        let mut ctx = Context::new(peer.id());
        allocations_in(|| peer.advance_subscription(&mut sub, &mut ctx).0.len())
    };
    let (rows, compiled) = first(body_b, &parts[0]);
    assert_eq!(rows, 4);
    let (rows, shared) = first(body_c, &parts[1]);
    assert_eq!(rows, 4);
    let (rows, held) = first(body_c, &parts[1]);
    assert_eq!(rows, 4);
    let db = body_c.database();
    let (atoms, constraints) = (&parts[1].atoms, &parts[1].local_constraints);
    let (_, compile) = allocations_in(|| CompiledBody::compile(atoms, constraints, db));
    println!("first evaluations: {compiled} compiling, {shared} shared, {held} held; a compile {compile}");
    assert!(shared <= held, "{shared} allocations against {held}");
    assert!(compiled >= shared + compile, "{compiled} against {shared}");

    // The heads take the same answer in the same state.
    let answer = |peer: &mut DbPeer, rule: RuleId, from: u32| {
        let rows = (0..4).flat_map(|i| [Val::Int(i), Val::Int(1)]).collect();
        let msg = ProtocolMsg::Answer(Answer {
            session: SessionId::new(NodeId(0), 1),
            rule,
            rows: AnswerRows {
                vars: ["I", "S"].map(Arc::from).into(),
                rows: RowSet::from_flat(2, 4, rows),
                null_depths: vec![],
                marks: [(Arc::<str>::from("item"), 4usize)].into_iter().collect(),
                dict: vec![],
            },
            complete: true,
            reopen: false,
            pushed: false,
            acks: false,
            via: Via::Session,
        });
        let mut ctx = Context::new(peer.id());
        let ((), allocations) = allocations_in(|| peer.on_message(NodeId(from), msg, &mut ctx));
        assert_eq!(peer.database().relation("inbox").unwrap().len(), 4);
        allocations
    };
    let compiled = answer(head_d, bd, 1);
    let shared = answer(head_e, ce, 2);
    let vars: Vec<Arc<str>> = ["I", "S"].map(Arc::from).to_vec();
    let head = [Atom::new("inbox", vec![Term::var("I"), Term::var("S")])];
    let schema = head_e.database().schema();
    let (_, compile) = allocations_in(|| CompiledHead::compile(&head, &vars, schema));
    println!("first answers: {compiled} compiling, {shared} shared; a compile {compile}");
    assert!(compiled >= shared + compile, "{compiled} against {shared}");
}

/// A head's semi-naive join over two 10 000-row fragments, both entirely
/// new, allocates only buffers that grow by doubling — O(log n) for 10 000
/// result rows (145), with the join results and unions in row sets and the
/// per-term hash index a chain table. A `Tuple` per row in a set of them,
/// and a `Vec` per join key, made it 55 121.
#[test]
fn a_seminaive_join_allocates_only_buffer_growth() {
    let n = 10_000;
    let fragment = |vars: [&str; 2], row: fn(i64) -> [Val; 2]| VarRows {
        vars: vars.map(Arc::from).into(),
        rows: RowSet::from_flat(2, n as usize, (0..n).flat_map(row).collect()),
    };
    let left = fragment(["X", "Y"], |i| [Val::Int(i), Val::Int(i % 5_000)]);
    let right = fragment(["Y", "Z"], |i| [Val::Int(i), Val::Int(-i)]);
    let parts = [left.view(), right.view()].map(|full| PartDelta { full, since: 0 });
    let (joined, allocations) = allocations_in(|| join_parts_seminaive(&parts, &[]));
    assert_eq!(joined.rows.len(), n as usize);
    let log_n = u64::from((n as u64).ilog2() + 1);
    println!("{allocations} allocations for {} rows", joined.rows.len());
    assert!(
        allocations <= 16 * log_n,
        "{allocations} allocations: more than buffer growth"
    );
}

/// A stored row owns no heap block: membership and each join index are a
/// hash map of `(oldest, newest)` positions plus one chain link per row, so
/// inserting grows seven buffers (rows, membership map and chain, two per
/// index) by amortised doubling; a clone shares them all and allocates only
/// its list of index handles. One `Vec` per row and per key made this
/// > 20 000 allocations.
#[test]
fn a_stored_row_allocates_nothing_of_its_own() {
    let schema = RelationSchema::new("r", vec![("x", ColumnType::Int), ("y", ColumnType::Int)]);
    let row = |i: i64| [Val::Int(i), Val::Int(i % 1000)];
    let mut rel = Relation::new(schema);
    rel.ensure_index(&[0]);
    rel.ensure_index(&[1]);
    let (fresh, from_empty) =
        allocations_in(|| (0..10_000).filter(|&i| rel.insert_row(&row(i))).count());
    assert_eq!(fresh, 10_000);
    assert!(
        from_empty <= 7 * 14,
        "{from_empty} allocations: more than seven buffers doubling up to 10 000 rows"
    );
    let (fresh, growing) = allocations_in(|| {
        (10_000..20_000)
            .filter(|&i| rel.insert_row(&row(i)))
            .count()
    });
    assert_eq!(fresh, 10_000);
    assert!(growing <= 64, "{growing} allocations for 10 000 more rows");
    let (present, again) =
        allocations_in(|| (0..20_000).filter(|&i| rel.insert_row(&row(i))).count());
    assert_eq!((present, again), (0, 0), "a present row costs nothing");

    let (copy, cloned) = allocations_in(|| rel.clone());
    assert!(cloned <= 1, "{cloned} allocations to clone");
    assert_eq!(copy.len(), 20_000);
    let seven = key_hash(&[Val::Int(7)]);
    assert_eq!(copy.index(&[1]).unwrap().candidates(seven).count(), 20);
}

/// A base row reaches its relation through one buffer its builder keeps:
/// inserting 10 000 two-integer rows into a warm builder costs what storing
/// them in a relation costs — its buffers doubling — and nothing per row.
/// Taking a `Vec` per row made every caller build one (10 037 allocations
/// here), and a network file's loader clone each of its rows first.
#[test]
fn a_builders_base_row_allocates_nothing_of_its_own() {
    let schema = "r(x: int, y: int).";
    let row = |i: i64| [Val::Int(i), Val::Int(-i)];
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, schema).unwrap();
    b.insert(0, "r", row(-1)).unwrap();
    let mut db = Database::new(DatabaseSchema::parse(schema).unwrap());
    db.insert_row("r", &row(-1)).unwrap();
    let (_, stored) = allocations_in(|| {
        for i in 0..10_000 {
            db.insert_row("r", &row(i)).unwrap();
        }
    });
    let (_, inserted) = allocations_in(|| {
        for i in 0..10_000 {
            b.insert(0, "r", row(i)).unwrap();
        }
    });
    println!(
        "10 000 base rows: {inserted} allocations through a builder, {stored} into a database"
    );
    assert_eq!(inserted, stored);
}

/// A `serve` process builds the one peer it serves. Under `--durable`
/// every built peer attaches a store and snapshots its whole database, so
/// building the network's every peer to keep one made each process pay for
/// every node's rows (and a durable launch of n nodes n² snapshots): past
/// parsing the netfile, a durable `prepare` of node 0 allocated 2 710 875
/// bytes when node 1 held 20 000 rows, against 16 969 when it held none.
/// Now those bytes do not grow with another node's rows.
#[test]
fn a_durable_serve_builds_only_its_own_peer() {
    let prepared = |rows: i64| {
        let data = (0..rows)
            .map(|i| vec![Value::Int(i), Value::Int(-i)])
            .collect();
        let node = |id, schema: &str, data| NodeDecl {
            id,
            name: None,
            schema: schema.to_string(),
            data,
        };
        let netfile = NetworkFile {
            super_peer: 0,
            nodes: vec![
                node(0, "a(x: int, y: int).", BTreeMap::new()),
                node(1, "b(x: int, y: int).", [("b".to_string(), data)].into()),
            ],
            rules: vec![RuleDecl {
                name: "r".to_string(),
                text: "B:b(X,Y) => A:a(X,Y)".to_string(),
            }],
        };
        let dir = std::env::temp_dir().join(format!(
            "p2pdb_serve_one_peer_{}_{rows:05}",
            std::process::id()
        ));
        let mut cfg = ServeConfig::new(netfile, 0, "127.0.0.1:0".parse().unwrap());
        cfg.state_dir = Some(dir.clone());
        let (_, parse) = bytes_in(|| cfg.netfile.into_builder().unwrap());
        let (server, bytes) = bytes_in(|| prepare(&cfg).unwrap());
        // Dropped without running, the server stops its acceptor and gives
        // its listener back: no server is left behind.
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
        bytes - parse
    };
    // The first prepare of the process initialises what later ones reuse.
    prepared(0);
    let (none, many) = (prepared(0), prepared(20_000));
    println!("a durable prepare of node 0: {none} bytes past the netfile with node 1 empty, {many} with 20 000 rows");
    assert!(many <= none, "{many} bytes against {none}");
}

/// `flood_sim`'s copy rule and schema, on a builder that names its nodes
/// as the rule text does.
const COPY_RULE: &str = "N1:item(I,S) => N0:inbox(I,S)";

fn copy_rule_builder() -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    for id in 0..2 {
        let schema = "item(id: int, src: int). inbox(id: int, src: int).";
        b.add_named_node(&format!("N{id}"), id, schema).unwrap();
    }
    b
}

/// Reading a copy rule allocates what the rule owns and nothing per
/// identifier: its body and head atom lists (the body's is its one part's
/// as parsed) and their two term lists, its name, its part list, the
/// part's `Arc` and variables, and the rule's `Arc` — 9 — with `item`,
/// `inbox`, `I`, `S` and both qualifiers taken from the builder's
/// interner. An `Arc` per identifier occurrence, ordered maps and sets to
/// group the body and an ordered-map registry made it 32.
#[test]
fn a_builders_second_copy_rule_allocates_what_it_owns() {
    let mut b = copy_rule_builder();
    b.add_rule("s0", COPY_RULE).unwrap();
    let (_, allocations) = allocations_in(|| b.add_rule("s1", COPY_RULE).unwrap());
    println!("add_rule of a second copy rule: {allocations} allocations");
    assert!(allocations <= 9, "{allocations} allocations for one rule");
}

/// Two rules of one builder hold one `Arc` per relation name and variable.
#[test]
fn a_builders_rules_share_their_identifiers() {
    let mut b = copy_rule_builder();
    b.add_rule("s0", COPY_RULE).unwrap();
    b.add_rule("s1", COPY_RULE).unwrap();
    let [r0, r1] = [0, 1].map(|id| b.rules().get(RuleId(id)).unwrap());
    let shared = |a: &Arc<str>, b: &Arc<str>| assert!(Arc::ptr_eq(a, b), "`{a}` is not shared");
    let (body0, body1) = (&r0.parts[0].atoms[0], &r1.parts[0].atoms[0]);
    shared(&body0.relation, &body1.relation);
    shared(&r0.head[0].relation, &r1.head[0].relation);
    for (v0, v1) in r0.parts[0].vars.iter().zip(r1.parts[0].vars.iter()) {
        shared(v0, v1);
    }
    for (t0, t1) in body0.terms.iter().zip(&r1.head[0].terms) {
        let (Term::Var(v0), Term::Var(v1)) = (t0, t1) else {
            panic!("a copy rule's terms are variables");
        };
        shared(v0, v1);
    }
}
