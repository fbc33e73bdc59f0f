//! Sizing a message is a walk, not a build: every in-process runtime calls
//! `Wire::wire_size_with` once per send, and under the JSON codec that call
//! must not touch the heap — the message streams into a byte counter.
//! Encoding to text allocates for the text and nothing else.
//!
//! The same allocator prices the per-message protocol path: a whole eager
//! session, a copied row (one `Tuple` when it is new, nothing when it is
//! not), a served subscription whose fragment did not grow (nothing), and a
//! stored row (nothing of its own: its relation's buffers grow by doubling,
//! and a clone copies each buffer once).
//!
//! The counting allocator below is this test binary's global allocator; it
//! counts per thread, so the test harness's own threads do not disturb it.

use p2pdb::core::joins::{join_parts_seminaive, PartDelta, VarRows};
use p2pdb::core::messages::{AnswerRows, ProtocolMsg};
use p2pdb::core::peer::{DbPeer, Subscription};
use p2pdb::core::rule::{BodyPart, CoordinationRule, RuleId};
use p2pdb::core::system::P2PSystem;
use p2pdb::core::SystemConfig;
use p2pdb::net::{Codec, Context, SessionId, SimTime, Wire};
use p2pdb::relational::chase::{ChaseConfig, ChaseOutcome, ChaseState, CompiledHead};
use p2pdb::relational::query::{Atom, Term};
use p2pdb::relational::{
    key_hash, ColumnType, Database, DatabaseSchema, NullFactory, Relation, RelationSchema, RowSet,
    SymId, Tuple, Val,
};
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{scale_system, ScaleConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which neither allocates
// (a const-initialised `Cell` with no destructor) nor unwinds (`try_with`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

fn samples() -> Vec<ProtocolMsg> {
    let session = SessionId::new(NodeId(0), 41);
    let var = |names: &[&str]| names.iter().map(Term::var).collect::<Vec<_>>();
    let mut wrote = var(&["I", "A"]);
    wrote.push(Term::Const(Val::str("open")));
    let query = ProtocolMsg::Query {
        session,
        rule: RuleId(2),
        part: BodyPart {
            node: NodeId(3),
            atoms: vec![
                Atom::new("pub", var(&["I", "T", "Y"])),
                Atom::new("wrote", wrote),
            ],
            local_constraints: vec![],
            vars: ["I", "T", "Y", "A"].map(Arc::from).to_vec(),
        },
        sn: vec![NodeId(0), NodeId(1), NodeId(3)],
        resume: true,
    };
    let answer = ProtocolMsg::Answer {
        session,
        rule: RuleId(2),
        rows: AnswerRows {
            vars: ["I", "T", "Y"].map(Arc::from).to_vec(),
            rows: (0..20)
                .map(|i| {
                    Tuple::new(vec![
                        Val::Int(i),
                        Val::Sym(SymId(1000 + i as u32)),
                        Val::Int(1999),
                    ])
                })
                .collect(),
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
    };
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
const SESSION_ALLOCATIONS: u64 = 56_646;
const SESSION_MESSAGES: u64 = 4_982;

/// The system of that session, before it runs.
fn first_contact_system() -> P2PSystem {
    let cfg = ScaleConfig {
        topology: Topology::Expander {
            n: 500,
            degree: 4,
            seed: 1,
        },
        records_per_node: 4,
    };
    scale_system(&cfg).unwrap().build().unwrap()
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

#[test]
fn a_copy_head_allocates_one_tuple_per_new_fact_and_nothing_for_a_present_one() {
    let schema = DatabaseSchema::parse("a(x: int, y: int).").unwrap();
    let (mut db, mut twin) = (Database::new(schema.clone()), Database::new(schema));
    let vars: Vec<Arc<str>> = ["X", "Y"].map(Arc::from).to_vec();
    let head = [Atom::new("a", vec![Term::var("X"), Term::var("Y")])];
    let mut head = CompiledHead::compile(&head, &vars, db.schema()).unwrap();
    let (mut nulls, mut state, cfg) = (
        NullFactory::new(0),
        ChaseState::new(),
        ChaseConfig::default(),
    );
    let mut out = ChaseOutcome::default();
    out.inserted.reserve(16);
    for i in 0..16 {
        let row = [Val::Int(i), Val::Int(10 * i)];
        // What storing the row costs the relation itself (its twin grows
        // the same way), and what the chase adds to that.
        let (_, stored) = allocations_in(|| twin.relation_mut("a").unwrap().insert_row(&row));
        let (applied, chased) =
            allocations_in(|| head.apply(&mut db, &row, &mut nulls, &mut state, &cfg, &mut out));
        applied.unwrap();
        assert_eq!(chased, stored + 1, "row {i}: one tuple for the new fact");
        let (applied, again) =
            allocations_in(|| head.apply(&mut db, &row, &mut nulls, &mut state, &cfg, &mut out));
        applied.unwrap();
        assert_eq!(again, 0, "row {i}: a present fact costs nothing");
    }
    assert_eq!(out.inserted.len(), 16);
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
    let rule =
        CoordinationRule::parse("s1", "B:item(I,S) => A:inbox(I,S)", None, &resolve).unwrap();
    let marks = [(Arc::<str>::from("item"), 4usize)].into_iter().collect();
    let mut sub = Subscription {
        part: Arc::new(rule.parts[0].clone()),
        sent: RowSet::new(2),
        resumed_rows: 0,
        sent_complete: false,
        standing: false,
        watermarks: marks,
    };
    let mut ctx = Context::new(SimTime::ZERO, NodeId(1));
    let ((rows, unsent), allocations) =
        allocations_in(|| peer.advance_subscription(rule.id, &mut sub, &mut ctx));
    assert!(rows.is_empty() && unsent.is_empty());
    assert_eq!(allocations, 0);

    // Once the fragment's relation grows, the delta is evaluated.
    peer.database_mut()
        .insert_values("item", vec![Val::Int(9), Val::Int(1)])
        .unwrap();
    let (rows, unsent) = peer.advance_subscription(rule.id, &mut sub, &mut ctx);
    assert_eq!(rows, vec![Tuple::new(vec![Val::Int(9), Val::Int(1)])]);
    assert_eq!(unsent, rows);
    assert_eq!(sub.watermarks[&Arc::<str>::from("item")], 5);
}

/// A head's semi-naive join over two 10 000-row fragments, both entirely
/// new, allocates only buffers that grow by doubling — O(log n) for 10 000
/// result rows (145), with the join results and unions in row sets and the
/// per-term hash index a chain table. A `Tuple` per row in a set of them,
/// and a `Vec` per join key, made it 55 121.
#[test]
fn a_seminaive_join_allocates_only_buffer_growth() {
    let n = 10_000;
    let fragment = |vars: [&str; 2], row: fn(i64) -> [Val; 2]| {
        let rows: Vec<Tuple> = (0..n).map(|i| Tuple::new(row(i).to_vec())).collect();
        VarRows::from_tuples(vars.map(Arc::from).to_vec(), &rows)
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
/// index) by amortised doubling, and a clone copies each of them once.
/// One `Vec` per row and per key made this > 20 000 allocations.
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
    assert!(cloned <= 8, "{cloned} allocations to clone");
    assert_eq!(copy.len(), 20_000);
    let seven = key_hash(&[Val::Int(7)]);
    assert_eq!(copy.index(&[1]).unwrap().candidates(seven).count(), 20);
}
