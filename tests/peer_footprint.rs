//! What a peer costs in memory, pinned: live heap bytes per peer of a
//! 2 000-peer degree-4 expander of copy rules (the `scale` scenario at a
//! fifth of `flood_sim`'s size, 4 records per node) after the build, after
//! the first-contact session, and after five more sessions.
//!
//! The build-time state a peer knows — its rules, its schema, its
//! relations' signatures — is shared with the builder's rule set and with
//! every other peer of the same schema, and its base rows with the
//! builder's database, not copied per holder; so are the
//! plans and heads it compiles, through its system's catalog; a retired
//! session leaves no slot behind. Either going back to a copy moves these
//! numbers by kilobytes per peer.
//!
//! The counting allocator below is this test binary's global allocator; it
//! counts per thread, so the test harness's own threads do not disturb it.

use p2pdb::core::peer::Subscription;
use p2pdb::core::system::{P2PSystem, P2PSystemBuilder};
use p2pdb::net::Codec;
use p2pdb::relational::{RowSet, Val};
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{scale_system, ScaleConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn add(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter update, which neither allocates
// (a const-initialised `Cell` with no destructor) nor unwinds (`try_with`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread has allocated and not freed.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

const PEERS: u32 = 2_000;
/// Live bytes per peer once the system is built: 4 042 while every peer
/// copied the builder's rows, 3 530 once it shares them, 2 833 once its
/// rules share their identifiers and keep no growth slack in their lists,
/// 2 943 once the system keeps the declared names, 2 799 once a
/// fragment's variable list is one shared block, and 2 895 once a peer's
/// session tables hold their first entry inline (made room for by keeping
/// an eager session's rounds state and a peer's driver state out of line)
/// and a fragment and a rule have a place for their plans and head.
const AFTER_BUILD: i64 = 2_950;
/// Live bytes per peer once the first-contact session retired: 8 839
/// while every peer compiled and kept its own `item(I,S)` plans and
/// `inbox(I,S)` head, 6 394 once the peers of one build share them, 5 965
/// once they share the builder's rows too, 5 268 once the rules are lean,
/// 5 378 with the declared names, 4 503 once a set of at most 8 rows
/// keeps no membership index, a cursor's watermarks of one relation no
/// heap block and a pipe that carried no symbol no symbol table, 4 214
/// once a fragment and a rule hold their plans and head, with no table of
/// them per peer, and 4 182 once a one-atom fragment keeps no slot for a
/// delta plan.
const AFTER_FIRST_CONTACT: i64 = 4_450;

fn run_closed(sys: &mut P2PSystem) {
    let report = sys.run_update();
    assert!(report.all_closed && report.errors.is_empty());
}

#[test]
fn a_peer_costs_these_bytes_after_build_and_after_sessions() {
    let cfg = ScaleConfig {
        topology: Topology::Expander {
            n: PEERS,
            degree: 4,
            seed: 1,
        },
        records_per_node: 4,
    };
    let start = live();
    let mut sys = scale_system(&cfg).unwrap().build().unwrap();
    let built = (live() - start) / i64::from(PEERS);
    run_closed(&mut sys);
    let first = (live() - start) / i64::from(PEERS);
    for _ in 0..5 {
        run_closed(&mut sys);
    }
    let later = (live() - start) / i64::from(PEERS);
    println!("live bytes per peer: {built} built, {first} after first contact, {later} after five more sessions");
    assert!(built <= AFTER_BUILD, "{built} B per peer after build");
    assert!(
        first <= AFTER_FIRST_CONTACT,
        "{first} B per peer after first contact"
    );
    assert_eq!(later, first, "sessions after the first hold nothing more");
}

/// A served subscription holds no row of its own: its fragment, its
/// watermarks (one relation inline), two counts and two flags. It took 152
/// bytes, and a heap block per shipped answer, while it kept a copy of
/// every row it shipped in its session.
#[test]
fn a_subscription_holds_no_row_buffer() {
    assert_eq!(std::mem::size_of::<Subscription>(), 64);
}

/// Rows at each body node of the join head below.
const JOIN_ROWS: i64 = 2_000;

/// Live bytes after the first-contact session of `B:b(X,Y), C:c(Y,Z) =>
/// A:a(X,Z)` with `JOIN_ROWS` rows at each body node that join to nothing,
/// durable (binary codec) or not, and the rows the head retains.
fn join_head_after_first_contact(durable: bool) -> (i64, usize) {
    let start = live();
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, z: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(y: int, z: int).").unwrap();
    b.add_rule("r", "B:b(X,Y), C:c(Y,Z) => A:a(X,Z)").unwrap();
    for i in 0..JOIN_ROWS {
        b.insert(1, "b", [Val::Int(i), Val::Int(i)]).unwrap();
        b.insert(2, "c", [Val::Int(JOIN_ROWS + i), Val::Int(i)])
            .unwrap();
    }
    b.config_mut().durability = durable;
    b.config_mut().codec = Codec::Binary;
    let mut sys = b.build().unwrap();
    run_closed(&mut sys);
    let retained = sys.peer(NodeId(0)).unwrap().retained_rows();
    (live() - start, retained)
}

/// A durable head holds the fragment rows it joins once, in its
/// subscriptions: what durability adds after first contact — the stores'
/// logs and snapshots, binary-encoded — is well under what one more copy
/// of those rows in memory costs. A store that folded the rows of every
/// answer it logged for its checkpoints held a second copy.
#[test]
fn a_durable_join_head_holds_its_fragment_rows_once() {
    let (volatile, retained) = join_head_after_first_contact(false);
    let (durable, durable_retained) = join_head_after_first_contact(true);
    assert_eq!(retained, 2 * JOIN_ROWS as usize);
    assert_eq!(durable_retained, retained);
    let start = live();
    let mut copy = RowSet::new(2);
    for i in 0..retained as i64 {
        copy.insert(&[Val::Int(i), Val::Int(i)]);
    }
    let one_copy = live() - start;
    drop(copy);
    let added = durable - volatile;
    println!("{retained} retained rows: one copy {one_copy} B; durability adds {added} B");
    assert!(
        added < one_copy / 2,
        "durability adds {added} B to a head retaining {retained} rows ({one_copy} B a copy)"
    );
}
