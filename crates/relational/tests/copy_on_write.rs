//! A database copy shares its rows: cloning costs the relation list, not
//! the rows, membership tables and join indexes, and a relation is copied
//! at its first write by the copy that writes it — a present row writes
//! nothing.
//!
//! The counting allocator below is this test binary's global allocator; it
//! counts per thread, so the test harness's own threads do not disturb it.

use p2p_relational::{Database, DatabaseSchema, RowSet, Val};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and bytes allocated by this thread (frees not netted).
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn add(bytes: usize) {
    let _ = ALLOCATED.try_with(|n| {
        let (count, total) = n.get();
        n.set((count + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter update, which neither allocates
// (a const-initialised `Cell` with no destructor) nor unwinds (`try_with`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What this thread allocates inside `f`: allocations and bytes.
fn allocated_in<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (count, bytes) = ALLOCATED.with(Cell::get);
    let out = f();
    let (count_after, bytes_after) = ALLOCATED.with(Cell::get);
    (out, (count_after - count, bytes_after - bytes))
}

const ROWS: i64 = 50_000;
const NAMES: [&str; 3] = ["r", "s", "t"];

fn row(i: i64) -> [Val; 2] {
    [Val::Int(i), Val::Int(i % 1_000)]
}

/// Three relations of [`ROWS`] rows each, every one with a join index.
fn three_relations() -> Database {
    let schema = DatabaseSchema::parse("r(x: int, y: int). s(x: int, y: int). t(x: int, y: int).");
    let mut db = Database::new(schema.unwrap());
    for name in NAMES {
        for i in 0..ROWS {
            db.insert_row(name, &row(i)).unwrap();
        }
        db.relation_mut(name).unwrap().ensure_index(&[1]);
    }
    db
}

/// Cloning 3 × 50 000 rows (≈ 5 MB of rows, membership and indexes)
/// allocates the relation list only.
#[test]
fn cloning_a_database_copies_no_row() {
    let db = three_relations();
    let (copy, (_, bytes)) = allocated_in(|| db.clone());
    assert!(bytes < 4 << 10, "{bytes} B allocated to clone");
    assert_eq!(copy.total_tuples(), 3 * ROWS as usize);
}

/// Inserting every row again into a fresh copy finds each present and
/// allocates nothing beyond the clone; a new row then copies the one
/// relation it goes to, at that copy, and the original reads as before.
#[test]
fn a_present_row_copies_nothing_and_a_new_one_copies_its_relation() {
    let db = three_relations();
    let (mut copy, (clone_count, clone_bytes)) = allocated_in(|| db.clone());
    let (fresh, present) = allocated_in(|| {
        let mut fresh = 0;
        for name in NAMES {
            for i in 0..ROWS {
                fresh += usize::from(copy.insert_row(name, &row(i)).unwrap());
            }
        }
        fresh
    });
    assert_eq!(fresh, 0);
    assert_eq!(present, (0, 0), "a present row copied");
    assert!(
        clone_bytes < 4 << 10,
        "{clone_count} allocations, {clone_bytes} B"
    );

    let (new, (_, bytes)) = allocated_in(|| copy.insert_row("s", &row(ROWS)).unwrap());
    assert!(new);
    // The copy of `s` and its growth by one row, and not of `r` and `t`
    // too: about twice one row set's deep copy.
    let (_, (_, one_relation)) = allocated_in(|| RowSet::clone(copy.relation("t").unwrap()));
    assert!(
        (one_relation..3 * one_relation).contains(&bytes),
        "{bytes} B to copy one relation whose row set is {one_relation} B"
    );
    assert_eq!(db.relation("s").unwrap().len(), ROWS as usize);
    assert!(!db.relation("s").unwrap().contains(&row(ROWS)));
    assert_eq!(copy.relation("s").unwrap().len(), ROWS as usize + 1);
}
