//! Sizing a message is a walk, not a build: every in-process runtime calls
//! `Wire::wire_size_with` once per send, and under the JSON codec that call
//! must not touch the heap — the message streams into a byte counter.
//! Encoding to text allocates for the text and nothing else.
//!
//! The counting allocator below is this test binary's global allocator; it
//! counts per thread, so the test harness's own threads do not disturb it.

use p2pdb::core::messages::{AnswerRows, ProtocolMsg};
use p2pdb::core::rule::{BodyPart, RuleId};
use p2pdb::net::{Codec, SessionId, Wire};
use p2pdb::relational::query::{Atom, Term};
use p2pdb::relational::{SymId, Tuple, Val};
use p2pdb::topology::NodeId;
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
