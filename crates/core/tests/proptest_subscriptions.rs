//! A served subscription keeps a count of what it shipped, not the rows:
//! evaluated from its watermarks, a fragment derives only rows the
//! subscription never shipped. Random fragments of one to three atoms —
//! joins, repeated variables, constants and local constraints — over
//! random interleavings of inserts and evaluations, checked against a
//! brute-force reference that enumerates every combination of stored rows
//! and keeps every row it was shipped:
//!
//! * by default each evaluation returns exactly "the current extension
//!   minus everything shipped this session", and all of it is new;
//! * under `paper_faithful` each evaluation returns the full extension, and
//!   the count it calls new is the number of rows not shipped before.

use p2p_core::config::SystemConfig;
use p2p_core::peer::{DbPeer, Subscription};
use p2p_core::rule::{BodyPart, CoordinationRule};
use p2p_net::Context;
use p2p_relational::query::{CmpOp, Idents, Marks, Term};
use p2p_relational::{Database, DatabaseSchema, Val};
use p2p_topology::NodeId;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

const SCHEMA: &str = "r(a: int, b: int). s(a: int, b: int). t(a: int, b: int, c: int).";
const RELATIONS: [(&str, usize); 3] = [("r", 2), ("s", 2), ("t", 3)];
const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
const OPS: [(CmpOp, &str); 6] = [
    (CmpOp::Eq, "="),
    (CmpOp::Neq, "!="),
    (CmpOp::Lt, "<"),
    (CmpOp::Le, "<="),
    (CmpOp::Gt, ">"),
    (CmpOp::Ge, ">="),
];
/// Values are drawn from `0..DOMAIN`, small enough that joins match.
const DOMAIN: i64 = 3;

/// A term drawn from `(kind, n)`: mostly a variable, sometimes a constant.
fn term((kind, n): (u8, usize)) -> String {
    match kind % 4 {
        0 => (n as i64 % DOMAIN).to_string(),
        _ => VARS[n % VARS.len()].to_string(),
    }
}

/// The text of a one-node rule whose body is `atoms` and `constraints` at
/// `B`; the head copies the first atom's first variable. The first term of
/// the first atom is a variable, so there is one.
fn rule_text(atoms: &[(usize, Vec<(u8, usize)>)], constraints: &[(usize, usize, usize)]) -> String {
    let mut vars: Vec<String> = Vec::new();
    let mut body: Vec<String> = Vec::new();
    for (i, (relation, terms)) in atoms.iter().enumerate() {
        let (name, arity) = RELATIONS[*relation];
        let terms: Vec<String> = (0..arity)
            .map(|k| match (i, k) {
                (0, 0) => VARS[terms[0].1 % VARS.len()].to_string(),
                _ => term(terms[k]),
            })
            .collect();
        for t in &terms {
            if VARS.contains(&t.as_str()) && !vars.contains(t) {
                vars.push(t.clone());
            }
        }
        body.push(format!("B:{name}({})", terms.join(", ")));
    }
    // Constraints over the fragment's own variables, so they are local; a
    // variable is compared with another one or with a constant.
    for &(lhs, op, rhs) in constraints {
        let (lhs, other) = (lhs % vars.len(), rhs % vars.len());
        let rhs = match rhs % 2 == 0 || other == lhs {
            true => (rhs as i64 % DOMAIN).to_string(),
            false => vars[other].clone(),
        };
        body.push(format!("{} {} {rhs}", vars[lhs], OPS[op].1));
    }
    format!("{} => A:h({})", body.join(", "), vars[0])
}

/// Every row of the fragment over `db`, by trying every combination of
/// one stored row per atom: the fragment's extension as a set of rows over
/// its variables.
fn brute_force(part: &BodyPart, db: &Database) -> HashSet<Vec<Val>> {
    let mut out = HashSet::new();
    extend(part, db, 0, &mut vec![None; part.vars.len()], &mut out);
    out
}

/// The position of variable `v` in the fragment's row.
fn slot(part: &BodyPart, v: &str) -> usize {
    part.vars.iter().position(|u| &**u == v).unwrap()
}

fn extend(
    part: &BodyPart,
    db: &Database,
    atom: usize,
    binding: &mut Vec<Option<Val>>,
    out: &mut HashSet<Vec<Val>>,
) {
    let Some(a) = part.atoms.get(atom) else {
        let value = |t: &Term| match t {
            Term::Const(c) => *c,
            Term::Var(v) => binding[slot(part, v)].unwrap(),
        };
        let holds = part.local_constraints.iter().all(|c| {
            let (l, r) = (value(&c.lhs), value(&c.rhs));
            match c.op {
                CmpOp::Eq => l == r,
                CmpOp::Neq => l != r,
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
            }
        });
        if holds {
            out.insert(binding.iter().map(|v| v.unwrap()).collect());
        }
        return;
    };
    for row in db.relation(&a.relation).unwrap().iter() {
        let before = binding.clone();
        let fits = a.terms.iter().zip(row).all(|(t, v)| match t {
            Term::Const(c) => c == v,
            Term::Var(name) => *binding[slot(part, name)].get_or_insert(*v) == *v,
        });
        if fits {
            extend(part, db, atom + 1, binding, out);
        }
        *binding = before;
    }
}

/// One step of a schedule: insert a row into a relation, or evaluate the
/// subscription.
#[derive(Debug, Clone)]
enum Step {
    Insert(usize, [i64; 3]),
    Evaluate,
}

/// Three inserts to an evaluation, on average.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    let row = (0..DOMAIN, 0..DOMAIN, 0..DOMAIN);
    let step = (0..4u8, 0..RELATIONS.len(), row).prop_map(|(kind, r, (a, b, c))| match kind {
        0 => Step::Evaluate,
        _ => Step::Insert(r, [a, b, c]),
    });
    proptest::collection::vec(step, 1..40)
}

fn fragment() -> impl Strategy<Value = String> {
    let atom = (
        0..RELATIONS.len(),
        proptest::collection::vec((any::<u8>(), 0..16usize), 3..4),
    );
    (
        proptest::collection::vec(atom, 1..4),
        proptest::collection::vec((0..4usize, 0..OPS.len(), 0..16usize), 0..3),
    )
        .prop_map(|(atoms, constraints)| rule_text(&atoms, &constraints))
}

/// Runs `steps` against a fresh subscription to the fragment of `text` at
/// a peer whose database starts with `seed`, checking every evaluation
/// against the reference.
fn check(text: &str, seed: &[Step], steps: &[Step], faithful: bool) -> Result<(), TestCaseError> {
    let resolve = |s: &str| match s {
        "A" => Some(NodeId(0)),
        "B" => Some(NodeId(1)),
        _ => None,
    };
    let rule = CoordinationRule::parse("r", text, None, &resolve, &mut Idents::new()).unwrap();
    prop_assert_eq!(rule.parts.len(), 1, "{}", text);
    let part = Arc::clone(&rule.parts[0]);
    let config = SystemConfig {
        paper_faithful: faithful,
        ..SystemConfig::default()
    };
    let db = Database::new(DatabaseSchema::parse(SCHEMA).unwrap());
    let mut peer = DbPeer::new(NodeId(1), db, config);
    let insert = |peer: &mut DbPeer, relation: usize, row: &[i64; 3]| {
        let (name, arity) = RELATIONS[relation];
        let row = row[..arity].iter().map(|v| Val::Int(*v)).collect();
        peer.database_mut().insert_values(name, row).unwrap();
    };
    for step in seed {
        if let Step::Insert(relation, row) = step {
            insert(&mut peer, *relation, row);
        }
    }
    // A subscriber that holds nothing yet: its first evaluation is the
    // whole extension.
    let mut sub = Subscription {
        part: Arc::clone(&part),
        shipped: 0,
        resumed_rows: 0,
        sent_complete: false,
        standing: false,
        watermarks: Marks::new(),
    };
    let mut ctx = Context::new(NodeId(1));
    let mut shipped: HashSet<Vec<Val>> = HashSet::new();
    for step in steps.iter().chain([&Step::Evaluate]) {
        let Step::Evaluate = step else {
            if let Step::Insert(relation, row) = step {
                insert(&mut peer, *relation, row);
            }
            continue;
        };
        let (rows, new) = peer.advance_subscription(&mut sub, &mut ctx);
        prop_assert!(peer.errors().is_empty(), "{:?}", peer.errors());
        let now = brute_force(&part, peer.database());
        let got: Vec<Vec<Val>> = rows.iter().map(<[Val]>::to_vec).collect();
        let got_set: HashSet<Vec<Val>> = got.iter().cloned().collect();
        prop_assert_eq!(got_set.len(), got.len(), "no row twice in one answer");
        let unshipped: HashSet<Vec<Val>> = now.difference(&shipped).cloned().collect();
        if faithful {
            prop_assert_eq!(&got_set, &now, "{}: the full extension", text);
        } else {
            prop_assert_eq!(
                &got_set,
                &unshipped,
                "{}: exactly what was not shipped",
                text
            );
        }
        prop_assert_eq!(new, unshipped.len(), "{}: the count of new rows", text);
        shipped.extend(got_set);
        prop_assert_eq!(sub.shipped, shipped.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// By default an evaluation from the watermarks ships exactly what the
    /// subscription has not shipped yet.
    #[test]
    fn a_delta_from_the_watermarks_is_what_was_not_shipped(
        text in fragment(),
        seed in steps(),
        steps in steps(),
    ) {
        check(&text, &seed, &steps, false)?;
    }

    /// Under `paper_faithful` an evaluation is the full extension, and its
    /// length less what was shipped counts its new rows.
    #[test]
    fn a_full_extension_counts_its_new_rows_by_its_length(
        text in fragment(),
        seed in steps(),
        steps in steps(),
    ) {
        check(&text, &seed, &steps, true)?;
    }
}
