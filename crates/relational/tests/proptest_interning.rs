//! Property-based equivalence of the two data planes: random databases
//! (integers, strings, labeled nulls) and random conjunctive queries must
//! evaluate identically under the legacy `Value` path and the interned
//! `Val`/columnar path, and the catalog machinery must round-trip.

mod legacy;

use legacy::{evaluate_legacy, resolve_rows, LegacyDatabase};
use p2p_relational::query::ast::{Atom, CmpOp, ConjunctiveQuery, Constraint, Term};
use p2p_relational::query::evaluate;
use p2p_relational::query::Marks;
use p2p_relational::value::NullId;
use p2p_relational::{ConstCatalog, Database, DatabaseSchema, Relation, Val};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// A value pick over a small mixed domain: integers, a pool of strings
/// (shared across the instance so joins actually hit), and a few nulls.
fn val_of(pick: u8) -> Val {
    match pick % 10 {
        0..=3 => Val::Int((pick % 5) as i64),
        4..=7 => Val::str(format!("const-{}", pick % 4)),
        _ => Val::Null(NullId::new(3, (pick % 3) as u64)),
    }
}

#[derive(Debug, Clone)]
struct Instance {
    r: Vec<(u8, u8)>,
    s: Vec<(u8, u8)>,
}

fn instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0..30u8, 0..30u8), 0..14),
        proptest::collection::vec((0..30u8, 0..30u8), 0..14),
    )
        .prop_map(|(r, s)| Instance { r, s })
}

fn db_of(inst: &Instance) -> Database {
    // Mixed-type columns are modelled as two str columns (nulls and the
    // schema checker admit anything string-shaped via `Val::str`; integers
    // are encoded as distinct interned strings to keep columns typed).
    let mut db =
        Database::new(DatabaseSchema::parse("r(x: str, y: str). s(x: str, y: str).").unwrap());
    let norm = |p: u8| match val_of(p) {
        Val::Int(i) => Val::str(format!("int-{i}")),
        other => other,
    };
    for &(x, y) in &inst.r {
        db.insert_values("r", vec![norm(x), norm(y)]).unwrap();
    }
    for &(x, y) in &inst.s {
        db.insert_values("s", vec![norm(x), norm(y)]).unwrap();
    }
    db
}

#[derive(Debug, Clone)]
struct RandomQuery {
    atoms: Vec<(bool, usize, usize)>,
    constraint: Option<(usize, u8, usize)>,
    head: Vec<usize>,
}

fn random_query() -> impl Strategy<Value = RandomQuery> {
    (
        proptest::collection::vec((any::<bool>(), 0..4usize, 0..4usize), 1..4),
        proptest::option::of((0..4usize, 0..6u8, 0..4usize)),
    )
        .prop_map(|(atoms, constraint)| {
            let mut head = Vec::new();
            for (_, a, b) in &atoms {
                for v in [a, b] {
                    if !head.contains(v) {
                        head.push(*v);
                    }
                }
            }
            let constraint = constraint.filter(|(a, _, b)| head.contains(a) && head.contains(b));
            RandomQuery {
                atoms,
                constraint,
                head,
            }
        })
}

fn var(i: usize) -> Term {
    Term::var(format!("X{i}"))
}

fn to_cq(q: &RandomQuery) -> ConjunctiveQuery {
    let atoms = q
        .atoms
        .iter()
        .map(|(use_r, a, b)| Atom::new(if *use_r { "r" } else { "s" }, vec![var(*a), var(*b)]))
        .collect();
    let constraints = q
        .constraint
        .iter()
        .map(|(a, op, b)| Constraint {
            lhs: var(*a),
            op: match op {
                0 => CmpOp::Eq,
                1 => CmpOp::Neq,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                _ => CmpOp::Ge,
            },
            rhs: var(*b),
        })
        .collect();
    ConjunctiveQuery {
        name: Arc::from("q"),
        head: q.head.iter().map(|v| var(*v)).collect(),
        atoms,
        constraints,
    }
}

#[test]
fn legacy_matches_new_on_a_mixed_join() {
    let mut db = Database::new(
        DatabaseSchema::parse("p(id: int, name: str). w(name: str, year: int).").unwrap(),
    );
    db.insert_values("p", vec![Val::Int(1), Val::str("ana")])
        .unwrap();
    db.insert_values("p", vec![Val::Int(2), Val::str("bob")])
        .unwrap();
    db.insert_values("w", vec![Val::str("ana"), Val::Int(2001)])
        .unwrap();
    db.insert_values("w", vec![Val::str("ana"), Val::Int(2002)])
        .unwrap();
    let q = p2p_relational::query::parse_query("q(I, Y) :- p(I, N), w(N, Y), Y > 2001").unwrap();
    let new: HashSet<_> = resolve_rows(&evaluate(&q, &db).unwrap())
        .into_iter()
        .collect();
    let legacy: HashSet<_> = evaluate_legacy(&q, &LegacyDatabase::from_database(&db))
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(new.len(), 1);
    assert_eq!(new, legacy);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The interned/columnar evaluator and the legacy `Value` evaluator
    /// agree on every random database + query — including string ordering
    /// built-ins (`<`, `>=`), which the interned path must resolve through
    /// the catalog.
    #[test]
    fn interned_path_equals_legacy_path(inst in instance(), q in random_query()) {
        let db = db_of(&inst);
        let legacy_db = LegacyDatabase::from_database(&db);
        let cq = to_cq(&q);
        let fast: HashSet<_> = resolve_rows(&evaluate(&cq, &db).unwrap())
            .into_iter()
            .collect();
        let slow: HashSet<_> = evaluate_legacy(&cq, &legacy_db).unwrap().into_iter().collect();
        prop_assert_eq!(fast, slow);
    }

    /// A database round-trips through serde: same facts, same membership
    /// (dedup still works), same watermarks — with the serialized form
    /// carrying each row exactly once (no `present` duplicate).
    #[test]
    fn database_serde_round_trip(inst in instance()) {
        let db = db_of(&inst);
        let text = serde_json::to_string(&db).unwrap();
        assert!(!text.contains("present"), "{text}");
        let back: Database = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back.all_facts(), db.all_facts());
        prop_assert_eq!(back.watermarks::<Marks>(), db.watermarks());
        // Dedup (membership rebuild) still functions after the round trip.
        let mut back = back;
        for (rel, t) in db.all_facts() {
            prop_assert!(!back.insert_row(&rel, &t).unwrap());
        }
    }

    /// Catalog dictionaries round-trip through serde and absorb correctly
    /// into a *foreign* catalog: resolved strings are preserved even though
    /// the raw ids differ.
    #[test]
    fn catalog_delta_round_trips_into_foreign_catalog(
        names in proptest::collection::vec(0..50u32, 1..10),
        offset in 1..7u32,
    ) {
        let writer = ConstCatalog::new();
        let reader = ConstCatalog::new();
        for i in 0..offset {
            reader.intern(&format!("reader-preexisting-{i}"));
        }
        let ids: Vec<_> = names
            .iter()
            .map(|n| writer.intern(&format!("shared-const-{n}")))
            .collect();
        let delta = writer.export(ids.iter().copied());
        // Serde round trip of the dictionary itself.
        let text = serde_json::to_string(&delta).unwrap();
        let back: Vec<(p2p_relational::SymId, Arc<str>)> = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&back, &delta);
        // Foreign absorb preserves the strings under remap.
        let remap = reader.absorb(&back);
        for id in ids {
            prop_assert_eq!(writer.resolve(id), reader.resolve(remap.map(id)));
        }
    }

    /// Columnar `Relation` round-trips through serde with membership intact.
    #[test]
    fn relation_serde_round_trip(rows in proptest::collection::vec((0..30u8, 0..30u8), 0..20)) {
        let schema = DatabaseSchema::parse("r(x: str, y: str).").unwrap();
        let mut rel = Relation::new(schema.relation("r").unwrap().clone());
        let norm = |p: u8| match val_of(p) {
            Val::Int(i) => Val::str(format!("int-{i}")),
            other => other,
        };
        for &(x, y) in &rows {
            rel.insert_row(&[norm(x), norm(y)]);
        }
        let text = serde_json::to_string(&rel).unwrap();
        let back: Relation = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back.len(), rel.len());
        for row in rel.iter() {
            prop_assert!(back.contains(row));
        }
    }
}
