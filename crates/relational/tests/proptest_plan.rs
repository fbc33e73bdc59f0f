//! Property tests for the one query engine. Full evaluation: the executor's
//! index-present branch, its index-absent branch and the independent legacy
//! reference evaluator (`legacy/mod.rs`) agree on random databases × random
//! queries, and the executor's rows are distinct without a dedup pass. Delta evaluation: a plan compiled once stays sound and complete
//! (`since(w) ⊆ full(after)`, `full(before) ∪ since(w) == full(after)`)
//! while inserts land underneath it.

mod legacy;

use legacy::{evaluate_legacy, LegacyDatabase};
use p2p_relational::query::ast::{Atom, CmpOp, ConjunctiveQuery, Constraint, Term};
use p2p_relational::query::{
    evaluate_bindings_since_planned, execute_plan, Bindings, CompiledBody, EvalMetrics,
};
use p2p_relational::{Database, DatabaseSchema, Val, Value};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// A random instance: two binary relations over a small integer domain.
#[derive(Debug, Clone)]
struct Instance {
    r: Vec<(i64, i64)>,
    s: Vec<(i64, i64)>,
}

fn instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0..5i64, 0..5i64), 0..12),
        proptest::collection::vec((0..5i64, 0..5i64), 0..12),
    )
        .prop_map(|(r, s)| Instance { r, s })
}

fn db_of(inst: &Instance) -> Database {
    let mut db =
        Database::new(DatabaseSchema::parse("r(x: int, y: int). s(x: int, y: int).").unwrap());
    for &(x, y) in &inst.r {
        db.insert_values("r", vec![Val::Int(x), Val::Int(y)])
            .unwrap();
    }
    for &(x, y) in &inst.s {
        db.insert_values("s", vec![Val::Int(x), Val::Int(y)])
            .unwrap();
    }
    db
}

/// A random body over variables X0..X3: 1–3 atoms over r/s, optional
/// constraint restricted to bound variables (mirrors proptest_relational.rs).
#[derive(Debug, Clone)]
struct RandomQuery {
    atoms: Vec<(bool, usize, usize)>,
    constraint: Option<(usize, u8, usize)>,
}

fn random_query() -> impl Strategy<Value = RandomQuery> {
    (
        proptest::collection::vec((any::<bool>(), 0..4usize, 0..4usize), 1..4),
        proptest::option::of((0..4usize, 0..6u8, 0..4usize)),
    )
        .prop_map(|(atoms, constraint)| {
            let bound: Vec<usize> = atoms.iter().flat_map(|(_, a, b)| [*a, *b]).collect();
            let constraint = constraint.filter(|(a, _, b)| bound.contains(a) && bound.contains(b));
            RandomQuery { atoms, constraint }
        })
}

fn var(i: usize) -> Term {
    Term::var(format!("X{i}"))
}

fn to_cq(q: &RandomQuery) -> ConjunctiveQuery {
    let atoms: Vec<Atom> = q
        .atoms
        .iter()
        .map(|(use_r, a, b)| Atom::new(if *use_r { "r" } else { "s" }, vec![var(*a), var(*b)]))
        .collect();
    let constraints: Vec<Constraint> = q
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
        head: Vec::new(),
        atoms,
        constraints,
    }
}

fn row_set(b: &Bindings) -> HashSet<Vec<Val>> {
    b.rows().map(<[Val]>::to_vec).collect()
}

fn full(body: &CompiledBody, db: &Database) -> (Bindings, EvalMetrics) {
    let mut m = EvalMetrics::default();
    let rows = execute_plan(&body.full, db, 0, &mut m).unwrap();
    (rows, m)
}

/// Boundary form of a binding table, for comparison with the reference.
fn value_rows(b: &Bindings) -> HashSet<Vec<Value>> {
    b.rows()
        .map(|row| row.iter().map(|v| v.to_value()).collect())
        .collect()
}

/// The reference evaluator's bindings over `vars`. It projects onto a head,
/// so it is asked for every variable in the engine's slot order.
fn reference(cq: &ConjunctiveQuery, vars: &[Arc<str>], db: &Database) -> HashSet<Vec<Value>> {
    let mut cq = cq.clone();
    cq.head = vars.iter().cloned().map(Term::Var).collect();
    evaluate_legacy(&cq, &LegacyDatabase::from_database(db))
        .unwrap()
        .into_iter()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Full evaluation: index-absent branch ≡ index-present branch ≡ the
    /// legacy reference evaluator.
    #[test]
    fn planned_matches_legacy(inst in instance(), q in random_query()) {
        let mut db = db_of(&inst);
        let cq = to_cq(&q);
        let body = CompiledBody::compile(&cq.atoms, &cq.constraints, &db).unwrap();

        let (transient, m) = full(&body, &db);
        prop_assert_eq!(m.index_probes, 0);
        body.full.ensure_indexes(&mut db).unwrap();
        let (probed, _) = full(&body, &db);
        prop_assert_eq!(&probed, &transient);

        // The executor does not deduplicate: its rows must come out distinct.
        prop_assert_eq!(row_set(&probed).len(), probed.len());
        prop_assert_eq!(value_rows(&probed), reference(&cq, &probed.vars, &db));
    }

    /// Interleaved inserts: a body compiled once (and indexed once, before
    /// any insert) keeps producing sound and complete deltas while the
    /// database grows underneath it.
    #[test]
    fn plan_survives_interleaved_inserts(
        inst in instance(),
        q in random_query(),
        extra in proptest::collection::vec((any::<bool>(), 0..5i64, 0..5i64), 1..8),
    ) {
        let mut db = db_of(&inst);
        let cq = to_cq(&q);
        let body = CompiledBody::compile(&cq.atoms, &cq.constraints, &db).unwrap();
        body.full.ensure_indexes(&mut db).unwrap();
        for (use_r, x, y) in extra {
            let before = row_set(&full(&body, &db).0);
            let w = db.watermarks();
            let rel = if use_r { "r" } else { "s" };
            db.insert_values(rel, vec![Val::Int(x), Val::Int(y)]).unwrap();

            // Alternate between probing whatever indexes exist and creating
            // the delta plans' own first.
            if use_r {
                body.ensure_delta_indexes(&mut db, &w).unwrap();
            }
            let mut m = EvalMetrics::default();
            let since = row_set(&evaluate_bindings_since_planned(&body, &db, &w, &mut m).unwrap());
            let (after, _) = full(&body, &db);
            // The maintained indexes still answer like the reference does.
            prop_assert_eq!(value_rows(&after), reference(&cq, &after.vars, &db));
            let after = row_set(&after);
            prop_assert!(since.is_subset(&after));
            let union: HashSet<Vec<Val>> = before.union(&since).cloned().collect();
            prop_assert_eq!(union, after);
        }
    }
}
