//! Property tests for the one query engine. Full evaluation: the executor's
//! index-present branch, its index-absent branch and the independent legacy
//! reference evaluator (`legacy/mod.rs`) agree on random databases × random
//! queries, and the executor's rows are distinct without a dedup pass. Delta evaluation: a plan compiled once stays sound and complete
//! (`since(w) ⊆ full(after)`, `full(before) ∪ since(w) == full(after)`)
//! while inserts land underneath it. Sharing: what a [`PlanCatalog`] hands
//! out — full plans, delta plans and heads — is exactly what compiling
//! against the caller's database would give, and it holds one entry per
//! distinct result.

mod legacy;

use legacy::{evaluate_legacy, LegacyDatabase};
use p2p_relational::chase::CompiledHead;
use p2p_relational::query::ast::{Atom, CmpOp, ConjunctiveQuery, Constraint, Term};
use p2p_relational::query::{
    compile_body, evaluate_bindings_since_planned, execute_plan, Bindings, CompiledBody,
    EvalMetrics, Marks, PlanCatalog,
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

fn cmp_op(op: u8) -> CmpOp {
    match op {
        0 => CmpOp::Eq,
        1 => CmpOp::Neq,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

/// The schema the catalog properties run over: two binary relations and a
/// unary one.
const SHAPES: &str = "r(x: int, y: int). s(x: int, y: int). t(x: int).";

/// Random rows for each relation of [`SHAPES`], 0–9 of each, so that two
/// instances often order a body's atoms differently.
fn sized_instance() -> impl Strategy<Value = [Vec<(i64, i64)>; 3]> {
    let rows = || proptest::collection::vec((0..4i64, 0..4i64), 0..10);
    (rows(), rows(), rows()).prop_map(|(r, s, t)| [r, s, t])
}

fn sized_db(schema: &DatabaseSchema, inst: &[Vec<(i64, i64)>; 3]) -> Database {
    let mut db = Database::new(schema.clone());
    for (rel, rows) in ["r", "s", "t"].into_iter().zip(inst) {
        for &(x, y) in rows {
            let row = if rel == "t" {
                vec![Val::Int(x)]
            } else {
                vec![Val::Int(x), Val::Int(y)]
            };
            db.insert_values(rel, row).unwrap();
        }
    }
    db
}

/// A term: a constant one time in five, else one of the variables X0..X3.
fn term((kind, k): (u8, usize)) -> Term {
    match kind {
        0 => Term::Const(Val::Int(k as i64)),
        _ => var(k),
    }
}

fn random_term() -> impl Strategy<Value = (u8, usize)> {
    (0..5u8, 0..4usize)
}

/// Atoms over [`SHAPES`]: a relation and the terms for its columns, with
/// constants and variables repeated within and across atoms.
fn random_atoms(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Atom>> {
    proptest::collection::vec((0..3usize, random_term(), random_term()), len).prop_map(|atoms| {
        (atoms.into_iter())
            .map(|(rel, a, b)| match rel {
                0 => Atom::new("r", vec![term(a), term(b)]),
                1 => Atom::new("s", vec![term(a), term(b)]),
                _ => Atom::new("t", vec![term(a)]),
            })
            .collect()
    })
}

/// A body of 1–4 atoms and up to two constraints over its variables and
/// constants.
fn random_body() -> impl Strategy<Value = (Vec<Atom>, Vec<Constraint>)> {
    let constraints = proptest::collection::vec((random_term(), 0..6u8, random_term()), 0..3);
    (random_atoms(1..5), constraints).prop_map(|(atoms, constraints)| {
        let bound = |t: &Term| match t {
            Term::Var(v) => atoms
                .iter()
                .any(|a| a.terms.contains(&Term::Var(v.clone()))),
            Term::Const(_) => true,
        };
        let constraints = (constraints.into_iter())
            .map(|(lhs, op, rhs)| Constraint {
                lhs: term(lhs),
                op: cmp_op(op),
                rhs: term(rhs),
            })
            .filter(|c| bound(&c.lhs) && bound(&c.rhs))
            .collect();
        (atoms, constraints)
    })
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
            op: cmp_op(*op),
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
    b.rows.iter().map(<[Val]>::to_vec).collect()
}

fn full(body: &CompiledBody, db: &Database) -> (Bindings, EvalMetrics) {
    let mut m = EvalMetrics::default();
    let rows = execute_plan(&body.full, db, 0, &mut m).unwrap();
    (rows, m)
}

/// Boundary form of a binding table, for comparison with the reference.
fn value_rows(b: &Bindings) -> HashSet<Vec<Value>> {
    b.rows
        .iter()
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
        prop_assert_eq!(row_set(&probed).len(), probed.rows.len());
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
            let w: Marks = db.watermarks();
            let rel = if use_r { "r" } else { "s" };
            db.insert_values(rel, vec![Val::Int(x), Val::Int(y)]).unwrap();

            // Alternate between probing whatever indexes exist and creating
            // the delta plans' own first.
            let (atoms, constraints) = (&cq.atoms, &cq.constraints);
            if use_r {
                body.ensure_delta_indexes(atoms, constraints, &mut db, &w).unwrap();
            }
            let mut m = EvalMetrics::default();
            let since = evaluate_bindings_since_planned(&body, atoms, constraints, &db, &w, &mut m);
            let since = row_set(&since.unwrap());
            let (after, _) = full(&body, &db);
            // The maintained indexes still answer like the reference does.
            prop_assert_eq!(value_rows(&after), reference(&cq, &after.vars, &db));
            let after = row_set(&after);
            prop_assert!(since.is_subset(&after));
            let union: HashSet<Vec<Val>> = before.union(&since).cloned().collect();
            prop_assert_eq!(union, after);
        }
    }

    /// Over two databases of one schema, the catalog's full plan and each
    /// delta plan are the plans compiling against that database gives,
    /// and the catalog holds one entry per distinct plan: where the two
    /// databases' sizes order the atoms differently it holds two, each its
    /// own database's.
    #[test]
    fn the_catalog_hands_out_the_plan_compiling_would(
        (atoms, constraints) in random_body(),
        sizes in (sized_instance(), sized_instance()),
    ) {
        let schema = DatabaseSchema::parse(SHAPES).unwrap();
        let catalog = PlanCatalog::default();
        let mut distinct = HashSet::new();
        for inst in [&sizes.0, &sizes.1] {
            let db = sized_db(&schema, inst);
            let shared = catalog.body(&atoms, &constraints, &db).unwrap();
            let own = CompiledBody::compile(&atoms, &constraints, &db).unwrap();
            prop_assert_eq!(format!("{shared:?}"), format!("{own:?}"));
            distinct.insert(format!("{:?}", own.full));
            // A subscriber that holds nothing executes every delta plan
            // whose relation has a row.
            let none = Marks::new();
            catalog.fill_deltas(&shared, &atoms, &constraints, &db, &none).unwrap();
            own.ensure_delta_indexes(&atoms, &constraints, &mut db.clone(), &none).unwrap();
            prop_assert_eq!(format!("{shared:?}"), format!("{own:?}"));
            for i in 0..atoms.len() {
                let shared = catalog.plan(&atoms, &constraints, &db, Some(i)).unwrap();
                let own = compile_body(&atoms, &constraints, &db, Some(i)).unwrap();
                prop_assert_eq!(format!("{shared:?}"), format!("{own:?}"));
                distinct.insert(format!("{own:?}"));
            }
            // Asked again, the catalog hands out the very same plan.
            let again = catalog.body(&atoms, &constraints, &db).unwrap();
            prop_assert!(Arc::ptr_eq(&again.full, &shared.full));
        }
        prop_assert_eq!(catalog.len(), distinct.len());
    }

    /// Heads of 1–3 atoms over two binding layouts — the head's own
    /// variables (no existential variable) and a random one (whatever it
    /// leaves out is existential): the catalog's head is the head compiling
    /// gives, once per distinct head.
    #[test]
    fn the_catalog_hands_out_the_head_compiling_would(
        head in random_atoms(1..4),
        layout in proptest::collection::vec(0..6usize, 0..5),
    ) {
        let schema = DatabaseSchema::parse(SHAPES).unwrap();
        let mut own_vars: Vec<Arc<str>> = Vec::new();
        for t in head.iter().flat_map(|a| &a.terms) {
            if let Term::Var(v) = t {
                if !own_vars.contains(v) {
                    own_vars.push(v.clone());
                }
            }
        }
        let mut random_vars: Vec<Arc<str>> = Vec::new();
        for k in layout {
            let v: Arc<str> = Arc::from(format!("X{k}"));
            if !random_vars.contains(&v) {
                random_vars.push(v);
            }
        }
        let catalog = PlanCatalog::default();
        let mut distinct = HashSet::new();
        for vars in [&own_vars, &random_vars] {
            let shared = catalog.head(&head, vars, &schema).unwrap();
            let own = CompiledHead::compile(&head, vars, &schema).unwrap();
            prop_assert_eq!(format!("{shared:?}"), format!("{own:?}"));
            distinct.insert(format!("{own:?}"));
            let again = catalog.head(&head, vars, &schema).unwrap();
            prop_assert!(Arc::ptr_eq(&again, &shared));
        }
        prop_assert_eq!(catalog.len(), distinct.len());
    }
}
