//! Property-based tests of the relational engine: the hash-join evaluator
//! against a brute-force model, chase idempotence, and homomorphism laws.

use p2p_relational::chase::{apply_rule_local, ChaseConfig, ChaseState};
use p2p_relational::hom::{contained_modulo_nulls, equivalent_modulo_nulls};
use p2p_relational::query::ast::{Atom, CmpOp, ConjunctiveQuery, Constraint, Term};
use p2p_relational::query::evaluate;
use p2p_relational::{Database, DatabaseSchema, NullFactory, Val};
use proptest::prelude::*;
use std::collections::HashMap;
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

/// A random conjunctive query over variables X0..X3: 1–3 atoms over r/s with
/// random variable choices, plus an optional constraint.
#[derive(Debug, Clone)]
struct RandomQuery {
    atoms: Vec<(bool, usize, usize)>, // (use r?, var index, var index)
    constraint: Option<(usize, u8, usize)>,
    head: Vec<usize>,
}

fn random_query() -> impl Strategy<Value = RandomQuery> {
    (
        proptest::collection::vec((any::<bool>(), 0..4usize, 0..4usize), 1..4),
        proptest::option::of((0..4usize, 0..6u8, 0..4usize)),
    )
        .prop_map(|(atoms, constraint)| {
            // Head = all variables appearing in atoms (keeps queries safe).
            let mut head = Vec::new();
            for (_, a, b) in &atoms {
                for v in [a, b] {
                    if !head.contains(v) {
                        head.push(*v);
                    }
                }
            }
            // Constraints restricted to bound variables.
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

/// Brute force: enumerate every assignment of the head variables over the
/// active domain and test all atoms/constraints.
fn brute_force(q: &RandomQuery, inst: &Instance) -> Vec<Vec<Val>> {
    let domain: Vec<i64> = (0..5).collect();
    let vars: Vec<usize> = q.head.clone();
    let mut out = Vec::new();
    let mut assignment: HashMap<usize, i64> = HashMap::new();
    enumerate(q, inst, &domain, &vars, 0, &mut assignment, &mut out);
    out.sort();
    out.dedup();
    out
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    q: &RandomQuery,
    inst: &Instance,
    domain: &[i64],
    vars: &[usize],
    idx: usize,
    assignment: &mut HashMap<usize, i64>,
    out: &mut Vec<Vec<Val>>,
) {
    if idx == vars.len() {
        let sat_atoms = q.atoms.iter().all(|(use_r, a, b)| {
            let rel = if *use_r { &inst.r } else { &inst.s };
            rel.contains(&(assignment[a], assignment[b]))
        });
        let sat_con = q.constraint.is_none_or(|(a, op, b)| {
            let (x, y) = (assignment[&a], assignment[&b]);
            match op {
                0 => x == y,
                1 => x != y,
                2 => x < y,
                3 => x <= y,
                4 => x > y,
                _ => x >= y,
            }
        });
        if sat_atoms && sat_con {
            out.push(q.head.iter().map(|v| Val::Int(assignment[v])).collect());
        }
        return;
    }
    for &val in domain {
        assignment.insert(vars[idx], val);
        enumerate(q, inst, domain, vars, idx + 1, assignment, out);
    }
    assignment.remove(&vars[idx]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The generic-join evaluator agrees with brute-force enumeration.
    #[test]
    fn evaluator_matches_brute_force(inst in instance(), q in random_query()) {
        let db = db_of(&inst);
        let cq = to_cq(&q);
        let mut fast: Vec<Vec<Val>> = evaluate(&cq, &db).unwrap().iter().map(<[Val]>::to_vec).collect();
        fast.sort();
        let slow = brute_force(&q, &inst);
        prop_assert_eq!(fast, slow);
    }

    /// Chasing a copy rule twice inserts nothing the second time.
    #[test]
    fn chase_is_idempotent(inst in instance()) {
        let mut db = Database::new(
            DatabaseSchema::parse("r(x: int, y: int). s(x: int, y: int).").unwrap(),
        );
        for &(x, y) in &inst.r {
            db.insert_values("r", vec![Val::Int(x), Val::Int(y)]).unwrap();
        }
        let body = vec![Atom::new("r", vec![var(0), var(1)])];
        let head = vec![Atom::new("s", vec![var(0), var(1)])];
        let mut nulls = NullFactory::new(1);
        let mut st = ChaseState::new();
        let cfg = ChaseConfig::default();
        let first =
            apply_rule_local(&mut db, &body, &[], &head, &mut nulls, &mut st, &cfg).unwrap();
        let again =
            apply_rule_local(&mut db, &body, &[], &head, &mut nulls, &mut st, &cfg).unwrap();
        prop_assert_eq!(first.inserted, {
            let mut d: Vec<_> = inst.r.clone();
            d.sort();
            d.dedup();
            d.len()
        });
        prop_assert!(again.is_empty());
    }

    /// Homomorphism laws: reflexivity, and monotonicity under insertion.
    #[test]
    fn hom_reflexive_and_monotone(inst in instance(), extra in (0..5i64, 0..5i64)) {
        let db = db_of(&inst);
        prop_assert!(equivalent_modulo_nulls(&db, &db));
        let mut bigger = db.clone();
        bigger
            .insert_values("r", vec![Val::Int(extra.0), Val::Int(extra.1)])
            .unwrap();
        prop_assert!(contained_modulo_nulls(&db, &bigger));
    }

    /// Existential chase invents at most one null per distinct frontier
    /// binding, and re-chasing invents none.
    #[test]
    fn existential_invention_is_bounded(inst in instance()) {
        let mut db = db_of(&inst);
        // r(X,Y) => s(X,Z): one invention per distinct X.
        let body = vec![Atom::new("r", vec![var(0), var(1)])];
        let head = vec![Atom::new("s", vec![var(0), Term::var("Z")])];
        let mut nulls = NullFactory::new(1);
        let mut st = ChaseState::new();
        let cfg = ChaseConfig::default();
        let distinct_x: std::collections::BTreeSet<i64> =
            inst.r.iter().map(|(x, _)| *x).collect();
        // s may already contain tuples satisfying some X.
        let satisfied_x: std::collections::BTreeSet<i64> =
            inst.s.iter().map(|(x, _)| *x).collect();
        let expected = distinct_x.difference(&satisfied_x).count();
        let out =
            apply_rule_local(&mut db, &body, &[], &head, &mut nulls, &mut st, &cfg).unwrap();
        prop_assert_eq!(out.nulls_minted, expected);
        let again =
            apply_rule_local(&mut db, &body, &[], &head, &mut nulls, &mut st, &cfg).unwrap();
        prop_assert!(again.is_empty());
    }
}
