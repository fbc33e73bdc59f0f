//! Property test for the compiled chase: [`CompiledHead`] against the
//! per-binding chase it replaced, kept below as a test-only reference.
//!
//! Random heads mix constants, universal variables (repeated or not) and
//! zero to two existential variables over one or two atoms, against
//! databases that may already hold the facts; some heads name an unknown
//! relation, have the wrong arity or carry a peer qualifier, some binding
//! rows put a string into an integer column, and some carry nulls deep
//! enough to hit the depth limit. Both chases must leave the same database
//! — the same facts in the same order in every relation — and return the
//! same outcome — the same `inserted` and `nulls_minted` counts — or the
//! same typed error, with the same nulls minted and the same depths
//! recorded.

use p2p_relational::chase::{ChaseConfig, ChaseOutcome, ChaseState, CompiledHead};
use p2p_relational::hom::{satisfiable, FactPattern, PatTerm};
use p2p_relational::query::ast::{Atom, Term};
use p2p_relational::{Database, DatabaseSchema, Error, NullFactory, Result, Val};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The chase of one binding as it was before heads were compiled: a
/// variable-to-value map per binding, a pattern per head atom, the generic
/// homomorphism search, then a value vector per atom. One
/// deliberate difference: it mints the existential nulls in first-occurrence
/// order, where the original iterated a `HashMap` (the ordering bug the
/// compiled head fixes).
fn reference_apply_head(
    db: &mut Database,
    head: &[Atom],
    binding: &HashMap<Arc<str>, Val>,
    nulls: &mut NullFactory,
    state: &mut ChaseState,
    config: &ChaseConfig,
) -> Result<ChaseOutcome> {
    let mut flex_of: HashMap<Arc<str>, usize> = HashMap::new();
    let mut patterns = Vec::with_capacity(head.len());
    for atom in head {
        if atom.qualifier.is_some() {
            return Err(Error::QualifiedAtom(atom.to_string()));
        }
        let schema = db.schema().relation_or_err(&atom.relation)?;
        if schema.arity() != atom.terms.len() {
            return Err(Error::ArityMismatch {
                relation: atom.relation.to_string(),
                expected: schema.arity(),
                got: atom.terms.len(),
            });
        }
        let terms = (atom.terms.iter())
            .map(|t| match t {
                Term::Const(c) => PatTerm::Fixed(*c),
                Term::Var(v) => match binding.get(v) {
                    Some(val) => PatTerm::Fixed(*val),
                    None => {
                        let next = flex_of.len();
                        PatTerm::Flex(*flex_of.entry(v.clone()).or_insert(next))
                    }
                },
            })
            .collect();
        patterns.push(FactPattern {
            relation: atom.relation.clone(),
            terms,
        });
    }
    if satisfiable(&patterns, db) {
        return Ok(ChaseOutcome::default());
    }
    let parent_depth = (binding.values()).map(|v| state.depth_of(v)).max();
    let new_depth = parent_depth.unwrap_or(0) + 1;
    if !flex_of.is_empty() && new_depth > config.max_null_depth {
        return Err(Error::ChaseDepthExceeded {
            limit: config.max_null_depth,
        });
    }
    let mut in_order: Vec<(&Arc<str>, &usize)> = flex_of.iter().collect();
    in_order.sort_by_key(|(_, id)| **id);
    let mut fresh: HashMap<Arc<str>, Val> = HashMap::new();
    for (var, _) in in_order {
        let n = nulls.fresh();
        if let Val::Null(id) = n {
            state.record(id, new_depth);
        }
        fresh.insert(var.clone(), n);
    }
    let mut outcome = ChaseOutcome {
        inserted: 0,
        nulls_minted: fresh.len(),
    };
    for atom in head {
        let values: Vec<Val> = (atom.terms.iter())
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => binding.get(v).copied().unwrap_or_else(|| fresh[v]),
            })
            .collect();
        outcome.inserted += usize::from(db.insert_values(&atom.relation, values)?);
    }
    Ok(outcome)
}

/// The reference over a whole binding table, as rule application ran it:
/// row by row, stopping at the first error.
fn reference_apply_rows(
    db: &mut Database,
    head: &[Atom],
    vars: &[Arc<str>],
    rows: &[Vec<Val>],
    nulls: &mut NullFactory,
    state: &mut ChaseState,
    config: &ChaseConfig,
) -> Result<ChaseOutcome> {
    let mut total = ChaseOutcome::default();
    for row in rows {
        let binding = vars.iter().cloned().zip(row.iter().copied()).collect();
        let out = reference_apply_head(db, head, &binding, nulls, state, config)?;
        total.nulls_minted += out.nulls_minted;
        total.inserted += out.inserted;
    }
    Ok(total)
}

const SCHEMA: &str = "a(x: int, y: int). b(x: int). c(x: int, y: int, z: int).";

/// The binding layout: three universal variables.
fn vars() -> Vec<Arc<str>> {
    ["U0", "U1", "U2"].map(Arc::from).to_vec()
}

/// Two nulls that may occur in binding rows and stored facts, minted by
/// another node; their recorded depths come with the case.
fn pool() -> [Val; 2] {
    let mut nf = NullFactory::new(3);
    [nf.fresh(), nf.fresh()]
}

/// A value: mostly a small integer, sometimes a pooled null, and (in binding
/// rows only) sometimes a string that no column admits.
fn value(code: u8, with_str: bool) -> Val {
    match code {
        0..=7 => Val::Int(i64::from(code % 3)),
        8 => pool()[0],
        9 => pool()[1],
        _ if with_str => Val::str("not an int"),
        _ => Val::Int(0),
    }
}

/// One head atom: relation choice, an arity-mismatch draw, term codes.
type RawAtom = (u8, u8, Vec<(u8, u8)>);

#[derive(Debug, Clone)]
struct Case {
    head: Vec<RawAtom>,
    qualified: bool,
    facts: Vec<(u8, Vec<u8>)>,
    rows: Vec<Vec<u8>>,
    depths: (u32, u32),
    max_null_depth: u32,
}

fn case() -> impl Strategy<Value = Case> {
    let raw_atom = (
        0..10u8,
        0..12u8,
        proptest::collection::vec((0..10u8, 0..3u8), 4..5),
    );
    (
        proptest::collection::vec(raw_atom, 1..3),
        0..15u8,
        proptest::collection::vec((0..3u8, proptest::collection::vec(0..10u8, 3..4)), 0..8),
        proptest::collection::vec(proptest::collection::vec(0..11u8, 3..4), 0..6),
        (0..3u32, 0..3u32, 0..4u32),
    )
        .prop_map(
            |(head, qualified, facts, rows, (d0, d1, max_null_depth))| Case {
                head,
                qualified: qualified == 0,
                facts,
                rows,
                depths: (d0, d1),
                max_null_depth,
            },
        )
}

fn head_of(case: &Case) -> Vec<Atom> {
    let mut head: Vec<Atom> = (case.head.iter())
        .map(|(rel, wrong, codes)| {
            let (name, arity) = match rel {
                0..=2 => ("a", 2),
                3..=5 => ("b", 1),
                6..=8 => ("c", 3),
                _ => ("zzz", 1),
            };
            let arity = if *wrong == 0 { arity + 1 } else { arity };
            let terms = (codes.iter().take(arity))
                .map(|&(kind, v)| match kind {
                    0..=2 => Term::Const(Val::Int(i64::from(v))),
                    3..=6 => Term::var(format!("U{v}")),
                    _ => Term::var(format!("E{}", v % 2)),
                })
                .collect();
            Atom::new(name, terms)
        })
        .collect();
    if case.qualified {
        head[0].qualifier = Some(Arc::from("A"));
    }
    head
}

fn db_of(case: &Case) -> Database {
    let mut db = Database::new(DatabaseSchema::parse(SCHEMA).unwrap());
    for (rel, codes) in &case.facts {
        let (name, arity) = [("a", 2), ("b", 1), ("c", 3)][usize::from(*rel)];
        let values = codes.iter().take(arity).map(|&c| value(c, false)).collect();
        db.insert_values(name, values).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compiled_head_matches_the_reference_chase(case in case()) {
        let head = head_of(&case);
        let vars = vars();
        let rows: Vec<Vec<Val>> = (case.rows.iter())
            .map(|codes| codes.iter().map(|&c| value(c, true)).collect())
            .collect();
        let config = ChaseConfig { max_null_depth: case.max_null_depth };
        let mut state = ChaseState::new();
        for (null, depth) in pool().iter().zip([case.depths.0, case.depths.1]) {
            if let Val::Null(id) = null {
                state.record(*id, depth);
            }
        }
        let start = db_of(&case);

        let (mut db_ref, mut nulls_ref, mut state_ref) =
            (start.clone(), NullFactory::new(9), state.clone());
        let expected = reference_apply_rows(
            &mut db_ref, &head, &vars, &rows, &mut nulls_ref, &mut state_ref, &config,
        );

        let (mut db, mut nulls, mut state) = (start, NullFactory::new(9), state);
        // Rule application compiles the head only for a non-empty table.
        let got = if rows.is_empty() {
            Ok(ChaseOutcome::default())
        } else {
            CompiledHead::compile(&head, &vars, db.schema()).and_then(|compiled| {
                let rows = rows.iter().map(Vec::as_slice);
                compiled.apply_rows(&mut db, rows, &mut nulls, &mut state, &config)
            })
        };

        prop_assert_eq!(got, expected);
        prop_assert_eq!(db.all_facts(), db_ref.all_facts());
        prop_assert_eq!(nulls.minted(), nulls_ref.minted());
        prop_assert_eq!(state.export(), state_ref.export());
    }
}
