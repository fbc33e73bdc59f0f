//! Conjunctive-query evaluation over a local database: the [`Bindings`]
//! table, body validation, greedy atom ordering, and the `&Database` entry
//! points ([`evaluate`], [`evaluate_bindings`]); the semi-naive delta of a
//! body is [`crate::query::plan::evaluate_bindings_since_planned`] over a
//! body compiled once.
//!
//! Semantics: **naive tables**. Labeled nulls are ordinary values that join
//! only with themselves; built-in comparisons involving nulls are unknown and
//! filtered out (see [`CmpOp::certainly_holds`]). Consequently
//! [`evaluate_certain`] — which additionally drops answer rows containing
//! nulls — returns certain answers for positive queries, the semantics under
//! which the paper's soundness/completeness statements are phrased.
//!
//! There is one engine: every entry point here compiles the body into a
//! [`crate::query::plan::QueryPlan`] and hands it to
//! [`crate::query::plan::execute_plan`]. Callers that evaluate the same body
//! repeatedly (the peer) keep the compiled plans and call the executor
//! directly. Everything works on flat row buffers: bindings are one
//! contiguous `Vec<Val>` with stride = variable count, join keys are copied
//! `Val` words hashed into `u64`-keyed candidate buckets (collisions resolved
//! by comparing the key columns), and no per-row allocation happens anywhere.

use crate::database::Database;
use crate::error::{Error, Result};
use crate::query::ast::{Atom, ConjunctiveQuery, Constraint, Term};
use crate::query::plan::{compile_body, execute_plan, EvalMetrics};
use crate::relation::RowSet;
use crate::value::Val;
use std::sync::Arc;

/// The result of evaluating a body: a table of variable bindings stored as
/// one flat buffer (`row i` = `data[i*width .. (i+1)*width]` with `width =
/// vars.len()`, column `j` = the value of `vars[j]`) — the executor's, or
/// the flat store of a [`RowSet`] whose membership a delta union built.
/// Rows are deduplicated and listed in a deterministic order.
#[derive(Debug, Clone)]
pub struct Bindings {
    /// Variable names, in slot order: the plan's list, shared.
    pub vars: Arc<[Arc<str>]>,
    rows: Rows,
}

/// How a [`Bindings`] table holds its rows.
#[derive(Debug, Clone)]
enum Rows {
    /// The executor's buffer: `len` distinct rows at the front of `data`,
    /// no membership built. `len` counts the rows of a zero-variable body
    /// too, which the buffer alone cannot.
    Flat { len: usize, data: Vec<Val> },
    /// A set whose membership is built already (a union of delta plans),
    /// handed on as it is.
    Set(RowSet),
}

/// Equal variables and equal rows in the same order, however each table
/// holds them.
impl PartialEq for Bindings {
    fn eq(&self, other: &Self) -> bool {
        self.vars == other.vars && self.len() == other.len() && self.rows().eq(other.rows())
    }
}

impl Eq for Bindings {}

impl Bindings {
    /// A table over `vars` holding `len` rows, row-major at the front of
    /// `data` (caller guarantees dedup).
    pub(crate) fn from_flat(vars: Arc<[Arc<str>]>, len: usize, mut data: Vec<Val>) -> Self {
        data.truncate(len * vars.len());
        Bindings {
            vars,
            rows: Rows::Flat { len, data },
        }
    }

    /// A table over `vars` holding the rows of `set` (as wide as `vars`).
    pub(crate) fn from_set(vars: Arc<[Arc<str>]>, set: RowSet) -> Self {
        debug_assert_eq!(set.arity(), vars.len());
        Bindings {
            vars,
            rows: Rows::Set(set),
        }
    }

    /// Slot index of a variable.
    pub(crate) fn slot(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| &**v == var)
    }

    /// Number of satisfying assignments.
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::Flat { len, .. } => *len,
            Rows::Set(set) => set.len(),
        }
    }

    /// True iff the body has no satisfying assignment.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates rows as slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Val]> {
        let width = self.vars.len();
        let data = match &self.rows {
            Rows::Flat { data, .. } => &data[..],
            Rows::Set(set) => set.flat(),
        };
        (0..self.len()).map(move |i| &data[i * width..][..width])
    }

    /// The rows as a set: a set is handed on as it is, and a flat buffer
    /// moved in as it stands — the executor's rows are distinct already,
    /// so no row is compared, and membership is built only if the set is
    /// large enough to keep one.
    pub fn into_rows(self) -> RowSet {
        match self.rows {
            Rows::Flat { len, data } => RowSet::from_distinct(self.vars.len(), len, data),
            Rows::Set(set) => set,
        }
    }

    /// Projects the bindings onto head terms, deduplicating while preserving
    /// first-occurrence order.
    pub fn project(&self, head: &[Term]) -> Result<RowSet> {
        let mut slots = Vec::with_capacity(head.len());
        for t in head {
            match t {
                Term::Var(v) => {
                    let s = self
                        .slot(v)
                        .ok_or_else(|| Error::UnboundVariable(v.to_string()))?;
                    slots.push(Ok(s));
                }
                Term::Const(c) => slots.push(Err(*c)),
            }
        }
        let mut set = RowSet::new(head.len());
        let mut buf: Vec<Val> = Vec::with_capacity(head.len());
        for row in self.rows() {
            buf.clear();
            buf.extend(slots.iter().map(|s| match s {
                Ok(idx) => row[*idx],
                Err(c) => *c,
            }));
            set.insert(&buf);
        }
        Ok(set)
    }
}

/// Evaluates a conjunctive query, returning its deduplicated head rows
/// in a deterministic order. A head without terms (a boolean query) answers
/// one empty row when the body holds and none when it does not.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<RowSet> {
    evaluate_bindings(&q.atoms, &q.constraints, db)?.project(&q.head)
}

/// Evaluates a conjunctive query and keeps only **certain** answers: rows
/// free of labeled nulls.
pub fn evaluate_certain(q: &ConjunctiveQuery, db: &Database) -> Result<RowSet> {
    let all = evaluate(q, db)?;
    let mut certain = RowSet::new(all.arity());
    certain.extend(all.iter().filter(|row| !row.iter().any(Val::is_null)));
    Ok(certain)
}

/// Evaluates a body (atoms + constraints) over a local database.
///
/// Errors if an atom is peer-qualified, references an unknown relation, has
/// the wrong arity, or if a constraint mentions a variable bound by no atom.
pub fn evaluate_bindings(
    atoms: &[Atom],
    constraints: &[Constraint],
    db: &Database,
) -> Result<Bindings> {
    let plan = compile_body(atoms, constraints, db, None)?;
    execute_plan(&plan, db, 0, &mut EvalMetrics::default())
}

/// Validates a body against a database and returns its variable slot table:
/// the variables in first-occurrence order, slot `i` holding `vars[i]` — the
/// first step of plan compilation ([`crate::query::plan::compile_body`]).
///
/// Errors if an atom is peer-qualified, references an unknown relation, has
/// the wrong arity, or if a constraint mentions a variable bound by no atom.
pub(crate) fn validate_body(
    atoms: &[Atom],
    constraints: &[Constraint],
    db: &Database,
) -> Result<Vec<Arc<str>>> {
    for a in atoms {
        if a.qualifier.is_some() {
            return Err(Error::QualifiedAtom(a.to_string()));
        }
        let schema = db.schema().relation_or_err(&a.relation)?;
        if schema.arity() != a.terms.len() {
            return Err(Error::ArityMismatch {
                relation: a.relation.to_string(),
                expected: schema.arity(),
                got: a.terms.len(),
            });
        }
    }
    let mut vars: Vec<Arc<str>> = Vec::new();
    for a in atoms {
        for t in &a.terms {
            if let Term::Var(v) = t {
                if !vars.contains(v) {
                    vars.push(v.clone());
                }
            }
        }
    }
    for c in constraints {
        for t in [&c.lhs, &c.rhs] {
            if let Term::Var(v) = t {
                if !vars.contains(v) {
                    return Err(Error::UnboundVariable(v.to_string()));
                }
            }
        }
    }
    Ok(vars)
}

/// The slot of variable `v` in a slot table from [`validate_body`] (bodies
/// have a handful of variables, so a scan beats a map).
pub(crate) fn slot_of(vars: &[Arc<str>], v: &str) -> usize {
    vars.iter()
        .position(|x| **x == *v)
        .expect("validated: every body variable has a slot")
}

/// Greedy atom ordering: repeatedly pick the atom with the most positions
/// bound by already chosen atoms (constants count as bound); tie-break on
/// smaller relation, then stable index. A `restricted` atom (semi-naive
/// delta position) is forced first: it ranges over only the delta suffix,
/// so starting from it keeps the join cost proportional to the delta
/// instead of the full extension.
pub(crate) fn greedy_order(
    atoms: &[Atom],
    db: &Database,
    vars: &[Arc<str>],
    restricted: Option<usize>,
) -> Vec<usize> {
    // `order[..placed]` is decided; the rest are the candidates.
    let mut order: Vec<usize> = (0..atoms.len()).collect();
    if atoms.len() < 2 {
        return order;
    }
    let restricted = restricted.filter(|&r| r < atoms.len());
    let mut statically_bound: Vec<bool> = vec![false; vars.len()];
    for placed in 0..atoms.len() {
        let best = match restricted {
            // Nothing is placed yet, so atom `r` still sits at index `r`.
            Some(r) if placed == 0 => r,
            _ => {
                // Maximize bound positions; minimize relation size; then
                // stable.
                let score = |ai: usize| {
                    let atom = &atoms[ai];
                    let bound_positions = (atom.terms.iter())
                        .filter(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => statically_bound[slot_of(vars, v)],
                        })
                        .count();
                    let size = db.relation(&atom.relation).map_or(0, |r| r.len());
                    (std::cmp::Reverse(bound_positions), size, ai)
                };
                (placed..atoms.len())
                    .min_by_key(|&k| score(order[k]))
                    .expect("a candidate is left")
            }
        };
        order.swap(placed, best);
        for t in &atoms[order[placed]].terms {
            if let Term::Var(v) = t {
                statically_bound[slot_of(vars, v)] = true;
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parser::parse_query;
    use crate::query::plan::Marks;
    use crate::query::plan::{evaluate_bindings_since_planned, CompiledBody};
    use crate::schema::DatabaseSchema;

    fn db_with_b(pairs: &[(i64, i64)]) -> Database {
        let mut db = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        for &(x, y) in pairs {
            db.insert_values("b", vec![Val::Int(x), Val::Int(y)])
                .unwrap();
        }
        db
    }

    fn rows(set: &RowSet) -> Vec<Vec<Val>> {
        set.iter().map(<[Val]>::to_vec).collect()
    }

    /// `q`'s body's delta since `watermarks`, through a body compiled once
    /// and kept across inserts, as a peer keeps it.
    fn delta_since(
        body: &CompiledBody,
        q: &ConjunctiveQuery,
        db: &Database,
        watermarks: &Marks,
    ) -> Bindings {
        let m = &mut EvalMetrics::default();
        evaluate_bindings_since_planned(body, &q.atoms, &q.constraints, db, watermarks, m).unwrap()
    }

    fn row_set(b: &Bindings) -> std::collections::HashSet<Vec<Val>> {
        b.rows().map(<[Val]>::to_vec).collect()
    }

    #[test]
    fn transitive_join() {
        let db = db_with_b(&[(1, 2), (2, 3), (3, 4)]);
        let q = parse_query("q(X, Z) :- b(X, Y), b(Y, Z)").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(
            rows(&ans),
            vec![
                vec![Val::Int(1), Val::Int(3)],
                vec![Val::Int(2), Val::Int(4)],
            ]
        );
    }

    #[test]
    fn self_join_with_neq_matches_paper_rule_r4_shape() {
        let db = db_with_b(&[(1, 2), (1, 3), (2, 5)]);
        let q = parse_query("q(X, Y) :- b(X, Y), b(X, Z), Y != Z").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(
            rows(&ans),
            vec![
                vec![Val::Int(1), Val::Int(2)],
                vec![Val::Int(1), Val::Int(3)],
            ]
        );
    }

    #[test]
    fn constants_in_atoms_filter() {
        let db = db_with_b(&[(1, 2), (3, 2), (3, 4)]);
        let q = parse_query("q(X) :- b(X, 2)").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(rows(&ans), vec![vec![Val::Int(1)], vec![Val::Int(3)]]);
    }

    #[test]
    fn repeated_variable_within_atom() {
        let db = db_with_b(&[(1, 1), (1, 2), (7, 7)]);
        let q = parse_query("q(X) :- b(X, X)").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(rows(&ans), vec![vec![Val::Int(1)], vec![Val::Int(7)]]);
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let db = db_with_b(&[(1, 2), (3, 4)]);
        let q = parse_query("q(X, U) :- b(X, Y), b(U, V)").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(ans.len(), 4);
    }

    #[test]
    fn duplicate_answers_are_deduplicated() {
        let db = db_with_b(&[(1, 2), (1, 3)]);
        let q = parse_query("q(X) :- b(X, Y)").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(rows(&ans), vec![vec![Val::Int(1)]]);
    }

    #[test]
    fn empty_relation_gives_empty_answer() {
        let db = db_with_b(&[]);
        let q = parse_query("q(X) :- b(X, Y)").unwrap();
        assert!(evaluate(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn constraints_on_constants() {
        let db = db_with_b(&[(1, 2)]);
        let q = parse_query("q(X) :- b(X, Y), Y < 10").unwrap();
        assert_eq!(evaluate(&q, &db).unwrap().len(), 1);
        let q = parse_query("q(X) :- b(X, Y), Y > 10").unwrap();
        assert!(evaluate(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn qualified_atom_rejected_by_local_eval() {
        let db = db_with_b(&[]);
        let atom = crate::query::parser::parse_atom("B:b(X, Y)").unwrap();
        let err = evaluate_bindings(&[atom], &[], &db).unwrap_err();
        assert!(matches!(err, Error::QualifiedAtom(_)));
    }

    #[test]
    fn unknown_relation_rejected() {
        let db = db_with_b(&[]);
        let q = parse_query("q(X) :- zzz(X)").unwrap();
        assert!(matches!(evaluate(&q, &db), Err(Error::UnknownRelation(_))));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let db = db_with_b(&[]);
        let q = parse_query("q(X) :- b(X)").unwrap();
        assert!(matches!(
            evaluate(&q, &db),
            Err(Error::ArityMismatch { .. })
        ));
    }

    #[test]
    fn nulls_join_only_with_themselves() {
        use crate::value::NullFactory;
        let mut db = db_with_b(&[]);
        let mut nf = NullFactory::new(1);
        let n1 = nf.fresh();
        let n2 = nf.fresh();
        db.insert_values("b", vec![Val::Int(1), n1]).unwrap();
        db.insert_values("b", vec![n1, Val::Int(9)]).unwrap();
        db.insert_values("b", vec![n2, Val::Int(8)]).unwrap();
        let q = parse_query("q(X, Z) :- b(X, Y), b(Y, Z)").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        // 1 -> n1 -> 9 joins (same null); n2 chain does not.
        assert_eq!(rows(&ans), vec![vec![Val::Int(1), Val::Int(9)]]);
    }

    #[test]
    fn certain_answers_drop_null_tuples() {
        use crate::value::NullFactory;
        let mut db = db_with_b(&[(1, 2)]);
        let mut nf = NullFactory::new(1);
        db.insert_values("b", vec![Val::Int(3), nf.fresh()])
            .unwrap();
        let q = parse_query("q(X, Y) :- b(X, Y)").unwrap();
        assert_eq!(evaluate(&q, &db).unwrap().len(), 2);
        let certain = evaluate_certain(&q, &db).unwrap();
        assert_eq!(rows(&certain), vec![vec![Val::Int(1), Val::Int(2)]]);
    }

    #[test]
    fn constraints_involving_nulls_are_unknown() {
        use crate::value::NullFactory;
        let mut db = db_with_b(&[]);
        let mut nf = NullFactory::new(1);
        db.insert_values("b", vec![Val::Int(1), nf.fresh()])
            .unwrap();
        // Y != 5 is unknown when Y is a null — excluded.
        let q = parse_query("q(X) :- b(X, Y), Y != 5").unwrap();
        assert!(evaluate(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn string_and_int_columns_mix() {
        let mut db = Database::new(
            DatabaseSchema::parse("p(id: int, name: str). w(name: str, year: int).").unwrap(),
        );
        db.insert_values("p", vec![Val::Int(1), Val::str("ana")])
            .unwrap();
        db.insert_values("w", vec![Val::str("ana"), Val::Int(2001)])
            .unwrap();
        db.insert_values("w", vec![Val::str("bob"), Val::Int(2002)])
            .unwrap();
        let q = parse_query("q(I, Y) :- p(I, N), w(N, Y)").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(rows(&ans), vec![vec![Val::Int(1), Val::Int(2001)]]);
    }

    #[test]
    fn string_order_constraints_resolve_through_the_catalog() {
        let mut db = Database::new(DatabaseSchema::parse("w(name: str).").unwrap());
        db.insert_values("w", vec![Val::str("zeta")]).unwrap();
        db.insert_values("w", vec![Val::str("alpha")]).unwrap();
        let q = parse_query("q(N) :- w(N), N < 'm'").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(rows(&ans), vec![vec![Val::str("alpha")]]);
    }

    #[test]
    fn delta_bindings_cover_exactly_the_new_derivations() {
        let mut db = db_with_b(&[(1, 2), (2, 3)]);
        let q = parse_query("q(X, Z) :- b(X, Y), b(Y, Z)").unwrap();
        let body = CompiledBody::compile(&q.atoms, &q.constraints, &db).unwrap();
        let before = evaluate_bindings(&q.atoms, &q.constraints, &db).unwrap();
        let w: Marks = db.watermarks();

        // Nothing new: empty delta over the same columns.
        let delta = delta_since(&body, &q, &db, &w);
        assert_eq!(delta.vars, before.vars);
        assert!(delta.is_empty());

        // Insert b(3,4): new chains 2→3→4 must appear; both delta positions
        // (new-as-first-atom and new-as-second-atom) are exercised.
        db.insert_values("b", vec![Val::Int(3), Val::Int(4)])
            .unwrap();
        db.insert_values("b", vec![Val::Int(0), Val::Int(1)])
            .unwrap();
        let delta = delta_since(&body, &q, &db, &w);
        let after = evaluate_bindings(&q.atoms, &q.constraints, &db).unwrap();
        // The delta is a subset of the full evaluation …
        let full = row_set(&after);
        let delta_rows = row_set(&delta);
        assert!(delta_rows.iter().all(|r| full.contains(r)));
        // … and (old ∪ delta) equals the full evaluation.
        let mut union = row_set(&before);
        union.extend(delta_rows.iter().cloned());
        assert_eq!(union, full);
        // The genuinely new chains are in the delta.
        assert!(delta_rows.contains(&vec![Val::Int(2), Val::Int(3), Val::Int(4)]));
        assert!(delta_rows.contains(&vec![Val::Int(0), Val::Int(1), Val::Int(2)]));
    }

    #[test]
    fn delta_bindings_respect_constraints() {
        let mut db = db_with_b(&[(1, 2)]);
        let q = parse_query("q(X, Y) :- b(X, Y), X < Y").unwrap();
        let body = CompiledBody::compile(&q.atoms, &q.constraints, &db).unwrap();
        let w: Marks = db.watermarks();
        db.insert_values("b", vec![Val::Int(5), Val::Int(3)])
            .unwrap();
        db.insert_values("b", vec![Val::Int(3), Val::Int(5)])
            .unwrap();
        let delta = delta_since(&body, &q, &db, &w);
        let rows: Vec<Vec<Val>> = delta.rows().map(<[Val]>::to_vec).collect();
        assert_eq!(rows, vec![vec![Val::Int(3), Val::Int(5)]]);
    }

    #[test]
    fn delta_bindings_missing_watermark_means_whole_relation_is_new() {
        let db = db_with_b(&[(1, 2), (2, 3)]);
        let q = parse_query("q(X, Z) :- b(X, Y), b(Y, Z)").unwrap();
        let body = CompiledBody::compile(&q.atoms, &q.constraints, &db).unwrap();
        let delta = delta_since(&body, &q, &db, &Marks::new());
        let full = evaluate_bindings(&q.atoms, &q.constraints, &db).unwrap();
        assert_eq!(row_set(&delta), row_set(&full));
    }

    /// A head without terms answers one empty row when its body holds and
    /// none when it does not.
    #[test]
    fn a_boolean_query_answers_one_empty_row_or_none() {
        let q = parse_query("q() :- b(X, Y)").unwrap();
        for (pairs, answers) in [(&[(1, 2), (3, 4)][..], 1), (&[][..], 0)] {
            let ans = evaluate_certain(&q, &db_with_b(pairs)).unwrap();
            assert_eq!((ans.arity(), ans.len()), (0, answers), "{pairs:?}");
            assert!(ans.iter().all(<[Val]>::is_empty));
        }
    }

    #[test]
    fn head_constants_are_emitted() {
        let db = db_with_b(&[(1, 2)]);
        let q = parse_query("q(X, 'tag') :- b(X, Y)").unwrap();
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(rows(&ans), vec![vec![Val::Int(1), Val::str("tag")]]);
    }

    #[test]
    fn all_constant_body_yields_one_empty_binding() {
        let db = db_with_b(&[(1, 2)]);
        let q = parse_query("q(1) :- b(1, 2)").unwrap();
        let b = evaluate_bindings(&q.atoms, &q.constraints, &db).unwrap();
        assert_eq!(b.len(), 1);
        let ans = evaluate(&q, &db).unwrap();
        assert_eq!(rows(&ans), vec![vec![Val::Int(1)]]);
        // Unsatisfied constant body: zero bindings.
        let q = parse_query("q(1) :- b(8, 9)").unwrap();
        assert!(evaluate(&q, &db).unwrap().is_empty());
    }
}
