//! The reference evaluator the property tests compare the engine against:
//! the pre-interning data plane, preserved verbatim in spirit. Rows are
//! `Vec<Value>` with `Arc<str>` string constants, relations keep a duplicate
//! `HashSet` membership copy, and the evaluator clones whole `Vec<Value>`
//! rows through every join stage. It shares no code with
//! `p2p_relational::query` beyond the AST, which is what makes agreement
//! with it evidence (`proptest_interning.rs`, `proptest_plan.rs`).

// Each test binary uses its own subset of this module.
#![allow(dead_code)]

use p2p_relational::query::ast::{Atom, CmpOp, ConjunctiveQuery, Constraint, Term};
use p2p_relational::{Database, Error, Result, RowSet, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// A relation in the legacy layout: insertion-ordered rows **plus** the old
/// duplicate membership set (kept so the baseline's memory behaviour is the
/// honest pre-refactor one).
#[derive(Debug, Clone, Default)]
pub struct LegacyRelation {
    /// Rows in insertion order.
    pub rows: Vec<Vec<Value>>,
    /// Duplicate membership copy (the old `present` set).
    pub present: HashSet<Vec<Value>>,
}

impl LegacyRelation {
    /// Inserts a row; returns `true` iff new.
    pub fn insert(&mut self, row: Vec<Value>) -> bool {
        if !self.present.insert(row.clone()) {
            return false;
        }
        self.rows.push(row);
        true
    }
}

/// A database in the legacy layout.
#[derive(Debug, Clone, Default)]
pub struct LegacyDatabase {
    /// Relations by name.
    pub relations: BTreeMap<Arc<str>, LegacyRelation>,
}

impl LegacyDatabase {
    /// Converts a columnar database by resolving every interned symbol back
    /// to its string (done once, outside any measured loop).
    pub fn from_database(db: &Database) -> Self {
        let mut out = LegacyDatabase::default();
        for (name, rel) in db.relations() {
            let lrel = out.relations.entry(name.clone()).or_default();
            for row in rel.iter() {
                lrel.insert(row.iter().map(|v| v.to_value()).collect());
            }
        }
        out
    }

    fn relation(&self, name: &str) -> Result<&LegacyRelation> {
        self.relations
            .get(name)
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }
}

/// Legacy term: constants carried as boundary [`Value`]s.
#[derive(Debug, Clone)]
enum LTerm {
    Var(Arc<str>),
    Const(Value),
}

fn lower_term(t: &Term) -> LTerm {
    match t {
        Term::Var(v) => LTerm::Var(v.clone()),
        Term::Const(c) => LTerm::Const(c.to_value()),
    }
}

fn cmp_values(op: CmpOp, lhs: &Value, rhs: &Value) -> bool {
    use Value::Null;
    match (lhs, rhs) {
        (Null(a), Null(b)) => match op {
            CmpOp::Eq | CmpOp::Le | CmpOp::Ge => a == b,
            _ => false,
        },
        (Null(_), _) | (_, Null(_)) => false,
        _ => match op {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Neq => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        },
    }
}

/// Evaluates a conjunctive query on the legacy path, returning deduplicated
/// head rows in first-derivation order. This is the old evaluator: hash
/// joins keyed on `Vec<Value>` with a full row clone per extension.
pub fn evaluate_legacy(q: &ConjunctiveQuery, db: &LegacyDatabase) -> Result<Vec<Vec<Value>>> {
    let bindings = legacy_bindings(&q.atoms, &q.constraints, db)?;
    // Project.
    let mut slots: Vec<std::result::Result<usize, Value>> = Vec::with_capacity(q.head.len());
    for t in &q.head {
        match t {
            Term::Var(v) => {
                let s = bindings
                    .vars
                    .iter()
                    .position(|x| x == v)
                    .ok_or_else(|| Error::UnboundVariable(v.to_string()))?;
                slots.push(Ok(s));
            }
            Term::Const(c) => slots.push(Err(c.to_value())),
        }
    }
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for row in &bindings.rows {
        let tuple: Vec<Value> = slots
            .iter()
            .map(|s| match s {
                Ok(idx) => row[*idx].clone(),
                Err(c) => c.clone(),
            })
            .collect();
        if seen.insert(tuple.clone()) {
            out.push(tuple);
        }
    }
    Ok(out)
}

struct LegacyBindings {
    vars: Vec<Arc<str>>,
    rows: Vec<Vec<Value>>,
}

fn legacy_bindings(
    atoms: &[Atom],
    constraints: &[Constraint],
    db: &LegacyDatabase,
) -> Result<LegacyBindings> {
    for a in atoms {
        if a.qualifier.is_some() {
            return Err(Error::QualifiedAtom(a.to_string()));
        }
    }

    // Variable slots.
    let mut vars: Vec<Arc<str>> = Vec::new();
    let mut slot_of: HashMap<Arc<str>, usize> = HashMap::new();
    for a in atoms {
        for t in &a.terms {
            if let Term::Var(v) = t {
                if !slot_of.contains_key(v) {
                    slot_of.insert(v.clone(), vars.len());
                    vars.push(v.clone());
                }
            }
        }
    }
    for c in constraints {
        for v in c.variables() {
            if !slot_of.contains_key(&v) {
                return Err(Error::UnboundVariable(v.to_string()));
            }
        }
    }

    // Greedy atom order (identical criterion to the new evaluator, so both
    // paths explore the same plans).
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    let mut order: Vec<usize> = Vec::new();
    let mut statically_bound: HashSet<usize> = HashSet::new();
    while !remaining.is_empty() {
        let mut best = 0usize;
        let mut best_score = (usize::MIN, usize::MAX, usize::MAX);
        for (k, &ai) in remaining.iter().enumerate() {
            let atom = &atoms[ai];
            let bound_positions = atom
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => statically_bound.contains(&slot_of[v]),
                })
                .count();
            let size = db
                .relation(&atom.relation)
                .map(|r| r.rows.len())
                .unwrap_or(0);
            let score = (bound_positions, size, ai);
            let better = score.0 > best_score.0
                || (score.0 == best_score.0
                    && (score.1 < best_score.1
                        || (score.1 == best_score.1 && score.2 < best_score.2)));
            if k == 0 || better {
                best = k;
                best_score = score;
            }
        }
        let ai = remaining.swap_remove(best);
        for t in &atoms[ai].terms {
            if let Term::Var(v) = t {
                statically_bound.insert(slot_of[v]);
            }
        }
        order.push(ai);
    }

    // Join with per-row Vec<Value> clones — the legacy hot path.
    let nvars = vars.len();
    let mut rows: Vec<Vec<Option<Value>>> = vec![vec![None; nvars]];
    let mut bound: HashSet<usize> = HashSet::new();
    let mut applied: Vec<bool> = vec![false; constraints.len()];
    legacy_constraints(constraints, &mut applied, &bound, &slot_of, &mut rows);

    for &ai in &order {
        let atom = &atoms[ai];
        let lterms: Vec<LTerm> = atom.terms.iter().map(lower_term).collect();
        let relation = db.relation(&atom.relation)?;
        let mut key_positions: Vec<usize> = Vec::new();
        for (pos, t) in lterms.iter().enumerate() {
            let det = match t {
                LTerm::Const(_) => true,
                LTerm::Var(v) => bound.contains(&slot_of[v]),
            };
            if det {
                key_positions.push(pos);
            }
        }
        let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (ri, row) in relation.rows.iter().enumerate() {
            if row.len() != atom.terms.len() {
                return Err(Error::ArityMismatch {
                    relation: atom.relation.to_string(),
                    expected: row.len(),
                    got: atom.terms.len(),
                });
            }
            let key: Vec<Value> = key_positions.iter().map(|&p| row[p].clone()).collect();
            index.entry(key).or_default().push(ri);
        }
        let mut next: Vec<Vec<Option<Value>>> = Vec::new();
        for binding in &rows {
            let key: Vec<Value> = key_positions
                .iter()
                .map(|&p| match &lterms[p] {
                    LTerm::Const(c) => c.clone(),
                    LTerm::Var(v) => binding[slot_of[v]].clone().expect("key var bound"),
                })
                .collect();
            let Some(matches) = index.get(&key) else {
                continue;
            };
            'rows: for &ri in matches {
                let tuple = &relation.rows[ri];
                let mut extended = binding.clone();
                for (pos, t) in lterms.iter().enumerate() {
                    if let LTerm::Var(v) = t {
                        let slot = slot_of[v];
                        match &extended[slot] {
                            Some(existing) => {
                                if *existing != tuple[pos] {
                                    continue 'rows;
                                }
                            }
                            None => extended[slot] = Some(tuple[pos].clone()),
                        }
                    }
                }
                next.push(extended);
            }
        }
        rows = next;
        for t in &atom.terms {
            if let Term::Var(v) = t {
                bound.insert(slot_of[v]);
            }
        }
        legacy_constraints(constraints, &mut applied, &bound, &slot_of, &mut rows);
        if rows.is_empty() {
            break;
        }
    }
    legacy_constraints(constraints, &mut applied, &bound, &slot_of, &mut rows);

    let mut seen = HashSet::new();
    let mut out_rows = Vec::with_capacity(rows.len());
    for r in rows {
        let full: Vec<Value> = r
            .into_iter()
            .map(|v| v.expect("all variables bound after full join"))
            .collect();
        if seen.insert(full.clone()) {
            out_rows.push(full);
        }
    }
    Ok(LegacyBindings {
        vars,
        rows: out_rows,
    })
}

fn legacy_constraints(
    constraints: &[Constraint],
    applied: &mut [bool],
    bound: &HashSet<usize>,
    slot_of: &HashMap<Arc<str>, usize>,
    rows: &mut Vec<Vec<Option<Value>>>,
) {
    for (ci, c) in constraints.iter().enumerate() {
        if applied[ci] {
            continue;
        }
        if !c.variables().iter().all(|v| bound.contains(&slot_of[v])) {
            continue;
        }
        applied[ci] = true;
        let lhs_t = lower_term(&c.lhs);
        let rhs_t = lower_term(&c.rhs);
        rows.retain(|row| {
            let get = |t: &LTerm| -> Value {
                match t {
                    LTerm::Const(v) => v.clone(),
                    LTerm::Var(v) => row[slot_of[v]].clone().expect("constraint vars bound"),
                }
            };
            cmp_values(c.op, &get(&lhs_t), &get(&rhs_t))
        });
    }
}

/// Converts new-path answer rows to legacy rows for comparison.
pub fn resolve_rows(rows: &RowSet) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|row| row.iter().map(|v| v.to_value()).collect())
        .collect()
}
