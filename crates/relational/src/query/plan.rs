//! Compiled query plans and their executor — the one query engine.
//!
//! Evaluating a body splits along its natural boundary:
//!
//! * **Compile once** — [`compile_body`] turns a body (atoms + constraints)
//!   into a [`QueryPlan`]: the slot table, the atom order, each atom's key
//!   columns and [`PosAction`] list, and a static constraint schedule. All
//!   of it follows from the body text, the schema it is validated against
//!   and — for a body of two or more atoms — the atom order the greedy
//!   heuristic picks from relation sizes at that moment. [`CompiledBody`]
//!   bundles the full plan with one delta plan per atom for semi-naive
//!   evaluation, each compiled on its first use. A [`PlanCatalog`] is keyed
//!   by exactly those inputs, so every evaluator of one system that meets a
//!   body of one shape shares one plan, and a shared plan is the plan it
//!   would have compiled itself; a peer takes its plans from its system's
//!   catalog and holds the `Arc`s until the rule changes. The `&Database`
//!   entry points in [`crate::query::eval`] compile and execute in one call.
//!
//! * **Probe an index if there is one** — for every keyed join step
//!   [`execute_plan`] probes the relation's persistent
//!   [`crate::relation::Index`] on the step's key columns when the relation
//!   holds one, and builds a transient index over the whole relation for
//!   that one call otherwise. Persistent indexes are created by
//!   [`QueryPlan::ensure_indexes`] (callers holding `&mut Database`, i.e.
//!   the peer, do that right before executing) and maintained by
//!   [`crate::Relation::insert_row`]. The watermark-restricted (delta) atom
//!   scans only its suffix, so with indexes in place a 1-tuple delta wave
//!   reads O(delta) rows regardless of relation size — the standard
//!   incremental-view-maintenance property, observable through
//!   [`EvalMetrics`].
//!
//! Semantics: naive tables (see [`crate::query::eval`]). Both index
//! branches return the same rows in the same order.

use crate::database::Database;
use crate::error::Result;
use crate::fxhash::{fx_hash, FxHashMap};
use crate::query::ast::{Atom, CmpOp, Constraint, Term};
use crate::query::eval::{greedy_order, slot_of, validate_body, Bindings};
use crate::relation::{key_hash, Index, RowSet};
use crate::schema::DatabaseSchema;
use crate::value::Val;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Work counters for plan execution, for observing the incremental win.
///
/// `rows_scanned` counts relation rows physically read (scans,
/// transient-index builds, and candidate rows visited after a probe);
/// `index_probes` counts hash-bucket lookups against persistent indexes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalMetrics {
    /// Relation rows physically read.
    pub rows_scanned: u64,
    /// Persistent-index bucket probes.
    pub index_probes: u64,
}

impl EvalMetrics {
    /// Adds another counter set into this one.
    pub fn absorb(&mut self, other: EvalMetrics) {
        self.rows_scanned += other.rows_scanned;
        self.index_probes += other.index_probes;
    }
}

/// Where a join-key value comes from when probing an atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySource {
    /// A constant from the atom text.
    Const(Val),
    /// The value of an already-bound variable slot.
    Slot(usize),
}

impl KeySource {
    fn value(&self, binding: &[Val]) -> Val {
        match self {
            KeySource::Const(c) => *c,
            KeySource::Slot(s) => binding[*s],
        }
    }
}

/// Per-position action when extending a binding by one matched tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PosAction {
    /// First occurrence of a variable in this atom: write `tuple[pos]` into
    /// the binding slot.
    Bind {
        /// Column position within the atom's tuple.
        pos: usize,
        /// Destination binding slot.
        slot: usize,
    },
    /// Repeated occurrence within the same atom: the slot was just written,
    /// so compare.
    Recheck {
        /// Column position within the atom's tuple.
        pos: usize,
        /// Binding slot to compare against.
        slot: usize,
    },
}

/// A constraint with its terms resolved to slots/constants at compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledConstraint {
    /// Left-hand side.
    pub lhs: KeySource,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: KeySource,
}

/// One join step: probe `relation` on `key`, extend bindings via `actions`,
/// then filter by the constraints that just became ground.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomStep {
    /// Index of the atom in the original body (delta plans are keyed by it).
    pub atom: usize,
    /// Relation probed by this step.
    pub relation: Arc<str>,
    /// Key positions with their value sources, in column order.
    pub key: Vec<(usize, KeySource)>,
    /// Just the key column positions (the persistent-index key), cached so
    /// probing allocates nothing.
    pub key_cols: Box<[usize]>,
    /// Slot writes/rechecks for the non-key positions.
    pub actions: Vec<PosAction>,
    /// Indices into [`QueryPlan::constraints`] that become fully bound after
    /// this step.
    pub constraints_after: Vec<usize>,
}

/// A compiled body: slot table, join order, per-step keys and actions, and
/// the constraint schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Variable names in slot (first-occurrence) order.
    pub vars: Vec<Arc<str>>,
    /// Join steps in execution order.
    pub steps: Vec<AtomStep>,
    /// All body constraints, compiled.
    pub constraints: Vec<CompiledConstraint>,
    /// Constraints ground before any step runs (constant comparisons).
    pub pre_constraints: Vec<usize>,
    /// True iff `steps[0]` is the semi-naive delta atom: it scans only the
    /// post-watermark suffix of its relation.
    pub restricted: bool,
}

/// The full plan plus one delta plan per atom — what a peer holds per rule.
///
/// The full plan is compiled with the body and each delta plan on its first
/// use, so a body that is only ever evaluated in full, or whose relations
/// never grow, compiles one plan. The body itself is not kept: whoever
/// evaluates a delta passes the atoms and constraints the body was compiled
/// from.
/// Delta plans read relation sizes when they are compiled (the greedy atom
/// order breaks ties on them), so their atom order depends on when that is;
/// the set of rows they produce does not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledBody {
    /// Unrestricted plan.
    pub full: Arc<QueryPlan>,
    /// `delta[i]` restricts atom `i` to its post-watermark suffix.
    delta: Box<[OnceLock<Arc<QueryPlan>>]>,
}

impl CompiledBody {
    /// Compiles a body's full plan (validating the body); the semi-naive
    /// delta plans follow on demand.
    pub fn compile(atoms: &[Atom], constraints: &[Constraint], db: &Database) -> Result<Self> {
        let full = compile_body(atoms, constraints, db, None)?;
        Ok(CompiledBody::around(Arc::new(full)))
    }

    /// A body around its full plan, with no delta plan yet (a validated
    /// plan has one step per atom).
    fn around(full: Arc<QueryPlan>) -> Self {
        let delta = full.steps.iter().map(|_| OnceLock::new()).collect();
        CompiledBody { full, delta }
    }

    /// The delta plan restricting atom `i` of the body `atoms` and
    /// `constraints`, compiled against `db` on first use.
    fn delta_plan(
        &self,
        i: usize,
        atoms: &[Atom],
        constraints: &[Constraint],
        db: &Database,
    ) -> Result<&QueryPlan> {
        if let Some(plan) = self.delta[i].get() {
            return Ok(plan);
        }
        let plan = Arc::new(compile_body(atoms, constraints, db, Some(i))?);
        Ok(self.delta[i].get_or_init(|| plan))
    }

    /// [`QueryPlan::ensure_indexes`] for exactly the delta plans
    /// [`evaluate_bindings_since_planned`] would execute over `watermarks`:
    /// a delta plan whose relation saw no new rows builds nothing (and is
    /// not compiled).
    pub fn ensure_delta_indexes(
        &self,
        atoms: &[Atom],
        constraints: &[Constraint],
        db: &mut Database,
        watermarks: &BTreeMap<Arc<str>, usize>,
    ) -> Result<()> {
        for i in 0..self.delta.len() {
            if pending_since(&atoms[i], db, watermarks)?.is_some() {
                self.delta_plan(i, atoms, constraints, db)?
                    .ensure_indexes(db)?;
            }
        }
        Ok(())
    }
}

/// For the delta plan restricting `atom`: the watermark it scans from, or
/// `None` when that relation holds no row past it (missing watermark
/// entries mean 0, i.e. the whole relation is new).
fn pending_since(
    atom: &Atom,
    db: &Database,
    watermarks: &BTreeMap<Arc<str>, usize>,
) -> Result<Option<usize>> {
    let watermark = watermarks.get(&atom.relation).copied().unwrap_or(0);
    Ok((db.relation(&atom.relation)?.len() > watermark).then_some(watermark))
}

/// The compiled plans of one system — body plans and rule heads — shared
/// by every evaluator in it: one body plan per body shape, schema and, for
/// bodies of two or more atoms, the atom order the greedy heuristic picks
/// against the evaluator's database, full and delta plans apart; one head
/// per head shape, binding layout and schema
/// ([`crate::chase::CompiledHead`]).
///
/// That key is everything compilation reads, so what the catalog hands out
/// is exactly what compiling against the caller's database at that moment
/// would give, and two databases whose sizes order a body's atoms
/// differently get two entries. Consulted only where a plan would
/// otherwise be compiled; executing one never touches the catalog, so
/// threads share it with no lock on the evaluation path. Entries live as
/// long as the catalog.
#[derive(Default)]
pub struct PlanCatalog {
    plans: Mutex<FxHashMap<u64, Vec<PlanEntry>>>,
    pub(crate) heads: Mutex<FxHashMap<u64, Vec<crate::chase::HeadEntry>>>,
}

/// One shared plan and the body and schema it was compiled from (the rest
/// of its key — the restricted atom and the atom order — is the plan's own).
struct PlanEntry {
    atoms: Box<[Atom]>,
    constraints: Box<[Constraint]>,
    schema: DatabaseSchema,
    plan: Arc<QueryPlan>,
}

impl PlanCatalog {
    /// The body's full plan from the catalog, with no delta plan yet: what
    /// [`CompiledBody::compile`] would compile against `db`.
    pub fn body(
        &self,
        atoms: &[Atom],
        constraints: &[Constraint],
        db: &Database,
    ) -> Result<CompiledBody> {
        let full = self.plan(atoms, constraints, db, None)?;
        Ok(CompiledBody::around(full))
    }

    /// Gives `body` (compiled from `atoms` and `constraints`) from the
    /// catalog each delta plan that evaluating it over `watermarks` will
    /// execute and that it does not hold yet, so that evaluation compiles
    /// nothing.
    pub fn fill_deltas(
        &self,
        body: &CompiledBody,
        atoms: &[Atom],
        constraints: &[Constraint],
        db: &Database,
        watermarks: &BTreeMap<Arc<str>, usize>,
    ) -> Result<()> {
        for (i, slot) in body.delta.iter().enumerate() {
            if slot.get().is_none() && pending_since(&atoms[i], db, watermarks)?.is_some() {
                let _ = slot.set(self.plan(atoms, constraints, db, Some(i))?);
            }
        }
        Ok(())
    }

    /// The plan [`compile_body`] would compile for these arguments now:
    /// the catalog's entry when it holds one, else compiled and entered.
    pub fn plan(
        &self,
        atoms: &[Atom],
        constraints: &[Constraint],
        db: &Database,
        restricted: Option<usize>,
    ) -> Result<Arc<QueryPlan>> {
        let restricted = restricted.filter(|&r| r < atoms.len());
        // What compiling reads from the data: the order of a body that has
        // one to choose.
        let order = match atoms.len() {
            0 | 1 => None,
            _ => {
                let vars = validate_body(atoms, constraints, db)?;
                Some(greedy_order(atoms, db, &vars, restricted))
            }
        };
        let hash = fx_hash(&(atoms, constraints, restricted, &order));
        let mut entries = self.plans.lock().expect("no compile panics");
        let hit = (entries.get(&hash).into_iter().flatten()).find(|e| {
            *e.atoms == *atoms
                && *e.constraints == *constraints
                && e.schema == *db.schema()
                && e.plan.restricted == restricted.is_some()
                && order.as_ref().is_none_or(|order| {
                    (e.plan.steps.iter().map(|s| s.atom)).eq(order.iter().copied())
                })
        });
        if let Some(entry) = hit {
            return Ok(Arc::clone(&entry.plan));
        }
        let plan = Arc::new(compile_body(atoms, constraints, db, restricted)?);
        entries.entry(hash).or_default().push(PlanEntry {
            atoms: atoms.into(),
            constraints: constraints.into(),
            schema: db.schema().clone(),
            plan: Arc::clone(&plan),
        });
        Ok(plan)
    }

    /// Number of entries held: body plans and heads.
    pub fn len(&self) -> usize {
        fn count<E>(map: &Mutex<FxHashMap<u64, Vec<E>>>) -> usize {
            let map = map.lock().expect("no compile panics");
            map.values().map(Vec::len).sum()
        }
        count(&self.plans) + count(&self.heads)
    }

    /// True iff nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for PlanCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCatalog")
            .field("entries", &self.len())
            .finish()
    }
}

impl QueryPlan {
    /// Creates the persistent indexes this plan's keyed steps probe (every
    /// step but a restricted plan's suffix scan and key-less scans), where
    /// the relations do not hold them yet. Data is never modified.
    pub fn ensure_indexes(&self, db: &mut Database) -> Result<()> {
        let steps = self.steps.iter().skip(usize::from(self.restricted));
        for step in steps.filter(|step| !step.key_cols.is_empty()) {
            db.relation_mut(&step.relation)?
                .ensure_index(&step.key_cols);
        }
        Ok(())
    }
}

/// Compiles one body into a [`QueryPlan`], optionally restricting atom
/// `restricted` to its post-watermark suffix (it is then forced first in the
/// join order, so the join cost follows the delta).
///
/// Validation (qualified atoms, unknown relations, arity, unbound constraint
/// variables) happens here, so executing a compiled plan cannot fail on the
/// body itself.
pub fn compile_body(
    atoms: &[Atom],
    constraints: &[Constraint],
    db: &Database,
    restricted: Option<usize>,
) -> Result<QueryPlan> {
    let vars = validate_body(atoms, constraints, db)?;
    let restricted = restricted.filter(|&r| r < atoms.len());
    let order = greedy_order(atoms, db, &vars, restricted);

    let compile_term = |t: &Term| match t {
        Term::Const(c) => KeySource::Const(*c),
        Term::Var(v) => KeySource::Slot(slot_of(&vars, v)),
    };
    let compiled_constraints: Vec<CompiledConstraint> = constraints
        .iter()
        .map(|c| CompiledConstraint {
            lhs: compile_term(&c.lhs),
            op: c.op,
            rhs: compile_term(&c.rhs),
        })
        .collect();

    // Static constraint schedule: the bound-slot set evolves deterministically
    // with the atom order, so each constraint attaches to the first point at
    // which all its variables are bound.
    let mut bound: Vec<bool> = vec![false; vars.len()];
    let mut scheduled: Vec<bool> = vec![false; constraints.len()];
    let ready = |bound: &[bool], c: &CompiledConstraint| -> bool {
        [&c.lhs, &c.rhs].into_iter().all(|side| match side {
            KeySource::Const(_) => true,
            KeySource::Slot(s) => bound[*s],
        })
    };
    let mut pre_constraints: Vec<usize> = Vec::new();
    for (ci, c) in compiled_constraints.iter().enumerate() {
        if ready(&bound, c) {
            scheduled[ci] = true;
            pre_constraints.push(ci);
        }
    }

    let mut steps: Vec<AtomStep> = Vec::with_capacity(order.len());
    for &ai in &order {
        let atom = &atoms[ai];
        let mut key: Vec<(usize, KeySource)> = Vec::new();
        let mut actions: Vec<PosAction> = Vec::new();
        for (pos, t) in atom.terms.iter().enumerate() {
            match t {
                Term::Const(c) => key.push((pos, KeySource::Const(*c))),
                Term::Var(v) => {
                    let slot = slot_of(&vars, v);
                    let bound_here = (actions.iter())
                        .any(|a| matches!(a, PosAction::Bind { slot: s, .. } if *s == slot));
                    if bound[slot] {
                        key.push((pos, KeySource::Slot(slot)));
                    } else if !bound_here {
                        actions.push(PosAction::Bind { pos, slot });
                    } else {
                        actions.push(PosAction::Recheck { pos, slot });
                    }
                }
            }
        }
        for t in &atom.terms {
            if let Term::Var(v) = t {
                bound[slot_of(&vars, v)] = true;
            }
        }
        let mut constraints_after: Vec<usize> = Vec::new();
        for (ci, c) in compiled_constraints.iter().enumerate() {
            if !scheduled[ci] && ready(&bound, c) {
                scheduled[ci] = true;
                constraints_after.push(ci);
            }
        }
        steps.push(AtomStep {
            atom: ai,
            relation: atom.relation.clone(),
            key_cols: key.iter().map(|&(p, _)| p).collect(),
            key,
            actions,
            constraints_after,
        });
    }

    Ok(QueryPlan {
        vars,
        steps,
        constraints: compiled_constraints,
        pre_constraints,
        restricted: restricted.is_some(),
    })
}

/// Executes a compiled plan. `watermark` applies only to a restricted plan's
/// first step. A keyed step probes the relation's persistent
/// [`crate::relation::Index`] when it holds one on the step's key columns and
/// builds a transient one for this call otherwise.
pub fn execute_plan(
    plan: &QueryPlan,
    db: &Database,
    watermark: usize,
    m: &mut EvalMetrics,
) -> Result<Bindings> {
    let width = plan.vars.len().max(1);
    let mut rows: Vec<Val> = vec![Val::Int(0); width]; // one empty binding
    let mut nrows: usize = 1;
    apply_constraints(plan, &plan.pre_constraints, &mut rows, &mut nrows, width);

    let mut key: Vec<Val> = Vec::new();
    for (si, step) in plan.steps.iter().enumerate() {
        if nrows == 0 {
            break;
        }
        let mut next: Vec<Val> = Vec::new();
        let mut next_n: usize = 0;
        let mut extend = |binding: &[Val], tuple: &[Val], key: &[Val]| {
            // Hash-collision / scan guard: key columns must match.
            if step
                .key_cols
                .iter()
                .zip(key.iter())
                .any(|(&p, kv)| tuple[p] != *kv)
            {
                return;
            }
            let start = next.len();
            next.extend_from_slice(binding);
            for act in &step.actions {
                match *act {
                    PosAction::Bind { pos, slot } => next[start + slot] = tuple[pos],
                    PosAction::Recheck { pos, slot } => {
                        if next[start + slot] != tuple[pos] {
                            next.truncate(start);
                            return;
                        }
                    }
                }
            }
            next_n += 1;
        };

        let rel = db.relation(&step.relation)?;
        let delta_scan = si == 0 && plan.restricted;
        if delta_scan || step.key_cols.is_empty() {
            // Scan. The semi-naive delta atom reads only its post-watermark
            // suffix (its keys are constants, so an index would not narrow
            // anything); a key-less step (first atom, cross product) has
            // nothing to look up and reads every row.
            let from = if delta_scan { watermark } else { 0 };
            for bi in 0..nrows {
                let binding = &rows[bi * width..bi * width + width];
                key.clear();
                key.extend(step.key.iter().map(|(_, src)| src.value(binding)));
                for tuple in rel.since(from) {
                    m.rows_scanned += 1;
                    extend(binding, tuple, &key);
                }
            }
        } else {
            let transient: Index;
            let idx = match rel.index(&step.key_cols) {
                Some(idx) => {
                    m.index_probes += nrows as u64;
                    idx
                }
                None => {
                    m.rows_scanned += rel.len() as u64;
                    transient = Index::build(&step.key_cols, rel.iter());
                    &transient
                }
            };
            for bi in 0..nrows {
                let binding = &rows[bi * width..bi * width + width];
                key.clear();
                key.extend(step.key.iter().map(|(_, src)| src.value(binding)));
                for ri in idx.candidates(key_hash(key.iter())) {
                    m.rows_scanned += 1;
                    extend(binding, rel.row(ri as usize), &key);
                }
            }
        }

        rows = next;
        nrows = next_n;
        apply_constraints(plan, &step.constraints_after, &mut rows, &mut nrows, width);
    }

    // No two bindings coincide, so the buffer is the result as it stands:
    // a binding is one stored row per atom, each row fully determined by
    // the binding (an atom's terms are variables and constants), and no
    // step visits a stored row twice for one partial binding — distinct row
    // combinations give distinct bindings.
    // A zero-variable plan carries one placeholder value per binding.
    Ok(Bindings::from_flat(plan.vars.clone(), nrows, rows))
}

fn apply_constraints(
    plan: &QueryPlan,
    list: &[usize],
    rows: &mut Vec<Val>,
    nrows: &mut usize,
    width: usize,
) {
    for &ci in list {
        let c = &plan.constraints[ci];
        let mut keep = 0usize;
        for i in 0..*nrows {
            let row = &rows[i * width..i * width + width];
            let lhs = c.lhs.value(row);
            let rhs = c.rhs.value(row);
            if c.op.certainly_holds(&lhs, &rhs) {
                if keep != i {
                    rows.copy_within(i * width..i * width + width, keep * width);
                }
                keep += 1;
            }
        }
        rows.truncate(keep * width);
        *nrows = keep;
    }
}

/// Semi-naive **delta** evaluation over a body compiled from `atoms` and
/// `constraints`: the bindings derivable using at least one tuple inserted
/// at or after the given per-relation `watermarks` (missing entries mean 0,
/// i.e. the whole relation is new).
///
/// Computed as the standard semi-naive expansion `⋃ᵢ full(a₁) ⋈ … ⋈ Δ(aᵢ) ⋈
/// … ⋈ full(aₖ)`: for each atom in turn, that atom ranges over the delta
/// rows only while every other atom ranges over the full current relation.
/// The union over-approximates the set of *genuinely new* bindings (a new
/// tuple may re-derive an old binding) but never misses one, and is always a
/// subset of the full evaluation — exactly what a monotone delta shipment
/// needs. Column order matches [`crate::query::evaluate_bindings`] on the
/// same body. The union of every delta plan's rows is deduplicated in
/// first-occurrence order: when only one delta plan has rows to scan, its
/// bindings — distinct already — are the result as they stand; otherwise
/// the union's [`RowSet`] is, its membership built once.
pub fn evaluate_bindings_since_planned(
    body: &CompiledBody,
    atoms: &[Atom],
    constraints: &[Constraint],
    db: &Database,
    watermarks: &BTreeMap<Arc<str>, usize>,
    m: &mut EvalMetrics,
) -> Result<Bindings> {
    let mut first: Option<Bindings> = None;
    let mut union: Option<RowSet> = None;
    for i in 0..body.delta.len() {
        let Some(watermark) = pending_since(&atoms[i], db, watermarks)? else {
            continue; // No new tuples in this atom's relation.
        };
        let delta = execute_plan(
            body.delta_plan(i, atoms, constraints, db)?,
            db,
            watermark,
            m,
        )?;
        let Some(first) = &first else {
            first = Some(delta);
            continue;
        };
        let union = union.get_or_insert_with(|| {
            let mut set = RowSet::new(first.vars.len());
            set.extend(first.rows());
            set
        });
        union.extend(delta.rows());
    }
    Ok(match (first, union) {
        (None, _) => Bindings::from_flat(body.full.vars.clone(), 0, Vec::new()),
        (Some(only), None) => only,
        // Every plan of one body binds its variables in the same slots.
        (Some(first), Some(set)) => Bindings::from_set(first.vars, set),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ast::ConjunctiveQuery;
    use crate::query::parser::parse_query;
    use crate::schema::DatabaseSchema;
    use std::collections::HashSet;

    fn db_with_b(pairs: &[(i64, i64)]) -> Database {
        let mut db = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        for &(x, y) in pairs {
            db.insert_values("b", vec![Val::Int(x), Val::Int(y)])
                .unwrap();
        }
        db
    }

    fn chain(n: i64) -> Database {
        let pairs: Vec<(i64, i64)> = (0..n).map(|i| (i, i + 1)).collect();
        db_with_b(&pairs)
    }

    /// A body compiled against `db`, with the query it came from.
    fn compile(query: &str, db: &Database) -> (CompiledBody, ConjunctiveQuery) {
        let q = parse_query(query).unwrap();
        (
            CompiledBody::compile(&q.atoms, &q.constraints, db).unwrap(),
            q,
        )
    }

    fn row_set(b: &Bindings) -> HashSet<Vec<Val>> {
        b.rows().map(<[Val]>::to_vec).collect()
    }

    fn full(body: &CompiledBody, db: &Database) -> (Bindings, EvalMetrics) {
        let mut m = EvalMetrics::default();
        let rows = execute_plan(&body.full, db, 0, &mut m).unwrap();
        (rows, m)
    }

    fn since(
        (body, q): &(CompiledBody, ConjunctiveQuery),
        db: &Database,
        w: &BTreeMap<Arc<str>, usize>,
    ) -> (Bindings, EvalMetrics) {
        let mut m = EvalMetrics::default();
        let rows =
            evaluate_bindings_since_planned(body, &q.atoms, &q.constraints, db, w, &mut m).unwrap();
        (rows, m)
    }

    fn ensure_delta_indexes(
        (body, q): &(CompiledBody, ConjunctiveQuery),
        db: &mut Database,
        w: &BTreeMap<Arc<str>, usize>,
    ) {
        body.ensure_delta_indexes(&q.atoms, &q.constraints, db, w)
            .unwrap();
    }

    /// "Legacy" in the two tests below is the cost model of the pre-plan
    /// evaluator — a transient index per call — which the executor still
    /// runs whenever a relation holds no persistent index.
    #[test]
    fn planned_matches_legacy_on_core_shapes() {
        for query in [
            "q(X, Z) :- b(X, Y), b(Y, Z)",
            "q(X, Y) :- b(X, Y), b(X, Z), Y != Z",
            "q(X) :- b(X, 2)",
            "q(X) :- b(X, X)",
            "q(X, U) :- b(X, Y), b(U, V)",
            "q(X, Y) :- b(X, Y), X < Y",
            "q(1) :- b(1, 2)",
            "q(1) :- b(8, 9)",
        ] {
            let mut db = db_with_b(&[(1, 2), (2, 3), (3, 4), (1, 1), (7, 7)]);
            let (body, _) = compile(query, &db);
            let (transient, tm) = full(&body, &db);
            assert_eq!(tm.index_probes, 0, "{query}");
            body.full.ensure_indexes(&mut db).unwrap();
            let (probed, _) = full(&body, &db);
            // Same rows in the same order, not just the same set.
            assert_eq!(probed, transient, "{query}");
        }
    }

    #[test]
    fn delta_planned_matches_legacy() {
        let mut db = db_with_b(&[(1, 2), (2, 3)]);
        let body = compile("q(X, Z) :- b(X, Y), b(Y, Z)", &db);
        let w = db.watermarks();
        db.insert_values("b", vec![Val::Int(3), Val::Int(4)])
            .unwrap();
        db.insert_values("b", vec![Val::Int(0), Val::Int(1)])
            .unwrap();
        let (transient, tm) = since(&body, &db, &w);
        assert_eq!(tm.index_probes, 0);
        ensure_delta_indexes(&body, &mut db, &w);
        let (probed, pm) = since(&body, &db, &w);
        assert!(pm.index_probes > 0);
        assert_eq!(probed, transient);
        // Both delta positions (new row as first and as second atom).
        let rows = row_set(&probed);
        assert!(rows.contains(&vec![Val::Int(2), Val::Int(3), Val::Int(4)]));
        assert!(rows.contains(&vec![Val::Int(0), Val::Int(1), Val::Int(2)]));
    }

    #[test]
    fn delta_rows_scanned_is_o_delta_not_o_relation() {
        // Same 1-tuple delta against a small and a large relation: with
        // persistent indexes in place both must read the same number of rows.
        let scanned = |n: i64| -> u64 {
            let mut db = chain(n);
            let body = compile("q(X, Z) :- b(X, Y), b(Y, Z)", &db);
            let w = db.watermarks();
            db.insert_values("b", vec![Val::Int(n), Val::Int(n + 1)])
                .unwrap();
            ensure_delta_indexes(&body, &mut db, &w);
            let (delta, m) = since(&body, &db, &w);
            // Appending (n, n+1) to the chain creates exactly one new join
            // result: (n-1, n, n+1).
            assert_eq!(delta.len(), 1);
            m.rows_scanned
        };
        assert_eq!(scanned(10), scanned(1_000));
    }

    #[test]
    fn rebuild_path_scans_the_whole_relation() {
        let mut db = chain(100);
        let body = compile("q(X, Z) :- b(X, Y), b(Y, Z)", &db);
        let w = db.watermarks();
        db.insert_values("b", vec![Val::Int(500), Val::Int(501)])
            .unwrap();
        // No persistent index yet: every delta plan builds a transient one.
        let (_, rebuild) = since(&body, &db, &w);
        ensure_delta_indexes(&body, &mut db, &w);
        let (_, indexed) = since(&body, &db, &w);
        assert!(
            rebuild.rows_scanned >= 2 * 101,
            "rebuild path reads every row per delta plan, got {}",
            rebuild.rows_scanned
        );
        assert!(
            indexed.rows_scanned < rebuild.rows_scanned / 10,
            "indexed {} vs rebuild {}",
            indexed.rows_scanned,
            rebuild.rows_scanned
        );
    }

    #[test]
    fn empty_watermarks_mean_everything_is_new() {
        let db = db_with_b(&[(1, 2), (2, 3)]);
        let body = compile("q(X, Z) :- b(X, Y), b(Y, Z)", &db);
        let (delta, _) = since(&body, &db, &BTreeMap::new());
        let (all, _) = full(&body.0, &db);
        assert_eq!(row_set(&delta), row_set(&all));
    }

    #[test]
    fn unchanged_database_gives_empty_delta_without_scanning() {
        let mut db = db_with_b(&[(1, 2), (2, 3)]);
        let body = compile("q(X, Z) :- b(X, Y), b(Y, Z)", &db);
        let w = db.watermarks();
        ensure_delta_indexes(&body, &mut db, &w);
        assert!(
            db.relation("b").unwrap().index(&[0]).is_none(),
            "a delta plan with nothing to scan builds no index"
        );
        let (delta, m) = since(&body, &db, &w);
        assert!(delta.is_empty());
        assert_eq!(delta.vars, body.0.full.vars);
        assert_eq!(m.rows_scanned, 0);
        assert_eq!(m.index_probes, 0);
    }

    #[test]
    fn plans_survive_inserts_via_index_maintenance() {
        let mut db = db_with_b(&[(1, 2)]);
        let (body, _) = compile("q(X, Z) :- b(X, Y), b(Y, Z)", &db);
        body.full.ensure_indexes(&mut db).unwrap();
        // Interleave inserts with evaluations; the persistent index must
        // track them without recompilation or another ensure.
        for i in 2..20 {
            db.insert_values("b", vec![Val::Int(i), Val::Int(i + 1)])
                .unwrap();
            let (rows, m) = full(&body, &db);
            assert!(m.index_probes > 0);
            let expected: HashSet<Vec<Val>> = (1..i)
                .map(|x| vec![Val::Int(x), Val::Int(x + 1), Val::Int(x + 2)])
                .collect();
            assert_eq!(row_set(&rows), expected, "after insert {i}");
        }
    }

    #[test]
    fn compile_validates_the_body() {
        let db = db_with_b(&[]);
        let atom = crate::query::parser::parse_atom("B:b(X, Y)").unwrap();
        assert!(CompiledBody::compile(&[atom], &[], &db).is_err());
        let q = parse_query("q(X) :- zzz(X)").unwrap();
        assert!(CompiledBody::compile(&q.atoms, &q.constraints, &db).is_err());
    }
}
