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
//!   catalog, and the fragment it evaluates holds them. A plan keeps the
//!   schema it was compiled against and each step its relation's position
//!   in it, so executing one indexes the database's relations, with no
//!   name to compare, and a database of another schema is
//!   [`crate::Error::OtherSchema`]. The `&Database`
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
//! A constraint is tested one way, in a body and across a rule's fragments
//! ([`CompiledConstraint::holds`]); watermarks are [`Marks`].
//!
//! Semantics: naive tables (see [`crate::query::eval`]). Both index
//! branches return the same rows in the same order.

use crate::database::Database;
use crate::error::Result;
use crate::fxhash::{fx_hash, FxHashMap};
use crate::query::ast::{Atom, CmpOp, Constraint, Term};
use crate::query::eval::{greedy_order, slot_of, validate_body, Bindings};
use crate::relation::{key_hash, Index, Relation, RowSet};
use crate::schema::DatabaseSchema;
use crate::tables::InlineMap;
use crate::value::Val;
use serde::{Content, DeError, Deserialize, Serialize, Sink};
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

/// Where a join-key value comes from when probing an atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySource {
    /// A constant from the atom text.
    Const(Val),
    /// The value of an already-bound variable slot.
    Slot(usize),
}

impl KeySource {
    /// Term `t` over rows whose column `j` holds `vars[j]`; `None` when it
    /// names a variable `vars` lacks.
    pub(crate) fn of(t: &Term, vars: &[Arc<str>]) -> Option<Self> {
        match t {
            Term::Const(c) => Some(KeySource::Const(*c)),
            Term::Var(v) => vars.iter().position(|x| x == v).map(KeySource::Slot),
        }
    }

    pub(crate) fn value(&self, binding: &[Val]) -> Val {
        match self {
            KeySource::Const(c) => *c,
            KeySource::Slot(s) => binding[*s],
        }
    }
}

/// Per-position action when extending a binding by one matched tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PosAction {
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

/// A constraint with each side resolved to a constant or a column of the
/// rows it tests: a body's constraints over its plan's slots, a rule's
/// cross-fragment constraints over the joined bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledConstraint {
    /// Left-hand side.
    pub lhs: KeySource,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: KeySource,
}

impl CompiledConstraint {
    /// `c` over rows whose column `j` holds `vars[j]`; `None` when a side
    /// names a variable `vars` lacks (the constraint holds for no row).
    pub fn new(c: &Constraint, vars: &[Arc<str>]) -> Option<Self> {
        Some(CompiledConstraint {
            lhs: KeySource::of(&c.lhs, vars)?,
            op: c.op,
            rhs: KeySource::of(&c.rhs, vars)?,
        })
    }

    /// Whether `row` certainly satisfies the constraint: a comparison
    /// involving a null is unknown, and does not.
    pub fn holds(&self, row: &[Val]) -> bool {
        (self.op).certainly_holds(&self.lhs.value(row), &self.rhs.value(row))
    }
}

/// One join step: probe `relation` on `key`, extend bindings via `actions`,
/// then filter by the constraints that just became ground.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomStep {
    /// Index of the atom in the original body (delta plans are keyed by it).
    pub atom: usize,
    /// Relation probed by this step.
    pub relation: Arc<str>,
    /// Where `relation` sits in [`QueryPlan::schema`]: executing the step
    /// indexes the database's relations with it.
    pub(crate) at: usize,
    /// Key positions with their value sources, in column order.
    pub(crate) key: Vec<(usize, KeySource)>,
    /// Just the key column positions (the persistent-index key), cached so
    /// probing allocates nothing.
    pub(crate) key_cols: Box<[usize]>,
    /// Slot writes/rechecks for the non-key positions.
    pub(crate) actions: Vec<PosAction>,
    /// Indices into [`QueryPlan::constraints`] that become fully bound after
    /// this step.
    pub(crate) constraints_after: Vec<usize>,
}

/// A compiled body: slot table, join order, per-step keys and actions, and
/// the constraint schedule, for the schema it was compiled against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// The schema the plan was compiled against (a refcount): it runs on a
    /// database over an equal one only, whose relations sit at the steps'
    /// positions.
    pub schema: DatabaseSchema,
    /// Variable names in slot (first-occurrence) order, shared with every
    /// [`Bindings`] table the plan produces.
    pub vars: Arc<[Arc<str>]>,
    /// Join steps in execution order.
    pub steps: Vec<AtomStep>,
    /// All body constraints, compiled.
    pub constraints: Vec<CompiledConstraint>,
    /// Constraints ground before any step runs (constant comparisons).
    pub(crate) pre_constraints: Vec<usize>,
    /// True iff `steps[0]` is the semi-naive delta atom: it scans only the
    /// post-watermark suffix of its relation.
    pub(crate) restricted: bool,
}

/// The full plan plus one delta plan per atom — what a rule fragment holds.
///
/// The full plan is compiled with the body and each delta plan on its first
/// use, so a body that is only ever evaluated in full, or whose relations
/// never grow, compiles one plan. A one-atom body holds no delta plan: its
/// full plan, run restricted, is the one it would compile. The body itself
/// is not kept: whoever evaluates a delta passes the atoms and constraints
/// the body was compiled from.
/// Delta plans read relation sizes when they are compiled (the greedy atom
/// order breaks ties on them), so their atom order depends on when that is;
/// the set of rows they produce does not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledBody {
    /// Unrestricted plan.
    pub full: Arc<QueryPlan>,
    /// `delta[i]` restricts atom `i` to its post-watermark suffix; empty
    /// for a body of one atom.
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
    /// plan has one step per atom). Restricting the one atom of a one-atom
    /// body changes no step, so such a body keeps no slot: the empty slot
    /// list allocates nothing.
    fn around(full: Arc<QueryPlan>) -> Self {
        let delta = match full.steps.len() {
            1 => Box::default(),
            _ => full.steps.iter().map(|_| OnceLock::new()).collect(),
        };
        CompiledBody { full, delta }
    }

    /// The delta plan restricting atom `i` of the body `atoms` and
    /// `constraints`, compiled against `db` on first use; to be executed
    /// restricted (the full plan of a one-atom body is its own).
    fn delta_plan(
        &self,
        i: usize,
        atoms: &[Atom],
        constraints: &[Constraint],
        db: &Database,
    ) -> Result<&QueryPlan> {
        if self.delta.is_empty() {
            return Ok(&self.full);
        }
        if let Some(plan) = self.delta[i].get() {
            return Ok(plan);
        }
        let plan = Arc::new(compile_body(atoms, constraints, db, Some(i))?);
        Ok(self.delta[i].get_or_init(|| plan))
    }

    /// [`QueryPlan::ensure_indexes`] for exactly the delta plans
    /// [`evaluate_bindings_since_planned`] would execute over `watermarks`:
    /// a delta plan whose relation saw no new rows builds nothing (and is
    /// not compiled). A one-atom body's delta scans its relation's suffix
    /// and probes no index.
    pub fn ensure_delta_indexes(
        &self,
        atoms: &[Atom],
        constraints: &[Constraint],
        db: &mut Database,
        watermarks: &(impl MarkTable + ?Sized),
    ) -> Result<()> {
        for i in 0..self.delta.len() {
            if self.pending_since(i, atoms, db, watermarks)?.is_some() {
                self.delta_plan(i, atoms, constraints, db)?
                    .ensure_indexes(db)?;
            }
        }
        Ok(())
    }

    /// The relation atom `i` of the body reads in `db`, found by the
    /// position the full plan was compiled with.
    ///
    /// # Panics
    /// Panics if the body has no atom `i`.
    pub fn relation<'d>(&self, i: usize, db: &'d Database) -> Result<&'d Relation> {
        let relations = db.relations_of(&self.full.schema)?;
        let step = (self.full.steps.iter()).find(|step| step.atom == i);
        Ok(&relations[step.expect("a step per atom").at])
    }

    /// For the delta plan restricting atom `i` of `atoms`: the watermark it
    /// scans from, or `None` when that relation holds no row past it
    /// (missing watermark entries mean 0, i.e. the whole relation is new).
    fn pending_since(
        &self,
        i: usize,
        atoms: &[Atom],
        db: &Database,
        watermarks: &(impl MarkTable + ?Sized),
    ) -> Result<Option<usize>> {
        let watermark = watermarks.mark(&atoms[i].relation);
        Ok((self.relation(i, db)?.len() > watermark).then_some(watermark))
    }
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

/// One shared plan and the body it was compiled from (the rest of its key
/// — the schema, the restricted atom and the atom order — is the plan's
/// own).
struct PlanEntry {
    atoms: Box<[Atom]>,
    constraints: Box<[Constraint]>,
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
        watermarks: &(impl MarkTable + ?Sized),
    ) -> Result<()> {
        for (i, slot) in body.delta.iter().enumerate() {
            if slot.get().is_none() && body.pending_since(i, atoms, db, watermarks)?.is_some() {
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
                && e.plan.schema == *db.schema()
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
        let relations = db.relations_of_mut(&self.schema)?;
        let steps = self.steps.iter().skip(usize::from(self.restricted));
        for step in steps.filter(|step| !step.key_cols.is_empty()) {
            relations[step.at].ensure_index(&step.key_cols);
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

    let compiled_constraints: Vec<CompiledConstraint> = (constraints.iter())
        .map(|c| CompiledConstraint::new(c, &vars).expect("validated: every variable has a slot"))
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
            at: db.position(&atom.relation)?,
            key_cols: key.iter().map(|&(p, _)| p).collect(),
            key,
            actions,
            constraints_after,
        });
    }

    Ok(QueryPlan {
        schema: db.schema().clone(),
        vars: vars.into(),
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
    execute(plan, plan.restricted, db, watermark, m)
}

/// [`execute_plan`], with the first step restricted to the suffix past
/// `watermark` when `restricted` says so, whatever the plan says.
fn execute(
    plan: &QueryPlan,
    restricted: bool,
    db: &Database,
    watermark: usize,
    m: &mut EvalMetrics,
) -> Result<Bindings> {
    let width = plan.vars.len().max(1);
    // Before the first step there is one empty binding, which no buffer
    // holds: the first step reads it as an empty slice and fills every
    // slot it does not bind with a placeholder. Constraints ground before
    // any step compare constants only.
    let mut rows: Vec<Val> = Vec::new();
    let holds = |ci: &usize| plan.constraints[*ci].holds(&[]);
    let mut nrows = usize::from(plan.pre_constraints.iter().all(holds));

    let relations = db.relations_of(&plan.schema)?;
    let mut key: Vec<Val> = Vec::new();
    for (si, step) in plan.steps.iter().enumerate() {
        if nrows == 0 {
            break;
        }
        let rel = &relations[step.at];
        let delta_scan = si == 0 && restricted;
        let scan = delta_scan || step.key_cols.is_empty();
        let from = if delta_scan { watermark } else { 0 };
        // A scan with no key to check keeps every binding × row pair (but
        // for repeated variables): its output is sized once.
        let mut next: Vec<Val> = match scan && step.key.is_empty() {
            true => Vec::with_capacity(nrows * rel.since(from).len() * width),
            false => Vec::new(),
        };
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
            match binding.is_empty() {
                true => next.resize(start + width, Val::Int(0)),
                false => next.extend_from_slice(binding),
            }
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

        if scan {
            // Scan. The semi-naive delta atom reads only its post-watermark
            // suffix (its keys are constants, so an index would not narrow
            // anything); a key-less step (first atom, cross product) has
            // nothing to look up and reads every row.
            for bi in 0..nrows {
                let binding = binding_at(&rows, si, bi, width);
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
                let binding = binding_at(&rows, si, bi, width);
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
    Ok(Bindings::distinct(plan.vars.clone(), nrows, rows))
}

/// Binding `bi` of the buffer step `si` reads: the one empty binding of
/// the first step, which no buffer holds, is the empty slice.
fn binding_at(rows: &[Val], si: usize, bi: usize, width: usize) -> &[Val] {
    match si {
        0 => &[],
        _ => &rows[bi * width..][..width],
    }
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
            if c.holds(&rows[i * width..i * width + width]) {
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

/// Per-relation insertion watermarks, the delta-cursor currency: a
/// relation's mark is the number of its rows its holder has seen, and a
/// relation it does not name reads 0 (the whole relation is new).
///
/// One entry per relation, sorted by name, in an [`InlineMap`] — the
/// session tables' sorted table that holds its first entry inline: a
/// fragment reads one relation or two, and an ordered map spent a whole
/// tree leaf on them, where one relation's marks now cost no heap block at
/// all. Serialized as the map of relation names to marks, byte for byte
/// what an ordered map of them writes; reading one back sorts the entries,
/// and of two for one relation keeps the last, as the map did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Marks(InlineMap<Arc<str>, usize>);

impl Marks {
    /// No relation named: everything is new.
    pub fn new() -> Self {
        Marks::default()
    }

    /// Number of relations named.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff no relation is named.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry of `relation`, or where it would go. A name that is the
    /// entry's own (an interned relation name, as a fragment's atoms and
    /// its marks share it) matches without reading its bytes.
    fn find(&self, relation: &str) -> std::result::Result<usize, usize> {
        (self.0.entries()).binary_search_by(|(r, _)| match std::ptr::eq(&**r, relation) {
            true => std::cmp::Ordering::Equal,
            false => (**r).cmp(relation),
        })
    }

    /// The mark of `relation`, if it is named.
    pub fn get(&self, relation: &str) -> Option<usize> {
        self.find(relation).ok().map(|at| self.0.entries()[at].1)
    }

    /// Sets the mark of `relation`, returning the one it replaced.
    pub fn insert(&mut self, relation: Arc<str>, mark: usize) -> Option<usize> {
        match self.find(&relation) {
            Ok(at) => Some(std::mem::replace(&mut self.0.entries_mut()[at].1, mark)),
            Err(at) => {
                self.0.insert_at(at, relation, mark);
                None
            }
        }
    }

    /// Raises the mark of `relation` to `mark`, naming it if it was not:
    /// marks merge by per-relation maximum.
    pub fn raise(&mut self, relation: &Arc<str>, mark: usize) {
        match self.find(relation) {
            Ok(at) => {
                let held = &mut self.0.entries_mut()[at].1;
                *held = (*held).max(mark);
            }
            Err(at) => self.0.insert_at(at, Arc::clone(relation), mark),
        }
    }

    /// The entries, sorted by relation name.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Arc<str>, usize)> + Clone {
        self.into_iter()
    }
}

/// A relation's mark; a relation not named panics, as an ordered map's
/// index does.
impl std::ops::Index<&str> for Marks {
    type Output = usize;

    fn index(&self, relation: &str) -> &usize {
        match self.find(relation) {
            Ok(at) => &self.0.entries()[at].1,
            Err(_) => panic!("no mark for relation `{relation}`"),
        }
    }
}

/// Entries in any order; of two for one relation the later one counts. A
/// single entry allocates nothing.
impl FromIterator<(Arc<str>, usize)> for Marks {
    fn from_iter<I: IntoIterator<Item = (Arc<str>, usize)>>(entries: I) -> Self {
        let mut marks = Marks::new();
        for (relation, mark) in entries {
            marks.insert(relation, mark);
        }
        marks
    }
}

impl<'a> IntoIterator for &'a Marks {
    type Item = (&'a Arc<str>, usize);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (Arc<str>, usize)>,
        fn(&'a (Arc<str>, usize)) -> (&'a Arc<str>, usize),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.0.entries().iter().map(|(r, mark)| (r, *mark))
    }
}

impl Serialize for Marks {
    fn serialize<S: Sink>(&self, out: &mut S) -> std::result::Result<(), S::Error> {
        out.map_begin(self.len())?;
        for (relation, mark) in self {
            out.map_key(relation)?;
            mark.serialize(out)?;
        }
        out.map_end()
    }
}

impl Deserialize for Marks {
    fn from_content(c: &Content) -> std::result::Result<Self, DeError> {
        let entries = c
            .as_map()
            .ok_or_else(|| DeError::expected("object", "Marks"))?;
        (entries.iter())
            .map(|(relation, mark)| Ok((Arc::from(relation.as_str()), usize::from_content(mark)?)))
            .collect()
    }
}

/// A watermark table as a delta evaluation reads it: each relation's mark,
/// 0 for a relation it does not name. The program's is [`Marks`]; an
/// ordered map from relation names to marks (what a caller outside the
/// program may hold) reads the same way.
pub trait MarkTable {
    /// The mark of `relation`: 0 when it is not named.
    fn mark(&self, relation: &str) -> usize;
}

impl MarkTable for Marks {
    fn mark(&self, relation: &str) -> usize {
        self.get(relation).unwrap_or(0)
    }
}

impl<K: std::borrow::Borrow<str> + Ord> MarkTable for BTreeMap<K, usize> {
    fn mark(&self, relation: &str) -> usize {
        self.get(relation).copied().unwrap_or(0)
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
/// The union is exactly the *genuinely new* bindings: a binding fixes the
/// stored row each atom matched (an atom's terms are variables and
/// constants), so one that older tuples alone derive is never derived
/// again (a projection of the bindings may still repeat a row). It is
/// always a subset of the full evaluation — exactly what a monotone delta
/// shipment needs. Column order matches [`crate::query::evaluate_bindings`] on the
/// same body. The union of every delta plan's rows is deduplicated in
/// first-occurrence order: when only one delta plan has rows to scan, its
/// bindings — distinct already — are the result as they stand; otherwise
/// the union's [`RowSet`] is, its membership built once.
pub fn evaluate_bindings_since_planned(
    body: &CompiledBody,
    atoms: &[Atom],
    constraints: &[Constraint],
    db: &Database,
    watermarks: &(impl MarkTable + ?Sized),
    m: &mut EvalMetrics,
) -> Result<Bindings> {
    let mut first: Option<Bindings> = None;
    let mut union: Option<RowSet> = None;
    for i in 0..body.full.steps.len() {
        let Some(watermark) = body.pending_since(i, atoms, db, watermarks)? else {
            continue; // No new tuples in this atom's relation.
        };
        let plan = body.delta_plan(i, atoms, constraints, db)?;
        let delta = execute(plan, true, db, watermark, m)?;
        let Some(first) = &first else {
            first = Some(delta);
            continue;
        };
        let union = union.get_or_insert_with(|| {
            let mut set = RowSet::new(first.vars.len());
            set.extend(first.rows.iter());
            set
        });
        union.extend(delta.rows.iter());
    }
    Ok(match (first, union) {
        (None, _) => Bindings::distinct(body.full.vars.clone(), 0, Vec::new()),
        (Some(only), None) => only,
        // Every plan of one body binds its variables in the same slots.
        (Some(first), Some(rows)) => Bindings {
            vars: first.vars,
            rows,
        },
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

    /// Marks stay sorted and one per relation through every way of
    /// filling them — one relation inline, more on the heap — a raise
    /// keeps the larger mark, and of two entries for one relation the later
    /// one counts.
    #[test]
    fn marks_keep_one_sorted_entry_per_relation() {
        let name = |s: &str| Arc::<str>::from(s);
        let mut marks = Marks::new();
        assert_eq!((marks.len(), marks.get("b"), marks.mark("b")), (0, None, 0));
        assert_eq!(marks.insert(name("b"), 3), None);
        assert!(!marks.0.spilled(), "one relation inline");
        assert_eq!(marks.insert(name("b"), 5), Some(3));
        marks.raise(&name("b"), 4);
        assert_eq!(marks["b"], 5);
        marks.raise(&name("a"), 2);
        marks.insert(name("c"), 1);
        let held: Vec<(&str, usize)> = marks.iter().map(|(r, w)| (&**r, w)).collect();
        assert_eq!(held, [("a", 2), ("b", 5), ("c", 1)]);
        let entries = [("c", 1), ("a", 9), ("b", 5), ("a", 2)].map(|(r, w)| (name(r), w));
        assert_eq!(entries.into_iter().collect::<Marks>(), marks);
        let one: Marks = [(name("b"), 7)].into_iter().collect();
        assert!(!one.0.spilled());
        let map: BTreeMap<Arc<str>, usize> = [(name("b"), 7)].into();
        assert_eq!((one.mark("b"), map.mark("b"), map.mark("z")), (7, 7, 0));
    }

    /// One step of the watermark oracle workload: a relation by its index
    /// in a pool of four names, a mark, and whether the name is the pool's
    /// own `Arc` or an equal but distinct one.
    #[derive(Debug, Clone)]
    enum MarkOp {
        Insert(usize, usize, bool),
        Raise(usize, usize, bool),
    }

    fn mark_op() -> impl proptest::strategy::Strategy<Value = MarkOp> {
        use proptest::prelude::*;
        (any::<bool>(), 0usize..4, 0usize..6, any::<bool>()).prop_map(|(raise, r, w, fresh)| {
            match raise {
                true => MarkOp::Raise(r, w, fresh),
                false => MarkOp::Insert(r, w, fresh),
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Marks against an ordered map of them: every insert's and raise's
        /// effect, `get`, `mark`, indexing and iteration agree after each
        /// step, looked up by the entry's own name and by an equal but
        /// distinct one; and collecting entries with repeated relations
        /// keeps the later mark of each, as inserting them in turn does.
        #[test]
        fn marks_match_an_ordered_map(
            ops in proptest::collection::vec(mark_op(), 0..24),
            listed in proptest::collection::vec((0usize..4, 0usize..6), 0..8),
        ) {
            use proptest::prelude::*;
            let pool: Vec<Arc<str>> = ["a", "b", "c", "d"].map(Arc::from).to_vec();
            let name = |r: usize, fresh: bool| match fresh {
                true => Arc::<str>::from(&*pool[r]),
                false => Arc::clone(&pool[r]),
            };
            let mut marks = Marks::new();
            let mut oracle: BTreeMap<Arc<str>, usize> = BTreeMap::new();
            for op in ops {
                match op {
                    MarkOp::Insert(r, w, fresh) => {
                        prop_assert_eq!(marks.insert(name(r, fresh), w), oracle.insert(name(r, fresh), w));
                    }
                    MarkOp::Raise(r, w, fresh) => {
                        marks.raise(&name(r, fresh), w);
                        let held = oracle.entry(name(r, fresh)).or_insert(w);
                        *held = (*held).max(w);
                    }
                }
                prop_assert_eq!(marks.len(), oracle.len());
                let held: Vec<(&str, usize)> = marks.iter().map(|(r, w)| (&**r, w)).collect();
                let want: Vec<(&str, usize)> = oracle.iter().map(|(r, w)| (&**r, *w)).collect();
                prop_assert_eq!(held, want);
                for (r, own) in pool.iter().enumerate() {
                    let other = name(r, true);
                    let want = oracle.get(own).copied();
                    prop_assert_eq!(marks.get(own), want);
                    prop_assert_eq!(marks.get(&other), want);
                    prop_assert_eq!(marks.mark(&other), want.unwrap_or(0));
                    if let Some(w) = want {
                        prop_assert_eq!((marks[&**own], marks[&*other]), (w, w));
                    }
                }
            }
            let entries = listed.iter().map(|&(r, w)| (name(r, r % 2 == 0), w));
            let collected: Marks = entries.clone().collect();
            let mut oracle: BTreeMap<Arc<str>, usize> = BTreeMap::new();
            for (r, w) in entries {
                oracle.insert(r, w);
            }
            let held: Vec<(&str, usize)> = collected.iter().map(|(r, w)| (&**r, w)).collect();
            let want: Vec<(&str, usize)> = oracle.iter().map(|(r, w)| (&**r, *w)).collect();
            prop_assert_eq!(held, want);
        }
    }

    /// Constraints over constants alone are decided before the first step:
    /// one that holds keeps every binding, one that fails leaves none, in a
    /// body with variables and in one without. The first step extends the
    /// one empty binding, which no buffer holds.
    #[test]
    fn ground_constraints_gate_the_whole_body() {
        let db = chain(3);
        for (query, rows) in [
            ("q(X) :- b(X, Y), 1 < 2", 3),
            ("q(X) :- b(X, Y), 2 < 1", 0),
            ("q(X) :- b(X, X)", 0),
            ("q() :- b(0, 1), 1 < 2", 1),
            ("q() :- b(0, 1), 2 < 1", 0),
            ("q() :- b(5, 6), 1 < 2", 0),
        ] {
            let (body, _) = compile(query, &db);
            let (bindings, _) = full(&body, &db);
            assert_eq!(bindings.rows.len(), rows, "{query}");
            assert_eq!(bindings.rows.iter().count(), rows, "{query}");
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

    fn since(
        (body, q): &(CompiledBody, ConjunctiveQuery),
        db: &Database,
        w: &Marks,
    ) -> (Bindings, EvalMetrics) {
        let mut m = EvalMetrics::default();
        let rows =
            evaluate_bindings_since_planned(body, &q.atoms, &q.constraints, db, w, &mut m).unwrap();
        (rows, m)
    }

    fn ensure_delta_indexes(
        (body, q): &(CompiledBody, ConjunctiveQuery),
        db: &mut Database,
        w: &Marks,
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
        let w: Marks = db.watermarks();
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
            let w: Marks = db.watermarks();
            db.insert_values("b", vec![Val::Int(n), Val::Int(n + 1)])
                .unwrap();
            ensure_delta_indexes(&body, &mut db, &w);
            let (delta, m) = since(&body, &db, &w);
            // Appending (n, n+1) to the chain creates exactly one new join
            // result: (n-1, n, n+1).
            assert_eq!(delta.rows.len(), 1);
            m.rows_scanned
        };
        assert_eq!(scanned(10), scanned(1_000));
    }

    #[test]
    fn rebuild_path_scans_the_whole_relation() {
        let mut db = chain(100);
        let body = compile("q(X, Z) :- b(X, Y), b(Y, Z)", &db);
        let w: Marks = db.watermarks();
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
        let (delta, _) = since(&body, &db, &Marks::new());
        let (all, _) = full(&body.0, &db);
        assert_eq!(row_set(&delta), row_set(&all));
    }

    #[test]
    fn unchanged_database_gives_empty_delta_without_scanning() {
        let mut db = db_with_b(&[(1, 2), (2, 3)]);
        let body = compile("q(X, Z) :- b(X, Y), b(Y, Z)", &db);
        let w: Marks = db.watermarks();
        ensure_delta_indexes(&body, &mut db, &w);
        assert!(
            db.relation("b").unwrap().index(&[0]).is_none(),
            "a delta plan with nothing to scan builds no index"
        );
        let (delta, m) = since(&body, &db, &w);
        assert!(delta.rows.is_empty());
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

    /// A plan runs on a database over the schema it was compiled against
    /// only: over another — here one whose `b` sits at another position —
    /// it is refused, not run on whatever relation sits at its steps'
    /// positions.
    #[test]
    fn a_plan_refuses_a_database_of_another_schema() {
        let db = db_with_b(&[(1, 2)]);
        let (body, _) = compile("q(X) :- b(X, Y)", &db);
        let mut other =
            Database::new(DatabaseSchema::parse("a(x: int). b(x: int, y: int).").unwrap());
        other.insert_values("a", vec![Val::Int(9)]).unwrap();
        let mut m = EvalMetrics::default();
        let refused = execute_plan(&body.full, &other, 0, &mut m).unwrap_err();
        assert_eq!(refused, crate::Error::OtherSchema);
        assert_eq!(
            body.full.ensure_indexes(&mut other),
            Err(crate::Error::OtherSchema)
        );
        assert_eq!(full(&body, &db).0.rows.len(), 1);
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
