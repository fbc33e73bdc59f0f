//! Shared evaluation helpers: fragment evaluation, cross-fragment joins and
//! rule application. Used identically by the distributed peers (joining
//! shipped extensions at the head node) and by the global fix-point oracle
//! (joining local evaluations) — which is precisely why distributed results
//! can be compared against the oracle tuple-for-tuple.
//!
//! Both ends of a rule are compiled once: the body fragment into a
//! [`CompiledBody`] at the body node, the head into a [`CompiledHead`] at
//! the head node. A [`crate::peer::DbPeer`] takes both from its system's
//! [`p2p_relational::query::PlanCatalog`], where peers serving fragments or
//! chasing heads of one shape share one compiled copy, and the fragment and
//! the rule hold them. A fragment's rows are its plan's binding buffer, moved into a
//! [`RowSet`] that travels unchanged to the head, and a binding row reaches
//! the head database as one buffer fill per head atom; existential head
//! variables get their nulls in first-occurrence order. Fragment
//! extensions, join results and semi-naive unions are [`RowSet`]s too: no
//! join allocates a row or a key of its own.

use crate::error::CoreResult;
use crate::rule::{BodyPart, CoordinationRule};
use p2p_relational::chase::{ChaseConfig, ChaseOutcome, ChaseState};
use p2p_relational::query::ast::Term;
use p2p_relational::query::{
    evaluate_bindings, evaluate_bindings_since_planned, execute_plan, Bindings, Constraint,
    MarkTable,
};
use p2p_relational::{key_hash, Database, Index, NullFactory, RowSet, Val};
use std::sync::Arc;

pub use p2p_relational::chase::CompiledHead;
pub use p2p_relational::query::{CompiledBody, EvalMetrics};

/// A fragment's bindings as rows over `part.vars` (deduplicated,
/// deterministic order). A plan's slot table lists the fragment's variables
/// in first-occurrence order, and so does `part.vars` of every parsed rule:
/// then the binding rows *are* the rows over `part.vars`, and their buffer
/// becomes the set as it stands. Any other `vars` list (a hand-built
/// fragment) is projected.
fn part_rows(part: &BodyPart, bindings: Bindings) -> CoreResult<RowSet> {
    if bindings.vars == part.vars {
        return Ok(bindings.into_rows());
    }
    let head_terms: Vec<Term> = part.vars.iter().cloned().map(Term::Var).collect();
    Ok(bindings.project(&head_terms)?)
}

/// Evaluates one body fragment over a local database, returning rows over
/// `part.vars` (deduplicated, deterministic order).
pub fn eval_part(part: &BodyPart, db: &Database) -> CoreResult<RowSet> {
    let bindings = evaluate_bindings(&part.atoms, &part.local_constraints, db)?;
    part_rows(part, bindings)
}

/// Compiles one body fragment into a [`CompiledBody`] of its own (full plan
/// now, one semi-naive delta plan per atom on first use), for a caller
/// without a [`p2p_relational::query::PlanCatalog`] to take it from.
pub fn compile_part(part: &BodyPart, db: &Database) -> CoreResult<CompiledBody> {
    Ok(CompiledBody::compile(
        &part.atoms,
        &part.local_constraints,
        db,
    )?)
}

/// [`eval_part`] over an already compiled body. With `use_indexes` the
/// persistent indexes the full plan probes are created first where missing
/// (the only reason `db` is `&mut`; data is never modified); without it the
/// plan probes whatever indexes exist and builds transient ones otherwise.
pub fn eval_part_planned(
    body: &CompiledBody,
    part: &BodyPart,
    db: &mut Database,
    use_indexes: bool,
    metrics: &mut EvalMetrics,
) -> CoreResult<RowSet> {
    if use_indexes {
        body.full.ensure_indexes(db)?;
    }
    let bindings = execute_plan(&body.full, db, 0, metrics)?;
    part_rows(part, bindings)
}

/// Delta evaluation of one compiled body fragment: the rows over
/// `part.vars` derivable using at least one fact inserted at or after
/// `watermarks` (semi-naive, see [`evaluate_bindings_since_planned`]).
/// Always a subset of [`eval_part`] on the same database; together with the
/// rows shipped before the watermarks were taken it covers [`eval_part`]
/// exactly — which is what lets answers ship deltas instead of full
/// extensions. Each delta atom scans only its post-watermark suffix, so
/// with indexes in place cost is proportional to the delta. `use_indexes`
/// as in [`eval_part_planned`], for exactly the delta plans that have new
/// rows to scan.
pub fn eval_part_delta_planned(
    body: &CompiledBody,
    part: &BodyPart,
    db: &mut Database,
    watermarks: &(impl MarkTable + ?Sized),
    use_indexes: bool,
    metrics: &mut EvalMetrics,
) -> CoreResult<RowSet> {
    let (atoms, constraints) = (&part.atoms, &part.local_constraints);
    if use_indexes {
        body.ensure_delta_indexes(atoms, constraints, db, watermarks)?;
    }
    let bindings =
        evaluate_bindings_since_planned(body, atoms, constraints, db, watermarks, metrics)?;
    part_rows(part, bindings)
}

/// A set of rows tagged with their variable names.
#[derive(Debug, Clone, Default)]
pub struct VarRows {
    /// Column variables: a fragment's list, shared, or a join's own.
    pub vars: Arc<[Arc<str>]>,
    /// Rows over `vars`, `vars.len()` values each.
    pub rows: RowSet,
}

impl VarRows {
    /// Merges rows over `vars` into the set — at the head, every site that
    /// takes a fragment's shipped rows in goes through here — and returns
    /// where the genuinely new ones start: they are the suffix of `rows`
    /// from there. `vars` is taken while the set holds no row; rows over
    /// other columns than the ones it holds rows over belong to another
    /// version of the rule and change nothing (`None`).
    pub(crate) fn merge<'r>(
        &mut self,
        vars: &Arc<[Arc<str>]>,
        rows: impl IntoIterator<Item = &'r [Val]>,
    ) -> Option<usize> {
        if self.vars != *vars {
            if !self.rows.is_empty() {
                return None;
            }
            *self = VarRows {
                vars: Arc::clone(vars),
                rows: RowSet::new(vars.len()),
            };
        }
        let since = self.rows.len();
        self.rows.extend(rows);
        Some(since)
    }

    /// Borrows every row for a join.
    pub fn view(&self) -> RowsView<'_> {
        RowsView {
            vars: &self.vars,
            rows: &self.rows,
            start: 0,
        }
    }
}

/// A borrowed [`VarRows`], from a start position on: what the joins read.
/// The head node joins fragment extensions it keeps for many sessions, and
/// the newest rows of one of them, so the joins must not need their own
/// copy.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    /// Column variables.
    pub vars: &'a Arc<[Arc<str>]>,
    /// Rows over `vars`.
    pub rows: &'a RowSet,
    /// The first row in view: the view is `rows.since(start)`.
    pub start: usize,
}

/// Joins fragment extensions on their shared variables and filters by the
/// rule's join constraints; returns full bindings over the union of the
/// variables.
pub fn join_parts(parts: &[VarRows], join_constraints: &[Constraint]) -> VarRows {
    let views: Vec<RowsView<'_>> = parts.iter().map(VarRows::view).collect();
    join_views(&views, join_constraints)
}

/// [`join_parts`] over borrowed rows, left to right.
pub(crate) fn join_views(parts: &[RowsView<'_>], join_constraints: &[Constraint]) -> VarRows {
    let Some((first, rest)) = parts.split_first() else {
        return VarRows::default();
    };
    let mut acc: Option<VarRows> = None;
    for part in rest {
        let joined = hash_join(acc.as_ref().map_or(*first, VarRows::view), *part);
        let empty = joined.rows.is_empty();
        acc = Some(joined);
        if empty {
            break;
        }
    }
    let mut acc = acc.unwrap_or_else(|| {
        let mut rows = RowSet::new(first.vars.len());
        rows.extend(first.rows.since(first.start));
        VarRows {
            vars: Arc::clone(first.vars),
            rows,
        }
    });
    if !join_constraints.is_empty() {
        let holds = join_filter(&acc.vars, join_constraints);
        let mut kept = RowSet::new(acc.vars.len());
        kept.extend(acc.rows.iter().filter(|row| holds(row)));
        acc.rows = kept;
    }
    acc
}

/// A rule's cross-fragment constraints over binding rows of `vars`: whether
/// a row satisfies every one. A constraint over a variable `vars` lacks
/// holds for no row.
pub(crate) fn join_filter(
    vars: &[Arc<str>],
    join_constraints: &[Constraint],
) -> impl Fn(&[Val]) -> bool {
    // A side is a constant (`Ok`) or a binding column (`Err`).
    let side = |t: &Term| match t {
        Term::Const(c) => Some(Ok(*c)),
        Term::Var(v) => vars.iter().position(|x| x == v).map(Err),
    };
    let sides: Option<Vec<_>> = (join_constraints.iter())
        .map(|c| Some((side(&c.lhs)?, c.op, side(&c.rhs)?)))
        .collect();
    move |row| {
        let val = |side: Result<Val, usize>| side.unwrap_or_else(|col| row[col]);
        (sides.as_ref())
            .is_some_and(|s| (s.iter()).all(|&(l, op, r)| op.certainly_holds(&val(l), &val(r))))
    }
}

/// One fragment's state at the head node: the accumulated full extension,
/// whose rows from `since` on are the ones that just arrived — the delta is
/// a suffix of the full extension.
#[derive(Debug, Clone, Copy)]
pub struct PartDelta<'a> {
    /// Accumulated extension so far (including the delta).
    pub full: RowsView<'a>,
    /// Where the newly arrived rows start in `full.rows`.
    pub since: usize,
}

/// Semi-naive join expansion over fragments with deltas: for each
/// fragment, joins its *delta* against the other fragments' accumulated
/// *fulls*, and unions the per-fragment results (deduplicated). Any binding
/// using at least one new row is produced; bindings entirely over old rows
/// were produced when the last of their rows arrived. Fragments whose delta
/// is empty contribute no term of their own but still participate as fulls.
/// Each term starts from its delta, so its intermediate results stay
/// proportional to the delta, not to the product of the fulls; columns come
/// out in first-occurrence order over `parts`, whichever term produced them.
/// Allocates only buffers that grow by doubling, never a row of its own.
pub fn join_parts_seminaive(parts: &[PartDelta<'_>], join_constraints: &[Constraint]) -> VarRows {
    let mut vars: Vec<Arc<str>> = Vec::new();
    for p in parts {
        for v in p.full.vars.iter() {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
    }
    let mut rows = RowSet::new(vars.len());
    let mut vals: Vec<Val> = Vec::new();
    for (i, p) in parts.iter().enumerate() {
        let delta = RowsView {
            start: p.since,
            ..p.full
        };
        if delta.start >= delta.rows.len() {
            continue;
        }
        let mut staged = vec![delta];
        staged.extend(
            parts
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, q)| q.full),
        );
        let joined = join_views(&staged, join_constraints);
        if joined.rows.is_empty() {
            continue;
        }
        // A non-empty join went through every fragment, so it binds every
        // variable; its columns start with this term's delta.
        let column: Vec<usize> = vars
            .iter()
            .filter_map(|v| joined.vars.iter().position(|jv| jv == v))
            .collect();
        debug_assert_eq!(column.len(), vars.len());
        for row in joined.rows.iter() {
            vals.clear();
            vals.extend(column.iter().map(|&c| row[c]));
            rows.insert(&vals);
        }
    }
    VarRows {
        vars: vars.into(),
        rows,
    }
}

fn hash_join(left: RowsView<'_>, right: RowsView<'_>) -> VarRows {
    // Shared variables and the right-only variables to append.
    let shared: Vec<(usize, usize)> = left
        .vars
        .iter()
        .enumerate()
        .filter_map(|(li, v)| right.vars.iter().position(|rv| rv == v).map(|ri| (li, ri)))
        .collect();
    let right_only: Vec<usize> = (0..right.vars.len())
        .filter(|ri| !shared.iter().any(|(_, r)| r == ri))
        .collect();

    let vars: Arc<[Arc<str>]> = (left.vars.iter().cloned())
        .chain(right_only.iter().map(|&ri| right.vars[ri].clone()))
        .collect();

    // Index the rows in view on the right on the shared projection (a
    // candidate's position counts from `right.start`); collisions are
    // resolved by re-comparing the shared columns at probe time.
    let right_cols: Vec<usize> = shared.iter().map(|&(_, ri)| ri).collect();
    let index = Index::build(&right_cols, right.rows.since(right.start));

    let mut rows = RowSet::new(vars.len());
    let mut vals: Vec<Val> = Vec::with_capacity(vars.len());
    for lrow in left.rows.since(left.start) {
        let hash = key_hash(shared.iter().map(|&(li, _)| &lrow[li]));
        for pos in index.candidates(hash) {
            let rrow = right.rows.row(right.start + pos as usize);
            if shared.iter().any(|&(li, ri)| lrow[li] != rrow[ri]) {
                continue; // Hash collision on the shared projection.
            }
            vals.clear();
            vals.extend_from_slice(lrow);
            vals.extend(right_only.iter().map(|&ri| rrow[ri]));
            rows.insert(&vals);
        }
    }
    VarRows { vars, rows }
}

/// Applies a rule's head to `head_db` for every joined binding, compiling
/// the head for this one call (the oracle and the baselines; a peer keeps
/// its compiled heads). Returns the aggregate chase outcome; no binding
/// means no work and no error.
pub fn apply_rule_head(
    rule: &CoordinationRule,
    bindings: &VarRows,
    head_db: &mut Database,
    nulls: &mut NullFactory,
    chase: &mut ChaseState,
    cfg: &ChaseConfig,
) -> CoreResult<ChaseOutcome> {
    if bindings.rows.is_empty() {
        return Ok(ChaseOutcome::default());
    }
    let head = CompiledHead::compile(&rule.head, &bindings.vars, head_db.schema())?;
    Ok(head.apply_rows(head_db, bindings.rows.iter(), nulls, chase, cfg)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::CoordinationRule;
    use p2p_relational::query::Idents;
    use p2p_relational::query::Marks;
    use p2p_relational::DatabaseSchema;
    use p2p_topology::NodeId;
    use std::collections::HashSet;

    fn resolve(s: &str) -> Option<NodeId> {
        match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            "C" => Some(NodeId(2)),
            _ => None,
        }
    }

    fn vr(vars: &[&str], rows: &[&[i64]]) -> VarRows {
        let mut set = RowSet::new(vars.len());
        for r in rows {
            set.insert(&r.iter().map(|&v| Val::Int(v)).collect::<Vec<_>>());
        }
        VarRows {
            vars: vars.iter().map(|v| Arc::from(*v)).collect(),
            rows: set,
        }
    }

    /// The rows of `v`, as a set.
    fn set(v: &VarRows) -> HashSet<&[Val]> {
        v.rows.iter().collect()
    }

    #[test]
    fn join_on_shared_variable() {
        let left = vr(&["X", "Y"], &[&[1, 2], &[3, 4]]);
        let right = vr(&["Y", "Z"], &[&[2, 9], &[2, 8], &[5, 7]]);
        let out = join_parts(&[left, right], &[]);
        assert_eq!(
            out.vars[..],
            [Arc::<str>::from("X"), Arc::from("Y"), Arc::from("Z")]
        );
        assert_eq!(out.rows.len(), 2); // (1,2,9), (1,2,8)
    }

    #[test]
    fn join_without_shared_vars_is_cross_product() {
        let left = vr(&["X"], &[&[1], &[2]]);
        let right = vr(&["Y"], &[&[7], &[8]]);
        let out = join_parts(&[left, right], &[]);
        assert_eq!(out.rows.len(), 4);
    }

    #[test]
    fn join_constraints_filter() {
        use p2p_relational::query::ast::CmpOp;
        let left = vr(&["X"], &[&[1], &[5]]);
        let right = vr(&["Y"], &[&[3]]);
        let c = Constraint {
            lhs: Term::var("X"),
            op: CmpOp::Lt,
            rhs: Term::var("Y"),
        };
        let out = join_parts(&[left, right], &[c]);
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows.row(0)[0], Val::Int(1));
    }

    #[test]
    fn empty_parts_join_to_empty() {
        assert!(join_parts(&[], &[]).rows.is_empty());
        let left = vr(&["X"], &[]);
        let right = vr(&["X"], &[&[1]]);
        assert!(join_parts(&[left, right], &[]).rows.is_empty());
    }

    #[test]
    fn eval_part_projects_part_vars() {
        let mut db = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        db.insert_values("b", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        db.insert_values("b", vec![Val::Int(1), Val::Int(3)])
            .unwrap();
        let rule = CoordinationRule::parse(
            "r",
            "B:b(X,Y), B:b(Y,Z) => A:a(X,Z)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let rows = eval_part(&rule.parts[0], &db).unwrap();
        // Vars X, Y, Z (first-occurrence order); b(1,2)⋈b(2,…) empty; only
        // chains… b(1,2),b(2,?) none; b(1,3),b(3,?) none → 0 rows? No wait:
        // rows are over the *part* whose atoms are both b-atoms: bindings
        // where b(X,Y) and b(Y,Z) both hold: none here.
        assert!(rows.is_empty());
        db.insert_values("b", vec![Val::Int(2), Val::Int(9)])
            .unwrap();
        let rows = eval_part(&rule.parts[0], &db).unwrap();
        assert_eq!(rows.len(), 1); // X=1, Y=2, Z=9
        assert_eq!(rows.arity(), 3);
    }

    #[test]
    fn seminaive_join_covers_exactly_the_new_bindings() {
        // Full join "before": X–Y from part 1, Y–Z from part 2.
        let left_old = vr(&["X", "Y"], &[&[1, 2]]);
        let right_old = vr(&["Y", "Z"], &[&[2, 9]]);
        let before = join_parts(&[left_old.clone(), right_old.clone()], &[]);
        assert_eq!(before.rows.len(), 1);

        // A delta arrives on each side: the suffix of its full extension.
        let left_full = vr(&["X", "Y"], &[&[1, 2], &[3, 2]]);
        let right_full = vr(&["Y", "Z"], &[&[2, 9], &[2, 8]]);
        let new = join_parts_seminaive(
            &[
                PartDelta {
                    full: left_full.view(),
                    since: 1,
                },
                PartDelta {
                    full: right_full.view(),
                    since: 1,
                },
            ],
            &[],
        );
        // (old ∪ new) == full join of the full extensions.
        let full = join_parts(&[left_full, right_full], &[]);
        let mut union = set(&before);
        union.extend(set(&new));
        assert_eq!(union, set(&full));
        // The purely-old combination (1,2,9) is not re-derived.
        assert!(!new.rows.contains(&[Val::Int(1), Val::Int(2), Val::Int(9)]));
    }

    #[test]
    fn seminaive_join_with_all_deltas_empty_is_empty() {
        let left = vr(&["X", "Y"], &[&[1, 2]]);
        let right = vr(&["Y", "Z"], &[&[2, 9]]);
        let out = join_parts_seminaive(
            &[
                PartDelta {
                    full: left.view(),
                    since: 1,
                },
                PartDelta {
                    full: right.view(),
                    since: 1,
                },
            ],
            &[],
        );
        assert!(out.rows.is_empty());
    }

    #[test]
    fn a_planned_delta_is_a_subset_completing_the_old_eval() {
        let mut db = Database::new(DatabaseSchema::parse("b(x: int, y: int).").unwrap());
        db.insert_values("b", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        let rule = CoordinationRule::parse(
            "r",
            "B:b(X,Y), B:b(Y,Z) => A:a(X,Z)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let part = &rule.parts[0];
        let body = compile_part(part, &db).unwrap();
        let before = eval_part(part, &db).unwrap();
        let w: Marks = db.watermarks();
        db.insert_values("b", vec![Val::Int(2), Val::Int(9)])
            .unwrap();
        let m = &mut EvalMetrics::default();
        let delta = eval_part_delta_planned(&body, part, &mut db, &w, false, m).unwrap();
        let after = eval_part(&rule.parts[0], &db).unwrap();
        let mut union: HashSet<&[Val]> = before.iter().collect();
        union.extend(delta.iter());
        assert_eq!(union, after.iter().collect());
    }

    #[test]
    fn apply_rule_head_chases_each_binding() {
        let rule = CoordinationRule::parse(
            "r",
            "B:b(X,Y) => A:a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let mut head_db = Database::new(DatabaseSchema::parse("a(x: int, y: int).").unwrap());
        let mut nulls = NullFactory::new(0);
        let mut chase = ChaseState::new();
        let cfg = ChaseConfig::default();
        let bindings = vr(&["X", "Y"], &[&[1, 2], &[3, 4]]);
        let out =
            apply_rule_head(&rule, &bindings, &mut head_db, &mut nulls, &mut chase, &cfg).unwrap();
        assert_eq!(out.inserted, 2);
        // Idempotent.
        let out2 =
            apply_rule_head(&rule, &bindings, &mut head_db, &mut nulls, &mut chase, &cfg).unwrap();
        assert!(out2.is_empty());
    }
}
