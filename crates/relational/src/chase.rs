//! Restricted-chase application of rule heads (the paper's algorithm A6,
//! `UpdateLocalData`).
//!
//! Given a binding of the rule body's variables, the head conjunction is
//! instantiated: universal variables take their bound values, existential
//! variables get **fresh labeled nulls** — *unless* the database already
//! satisfies the instantiated head up to a homomorphism of the existential
//! positions, in which case nothing is inserted. This is the paper's
//!
//! > `if π_R(t) ¬∈ R insert (π_R(t)) into R with new values for existential`
//!
//! strengthened to the standard *restricted chase*, which is what actually
//! bounds null invention. A configurable null-derivation-depth limit guards
//! against rule sets that are not weakly acyclic (on which any chase may
//! diverge; see `p2p-core`'s weak-acyclicity checker).
//!
//! A head is compiled once per head shape, binding layout and schema
//! ([`CompiledHead`], shared through a [`PlanCatalog`]): each head column is
//! resolved to a binding column, a constant or an existential slot, so a
//! binding row costs one buffer fill per head atom — in the caller's
//! [`ChaseState`], a compiled head holds none — and nothing per fact
//! inserted beyond the relation's own storage: a fact lives in its
//! relation, and the chase only counts it ([`ChaseOutcome`]). A caller that
//! needs the new facts themselves (a durable peer's log) reads the rows past
//! the lengths it noted before. Existential variables get their nulls in
//! first-occurrence order over the head, which makes the chase — and every
//! database it writes — a deterministic function of its inputs.

use crate::database::Database;
use crate::error::{Error, Result};
use crate::fxhash::fx_hash;
use crate::query::ast::{Atom, Constraint, Term};
use crate::query::eval::evaluate_bindings;
use crate::query::plan::PlanCatalog;
use crate::relation::Relation;
use crate::schema::DatabaseSchema;
use crate::value::{NullFactory, NullId, Val};
use std::collections::HashMap;
use std::sync::Arc;

/// Chase configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// Maximum null-derivation depth: a null invented from a binding whose
    /// deepest null has depth `d` gets depth `d + 1`; exceeding the limit is
    /// an error rather than a hang. Depth 0 = invented from a null-free
    /// binding.
    pub max_null_depth: u32,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        // Generous: weakly-acyclic rule sets never get anywhere near this,
        // while a diverging chase hits it quickly.
        ChaseConfig { max_null_depth: 64 }
    }
}

/// Tracks null derivation depths across chase steps; owned by whoever owns
/// the [`NullFactory`] (one per peer). Also holds the buffers a head
/// application reuses from row to row, since a [`CompiledHead`] is shared
/// and holds none.
#[derive(Debug, Clone, Default)]
pub struct ChaseState {
    depths: HashMap<NullId, u32>,
    /// The fact being instantiated (never allocated while every head atom
    /// copies its row).
    fact: Vec<Val>,
    /// One per distinct existential variable of the head being applied: the
    /// satisfaction search's assignment, then the nulls minted.
    slots: Vec<Option<Val>>,
}

impl ChaseState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the depth of a null received from elsewhere (e.g. carried by
    /// an answer message). Unknown nulls default to depth 0, so recording is
    /// only needed when the sender communicates depth — our peers do.
    pub fn record(&mut self, id: NullId, depth: u32) {
        let entry = self.depths.entry(id).or_insert(depth);
        if depth > *entry {
            *entry = depth;
        }
    }

    /// Depth of a value: nulls as recorded (unknown ⇒ 0), constants 0.
    pub fn depth_of(&self, v: &Val) -> u32 {
        match v {
            Val::Null(id) => self.depths.get(id).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Exports every recorded `(null, depth)` pair in deterministic order —
    /// the persistence layer snapshots this alongside the database so a
    /// recovered peer keeps the global depth safety valve intact.
    pub fn export(&self) -> Vec<(NullId, u32)> {
        let mut out: Vec<(NullId, u32)> = self.depths.iter().map(|(id, d)| (*id, *d)).collect();
        out.sort_unstable();
        out
    }

    /// Exports known depths for the nulls of a row (for logging along with
    /// the fact).
    pub fn depths_for(&self, row: &[Val]) -> Vec<(NullId, u32)> {
        row.iter()
            .filter_map(|v| match v {
                Val::Null(id) => Some((*id, self.depth_of(v))),
                _ => None,
            })
            .collect()
    }
}

/// Outcome of one head application: counts only — the facts themselves
/// are in their relations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseOutcome {
    /// Number of facts actually inserted.
    pub inserted: usize,
    /// Number of fresh nulls minted.
    pub nulls_minted: usize,
}

impl ChaseOutcome {
    /// True iff nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }
}

/// Where one head column's value comes from, fixed when the head is
/// compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// A universal variable: this column of the binding row.
    Bound(usize),
    /// A constant of the head text.
    Const(Val),
    /// An existential variable: the `k`-th distinct one of the head, counted
    /// in first-occurrence order.
    Fresh(usize),
}

/// One compiled head atom.
#[derive(Debug, Clone)]
struct HeadAtom {
    /// Where the atom's relation sits in the head's schema.
    at: usize,
    /// One source per column.
    cols: Box<[Source]>,
    /// `cols` reads the binding row column for column (a copy rule's
    /// head): the row itself is the fact.
    copy: bool,
    /// The existential slots that occur first in this atom — what matching
    /// it binds in the satisfaction search, and resets when backtracking.
    binds: Box<[usize]>,
}

/// A rule head compiled once against a binding layout (the variables of
/// the rows it will be applied to, in column order) and the head
/// database's schema — the head-side counterpart of a compiled body plan.
///
/// Every head column becomes a binding column, a constant or an existential
/// slot, so applying the head to a row is filling one reused buffer per atom
/// (or, for an atom that copies the row, not even that) and inserting it:
/// no per-row map, pattern or value vector, and nothing for an inserted
/// fact beyond its relation's storage, where it lives. Heads without
/// existential variables skip the satisfaction guard (inserting an existing
/// fact is a no-op anyway); heads with them run it, and mint one fresh null
/// per existential variable in first-occurrence order, so which column gets
/// which null is a function of the head text alone. Immutable once
/// compiled — the per-row buffers are the caller's [`ChaseState`]'s — so
/// one head serves every peer of a system that chases heads of its shape
/// ([`PlanCatalog::head`]).
#[derive(Debug, Clone)]
pub struct CompiledHead {
    /// The schema compiled against (a refcount): the head applies to a
    /// database over an equal one only, by its atoms' relation positions.
    schema: DatabaseSchema,
    vars: Box<[Arc<str>]>,
    atoms: Box<[HeadAtom]>,
    /// Distinct existential variables.
    existentials: usize,
}

impl CompiledHead {
    /// Compiles `head` (unqualified atoms over `schema`) for binding rows over
    /// `vars`: head variables in `vars` are universal, the rest existential.
    ///
    /// Errors, atom by atom, on a qualified atom, an unknown relation or an
    /// arity mismatch.
    pub fn compile(head: &[Atom], vars: &[Arc<str>], schema: &DatabaseSchema) -> Result<Self> {
        let mut existential: Vec<&Arc<str>> = Vec::new();
        let mut atoms = Vec::with_capacity(head.len());
        for atom in head {
            if atom.qualifier.is_some() {
                return Err(Error::QualifiedAtom(atom.to_string()));
            }
            let relation = schema.relation_or_err(&atom.relation)?;
            let at = schema.position(&atom.relation).expect("declared");
            if relation.arity() != atom.terms.len() {
                return Err(Error::ArityMismatch {
                    relation: atom.relation.to_string(),
                    expected: relation.arity(),
                    got: atom.terms.len(),
                });
            }
            let mut binds = Vec::new();
            let cols: Box<[Source]> = (atom.terms.iter())
                .map(|t| match t {
                    Term::Const(c) => Source::Const(*c),
                    Term::Var(v) => match vars.iter().position(|b| b == v) {
                        Some(col) => Source::Bound(col),
                        None => Source::Fresh(match existential.iter().position(|e| *e == v) {
                            Some(k) => k,
                            None => {
                                existential.push(v);
                                binds.push(existential.len() - 1);
                                existential.len() - 1
                            }
                        }),
                    },
                })
                .collect();
            let copy = cols.len() == vars.len()
                && (cols.iter().enumerate()).all(|(c, col)| *col == Source::Bound(c));
            atoms.push(HeadAtom {
                at,
                cols,
                copy,
                binds: binds.into(),
            });
        }
        Ok(CompiledHead {
            schema: schema.clone(),
            vars: vars.into(),
            atoms: atoms.into(),
            existentials: existential.len(),
        })
    }

    /// The binding layout the head was compiled for.
    pub fn vars(&self) -> &[Arc<str>] {
        &self.vars
    }

    /// Applies the head to one binding row over [`CompiledHead::vars`],
    /// adding the facts it inserted and the nulls it minted to `out`'s
    /// counts.
    ///
    /// With existential variables the restricted-chase guard runs first:
    /// when the database already satisfies the instantiated head up to a
    /// homomorphism of the existential positions nothing is inserted.
    /// Otherwise fresh nulls are minted one derivation level deeper than the
    /// row's deepest null, or [`Error::ChaseDepthExceeded`] is returned. A
    /// fact failing its relation's column types is an error; facts of
    /// earlier atoms stay inserted. A database over another schema than the
    /// head's is [`Error::OtherSchema`].
    pub fn apply(
        &self,
        db: &mut Database,
        row: &[Val],
        nulls: &mut NullFactory,
        state: &mut ChaseState,
        config: &ChaseConfig,
        out: &mut ChaseOutcome,
    ) -> Result<()> {
        debug_assert_eq!(row.len(), self.vars.len());
        let relations = db.relations_of_mut(&self.schema)?;
        state.slots.clear();
        state.slots.resize(self.existentials, None);
        if self.existentials > 0 {
            if satisfied(&self.atoms, row, relations, &mut state.slots) {
                return Ok(());
            }
            // The new nulls derive from the row's deepest null.
            let depth = row.iter().map(|v| state.depth_of(v)).max().unwrap_or(0) + 1;
            if depth > config.max_null_depth {
                return Err(Error::ChaseDepthExceeded {
                    limit: config.max_null_depth,
                });
            }
            for k in 0..self.existentials {
                let null = nulls.fresh();
                if let Val::Null(id) = null {
                    state.record(id, depth);
                }
                state.slots[k] = Some(null);
            }
            out.nulls_minted += self.existentials;
        }
        for atom in self.atoms.iter() {
            let values: &[Val] = if atom.copy {
                row
            } else {
                state.fact.clear();
                state.fact.extend(atom.cols.iter().map(|col| match *col {
                    Source::Bound(c) => row[c],
                    Source::Const(v) => v,
                    Source::Fresh(k) => state.slots[k].expect("minted above"),
                }));
                &state.fact
            };
            let relation = &mut relations[atom.at];
            relation.schema().check(values)?;
            out.inserted += usize::from(relation.insert_row(values));
        }
        Ok(())
    }

    /// [`CompiledHead::apply`] over every row, in order.
    pub fn apply_rows<'r>(
        &self,
        db: &mut Database,
        rows: impl IntoIterator<Item = &'r [Val]>,
        nulls: &mut NullFactory,
        state: &mut ChaseState,
        config: &ChaseConfig,
    ) -> Result<ChaseOutcome> {
        let mut out = ChaseOutcome::default();
        for row in rows {
            self.apply(db, row, nulls, state, config, &mut out)?;
        }
        Ok(out)
    }
}

/// One shared head and the head text it was compiled from (its binding
/// layout and schema are the head's own).
pub(crate) struct HeadEntry {
    head: Box<[Atom]>,
    compiled: Arc<CompiledHead>,
}

impl PlanCatalog {
    /// The head [`CompiledHead::compile`] would compile for these
    /// arguments: the catalog's entry when it holds one, else compiled and
    /// entered.
    pub fn head(
        &self,
        head: &[Atom],
        vars: &[Arc<str>],
        schema: &DatabaseSchema,
    ) -> Result<Arc<CompiledHead>> {
        let hash = fx_hash(&(head, vars));
        let mut entries = self.heads.lock().expect("no compile panics");
        let hit = (entries.get(&hash).into_iter().flatten()).find(|e| {
            *e.head == *head && e.compiled.vars() == vars && e.compiled.schema == *schema
        });
        if let Some(entry) = hit {
            return Ok(Arc::clone(&entry.compiled));
        }
        let compiled = Arc::new(CompiledHead::compile(head, vars, schema)?);
        entries.entry(hash).or_default().push(HeadEntry {
            head: head.into(),
            compiled: Arc::clone(&compiled),
        });
        Ok(compiled)
    }
}

/// The restricted-chase guard: true iff some assignment of the existential
/// slots makes every atom of `atoms`, instantiated under `row`, a fact of
/// `relations` (a database's, in the head's schema order), with `slots` all
/// `None` on entry. Backtracking over the atoms in order (heads are 1–3
/// atoms); every slot an atom binds is unbound again before its next
/// candidate fact.
fn satisfied(
    atoms: &[HeadAtom],
    row: &[Val],
    relations: &[Relation],
    slots: &mut [Option<Val>],
) -> bool {
    let Some((atom, rest)) = atoms.split_first() else {
        return true;
    };
    'facts: for candidate in relations[atom.at].iter() {
        for (col, value) in atom.cols.iter().zip(candidate) {
            let matches = match *col {
                Source::Bound(c) => row[c] == *value,
                Source::Const(v) => v == *value,
                Source::Fresh(k) => match slots[k] {
                    Some(bound) => bound == *value,
                    None => {
                        slots[k] = Some(*value);
                        true
                    }
                },
            };
            if !matches {
                unbind(slots, &atom.binds);
                continue 'facts;
            }
        }
        if satisfied(rest, row, relations, slots) {
            return true;
        }
        unbind(slots, &atom.binds);
    }
    false
}

fn unbind(slots: &mut [Option<Val>], binds: &[usize]) {
    for &k in binds {
        slots[k] = None;
    }
}

/// Evaluates a rule entirely locally (body and head over the same database)
/// and chases every binding. Used by tests and benches; the distributed
/// layer and the global fix-point oracle evaluate bodies per node and apply
/// a [`CompiledHead`] to the joined bindings.
pub fn apply_rule_local(
    db: &mut Database,
    body: &[Atom],
    constraints: &[Constraint],
    head: &[Atom],
    nulls: &mut NullFactory,
    state: &mut ChaseState,
    config: &ChaseConfig,
) -> Result<ChaseOutcome> {
    let bindings = evaluate_bindings(body, constraints, db)?;
    if bindings.rows.is_empty() {
        return Ok(ChaseOutcome::default());
    }
    let head = CompiledHead::compile(head, &bindings.vars, db.schema())?;
    head.apply_rows(db, bindings.rows.iter(), nulls, state, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parser::{parse_atom, parse_query};

    fn db() -> Database {
        Database::new(
            DatabaseSchema::parse("b(x: int, y: int). c(x: int, y: int). s(x: int).").unwrap(),
        )
    }

    fn setup() -> (Database, NullFactory, ChaseState, ChaseConfig) {
        (
            db(),
            NullFactory::new(9),
            ChaseState::new(),
            ChaseConfig::default(),
        )
    }

    /// One binding row: its variables and their values.
    fn bind(pairs: &[(&str, Val)]) -> (Vec<Arc<str>>, Vec<Val>) {
        pairs
            .iter()
            .map(|(k, v)| (Arc::<str>::from(*k), *v))
            .unzip()
    }

    /// A head applies to a database over the schema it was compiled for
    /// only: over another, where `s` sits at another position, nothing is
    /// inserted anywhere.
    #[test]
    fn a_head_refuses_a_database_of_another_schema() {
        let (d, mut nulls, mut state, config) = setup();
        let head = [parse_atom("s(X)").unwrap()];
        let compiled = CompiledHead::compile(&head, &[Arc::from("X")], d.schema()).unwrap();
        let mut other = Database::new(DatabaseSchema::parse("a(x: int). s(x: int).").unwrap());
        let mut out = ChaseOutcome::default();
        let row = [Val::Int(1)];
        let refused = compiled.apply(&mut other, &row, &mut nulls, &mut state, &config, &mut out);
        assert_eq!(refused, Err(Error::OtherSchema));
        assert!(other.is_empty() && out.is_empty());
    }

    /// Compiles `head` for the binding's layout and applies it to its row.
    fn apply_head(
        db: &mut Database,
        head: &[Atom],
        (vars, row): &(Vec<Arc<str>>, Vec<Val>),
        nulls: &mut NullFactory,
        state: &mut ChaseState,
        config: &ChaseConfig,
    ) -> Result<ChaseOutcome> {
        let compiled = CompiledHead::compile(head, vars, db.schema())?;
        compiled.apply_rows(db, [&row[..]], nulls, state, config)
    }

    #[test]
    fn nulls_are_minted_in_first_occurrence_order() {
        // The shape of `B:b(X) => A:a(X,P,Q,R)`: three existentials. Each
        // application starts from a fresh database and a fresh mint, so each
        // must write the very same fact.
        let head = vec![parse_atom("a(X, P, Q, R)").unwrap()];
        let schema = DatabaseSchema::parse("a(x: int, p: int, q: int, r: int).").unwrap();
        let mut expected_mint = NullFactory::new(0);
        let expected: Vec<Val> = std::iter::once(Val::Int(1))
            .chain((0..3).map(|_| expected_mint.fresh()))
            .collect();
        for _ in 0..32 {
            let mut d = Database::new(schema.clone());
            let (mut nf, mut st) = (NullFactory::new(0), ChaseState::new());
            let b = bind(&[("X", Val::Int(1))]);
            let o =
                apply_head(&mut d, &head, &b, &mut nf, &mut st, &ChaseConfig::default()).unwrap();
            assert_eq!((o.inserted, o.nulls_minted), (1, 3));
            assert_eq!(d.relation("a").unwrap().row(0), &expected[..]);
        }
    }

    #[test]
    fn ground_head_skips_the_guard_but_not_the_types() {
        let (mut d, mut nf, mut st, cfg) = setup();
        // c(1, 2) present, s(7) not: the head is not satisfied, and only the
        // missing fact is inserted.
        d.insert_values("c", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        let head = vec![parse_atom("c(X, Y)").unwrap(), parse_atom("s(7)").unwrap()];
        let b = bind(&[("X", Val::Int(1)), ("Y", Val::Int(2))]);
        let o = apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg).unwrap();
        assert_eq!(o.inserted, 1);
        assert_eq!(d.relation("s").unwrap().row(0), [Val::Int(7)]);
        // A value of the wrong type is rejected, not stored.
        let b = bind(&[("X", Val::str("x")), ("Y", Val::Int(2))]);
        assert!(matches!(
            apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg),
            Err(Error::TypeMismatch { .. })
        ));
        assert_eq!(d.relation("c").unwrap().len(), 1);
    }

    #[test]
    fn ground_head_inserts_once() {
        let (mut d, mut nf, mut st, cfg) = setup();
        let head = vec![parse_atom("c(X, Y)").unwrap()];
        let b = bind(&[("X", Val::Int(1)), ("Y", Val::Int(2))]);
        let o1 = apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg).unwrap();
        assert_eq!((o1.inserted, o1.nulls_minted), (1, 0));
        // Second application: guard fires, nothing inserted.
        let o2 = apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg).unwrap();
        assert!(o2.is_empty());
    }

    #[test]
    fn existential_head_invents_null_once() {
        let (mut d, mut nf, mut st, cfg) = setup();
        // c(X, Z) with Z existential — the shape of paper rule r2.
        let head = vec![parse_atom("c(X, Z)").unwrap()];
        let b = bind(&[("X", Val::Int(1))]);
        let o1 = apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg).unwrap();
        assert_eq!((o1.inserted, o1.nulls_minted), (1, 1));
        assert!(d.relation("c").unwrap().row(0)[1].is_null());
        // Guard: c(1, _) already homomorphically satisfied.
        let o2 = apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg).unwrap();
        assert!(o2.is_empty());
        assert_eq!(d.relation("c").unwrap().len(), 1);
    }

    #[test]
    fn existing_constant_satisfies_existential_head() {
        let (mut d, mut nf, mut st, cfg) = setup();
        d.insert_values("c", vec![Val::Int(1), Val::Int(42)])
            .unwrap();
        let head = vec![parse_atom("c(X, Z)").unwrap()];
        let b = bind(&[("X", Val::Int(1))]);
        // c(1, 42) already witnesses c(1, ∃Z): no insertion.
        let o = apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg).unwrap();
        assert!(o.is_empty());
    }

    #[test]
    fn shared_existential_across_head_atoms_uses_one_null() {
        let (mut d, mut nf, mut st, cfg) = setup();
        let head = vec![parse_atom("c(X, Z)").unwrap(), parse_atom("s(Z)").unwrap()];
        let b = bind(&[("X", Val::Int(3))]);
        let o = apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg).unwrap();
        assert_eq!((o.inserted, o.nulls_minted), (2, 1));
        let z1 = d.relation("c").unwrap().row(0)[1];
        let z2 = d.relation("s").unwrap().row(0)[0];
        assert_eq!(z1, z2);
    }

    #[test]
    fn joint_satisfaction_required_for_multi_atom_head() {
        let (mut d, mut nf, mut st, cfg) = setup();
        // c(3, 42) exists but s(42) does not: the conjunction c(3,Z) ∧ s(Z)
        // is NOT satisfied, so the chase must fire.
        d.insert_values("c", vec![Val::Int(3), Val::Int(42)])
            .unwrap();
        let head = vec![parse_atom("c(X, Z)").unwrap(), parse_atom("s(Z)").unwrap()];
        let b = bind(&[("X", Val::Int(3))]);
        let o = apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg).unwrap();
        assert_eq!(o.nulls_minted, 1);
        assert_eq!(d.relation("c").unwrap().len(), 2);
        assert_eq!(d.relation("s").unwrap().len(), 1);
    }

    #[test]
    fn apply_rule_local_computes_all_bindings() {
        let (mut d, mut nf, mut st, cfg) = setup();
        d.insert_values("b", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        d.insert_values("b", vec![Val::Int(2), Val::Int(3)])
            .unwrap();
        // c(X, Y) :- b(X, Y) — plain copy rule.
        let q = parse_query("q(X, Y) :- b(X, Y)").unwrap();
        let head = vec![parse_atom("c(X, Y)").unwrap()];
        let o = apply_rule_local(
            &mut d,
            &q.atoms,
            &q.constraints,
            &head,
            &mut nf,
            &mut st,
            &cfg,
        )
        .unwrap();
        assert_eq!(o.inserted, 2);
        // Idempotent.
        let o2 = apply_rule_local(
            &mut d,
            &q.atoms,
            &q.constraints,
            &head,
            &mut nf,
            &mut st,
            &cfg,
        )
        .unwrap();
        assert!(o2.is_empty());
    }

    #[test]
    fn depth_guard_stops_diverging_chase() {
        // Diverging pair: b(X,Y) => c(Y,Z) and c(X,Y) => b(Y,Z) — each round
        // inserts a fact whose key is last round's fresh null. Not weakly
        // acyclic; the depth limit must stop it.
        let (mut d, mut nf, mut st, _) = setup();
        let cfg = ChaseConfig { max_null_depth: 5 };
        d.insert_values("b", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        let r1_body = parse_query("q(X, Y) :- b(X, Y)").unwrap();
        let r1_head = vec![parse_atom("c(Y, Z)").unwrap()];
        let r2_body = parse_query("q(X, Y) :- c(X, Y)").unwrap();
        let r2_head = vec![parse_atom("b(Y, Z)").unwrap()];
        let mut hit_limit = false;
        for _ in 0..100 {
            let a = apply_rule_local(
                &mut d,
                &r1_body.atoms,
                &[],
                &r1_head,
                &mut nf,
                &mut st,
                &cfg,
            );
            let b = apply_rule_local(
                &mut d,
                &r2_body.atoms,
                &[],
                &r2_head,
                &mut nf,
                &mut st,
                &cfg,
            );
            match (a, b) {
                (Err(Error::ChaseDepthExceeded { .. }), _)
                | (_, Err(Error::ChaseDepthExceeded { .. })) => {
                    hit_limit = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(hit_limit, "depth guard should have fired");
    }

    #[test]
    fn head_with_constant_terms() {
        let (mut d, mut nf, mut st, cfg) = setup();
        let head = vec![parse_atom("c(X, 99)").unwrap()];
        let b = bind(&[("X", Val::Int(1))]);
        let o = apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg).unwrap();
        assert_eq!(o.inserted, 1);
        assert_eq!(d.relation("c").unwrap().row(0), [Val::Int(1), Val::Int(99)]);
    }

    #[test]
    fn qualified_head_atom_rejected() {
        let (mut d, mut nf, mut st, cfg) = setup();
        let head = vec![parse_atom("A:c(X, Y)").unwrap()];
        let b = bind(&[("X", Val::Int(1)), ("Y", Val::Int(1))]);
        assert!(matches!(
            apply_head(&mut d, &head, &b, &mut nf, &mut st, &cfg),
            Err(Error::QualifiedAtom(_))
        ));
    }
}
