//! Where a peer's compiled plans and heads come from — its system's
//! [`PlanCatalog`] — and where they are kept: with what they were compiled
//! for.
//!
//! A fragment's compiled body (full plan plus delta slots) lives on the
//! shared `Arc<BodyPart>`, and a rule's compiled head on the shared
//! `Arc<CoordinationRule>`, each in a [`Held`] slot. Each is taken from the
//! catalog once, where the peer would otherwise compile: the first
//! evaluation of the fragment, the first delta evaluation that executes
//! atom *i*'s plan, the first binding of the rule's head. The peer keeps no
//! table of them, so a delivery finds its plan on the fragment it
//! evaluates, and a copy rule's head on the rule it chases. The catalog's
//! key is everything compilation reads, so what it hands out is exactly
//! what the peer would have compiled against its own database at that
//! moment — for a fragment of two or more atoms, the atom order its
//! database's sizes give at the first evaluation, which the fragment keeps
//! from then on, across a crash of its evaluator too. Peers of one system
//! that serve fragments of one shape share one plan, and chasing heads of
//! one shape, one head. Every compiled plan or head a peer holds comes
//! through this module.

use super::Marks;
use crate::error::CoreResult;
use crate::joins::{CompiledBody, CompiledHead};
use crate::rule::{BodyPart, CoordinationRule};
use p2p_relational::query::PlanCatalog;
use p2p_relational::{Database, DatabaseSchema, Relation};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// What a fragment or a rule holds once it is compiled: a fragment's
/// compiled body from its first evaluation on, a rule's compiled head from
/// its first binding on. Not part of its holder's identity: two fragments
/// or rules of one text are equal whatever they hold, a copy holds nothing,
/// and nothing of it is written or read back.
pub(crate) struct Held<T>(OnceLock<T>);

/// The catalog a peer takes its plans and heads from.
#[derive(Debug, Default)]
pub(crate) struct Compiled {
    /// The system's catalog, shared by every peer of one build (the builder
    /// hands it over before anyone compiles); a peer made on its own has its
    /// own. Consulted only where a plan or head would otherwise be compiled.
    pub(crate) catalog: Arc<PlanCatalog>,
}

impl Compiled {
    /// The compiled body of `part`, holding every delta plan that evaluating
    /// it since `watermarks` executes: the one the fragment holds (a hit,
    /// counted in `hits`), else the catalog's, held by the fragment from now
    /// on. Only the fragment's body node evaluates it, over one schema; a
    /// fragment evaluated over another is refused when its plan runs
    /// ([`p2p_relational::Error::OtherSchema`]).
    pub(crate) fn body<'p>(
        &self,
        part: &'p BodyPart,
        db: &Database,
        watermarks: Option<&Marks>,
        hits: &mut u64,
    ) -> CoreResult<&'p CompiledBody> {
        let (atoms, constraints) = (&part.atoms, &part.local_constraints);
        let held = &part.compiled.0;
        let body = match held.get() {
            Some(body) => {
                *hits += 1;
                body
            }
            None => {
                let body = self.catalog.body(atoms, constraints, db)?;
                held.get_or_init(|| body)
            }
        };
        if let Some(w) = watermarks {
            (self.catalog).fill_deltas(body, atoms, constraints, db, w)?;
        }
        Ok(body)
    }

    /// The head of `rule` compiled for bindings over `vars`: the one the
    /// rule holds when it was compiled for that binding layout, else the
    /// catalog's for `schema` — held by the rule from now on if it holds
    /// none. Only the rule's head node chases it, over one schema.
    pub(crate) fn head<'r>(
        &self,
        rule: &'r CoordinationRule,
        vars: &[Arc<str>],
        schema: &DatabaseSchema,
    ) -> CoreResult<Cow<'r, Arc<CompiledHead>>> {
        let held = &rule.compiled.0;
        Ok(match held.get() {
            Some(head) if head.vars() == vars => Cow::Borrowed(head),
            Some(_) => Cow::Owned(self.catalog.head(&rule.head, vars, schema)?),
            None => {
                let head = self.catalog.head(&rule.head, vars, schema)?;
                Cow::Borrowed(held.get_or_init(|| head))
            }
        })
    }
}

/// The relations `part`'s atoms read in `db`, atom by atom, with their
/// names (`None` where `db` has none): found by the positions the
/// fragment's compiled body holds, by name before it holds one for `db`'s
/// schema.
pub(crate) fn relations<'a>(
    part: &'a BodyPart,
    db: &'a Database,
) -> impl Iterator<Item = (&'a Arc<str>, Option<&'a Relation>)> + 'a {
    let body = held_body(part, db);
    (part.atoms.iter().enumerate()).map(move |(i, atom)| {
        let relation = match body {
            Some(body) => body.relation(i, db).ok(),
            None => db.relation(&atom.relation).ok(),
        };
        (&atom.relation, relation)
    })
}

/// The compiled body of `part` as its evaluator holds it, if it evaluated
/// it over `db`'s schema.
pub(crate) fn held_body<'p>(part: &'p BodyPart, db: &Database) -> Option<&'p CompiledBody> {
    (part.compiled.0.get()).filter(|body| body.full.schema == *db.schema())
}

/// The compiled head `rule` holds, if any (tests).
#[cfg(test)]
pub(crate) fn held_head(rule: &CoordinationRule) -> Option<&Arc<CompiledHead>> {
    rule.compiled.0.get()
}

impl<T> Default for Held<T> {
    fn default() -> Self {
        Held(OnceLock::new())
    }
}

/// A copy holds nothing of its own yet.
impl<T> Clone for Held<T> {
    fn clone(&self) -> Self {
        Held::default()
    }
}

/// What a fragment or a rule holds does not make it another.
impl<T> PartialEq for Held<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for Held<T> {}

/// Shows nothing of what is held: a fragment reads the same before and
/// after its first evaluation.
impl<T> fmt::Debug for Held<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("_")
    }
}
