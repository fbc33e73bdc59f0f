//! Where a peer's compiled plans and heads come from: its system's
//! [`PlanCatalog`].
//!
//! A peer holds ([`Compiled`]), per rule, the compiled body of the
//! fragment it serves and the compiled head of the rule it chases, as
//! `Arc`s into the catalog. It consults the catalog
//! only where it would otherwise compile: the first evaluation of a rule's
//! fragment, the first delta evaluation that executes atom *i*'s plan, and
//! the first binding of a rule's head. The catalog's key is everything
//! compilation reads, so what it hands out is exactly what the peer would
//! have compiled against its own database at that moment; peers of one
//! system that serve fragments of one shape share one plan, and chasing
//! heads of one shape, one head. Every compiled plan or head a peer holds
//! comes through this module.

use super::Marks;
use crate::error::CoreResult;
use crate::joins::{CompiledBody, CompiledHead};
use crate::rule::{BodyPart, CoordinationRule, RuleId};
use p2p_relational::fxhash::FxHashMap;
use p2p_relational::query::PlanCatalog;
use p2p_relational::{Database, DatabaseSchema};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// One rule's compiled plans, fingerprinted by the body fragment they were
/// compiled for. Rule ids are minted monotonically, but the fragment
/// equality check makes a stale hit impossible even if an id were ever
/// reused (or if a body peer serves different fragments under one id
/// across sessions).
#[derive(Debug, Clone)]
pub(crate) struct CachedPlans {
    /// The fragment the plans were compiled from.
    pub(crate) part: Arc<BodyPart>,
    /// Full + per-atom delta plans, the catalog's.
    pub(crate) body: CompiledBody,
}

/// A peer's compiled plans and heads, and the catalog they come from.
#[derive(Debug, Default)]
pub(crate) struct Compiled {
    /// The system's catalog, shared by every peer of one build (the builder
    /// hands it over before anyone compiles); a peer made on its own has its
    /// own. Consulted only where a plan or head would otherwise be compiled.
    pub(crate) catalog: Arc<PlanCatalog>,
    /// One entry per rule this peer evaluates a body fragment for (head
    /// rules *and* fragments received via subscriptions or waves), shared
    /// with every peer that serves a fragment of the same shape. Validated
    /// against the fragment on every hit; invalidated on
    /// `AddRule`/`DeleteRule`/`Unsubscribe`.
    pub(crate) plans: FxHashMap<RuleId, CachedPlans>,
    /// One entry per rule of this peer that derived a binding, validated
    /// against the rule and the binding layout on every hit; dropped with
    /// the rule.
    pub(crate) heads: FxHashMap<RuleId, CachedHead>,
}

impl Compiled {
    /// The compiled body of `part` under `rule`, holding every delta plan
    /// that evaluating it since `watermarks` executes: the one held when it
    /// was compiled for this very fragment (a hit, counted in `hits`), else
    /// the catalog's, held from now on.
    pub(crate) fn body(
        &mut self,
        rule: RuleId,
        part: &Arc<BodyPart>,
        db: &Database,
        watermarks: Option<&Marks>,
        hits: &mut u64,
    ) -> CoreResult<&CompiledBody> {
        let (atoms, constraints) = (&part.atoms, &part.local_constraints);
        let cached = match self.plans.entry(rule) {
            Entry::Occupied(hit) if hit.get().part == *part => {
                *hits += 1;
                hit.into_mut()
            }
            // First evaluation of this rule, or a different fragment under
            // its id: take the catalog's and (re)place.
            entry => {
                let body = self.catalog.body(atoms, constraints, db)?;
                let part = Arc::clone(part);
                entry.insert_entry(CachedPlans { part, body }).into_mut()
            }
        };
        if let Some(w) = watermarks {
            (self.catalog).fill_deltas(&cached.body, atoms, constraints, db, w)?;
        }
        Ok(&cached.body)
    }

    /// The head of `rule` compiled for bindings over `vars`: the one held
    /// when it fits, else the catalog's for `schema`, held from now on.
    pub(crate) fn head(
        &mut self,
        rule: &Arc<CoordinationRule>,
        vars: &[Arc<str>],
        schema: &DatabaseSchema,
    ) -> CoreResult<&CompiledHead> {
        let cached = match self.heads.entry(rule.id) {
            Entry::Occupied(hit)
                if Arc::ptr_eq(&hit.get().rule, rule) && hit.get().head.vars() == vars =>
            {
                hit.into_mut()
            }
            entry => {
                let head = self.catalog.head(&rule.head, vars, schema)?;
                let rule = Arc::clone(rule);
                entry.insert_entry(CachedHead { rule, head }).into_mut()
            }
        };
        Ok(&cached.head)
    }

    /// `rule` was replaced or deleted here: its plan and head go.
    pub(crate) fn forget(&mut self, rule: RuleId) {
        self.plans.remove(&rule);
        self.heads.remove(&rule);
    }

    /// A crash: every plan and head goes; the next evaluation takes them
    /// from the catalog again.
    pub(crate) fn crash(&mut self) {
        self.plans.clear();
        self.heads.clear();
    }
}

/// One rule's compiled head, for the rule it was taken for (an
/// `Arc::ptr_eq` fingerprint) and the binding layout it expects.
/// Installing a rule under the id drops the entry
/// ([`crate::peer::DbPeer::forget_rule`]), and the fingerprint makes a
/// stale hit impossible even so: a caller holding another rule under the id
/// never reads this one's head. Rules are shared, so re-installing the very
/// same `Arc` keeps the pointer — and the head it would take is this one.
#[derive(Debug, Clone)]
pub(crate) struct CachedHead {
    pub(crate) rule: Arc<CoordinationRule>,
    pub(crate) head: Arc<CompiledHead>,
}
