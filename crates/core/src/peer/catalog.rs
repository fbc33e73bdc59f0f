//! Where a peer's compiled plans and heads come from: its system's
//! [`PlanCatalog`].
//!
//! A peer holds, per rule, the compiled body of the fragment it serves
//! (`DbPeer::plans`) and the compiled head of the rule it chases
//! (`DbPeer::heads`), as `Arc`s into the catalog. It consults the catalog
//! only where it would otherwise compile: the first evaluation of a rule's
//! fragment, the first delta evaluation that executes atom *i*'s plan, and
//! the first binding of a rule's head. The catalog's key is everything
//! compilation reads, so what it hands out is exactly what the peer would
//! have compiled against its own database at that moment; peers of one
//! system that serve fragments of one shape share one plan, and chasing
//! heads of one shape, one head. Every compiled plan or head a peer holds
//! comes through this module.

use super::{DbPeer, Marks};
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

impl CachedPlans {
    /// The compiled body of `part` under `rule`, holding every delta plan
    /// that evaluating it since `watermarks` executes: the one held when it
    /// was compiled for this very fragment (a hit, counted in `hits`), else
    /// the catalog's, held from now on.
    pub(crate) fn fetch<'c>(
        cache: &'c mut FxHashMap<RuleId, CachedPlans>,
        catalog: &PlanCatalog,
        rule: RuleId,
        part: &Arc<BodyPart>,
        db: &Database,
        watermarks: Option<&Marks>,
        hits: &mut u64,
    ) -> CoreResult<&'c CompiledBody> {
        let (atoms, constraints) = (&part.atoms, &part.local_constraints);
        let cached = match cache.entry(rule) {
            Entry::Occupied(hit) if hit.get().part == *part => {
                *hits += 1;
                hit.into_mut()
            }
            // First evaluation of this rule, or a different fragment under
            // its id: take the catalog's and (re)place.
            entry => {
                let body = catalog.body(atoms, constraints, db)?;
                let part = Arc::clone(part);
                entry.insert_entry(CachedPlans { part, body }).into_mut()
            }
        };
        if let Some(w) = watermarks {
            catalog.fill_deltas(&cached.body, atoms, constraints, db, w)?;
        }
        Ok(&cached.body)
    }
}

/// One rule's compiled head, for the rule it was taken for (an
/// `Arc::ptr_eq` fingerprint) and the binding layout it expects.
/// Installing a rule under the id drops the entry
/// ([`DbPeer::forget_rule`]), and the fingerprint makes a stale hit
/// impossible even so: a caller holding another rule under the id never
/// reads this one's head. Rules are shared, so re-installing the very same
/// `Arc` keeps the pointer — and the head it would take is this one.
#[derive(Debug, Clone)]
pub(crate) struct CachedHead {
    pub(crate) rule: Arc<CoordinationRule>,
    pub(crate) head: Arc<CompiledHead>,
}

impl CachedHead {
    /// The head of `rule` compiled for bindings over `vars`: the one held
    /// when it fits, else the catalog's for `schema`, held from now on.
    pub(crate) fn fetch<'c>(
        cache: &'c mut FxHashMap<RuleId, CachedHead>,
        catalog: &PlanCatalog,
        rule: &Arc<CoordinationRule>,
        vars: &[Arc<str>],
        schema: &DatabaseSchema,
    ) -> CoreResult<&'c CompiledHead> {
        let cached = match cache.entry(rule.id) {
            Entry::Occupied(hit)
                if Arc::ptr_eq(&hit.get().rule, rule) && hit.get().head.vars() == vars =>
            {
                hit.into_mut()
            }
            entry => {
                let head = catalog.head(&rule.head, vars, schema)?;
                let rule = Arc::clone(rule);
                entry.insert_entry(CachedHead { rule, head }).into_mut()
            }
        };
        Ok(&cached.head)
    }
}

impl DbPeer {
    /// Makes this peer take its compiled plans and heads from `catalog`
    /// — the builder hands every peer of a system the same one, before any
    /// of them compiles anything — instead of the catalog of its own it
    /// was created with.
    pub(crate) fn share_catalog(&mut self, catalog: Arc<PlanCatalog>) {
        self.catalog = catalog;
    }
}
