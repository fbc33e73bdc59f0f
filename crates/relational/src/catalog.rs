//! The network-wide constant catalog: an interner mapping string constants
//! to fixed-width [`SymId`]s.
//!
//! The paper's Definition 1 assumes all peers share a set of constants `C`
//! "acting as URIs": equal constants denote equal objects network-wide.
//! That assumption is exactly what makes interning sound — a string constant
//! has one canonical identity, so the data plane can carry a 4-byte id
//! instead of the string itself, and equality/hashing of values becomes a
//! word comparison instead of a byte-by-byte walk.
//!
//! One process hosts one catalog ([`ConstCatalog::global`]), mirroring the
//! shared `C`. What crosses process boundaries — wire messages in a real
//! deployment, snapshots and WAL files on disk — additionally carries
//! *dictionary deltas*: `(SymId, string)` pairs for symbols the receiver may
//! not have seen yet (first-use sync). A reader in a different process
//! re-interns those strings and remaps ids through a [`SymRemap`]; in-process
//! the remap is the identity, and [`SymRemap::is_identity`] lets hot paths
//! skip the rewrite entirely.

use crate::value::Val;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// Identifier of an interned string constant.
///
/// Plain `Ord`/`Hash` on the raw id — **id order is intern order, not
/// lexicographic order**. Code that needs string order (deterministic sorts,
/// `<`/`>` built-ins) must compare through [`crate::value::Val`]'s `Ord`,
/// which resolves via the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SymId(pub u32);

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

#[derive(Debug, Default)]
struct CatalogInner {
    /// `strings[id]` is the interned string of `SymId(id)`.
    strings: Vec<Arc<str>>,
    /// Reverse map for interning.
    ids: HashMap<Arc<str>, SymId>,
}

/// The interner. One global instance per process stands in for the paper's
/// network-wide constant set `C`; separate instances exist only in tests and
/// in recovery paths that rebuild a catalog read from disk.
#[derive(Debug, Default)]
pub struct ConstCatalog {
    inner: RwLock<CatalogInner>,
}

static GLOBAL: OnceLock<ConstCatalog> = OnceLock::new();

impl ConstCatalog {
    /// A fresh, empty catalog (tests, recovery staging).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide catalog — the paper's shared `C`.
    pub fn global() -> &'static ConstCatalog {
        GLOBAL.get_or_init(ConstCatalog::new)
    }

    /// Interns a string, returning its canonical id. Idempotent.
    pub fn intern(&self, s: &str) -> SymId {
        if let Some(id) = self.inner.read().expect("catalog lock").ids.get(s) {
            return *id;
        }
        let mut inner = self.inner.write().expect("catalog lock");
        if let Some(id) = inner.ids.get(s) {
            return *id;
        }
        let arc: Arc<str> = Arc::from(s);
        let id = SymId(u32::try_from(inner.strings.len()).expect("catalog overflow"));
        inner.strings.push(arc.clone());
        inner.ids.insert(arc, id);
        id
    }

    /// Resolves an id minted by this catalog.
    ///
    /// # Panics
    /// Panics on an id this catalog never issued — ids are only obtainable
    /// through [`ConstCatalog::intern`], so an unknown id is a logic error
    /// (e.g. a foreign-process id used without [`SymRemap`]).
    pub fn resolve(&self, id: SymId) -> Arc<str> {
        self.try_resolve(id)
            .unwrap_or_else(|| panic!("unknown {id} (missing dictionary sync?)"))
    }

    /// Resolves an id, returning `None` if unknown.
    pub fn try_resolve(&self, id: SymId) -> Option<Arc<str>> {
        self.inner
            .read()
            .expect("catalog lock")
            .strings
            .get(id.0 as usize)
            .cloned()
    }

    /// Compares two interned strings lexicographically without exposing the
    /// contents.
    pub fn cmp_syms(&self, a: SymId, b: SymId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let inner = self.inner.read().expect("catalog lock");
        inner.strings[a.0 as usize].cmp(&inner.strings[b.0 as usize])
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.inner.read().expect("catalog lock").strings.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports the `(id, string)` pairs for the given ids (deduplicated,
    /// ascending) — the payload of a dictionary delta or a persisted catalog
    /// section. Unknown ids are skipped.
    pub fn export(&self, ids: impl IntoIterator<Item = SymId>) -> Vec<(SymId, Arc<str>)> {
        let inner = self.inner.read().expect("catalog lock");
        let mut ids: Vec<SymId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .filter_map(|id| {
                inner
                    .strings
                    .get(id.0 as usize)
                    .map(|s| (id, Arc::clone(s)))
            })
            .collect()
    }

    /// Absorbs a dictionary delta written by some catalog (possibly a
    /// foreign process's), returning the remap from the writer's ids to this
    /// catalog's ids. Strings already interned keep their local id — that is
    /// what makes the in-process remap the identity.
    pub fn absorb(&self, entries: &[(SymId, Arc<str>)]) -> SymRemap {
        let mut map = HashMap::with_capacity(entries.len());
        let mut identity = true;
        for (old, s) in entries {
            let new = self.intern(s);
            identity &= new == *old;
            map.insert(*old, new);
        }
        SymRemap { map, identity }
    }
}

/// A mapping from a writer catalog's ids to the reader catalog's ids,
/// produced by [`ConstCatalog::absorb`].
#[derive(Debug, Clone)]
pub struct SymRemap {
    map: HashMap<SymId, SymId>,
    identity: bool,
}

impl Default for SymRemap {
    fn default() -> Self {
        SymRemap {
            map: HashMap::new(),
            identity: true,
        }
    }
}

impl SymRemap {
    /// True iff every absorbed id mapped to itself — the common in-process
    /// case, where rewriting rows can be skipped wholesale.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Maps one id. Ids absent from the delta map to themselves (they must
    /// then already be valid in the reader's catalog).
    pub fn map(&self, id: SymId) -> SymId {
        self.map.get(&id).copied().unwrap_or(id)
    }

    /// Maps the id of a symbol value; other values map to themselves.
    pub fn val(&self, v: Val) -> Val {
        match v {
            Val::Sym(id) => Val::Sym(self.map(id)),
            other => other,
        }
    }

    /// Folds another remap in (recovery accumulates one remap across a
    /// snapshot catalog and every WAL dictionary delta).
    pub fn extend(&mut self, other: SymRemap) {
        self.identity &= other.identity;
        self.map.extend(other.map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolvable() {
        let c = ConstCatalog::new();
        let a = c.intern("ana");
        let b = c.intern("bob");
        assert_ne!(a, b);
        assert_eq!(c.intern("ana"), a);
        assert_eq!(&*c.resolve(a), "ana");
        assert_eq!(&*c.resolve(b), "bob");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cmp_is_lexicographic_regardless_of_intern_order() {
        let c = ConstCatalog::new();
        let z = c.intern("zz");
        let a = c.intern("aa");
        assert_eq!(c.cmp_syms(a, z), Ordering::Less);
        assert_eq!(c.cmp_syms(z, a), Ordering::Greater);
        assert_eq!(c.cmp_syms(a, a), Ordering::Equal);
    }

    #[test]
    fn try_resolve_unknown_is_none() {
        let c = ConstCatalog::new();
        assert!(c.try_resolve(SymId(99)).is_none());
    }

    #[test]
    fn export_dedups_and_sorts() {
        let c = ConstCatalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let out = c.export([b, a, b]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, a);
        assert_eq!(out[1].0, b);
    }

    #[test]
    fn absorb_same_catalog_is_identity() {
        let c = ConstCatalog::new();
        let a = c.intern("a");
        let delta = c.export([a]);
        let remap = c.absorb(&delta);
        assert!(remap.is_identity());
        assert_eq!(remap.map(a), a);
    }

    #[test]
    fn absorb_foreign_ids_remaps() {
        let writer = ConstCatalog::new();
        let reader = ConstCatalog::new();
        // Reader interned something else first, so ids diverge.
        reader.intern("unrelated");
        let w_ana = writer.intern("ana");
        let delta = writer.export([w_ana]);
        let remap = reader.absorb(&delta);
        assert!(!remap.is_identity());
        let r_ana = remap.map(w_ana);
        assert_eq!(&*reader.resolve(r_ana), "ana");
        assert_ne!(r_ana, w_ana);
    }

    #[test]
    fn global_catalog_is_shared() {
        let a = ConstCatalog::global().intern("global-shared-const");
        let b = ConstCatalog::global().intern("global-shared-const");
        assert_eq!(a, b);
    }
}
