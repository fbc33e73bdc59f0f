//! A local database: the paper's `LDB` held by each peer.

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::DatabaseSchema;
use crate::tuple::Tuple;
use crate::value::Val;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An in-memory database instance over a fixed [`DatabaseSchema`].
///
/// Relations are kept in a `BTreeMap` so iteration (and hence everything
/// downstream: query plans, messages, statistics) is deterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Database {
    schema: DatabaseSchema,
    relations: BTreeMap<Arc<str>, Relation>,
}

impl Database {
    /// Creates an empty database over `schema`, with one (empty) relation
    /// instance per declared relation.
    pub fn new(schema: DatabaseSchema) -> Self {
        let relations = schema
            .relations()
            .map(|r| (r.name.clone(), Relation::new(r.clone())))
            .collect();
        Database { schema, relations }
    }

    /// The database schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Immutable access to a relation instance.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    /// Mutable access to a relation instance.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    /// Checks a row against the relation's schema and stores a copy of it;
    /// returns `true` iff it was new.
    pub fn insert_row(&mut self, relation: &str, row: &[Val]) -> Result<bool> {
        let rel = self.relation_mut(relation)?;
        rel.schema().check(row)?;
        Ok(rel.insert_row(row))
    }

    /// Inserts a validated tuple; returns `true` iff it was new.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<bool> {
        self.insert_row(relation, &tuple.0)
    }

    /// Convenience: insert from a `Vec<Val>`.
    pub fn insert_values(&mut self, relation: &str, values: Vec<Val>) -> Result<bool> {
        self.insert_row(relation, &values)
    }

    /// Iterates `(name, relation)` pairs in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&Arc<str>, &Relation)> {
        self.relations.iter()
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// True iff no relation holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.total_tuples() == 0
    }

    /// All facts as `(relation name, tuple)` pairs in deterministic order —
    /// the exchange format used when shipping whole databases (centralized
    /// baseline) and when comparing against the fix-point oracle.
    pub fn all_facts(&self) -> Vec<(Arc<str>, Tuple)> {
        let mut out = Vec::with_capacity(self.total_tuples());
        for (name, rel) in &self.relations {
            for row in rel.iter() {
                out.push((name.clone(), Tuple::from_row(row)));
            }
        }
        out
    }

    /// Per-relation insertion watermarks, used by delta subscriptions: a
    /// later call to [`Database::facts_since`] with these watermarks yields
    /// exactly the facts inserted in between.
    pub fn watermarks(&self) -> BTreeMap<Arc<str>, usize> {
        self.relations
            .iter()
            .map(|(n, r)| (n.clone(), r.len()))
            .collect()
    }

    /// Facts inserted since the given watermarks (missing entries mean 0).
    pub fn facts_since(&self, watermarks: &BTreeMap<Arc<str>, usize>) -> Vec<(Arc<str>, Tuple)> {
        let mut out = Vec::new();
        for (name, rel) in &self.relations {
            let w = watermarks.get(name).copied().unwrap_or(0);
            for row in rel.since(w) {
                out.push((name.clone(), Tuple::from_row(row)));
            }
        }
        out
    }

    /// Every distinct interned symbol occurring in the database — what a
    /// persisted copy must carry a dictionary for.
    pub fn syms(&self) -> Vec<crate::catalog::SymId> {
        let mut out: Vec<_> = self.relations.values().flat_map(|r| r.syms()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rewrites every symbol id through `f` (crash recovery remaps foreign
    /// catalog ids through the live catalog).
    pub fn remap_syms(&mut self, f: &impl Fn(crate::catalog::SymId) -> crate::catalog::SymId) {
        for rel in self.relations.values_mut() {
            rel.remap_syms(f);
        }
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in self.relations.values() {
            write!(f, "{rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::new(DatabaseSchema::parse("a(x: int). b(x: int, y: str).").unwrap())
    }

    #[test]
    fn insert_validates_relation_name() {
        let mut d = db();
        let e = d.insert_values("zzz", vec![Val::Int(1)]).unwrap_err();
        assert_eq!(e, Error::UnknownRelation("zzz".to_string()));
    }

    #[test]
    fn insert_validates_types() {
        let mut d = db();
        assert!(d
            .insert_values("b", vec![Val::Int(1), Val::Int(2)])
            .is_err());
        assert!(d
            .insert_values("b", vec![Val::Int(1), Val::str("ok")])
            .unwrap());
    }

    #[test]
    fn total_tuples_counts_all_relations() {
        let mut d = db();
        d.insert_values("a", vec![Val::Int(1)]).unwrap();
        d.insert_values("a", vec![Val::Int(2)]).unwrap();
        d.insert_values("b", vec![Val::Int(1), Val::str("x")])
            .unwrap();
        assert_eq!(d.total_tuples(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn facts_since_respects_watermarks() {
        let mut d = db();
        d.insert_values("a", vec![Val::Int(1)]).unwrap();
        let w = d.watermarks();
        d.insert_values("a", vec![Val::Int(2)]).unwrap();
        d.insert_values("b", vec![Val::Int(1), Val::str("x")])
            .unwrap();
        let delta = d.facts_since(&w);
        assert_eq!(delta.len(), 2);
        assert_eq!(&*delta[0].0, "a");
        assert_eq!(delta[0].1, Tuple::new(vec![Val::Int(2)]));
        assert_eq!(&*delta[1].0, "b");
    }

    #[test]
    fn all_facts_is_deterministic_name_order() {
        let mut d = db();
        d.insert_values("b", vec![Val::Int(1), Val::str("x")])
            .unwrap();
        d.insert_values("a", vec![Val::Int(9)]).unwrap();
        let facts = d.all_facts();
        assert_eq!(&*facts[0].0, "a"); // "a" sorts before "b"
        assert_eq!(&*facts[1].0, "b");
    }
}
