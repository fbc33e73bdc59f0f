//! A local database: the paper's `LDB` held by each peer.

use crate::error::{Error, Result};
use crate::query::plan::{MarkTable, Marks};
use crate::relation::Relation;
use crate::schema::DatabaseSchema;
use crate::value::Val;
use serde::{Content, DeError, Deserialize, Serialize, Sink};
use std::fmt;
use std::sync::Arc;

/// An in-memory database instance over a fixed [`DatabaseSchema`].
///
/// The relations live in one `Vec`, sorted by their own schema's name and
/// found by binary search: a database holds a handful, and every peer holds
/// one, so the index is the slice itself. Iteration is in name order, so
/// everything downstream (query plans, messages, statistics) is
/// deterministic. The serialized form is a name-keyed map:
/// `{"schema": …, "relations": {name: relation, …}}`.
///
/// Cloning is copy-on-write and costs O(relations), never O(rows): the
/// clone shares every relation's rows and join indexes, and a relation is
/// copied at its first write, by the holder that writes it (see
/// [`Relation`]).
#[derive(Debug, Clone)]
pub struct Database {
    schema: DatabaseSchema,
    relations: Vec<Relation>,
}

impl Database {
    /// Creates an empty database over `schema`, with one (empty) relation
    /// instance per declared relation, each holding the schema's signature.
    pub fn new(schema: DatabaseSchema) -> Self {
        let relations = schema
            .relations()
            .map(|r| Relation::new(Arc::clone(r)))
            .collect();
        Database { schema, relations }
    }

    /// The database schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Where the relation called `name` sits: its position in the schema's
    /// name order, which is where it sits in every database over an equal
    /// schema. A compiled plan or head keeps it, and indexes
    /// [`Database::relations_of`] with it.
    pub(crate) fn position(&self, name: &str) -> Result<usize> {
        (self.relations)
            .binary_search_by(|r| (*r.schema().name).cmp(name))
            .map_err(|_| Error::UnknownRelation(name.to_string()))
    }

    /// The relations in schema order, provided this database is over
    /// `schema` — the one a plan or head was compiled for, whose relation
    /// positions then hold here. A database over another schema is
    /// [`Error::OtherSchema`], never a wrong relation. One pointer
    /// comparison when the two share the schema, as the peers of one build
    /// do.
    pub(crate) fn relations_of(&self, schema: &DatabaseSchema) -> Result<&[Relation]> {
        match self.schema == *schema {
            true => Ok(&self.relations),
            false => Err(Error::OtherSchema),
        }
    }

    /// Takes `schema` as its own where it equals this database's: a database
    /// read back from storage then shares the schema of the one it
    /// replaces, and a plan or head compiled against that one finds its
    /// relations here after one pointer comparison.
    pub fn share_schema(&mut self, schema: &DatabaseSchema) {
        if self.schema == *schema {
            self.schema = schema.clone();
        }
    }

    /// [`Database::relations_of`], mutably.
    pub(crate) fn relations_of_mut(&mut self, schema: &DatabaseSchema) -> Result<&mut [Relation]> {
        match self.schema == *schema {
            true => Ok(&mut self.relations),
            false => Err(Error::OtherSchema),
        }
    }

    /// Immutable access to a relation instance.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        Ok(&self.relations[self.position(name)?])
    }

    /// Mutable access to a relation instance.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        let at = self.position(name)?;
        Ok(&mut self.relations[at])
    }

    /// Checks a row against the relation's schema and stores a copy of it;
    /// returns `true` iff it was new.
    pub fn insert_row(&mut self, relation: &str, row: &[Val]) -> Result<bool> {
        let rel = self.relation_mut(relation)?;
        rel.schema().check(row)?;
        Ok(rel.insert_row(row))
    }

    /// Convenience: insert from a `Vec<Val>`.
    pub fn insert_values(&mut self, relation: &str, values: Vec<Val>) -> Result<bool> {
        self.insert_row(relation, &values)
    }

    /// Iterates `(name, relation)` pairs in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&Arc<str>, &Relation)> {
        self.relations.iter().map(|r| (&r.schema().name, r))
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// True iff no relation holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.total_tuples() == 0
    }

    /// Every fact as a `(relation name, row)` pair, in name order and each
    /// relation's insertion order: an owned copy for comparing two
    /// databases (tests, the benchmark's recovery check). No shipping path
    /// reads it — a peer ships [`RowSet`](crate::RowSet)s and logs rows.
    pub fn all_facts(&self) -> Vec<(Arc<str>, Vec<Val>)> {
        self.facts_since(&Marks::new())
    }

    /// Per-relation insertion watermarks, used by delta subscriptions: a
    /// later call to [`Database::facts_since`] with these watermarks yields
    /// exactly the facts inserted in between. Collected into what the
    /// caller names — a [`Marks`], or any collection of `(relation, mark)`
    /// pairs.
    pub fn watermarks<M: FromIterator<(Arc<str>, usize)>>(&self) -> M {
        self.relations()
            .map(|(n, r)| (n.clone(), r.len()))
            .collect()
    }

    /// Facts inserted since the given watermarks (missing entries mean 0),
    /// copied out as [`Database::all_facts`] copies them — for tests; a peer
    /// reads a relation's new rows in place ([`crate::RowSet::since`]).
    pub fn facts_since(&self, watermarks: &(impl MarkTable + ?Sized)) -> Vec<(Arc<str>, Vec<Val>)> {
        let mut out = Vec::new();
        for (name, rel) in self.relations() {
            let w = watermarks.mark(name);
            out.extend(rel.since(w).map(|row| (name.clone(), row.to_vec())));
        }
        out
    }

    /// Every distinct interned symbol occurring in the database — what a
    /// persisted copy must carry a dictionary for.
    pub fn syms(&self) -> Vec<crate::catalog::SymId> {
        let mut out: Vec<_> = self.relations.iter().flat_map(|r| r.syms()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rewrites every symbol id through `f` (crash recovery remaps foreign
    /// catalog ids through the live catalog).
    pub fn remap_syms(&mut self, f: &impl Fn(crate::catalog::SymId) -> crate::catalog::SymId) {
        for rel in &mut self.relations {
            rel.remap_syms(f);
        }
    }
}

impl Serialize for Database {
    fn serialize<S: Sink>(&self, out: &mut S) -> std::result::Result<(), S::Error> {
        out.map_begin(2)?;
        out.map_key("schema")?;
        self.schema.serialize(out)?;
        out.map_key("relations")?;
        out.map_begin(self.relations.len())?;
        for rel in &self.relations {
            out.map_key(&rel.schema().name)?;
            rel.serialize(out)?;
        }
        out.map_end()?;
        out.map_end()
    }
}

impl Deserialize for Database {
    /// Reads the map form back; a relation filed under a name other than
    /// its own schema's, or under a name twice, is refused.
    fn from_content(c: &Content) -> std::result::Result<Self, DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| DeError::expected("object", "Database"))?;
        let schema = serde::content_get(m, "schema")
            .ok_or_else(|| DeError::missing_field("schema", "Database"))
            .and_then(DatabaseSchema::from_content)?;
        let entries = serde::content_get(m, "relations")
            .ok_or_else(|| DeError::missing_field("relations", "Database"))?
            .as_map()
            .ok_or_else(|| DeError::expected("object", "Database::relations"))?;
        let mut relations = Vec::with_capacity(entries.len());
        for (name, rel) in entries {
            let rel = Relation::from_content(rel)?;
            if *rel.schema().name != **name {
                return Err(DeError::custom(format!(
                    "relation `{}` filed under `{name}`",
                    rel.schema().name
                )));
            }
            relations.push(rel);
        }
        relations.sort_by(|a, b| a.schema().name.cmp(&b.schema().name));
        if let Some(twice) =
            (relations.windows(2)).find(|w| w[0].schema().name == w[1].schema().name)
        {
            let name = &twice[0].schema().name;
            return Err(DeError::custom(format!("relation `{name}` given twice")));
        }
        // Relations sit where their schema puts them: a plan compiled
        // against an equal schema indexes them by position.
        if !(relations.iter().map(Relation::schema)).eq(schema.relations().map(|r| &**r)) {
            return Err(DeError::custom(
                "relations other than the schema declares".to_string(),
            ));
        }
        Ok(Database { schema, relations })
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in &self.relations {
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
        let w: Marks = d.watermarks();
        d.insert_values("a", vec![Val::Int(2)]).unwrap();
        d.insert_values("b", vec![Val::Int(1), Val::str("x")])
            .unwrap();
        let delta = d.facts_since(&w);
        assert_eq!(delta.len(), 2);
        assert_eq!(&*delta[0].0, "a");
        assert_eq!(delta[0].1, [Val::Int(2)]);
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

    #[test]
    fn serializes_as_the_name_keyed_map_and_reads_back() {
        let mut d = Database::new(DatabaseSchema::parse("b(x: int, y: int). a(x: int).").unwrap());
        d.insert_values("b", vec![Val::Int(1), Val::Int(2)])
            .unwrap();
        d.insert_values("a", vec![Val::Int(9)]).unwrap();
        let a = r#"{"name":"a","columns":[{"name":"x","ty":"Int"}]}"#;
        let b = r#"{"name":"b","columns":[{"name":"x","ty":"Int"},{"name":"y","ty":"Int"}]}"#;
        let text = serde_json::to_string(&d).unwrap();
        assert_eq!(
            text,
            format!(
                r#"{{"schema":{{"relations":{{"a":{a},"b":{b}}}}},"relations":{{"a":{{"schema":{a},"rows":[[{{"Int":9}}]]}},"b":{{"schema":{b},"rows":[[{{"Int":1}},{{"Int":2}}]]}}}}}}"#
            )
        );
        let back: Database = serde_json::from_str(&text).unwrap();
        assert_eq!(back.all_facts(), d.all_facts());
        assert_eq!(back.schema(), d.schema());
        assert!(back.relation("c").is_err());

        let misfiled = text.replacen(
            r#""relations":{"a":{"schema""#,
            r#""relations":{"c":{"schema""#,
            1,
        );
        assert!(serde_json::from_str::<Database>(&misfiled).is_err());
    }

    /// A database clone shares every relation's rows; a write at either
    /// copy changes its own facts and watermarks only.
    #[test]
    fn a_write_to_either_clone_leaves_the_other_untouched() {
        for writer in 0..2 {
            let mut d = db();
            d.insert_values("a", vec![Val::Int(1)]).unwrap();
            d.insert_values("b", vec![Val::Int(1), Val::str("x")])
                .unwrap();
            let mut pair = [d.clone(), d];
            let (facts, marks) = (pair[0].all_facts(), pair[0].watermarks::<Marks>());
            assert!(!pair[writer].insert_values("a", vec![Val::Int(1)]).unwrap());
            assert!(pair[writer].insert_values("a", vec![Val::Int(2)]).unwrap());
            let other = &pair[1 - writer];
            assert_eq!(
                (other.all_facts(), other.watermarks::<Marks>()),
                (facts, marks)
            );
            assert_eq!(
                pair[writer].facts_since(&other.watermarks::<Marks>()).len(),
                1
            );
        }
    }

    /// A plan's relations are found by position in a database over an
    /// equal schema — shared or read back — and a database over another
    /// schema is refused, not read at a wrong position; a database read back
    /// with relations its schema does not declare is refused as it is read.
    #[test]
    fn relations_by_position_need_an_equal_schema() {
        let d = db();
        let schema = d.schema().clone();
        let at = d.position("b").unwrap();
        assert_eq!(&*d.relations_of(&schema).unwrap()[at].schema().name, "b");
        let text = serde_json::to_string(&d).unwrap();
        let mut back: Database = serde_json::from_str(&text).unwrap();
        assert_eq!(&*back.relations_of(&schema).unwrap()[at].schema().name, "b");
        back.share_schema(&schema);
        assert_eq!(back.schema(), &schema);
        let other = DatabaseSchema::parse("b(x: int, y: str).").unwrap();
        assert_eq!(back.relations_of(&other).unwrap_err(), Error::OtherSchema);
        assert_eq!(
            back.relations_of_mut(&other).unwrap_err(),
            Error::OtherSchema
        );

        let a = r#""a":{"schema":{"name":"a","columns":[{"name":"x","ty":"Int"}]},"rows":[]},"#;
        let fewer = text.replacen(a, "", 1);
        assert_ne!(fewer, text);
        assert!(serde_json::from_str::<Database>(&fewer).is_err());
    }

    #[test]
    fn relations_share_the_schema_signatures() {
        let d = db();
        let copy = d.clone();
        for ((name, rel), declared) in copy.relations().zip(d.schema().relations()) {
            assert_eq!(*name, declared.name);
            assert!(std::ptr::eq(rel.schema(), &**declared));
        }
    }
}
