//! Relation and database schemas (the paper's `DBS` module).
//!
//! Every peer exports a database schema describing the part of its local
//! database shared with the network. Schemas are parsed from a compact text
//! form used throughout examples and tests, on the query parser's cursor
//! (its grammar is in `query::parser`):
//!
//! ```text
//! pub(id: int, title: str, year: int).
//! author(pid: int, name: str).
//! ```

use crate::error::{Error, Result};
use crate::value::Val;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Type of a column: integers or strings. Labeled nulls are admitted in any
/// column (they stand for an unknown constant of that column's type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit integers.
    Int,
    /// Strings.
    Str,
}

impl ColumnType {
    /// Whether `value` inhabits this column type. Nulls inhabit every type.
    pub fn admits(self, value: &Val) -> bool {
        matches!(
            (self, value),
            (ColumnType::Int, Val::Int(_)) | (ColumnType::Str, Val::Sym(_)) | (_, Val::Null(_))
        )
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "int"),
            ColumnType::Str => write!(f, "str"),
        }
    }
}

/// A named column with a type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (unique within its relation).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// Signature of a single relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelationSchema {
    /// Relation name (unique within its database schema).
    pub name: Arc<str>,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
}

impl RelationSchema {
    /// Builds a relation schema from `(name, type)` column pairs.
    pub fn new(name: impl AsRef<str>, columns: Vec<(&str, ColumnType)>) -> Self {
        RelationSchema {
            name: Arc::from(name.as_ref()),
            columns: columns
                .into_iter()
                .map(|(n, ty)| ColumnDef {
                    name: n.to_string(),
                    ty,
                })
                .collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validates a row against this signature (arity and column types).
    pub(crate) fn check(&self, values: &[Val]) -> Result<()> {
        if values.len() != self.arity() {
            return Err(Error::ArityMismatch {
                relation: self.name.to_string(),
                expected: self.arity(),
                got: values.len(),
            });
        }
        for (i, (v, col)) in values.iter().zip(&self.columns).enumerate() {
            if !col.ty.admits(v) {
                return Err(Error::TypeMismatch {
                    relation: self.name.to_string(),
                    column: i,
                    detail: format!("expected {}, got {} ({v})", col.ty, v.type_name()),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

/// A full database schema: a set of relation signatures.
///
/// Immutable once built, so it is shared rather than copied: the signatures
/// are `Arc`s behind one `Arc`, a clone is a refcount, and every
/// [`crate::Relation`] of a [`crate::Database`] over the schema holds the
/// same signature allocation. Keyed by name in a `BTreeMap`, so iteration
/// order (and therefore everything derived from it: message contents,
/// statistics, traces) is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatabaseSchema {
    relations: Arc<BTreeMap<Arc<str>, Arc<RelationSchema>>>,
}

impl DatabaseSchema {
    /// An empty schema.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one relation signature, rejecting duplicates. Copies the map
    /// (not the signatures) if the schema is shared.
    pub(crate) fn add_relation(&mut self, rel: RelationSchema) -> Result<()> {
        if self.relations.contains_key(&rel.name) {
            return Err(Error::DuplicateRelation(rel.name.to_string()));
        }
        Arc::make_mut(&mut self.relations).insert(rel.name.clone(), Arc::new(rel));
        Ok(())
    }

    /// Looks up a relation signature by name.
    pub fn relation(&self, name: &str) -> Option<&RelationSchema> {
        self.relations.get(name).map(|r| &**r)
    }

    /// Looks up a relation signature or errors.
    pub fn relation_or_err(&self, name: &str) -> Result<&RelationSchema> {
        self.relation(name)
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    /// Where the relation called `name` sits in name order, if declared:
    /// its position in every database over this schema.
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        self.relations.keys().position(|r| **r == *name)
    }

    /// Iterates relation signatures in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Arc<RelationSchema>> {
        self.relations.values()
    }

    /// Parses the textual schema form:
    /// `rel(col: type, ...). other(...).` — whitespace and newlines are
    /// insignificant; a trailing period ends each declaration.
    pub fn parse(input: &str) -> Result<Self> {
        crate::query::parser::parse_schema(input)
    }
}

impl fmt::Display for DatabaseSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.relations.values() {
            writeln!(f, "{r}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_two_relations() {
        let s = DatabaseSchema::parse(
            "pub(id: int, title: str, year: int).\nauthor(pid: int, name: str).",
        )
        .unwrap();
        assert_eq!(s.relations.len(), 2);
        let p = s.relation("pub").unwrap();
        assert_eq!(p.arity(), 3);
        assert_eq!(p.columns[1].ty, ColumnType::Str);
        assert_eq!(p.columns[2].name, "year");
    }

    #[test]
    fn parse_rejects_unknown_type() {
        let e = DatabaseSchema::parse("r(x: float).").unwrap_err();
        assert!(matches!(e, Error::Parse { .. }));
    }

    /// The grammar's corners and its error texts and offsets, as they were
    /// when schemas had a cursor of their own.
    #[test]
    fn parse_keeps_its_grammar_and_errors() {
        let parsed = |text| DatabaseSchema::parse(text).map(|s| s.to_string());
        assert_eq!(
            parsed("a(x: int y: str)."),
            Ok("a(x: int, y: str).\n".into())
        );
        assert_eq!(parsed("a(x:int,). b()."), Ok("a(x: int).\nb().\n".into()));
        assert_eq!(parsed("1a(2b: int)."), Ok("1a(2b: int).\n".into()));
        let parse_error = |offset, message: &str| {
            Err(Error::Parse {
                offset,
                message: message.into(),
            })
        };
        assert_eq!(parsed("a(x: int"), parse_error(8, "expected identifier"));
        assert_eq!(parsed("a(x int)."), parse_error(4, "expected `:`"));
        assert_eq!(parsed("a(x: int) b()."), parse_error(10, "expected `.`"));
        assert_eq!(parsed(" (x: int)."), parse_error(1, "expected identifier"));
        assert_eq!(
            parsed("r(x: float)."),
            parse_error(10, "unknown column type `float` (expected int/str)")
        );
    }

    #[test]
    fn parse_rejects_duplicate_relation() {
        let e = DatabaseSchema::parse("r(x: int). r(y: int).").unwrap_err();
        assert_eq!(e, Error::DuplicateRelation("r".to_string()));
    }

    #[test]
    fn parse_allows_comments_and_whitespace() {
        let s = DatabaseSchema::parse("# schema for node A\n  a ( x : int , y : str ) .").unwrap();
        assert_eq!(s.relation("a").unwrap().arity(), 2);
    }

    #[test]
    fn parse_empty_input_gives_empty_schema() {
        let s = DatabaseSchema::parse("  # nothing\n").unwrap();
        assert!(s.relations.is_empty());
    }

    #[test]
    fn check_validates_arity_and_types() {
        let s = DatabaseSchema::parse("r(x: int, y: str).").unwrap();
        let r = s.relation("r").unwrap();
        assert!(r.check(&[Val::Int(1), Val::str("a")]).is_ok());
        assert!(matches!(
            r.check(&[Val::Int(1)]),
            Err(Error::ArityMismatch { .. })
        ));
        assert!(matches!(
            r.check(&[Val::str("a"), Val::str("b")]),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn nulls_admitted_in_any_column() {
        use crate::value::NullId;
        let s = DatabaseSchema::parse("r(x: int, y: str).").unwrap();
        let r = s.relation("r").unwrap();
        let n = Val::Null(NullId::new(0, 0));
        assert!(r.check(&[n, n]).is_ok());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let s = DatabaseSchema::parse("b(x: int, y: int). a(u: str).").unwrap();
        let printed = s.to_string();
        let reparsed = DatabaseSchema::parse(&printed).unwrap();
        assert_eq!(s, reparsed);
    }
}
