//! Tuples: immutable, cheaply clonable rows of fixed-width [`Val`]s.

use crate::value::Val;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An immutable tuple of [`Val`]s: a single fact.
///
/// A fact the chase inserted (`ChaseOutcome::inserted`), a logged insert
/// and a query answer row are `Tuple`s, and `Arc<[Val]>` keeps their copies
/// O(1). Every set of rows — a relation's, a fragment's evaluation, an
/// answer's shipped rows, a logged answer's — is a [`crate::RowSet`], one
/// flat buffer with no allocation per row. Equality, hashing and ordering
/// are structural (by content).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tuple(pub Arc<[Val]>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Val>) -> Self {
        Tuple(Arc::from(values))
    }

    /// Builds a tuple by copying a row slice (e.g. straight out of a
    /// columnar relation).
    pub fn from_row(row: &[Val]) -> Self {
        Tuple(Arc::from(row))
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field accessor.
    pub fn get(&self, idx: usize) -> Option<&Val> {
        self.0.get(idx)
    }

    /// Iterates over the fields.
    pub fn values(&self) -> impl Iterator<Item = &Val> {
        self.0.iter()
    }

    /// True iff any field is a labeled null. Answers containing nulls are not
    /// *certain* (they witness existentially-invented data), so
    /// certain-answer evaluation filters on this.
    pub fn has_null(&self) -> bool {
        self.0.iter().any(Val::is_null)
    }

    /// Projects the tuple onto the given column indices.
    ///
    /// # Panics
    /// Panics if an index is out of bounds — projections are computed from
    /// schemas validated at construction time, so an out-of-bounds index is a
    /// programming error, not a data error.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.0[i]).collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Val>> for Tuple {
    fn from(values: Vec<Val>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::NullId;

    fn t(vals: Vec<Val>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(
            t(vec![Val::Int(1), Val::str("a")]),
            t(vec![Val::Int(1), Val::str("a")])
        );
        assert_ne!(
            t(vec![Val::Int(1), Val::str("a")]),
            t(vec![Val::Int(1), Val::str("b")])
        );
    }

    #[test]
    fn has_null_detects_nulls() {
        assert!(!t(vec![Val::Int(1)]).has_null());
        assert!(t(vec![Val::Int(1), Val::Null(NullId::new(0, 0))]).has_null());
    }

    #[test]
    fn project_selects_columns_in_order() {
        let tup = t(vec![Val::Int(1), Val::Int(2), Val::Int(3)]);
        assert_eq!(tup.project(&[2, 0]), t(vec![Val::Int(3), Val::Int(1)]));
        assert_eq!(tup.project(&[]), t(vec![]));
    }

    #[test]
    fn from_row_copies_a_slice() {
        let row = [Val::Int(4), Val::str("s")];
        assert_eq!(Tuple::from_row(&row), t(vec![Val::Int(4), Val::str("s")]));
    }

    #[test]
    fn display_is_parenthesised() {
        let tup = t(vec![Val::Int(1), Val::str("x")]);
        assert_eq!(tup.to_string(), "(1, 'x')");
    }
}
