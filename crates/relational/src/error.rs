//! Error type shared across the relational engine.

use std::fmt;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the relational engine.
///
/// Each variant carries enough context to be actionable without a backtrace;
/// the engine never panics on malformed user input (schemas, queries, data) —
/// it returns one of these instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A relation name was referenced that does not exist in the schema.
    UnknownRelation(String),
    /// A relation was declared twice in one schema.
    DuplicateRelation(String),
    /// A tuple's arity does not match the relation's declared arity.
    ArityMismatch {
        /// Relation whose arity was violated.
        relation: String,
        /// Declared number of columns.
        expected: usize,
        /// Number of values actually supplied.
        got: usize,
    },
    /// A value's type does not match the declared column type.
    TypeMismatch {
        /// Relation containing the column.
        relation: String,
        /// Zero-based column index.
        column: usize,
        /// Human-readable description of the expected/actual types.
        detail: String,
    },
    /// A query used a variable in a built-in predicate or head position
    /// without binding it in any relational atom.
    UnboundVariable(String),
    /// A peer-qualified atom (`B:b(X)`) reached the *local* evaluator. Local
    /// evaluation is only defined on unqualified formulas; the distributed
    /// layer must strip qualifiers when routing sub-queries.
    QualifiedAtom(String),
    /// Text could not be parsed; carries position and message.
    Parse {
        /// Byte offset in the input where the error was detected.
        offset: usize,
        /// Explanation of what was expected.
        message: String,
    },
    /// The restricted chase exceeded the configured null-derivation depth.
    /// This is the safety valve against non-terminating chases on rule sets
    /// that are not weakly acyclic.
    ChaseDepthExceeded {
        /// The configured bound that was hit.
        limit: u32,
    },
    /// A compiled plan or head met a database over another schema than the
    /// one it was compiled for: its relation positions do not hold there.
    OtherSchema,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            Error::DuplicateRelation(name) => {
                write!(f, "relation `{name}` declared more than once")
            }
            Error::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for `{relation}`: expected {expected} values, got {got}"
            ),
            Error::TypeMismatch {
                relation,
                column,
                detail,
            } => write!(
                f,
                "type mismatch for `{relation}` column {column}: {detail}"
            ),
            Error::UnboundVariable(v) => write!(
                f,
                "variable `{v}` is not bound by any relational atom (unsafe query)"
            ),
            Error::QualifiedAtom(a) => write!(
                f,
                "atom `{a}` is peer-qualified; local evaluation requires unqualified atoms"
            ),
            Error::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            Error::ChaseDepthExceeded { limit } => write!(
                f,
                "chase exceeded null-derivation depth {limit}; rule set is \
                 likely not weakly acyclic"
            ),
            Error::OtherSchema => write!(
                f,
                "compiled for another database schema than the one it is run on"
            ),
        }
    }
}

impl std::error::Error for Error {}
