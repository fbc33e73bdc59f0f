//! Values: constants shared across the network plus labeled nulls.
//!
//! The paper (Definition 1) assumes all peers share a set of constants `C`
//! acting as URIs: equal constants denote equal objects network-wide. On top
//! of those, existential variables in rule heads are materialised as
//! **labeled nulls** — globally unique placeholder values minted by the node
//! performing the insertion (algorithm A6: "insert with new values for
//! existential"). A labeled null is equal only to itself, so nulls behave as
//! the marked nulls of naive tables.
//!
//! Two value types live here:
//!
//! * [`Val`] — the data-plane representation: a `Copy`, 16-byte word.
//!   String constants are interned through the [`crate::catalog::ConstCatalog`]
//!   and carried as a [`SymId`]; equality and hashing are O(1) word
//!   operations, which is what makes columnar storage and hash joins cheap.
//! * [`Value`] — the boundary representation carrying the actual string
//!   (`Arc<str>`), used by the external JSON formats (network files, CLI)
//!   and by the legacy reference evaluator. Its serde form is unchanged
//!   (`{"Int":1}` / `{"Str":"x"}` / `{"Null":n}`), keeping those formats
//!   byte-compatible.

use crate::catalog::{ConstCatalog, SymId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Identifier of a labeled null, globally unique across the network.
///
/// The high 24 bits carry the minting node, the low 40 bits a per-node
/// counter; this lets any peer invent fresh nulls with no coordination, the
/// same way the paper relies on node-local invention during `UpdateLocalData`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NullId(pub u64);

impl NullId {
    /// Number of bits reserved for the per-node counter.
    pub const COUNTER_BITS: u32 = 40;

    /// Builds a null id from a minting node and a local counter.
    pub fn new(node: u32, counter: u64) -> Self {
        debug_assert!(counter < (1u64 << Self::COUNTER_BITS));
        NullId(((node as u64) << Self::COUNTER_BITS) | counter)
    }

    /// The node that minted this null.
    pub fn node(self) -> u32 {
        (self.0 >> Self::COUNTER_BITS) as u32
    }

    /// The minting node's local counter value.
    pub fn counter(self) -> u64 {
        self.0 & ((1u64 << Self::COUNTER_BITS) - 1)
    }
}

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:n{}_{}", self.node(), self.counter())
    }
}

/// A data-plane value: an integer constant, an interned string constant, or
/// a labeled null. `Copy` and at most 16 bytes, so tuples are flat arrays
/// and join keys are plain words — no reference counting on any hot path.
///
/// `Ord` is total (Int < Sym < Null) and matches the pre-interning semantics:
/// symbols compare by their *string contents* (resolved through the global
/// catalog), not by raw id, so sorts and range built-ins are independent of
/// intern order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Val {
    /// 64-bit integer constant.
    Int(i64),
    /// Interned string constant (resolve via [`ConstCatalog::global`]).
    Sym(SymId),
    /// Labeled null invented for an existential head variable.
    Null(NullId),
}

// The whole point: a fixed-width word the columnar store can pack flat.
const _: () = assert!(std::mem::size_of::<Val>() <= 16);

impl Val {
    /// Interns a string constant into the global catalog.
    pub fn str(s: impl AsRef<str>) -> Self {
        Val::Sym(ConstCatalog::global().intern(s.as_ref()))
    }

    /// True iff this value is a labeled null.
    pub fn is_null(&self) -> bool {
        matches!(self, Val::Null(_))
    }

    /// A short type tag used in error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Val::Int(_) => "int",
            Val::Sym(_) => "str",
            Val::Null(_) => "null",
        }
    }

    /// The symbol id, if this is an interned string.
    pub fn as_sym(&self) -> Option<SymId> {
        match self {
            Val::Sym(id) => Some(*id),
            _ => None,
        }
    }

    /// Converts to the boundary representation, resolving interned strings.
    pub fn to_value(self) -> Value {
        match self {
            Val::Int(i) => Value::Int(i),
            Val::Sym(id) => Value::Str(ConstCatalog::global().resolve(id)),
            Val::Null(n) => Value::Null(n),
        }
    }
}

impl PartialOrd for Val {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Val {
    fn cmp(&self, other: &Self) -> Ordering {
        use Val::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Sym(a), Sym(b)) => ConstCatalog::global().cmp_syms(*a, *b),
            (Null(a), Null(b)) => a.cmp(b),
            (Int(_), _) => Ordering::Less,
            (_, Int(_)) => Ordering::Greater,
            (Sym(_), Null(_)) => Ordering::Less,
            (Null(_), Sym(_)) => Ordering::Greater,
        }
    }
}

impl From<i64> for Val {
    fn from(v: i64) -> Self {
        Val::Int(v)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Self {
        Val::str(v)
    }
}

impl From<String> for Val {
    fn from(v: String) -> Self {
        Val::str(v)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(i) => write!(f, "{i}"),
            Val::Sym(id) => match ConstCatalog::global().try_resolve(*id) {
                Some(s) => write!(f, "'{s}'"),
                None => write!(f, "'<{id}>'"),
            },
            Val::Null(n) => write!(f, "{n}"),
        }
    }
}

/// A boundary value carrying its string in full — the shape of the external
/// JSON formats and the legacy reference evaluator. Convert with
/// `Value::to_val` (interning) and [`Val::to_value`] (resolving).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit integer constant.
    Int(i64),
    /// String constant, carried verbatim.
    Str(Arc<str>),
    /// Labeled null.
    Null(NullId),
}

impl Value {
    /// Converts to the data-plane representation, interning strings into the
    /// global catalog.
    pub(crate) fn to_val(&self) -> Val {
        match self {
            Value::Int(i) => Val::Int(*i),
            Value::Str(s) => Val::Sym(ConstCatalog::global().intern(s)),
            Value::Null(n) => Val::Null(*n),
        }
    }
}

impl From<Val> for Value {
    fn from(v: Val) -> Self {
        v.to_value()
    }
}

impl From<&Value> for Val {
    fn from(v: &Value) -> Self {
        v.to_val()
    }
}

impl From<Value> for Val {
    fn from(v: Value) -> Self {
        v.to_val()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Null(n) => write!(f, "{n}"),
        }
    }
}

/// Mints fresh labeled nulls on behalf of one node.
///
/// Each peer owns one factory; the node id baked into every [`NullId`]
/// guarantees global uniqueness without coordination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NullFactory {
    node: u32,
    next: u64,
}

impl NullFactory {
    /// Creates a factory for the given minting node.
    pub fn new(node: u32) -> Self {
        NullFactory { node, next: 0 }
    }

    /// Resumes a factory at a given counter — used by crash recovery so a
    /// restarted peer never re-mints a null id that already circulates in
    /// the network.
    pub fn resume(node: u32, next: u64) -> Self {
        NullFactory { node, next }
    }

    /// Returns a fresh, never-before-seen null value.
    pub fn fresh(&mut self) -> Val {
        let id = NullId::new(self.node, self.next);
        self.next += 1;
        Val::Null(id)
    }

    /// Number of nulls minted so far (used by the statistics module).
    pub fn minted(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_id_roundtrip() {
        let id = NullId::new(7, 123_456);
        assert_eq!(id.node(), 7);
        assert_eq!(id.counter(), 123_456);
    }

    #[test]
    fn null_ids_from_distinct_nodes_differ() {
        assert_ne!(NullId::new(1, 0), NullId::new(2, 0));
        assert_ne!(NullId::new(1, 0), NullId::new(1, 1));
    }

    #[test]
    fn factory_mints_distinct_nulls() {
        let mut f = NullFactory::new(3);
        let a = f.fresh();
        let b = f.fresh();
        assert_ne!(a, b);
        assert!(a.is_null() && b.is_null());
        assert_eq!(f.minted(), 2);
    }

    #[test]
    fn val_is_a_fixed_width_word() {
        assert!(std::mem::size_of::<Val>() <= 16);
    }

    #[test]
    fn val_ordering_is_total_and_by_kind() {
        // Intern in reverse order so id order and string order disagree —
        // the sort must still be lexicographic.
        let b = Val::str("ord_b");
        let a = Val::str("ord_a");
        let vals = vec![
            Val::Null(NullId::new(0, 0)),
            a,
            Val::Int(5),
            Val::Int(-1),
            b,
        ];
        let mut sorted = vals.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![
                Val::Int(-1),
                Val::Int(5),
                a,
                b,
                Val::Null(NullId::new(0, 0))
            ]
        );
    }

    #[test]
    fn equal_strings_intern_to_equal_syms() {
        assert_eq!(Val::str("same"), Val::str("same"));
        assert_ne!(Val::str("same"), Val::str("other"));
    }

    #[test]
    fn nulls_equal_only_themselves() {
        let n1 = Val::Null(NullId::new(0, 0));
        let n2 = Val::Null(NullId::new(0, 1));
        assert_eq!(n1, n1);
        assert_ne!(n1, n2);
        assert_ne!(n1, Val::Int(0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Val::Int(42).to_string(), "42");
        assert_eq!(Val::str("x").to_string(), "'x'");
        assert_eq!(Val::Null(NullId::new(2, 9)).to_string(), "_:n2_9");
    }

    #[test]
    fn boundary_round_trip() {
        for v in [
            Value::Int(7),
            Value::Str(Arc::from("round-trip")),
            Value::Null(NullId::new(1, 2)),
        ] {
            assert_eq!(v.to_val().to_value(), v);
        }
    }

    #[test]
    fn boundary_serde_form_is_stable() {
        // The external JSON formats depend on this exact shape.
        assert_eq!(
            serde_json::to_string(&Value::Int(1)).unwrap(),
            "{\"Int\":1}"
        );
        assert_eq!(
            serde_json::to_string(&Value::Str(Arc::from("x"))).unwrap(),
            "{\"Str\":\"x\"}"
        );
    }
}
