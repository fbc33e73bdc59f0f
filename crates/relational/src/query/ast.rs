//! Abstract syntax for conjunctive queries and rule formulas.

use crate::value::{Val, Value};
use p2p_topology::fxhash::FxHashSet;
use serde::{Content, DeError, Deserialize, Serialize, Sink};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable, named as in the source text (`X`, `Year`, …).
    Var(Arc<str>),
    /// A constant value.
    Const(Val),
}

// Terms travel inside rules and query fragments (`AddRule`,
// `BroadcastRules`, `Query` …). Unlike answer rows — which
// amortise their symbols through per-pipe dictionary deltas — a rule is a
// one-shot, tiny payload with no delta channel, so its constants serialize
// in the **boundary** form, string inline (`{"Const":{"Str":"open"}}`,
// byte-identical to the pre-interning shape): any receiver can resolve it
// without prior dictionary sync, and the wire accounting pays for the
// string honestly. Deserialization re-interns.
impl Serialize for Term {
    fn serialize<S: Sink>(&self, out: &mut S) -> Result<(), S::Error> {
        out.map_begin(1)?;
        match self {
            Term::Var(v) => {
                out.map_key("Var")?;
                v.serialize(out)?;
            }
            Term::Const(c) => {
                out.map_key("Const")?;
                c.to_value().serialize(out)?;
            }
        }
        out.map_end()
    }
}

impl Deserialize for Term {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let m = c
            .as_map()
            .filter(|m| m.len() == 1)
            .ok_or_else(|| DeError::expected("single-key object", "Term"))?;
        let (k, v) = &m[0];
        match k.as_str() {
            "Var" => Ok(Term::Var(Arc::<str>::from_content(v)?)),
            "Const" => Ok(Term::Const(Value::from_content(v)?.to_val())),
            other => Err(DeError::custom(format!(
                "unknown variant `{other}` of Term"
            ))),
        }
    }
}

impl Term {
    /// Convenience constructor for variables.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(Arc::from(name.as_ref()))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An identifier interner: one set of shared names, owned by whoever parses.
///
/// The parser ([`super::parse_implication`]) takes every relation name,
/// variable and qualifier it reads through one, so all occurrences of a
/// name parsed under the same interner are clones of one `Arc<str>`: a
/// network builder's thousands of copy rules share `item`, `I`, `S` and
/// each node's qualifier instead of allocating them per occurrence. An
/// interner only ever grows; equality of what it hands out is still by
/// content, so a fresh interner parses to equal values.
#[derive(Debug, Clone, Default)]
pub struct Idents(FxHashSet<Arc<str>>);

impl Idents {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared `Arc` of `name`, made on its first occurrence.
    pub fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(name) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(name);
        self.0.insert(Arc::clone(&shared));
        shared
    }
}

/// A relational atom `r(t1, …, tn)`, optionally qualified with the peer it
/// refers to (`B:b(X,Y)` — the paper's `j : b(x,y)` notation).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Atom {
    /// Peer qualifier, if written (`B` in `B:b(X,Y)`). `None` for purely
    /// local formulas.
    pub qualifier: Option<Arc<str>>,
    /// Relation name.
    pub relation: Arc<str>,
    /// Argument terms, one per column.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Builds an unqualified atom.
    pub fn new(relation: impl AsRef<str>, terms: Vec<Term>) -> Self {
        Atom {
            qualifier: None,
            relation: Arc::from(relation.as_ref()),
            terms,
        }
    }

    /// Variables occurring in this atom, in first-occurrence order.
    pub fn variables(&self) -> Vec<Arc<str>> {
        let mut out: Vec<Arc<str>> = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(q) = &self.qualifier {
            write!(f, "{q}:")?;
        }
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// Comparison operator of a built-in predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison under **certain-answer semantics** over
    /// naive tables: a labeled null is an unknown constant, so a comparison
    /// involving nulls holds only when it holds under *every* valuation.
    ///
    /// Concretely: two occurrences of the *same* null are certainly equal;
    /// any other comparison touching a null is unknown and therefore does
    /// not hold. This makes built-in filtering sound for certain answers of
    /// positive queries.
    pub fn certainly_holds(self, lhs: &Val, rhs: &Val) -> bool {
        use Val::Null;
        match (lhs, rhs) {
            (Null(a), Null(b)) => match self {
                CmpOp::Eq => a == b,
                CmpOp::Le | CmpOp::Ge => a == b,
                _ => false,
            },
            (Null(_), _) | (_, Null(_)) => false,
            _ => match self {
                CmpOp::Eq => lhs == rhs,
                CmpOp::Neq => lhs != rhs,
                CmpOp::Lt => lhs < rhs,
                CmpOp::Le => lhs <= rhs,
                CmpOp::Gt => lhs > rhs,
                CmpOp::Ge => lhs >= rhs,
            },
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A built-in constraint `t1 op t2` (e.g. `X != Z` in rule r4 of the paper's
/// running example).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Constraint {
    /// Left term.
    pub lhs: Term,
    /// Operator.
    pub op: CmpOp,
    /// Right term.
    pub rhs: Term,
}

impl Constraint {
    /// Variables mentioned by the constraint.
    pub fn variables(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        for t in [&self.lhs, &self.rhs] {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// True iff every variable of the constraint is one of `vars`.
    /// Allocates nothing.
    pub fn bound_by(&self, vars: &[Arc<str>]) -> bool {
        [&self.lhs, &self.rhs]
            .into_iter()
            .all(|t| !matches!(t, Term::Var(v) if !vars.contains(v)))
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A conjunctive query with built-ins:
/// `name(head terms) :- atom, …, constraint, …`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConjunctiveQuery {
    /// Name of the query (head predicate symbol).
    pub name: Arc<str>,
    /// Head terms; variables must be bound by the body (safe queries).
    pub head: Vec<Term>,
    /// Relational body atoms.
    pub atoms: Vec<Atom>,
    /// Built-in constraints.
    pub constraints: Vec<Constraint>,
}

impl ConjunctiveQuery {
    /// All distinct variables of the body atoms, in first-occurrence order.
    pub(crate) fn body_variables(&self) -> Vec<Arc<str>> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in &self.atoms {
            for v in a.variables() {
                if seen.insert(v.clone()) {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") :- ")?;
        let mut first = true;
        for a in &self.atoms {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for c in &self.constraints {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_variables_first_occurrence_order() {
        let a = Atom::new("r", vec![Term::var("Y"), Term::var("X"), Term::var("Y")]);
        let vars = a.variables();
        assert_eq!(vars.len(), 2);
        assert_eq!(&*vars[0], "Y");
        assert_eq!(&*vars[1], "X");
    }

    #[test]
    fn cmp_certain_semantics_on_constants() {
        assert!(CmpOp::Eq.certainly_holds(&Val::Int(1), &Val::Int(1)));
        assert!(CmpOp::Neq.certainly_holds(&Val::Int(1), &Val::Int(2)));
        assert!(CmpOp::Lt.certainly_holds(&Val::Int(1), &Val::Int(2)));
        assert!(CmpOp::Ge.certainly_holds(&Val::str("b"), &Val::str("a")));
        assert!(!CmpOp::Gt.certainly_holds(&Val::Int(1), &Val::Int(2)));
    }

    #[test]
    fn cmp_certain_semantics_on_nulls() {
        use crate::value::NullId;
        let n1 = Val::Null(NullId::new(0, 1));
        let n2 = Val::Null(NullId::new(0, 2));
        // Same null: certainly equal.
        assert!(CmpOp::Eq.certainly_holds(&n1, &n1));
        assert!(CmpOp::Le.certainly_holds(&n1, &n1));
        assert!(!CmpOp::Neq.certainly_holds(&n1, &n1));
        // Distinct nulls / null vs constant: unknown, never holds.
        assert!(!CmpOp::Eq.certainly_holds(&n1, &n2));
        assert!(!CmpOp::Neq.certainly_holds(&n1, &n2));
        assert!(!CmpOp::Lt.certainly_holds(&n1, &Val::Int(3)));
        assert!(!CmpOp::Eq.certainly_holds(&Val::Int(3), &n1));
    }

    #[test]
    fn display_round_trip_shape() {
        let q = ConjunctiveQuery {
            name: Arc::from("q"),
            head: vec![Term::var("X"), Term::var("Z")],
            atoms: vec![
                Atom::new("b", vec![Term::var("X"), Term::var("Y")]),
                Atom::new("b", vec![Term::var("Y"), Term::var("Z")]),
            ],
            constraints: vec![Constraint {
                lhs: Term::var("X"),
                op: CmpOp::Neq,
                rhs: Term::var("Z"),
            }],
        };
        assert_eq!(q.to_string(), "q(X, Z) :- b(X, Y), b(Y, Z), X != Z");
    }

    #[test]
    fn term_constants_serialize_with_strings_inline() {
        // Rule constants must be self-describing on the wire (no dictionary
        // channel exists for them) — and byte-identical to the pre-interning
        // form.
        let t = Term::Const(Val::str("inline-const"));
        let text = serde_json::to_string(&t).unwrap();
        assert_eq!(text, "{\"Const\":{\"Str\":\"inline-const\"}}");
        let back: Term = serde_json::from_str(&text).unwrap();
        assert_eq!(back, t);
        let v = Term::var("X");
        let back: Term = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
        let i = Term::Const(Val::Int(-3));
        let back: Term = serde_json::from_str(&serde_json::to_string(&i).unwrap()).unwrap();
        assert_eq!(back, i);
    }

    #[test]
    fn qualified_atom_display() {
        let a = Atom {
            qualifier: Some(Arc::from("B")),
            ..Atom::new("b", vec![Term::var("X")])
        };
        assert_eq!(a.to_string(), "B:b(X)");
        let unqualified = Atom {
            qualifier: None,
            ..a
        };
        assert_eq!(unqualified.to_string(), "b(X)");
    }
}
