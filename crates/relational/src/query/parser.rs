//! Text parser for queries, atoms, rule-shaped implications and database
//! schemas: one cursor reads them all.
//!
//! Grammar (whitespace-insensitive, `#` comments to end of line):
//!
//! ```text
//! query       := head ":-" body
//! head        := ident "(" terms ")"
//! body        := (atom | constraint) ("," (atom | constraint))*
//! atom        := (ident ":")? ident "(" terms ")"
//! constraint  := term cmp term
//! cmp         := "=" | "!=" | "<" | "<=" | ">" | ">="
//! term        := UPPER-ident            (variable)
//!              | integer | 'string'     (constant)
//! implication := body "=>" atom ("," atom)*
//! schema      := (word "(" (word ":" type ","?)* ")" ".")*
//! type        := "int" | "str"
//! ```
//!
//! A schema's `word` is a run of letters, digits and `_` (it may start
//! with a digit, which an `ident` may not), and the commas between its
//! columns are optional.
//!
//! Variables start with an uppercase letter or `_`; everything else
//! lowercase-initial is a relation/query name. This matches the notation of
//! the paper's running example (`B:b(X,Y), b(X,Z), X != Z => A:a(X,Y)`).
//!
//! Identifiers — relation names, variables, qualifiers — come from an
//! [`Idents`] interner, never from a fresh allocation per occurrence.
//! [`parse_implication`] takes the caller's: a network builder owns one for
//! all its rules (`P2PSystemBuilder`), so every rule it reads shares one
//! `Arc<str>` per distinct name, and a caller without one passes
//! `&mut Idents::new()`. [`parse_query`] reads one-off texts and uses an
//! interner of its own. A body item is told apart as an
//! atom or a constraint by looking ahead, not by failing as an atom first.

use crate::error::{Error, Result};
use crate::query::ast::{Atom, CmpOp, ConjunctiveQuery, Constraint, Idents, Term};
use crate::schema::{ColumnDef, ColumnType, DatabaseSchema, RelationSchema};
use crate::value::Val;
use std::sync::Arc;

/// A parsed implication `body => head`: the shape of a coordination rule
/// before peer names are resolved (that resolution lives in `p2p-core`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Implication {
    /// Body atoms (possibly qualified with peer names).
    pub body: Vec<Atom>,
    /// Built-in constraints over body variables.
    pub constraints: Vec<Constraint>,
    /// Head atoms (possibly qualified); variables absent from the body are
    /// existential.
    pub head: Vec<Atom>,
}

/// Parses a conjunctive query, e.g. `q(X, Z) :- b(X, Y), b(Y, Z), X != Z`.
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery> {
    let mut idents = Idents::new();
    let mut p = P::new(input, &mut idents);
    let (name, head_terms, qualifier) = p.head_atom()?;
    if let Some(q) = qualifier {
        return Err(p.err_at(format!("query head must not be qualified (got `{q}:`)")));
    }
    p.ws();
    p.expect_str(":-")?;
    let (atoms, constraints) = p.body()?;
    p.ws();
    p.eof()?;
    let q = ConjunctiveQuery {
        name,
        head: head_terms,
        atoms,
        constraints,
    };
    check_safety(&q)?;
    Ok(q)
}

/// Parses an implication `body => head` (coordination-rule shape), e.g.
/// `B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)`, taking its identifiers from
/// `idents` (see the module docs).
pub fn parse_implication(input: &str, idents: &mut Idents) -> Result<Implication> {
    let mut p = P::new(input, idents);
    let (body, constraints) = p.body()?;
    p.ws();
    p.expect_str("=>")?;
    p.ws();
    let mut head = Vec::with_capacity(p.items_ahead());
    loop {
        p.ws();
        head.push(p.atom()?);
        p.ws();
        if p.peek() == Some(b',') {
            p.pos += 1;
        } else {
            break;
        }
    }
    p.ws();
    p.eof()?;
    if body.is_empty() {
        return Err(Error::Parse {
            offset: 0,
            message: "implication needs at least one body atom".into(),
        });
    }
    Ok(Implication {
        body,
        constraints,
        head,
    })
}

/// Parses a database schema (`schema` in the module docs), e.g.
/// `pub(id: int, title: str). author(pid: int, name: str).`
pub(crate) fn parse_schema(input: &str) -> Result<DatabaseSchema> {
    let mut idents = Idents::new();
    let mut p = P::new(input, &mut idents);
    let mut schema = DatabaseSchema::new();
    loop {
        p.ws();
        if p.peek().is_none() {
            break;
        }
        let word = p.word()?;
        let name = p.idents.intern(word);
        p.ws();
        p.expect(b'(')?;
        let mut columns = Vec::new();
        loop {
            p.ws();
            if p.peek() == Some(b')') {
                p.pos += 1;
                break;
            }
            let name = p.word()?.to_string();
            p.ws();
            p.expect(b':')?;
            p.ws();
            let ty = match p.word()? {
                "int" => ColumnType::Int,
                "str" => ColumnType::Str,
                other => {
                    let message = format!("unknown column type `{other}` (expected int/str)");
                    return Err(p.err_at(message));
                }
            };
            columns.push(ColumnDef { name, ty });
            p.ws();
            if p.peek() == Some(b',') {
                p.pos += 1;
            }
        }
        p.ws();
        p.expect(b'.')?;
        schema.add_relation(RelationSchema { name, columns })?;
    }
    Ok(schema)
}

/// Safety check: every head variable and every constraint variable must be
/// bound by a body atom.
fn check_safety(q: &ConjunctiveQuery) -> Result<()> {
    let bound: Vec<Arc<str>> = q.body_variables();
    for t in &q.head {
        if let Term::Var(v) = t {
            if !bound.contains(v) {
                return Err(Error::UnboundVariable(v.to_string()));
            }
        }
    }
    for c in &q.constraints {
        for v in c.variables() {
            if !bound.contains(&v) {
                return Err(Error::UnboundVariable(v.to_string()));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Recursive-descent machinery
// ---------------------------------------------------------------------------

/// `(relation name, terms, qualifier)` of a parsed atom.
type ParsedAtomParts = (Arc<str>, Vec<Term>, Option<Arc<str>>);

struct P<'a, 'i> {
    input: &'a str,
    pos: usize,
    idents: &'i mut Idents,
}

impl<'a, 'i> P<'a, 'i> {
    fn new(input: &'a str, idents: &'i mut Idents) -> Self {
        P {
            input,
            pos: 0,
            idents,
        }
    }

    fn err_at(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn ws(&mut self) {
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b'#' {
                while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos + 1).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn expect(&mut self, ch: u8) -> Result<()> {
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err_at(format!("expected `{}`", ch as char)))
        }
    }

    fn expect_str(&mut self, s: &str) -> Result<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err_at(format!("expected `{s}`")))
        }
    }

    fn eof(&mut self) -> Result<()> {
        self.ws();
        if self.pos == self.input.len() {
            Ok(())
        } else {
            Err(self.err_at("unexpected trailing input"))
        }
    }

    /// The run of ASCII letters, digits and `_` at the cursor, consumed
    /// (empty if none starts there).
    fn run(&mut self) -> &'a str {
        let start = self.pos;
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_alphanumeric() || bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        &self.input[start..self.pos]
    }

    /// The identifier at the cursor, consumed, if one starts there.
    fn scan_ident(&mut self) -> Option<&'a str> {
        let first = self.peek()?;
        (first.is_ascii_alphabetic() || first == b'_').then(|| self.run())
    }

    fn ident(&mut self) -> Result<&'a str> {
        self.scan_ident()
            .ok_or_else(|| self.err_at("expected identifier"))
    }

    /// A schema's name at the cursor: a non-empty [`Self::run`].
    fn word(&mut self) -> Result<&'a str> {
        Some(self.run())
            .filter(|word| !word.is_empty())
            .ok_or_else(|| self.err_at("expected identifier"))
    }

    /// How many comma-separated items the list at the cursor holds, read
    /// ahead to its end (its closing `)`, a `=>` or the end of input) over
    /// nested parentheses and quoted strings; 0 for an empty list. Lists
    /// are made with this capacity, so a parsed rule or query keeps no
    /// growth slack in its atom and term lists. (On malformed input the
    /// count may be off; it is only a capacity.)
    fn items_ahead(&self) -> usize {
        let bytes = &self.input.as_bytes()[self.pos..];
        let (mut depth, mut quoted, mut commas) = (0usize, false, 0);
        let mut empty = true;
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'\'' => quoted = !quoted,
                _ if quoted => {}
                b'(' => depth += 1,
                b')' if depth == 0 => break,
                b')' => depth -= 1,
                b'=' if depth == 0 && bytes.get(i + 1) == Some(&b'>') => break,
                b',' if depth == 0 => commas += 1,
                _ => {}
            }
            empty &= b.is_ascii_whitespace();
        }
        if empty {
            0
        } else {
            commas + 1
        }
    }

    /// `name "(" terms ")"` with an optional qualifier; returns
    /// `(name, terms, qualifier)`.
    fn head_atom(&mut self) -> Result<ParsedAtomParts> {
        self.ws();
        let first = self.ident()?;
        self.ws();
        let (qualifier, name) = if self.peek() == Some(b':') && self.peek2() != Some(b'-') {
            self.pos += 1;
            self.ws();
            let n = self.ident()?;
            (Some(self.idents.intern(first)), self.idents.intern(n))
        } else {
            (None, self.idents.intern(first))
        };
        self.ws();
        self.expect(b'(')?;
        let terms = self.terms()?;
        Ok((name, terms, qualifier))
    }

    fn atom(&mut self) -> Result<Atom> {
        let (name, terms, qualifier) = self.head_atom()?;
        Ok(Atom {
            qualifier,
            relation: name,
            terms,
        })
    }

    /// Comma-separated `term` list up to and including the closing `)`.
    fn terms(&mut self) -> Result<Vec<Term>> {
        let mut out = Vec::with_capacity(self.items_ahead());
        loop {
            self.ws();
            if self.peek() == Some(b')') {
                self.pos += 1;
                break;
            }
            out.push(self.term()?);
            self.ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else if self.peek() != Some(b')') {
                return Err(self.err_at("expected `,` or `)` in term list"));
            }
        }
        Ok(out)
    }

    fn term(&mut self) -> Result<Term> {
        self.ws();
        match self.peek() {
            Some(b'\'') => {
                self.pos += 1;
                let start = self.pos;
                let bytes = self.input.as_bytes();
                while self.pos < bytes.len() && bytes[self.pos] != b'\'' {
                    self.pos += 1;
                }
                if self.pos == bytes.len() {
                    return Err(self.err_at("unterminated string literal"));
                }
                let s = &self.input[start..self.pos];
                self.pos += 1;
                Ok(Term::Const(Val::str(s)))
            }
            Some(b) if b.is_ascii_digit() || b == b'-' => {
                let start = self.pos;
                if b == b'-' {
                    self.pos += 1;
                }
                let bytes = self.input.as_bytes();
                while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let text = &self.input[start..self.pos];
                let n: i64 = text
                    .parse()
                    .map_err(|_| self.err_at(format!("invalid integer `{text}`")))?;
                Ok(Term::Const(Val::Int(n)))
            }
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
                let name = self.ident()?;
                let first = name.as_bytes()[0];
                if first.is_ascii_uppercase() || first == b'_' {
                    Ok(Term::Var(self.idents.intern(name)))
                } else {
                    // Lowercase bare word: treat as string constant, matching
                    // common Datalog usage (`status(X, open)`).
                    Ok(Term::Const(Val::str(name)))
                }
            }
            _ => Err(self.err_at("expected term (variable, integer or 'string')")),
        }
    }

    /// Body: atoms and constraints separated by commas, terminated by end of
    /// input or by `=>` (not consumed).
    fn body(&mut self) -> Result<(Vec<Atom>, Vec<Constraint>)> {
        self.ws();
        let mut atoms = Vec::with_capacity(self.items_ahead());
        let mut constraints = Vec::new();
        loop {
            self.ws();
            if self.pos == self.input.len() || self.starts_with("=>") {
                break;
            }
            // An item that starts like an atom and parses as one is an
            // atom; anything else is a constraint.
            let save = self.pos;
            match self.atom_ahead().then(|| self.atom()) {
                Some(Ok(atom)) => atoms.push(atom),
                _ => {
                    self.pos = save;
                    constraints.push(self.constraint()?);
                }
            }
            self.ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok((atoms, constraints))
    }

    /// True iff the item at the cursor starts like an atom: an identifier
    /// followed by `(` or by a qualifier's `:`. Moves nothing, and so a
    /// constraint is never first tried (and failed, with an error message
    /// built to be dropped) as an atom.
    fn atom_ahead(&mut self) -> bool {
        let save = self.pos;
        let ahead = self.scan_ident().is_some() && {
            self.ws();
            match self.peek() {
                Some(b'(') => true,
                Some(b':') => self.peek2() != Some(b'-'),
                _ => false,
            }
        };
        self.pos = save;
        ahead
    }

    fn constraint(&mut self) -> Result<Constraint> {
        let lhs = self.term()?;
        self.ws();
        let op = if self.starts_with("!=") {
            self.pos += 2;
            CmpOp::Neq
        } else if self.starts_with("<=") {
            self.pos += 2;
            CmpOp::Le
        } else if self.starts_with(">=") {
            self.pos += 2;
            CmpOp::Ge
        } else if self.peek() == Some(b'<') {
            self.pos += 1;
            CmpOp::Lt
        } else if self.peek() == Some(b'>') {
            self.pos += 1;
            CmpOp::Gt
        } else if self.peek() == Some(b'=') {
            self.pos += 1;
            CmpOp::Eq
        } else {
            return Err(self.err_at("expected comparison operator"));
        };
        let rhs = self.term()?;
        Ok(Constraint { lhs, op, rhs })
    }
}

#[cfg(test)]
/// Parses a single (possibly qualified) atom, e.g. `B:b(X, 'v')`: a
/// fixture for unit tests that need one atom.
pub(crate) fn parse_atom(input: &str) -> Result<Atom> {
    let mut idents = Idents::new();
    let mut p = P::new(input, &mut idents);
    let atom = p.atom()?;
    p.ws();
    p.eof()?;
    Ok(atom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_query() {
        let q = parse_query("q(X, Z) :- b(X, Y), b(Y, Z)").unwrap();
        assert_eq!(&*q.name, "q");
        assert_eq!(q.head.len(), 2);
        assert_eq!(q.atoms.len(), 2);
        assert!(q.constraints.is_empty());
    }

    #[test]
    fn parse_query_with_constraints_and_constants() {
        let q = parse_query("q(X) :- r(X, Y, 'tag'), s(Y, 3), X != Y, Y >= 2").unwrap();
        assert_eq!(q.atoms.len(), 2);
        assert_eq!(q.constraints.len(), 2);
        assert_eq!(q.atoms[0].terms[2], Term::Const(Val::str("tag")));
        assert_eq!(q.atoms[1].terms[1], Term::Const(Val::Int(3)));
        assert_eq!(q.constraints[1].op, CmpOp::Ge);
    }

    #[test]
    fn parse_rejects_unsafe_head() {
        let e = parse_query("q(X, W) :- b(X, Y)").unwrap_err();
        assert_eq!(e, Error::UnboundVariable("W".to_string()));
    }

    #[test]
    fn parse_rejects_unsafe_constraint() {
        let e = parse_query("q(X) :- b(X, Y), W != X").unwrap_err();
        assert_eq!(e, Error::UnboundVariable("W".to_string()));
    }

    #[test]
    fn parse_implication_of_paper_rule_r4() {
        // r4 : B : b(X,Y), b(X,Z), X != Z → A : a(X,Y)
        let imp = parse_implication("B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)", &mut Idents::new())
            .unwrap();
        assert_eq!(imp.body.len(), 2);
        assert_eq!(imp.body[0].qualifier.as_deref(), Some("B"));
        assert_eq!(imp.constraints.len(), 1);
        assert_eq!(imp.head.len(), 1);
        assert_eq!(imp.head[0].qualifier.as_deref(), Some("A"));
    }

    #[test]
    fn parse_implication_with_existential_head() {
        // r2 : B : b(X,Y), b(Y,Z) → C : c(X,Z) — here with an extra head
        // variable W that is existential.
        let imp = parse_implication("B:b(X,Y) => C:c(X,W)", &mut Idents::new()).unwrap();
        assert_eq!(imp.head[0].terms[1], Term::var("W"));
    }

    #[test]
    fn parse_multi_head_implication() {
        let imp = parse_implication(
            "S:art(I, T, N) => pub(I, T), author(I, N)",
            &mut Idents::new(),
        )
        .unwrap();
        assert_eq!(imp.head.len(), 2);
        assert!(imp.head[0].qualifier.is_none());
    }

    #[test]
    fn lowercase_bare_words_are_string_constants() {
        let q = parse_query("q(X) :- status(X, open)").unwrap();
        assert_eq!(q.atoms[0].terms[1], Term::Const(Val::str("open")));
    }

    #[test]
    fn negative_integers_parse() {
        let q = parse_query("q(X) :- r(X, -5)").unwrap();
        assert_eq!(q.atoms[0].terms[1], Term::Const(Val::Int(-5)));
    }

    #[test]
    fn underscore_initial_is_variable() {
        let q = parse_query("q(X) :- r(X, _y)").unwrap();
        assert_eq!(q.atoms[0].terms[1], Term::var("_y"));
    }

    #[test]
    fn display_parse_round_trip() {
        let text = "q(X, Z) :- b(X, Y), b(Y, Z), X != Z";
        let q = parse_query(text).unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let e = parse_query("q(X) :- r(X,").unwrap_err();
        match e {
            Error::Parse { offset, .. } => assert!(offset >= 9),
            other => panic!("unexpected: {other:?}"),
        }
        // An empty body leaves the head variable unbound.
        assert_eq!(
            parse_query("q(X) :- ").unwrap_err(),
            Error::UnboundVariable("X".to_string())
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("q(X) :- r(X) extra").is_err());
        assert!(parse_atom("r(X))").is_err());
    }
}
