//! `CoordinationRule::parse` on random rules — several body nodes, local
//! and join constraints, integer and string constants, existential head
//! variables — against a model that groups the same atoms the plain way:
//! parts in node order, each with its atoms in text order and its
//! variables in first-occurrence order, and each constraint at the first
//! part binding all its variables, else among the join constraints. A
//! rule's display parses back to the same rule under the interner it was
//! read with (sharing its identifiers) and under a fresh one. The
//! rejections keep their error texts byte for byte.

use p2p_core::rule::{BodyPart, CoordinationRule, RuleId};
use p2p_relational::query::{Atom, CmpOp, Constraint, Idents, Term};
use p2p_relational::{Database, DatabaseSchema, Val};
use p2p_topology::NodeId;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Body variables; a head may also name `E` and `F`, which no body binds.
const VARS: [&str; 7] = ["X", "Y", "Z", "W", "_v", "E", "F"];
const RELATIONS: [&str; 4] = ["a", "b", "rel", "item"];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Neq,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn resolve(name: &str) -> Option<NodeId> {
    (0..40).map(NodeId).find(|n| n.letter() == name)
}

/// A term drawn from `(kind, number)`: a variable among the first `vars`
/// of [`VARS`], an integer, a quoted string or a bare lowercase word (a
/// string constant too). Returns the term and how the text writes it.
fn term((kind, n): (u8, i64), vars: usize) -> (Term, String) {
    match kind % 8 {
        0..=4 => {
            let v = VARS[n.unsigned_abs() as usize % vars];
            (Term::var(v), v.to_string())
        }
        5 => (Term::Const(Val::Int(n)), n.to_string()),
        6 => {
            let s = ["x", "open data", "p2p"][n.unsigned_abs() as usize % 3];
            (Term::Const(Val::str(s)), format!("'{s}'"))
        }
        _ => {
            let s = ["open", "closed"][n.unsigned_abs() as usize % 2];
            (Term::Const(Val::str(s)), s.to_string())
        }
    }
}

type RawTerm = (u8, i64);
/// `(body node pick, relation, terms)` of a body atom.
type RawAtom = (usize, usize, Vec<RawTerm>);
/// `(relation, terms, qualified)` of a head atom after the first.
type RawHead = (usize, Vec<RawTerm>, bool);

/// A random rule: its text and the rule the model says it parses to.
#[derive(Debug)]
struct Case {
    text: String,
    expected: CoordinationRule,
}

fn atom_text(node: Option<NodeId>, atom: &Atom, terms: &[String]) -> String {
    let q = node.map_or(String::new(), |n| format!("{}:", n.letter()));
    format!("{q}{}({})", atom.relation, terms.join(", "))
}

/// A body item of the text: an atom at a node, or a constraint.
enum Item {
    Atom(NodeId, Atom),
    Constraint(Constraint),
}

fn case(
    head: u32,
    body_nodes: Vec<u32>,
    atoms: Vec<RawAtom>,
    constraints: Vec<(RawTerm, usize, RawTerm, u8)>,
    heads: Vec<RawHead>,
) -> Case {
    let head_node = NodeId(head);
    // Never the head node itself.
    let body_nodes: Vec<NodeId> = (body_nodes.iter())
        .map(|k| NodeId((head + 1 + k % 39) % 40))
        .collect();
    // Body items under sort keys: atoms keep their order, constraints
    // fall between them.
    let mut items: Vec<(u8, Item, String)> = Vec::new();
    for (i, (pick, rel, raw)) in atoms.into_iter().enumerate() {
        let node = body_nodes[pick % body_nodes.len()];
        let (terms, texts): (Vec<Term>, Vec<String>) = raw.into_iter().map(|t| term(t, 5)).unzip();
        let atom = Atom::new(RELATIONS[rel % RELATIONS.len()], terms);
        let text = atom_text(Some(node), &atom, &texts);
        items.push((2 * i as u8, Item::Atom(node, atom), text));
    }
    for (lhs, op, rhs, key) in constraints {
        let ((lhs, l), (rhs, r)) = (term(lhs, 5), term(rhs, 5));
        let op = OPS[op % OPS.len()];
        let text = format!("{l} {op} {r}");
        items.push((key, Item::Constraint(Constraint { lhs, op, rhs }), text));
    }
    items.sort_by_key(|(key, _, _)| *key);
    let mut head_texts = Vec::new();
    let mut head_atoms = Vec::new();
    for (i, (rel, raw, qualified)) in heads.into_iter().enumerate() {
        let (terms, texts): (Vec<Term>, Vec<String>) = raw.into_iter().map(|t| term(t, 7)).unzip();
        let atom = Atom::new(RELATIONS[rel % RELATIONS.len()], terms);
        let node = (i == 0 || qualified).then_some(head_node);
        head_texts.push(atom_text(node, &atom, &texts));
        head_atoms.push(atom);
    }
    let body_text: Vec<&str> = items.iter().map(|(_, _, t)| t.as_str()).collect();
    let text = format!("{} => {}", body_text.join(", "), head_texts.join(", "));

    // The model: group by node in an ordered map, list variables by
    // scanning, and place constraints in part order.
    let mut grouped: BTreeMap<NodeId, Vec<Atom>> = BTreeMap::new();
    let mut constraints = Vec::new();
    for (_, item, _) in items {
        match item {
            Item::Atom(node, atom) => grouped.entry(node).or_default().push(atom),
            Item::Constraint(c) => constraints.push(c),
        }
    }
    let mut parts: Vec<BodyPart> = (grouped.into_iter())
        .map(|(node, atoms)| {
            let mut vars: Vec<Arc<str>> = Vec::new();
            for t in atoms.iter().flat_map(|a| &a.terms) {
                if let Term::Var(v) = t {
                    if !vars.contains(v) {
                        vars.push(v.clone());
                    }
                }
            }
            BodyPart {
                node,
                atoms,
                local_constraints: Vec::new(),
                vars,
            }
        })
        .collect();
    let mut join_constraints = Vec::new();
    for c in constraints {
        let bound = |part: &&mut BodyPart| c.variables().iter().all(|v| part.vars.contains(v));
        match parts.iter_mut().find(bound) {
            Some(part) => part.local_constraints.push(c),
            None => join_constraints.push(c),
        }
    }
    let expected = CoordinationRule {
        id: RuleId(0),
        name: Arc::from("r"),
        head_node,
        parts: parts.into_iter().map(Arc::new).collect(),
        join_constraints,
        head: head_atoms,
    };
    Case { text, expected }
}

fn random_case() -> impl Strategy<Value = Case> {
    let raw_term = || (any::<u8>(), -30i64..30);
    let atom = (
        0usize..4,
        0usize..4,
        proptest::collection::vec(raw_term(), 0..4),
    );
    let constraint = (raw_term(), 0usize..6, raw_term(), any::<u8>());
    let head = (
        0usize..4,
        proptest::collection::vec(raw_term(), 0..4),
        any::<bool>(),
    );
    (
        0u32..40,
        proptest::collection::vec(0u32..39, 1..4),
        proptest::collection::vec(atom, 1..6),
        proptest::collection::vec(constraint, 0..4),
        proptest::collection::vec(head, 1..4),
    )
        .prop_map(|(head, nodes, atoms, constraints, heads)| {
            case(head, nodes, atoms, constraints, heads)
        })
}

fn parse(text: &str, idents: &mut Idents) -> CoordinationRule {
    CoordinationRule::parse("r", text, None, &resolve, idents)
        .unwrap_or_else(|e| panic!("`{text}`: {e}"))
}

/// The rule's display without its `name: ` prefix: rule text again.
fn shown(rule: &CoordinationRule) -> String {
    let shown = rule.to_string();
    shown[rule.name.len() + 2..].to_string()
}

/// Every identifier `Arc` of `rule`, relation names and variables.
fn identifiers(rule: &CoordinationRule) -> Vec<&Arc<str>> {
    let atoms = (rule.parts.iter().flat_map(|p| &p.atoms)).chain(&rule.head);
    let mut out: Vec<&Arc<str>> = Vec::new();
    for a in atoms {
        out.push(&a.relation);
        out.extend(a.terms.iter().filter_map(|t| match t {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parse is the model's, and its display parses back to it, under
    /// the interner it was read with and under a fresh one.
    #[test]
    fn a_random_rule_parses_as_the_model_groups_it(case in random_case()) {
        let mut idents = Idents::new();
        let rule = parse(&case.text, &mut idents);
        prop_assert_eq!(&rule, &case.expected, "{}", case.text);

        // Parts in node order, each with its variables in first-occurrence
        // order, and every local constraint bound by its part.
        prop_assert!(rule.parts.windows(2).all(|w| w[0].node < w[1].node));
        for part in &rule.parts {
            let mut first = Vec::new();
            for t in part.atoms.iter().flat_map(|a| &a.terms) {
                if let Term::Var(v) = t {
                    if !first.contains(v) {
                        first.push(v.clone());
                    }
                }
            }
            prop_assert_eq!(&part.vars, &first);
            for c in &part.local_constraints {
                prop_assert!(c.variables().iter().all(|v| part.vars.contains(v)), "{c}");
            }
        }

        let again = parse(&shown(&rule), &mut idents);
        prop_assert_eq!(&again, &rule, "{}", case.text);
        for (a, b) in identifiers(&again).into_iter().zip(identifiers(&rule)) {
            prop_assert!(Arc::ptr_eq(a, b), "`{a}` is not shared");
        }
        prop_assert_eq!(&parse(&shown(&rule), &mut Idents::new()), &rule);
    }
}

/// Each rejection keeps its text, byte for byte.
#[test]
fn rejections_keep_their_texts() {
    let parse = |text: &str| CoordinationRule::parse("r", text, None, &resolve, &mut Idents::new());
    let rejected = |text: &str| parse(text).unwrap_err().to_string();
    for (text, error) in [
        (
            "A:a(X,Y) => A:a(Y,X)",
            "rule `r` has head and body at the same node",
        ),
        (
            "B:b(X), A:a(X) => A:a(X)",
            "rule `r` has head and body at the same node",
        ),
        ("B:b(X,Y), Z9:b(X) => A:a(X,Y)", "unknown node `Z9`"),
        ("B:b(X,Y) => Z9:a(X,Y)", "unknown node `Z9`"),
        (
            "B:b(X,Y), c(Y, 'v') => A:a(X,Y)",
            "malformed rule `r: body atom `c(Y, 'v')` must be node-qualified`",
        ),
        (
            "B:b(X,Y) => A:a(X,Y), C:c(Y)",
            "malformed rule `r: head atoms qualified with different nodes`",
        ),
        (
            "B:b(X,Y) => a(X,Y)",
            "rule `r` has an unqualified head atom and no default head node",
        ),
        (
            "B:b(X,Y), X != => A:a(X)",
            "relational error: parse error at byte 15: expected term (variable, integer or 'string')",
        ),
    ] {
        assert_eq!(rejected(text), error, "{text}");
    }

    let databases: BTreeMap<NodeId, Database> = [
        (NodeId(0), "a(x: int)."),
        (NodeId(1), "b(x: int, y: str)."),
        (NodeId(4), "b(x: int, y: str)."),
    ]
    .into_iter()
    .map(|(n, s)| (n, Database::new(DatabaseSchema::parse(s).unwrap())))
    .collect();
    let invalid = |text: &str| parse(text).unwrap().validate(&databases).unwrap_err();
    for (text, error) in [
        (
            "B:b(X) => A:a(X)",
            "rule `r` violates a schema: `b` at node B has arity 2, atom has 1 terms",
        ),
        (
            "B:b(X, 7) => A:a(X)",
            "rule `r` violates a schema: constant 7 does not fit column 1 of `b`",
        ),
        (
            "B:zzz(X) => A:a(X)",
            "rule `r` violates a schema: node B has no relation `zzz`",
        ),
        ("B:b(X,Y), C:c(Z) => A:a(X)", "unknown node `C`"),
    ] {
        assert_eq!(invalid(text).to_string(), error, "{text}");
    }
    let mut loose = parse("B:b(X,Y), E:b(Z,W), X < Z => A:a(X)").unwrap();
    loose.join_constraints[0].rhs = Term::var("Q");
    assert_eq!(
        loose.validate(&databases).unwrap_err().to_string(),
        "rule `r` violates a schema: join constraint variable `Q` unbound"
    );
}
