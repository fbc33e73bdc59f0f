//! Coordination rules (Definition 2) and rule sets.
//!
//! A coordination rule `j₁:b₁ ∧ … ∧ jₖ:bₖ ⇒ i:h` lets node `i` import data
//! from its acquaintances `j₁…jₖ`. Bodies are conjunctive queries with
//! built-ins, grouped here into one [`BodyPart`] per body node (the paper's
//! common case is a single body node, but Definition 2 allows several; the
//! head node then joins the per-node extensions locally). Heads are
//! conjunctions over the head node's schema and may contain **existential
//! variables**, materialised as labeled nulls by the restricted chase.
//!
//! The module also implements **weak acyclicity** of rule sets — the
//! standard syntactic condition (Fagin et al., data exchange) under which
//! the chase, and therefore the distributed update fix-point, terminates.
//! The paper asserts termination (Lemma 1.2) without stating a restriction;
//! we reconcile that by rejecting rule sets that are not weakly acyclic at
//! build time (`P2PSystemBuilder::build_peers` always checks). Only an
//! existential head variable makes a special edge, so a set without one —
//! copy rules, the paper's running example, the scale workload's
//! `item(I,S) => inbox(I,S)` rules — is weakly acyclic as it stands: the
//! check sees that rule by rule and builds no position graph.

use crate::error::{CoreError, CoreResult};
use crate::peer::catalog::{HeldBody, HeldHead};
use p2p_relational::query::{parse_implication, Atom, Constraint, Idents, Implication, Term};
use p2p_relational::{Database, DatabaseSchema};
use p2p_topology::fxhash::FxHashMap;
use p2p_topology::scc::{self, Csr};
use p2p_topology::{DependencyGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Identifier of a coordination rule, unique network-wide. The paper keys
/// rules by `(pair of nodes, name)`; a flat id plus the name registry in
/// [`RuleSet`] is equivalent and simpler to route on.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RuleId(pub u32);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What a qualifier resolves to while a rule is parsed: its node, and the
/// node's schema when the rule is validated as it is parsed.
type Resolved<'s> = Option<(NodeId, Option<&'s DatabaseSchema>)>;

/// The body fragment of a rule living at one acquaintance node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BodyPart {
    /// The node owning this fragment.
    pub node: NodeId,
    /// Unqualified atoms over that node's schema.
    pub atoms: Vec<Atom>,
    /// Constraints whose variables are all bound by this fragment — pushed
    /// down so the body node filters before shipping (the "more fine grained
    /// queries to acquaintances" optimization the paper mentions).
    pub local_constraints: Vec<Constraint>,
    /// Distinct variables of the fragment, in first-occurrence order; answer
    /// rows are tuples over exactly these variables, and every answer
    /// shares this list.
    pub vars: Arc<[Arc<str>]>,
    /// The fragment's compiled body, taken from the evaluating peer's plan
    /// catalog at the first evaluation (`peer::catalog`): never compared,
    /// written or read back.
    #[serde(skip)]
    pub(crate) compiled: HeldBody,
}

impl BodyPart {
    /// The fragment of `atoms` and `local_constraints` at `node`, over
    /// `vars`; it holds no compiled body yet.
    pub fn new(
        node: NodeId,
        atoms: Vec<Atom>,
        local_constraints: Vec<Constraint>,
        vars: Arc<[Arc<str>]>,
    ) -> Self {
        BodyPart {
            node,
            atoms,
            local_constraints,
            vars,
            compiled: HeldBody::default(),
        }
    }

    fn empty(node: NodeId) -> Self {
        BodyPart::new(node, Vec::new(), Vec::new(), Arc::default())
    }

    /// True iff `vars` are the atoms' distinct variables in first-occurrence
    /// order, as the parser builds them: then a row of the fragment fixes
    /// the fact each atom matched. Allocates nothing.
    pub(crate) fn vars_are_its_atoms(&self) -> bool {
        let mut seen = 0;
        for v in variables(&self.atoms) {
            if self.vars[..seen].contains(v) {
                continue;
            }
            if self.vars.get(seen) != Some(v) {
                return false;
            }
            seen += 1;
        }
        seen == self.vars.len()
    }
}

/// Every variable occurrence in `atoms`, in order.
fn variables(atoms: &[Atom]) -> impl Iterator<Item = &Arc<str>> {
    (atoms.iter().flat_map(|a| &a.terms)).filter_map(|t| match t {
        Term::Var(v) => Some(v),
        Term::Const(_) => None,
    })
}

/// The part a rule being parsed is building: nothing else holds it yet.
fn building(part: &mut Arc<BodyPart>) -> &mut BodyPart {
    Arc::get_mut(part).expect("a part being built is unshared")
}

/// A coordination rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoordinationRule {
    /// Network-unique id (assigned by [`RuleSet::add`]).
    pub id: RuleId,
    /// Human-readable name (`r1`, `r2`, … in the paper).
    pub name: Arc<str>,
    /// The node importing data (rule head).
    pub head_node: NodeId,
    /// Body fragments, one per body node, in node order. Shared: a `Query`
    /// carries its fragment's `Arc`, and so the body peer's cursor holds
    /// the rule's own allocation, and with it the plan the fragment holds.
    pub parts: Vec<Arc<BodyPart>>,
    /// Constraints spanning several fragments, applied at the head after the
    /// join.
    pub join_constraints: Vec<Constraint>,
    /// Unqualified head atoms over the head node's schema.
    pub head: Vec<Atom>,
    /// The head compiled for the head node's schema, taken from its plan
    /// catalog at the first binding (`peer::catalog`): never compared,
    /// written or read back.
    #[serde(skip)]
    pub(crate) compiled: HeldHead,
}

impl CoordinationRule {
    /// Parses the paper's rule notation, e.g.
    /// `B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)`.
    ///
    /// Body atoms must be node-qualified. Head atoms may all be qualified
    /// with the same node, or left unqualified if `default_head` is given.
    /// `resolve` maps node names (`A`, `B`, …) to ids.
    ///
    /// Relation names and variables come from `idents`, which the caller
    /// owns: a [`crate::P2PSystemBuilder`] passes one interner for all the
    /// rules it reads, so they share one `Arc<str>` per distinct name; a
    /// caller without one passes `&mut Idents::new()`.
    ///
    /// The body atoms are moved, qualifier stripped, into one part per
    /// node in node order; a part's variables are listed in first-occurrence
    /// order, and a constraint goes to the first part binding all its
    /// variables, or else joins the rule's join constraints.
    pub fn parse(
        name: &str,
        text: &str,
        default_head: Option<NodeId>,
        resolve: &dyn Fn(&str) -> Option<NodeId>,
        idents: &mut Idents,
    ) -> CoreResult<Self> {
        let resolve = |q: &str| Some((resolve(q)?, None));
        Self::parse_with(name, text, default_head, &resolve, idents)
    }

    /// [`CoordinationRule::parse`] over declared nodes, validated as
    /// [`CoordinationRule::validate`] validates it — with the same errors,
    /// in the same order. `resolve` gives a qualifier's node and the node's
    /// declared schema in one lookup, and each atom is checked against the
    /// schema it resolved to.
    pub fn parse_declared<'s>(
        name: &str,
        text: &str,
        resolve: &dyn Fn(&str) -> Option<(NodeId, &'s DatabaseSchema)>,
        idents: &mut Idents,
    ) -> CoreResult<Self> {
        let resolve = |q: &str| resolve(q).map(|(node, schema)| (node, Some(schema)));
        let rule = Self::parse_with(name, text, None, &resolve, idents)?;
        rule.check_join_constraints()?;
        Ok(rule)
    }

    /// The one parse: `resolve` gives a qualifier's node and, to validate
    /// the atoms against it, the node's schema. A schema violation is
    /// reported once the rule parsed — a parse error comes first — and of
    /// several, the first [`CoordinationRule::validate`] would meet: body
    /// atoms by node, then head atoms, each in text order.
    fn parse_with<'s>(
        name: &str,
        text: &str,
        default_head: Option<NodeId>,
        resolve: &dyn Fn(&str) -> Resolved<'s>,
        idents: &mut Idents,
    ) -> CoreResult<Self> {
        // The first schema violation in `validate`'s order: (head?, node,
        // atom) keys it.
        let mut violation: Option<((bool, NodeId, usize), CoreError)> = None;
        let mut check = |key: (bool, NodeId, usize), schema: Option<&DatabaseSchema>, a: &Atom| {
            let Some(Err(e)) = schema.map(|s| check_atom(name, key.1, s, a)) else {
                return;
            };
            if violation.as_ref().is_none_or(|(first, _)| key < *first) {
                violation = Some((key, e));
            }
        };
        let imp = parse_implication(text, idents).map_err(CoreError::Relational)?;
        if imp.head.is_empty() || imp.body.is_empty() {
            return Err(CoreError::MalformedRule(name.to_string()));
        }
        let Implication {
            mut body,
            constraints,
            mut head,
        } = imp;

        // Resolve the head node.
        let mut head_node: Option<NodeId> = default_head;
        let mut head_schema = None;
        for atom in &mut head {
            if let Some(q) = atom.qualifier.take() {
                let (id, schema) =
                    resolve(&q).ok_or_else(|| CoreError::UnknownNode(q.to_string()))?;
                match head_node {
                    Some(h) if h != id && default_head.is_none() => {
                        return Err(CoreError::MalformedRule(format!(
                            "{name}: head atoms qualified with different nodes"
                        )))
                    }
                    _ => (head_node, head_schema) = (Some(id), schema),
                }
            }
        }
        let head_node = head_node.ok_or_else(|| CoreError::UnresolvedHead(name.to_string()))?;
        for (i, atom) in head.iter().enumerate() {
            check((true, NodeId(0), i), head_schema, atom);
        }

        // Lay out the parts in node order, resolving the body atoms' nodes
        // in text order. A part is unshared until the rule is made, so
        // `Arc::get_mut` holds.
        let body_node = |atom: &Atom| {
            let q = atom.qualifier.as_ref().ok_or_else(|| {
                CoreError::MalformedRule(format!(
                    "{name}: body atom `{atom}` must be node-qualified"
                ))
            })?;
            resolve(q).ok_or_else(|| CoreError::UnknownNode(q.to_string()))
        };
        let mut parts: Vec<Arc<BodyPart>> = Vec::with_capacity(1);
        for (i, atom) in body.iter().enumerate() {
            let (node, schema) = body_node(atom)?;
            check((false, node, i), schema, atom);
            let at = parts.partition_point(|p| p.node < node);
            if parts.get(at).is_none_or(|p| p.node != node) {
                parts.insert(at, Arc::new(BodyPart::empty(node)));
            }
        }
        if parts.iter().any(|p| p.node == head_node) {
            return Err(CoreError::SelfRule(name.to_string()));
        }
        // Move the atoms in, qualifiers stripped: a body at one node is its
        // part's atom list as parsed.
        if let [part] = &mut parts[..] {
            body.iter_mut().for_each(|a| a.qualifier = None);
            building(part).atoms = body;
        } else {
            for mut atom in body {
                let (node, _) = body_node(&atom).expect("resolved above");
                let at = parts.partition_point(|p| p.node < node);
                atom.qualifier = None;
                building(&mut parts[at]).atoms.push(atom);
            }
        }
        for part in &mut parts {
            let part = building(part);
            // Counted first, so that the list is allocated once, at its size.
            let first =
                |(i, v): &(usize, &Arc<str>)| !variables(&part.atoms).take(*i).any(|u| u == *v);
            let distinct = || variables(&part.atoms).enumerate().filter(first);
            let mut vars = distinct().map(|(_, v)| Arc::clone(v));
            part.vars = (0..distinct().count())
                .map(|_| vars.next().expect("as many as counted"))
                .collect();
        }

        // Push constraints down to single fragments where possible.
        let mut join_constraints = Vec::new();
        for c in constraints {
            match parts.iter_mut().find(|p| c.bound_by(&p.vars)) {
                Some(part) => building(part).local_constraints.push(c),
                None => join_constraints.push(c),
            }
        }
        if let Some((_, e)) = violation {
            return Err(e);
        }

        Ok(CoordinationRule::new(
            RuleId(0),
            Arc::from(name),
            head_node,
            parts,
            join_constraints,
            head,
        ))
    }

    /// The rule of these parts; it holds no compiled head yet.
    pub fn new(
        id: RuleId,
        name: Arc<str>,
        head_node: NodeId,
        parts: Vec<Arc<BodyPart>>,
        join_constraints: Vec<Constraint>,
        head: Vec<Atom>,
    ) -> Self {
        CoordinationRule {
            id,
            name,
            head_node,
            parts,
            join_constraints,
            head,
            compiled: HeldHead::default(),
        }
    }

    /// True iff some head variable is not bound by the body, that is,
    /// [`CoordinationRule::existential_vars`] is not empty. Allocates
    /// nothing.
    fn has_existential(&self) -> bool {
        let bound = |v: &Arc<str>| self.parts.iter().any(|p| p.vars.contains(v));
        (self.head.iter().flat_map(|a| &a.terms)).any(|t| matches!(t, Term::Var(v) if !bound(v)))
    }

    /// Head variables not bound by the body — materialised as fresh nulls.
    pub(crate) fn existential_vars(&self) -> BTreeSet<Arc<str>> {
        let bound = |v: &Arc<str>| self.parts.iter().any(|p| p.vars.contains(v));
        (self.head.iter().flat_map(|a| a.variables()))
            .filter(|v| !bound(v))
            .collect()
    }

    /// Validates the rule against the schemas of the nodes' databases: all
    /// nodes exist, all relations exist with matching arity, and
    /// join-constraint variables are bound by the body.
    pub fn validate(&self, databases: &BTreeMap<NodeId, Database>) -> CoreResult<()> {
        let schema = |node: NodeId| {
            (databases.get(&node).map(Database::schema))
                .ok_or_else(|| CoreError::UnknownNode(node.to_string()))
        };
        for part in &self.parts {
            let schema = schema(part.node)?;
            for atom in &part.atoms {
                check_atom(&self.name, part.node, schema, atom)?;
            }
        }
        let head = schema(self.head_node)?;
        for atom in &self.head {
            check_atom(&self.name, self.head_node, head, atom)?;
        }
        self.check_join_constraints()
    }

    /// Every join-constraint variable is bound by some part.
    fn check_join_constraints(&self) -> CoreResult<()> {
        for c in &self.join_constraints {
            for t in [&c.lhs, &c.rhs] {
                if let Term::Var(v) = t {
                    if !self.parts.iter().any(|p| p.vars.contains(v)) {
                        return Err(CoreError::SchemaViolation {
                            rule: self.name.to_string(),
                            detail: format!("join constraint variable `{v}` unbound"),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Checks one atom of rule `rule` against the schema of its node: the
/// relation exists, with the atom's arity, and the atom's constants fit
/// their columns.
fn check_atom(rule: &str, node: NodeId, schema: &DatabaseSchema, a: &Atom) -> CoreResult<()> {
    let fail = |detail: String| CoreError::SchemaViolation {
        rule: rule.to_string(),
        detail,
    };
    let rel = schema
        .relation(&a.relation)
        .ok_or_else(|| fail(format!("node {node} has no relation `{}`", a.relation)))?;
    if rel.arity() != a.terms.len() {
        return Err(fail(format!(
            "`{}` at node {node} has arity {}, atom has {} terms",
            a.relation,
            rel.arity(),
            a.terms.len()
        )));
    }
    for (pos, t) in a.terms.iter().enumerate() {
        if let Term::Const(c) = t {
            if !rel.columns[pos].ty.admits(c) {
                return Err(fail(format!(
                    "constant {c} does not fit column {pos} of `{}`",
                    a.relation
                )));
            }
        }
    }
    Ok(())
}

impl CoordinationRule {
    /// Writes the rule in the paper notation — body atoms and constraints,
    /// join constraints, head — calling each node by `name(node)`: over a
    /// network's declared names, the text its file declares and the parser
    /// reads back.
    pub(crate) fn write_text<N: fmt::Display>(
        &self,
        out: &mut impl fmt::Write,
        name: impl Fn(NodeId) -> N,
    ) -> fmt::Result {
        let mut first = true;
        for part in &self.parts {
            let node = name(part.node);
            for a in &part.atoms {
                if !first {
                    write!(out, ", ")?;
                }
                first = false;
                write!(out, "{node}:{a}")?;
            }
            for c in &part.local_constraints {
                write!(out, ", {c}")?;
            }
        }
        for c in &self.join_constraints {
            write!(out, ", {c}")?;
        }
        write!(out, " => ")?;
        let head = name(self.head_node);
        for (i, a) in self.head.iter().enumerate() {
            if i > 0 {
                write!(out, ", ")?;
            }
            write!(out, "{head}:{a}")?;
        }
        Ok(())
    }
}

/// `name: text`, each node called by its letter form.
impl fmt::Display for CoordinationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        self.write_text(f, |node| node)
    }
}

/// A validated set of coordination rules with id and name registries.
///
/// A rule is immutable once added, so the set holds it behind an `Arc`:
/// the peers a builder makes hold the set's own allocation of each rule
/// they are the head of, not a copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// In id order: [`RuleSet::add`] hands out increasing ids and appends,
    /// so lookups by id are binary searches.
    rules: Vec<Arc<CoordinationRule>>,
    by_name: FxHashMap<Arc<str>, RuleId>,
    next_id: u32,
}

impl RuleSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule, assigning its id. Rejects duplicate names.
    pub fn add(&mut self, mut rule: CoordinationRule) -> CoreResult<RuleId> {
        let id = RuleId(self.next_id);
        match self.by_name.entry(rule.name.clone()) {
            Entry::Occupied(_) => return Err(CoreError::DuplicateRule(rule.name.to_string())),
            Entry::Vacant(slot) => slot.insert(id),
        };
        self.next_id += 1;
        rule.id = id;
        self.rules.push(Arc::new(rule));
        Ok(id)
    }

    /// Where the rule with `id` sits in `rules`, if present.
    fn position(&self, id: RuleId) -> Option<usize> {
        self.rules.binary_search_by_key(&id, |r| r.id).ok()
    }

    /// Removes a rule by id; returns it if present.
    pub fn remove(&mut self, id: RuleId) -> Option<Arc<CoordinationRule>> {
        let rule = self.rules.remove(self.position(id)?);
        self.by_name.remove(&rule.name);
        Some(rule)
    }

    /// Lookup by id.
    pub fn get(&self, id: RuleId) -> Option<&Arc<CoordinationRule>> {
        self.position(id).map(|at| &self.rules[at])
    }

    /// Lookup by name.
    pub fn by_name(&self, name: &str) -> Option<&Arc<CoordinationRule>> {
        self.by_name.get(name).and_then(|&id| self.get(id))
    }

    /// Iterates rules in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<CoordinationRule>> {
        self.rules.iter()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The induced dependency graph (Definition 5): an edge `head → body
    /// node` per rule fragment.
    pub fn dependency_graph(&self) -> DependencyGraph {
        let mut g = DependencyGraph::new();
        for r in self.iter() {
            g.add_node(r.head_node);
            for p in &r.parts {
                g.add_edge(r.head_node, p.node);
            }
        }
        g
    }

    /// Checks **weak acyclicity** of the rule set: builds the position
    /// dependency graph — positions are `(node, relation, column)`; for each
    /// rule and each universal variable occurring in the head, every body
    /// occurrence position gets a *normal* edge to every head occurrence
    /// position and a *special* edge to every existential position — and
    /// requires that no cycle traverses a special edge.
    ///
    /// A set none of whose rules has an existential head variable has no
    /// special edge and passes without a graph being built (and without
    /// allocating). Otherwise positions are interned to dense ids and one
    /// Tarjan ([`scc::tarjan`]) runs over the edges, in time linear in
    /// positions plus edges.
    ///
    /// Returns a human-readable witness of one offending special edge on a
    /// cycle otherwise: the first such edge in rule-id order.
    pub fn check_weak_acyclicity(&self) -> Result<(), String> {
        // Without an existential head variable there is no special edge,
        // and so no cycle through one: nothing to build.
        if !self.iter().any(|rule| rule.has_existential()) {
            return Ok(());
        }
        type Pos = (NodeId, Arc<str>, usize);
        let mut index: FxHashMap<Pos, u32> = FxHashMap::default();
        let mut names: Vec<Pos> = Vec::new();
        let mut intern = |p: Pos| -> u32 {
            *index.entry(p).or_insert_with_key(|p| {
                names.push(p.clone());
                names.len() as u32 - 1
            })
        };

        let mut normal: Vec<(u32, u32)> = Vec::new();
        let mut special: Vec<(u32, u32)> = Vec::new();
        for rule in self.iter() {
            // Body positions per universal variable.
            let mut body_pos: BTreeMap<Arc<str>, Vec<u32>> = BTreeMap::new();
            for part in &rule.parts {
                for atom in &part.atoms {
                    for (col, t) in atom.terms.iter().enumerate() {
                        if let Term::Var(v) = t {
                            let p = intern((part.node, atom.relation.clone(), col));
                            body_pos.entry(v.clone()).or_default().push(p);
                        }
                    }
                }
            }
            let existential = rule.existential_vars();
            // Head positions.
            let mut head_univ: Vec<(Arc<str>, u32)> = Vec::new();
            let mut head_exist: Vec<u32> = Vec::new();
            for atom in &rule.head {
                for (col, t) in atom.terms.iter().enumerate() {
                    if let Term::Var(v) = t {
                        let p = intern((rule.head_node, atom.relation.clone(), col));
                        if existential.contains(v) {
                            head_exist.push(p);
                        } else {
                            head_univ.push((v.clone(), p));
                        }
                    }
                }
            }
            // Universal variables occurring in the head drive the edges.
            let head_vars: BTreeSet<Arc<str>> = head_univ.iter().map(|(v, _)| v.clone()).collect();
            for v in &head_vars {
                let Some(sources) = body_pos.get(v) else {
                    continue;
                };
                for &src in sources {
                    for (hv, hp) in &head_univ {
                        if hv == v {
                            normal.push((src, *hp));
                        }
                    }
                    for &ep in &head_exist {
                        special.push((src, ep));
                    }
                }
            }
        }

        // SCCs over the union graph; a special edge inside one SCC means a
        // cycle through it. Positions are dense ids already.
        let edges = normal.iter().chain(&special).copied();
        let mut component = vec![0u32; names.len()];
        let mut components = 0;
        scc::tarjan(&Csr::from_edges(names.len(), edges), |members| {
            for &p in members {
                component[p as usize] = components;
            }
            components += 1;
        });
        for &(a, b) in &special {
            if component[a as usize] == component[b as usize] {
                let (na, ra, ca) = &names[a as usize];
                let (nb, rb, cb) = &names[b as usize];
                return Err(format!(
                    "special edge ({na},{ra},{ca}) → ({nb},{rb},{cb}) lies on a cycle"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl RuleSet {
    /// Pipe neighbours of a node: body nodes of its rules plus head nodes of
    /// rules sourcing it (Section 5: pipes are created in both cases).
    pub(crate) fn pipe_neighbors(&self, node: NodeId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for r in self.iter() {
            if r.head_node == node {
                out.extend(r.parts.iter().map(|p| p.node));
            }
            if r.parts.iter().any(|p| p.node == node) {
                out.insert(r.head_node);
            }
        }
        out.remove(&node);
        out
    }
}

/// Builds the schema used by every node of the paper's Section 2 running
/// example (all relations binary except `f`).
#[cfg(test)]
pub(crate) fn paper_example_schema(node: NodeId) -> DatabaseSchema {
    let text = match node.0 {
        0 => "a(x: int, y: int).",
        1 => "b(x: int, y: int).",
        2 => "c(x: int, y: int). f(x: int).",
        3 => "d(x: int, y: int).",
        _ => "e(x: int, y: int).",
    };
    DatabaseSchema::parse(text).expect("static schema text")
}

/// Parses the seven rules r1–r7 of the paper's running example into a
/// [`RuleSet`] (nodes A=0 … E=4).
#[cfg(test)]
pub(crate) fn paper_example_rules() -> RuleSet {
    let resolve = |s: &str| -> Option<NodeId> {
        match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            "C" => Some(NodeId(2)),
            "D" => Some(NodeId(3)),
            "E" => Some(NodeId(4)),
            _ => None,
        }
    };
    let texts = [
        ("r1", "E:e(X,Y) => B:b(X,Y)"),
        // r2 in the paper reads `B:b(X,Y), b(Y,Z) → C:c(X,Z)`; the second
        // atom is at B too.
        ("r2", "B:b(X,Y), B:b(Y,Z) => C:c(X,Z)"),
        ("r3", "C:c(X,Y), C:c(Y,Z) => B:b(X,Z)"),
        ("r4", "B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)"),
        ("r5", "A:a(X,Y) => C:f(X)"),
        ("r6", "A:a(X,Y) => D:d(Y,X)"),
        ("r7", "D:d(X,Y), D:d(Y,Z) => C:c(X,Y)"),
    ];
    let mut set = RuleSet::new();
    let mut idents = Idents::new();
    for (name, text) in texts {
        let rule = CoordinationRule::parse(name, text, None, &resolve, &mut idents)
            .expect("static example rule");
        set.add(rule).expect("unique names");
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(s: &str) -> Option<NodeId> {
        match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            "C" => Some(NodeId(2)),
            _ => None,
        }
    }

    #[test]
    fn parse_single_body_rule() {
        let r = CoordinationRule::parse(
            "r",
            "B:b(X,Y) => A:a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        assert_eq!(r.head_node, NodeId(0));
        assert!(r.parts.iter().map(|p| p.node).eq([NodeId(1)]));
        assert_eq!(r.parts[0].vars.len(), 2);
        assert!(r.existential_vars().is_empty());
    }

    #[test]
    fn parse_multi_node_body_groups_fragments() {
        let r = CoordinationRule::parse(
            "r",
            "B:b(X,Y), C:c(Y,Z) => A:a(X,Z)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        assert!(r.parts.iter().map(|p| p.node).eq([NodeId(1), NodeId(2)]));
        assert_eq!(r.parts[0].atoms.len(), 1);
        assert_eq!(r.parts[1].atoms.len(), 1);
    }

    #[test]
    fn constraint_pushdown() {
        let r = CoordinationRule::parse(
            "r",
            "B:b(X,Y), C:c(U,V), X != Y, X = U => A:a(X,V)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        // X != Y is local to B's fragment; X = U spans both.
        let b_part = r.parts.iter().find(|p| p.node == NodeId(1)).unwrap();
        assert_eq!(b_part.local_constraints.len(), 1);
        assert_eq!(r.join_constraints.len(), 1);
    }

    #[test]
    fn existential_vars_detected() {
        let r = CoordinationRule::parse(
            "r",
            "B:b(X,Y) => A:a(X,Z)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let ex = r.existential_vars();
        assert_eq!(ex.len(), 1);
        assert!(ex.contains(&Arc::from("Z")));
    }

    #[test]
    fn self_rule_rejected() {
        let e = CoordinationRule::parse(
            "r",
            "A:a(X,Y) => A:a(Y,X)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap_err();
        assert_eq!(e, CoreError::SelfRule("r".to_string()));
    }

    #[test]
    fn unqualified_body_rejected() {
        let e = CoordinationRule::parse(
            "r",
            "b(X,Y) => A:a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap_err();
        assert!(matches!(e, CoreError::MalformedRule(_)));
    }

    #[test]
    fn unknown_node_rejected() {
        let e = CoordinationRule::parse(
            "r",
            "Z:b(X,Y) => A:a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap_err();
        assert_eq!(e, CoreError::UnknownNode("Z".to_string()));
    }

    #[test]
    fn default_head_applies_to_unqualified_head() {
        let r = CoordinationRule::parse(
            "r",
            "B:b(X,Y) => a(X,Y)",
            Some(NodeId(0)),
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        assert_eq!(r.head_node, NodeId(0));
        let e = CoordinationRule::parse(
            "r",
            "B:b(X,Y) => a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap_err();
        assert!(matches!(e, CoreError::UnresolvedHead(_)));
    }

    #[test]
    fn paper_rules_dependency_graph_matches() {
        let rules = paper_example_rules();
        assert_eq!(rules.len(), 7);
        let g = rules.dependency_graph();
        assert_eq!(g, p2p_topology::graph::paper_example_graph());
    }

    #[test]
    fn paper_rules_validate_against_schemas() {
        let rules = paper_example_rules();
        let databases: BTreeMap<NodeId, Database> = (0..5)
            .map(|i| (NodeId(i), Database::new(paper_example_schema(NodeId(i)))))
            .collect();
        for r in rules.iter() {
            r.validate(&databases).unwrap();
        }
    }

    #[test]
    fn paper_rules_are_weakly_acyclic() {
        // None of r1–r7 has an existential head variable, so there are no
        // special edges and the set is trivially weakly acyclic.
        let rules = paper_example_rules();
        assert_eq!(rules.check_weak_acyclicity(), Ok(()));
    }

    #[test]
    fn existential_off_cycle_is_weakly_acyclic() {
        // A rule with an existential whose positions never feed back into a
        // cycle must pass: B:b(X,Y) ⇒ A:a(X,Z) with no rule out of A.
        let mut set = RuleSet::new();
        set.add(
            CoordinationRule::parse(
                "r",
                "B:b(X,Y) => A:a(X,Z)",
                None,
                &resolve,
                &mut Idents::new(),
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(set.check_weak_acyclicity(), Ok(()));
    }

    #[test]
    fn diverging_pair_is_not_weakly_acyclic() {
        let resolve2 = |s: &str| match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            _ => None,
        };
        let mut set = RuleSet::new();
        set.add(
            CoordinationRule::parse(
                "f",
                "A:a(X,Y) => B:b(Y,Z)",
                None,
                &resolve2,
                &mut Idents::new(),
            )
            .unwrap(),
        )
        .unwrap();
        set.add(
            CoordinationRule::parse(
                "g",
                "B:b(X,Y) => A:a(Y,Z)",
                None,
                &resolve2,
                &mut Idents::new(),
            )
            .unwrap(),
        )
        .unwrap();
        let err = set.check_weak_acyclicity().unwrap_err();
        assert!(err.contains("special edge"), "{err}");
    }

    /// A 5 000-node ring of copy rules `n(i+1):r(X,Y) => n(i):r(X,Y)`,
    /// closed by one rule that mints a null: column 1 of `r` flows around
    /// the ring into the null's own column. The witness is the one special
    /// edge, named as the position-graph check has always named it.
    #[test]
    fn a_ring_closed_by_one_existential_rule_is_rejected_with_its_witness() {
        let n = 5_000u32;
        let resolve = |s: &str| s.strip_prefix('n')?.parse().ok().map(NodeId);
        let mut set = RuleSet::new();
        for i in 0..n - 1 {
            let text = format!("n{}:r(X,Y) => n{i}:r(X,Y)", i + 1);
            set.add(
                CoordinationRule::parse(
                    &format!("c{i}"),
                    &text,
                    None,
                    &resolve,
                    &mut Idents::new(),
                )
                .unwrap(),
            )
            .unwrap();
        }
        let text = format!("n0:r(X,Y) => n{}:r(Y,Z)", n - 1);
        set.add(
            CoordinationRule::parse("close", &text, None, &resolve, &mut Idents::new()).unwrap(),
        )
        .unwrap();
        assert_eq!(
            set.check_weak_acyclicity(),
            Err("special edge (A,r,1) → (N4999,r,1) lies on a cycle".to_string())
        );
        // Without the existential the same ring passes.
        set.remove(set.by_name("close").unwrap().id);
        let text = format!("n0:r(X,Y) => n{}:r(Y,X)", n - 1);
        set.add(
            CoordinationRule::parse("close", &text, None, &resolve, &mut Idents::new()).unwrap(),
        )
        .unwrap();
        assert_eq!(set.check_weak_acyclicity(), Ok(()));
    }

    #[test]
    fn has_existential_agrees_with_existential_vars() {
        for text in [
            "B:b(X,Y) => A:a(X,Y)",
            "B:b(X,Y) => A:a(X,Z)",
            "B:b(X,Y), C:c(Y,Z) => A:a(X,Z)",
            "B:b(X,Y), C:c(Y,W) => A:a(X,Z)",
            "B:b(X,Y) => A:a(X,7)",
        ] {
            let r = CoordinationRule::parse("r", text, None, &resolve, &mut Idents::new()).unwrap();
            assert_eq!(
                r.has_existential(),
                !r.existential_vars().is_empty(),
                "{text}"
            );
        }
    }

    #[test]
    fn pipe_neighbors_are_bidirectional() {
        let rules = paper_example_rules();
        // B's rules pull from E and C; C pulls from B: neighbors of B = {A?…}
        // A pulls from B (r4) → A is a neighbor too.
        let nb = rules.pipe_neighbors(NodeId(1));
        assert_eq!(nb, [NodeId(0), NodeId(2), NodeId(4)].into_iter().collect());
        // E sources r1 only: neighbor = {B}.
        assert_eq!(
            rules.pipe_neighbors(NodeId(4)),
            [NodeId(1)].into_iter().collect()
        );
    }

    #[test]
    fn rule_set_registry_round_trip() {
        let mut set = RuleSet::new();
        let r = CoordinationRule::parse(
            "r9",
            "B:b(X,Y) => A:a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let id = set.add(r).unwrap();
        assert!(set.get(id).is_some());
        assert_eq!(set.by_name("r9").unwrap().id, id);
        // Duplicate name rejected.
        let dup = CoordinationRule::parse(
            "r9",
            "C:c(X,Y) => A:a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        assert!(matches!(set.add(dup), Err(CoreError::DuplicateRule(_))));
        // Removal clears both registries.
        assert!(set.remove(id).is_some());
        assert!(set.by_name("r9").is_none());
        assert!(set.is_empty());
    }

    #[test]
    fn validation_catches_arity_and_missing_relations() {
        let databases: BTreeMap<NodeId, Database> = [(0, "a(x: int)."), (1, "b(x: int, y: int).")]
            .map(|(id, text)| {
                (
                    NodeId(id),
                    Database::new(DatabaseSchema::parse(text).unwrap()),
                )
            })
            .into_iter()
            .collect();
        let bad_arity =
            CoordinationRule::parse("r", "B:b(X) => A:a(X)", None, &resolve, &mut Idents::new())
                .unwrap();
        assert!(matches!(
            bad_arity.validate(&databases),
            Err(CoreError::SchemaViolation { .. })
        ));
        let missing = CoordinationRule::parse(
            "r",
            "B:zzz(X) => A:a(X)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        assert!(matches!(
            missing.validate(&databases),
            Err(CoreError::SchemaViolation { .. })
        ));
        let ok = CoordinationRule::parse(
            "r",
            "B:b(X,Y) => A:a(X)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        assert!(ok.validate(&databases).is_ok());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let r = CoordinationRule::parse(
            "r4",
            "B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let shown = r.to_string();
        assert!(shown.contains("=>"));
        assert!(shown.contains("X != Z"));
    }
}
