//! Node identifiers and the dependency graph (Definition 5).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Identifier of a peer, unique across the network (the paper's `ID`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Renders a node as a letter for small networks (A, B, C, …), matching
    /// the paper's running example, falling back to `N<id>`.
    pub fn letter(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "{}", char::from(b'A' + self.0 as u8))
        } else {
            write!(f, "N{}", self.0)
        }
    }
}

/// The dependency graph of a P2P system.
///
/// There is a **dependency edge** from `i` to `j` iff a coordination rule has
/// head at `i` and body at `j` — the direction data is *requested*, opposite
/// to the direction data *flows* (Definition 5 and the remark after it).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependencyGraph {
    nodes: BTreeSet<NodeId>,
    succ: BTreeMap<NodeId, BTreeSet<NodeId>>,
    pred: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

impl DependencyGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a graph from `(head, body)` dependency edges.
    pub fn from_edges(edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = Self::new();
        for (from, to) in edges {
            g.add_edge(from, to);
        }
        g
    }

    /// Registers a node (idempotent). Nodes appear implicitly when an edge
    /// touches them, but isolated nodes must be added explicitly.
    pub fn add_node(&mut self, n: NodeId) {
        self.nodes.insert(n);
    }

    /// Adds the dependency edge `from → to` (idempotent; self-loops are
    /// ignored since a rule's head and body nodes are distinct by
    /// Definition 2).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        self.nodes.insert(from);
        self.nodes.insert(to);
        self.succ.entry(from).or_default().insert(to);
        self.pred.entry(to).or_default().insert(from);
    }

    /// Membership test for an edge.
    pub(crate) fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succ
            .get(&from)
            .map(|s| s.contains(&to))
            .unwrap_or(false)
    }

    /// Successors of a node (the nodes it depends on), in id order.
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succ.get(&n).into_iter().flatten().copied()
    }

    /// Predecessors of a node (the nodes depending on it), in id order.
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.pred.get(&n).into_iter().flatten().copied()
    }

    /// Out-degree.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.succ.get(&n).map(BTreeSet::len).unwrap_or(0)
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All edges as `(from, to)` pairs, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succ
            .iter()
            .flat_map(|(f, ts)| ts.iter().map(move |t| (*f, *t)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.values().map(BTreeSet::len).sum()
    }

    /// Nodes reachable from `start` by following dependency edges,
    /// *excluding* `start` unless it lies on a cycle through itself.
    pub fn reachable_from(&self, start: NodeId) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<NodeId> = self.successors(start).collect();
        while let Some(n) = queue.pop_front() {
            if seen.insert(n) {
                queue.extend(self.successors(n));
            }
        }
        seen
    }

    /// Breadth-first distances (in hops) from `start` along dependency
    /// edges; unreachable nodes are absent.
    pub(crate) fn distances_from(&self, start: NodeId) -> BTreeMap<NodeId, usize> {
        let mut dist = BTreeMap::new();
        dist.insert(start, 0usize);
        let mut queue = VecDeque::from([start]);
        while let Some(n) = queue.pop_front() {
            let d = dist[&n];
            for s in self.successors(n) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(s) {
                    e.insert(d + 1);
                    queue.push_back(s);
                }
            }
        }
        dist
    }

    /// Depth of the graph as seen from `start`: the maximum BFS distance of
    /// any reachable node. The paper's "execution time is linear with
    /// respect to the depth of the structure" refers to this quantity for
    /// trees and layered DAGs rooted at the super-peer.
    pub(crate) fn depth_from(&self, start: NodeId) -> usize {
        self.distances_from(start)
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for DependencyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (from, to) in self.edges() {
            writeln!(f, "{from} -> {to}")?;
        }
        Ok(())
    }
}

/// Builds the dependency graph of the paper's Section 2 running example
/// (nodes A–E, rules r1–r7). Exposed because multiple crates' tests and the
/// E1/E2 experiments use it.
pub fn paper_example_graph() -> DependencyGraph {
    let (a, b, c, d, e) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4));
    let mut g = DependencyGraph::new();
    // r1: E:e ⇒ B:b   — head B, body E  — edge B→E
    g.add_edge(b, e);
    // r2: B:b,b ⇒ C:c — edge C→B
    g.add_edge(c, b);
    // r3: C:c,c ⇒ B:b — edge B→C
    g.add_edge(b, c);
    // r4: B:b,b ⇒ A:a — edge A→B
    g.add_edge(a, b);
    // r5: A:a ⇒ C:f   — edge C→A
    g.add_edge(c, a);
    // r6: A:a ⇒ D:d   — edge D→A
    g.add_edge(d, a);
    // r7: D:d,d ⇒ C:c — edge C→D
    g.add_edge(c, d);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_render_like_the_paper() {
        assert_eq!(NodeId(0).to_string(), "A");
        assert_eq!(NodeId(4).to_string(), "E");
        assert_eq!(NodeId(30).to_string(), "N30");
    }

    #[test]
    fn an_edge_is_directed_and_registers_both_nodes() {
        let mut g = DependencyGraph::new();
        g.add_edge(NodeId(0), NodeId(1));
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = DependencyGraph::new();
        g.add_edge(NodeId(3), NodeId(3));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn paper_example_has_expected_edges() {
        let g = paper_example_graph();
        let edges: Vec<_> = g.edges().map(|(f, t)| format!("{f}{t}")).collect();
        assert_eq!(edges, vec!["AB", "BC", "BE", "CA", "CB", "CD", "DA"]);
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn reachability_in_paper_example() {
        let g = paper_example_graph();
        // From A everything except… A reaches B, C, D, E and back to A.
        let from_a = g.reachable_from(NodeId(0));
        assert!(from_a.contains(&NodeId(0))); // via the ABCA cycle
        assert_eq!(from_a.len(), 5);
        // E is a sink.
        assert!(g.reachable_from(NodeId(4)).is_empty());
    }

    #[test]
    fn distances_and_depth() {
        let g = paper_example_graph();
        let d = g.distances_from(NodeId(0));
        assert_eq!(d[&NodeId(0)], 0);
        assert_eq!(d[&NodeId(1)], 1); // A→B
        assert_eq!(d[&NodeId(2)], 2); // A→B→C
        assert_eq!(d[&NodeId(4)], 2); // A→B→E
        assert_eq!(d[&NodeId(3)], 3); // A→B→C→D
        assert_eq!(g.depth_from(NodeId(0)), 3);
    }

    #[test]
    fn chain_depth() {
        let g = DependencyGraph::from_edges((0..5).map(|i| (NodeId(i), NodeId(i + 1))));
        assert_eq!(g.depth_from(NodeId(0)), 5);
    }
}
