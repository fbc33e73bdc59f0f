//! Strongly connected components (iterative Tarjan), acyclicity, and
//! topological order.
//!
//! The acyclic baseline (Halevy et al. 2003 style) only works on DAG
//! dependency graphs and needs a topological order; the core crate uses the
//! condensation to reason about which parts of a network can close early,
//! and to check the weak acyclicity of a rule set over its positions.
//!
//! There is one Tarjan, [`tarjan`], over dense `u32` vertex ids whose
//! successor lists come in compressed sparse row form ([`Csr`]: the
//! successors of `v` are `targets[offsets[v]..offsets[v + 1]]`). Its state is a handful
//! of flat vectors and it copies nothing per descent, so it runs in
//! O(vertices + edges) and a 200 000-vertex chain does not touch the call
//! stack. [`condensation`] and the functions built on it adapt a
//! [`DependencyGraph`]: vertex `k` is the graph's `k`-th node in id order.

use crate::graph::{DependencyGraph, NodeId};
use std::collections::BTreeSet;

/// Successor lists over dense vertices `0..n` in compressed sparse row
/// form: the successors of `v` are `targets[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// The lists of `n` vertices holding `edges`, each `(from, to)` pair in
    /// `from`'s list, in the order the iterator yields them (a counting
    /// sort: one pass to count, one to place). The iterator is walked twice.
    ///
    /// # Panics
    /// If an edge leaves a vertex `≥ n`, or there are `u32::MAX` edges.
    pub fn from_edges(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for (from, _) in edges.clone() {
            offsets[from as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets.clone();
        let mut targets = vec![0u32; offsets[n] as usize];
        for (from, to) in edges {
            let at = &mut next[from as usize];
            targets[*at as usize] = to;
            *at += 1;
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The successors of `v`, in the order they were given.
    pub fn successors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Tarjan's algorithm over a [`Csr`] graph. Calls `each` once per strongly
/// connected component, in reverse topological order of the condensation
/// (a component comes only after every component it reaches), with the
/// component's vertices in no particular order.
///
/// Roots are tried in id order and successors in list order, so the
/// components come out in the order a recursive Tarjan would emit them.
///
/// # Panics
/// If a target is not a vertex, or there are `u32::MAX` vertices or more.
pub fn tarjan(graph: &Csr, mut each: impl FnMut(&[u32])) {
    let (offsets, targets) = (&graph.offsets[..], &graph.targets[..]);
    let n = graph.vertices();
    assert!(n < UNSEEN as usize, "fewer than 2³² − 1 vertices");
    let mut t = Tarjan {
        index: vec![UNSEEN; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        calls: Vec::new(),
        next_index: 0,
    };
    for root in 0..n as u32 {
        if t.index[root as usize] != UNSEEN {
            continue;
        }
        t.enter(root, offsets);
        while let Some(&(v, edge)) = t.calls.last() {
            let vi = v as usize;
            if edge < offsets[vi + 1] {
                t.calls.last_mut().expect("a call is open").1 += 1;
                let w = targets[edge as usize];
                if t.index[w as usize] == UNSEEN {
                    t.enter(w, offsets);
                } else if t.on_stack[w as usize] {
                    t.low[vi] = t.low[vi].min(t.index[w as usize]);
                }
                continue;
            }
            // Every edge of v is done: maybe close a component, then hand
            // v's low link to its caller.
            t.calls.pop();
            if t.low[vi] == t.index[vi] {
                let start = (t.stack.iter().rposition(|&w| w == v)).expect("v is on the stack");
                for &w in &t.stack[start..] {
                    t.on_stack[w as usize] = false;
                }
                each(&t.stack[start..]);
                t.stack.truncate(start);
            }
            if let Some(&(parent, _)) = t.calls.last() {
                let p = parent as usize;
                t.low[p] = t.low[p].min(t.low[vi]);
            }
        }
    }
}

/// A vertex no search has reached yet.
const UNSEEN: u32 = u32::MAX;

/// [`tarjan`]'s state, one slot per vertex.
struct Tarjan {
    /// Discovery number, [`UNSEEN`] before the search reaches the vertex.
    index: Vec<u32>,
    /// The smallest discovery number reachable from the vertex's subtree
    /// among vertices still on `stack`.
    low: Vec<u32>,
    on_stack: Vec<bool>,
    /// Vertices of the components not closed yet, in discovery order.
    stack: Vec<u32>,
    /// The explicit call stack: a vertex and the position of its next edge.
    calls: Vec<(u32, u32)>,
    next_index: u32,
}

impl Tarjan {
    /// Discovers `v` and opens its call.
    fn enter(&mut self, v: u32, offsets: &[u32]) {
        let vi = v as usize;
        self.index[vi] = self.next_index;
        self.low[vi] = self.next_index;
        self.next_index += 1;
        self.on_stack[vi] = true;
        self.stack.push(v);
        self.calls.push((v, offsets[vi]));
    }
}

/// The strongly connected components of a dependency graph, each sorted
/// by id, in reverse topological order of the condensation (a component
/// is emitted only after everything it depends on).
pub fn condensation(graph: &DependencyGraph) -> Vec<Vec<NodeId>> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let dense = |n: NodeId| nodes.binary_search(&n).expect("a successor is a node") as u32;
    let edges: Vec<(u32, u32)> = (nodes.iter().enumerate())
        .flat_map(|(v, &n)| graph.successors(n).map(move |s| (v as u32, s)))
        .map(|(v, s)| (v, dense(s)))
        .collect();
    let mut components = Vec::new();
    tarjan(
        &Csr::from_edges(nodes.len(), edges.iter().copied()),
        |component| {
            let mut component: Vec<NodeId> = component.iter().map(|&v| nodes[v as usize]).collect();
            component.sort();
            components.push(component);
        },
    );
    components
}

/// True iff the graph has no dependency cycle.
pub fn is_acyclic(graph: &DependencyGraph) -> bool {
    condensation(graph).iter().all(|c| c.len() == 1) && graph.nodes().all(|n| !graph.has_edge(n, n))
}

/// Topological order of an acyclic dependency graph: every node appears
/// *after* the nodes it depends on (its successors). This is exactly the
/// order in which the acyclic baseline can finalise nodes: leaves (data
/// sources) first, the super-peer last. Returns `None` on cyclic graphs.
pub fn topological_order(graph: &DependencyGraph) -> Option<Vec<NodeId>> {
    if !is_acyclic(graph) {
        return None;
    }
    // Tarjan emits components in reverse topological order of the
    // condensation, which for a DAG is: dependencies first.
    Some(condensation(graph).into_iter().flatten().collect())
}

/// Nodes lying on at least one dependency cycle (members of non-trivial
/// SCCs). These are the nodes for which the paper's fix-point iteration is
/// actually needed; everything else closes in one pass.
pub fn cyclic_nodes(graph: &DependencyGraph) -> BTreeSet<NodeId> {
    condensation(graph)
        .into_iter()
        .filter(|c| c.len() > 1)
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::paper_example_graph;

    #[test]
    fn chain_is_acyclic_and_ordered() {
        let g = DependencyGraph::from_edges([(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        assert!(is_acyclic(&g));
        let order = topological_order(&g).unwrap();
        // 2 (sink, pure source of data) must precede 1, which precedes 0.
        let pos = |n: u32| order.iter().position(|x| *x == NodeId(n)).unwrap();
        assert!(pos(2) < pos(1));
        assert!(pos(1) < pos(0));
    }

    #[test]
    fn paper_example_is_cyclic() {
        let g = paper_example_graph();
        assert!(!is_acyclic(&g));
        assert!(topological_order(&g).is_none());
        let cyc = cyclic_nodes(&g);
        // A, B, C, D are all on cycles (ABCA, BCB, ABCDA); E is not.
        assert!(cyc.contains(&NodeId(0)));
        assert!(cyc.contains(&NodeId(1)));
        assert!(cyc.contains(&NodeId(2)));
        assert!(cyc.contains(&NodeId(3)));
        assert!(!cyc.contains(&NodeId(4)));
    }

    #[test]
    fn condensation_groups_cycles() {
        let g = paper_example_graph();
        let comps = condensation(&g);
        assert_eq!(comps.len(), 2);
        let big = comps.iter().find(|c| c.len() == 4).unwrap();
        assert_eq!(big, &vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn two_cycle_detected() {
        let g = DependencyGraph::from_edges([(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]);
        assert!(!is_acyclic(&g));
        assert_eq!(cyclic_nodes(&g).len(), 2);
    }

    #[test]
    fn diamond_dag() {
        // 0→1, 0→2, 1→3, 2→3.
        let g = DependencyGraph::from_edges([
            (NodeId(0), NodeId(1)),
            (NodeId(0), NodeId(2)),
            (NodeId(1), NodeId(3)),
            (NodeId(2), NodeId(3)),
        ]);
        assert!(is_acyclic(&g));
        let order = topological_order(&g).unwrap();
        let pos = |n: u32| order.iter().position(|x| *x == NodeId(n)).unwrap();
        assert!(pos(3) < pos(1) && pos(3) < pos(2));
        assert!(pos(1) < pos(0) && pos(2) < pos(0));
    }

    #[test]
    fn isolated_nodes_form_singleton_components() {
        let mut g = DependencyGraph::new();
        g.add_node(NodeId(7));
        g.add_node(NodeId(8));
        let comps = condensation(&g);
        assert_eq!(comps.len(), 2);
        assert!(is_acyclic(&g));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let g = DependencyGraph::from_edges((0..50_000u32).map(|i| (NodeId(i), NodeId(i + 1))));
        assert!(is_acyclic(&g));
    }

    /// 200 000 vertices in one chain, and the same chain closed into a
    /// ring: a recursive Tarjan would need a frame per vertex.
    #[test]
    fn a_200_000_vertex_chain_and_ring_run_without_recursion() {
        let n = 200_000u32;
        let chain = Csr::from_edges(n as usize, (1..n).map(|v| (v - 1, v)));
        let mut sizes = Vec::new();
        tarjan(&chain, |c| sizes.push(c.len()));
        assert_eq!(sizes.len(), n as usize);
        assert!(sizes.iter().all(|&s| s == 1));

        let ring = Csr::from_edges(n as usize, (0..n).map(|v| (v, (v + 1) % n)));
        let mut sizes = Vec::new();
        tarjan(&ring, |c| sizes.push(c.len()));
        assert_eq!(sizes, [n as usize]);
    }

    #[test]
    fn components_come_out_dependencies_first() {
        // 0 → 1 ⇄ 2 → 3, and 4 alone.
        let g = Csr::from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 1)].into_iter());
        assert_eq!(g.successors(1), [2, 3]);
        let mut comps = Vec::new();
        tarjan(&g, |c| {
            let mut c = c.to_vec();
            c.sort();
            comps.push(c);
        });
        assert_eq!(comps, [vec![3], vec![1, 2], vec![0], vec![4]]);
    }
}
