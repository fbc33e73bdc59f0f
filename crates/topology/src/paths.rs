//! Dependency paths and maximal dependency paths (Definitions 6–7).
//!
//! A *dependency path* for node `i` is a sequence `⟨i₁, …, iₙ⟩` of
//! dependency edges with `i₁ = i` whose prefix `⟨i₁, …, iₙ₋₁⟩` is simple —
//! i.e. only the **last** node may revisit an earlier one (closing a loop).
//! A path is *maximal* when no node can be appended: either its last node
//! has no outgoing dependency edge (a sink), or the path already ends by
//! revisiting a node (any extension would break prefix-simplicity).
//!
//! The number of maximal paths is factorial in clique size — the very reason
//! the paper's path-flag closure bookkeeping is exponential and our default
//! update mode uses Dijkstra–Scholten termination instead.
//! Enumeration therefore takes an explicit budget and fails loudly rather
//! than hanging.

use crate::graph::{DependencyGraph, NodeId};
use std::fmt;

/// Error raised when enumeration exceeds its budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEnumError {
    /// The budget that was exceeded (maximum number of paths).
    pub limit: usize,
    /// The start node whose enumeration blew up.
    pub start: NodeId,
}

impl fmt::Display for PathEnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "more than {} maximal dependency paths from node {}",
            self.limit, self.start
        )
    }
}

impl std::error::Error for PathEnumError {}

/// Default enumeration budget; cliques of 8 nodes stay under it, larger
/// cliques fail fast.
pub const DEFAULT_PATH_LIMIT: usize = 100_000;

/// Enumerates all **maximal dependency paths** starting at `start`
/// (Definition 7). Paths include the start node; a node with no outgoing
/// dependency edges has no paths (matching `Discover`'s `Paths = ∅` for
/// rule-less nodes).
///
/// Paths are produced in depth-first order following ascending successor
/// ids, which is deterministic.
pub fn maximal_dependency_paths(
    graph: &DependencyGraph,
    start: NodeId,
    limit: usize,
) -> Result<Vec<Vec<NodeId>>, PathEnumError> {
    let mut out = Vec::new();
    if graph.out_degree(start) == 0 {
        return Ok(out);
    }
    let mut path = vec![start];
    dfs(graph, &mut path, &mut out, limit, start)?;
    Ok(out)
}

fn dfs(
    graph: &DependencyGraph,
    path: &mut Vec<NodeId>,
    out: &mut Vec<Vec<NodeId>>,
    limit: usize,
    start: NodeId,
) -> Result<(), PathEnumError> {
    let last = *path.last().expect("path never empty");
    let mut extended = false;
    for next in graph.successors(last) {
        extended = true;
        if path.contains(&next) {
            // Cycle-closing extension: maximal by prefix-simplicity.
            let mut p = path.clone();
            p.push(next);
            push_limited(out, p, limit, start)?;
        } else {
            path.push(next);
            dfs(graph, path, out, limit, start)?;
            path.pop();
        }
    }
    if !extended {
        // Sink: the simple path itself is maximal.
        push_limited(out, path.clone(), limit, start)?;
    }
    Ok(())
}

fn push_limited(
    out: &mut Vec<Vec<NodeId>>,
    p: Vec<NodeId>,
    limit: usize,
    start: NodeId,
) -> Result<(), PathEnumError> {
    if out.len() >= limit {
        return Err(PathEnumError { limit, start });
    }
    out.push(p);
    Ok(())
}

/// Renders a path in the paper's compact letter form (`ABCA`).
pub fn format_path(path: &[NodeId]) -> String {
    path.iter().map(|n| n.letter()).collect()
}

/// Checks the Definition 6 invariant: the prefix (all but the last node) is
/// simple and consecutive nodes are joined by dependency edges. Used by
/// property tests.
pub fn is_dependency_path(graph: &DependencyGraph, path: &[NodeId]) -> bool {
    if path.len() < 2 {
        return false;
    }
    for w in path.windows(2) {
        if !graph.has_edge(w[0], w[1]) {
            return false;
        }
    }
    let prefix = &path[..path.len() - 1];
    let mut seen = std::collections::BTreeSet::new();
    prefix.iter().all(|n| seen.insert(*n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::paper_example_graph;

    fn paths_of(start: u32) -> Vec<String> {
        let g = paper_example_graph();
        let mut p: Vec<String> = maximal_dependency_paths(&g, NodeId(start), 10_000)
            .unwrap()
            .iter()
            .map(|p| format_path(p))
            .collect();
        p.sort();
        p
    }

    /// The §2 table, corrected for the PDF's typographical slips:
    /// enumeration follows Definitions 6–7 exactly, not the printed rows.
    #[test]
    fn paper_example_paths_node_a() {
        assert_eq!(paths_of(0), vec!["ABCA", "ABCB", "ABCDA", "ABE"]);
    }

    #[test]
    fn paper_example_paths_node_b() {
        assert_eq!(paths_of(1), vec!["BCAB", "BCB", "BCDAB", "BE"]);
    }

    #[test]
    fn paper_example_paths_node_c() {
        assert_eq!(
            paths_of(2),
            vec!["CABC", "CABE", "CBC", "CBE", "CDABC", "CDABE"]
        );
    }

    #[test]
    fn paper_example_paths_node_d() {
        assert_eq!(paths_of(3), vec!["DABCA", "DABCB", "DABCD", "DABE"]);
    }

    #[test]
    fn paper_example_paths_node_e_empty() {
        // E has no coordination rules: Paths = ∅ (algorithm A1).
        assert!(paths_of(4).is_empty());
    }

    #[test]
    fn all_emitted_paths_satisfy_definition_6() {
        let g = paper_example_graph();
        for start in 0..5 {
            for p in maximal_dependency_paths(&g, NodeId(start), 10_000).unwrap() {
                assert!(is_dependency_path(&g, &p), "bad path {p:?}");
            }
        }
    }

    #[test]
    fn maximality_sinks_and_cycles() {
        let g = paper_example_graph();
        for p in maximal_dependency_paths(&g, NodeId(0), 10_000).unwrap() {
            let last = *p.last().unwrap();
            let closes_cycle = p[..p.len() - 1].contains(&last);
            let is_sink = g.out_degree(last) == 0;
            assert!(closes_cycle || is_sink, "non-maximal path {p:?}");
        }
    }

    #[test]
    fn clique_path_counts_grow_factorially() {
        // In a clique of n nodes, every permutation of the other nodes
        // prefixes a maximal path; counts: n=3 → each start has
        // paths = sum over permutations… verify growth empirically.
        let clique = |n: u32| {
            let mut g = DependencyGraph::new();
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        g.add_edge(NodeId(i), NodeId(j));
                    }
                }
            }
            g
        };
        let count = |n: u32| {
            maximal_dependency_paths(&clique(n), NodeId(0), 1_000_000)
                .unwrap()
                .len()
        };
        let (c3, c4, c5) = (count(3), count(4), count(5));
        assert!(c3 < c4 && c4 < c5, "{c3} {c4} {c5}");
        assert!(c5 >= 24, "clique-5 should already have many paths: {c5}");
    }

    #[test]
    fn enumeration_budget_fails_loudly() {
        let mut g = DependencyGraph::new();
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i != j {
                    g.add_edge(NodeId(i), NodeId(j));
                }
            }
        }
        let err = maximal_dependency_paths(&g, NodeId(0), 10).unwrap_err();
        assert_eq!(err.limit, 10);
        assert_eq!(err.start, NodeId(0));
    }

    #[test]
    fn chain_has_single_maximal_path() {
        let g = DependencyGraph::from_edges([(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        let p = maximal_dependency_paths(&g, NodeId(0), 100).unwrap();
        assert_eq!(p, vec![vec![NodeId(0), NodeId(1), NodeId(2)]]);
    }

    #[test]
    fn two_cycle_paths() {
        // A ⇄ B: from A the only maximal path is ABA.
        let g = DependencyGraph::from_edges([(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]);
        let p = maximal_dependency_paths(&g, NodeId(0), 100).unwrap();
        assert_eq!(p, vec![vec![NodeId(0), NodeId(1), NodeId(0)]]);
    }
}
