//! Separation analysis (Definition 10) — the precondition of Theorem 3.
//!
//! A node set `A` is **separated** from the rest of the network when no
//! dependency path starting in `A` involves an outside node; since
//! dependency paths follow dependency edges, that is equivalent to "no
//! dependency edge leaves `A`". With respect to a change sequence `U`,
//! separation must hold in the network obtained by applying *any* subchange
//! of `U`; because separation is violated exactly by the presence of one
//! offending edge, and any single `addLink` op is itself a subchange, it
//! suffices that (a) the initial network is separated and (b) no operation
//! in `U` ever adds an edge from `A` to the outside. That check is exact,
//! not an approximation: removals never break separation, and an offending
//! addition alone already forms a violating subchange.

use crate::graph::{DependencyGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// An atomic change to the dependency graph, mirroring the paper's
/// `addLink`/`deleteLink` at the topology level (rule ids live in
/// `p2p-core`; here only the induced edge matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphChange {
    /// A coordination rule with head `head` and body `body` appears:
    /// dependency edge `head → body`.
    AddEdge {
        /// Rule-head node (data importer).
        head: NodeId,
        /// Rule-body node (data source).
        body: NodeId,
    },
    /// The last rule between the pair disappears: edge removed.
    RemoveEdge {
        /// Rule-head node.
        head: NodeId,
        /// Rule-body node.
        body: NodeId,
    },
}

/// Definition 10(1): `a` is separated iff no dependency edge leads from a
/// node in `a` to a node outside it.
pub fn is_separated(graph: &DependencyGraph, a: &BTreeSet<NodeId>) -> bool {
    graph
        .edges()
        .all(|(from, to)| !a.contains(&from) || a.contains(&to))
}

/// Definition 10(2): `a` is separated *with respect to the change `u`* iff
/// it is separated in the initial network and under every subchange of `u`.
///
/// Exactness argument: an `AddEdge` from `a` to the outside is a one-element
/// subchange that already violates separation, and a network with no such
/// edge stays separated under any combination of the remaining operations.
pub fn is_separated_under_change(
    graph: &DependencyGraph,
    a: &BTreeSet<NodeId>,
    u: &[GraphChange],
) -> bool {
    if !is_separated(graph, a) {
        return false;
    }
    u.iter().all(|op| match op {
        GraphChange::AddEdge { head, body } => !a.contains(head) || a.contains(body),
        GraphChange::RemoveEdge { .. } => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::paper_example_graph;

    fn set(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn full_network_is_separated_from_nothing() {
        let g = paper_example_graph();
        assert!(is_separated(&g, &set(&[0, 1, 2, 3, 4])));
    }

    #[test]
    fn abcde_subsets() {
        let g = paper_example_graph();
        // {A,B,C,D,E} minus E: A..D depend on E via B→E, so {A,B,C,D} is NOT
        // separated.
        assert!(!is_separated(&g, &set(&[0, 1, 2, 3])));
        // E alone has no outgoing edges: separated.
        assert!(is_separated(&g, &set(&[4])));
        // {B,C} has edges B→E, C→A, C→D leaving: not separated.
        assert!(!is_separated(&g, &set(&[1, 2])));
    }

    #[test]
    fn two_islands() {
        let mut g = DependencyGraph::from_edges([
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(0)),
            (NodeId(2), NodeId(3)),
        ]);
        g.add_node(NodeId(4));
        assert!(is_separated(&g, &set(&[0, 1])));
        assert!(is_separated(&g, &set(&[2, 3])));
        assert!(is_separated(&g, &set(&[4])));
        assert!(!is_separated(&g, &set(&[0, 2])));
    }

    #[test]
    fn change_breaking_separation_detected() {
        let g = DependencyGraph::from_edges([(NodeId(0), NodeId(1))]);
        let a = set(&[0, 1]);
        let benign = vec![
            GraphChange::AddEdge {
                head: NodeId(2),
                body: NodeId(0), // outsider depends on A: fine
            },
            GraphChange::RemoveEdge {
                head: NodeId(0),
                body: NodeId(1),
            },
        ];
        assert!(is_separated_under_change(&g, &a, &benign));
        let breaking = vec![GraphChange::AddEdge {
            head: NodeId(1),
            body: NodeId(2), // A member starts depending on outsider
        }];
        assert!(!is_separated_under_change(&g, &a, &breaking));
    }

    #[test]
    fn add_then_remove_still_counts_as_violation() {
        // Even if a violating edge is later removed, the intermediate
        // subchange violates Definition 10(2).
        let g = DependencyGraph::new();
        let a = set(&[0]);
        let u = vec![
            GraphChange::AddEdge {
                head: NodeId(0),
                body: NodeId(1),
            },
            GraphChange::RemoveEdge {
                head: NodeId(0),
                body: NodeId(1),
            },
        ];
        assert!(!is_separated_under_change(&g, &a, &u));
    }
}
