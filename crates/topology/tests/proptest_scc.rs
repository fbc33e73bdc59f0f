//! The dense Tarjan against the ordered-map Tarjan it replaced: on random
//! graphs with isolated nodes and sparse ids, `condensation` returns the
//! same components, each sorted, in the same order.

use p2p_topology::{condensation, DependencyGraph, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The condensation as the topology crate computed it before its Tarjan
/// went dense: state in an ordered map keyed by node, and each call frame
/// holding its own copy of the successor list.
fn ordered_map_condensation(graph: &DependencyGraph) -> Vec<Vec<NodeId>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }

    let mut state: BTreeMap<NodeId, NodeState> =
        graph.nodes().map(|n| (n, NodeState::default())).collect();
    let mut next_index = 0usize;
    let mut stack: Vec<NodeId> = Vec::new();
    let mut components: Vec<Vec<NodeId>> = Vec::new();

    for root in graph.nodes().collect::<Vec<_>>() {
        if state[&root].index.is_some() {
            continue;
        }
        let mut call_stack: Vec<(NodeId, Vec<NodeId>, usize)> =
            vec![(root, graph.successors(root).collect(), 0)];
        {
            let s = state.get_mut(&root).expect("registered");
            s.index = Some(next_index);
            s.lowlink = next_index;
            s.on_stack = true;
        }
        stack.push(root);
        next_index += 1;

        while let Some((node, succs, mut pos)) = call_stack.pop() {
            let mut descended = false;
            while pos < succs.len() {
                let child = succs[pos];
                pos += 1;
                match state[&child].index {
                    None => {
                        call_stack.push((node, succs.clone(), pos));
                        {
                            let s = state.get_mut(&child).expect("registered");
                            s.index = Some(next_index);
                            s.lowlink = next_index;
                            s.on_stack = true;
                        }
                        stack.push(child);
                        next_index += 1;
                        call_stack.push((child, graph.successors(child).collect(), 0));
                        descended = true;
                        break;
                    }
                    Some(child_index) => {
                        if state[&child].on_stack {
                            let low = state[&node].lowlink.min(child_index);
                            state.get_mut(&node).expect("registered").lowlink = low;
                        }
                    }
                }
            }
            if descended {
                continue;
            }
            if state[&node].lowlink == state[&node].index.expect("visited") {
                let mut component = Vec::new();
                loop {
                    let w = stack.pop().expect("stack non-empty");
                    state.get_mut(&w).expect("registered").on_stack = false;
                    component.push(w);
                    if w == node {
                        break;
                    }
                }
                component.sort();
                components.push(component);
            }
            if let Some((parent, _, _)) = call_stack.last() {
                let low = state[parent].lowlink.min(state[&node].lowlink);
                state.get_mut(parent).expect("registered").lowlink = low;
            }
        }
    }
    components
}

/// Up to 24 nodes with ids drawn from 0..64 (so ids are sparse and some
/// nodes have no edge at all) and up to 60 edges among them.
fn random_graph() -> impl Strategy<Value = DependencyGraph> {
    (
        proptest::collection::vec(0u32..64, 1..24),
        proptest::collection::vec((0usize..24, 0usize..24), 0..60),
    )
        .prop_map(|(ids, edges)| {
            let mut g = DependencyGraph::new();
            for &id in &ids {
                g.add_node(NodeId(id));
            }
            for (a, b) in edges {
                g.add_edge(NodeId(ids[a % ids.len()]), NodeId(ids[b % ids.len()]));
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Component for component, in the same order.
    #[test]
    fn dense_condensation_equals_the_ordered_map_tarjan(g in random_graph()) {
        prop_assert_eq!(condensation(&g), ordered_map_condensation(&g));
    }
}

/// The oracle itself on a graph with a known answer: 0 → 1 ⇄ 2 → 3, 4
/// alone.
#[test]
fn the_oracle_emits_dependencies_first() {
    let mut g = DependencyGraph::from_edges(
        [(0, 1), (1, 2), (2, 1), (2, 3)].map(|(a, b)| (NodeId(a), NodeId(b))),
    );
    g.add_node(NodeId(4));
    let expected = [vec![3], vec![1, 2], vec![0], vec![4]]
        .map(|c| c.into_iter().map(NodeId).collect::<Vec<_>>());
    assert_eq!(ordered_map_condensation(&g), expected);
    assert_eq!(condensation(&g), expected);
}
