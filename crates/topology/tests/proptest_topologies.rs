//! Property tests for the topology generators: connectivity, degree
//! invariants and deterministic regeneration across every family, including
//! the scaling families (expander, small world) added for E19.

use p2p_topology::{DependencyGraph, NodeId, Topology};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Direction-blind connectivity from node 0 (the invariant the update
/// protocol's pipe network needs: every peer reachable over some chain of
/// pipes).
fn connected_ignoring_direction(g: &DependencyGraph) -> bool {
    let mut seen = BTreeSet::new();
    let mut queue = vec![NodeId(0)];
    while let Some(n) = queue.pop() {
        if !seen.insert(n) {
            continue;
        }
        queue.extend(g.successors(n));
        queue.extend(g.predecessors(n));
    }
    seen.len() == g.node_count()
}

fn total_degree(g: &DependencyGraph, n: NodeId) -> usize {
    g.successors(n).count() + g.predecessors(n).count()
}

/// One valid spec from each family, parameterised by size and seed knobs.
fn any_topology() -> impl Strategy<Value = Topology> {
    (0u8..7, 3u32..24, 0u64..1_000, 0u8..=100).prop_map(|(family, n, seed, pct)| match family {
        0 => Topology::Tree {
            branching: 1 + n % 3,
            depth: n % 4,
        },
        1 => Topology::LayeredDag {
            layers: 1 + n % 4,
            width: 1 + n % 3,
            fanout: 1 + n % 2,
        },
        2 => Topology::Clique { n: 1 + n % 6 },
        3 => Topology::Ring { n: 2 + n },
        4 => Topology::Random {
            n,
            p_percent: pct.min(60),
            seed,
        },
        5 => {
            // Valid expander: 2 ≤ d < n with n·d even.
            let d = 2 + (n % 3) * 2; // 2, 4 or 6, always even
            let d = d.min(n - 1);
            let d = if d % 2 == 1 && n % 2 == 1 { d - 1 } else { d };
            Topology::Expander {
                n,
                degree: d.max(2),
                seed,
            }
        }
        _ => {
            let k = (2 + (n % 4) * 2).min(if n % 2 == 0 { n - 2 } else { n - 1 });
            Topology::SmallWorld {
                n,
                k: k.max(2),
                rewire_percent: pct,
                seed,
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Same spec, same graph — bit-for-bit regeneration, the property every
    /// seeded experiment in the repo leans on.
    #[test]
    fn regeneration_is_deterministic(t in any_topology()) {
        let a = t.try_generate().unwrap();
        let b = t.try_generate().unwrap();
        prop_assert_eq!(a.graph, b.graph, "{} regenerated differently", t);
        prop_assert_eq!(a.node_count, b.node_count);
        prop_assert_eq!(a.depth, b.depth);
    }

    /// `node_count()` never lies about what `generate()` builds.
    #[test]
    fn node_count_is_exact(t in any_topology()) {
        prop_assert_eq!(t.try_generate().unwrap().node_count, t.node_count(), "{}", t);
    }

    /// Every family except Random guarantees a single connected component
    /// (Random's connectivity is whatever the dice gave, by design).
    #[test]
    fn generated_topologies_are_connected(t in any_topology()) {
        // Random's connectivity is whatever the dice gave. A layered DAG
        // only links its columns through fanout ≥ 2 (fanout 1 is parallel
        // independent chains; one layer has no edges at all) — both shapes
        // are disconnected by definition, not by generator defect.
        if matches!(t, Topology::Random { .. })
            || matches!(
                t,
                Topology::LayeredDag { layers, width, fanout }
                    if width > 1 && (layers == 1 || fanout == 1)
            )
        {
            return Ok(());
        }
        let g = t.try_generate().unwrap();
        prop_assert!(connected_ignoring_direction(&g.graph), "{} disconnected", t);
    }

    /// Expanders are exactly `degree`-regular; small worlds keep the exact
    /// lattice edge count and at least `k/2` edges per node.
    #[test]
    fn scaling_families_keep_degree_invariants(t in any_topology()) {
        let g = match t {
            Topology::Expander { .. } | Topology::SmallWorld { .. } => t.try_generate().unwrap(),
            _ => return Ok(()),
        };
        match t {
            Topology::Expander { n, degree, .. } => {
                prop_assert_eq!(g.graph.edge_count(), (n as usize * degree as usize) / 2);
                for node in g.graph.nodes() {
                    prop_assert_eq!(
                        total_degree(&g.graph, node),
                        degree as usize,
                        "{} node {}", t, node
                    );
                }
            }
            Topology::SmallWorld { n, k, .. } => {
                prop_assert_eq!(g.graph.edge_count(), (n as usize * k as usize) / 2);
                for node in g.graph.nodes() {
                    prop_assert!(
                        total_degree(&g.graph, node) >= k as usize / 2,
                        "{} node {} under-connected", t, node
                    );
                }
            }
            _ => unreachable!(),
        }
    }

    /// Different seeds give different expanders (on any size where the
    /// edge space is non-trivial).
    #[test]
    fn seeds_matter(n in 12u32..40, seed in 0u64..500) {
        let a = Topology::Expander { n, degree: 4, seed };
        let b = Topology::Expander { n, degree: 4, seed: seed + 1 };
        prop_assert_ne!(a.try_generate().unwrap().graph, b.try_generate().unwrap().graph);
    }
}
