//! Data distributions (Section 5): disjoint vs. 50 %-intersection between
//! linked nodes.

use crate::dblp::{DblpGenerator, Publication};
use p2p_topology::{DependencyGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// How base records are spread over the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// "no intersection between initial data in neighbor nodes" — every node
    /// receives fresh publications.
    Disjoint,
    /// "`percent` % probability of intersection between initial data in
    /// nodes linked by coordination rules; the intersection between data in
    /// other nodes is empty." Each record slot of a node is, with the given
    /// probability, a copy of a record held by an already-populated linked
    /// neighbour (chosen uniformly), otherwise fresh.
    OverlapNeighbors {
        /// Overlap probability in percent (the paper used 50).
        percent: u8,
    },
}

/// Assigns `records_per_node` publications to every node of `graph`
/// (deterministically, given `seed`).
pub fn distribute(
    graph: &DependencyGraph,
    records_per_node: usize,
    distribution: Distribution,
    seed: u64,
) -> BTreeMap<NodeId, Vec<Publication>> {
    let mut gen = DblpGenerator::new(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out: BTreeMap<NodeId, Vec<Publication>> = BTreeMap::new();

    for node in graph.nodes() {
        // Linked neighbours processed earlier (either edge direction).
        let prior: Vec<NodeId> = graph
            .successors(node)
            .chain(graph.predecessors(node))
            .filter(|n| *n < node)
            .collect();
        let mut records = Vec::with_capacity(records_per_node);
        for _ in 0..records_per_node {
            let overlap = match distribution {
                Distribution::Disjoint => false,
                Distribution::OverlapNeighbors { percent } => {
                    !prior.is_empty() && rng.gen_range(0..100u8) < percent
                }
            };
            if overlap {
                let donor = prior[rng.gen_range(0..prior.len())];
                let donor_records = &out[&donor];
                let copy = donor_records[rng.gen_range(0..donor_records.len())].clone();
                records.push(copy);
            } else {
                records.push(gen.publication());
            }
        }
        out.insert(node, records);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_topology::Topology;

    fn chain(n: u32) -> DependencyGraph {
        Topology::Chain { n }.generate().graph
    }

    /// Fraction (0–1) of records at `a` that also occur at `b` — used to verify
    /// the distributions do what the paper describes.
    fn intersection_ratio(
        assignment: &BTreeMap<NodeId, Vec<Publication>>,
        a: NodeId,
        b: NodeId,
    ) -> f64 {
        let (Some(ra), Some(rb)) = (assignment.get(&a), assignment.get(&b)) else {
            return 0.0;
        };
        if ra.is_empty() {
            return 0.0;
        }
        let ids: std::collections::BTreeSet<i64> = rb.iter().map(|p| p.id).collect();
        let shared = ra.iter().filter(|p| ids.contains(&p.id)).count();
        shared as f64 / ra.len() as f64
    }

    #[test]
    fn disjoint_has_no_intersection() {
        let g = chain(5);
        let asg = distribute(&g, 100, Distribution::Disjoint, 42);
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i != j {
                    assert_eq!(
                        intersection_ratio(&asg, NodeId(i), NodeId(j)),
                        0.0,
                        "{i} vs {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_hits_linked_pairs_only() {
        let g = chain(5);
        let asg = distribute(&g, 400, Distribution::OverlapNeighbors { percent: 50 }, 42);
        // Linked pair (1,0): roughly half of node 1's records come from 0.
        let linked = intersection_ratio(&asg, NodeId(1), NodeId(0));
        assert!(
            (0.35..=0.65).contains(&linked),
            "linked overlap was {linked}"
        );
        // Unlinked pair (0,3): no overlap by construction? Records can flow
        // transitively (3 copies from 2, 2 copies from 1, 1 copies from 0),
        // so allow a small transitive residue but require it to be far below
        // the direct rate.
        let unlinked = intersection_ratio(&asg, NodeId(3), NodeId(0));
        assert!(unlinked < linked / 2.0, "unlinked {unlinked} vs {linked}");
    }

    #[test]
    fn counts_match_request() {
        let g = chain(4);
        let asg = distribute(&g, 57, Distribution::Disjoint, 1);
        assert_eq!(asg.len(), 4);
        for records in asg.values() {
            assert_eq!(records.len(), 57);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = chain(4);
        let a = distribute(&g, 50, Distribution::OverlapNeighbors { percent: 50 }, 9);
        let b = distribute(&g, 50, Distribution::OverlapNeighbors { percent: 50 }, 9);
        assert_eq!(a, b);
    }
}
