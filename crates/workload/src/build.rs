//! Assembling a full experimental system: topology × schemas × rules × data.

use crate::distribute::{distribute, Distribution};
use crate::schemas::SchemaFamily;
use p2p_core::error::CoreResult;
use p2p_core::system::P2PSystemBuilder;
use p2p_topology::Topology;

/// Configuration of one experimental run, mirroring the paper's Section 5
/// setup.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Network shape (tree / layered DAG / clique / …).
    pub topology: Topology,
    /// Base records per node (the paper used ~1000).
    pub records_per_node: usize,
    /// Data distribution.
    pub distribution: Distribution,
    /// Master seed (topology data, record content, overlap choices).
    pub seed: u64,
}

/// Builds a ready-to-run system: nodes named `A`, `B`, … with round-robin
/// schema families, one batch of coordination rules per dependency edge
/// (translating the body node's schema into the head node's), and the
/// requested data distribution. The returned builder still accepts
/// configuration tweaks before `build()`.
pub fn build_system(cfg: &WorkloadConfig) -> CoreResult<P2PSystemBuilder> {
    let generated = cfg.topology.generate();
    let mut b = P2PSystemBuilder::new();

    // Nodes.
    for node in generated.graph.nodes() {
        let family = SchemaFamily::for_node(node.0);
        b.add_node_with_schema(node.0, family.schema_text())?;
    }

    // Rules: one template batch per dependency edge (head imports from body).
    let mut k = 0usize;
    for (head, body) in generated.graph.edges() {
        let head_family = SchemaFamily::for_node(head.0);
        let body_family = SchemaFamily::for_node(body.0);
        for text in head_family.import_rules(body_family, &body.letter(), &head.letter()) {
            k += 1;
            b.add_rule(&format!("r{k}"), &text)?;
        }
    }

    // Data.
    let assignment = distribute(
        &generated.graph,
        cfg.records_per_node,
        cfg.distribution,
        cfg.seed,
    );
    for (node, records) in assignment {
        let family = SchemaFamily::for_node(node.0);
        for p in records {
            for (rel, vals) in family.tuples_for(&p) {
                // Overlapping records may repeat: duplicate inserts are
                // deduplicated by the relation, which is exactly the
                // "intersection" the paper wants.
                b.insert(node.0, rel, vals)?;
            }
        }
    }
    Ok(b)
}

#[cfg(test)]
impl WorkloadConfig {
    /// A small default useful in tests: 3-level binary tree, 50 records,
    /// disjoint data.
    fn small() -> Self {
        WorkloadConfig {
            topology: Topology::Tree {
                branching: 2,
                depth: 2,
            },
            records_per_node: 50,
            distribution: Distribution::Disjoint,
            seed: 42,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_topology::NodeId;

    #[test]
    fn small_tree_builds_and_converges() {
        let mut b = build_system(&WorkloadConfig::small()).unwrap();
        b.config_mut().max_events = 2_000_000;
        let mut sys = b.build().unwrap();
        let report = sys.run_update();
        assert!(report.outcome.quiescent);
        assert!(report.all_closed);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        // The root (S1 family) must have imported from its children.
        let root = sys.database(NodeId(0)).unwrap();
        let own = 50; // its own pubs
        assert!(
            root.relation("pub").unwrap().len() > own,
            "root should hold imported publications"
        );
    }

    #[test]
    fn layered_dag_converges_to_oracle() {
        let cfg = WorkloadConfig {
            topology: Topology::LayeredDag {
                layers: 3,
                width: 2,
                fanout: 2,
            },
            records_per_node: 20,
            distribution: Distribution::Disjoint,
            seed: 7,
        };
        let mut sys = build_system(&cfg).unwrap().build().unwrap();
        let report = sys.run_update();
        assert!(report.all_closed);
        assert!(
            sys.snapshot().equivalent(&sys.oracle().unwrap()),
            "workload system must match the centralized fix-point"
        );
    }

    #[test]
    fn clique_with_overlap_converges() {
        let cfg = WorkloadConfig {
            topology: Topology::Clique { n: 3 },
            records_per_node: 15,
            distribution: Distribution::OverlapNeighbors { percent: 50 },
            seed: 3,
        };
        let mut sys = build_system(&cfg).unwrap().build().unwrap();
        let report = sys.run_update();
        assert!(report.outcome.quiescent, "clique must still quiesce");
        assert!(report.all_closed);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    #[test]
    fn overlap_reduces_fresh_insertions() {
        let base = WorkloadConfig {
            topology: Topology::Chain { n: 4 },
            records_per_node: 60,
            distribution: Distribution::Disjoint,
            seed: 11,
        };
        let disjoint_tuples = {
            let mut sys = build_system(&base).unwrap().build().unwrap();
            sys.run_update();
            sys.snapshot().total_tuples()
        };
        let overlap_tuples = {
            let cfg = WorkloadConfig {
                distribution: Distribution::OverlapNeighbors { percent: 50 },
                ..base
            };
            let mut sys = build_system(&cfg).unwrap().build().unwrap();
            sys.run_update();
            sys.snapshot().total_tuples()
        };
        assert!(
            overlap_tuples < disjoint_tuples,
            "shared records should deduplicate: {overlap_tuples} vs {disjoint_tuples}"
        );
    }
}
