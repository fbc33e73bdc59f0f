//! The `scale` scenario: a deliberately *flat* workload for measuring how
//! far the runtime itself goes, separated from chase complexity.
//!
//! The Section-5 DBLP workload exercises realistic schema translation, but
//! its rule templates make derived data flow transitively, so total work
//! grows with topology mixing — useless as a yardstick when the question is
//! "does the *event loop* keep up at 10k–100k peers?". Here every node runs
//! the same two-relation schema and every dependency edge carries exactly
//! one one-hop copy rule:
//!
//! ```text
//! item(id: int, src: int). inbox(id: int, src: int).
//! <body>:item(I,S) => <head>:inbox(I,S)
//! ```
//!
//! `inbox` never occurs in a rule body, so nothing propagates further than
//! one hop: the fix-point is known in closed form. Node `h` ends with its
//! own `records` items plus `records` inbox tuples per dependency edge
//! `h → b` (the `src` column keeps different bodies' contributions
//! distinct), giving exactly
//! [`expected_total_tuples`]` = (nodes + edges) × records` tuples
//! network-wide. Experiments can therefore verify a 10k-peer run without
//! paying for a 10k-peer centralized oracle — and the cost of a run is
//! dominated by the transport: flood, queries, answers, acks, fix-point
//! broadcast. Exactly the axis the benchmark's `flood_sim` and
//! `flood_sharded` workloads measure.

use p2p_core::error::CoreResult;
use p2p_core::system::P2PSystemBuilder;
use p2p_topology::Topology;
use std::fmt::Write;

/// Configuration of one scale-scenario system.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Network shape. The interesting families at scale are
    /// [`Topology::Expander`] and [`Topology::SmallWorld`] (flat degree,
    /// logarithmic diameter), with [`Topology::Ring`] and
    /// [`Topology::Random`] as the classical baselines.
    pub topology: Topology,
    /// `item` tuples seeded at every node.
    pub records_per_node: usize,
}

impl ScaleConfig {
    /// A small default useful in tests: a degree-4 expander over 64 nodes.
    pub fn small() -> Self {
        ScaleConfig {
            topology: Topology::Expander {
                n: 64,
                degree: 4,
                seed: 7,
            },
            records_per_node: 4,
        }
    }
}

/// Uniform per-node schema of the scale scenario.
pub const SCALE_SCHEMA: &str = "item(id: int, src: int). inbox(id: int, src: int).";

/// The closed-form fix-point size: every node keeps its `records` items and
/// gains `records` inbox tuples per outgoing dependency edge, so the
/// network-wide total is `(nodes + edges) × records`.
pub fn expected_total_tuples(cfg: &ScaleConfig) -> usize {
    let generated = cfg.topology.generate();
    let edges = generated.graph.edges().count();
    (generated.node_count + edges) * cfg.records_per_node
}

/// Builds the scale-scenario system: one node per topology vertex (uniform
/// schema), one one-hop copy rule per dependency edge, `records_per_node`
/// seeded `item` tuples per node. The returned builder still accepts
/// configuration tweaks before `build()` — in particular the event budget
/// is left on auto so it derives from the node count.
pub fn scale_system(cfg: &ScaleConfig) -> CoreResult<P2PSystemBuilder> {
    let generated = cfg.topology.generate();
    let mut b = P2PSystemBuilder::new();

    for node in generated.graph.nodes() {
        b.add_node_with_schema(node.0, SCALE_SCHEMA)?;
    }

    // One copy rule per dependency edge: the head imports the body's items.
    // Name and text are written into two buffers the loop reuses.
    let (mut name, mut text) = (String::new(), String::new());
    for (k, (head, body)) in generated.graph.edges().enumerate() {
        name.clear();
        text.clear();
        write!(name, "s{}", k + 1).expect("writing to a String");
        write!(text, "{body}:item(I,S) => {head}:inbox(I,S)").expect("writing to a String");
        b.add_rule(&name, &text)?;
    }

    // Seed data: the id spaces of different nodes intentionally collide —
    // the src column keeps contributions distinct, and colliding ids keep
    // the interner dictionary small at 10k+ peers.
    for node in generated.graph.nodes() {
        for i in 0..cfg.records_per_node {
            b.insert(node.0, "item", vec![i as i64, node.0 as i64])?;
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_expander_hits_the_closed_form_and_the_oracle() {
        let cfg = ScaleConfig::small();
        let mut sys = scale_system(&cfg).unwrap().build().unwrap();
        let report = sys.run_update();
        assert!(report.outcome.quiescent);
        assert!(report.all_closed);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            sys.snapshot().total_tuples(),
            expected_total_tuples(&cfg),
            "one-hop copy fix-point must match the closed form"
        );
        assert!(
            sys.snapshot().equivalent(&sys.oracle().unwrap()),
            "scale scenario must match the centralized fix-point"
        );
    }

    #[test]
    fn ring_and_small_world_hit_the_closed_form() {
        for topology in [
            Topology::Ring { n: 24 },
            Topology::SmallWorld {
                n: 24,
                k: 4,
                rewire_percent: 20,
                seed: 3,
            },
        ] {
            let cfg = ScaleConfig {
                topology,
                records_per_node: 3,
            };
            let mut sys = scale_system(&cfg).unwrap().build().unwrap();
            let report = sys.run_update();
            assert!(report.all_closed, "{topology}: not all closed");
            assert_eq!(
                sys.snapshot().total_tuples(),
                expected_total_tuples(&cfg),
                "{topology}: fix-point size off"
            );
        }
    }

    #[test]
    fn closed_form_counts_nodes_and_edges() {
        let cfg = ScaleConfig {
            topology: Topology::Ring { n: 10 },
            records_per_node: 5,
        };
        // A ring has exactly n edges: (10 + 10) × 5.
        assert_eq!(expected_total_tuples(&cfg), 100);
    }
}
