//! Concurrent-writers scenario generation.
//!
//! The paper's setting is a P2P network where *any* node may initiate data
//! sharing and updates; robustness work on dynamic P2P networks treats many
//! concurrent initiators as the baseline scenario. This module builds that
//! scenario: a standard workload system plus `writers` designated nodes,
//! each holding a batch of **fresh** records (not part of the base
//! distribution) to be inserted right before its update session starts.
//!
//! A driver runs the scenario two ways:
//!
//! * **serial** — for each writer in turn: insert its delta, run one global
//!   session rooted at it, wait for the fix-point;
//! * **concurrent** — insert every delta, then launch all sessions at once
//!   (`P2PSystem::run` with every writer as a root) and let them interleave.
//!
//! Both must reach the same final global database (modulo null renaming) —
//! the serial-equivalence guarantee of the concurrent control plane — while
//! the concurrent run overlaps the sessions' wall-clock.

use crate::build::{build_system, WorkloadConfig};
use crate::dblp::DblpGenerator;
use crate::schemas::SchemaFamily;
use p2p_core::error::CoreResult;
use p2p_core::system::P2PSystemBuilder;
use p2p_relational::Val;
use p2p_topology::NodeId;

/// Configuration of a concurrent-writers run.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentConfig {
    /// The base workload (topology, per-node records, distribution, seed).
    pub base: WorkloadConfig,
    /// Number of concurrently initiating writer nodes.
    pub writers: usize,
    /// Fresh records each writer contributes just before its session.
    pub records_per_writer: usize,
}

/// One writer's pending contribution: the node that initiates a session and
/// the base tuples to insert at it immediately beforehand.
#[derive(Debug, Clone)]
pub struct WriterDelta {
    /// The initiating node (the session's root).
    pub node: NodeId,
    /// `(relation, tuple)` pairs to insert at `node`.
    pub tuples: Vec<(&'static str, Vec<Val>)>,
}

/// A ready-to-run concurrent-writers scenario.
pub struct ConcurrentScenario {
    /// The built-up system builder (configuration still tweakable).
    pub builder: P2PSystemBuilder,
    /// One delta per writer, in session-launch order.
    pub deltas: Vec<WriterDelta>,
}

impl ConcurrentScenario {
    /// The writer roots, in launch order.
    pub fn roots(&self) -> Vec<NodeId> {
        self.deltas.iter().map(|d| d.node).collect()
    }
}

/// Picks `writers` roster positions spread evenly across `node_count`
/// nodes — deterministic, so serial and concurrent drivers agree on the
/// roots. Returns indices so callers with non-contiguous node ids (e.g.
/// the CLI's network files) can map into their own roster.
pub fn pick_writer_indices(node_count: usize, writers: usize) -> Vec<usize> {
    let writers = writers.clamp(1, node_count.max(1));
    let step = node_count as f64 / writers as f64;
    (0..writers).map(|i| (i as f64 * step) as usize).collect()
}

/// [`pick_writer_indices`] over the contiguous `NodeId(0..n)` roster the
/// workload generators produce.
pub(crate) fn pick_writers(node_count: usize, writers: usize) -> Vec<NodeId> {
    pick_writer_indices(node_count, writers)
        .into_iter()
        .map(|i| NodeId(i as u32))
        .collect()
}

/// Builds the scenario: the base workload plus per-writer fresh-record
/// deltas, generated from a seed disjoint from the base distribution's so
/// writer data never collides with pre-seeded records.
pub fn concurrent_scenario(cfg: &ConcurrentConfig) -> CoreResult<ConcurrentScenario> {
    let builder = build_system(&cfg.base)?;
    let generated = cfg.base.topology.generate();
    let nodes: Vec<NodeId> = generated.graph.nodes().collect();
    let roots = pick_writers(nodes.len(), cfg.writers);

    let mut deltas = Vec::with_capacity(roots.len());
    for (i, &node) in roots.iter().enumerate() {
        // A generator seeded per writer, offset far from the base seed.
        let mut generator = DblpGenerator::new(
            cfg.base
                .seed
                .wrapping_add(0x5E55_1000)
                .wrapping_add(i as u64),
        );
        let family = SchemaFamily::for_node(node.0);
        let mut tuples = Vec::new();
        for p in generator.batch(cfg.records_per_writer) {
            tuples.extend(family.tuples_for(&p));
        }
        deltas.push(WriterDelta { node, tuples });
    }
    Ok(ConcurrentScenario { builder, deltas })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::Distribution;
    use p2p_core::system::RunSpec;
    use p2p_topology::Topology;

    fn cfg() -> ConcurrentConfig {
        ConcurrentConfig {
            base: WorkloadConfig {
                topology: Topology::Ring { n: 8 },
                records_per_node: 10,
                distribution: Distribution::Disjoint,
                seed: 7,
            },
            writers: 4,
            records_per_writer: 5,
        }
    }

    #[test]
    fn writers_are_spread_and_deterministic() {
        assert_eq!(
            pick_writers(8, 4),
            vec![NodeId(0), NodeId(2), NodeId(4), NodeId(6)]
        );
        assert_eq!(pick_writers(3, 9), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(pick_writers(5, 1), vec![NodeId(0)]);
    }

    #[test]
    fn scenario_has_one_delta_per_writer_with_fresh_tuples() {
        let s1 = concurrent_scenario(&cfg()).unwrap();
        let s2 = concurrent_scenario(&cfg()).unwrap();
        assert_eq!(s1.roots(), vec![NodeId(0), NodeId(2), NodeId(4), NodeId(6)]);
        assert_eq!(s1.deltas.len(), 4);
        for (a, b) in s1.deltas.iter().zip(&s2.deltas) {
            assert!(!a.tuples.is_empty());
            assert_eq!(a.tuples, b.tuples, "scenario generation is deterministic");
        }
        // Different writers contribute different records.
        assert_ne!(s1.deltas[0].tuples, s1.deltas[1].tuples);
    }

    #[test]
    fn serial_equals_concurrent_on_the_scenario() {
        // The generator's own smoke test of the equivalence contract.
        let run_concurrent = || {
            let s = concurrent_scenario(&cfg()).unwrap();
            let roots = s.roots();
            let mut sys = s.builder.build().unwrap();
            for d in &s.deltas {
                for (rel, vals) in &d.tuples {
                    sys.insert(d.node, rel, vals.clone()).unwrap();
                }
            }
            let reports = sys.run(&RunSpec {
                roots: roots.to_vec(),
                ..Default::default()
            });
            assert!(reports.iter().all(|r| r.all_closed));
            sys.snapshot()
        };
        let run_serial = || {
            let s = concurrent_scenario(&cfg()).unwrap();
            let mut sys = s.builder.build().unwrap();
            for d in &s.deltas {
                for (rel, vals) in &d.tuples {
                    sys.insert(d.node, rel, vals.clone()).unwrap();
                }
                let report = sys
                    .run(&RunSpec {
                        roots: vec![d.node],
                        ..Default::default()
                    })
                    .remove(0);
                assert!(report.all_closed);
            }
            sys.snapshot()
        };
        assert!(
            run_concurrent().equivalent(&run_serial()),
            "interleaved sessions must reach the serial fix-point"
        );
    }
}
