//! E3/E7 — Section 5 scalability: size sweep × topology × distribution.

use super::{fmt_ms, run_workload, Scale};
use crate::table::Table;
use p2p_core::config::UpdateMode;
use p2p_topology::Topology;
use p2p_workload::{Distribution, WorkloadConfig};

/// E3 + E7: execution time and message counts over network size ("up to 31
/// nodes"), for both data distributions.
pub fn e3_scalability(scale: Scale) -> Table {
    let mut table = Table::new(&[
        "topology",
        "nodes",
        "depth",
        "distribution",
        "time_ms",
        "messages",
        "bytes",
        "closed",
    ]);
    let trees = (1..=4).map(|depth| Topology::Tree {
        branching: 2,
        depth,
    });
    let dags = [(2, 2), (4, 2), (4, 4), (6, 5)].map(|(layers, width)| Topology::LayeredDag {
        layers,
        width,
        fanout: 2,
    });
    let cliques = (3..=6).map(|n| Topology::Clique { n });
    for topology in trees.chain(dags).chain(cliques) {
        let generated = topology.generate();
        for (dist, dist_name) in [
            (Distribution::Disjoint, "disjoint"),
            (Distribution::OverlapNeighbors { percent: 50 }, "overlap50"),
        ] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: dist,
                seed: 42,
            };
            let r = run_workload(&cfg, UpdateMode::Eager, true);
            table.row(vec![
                topology.to_string(),
                generated.node_count.to_string(),
                generated.depth.to_string(),
                dist_name.to_string(),
                fmt_ms(r.outcome.virtual_time),
                r.messages.to_string(),
                r.bytes.to_string(),
                r.all_closed.to_string(),
            ]);
        }
    }
    table
}

pub(super) fn report(scale: Scale) -> String {
    format!(
        "({} records/node)\n\n{}\n",
        scale.records(),
        e3_scalability(scale).render()
    )
}
