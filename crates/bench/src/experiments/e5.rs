//! E5 — sync vs async (Section 1/3 trade-off).

use super::{fmt_ms, run_workload, Scale};
use crate::table::Table;
use p2p_core::config::UpdateMode;
use p2p_topology::Topology;
use p2p_workload::{Distribution, WorkloadConfig};

/// E5: eager (asynchronous) vs rounds (synchronous) on representative
/// topologies: convergence time vs message count.
pub(crate) fn e5_modes(scale: Scale) -> Table {
    let mut table = Table::new(&[
        "topology", "mode", "time_ms", "messages", "bytes", "rounds", "closed",
    ]);
    let topologies = [
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        Topology::LayeredDag {
            layers: 4,
            width: 3,
            fanout: 2,
        },
        Topology::Ring { n: 6 },
        Topology::Clique { n: 4 },
    ];
    for topology in topologies {
        for (mode, name) in [(UpdateMode::Eager, "eager"), (UpdateMode::Rounds, "rounds")] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: Distribution::Disjoint,
                seed: 42,
            };
            let r = run_workload(&cfg, mode, true);
            table.row(vec![
                topology.to_string(),
                name.to_string(),
                fmt_ms(r.outcome.virtual_time),
                r.messages.to_string(),
                r.bytes.to_string(),
                r.rounds.to_string(),
                r.all_closed.to_string(),
            ]);
        }
    }
    table
}

pub(super) fn report(scale: Scale) -> String {
    format!("\n{}\n", e5_modes(scale).render())
}
