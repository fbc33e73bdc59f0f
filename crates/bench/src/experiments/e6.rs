//! E6 — delta optimization ablation (Section 3).

use super::{fmt_ms, run_workload, Scale};
use crate::table::Table;
use p2p_core::config::UpdateMode;
use p2p_topology::Topology;
use p2p_workload::{Distribution, WorkloadConfig};

/// E6: bytes shipped with the delta optimization on vs off, on overlapping
/// data (where re-sending full results is most wasteful).
pub fn e6_delta(scale: Scale) -> Table {
    let mut table = Table::new(&["topology", "delta", "messages", "bytes", "time_ms"]);
    let topologies = [
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        Topology::Ring { n: 5 },
    ];
    for topology in topologies {
        for delta in [true, false] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: Distribution::OverlapNeighbors { percent: 50 },
                seed: 42,
            };
            let r = run_workload(&cfg, UpdateMode::Eager, delta);
            table.row(vec![
                topology.to_string(),
                if delta { "on" } else { "off" }.to_string(),
                r.messages.to_string(),
                r.bytes.to_string(),
                fmt_ms(r.outcome.virtual_time),
            ]);
        }
    }
    table
}

pub(super) fn report(scale: Scale) -> String {
    format!("\n{}\n", e6_delta(scale).render())
}
