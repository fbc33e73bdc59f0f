//! E10 — topology discovery cost.

use super::{fmt_ms, Scale};
use crate::table::Table;
use p2p_topology::Topology;
use p2p_workload::{build_system, Distribution, WorkloadConfig};

/// E10: topology-discovery messages and time vs network size — both
/// single-owner (super-peer only, the paper's A1) and all-owners (every
/// node learns its own paths).
pub fn e10_discovery() -> Table {
    let mut table = Table::new(&[
        "topology",
        "nodes",
        "initiators",
        "messages",
        "time_ms",
        "paths@super",
        "closed",
    ]);
    for topology in [
        Topology::Tree {
            branching: 2,
            depth: 2,
        },
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        Topology::Tree {
            branching: 2,
            depth: 4,
        },
        Topology::LayeredDag {
            layers: 4,
            width: 4,
            fanout: 2,
        },
        Topology::Clique { n: 4 },
        Topology::Clique { n: 6 },
        Topology::Ring { n: 8 },
    ] {
        for all_owners in [false, true] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: 1, // discovery ignores data
                distribution: Distribution::Disjoint,
                seed: 42,
            };
            let mut sys = build_system(&cfg).unwrap().build().unwrap();
            let report = if all_owners {
                sys.run_discovery_all()
            } else {
                sys.run_discovery()
            };
            let paths = sys
                .peer(sys.super_peer())
                .and_then(|p| p.paths().map(<[_]>::len))
                .unwrap_or(0);
            table.row(vec![
                topology.to_string(),
                topology.node_count().to_string(),
                if all_owners { "all" } else { "super" }.to_string(),
                report.messages.to_string(),
                fmt_ms(report.outcome.virtual_time),
                paths.to_string(),
                report.all_closed.to_string(),
            ]);
        }
    }
    table
}

pub(super) fn report(_: Scale) -> String {
    format!("\n{}\n", e10_discovery().render())
}
