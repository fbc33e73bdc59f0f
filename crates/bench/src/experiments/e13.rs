//! E13 — initiation ablation: flood vs strict-A4 query propagation.

use super::Scale;
use crate::table::Table;
use p2p_topology::Topology;
use p2p_workload::{build_system, Distribution, WorkloadConfig};

/// E13: how the start request spreads — the global update's send to every
/// rostered node vs the pseudocode's pure query propagation, which is the
/// query-dependent update rooted at the super-peer. On super-peer-rooted
/// topologies both cover everything; the flood pays one request and its
/// acknowledgement per node for its coverage guarantee.
pub fn e13_initiation(scale: Scale) -> Table {
    let mut table = Table::new(&["topology", "initiation", "messages", "bytes", "closed"]);
    for topology in [
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        Topology::Ring { n: 6 },
    ] {
        for scoped in [false, true] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: Distribution::Disjoint,
                seed: 42,
            };
            let mut sys = build_system(&cfg).expect("builds").build().expect("builds");
            let (name, report) = if scoped {
                ("scoped", sys.run_scoped_update(sys.super_peer()))
            } else {
                ("flood", sys.run_update())
            };
            table.row(vec![
                topology.to_string(),
                name.to_string(),
                report.messages.to_string(),
                report.bytes.to_string(),
                report.all_closed.to_string(),
            ]);
        }
    }
    table
}

pub(super) fn report(scale: Scale) -> String {
    format!("\n{}\n", e13_initiation(scale).render())
}
