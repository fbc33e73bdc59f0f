//! E11 — distributed vs centralized vs acyclic baselines.

use super::Scale;
use crate::table::Table;
use p2p_baselines::{acyclic_update, centralized_update};
use p2p_topology::{NodeId, Topology};
use p2p_workload::{build_system, Distribution, WorkloadConfig};

/// E11: the distributed algorithm vs the centralized (global) and acyclic
/// baselines: messages, bytes, and the hottest node's inbound bytes.
pub(crate) fn e11_baselines(scale: Scale) -> Table {
    let mut table = Table::new(&[
        "topology",
        "algorithm",
        "messages",
        "bytes",
        "max_node_in_bytes",
    ]);
    for topology in [
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
    ] {
        let cfg = WorkloadConfig {
            topology,
            records_per_node: scale.records(),
            distribution: Distribution::Disjoint,
            seed: 42,
        };
        // Distributed run.
        let mut b = build_system(&cfg).unwrap();
        b.config_mut().max_events = 50_000_000;
        let mut sys = b.build().unwrap();
        let initial = sys.snapshot().0;
        let rules = sys.rules().clone();
        let report = sys.run_update();
        table.row(vec![
            topology.to_string(),
            "distributed".to_string(),
            report.messages.to_string(),
            report.bytes.to_string(),
            sys.net_stats().max_node_bytes_received().to_string(),
        ]);
        // Centralized baseline over the same inputs.
        let (_, central) =
            centralized_update(&initial, &rules, NodeId(0), 64).expect("centralized runs");
        table.row(vec![
            topology.to_string(),
            "centralized".to_string(),
            central.messages.to_string(),
            central.bytes.to_string(),
            central.central_bytes_in.to_string(),
        ]);
        // Acyclic baseline (DAGs only).
        match acyclic_update(&initial, &rules, 64) {
            Ok((_, acyclic)) => table.row(vec![
                topology.to_string(),
                "acyclic".to_string(),
                acyclic.messages.to_string(),
                acyclic.bytes.to_string(),
                "-".to_string(),
            ]),
            Err(_) => table.row(vec![
                topology.to_string(),
                "acyclic".to_string(),
                "refused (cyclic)".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]),
        }
    }
    table
}

pub(super) fn report(scale: Scale) -> String {
    format!("\n{}\n", e11_baselines(scale).render())
}
