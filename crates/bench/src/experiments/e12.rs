//! E12 — path-count growth (the 2EXPTIME flavour) + Lemma 1 checks.

use super::Scale;
use crate::table::Table;
use p2p_topology::{maximal_dependency_paths, NodeId, Topology};
use p2p_workload::{build_system, Distribution, WorkloadConfig};

/// E12: maximal-dependency-path counts on cliques (factorial growth — the
/// combinatorial core of the paper's 2EXPTIME bound) alongside a Lemma 1
/// check: at closure, the distributed state equals the fix-point oracle.
pub(crate) fn e12_growth() -> Table {
    let mut table = Table::new(&["clique n", "paths from node 0", "closed==fixpoint"]);
    for n in 3..=7u32 {
        let topology = Topology::Clique { n };
        let generated = topology.generate();
        let paths = maximal_dependency_paths(&generated.graph, NodeId(0), 1_000_000)
            .map(|p| p.len().to_string())
            .unwrap_or_else(|e| format!(">{}", e.limit));
        let cfg = WorkloadConfig {
            topology,
            records_per_node: 10,
            distribution: Distribution::Disjoint,
            seed: 42,
        };
        let mut sys = build_system(&cfg).unwrap().build().unwrap();
        let report = sys.run_update();
        let ok = report.all_closed && sys.snapshot().equivalent(&sys.oracle().expect("oracle"));
        table.row(vec![n.to_string(), paths, ok.to_string()]);
    }
    table
}

pub(super) fn report(_: Scale) -> String {
    format!("\n{}\n", e12_growth().render())
}
