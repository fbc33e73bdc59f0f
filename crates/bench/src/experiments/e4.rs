//! E4 — Section 5: execution time linear in depth (trees, layered DAGs).

use super::{fmt_ms, run_workload, Scale};
use crate::table::{linear_fit, Table};
use p2p_core::config::UpdateMode;
use p2p_topology::Topology;
use p2p_workload::{Distribution, WorkloadConfig};

/// E4: chains (unary trees) and fixed-width layered DAGs of increasing
/// depth, plus a least-squares fit per family; the paper's claim is a
/// high-R² linear relation.
pub(crate) fn e4_depth_linearity(scale: Scale) -> (Table, Vec<(String, f64, f64)>) {
    let mut table = Table::new(&["family", "depth", "nodes", "time_ms", "messages"]);
    let mut fits = Vec::new();
    let sweep: [(&str, Vec<Topology>); 2] = [
        (
            "tree",
            (1..=8)
                .map(|depth| Topology::Tree {
                    branching: 1,
                    depth,
                })
                .collect(),
        ),
        (
            "layered",
            (2..=8)
                .map(|layers| Topology::LayeredDag {
                    layers,
                    width: 3,
                    fanout: 2,
                })
                .collect(),
        ),
    ];
    for (family, topologies) in sweep {
        let mut points = Vec::new();
        for topology in topologies {
            let generated = topology.generate();
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: Distribution::Disjoint,
                seed: 42,
            };
            let r = run_workload(&cfg, UpdateMode::Eager, true);
            let time = r.outcome.virtual_time;
            points.push((generated.depth as f64, time.as_millis_f64()));
            table.row(vec![
                family.to_string(),
                generated.depth.to_string(),
                generated.node_count.to_string(),
                fmt_ms(time),
                r.messages.to_string(),
            ]);
        }
        let (_, slope, r2) = linear_fit(&points);
        fits.push((family.to_string(), slope, r2));
    }
    (table, fits)
}

pub(super) fn report(scale: Scale) -> String {
    let (table, fits) = e4_depth_linearity(scale);
    let mut out = format!("\n{}\n", table.render());
    for (family, slope, r2) in fits {
        out += &format!("  {family}: time ≈ {slope:.3} ms/depth, R² = {r2:.4}\n");
    }
    out + "\n"
}
