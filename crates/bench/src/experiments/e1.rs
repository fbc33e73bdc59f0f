//! E1 — Section 2: maximal dependency paths of the running example.

use super::Scale;
use crate::table::Table;
use p2p_topology::paths::format_path;
use p2p_topology::{maximal_dependency_paths, NodeId};

/// E1: the corrected Section 2 path table, computed from Definitions 6–7.
pub fn e1_paper_paths() -> Table {
    let graph = p2p_topology::graph::paper_example_graph();
    let mut table = Table::new(&["node", "maximal dependency paths"]);
    for start in 0..5u32 {
        let mut paths: Vec<String> = maximal_dependency_paths(&graph, NodeId(start), 10_000)
            .expect("small example")
            .iter()
            .map(|p| format_path(p))
            .collect();
        paths.sort();
        table.row(vec![
            NodeId(start).letter(),
            if paths.is_empty() {
                "∅".to_string()
            } else {
                paths.join(" ")
            },
        ]);
    }
    table
}

pub(super) fn report(_: Scale) -> String {
    format!(
        "(the PDF's typographical slips corrected: rows follow Definitions 6–7)\n\n{}\n",
        e1_paper_paths().render()
    )
}
