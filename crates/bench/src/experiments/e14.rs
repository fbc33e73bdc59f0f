//! E14 — delta-driven wave answers (rounds mode semi-naive ablation).

use super::{paper_example, Scale};
use crate::table::Table;
use p2p_core::config::UpdateMode;
use p2p_core::stats::PeerStats;
use p2p_core::system::{P2PSystem, P2PSystemBuilder, UpdateReport};
use p2p_topology::Topology;
use p2p_workload::{build_system, Distribution, WorkloadConfig};

/// Outcome of the delta-wave ablation; [`DeltaWavesSummary::ok`] is the
/// acceptance bar the report prints as "delta-wave smoke".
#[derive(Debug, Clone)]
pub(crate) struct DeltaWavesSummary {
    /// Rows shipped with `delta_waves` on (cyclic topology).
    pub(crate) delta_rows_shipped: u64,
    /// Rows shipped by the full re-ship baseline (cyclic topology).
    pub(crate) full_rows_shipped: u64,
    /// `rows_saved` reported by the delta run (cyclic topology).
    pub rows_saved: u64,
    /// Both runs (and the paper example) converged to identical databases.
    pub(crate) identical: bool,
}

impl DeltaWavesSummary {
    /// The acceptance bar: identical fix-points, actual savings recorded,
    /// and ≥3× fewer rows over the wire on the cyclic topology.
    pub(crate) fn ok(&self) -> bool {
        self.identical
            && self.rows_saved > 0
            && self.delta_rows_shipped.max(1) * 3 <= self.full_rows_shipped
    }
}

/// One rounds-mode run of the ablation. Returns the system (for snapshot
/// comparison) plus its aggregated stats and report.
fn run_once(mut b: P2PSystemBuilder, delta_waves: bool) -> (P2PSystem, PeerStats, UpdateReport) {
    b.config_mut().mode = UpdateMode::Rounds;
    b.config_mut().paper_faithful = !delta_waves;
    b.config_mut().max_events = 50_000_000;
    let mut sys = b.build().expect("system builds");
    let report = sys.run_update();
    assert!(report.errors.is_empty(), "peer errors: {:?}", report.errors);
    let stats = sys.sum_stats();
    (sys, stats, report)
}

/// E14: rounds-mode traffic with delta-driven wave answers vs full re-ship,
/// on the paper's running example (seeded with a 5-fact chain at E, so the
/// B↔C cycle needs several rounds) and a generated cyclic topology. The
/// summary is over the cyclic topology.
pub(crate) fn e14_delta_waves(scale: Scale) -> (Table, DeltaWavesSummary) {
    let mut table = Table::new(&[
        "topology",
        "delta_waves",
        "rounds",
        "messages",
        "bytes",
        "rows_shipped",
        "delta_answers",
        "rows_saved",
    ]);
    let mut summary = DeltaWavesSummary {
        delta_rows_shipped: 0,
        full_rows_shipped: 0,
        rows_saved: 0,
        identical: true,
    };
    let ring = Topology::Ring { n: 8 };
    // The cyclic workload feeds the summary.
    for cyclic in [false, true] {
        let make = || {
            if cyclic {
                build_system(&WorkloadConfig {
                    topology: ring,
                    records_per_node: scale.records(),
                    distribution: Distribution::Disjoint,
                    seed: 7,
                })
                .expect("workload builds")
            } else {
                paper_example(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
            }
        };
        let label = if cyclic {
            ring.to_string()
        } else {
            "paper example".to_string()
        };
        let (delta_sys, ds, dr) = run_once(make(), true);
        let (full_sys, fs, fr) = run_once(make(), false);
        let identical = delta_sys.snapshot().equivalent(&full_sys.snapshot())
            && delta_sys
                .snapshot()
                .equivalent(&delta_sys.oracle().expect("oracle"));
        summary.identical &= identical;
        if cyclic {
            summary.delta_rows_shipped = ds.rows_shipped;
            summary.full_rows_shipped = fs.rows_shipped;
            summary.rows_saved = ds.rows_saved;
        }
        for (on, stats, report) in [(true, &ds, &dr), (false, &fs, &fr)] {
            table.row(vec![
                label.clone(),
                if on { "on" } else { "off" }.to_string(),
                report.rounds.to_string(),
                report.messages.to_string(),
                report.bytes.to_string(),
                stats.rows_shipped.to_string(),
                stats.delta_answers_sent.to_string(),
                stats.rows_saved.to_string(),
            ]);
        }
    }
    (table, summary)
}

pub(super) fn report(scale: Scale) -> String {
    let (table, summary) = e14_delta_waves(scale);
    format!(
        "\n{}\ncyclic topology: delta ships {} rows vs {} full ({:.1}x), rows_saved = {}\n\
         delta-wave smoke: {}\n\n",
        table.render(),
        summary.delta_rows_shipped,
        summary.full_rows_shipped,
        summary.full_rows_shipped as f64 / summary.delta_rows_shipped.max(1) as f64,
        summary.rows_saved,
        if summary.ok() {
            "OK"
        } else {
            "FAILED (rows_saved == 0 or <3x saving or fix-point mismatch)"
        }
    )
}
