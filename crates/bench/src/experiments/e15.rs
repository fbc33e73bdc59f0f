//! E15 — durability & churn: crash/restart with WAL + snapshot recovery.

use super::Scale;
use crate::table::Table;
use p2p_core::config::UpdateMode;
use p2p_core::stats::PeerStats;
use p2p_core::system::{P2PSystemBuilder, RunSpec, UpdateReport};
use p2p_net::{ChurnPlan, SimTime};
use p2p_topology::{NodeId, Topology};
use p2p_workload::{build_system, Distribution, WorkloadConfig};

/// Outcome of the churn experiment; [`ChurnSummary::ok`] is the acceptance
/// bar the report prints as "churn smoke".
#[derive(Debug, Clone)]
pub(crate) struct ChurnSummary {
    /// Peer crashes executed.
    pub crashes: u64,
    /// Successful storage recoveries.
    pub recoveries: u64,
    /// Rows re-shipped through the watermark-based resync protocol.
    pub resync_rows: u64,
    /// What a full re-propagation ships on the same workload (the
    /// `delta_waves = off` baseline's total rows over the wire).
    pub(crate) full_repropagation_rows: u64,
    /// Driver re-drives it took to re-certify closure.
    pub redrives: u32,
    /// The churned run converged tuple-identical to the no-churn run and
    /// the centralized oracle.
    pub(crate) identical: bool,
}

impl ChurnSummary {
    /// The acceptance bar: both crashes recovered, identical fix-point, and
    /// crash repair strictly cheaper than a full re-propagation.
    pub(crate) fn ok(&self) -> bool {
        self.identical
            && self.crashes >= 2
            && self.recoveries == self.crashes
            && self.resync_rows > 0
            && self.resync_rows < self.full_repropagation_rows
    }
}

/// The churn workload: the ring(8) cyclic topology in rounds mode with
/// delta waves, durability on (`durable = false` gives the amnesia
/// variant; `delta_waves = false` the full re-ship baseline).
fn churn_builder(scale: Scale, delta_waves: bool, durable: bool) -> P2PSystemBuilder {
    let mut b = build_system(&WorkloadConfig {
        topology: Topology::Ring { n: 8 },
        records_per_node: scale.records(),
        distribution: Distribution::Disjoint,
        seed: 7,
    })
    .expect("workload builds");
    b.config_mut().mode = UpdateMode::Rounds;
    b.config_mut().paper_faithful = !delta_waves;
    b.config_mut().durability = durable;
    b.config_mut().snapshot_every = 32;
    b.config_mut().max_events = 50_000_000;
    b
}

/// E15: ring(8) with two scheduled peer crashes. The no-churn delta run
/// fixes the session length (and the reference fix-point); the full
/// re-ship baseline prices a full re-propagation; the churned run must
/// converge tuple-identical with `resync_rows` strictly below that price.
pub(crate) fn e15_churn(scale: Scale) -> (Table, ChurnSummary) {
    let mut table = Table::new(&[
        "run",
        "rounds",
        "redrives",
        "messages",
        "rows_shipped",
        "crashes",
        "recoveries",
        "resync_rows",
    ]);
    let mut row = |label: &str, s: &PeerStats, r: &UpdateReport| {
        table.row(vec![
            label.to_string(),
            r.rounds.to_string(),
            r.redrives.to_string(),
            r.messages.to_string(),
            s.rows_shipped.to_string(),
            s.crashes.to_string(),
            s.recoveries.to_string(),
            s.resync_rows.to_string(),
        ]);
    };

    // No-churn probe: session length + reference fix-point.
    let mut clean = churn_builder(scale, true, true).build().expect("builds");
    let clean_report = clean.run_update();
    assert!(clean_report.all_closed, "probe must close");
    row("no churn (delta)", &clean.sum_stats(), &clean_report);

    // Full re-ship baseline: the cost of re-propagating everything.
    let mut full = churn_builder(scale, false, false).build().expect("builds");
    let full_report = full.run_update();
    let full_stats = full.sum_stats();
    row("no churn (full re-ship)", &full_stats, &full_report);

    // The churned run: node 3 goes down a quarter into the session, node 5
    // at the half-way mark, each for a sixth of it — squarely mid-wave at
    // every scale.
    let t = clean_report.outcome.virtual_time.0;
    let mut b = churn_builder(scale, true, true);
    b.set_churn(
        ChurnPlan::none()
            .with_crash(NodeId(3), SimTime(t / 4), SimTime(t / 4 + t / 6))
            .with_crash(NodeId(5), SimTime(t / 2), SimTime(t / 2 + t / 6)),
    );
    let mut churned = b.build().expect("system builds");
    let report = churned
        .run(&RunSpec {
            redrives: 8,
            ..Default::default()
        })
        .remove(0);
    assert!(report.errors.is_empty(), "peer errors: {:?}", report.errors);
    let stats = churned.sum_stats();
    row("2 crashes (durable)", &stats, &report);

    let identical = report.all_closed
        && churned.snapshot().equivalent(&clean.snapshot())
        && churned
            .snapshot()
            .equivalent(&churned.oracle().expect("oracle"));
    let summary = ChurnSummary {
        crashes: stats.crashes,
        recoveries: stats.recoveries,
        resync_rows: stats.resync_rows,
        full_repropagation_rows: full_stats.rows_shipped,
        redrives: report.redrives,
        identical,
    };
    (table, summary)
}

pub(super) fn report(scale: Scale) -> String {
    let (table, summary) = e15_churn(scale);
    format!(
        "\n{}\nring(8), {} crashes: resync re-shipped {} rows vs {} for a full re-propagation \
         ({:.1}x cheaper), {} redrive(s)\nchurn smoke: {}\n\n",
        table.render(),
        summary.crashes,
        summary.resync_rows,
        summary.full_repropagation_rows,
        summary.full_repropagation_rows as f64 / summary.resync_rows.max(1) as f64,
        summary.redrives,
        if summary.ok() {
            "OK"
        } else {
            "FAILED (unrecovered crash, fix-point mismatch, or resync not cheaper than re-propagation)"
        }
    )
}
