//! E17 — concurrent update sessions: interleaved initiators vs serial runs.

use super::Scale;
use crate::table::Table;
use p2p_topology::Topology;
use p2p_workload::{concurrent_scenario, ConcurrentConfig, Distribution, WorkloadConfig};

/// Summary of the concurrent-sessions experiment; [`ConcurrentSummary::ok`]
/// is the acceptance bar the report prints as "concurrent smoke".
#[derive(Debug, Clone)]
pub struct ConcurrentSummary {
    /// Number of interleaved sessions (writer roots).
    pub sessions: usize,
    /// Virtual time of the single interleaved run (all sessions overlap).
    pub concurrent_time_ms: f64,
    /// Virtual time of running the same sessions serially, back to back.
    pub serial_time_ms: f64,
    /// Sessions per virtual second in the interleaved run.
    pub sessions_per_s: f64,
    /// Per-session attributed deliveries in the interleaved run, in root
    /// order (from the transport layer's session-tagged counters).
    pub messages_per_session: Vec<u64>,
    /// Peak simultaneously-open sessions observed at any peer.
    pub concurrent_peak: u64,
    /// Live session-table entries left anywhere after quiescence (the
    /// retirement invariant: must be 0).
    pub leaked_entries: usize,
    /// Every session closed at every peer in both runs.
    pub all_closed: bool,
    /// Interleaved final DB == serial final DB == fix-point oracle (modulo
    /// null renaming).
    pub identical: bool,
}

impl ConcurrentSummary {
    /// The acceptance bar: identical fix-points, full closure, no leaked
    /// session state, real concurrency observed, and the interleaved run
    /// strictly faster than running the sessions serially.
    pub fn ok(&self) -> bool {
        self.identical
            && self.all_closed
            && self.leaked_entries == 0
            && self.concurrent_peak >= 2
            && self.concurrent_time_ms < self.serial_time_ms
    }
}

/// E17: concurrent update sessions on ring(8), with four writers spread
/// around the ring, each with a fresh batch of records to share. The
/// writer-rooted global sessions run (a) serially — insert a writer's fresh
/// records, run its session to the fix-point, repeat — and (b) interleaved
/// in one simulator run. The interleaved run must reach a final global
/// database tuple-identical (modulo null renaming) to the serial one and to
/// the centralized oracle, retire every session's state, and finish in less
/// virtual time than the serial back-to-back execution.
pub fn e17_concurrent(scale: Scale) -> (Table, ConcurrentSummary) {
    let cfg = ConcurrentConfig {
        base: WorkloadConfig {
            topology: Topology::Ring { n: 8 },
            records_per_node: scale.records(),
            distribution: Distribution::Disjoint,
            seed: 7,
        },
        writers: 4,
        records_per_writer: (scale.records() / 4).max(5),
    };

    // -- serial baseline ---------------------------------------------------
    let scenario = concurrent_scenario(&cfg).expect("scenario");
    let mut serial = scenario.builder.build().expect("system builds");
    let mut serial_closed = true;
    for d in &scenario.deltas {
        for (rel, vals) in &d.tuples {
            serial
                .insert(d.node, rel, vals.clone())
                .expect("writer delta");
        }
        serial_closed &= serial.run_update_from(d.node).all_closed;
    }
    let serial_time_ms = serial.net_stats().finished_at.as_millis_f64();

    // -- interleaved run: every writer's delta first, then all sessions ----
    let scenario = concurrent_scenario(&cfg).expect("scenario");
    let roots = scenario.roots();
    let mut sys = scenario.builder.build().expect("system builds");
    for d in &scenario.deltas {
        for (rel, vals) in &d.tuples {
            sys.insert(d.node, rel, vals.clone()).expect("writer delta");
        }
    }
    let reports = sys.run_updates(&roots);
    let concurrent_time_ms = reports[0].outcome.virtual_time.as_millis_f64();
    let all_closed = serial_closed && reports.iter().all(|r| r.all_closed);
    let leaked_entries: usize = sys.peers().map(|(_, p)| p.session_table_len()).sum();
    let concurrent_peak = sys
        .peers()
        .map(|(_, p)| p.stats().concurrent_peak)
        .max()
        .unwrap_or(0);

    let oracle = sys.oracle().expect("oracle");
    let identical =
        sys.snapshot().equivalent(&serial.snapshot()) && sys.snapshot().equivalent(&oracle);

    let mut table = Table::new(&["session", "root", "messages", "bytes", "closed", "rounds"]);
    for r in &reports {
        table.row(vec![
            r.session.to_string(),
            r.session.root.to_string(),
            r.session_messages.to_string(),
            r.session_bytes.to_string(),
            r.all_closed.to_string(),
            r.rounds.to_string(),
        ]);
    }

    let summary = ConcurrentSummary {
        sessions: reports.len(),
        concurrent_time_ms,
        serial_time_ms,
        sessions_per_s: reports.len() as f64 / (concurrent_time_ms / 1_000.0).max(1e-9),
        messages_per_session: reports.iter().map(|r| r.session_messages).collect(),
        concurrent_peak,
        leaked_entries,
        all_closed,
        identical,
    };
    (table, summary)
}

pub(super) fn report(scale: Scale) -> String {
    let (table, summary) = e17_concurrent(scale);
    format!(
        "\n{}\nring(8), {} writer sessions: interleaved {:.2} ms vs serial {:.2} ms ({:.2}x), \
         {:.1} sessions/s, peak {} concurrent, {} leaked entries\nconcurrent smoke: {}\n\n",
        table.render(),
        summary.sessions,
        summary.concurrent_time_ms,
        summary.serial_time_ms,
        summary.serial_time_ms / summary.concurrent_time_ms.max(1e-9),
        summary.sessions_per_s,
        summary.concurrent_peak,
        summary.leaked_entries,
        if summary.ok() {
            "OK"
        } else {
            "FAILED (fix-point mismatch, unclosed session, leaked session state, \
             or no interleaving speedup)"
        }
    )
}
