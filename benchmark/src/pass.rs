//! What one pass over a workload produces. The timed pass fills the
//! end-to-end part; the traced pass additionally leaves what the per-layer
//! replays need ([`LayerInputs`]).

use crate::cluster::SessionOutcome;
use p2p_core::stats::PeerStats;
use p2p_core::{ProtocolMsg, RuleSet};
use p2p_relational::Database;
use p2p_topology::NodeId;
use p2p_transport::TransportStats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Per-relation insertion watermarks of one database.
pub type Marks = BTreeMap<Arc<str>, usize>;

/// Wall-clock split of one set-up, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// `Topology::generate` (and input generation in general).
    pub generate_ms: f64,
    /// Workload assembly into a `P2PSystemBuilder`.
    pub build_ms: f64,
    /// `P2PSystemBuilder::build_peers` plus hosting the peers.
    pub build_peers_ms: f64,
}

/// Inputs of the per-layer replays, gathered by the traced pass only.
#[derive(Default)]
pub struct LayerInputs {
    /// Final databases (the relational replay evaluates rule bodies here).
    pub dbs: BTreeMap<NodeId, Database>,
    /// Watermarks of those databases before the last timed session.
    pub marks: BTreeMap<NodeId, Marks>,
    /// The rules.
    pub rules: RuleSet,
    /// Messages captured by the wrapper during the sampled sessions.
    pub captured: Vec<ProtocolMsg>,
    /// How many sessions were sampled.
    pub captured_sessions: u64,
    /// Durable peers' state directories (`node id`, directory).
    pub state_dirs: Vec<(u32, PathBuf)>,
    /// Live session-table entries summed over peers after the last session.
    pub session_table_len: u64,
    /// Bytes handed to the WAL and to snapshots during the timed loop.
    pub storage_bytes: (u64, u64),
}

/// The outcome of one pass.
#[derive(Default)]
pub struct Pass {
    /// Time of each set-up performed, seconds at reference host speed.
    pub setup_s: Vec<f64>,
    /// Split of the last set-up.
    pub split: SetupSplit,
    /// Time of each timed session that closed, milliseconds at reference
    /// host speed ([`crate::calib`]).
    pub session_ms: Vec<f64>,
    /// The same sessions' raw wall times, milliseconds.
    pub raw_session_ms: Vec<f64>,
    /// Time of the timed loop (sessions and the inserts before them;
    /// set-up, warm-up and crash recovery excluded), seconds at reference
    /// host speed.
    pub timed_wall_s: f64,
    /// The timed loop's raw wall time, seconds.
    pub raw_wall_s: f64,
    /// Whether each of those sessions ran with the tracer on. The traced
    /// pass records every other session, so that each traced session has
    /// two untraced neighbours a few milliseconds away to be compared with.
    pub session_traced: Vec<bool>,
    /// Raw wall time of the traced sessions' cycles, seconds.
    pub traced_wall_s: f64,
    /// Timed sessions attempted.
    pub attempted: u64,
    /// Timed sessions that did not close, errored or panicked. A failed
    /// correctness gate fails every attempted session.
    pub failed: u64,
    /// Bytes delivered during timed sessions.
    pub wire_bytes: u64,
    /// Messages delivered during timed sessions.
    pub messages: u64,
    /// Time of each crash → restart → resynced run, milliseconds at
    /// reference host speed.
    pub recovery_ms: Vec<f64>,
    /// WAL plus snapshot bytes on disk at the end (durable only).
    pub stored_bytes: u64,
    /// Encoded bytes of the base plus inserted tuples (durable only).
    pub user_bytes: u64,
    /// Summed protocol counters over the timed loop.
    pub peer_stats: PeerStats,
    /// `NetStats::shared_payload_sends` over the timed loop.
    pub shared_payload_sends: u64,
    /// `NetStats::cross_shard_sends` over the timed loop.
    pub cross_shard_sends: u64,
    /// Summed socket counters over the timed loop (`tcp_ring`).
    pub transport: TransportStats,
    /// Shard threads the runtime used (1 on the simulator).
    pub shards: usize,
    /// Fingerprint of the generated inputs.
    pub input_digest: u64,
    /// Median host-speed factor over the pass (1 = nominal, above = slower).
    pub speed_factor: f64,
    /// Replay inputs (traced pass only).
    pub layers: LayerInputs,
}

impl Pass {
    /// Books one timed session; `norm_ms` is its time at reference speed,
    /// `traced` whether the tracer was on.
    pub fn record(&mut self, outcome: SessionOutcome, norm_ms: f64, traced: bool) {
        self.attempted += 1;
        self.wire_bytes += outcome.bytes;
        self.messages += outcome.messages;
        if outcome.ok {
            self.session_ms.push(norm_ms);
            self.raw_session_ms.push(outcome.ms);
            self.session_traced.push(traced);
        } else {
            self.failed += 1;
        }
    }

    /// Marks the whole run failed: the final state did not pass the
    /// correctness gate, so no session of it counts.
    pub fn fail_all(&mut self) {
        self.failed = self.attempted;
        self.session_ms.clear();
        self.raw_session_ms.clear();
        self.session_traced.clear();
    }

    /// Whether every session closed and the correctness gate held.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Whether timed session `k` of a traced pass records spans: every other
/// one, ending on a traced last session (whose databases the replays use).
pub fn traces_session(k: usize, sessions: usize) -> bool {
    (sessions - 1 - k).is_multiple_of(2)
}

/// Difference of two cumulative counter sets (`after − before`), for the
/// fields the per-layer metrics read.
pub fn stats_delta(after: &PeerStats, before: &PeerStats) -> PeerStats {
    PeerStats {
        rows_shipped: after.rows_shipped - before.rows_shipped,
        tuples_inserted: after.tuples_inserted - before.tuples_inserted,
        rows_scanned: after.rows_scanned - before.rows_scanned,
        index_probes: after.index_probes - before.index_probes,
        plan_cache_hits: after.plan_cache_hits - before.plan_cache_hits,
        local_evaluations: after.local_evaluations - before.local_evaluations,
        ..PeerStats::default()
    }
}
