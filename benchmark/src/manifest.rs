//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is generated
//! from these tables (`--emit-manifest`), and a test holds the committed
//! file to them.

/// Seconds one run measures by default.
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "writers_ring",
        "DBLP ring(8), three schema families, 2 fresh publications before each session: does session cost follow the delta or the growing database (peer Answer handling dominates)",
    ),
    (
        "durable_ring",
        "writers_ring's inputs on FileBackend WALs with a crash/restart every 10th session: its difference from writers_ring is the p2p_storage cost",
    ),
    (
        "join_fanin",
        "4 body nodes each joining three 50k-row relations for one head: p2p_relational does most of the work (Query handling dominates)",
    ),
    (
        "flood_sim",
        "10k-peer degree-4 expander of single-atom copy rules on the simulator: p2p_net scheduling plus the per-message protocol path dominate, the evaluator is overhead",
    ),
    (
        "flood_sharded",
        "flood_sim's inputs on ShardedNetwork with 2 shards: mailboxes, cross-shard hand-off and the quiescence barrier instead of the event heap",
    ),
    (
        "tcp_ring",
        "DBLP ring(6) over loopback TCP with the binary codec: the only workload where messages are really encoded, framed, written and decoded",
    ),
];

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest's spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better, bound)` of every end-to-end metric. Every workload
/// reports every one of them, and none is ever 0.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Lower, 0.25),
    ("session_ms_p50", "ms", Lower, 0.25),
    ("sessions_per_s", "1/s", Higher, 0.25),
    ("wire_bytes_per_session", "B", Lower, 0.20),
    ("messages_per_session", "count", Lower, 0.02),
    ("peak_rss_mb", "MiB", Lower, 0.25),
];

/// `(name, unit, better)` of every per-layer metric (traced run; no bounds).
/// Prefixes are module names. A metric that does not apply to a workload
/// reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 66] = [
    // p2p_relational, replayed through p2p_core::joins on the final databases
    ("relational.compile_ms", "ms", Lower),
    ("relational.eval_full_ms", "ms", Lower),
    ("relational.eval_delta_ms", "ms", Lower),
    ("relational.rows_scanned", "count", Lower),
    ("relational.index_probes", "count", Lower),
    ("relational.rows_scanned_per_result", "ratio", Lower),
    ("relational.plan_cache_hit_share", "ratio", Higher),
    // p2p_core::peer, one span per on_envelope
    ("peer.calls", "count", Lower),
    ("peer.handler_busy_ms", "ms", Lower),
    ("peer.handler_busy_share", "ratio", Lower),
    ("peer.query_ms", "ms", Lower),
    ("peer.answer_ms", "ms", Lower),
    ("peer.ack_ms", "ms", Lower),
    ("peer.flood_ms", "ms", Lower),
    ("peer.fixpoint_ms", "ms", Lower),
    ("peer.handler_us_p50", "us", Lower),
    ("peer.handler_us_p99", "us", Lower),
    ("peer.rows_shipped_per_session", "count", Lower),
    ("peer.useful_row_share", "ratio", Higher),
    ("peer.session_table_leak", "count", Lower),
    // p2p_net
    ("net.messages", "count", Lower),
    ("net.bytes", "B", Lower),
    ("net.sched_self_ms", "ms", Lower),
    ("net.sched_us_per_msg", "us", Lower),
    ("net.busy_share", "ratio", Higher),
    ("net.cross_shard_sends", "count", Lower),
    ("net.shared_payload_sends", "count", Higher),
    ("net.shards1_session_ms", "ms", Lower),
    // p2p_core::codec / serde_json, replayed over the captured messages
    ("codec.binary.encode_ms", "ms", Lower),
    ("codec.binary.decode_ms", "ms", Lower),
    ("codec.json.encode_ms", "ms", Lower),
    ("codec.json.decode_ms", "ms", Lower),
    ("codec.measure_ms", "ms", Lower),
    ("codec.binary.bytes_per_msg", "B", Lower),
    ("codec.json.bytes_per_msg", "B", Lower),
    ("codec.shrink", "ratio", Higher),
    // p2p_transport
    ("transport.frames_per_session", "count", Lower),
    ("transport.bytes_per_session", "B", Lower),
    ("transport.connects", "count", Lower),
    ("transport.reconnects", "count", Lower),
    ("transport.frame_rtt_us_p50", "us", Lower),
    ("transport.frame_rtt_us_p99", "us", Lower),
    ("transport.mb_per_s", "MB/s", Higher),
    ("transport.control_rtt_us_p50", "us", Lower),
    ("transport.first_session_ms", "ms", Lower),
    // p2p_storage
    ("storage.wal_appends", "count", Lower),
    ("storage.wal_bytes", "B", Lower),
    ("storage.wal_append_ms", "ms", Lower),
    ("storage.wal_append_us_p50", "us", Lower),
    ("storage.wal_append_us_p99", "us", Lower),
    ("storage.snapshots", "count", Lower),
    ("storage.snapshot_ms", "ms", Lower),
    ("storage.snapshot_bytes", "B", Lower),
    ("storage.recover_ms_p50", "ms", Lower),
    ("storage.frames_replayed_per_recover", "count", Lower),
    ("storage.recovery_ms_p50", "ms", Lower),
    ("storage.stored_bytes_per_user_byte", "ratio", Lower),
    // set-up split
    ("topology.generate_ms", "ms", Lower),
    ("workload.build_ms", "ms", Lower),
    ("core.build_peers_ms", "ms", Lower),
    // the session tail and failures, from the untraced reference pass
    ("session.ms_p95", "ms", Lower),
    ("session.samples", "count", Higher),
    ("session.failed_share", "ratio", Lower),
    // trace health and host state
    ("trace.overhead_share", "ratio", Lower),
    ("trace.coverage", "ratio", Higher),
    ("host.speed_factor", "ratio", Lower),
];

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}\n",
            better.name()
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}\n",
            better.name()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `--emit-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        for (name, unit, _, bound) in END_TO_END {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!((0.0..=0.25).contains(&bound), "{name}: bound {bound}");
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
        }
        assert!(END_TO_END
            .iter()
            .any(|(n, u, b, _)| *n == "setup_s" && *u == "s" && *b == Lower));
        assert!(PER_LAYER.len() <= 128 && manifest_json().len() <= 64 * 1024);
    }
}
