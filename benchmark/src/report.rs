//! Turns passes, spans and replays into the named metrics of
//! `BENCHMARK.json`, and into the one-line JSON result the driver reads.

use crate::layers::{CodecReplay, EchoReplay, RelationalReplay, StorageReplay};
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::pass::Pass;
use crate::stats::{median, peak_rss_mb, percentile, tail_percentile};
use crate::tcp::TcpExtras;
use crate::trace::Collected;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    /// The number as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultLine {
    /// Every session closed and the correctness gate held.
    pub correct: bool,
    /// Timed sessions attempted.
    pub attempted: u64,
    /// Timed sessions failed (`failed / attempted` is the failed share).
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl ResultLine {
    /// Wraps named values with the units the manifest declares, and checks
    /// that exactly the declared metrics are present.
    pub fn new(
        attempted: u64,
        failed: u64,
        values: BTreeMap<&'static str, f64>,
        traced: bool,
    ) -> Self {
        let declared: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
        } else {
            END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
        };
        assert_eq!(declared.len(), values.len(), "undeclared metric reported");
        let metrics = declared
            .into_iter()
            .map(|(name, unit)| {
                let value = MetricValue {
                    value: *values
                        .get(name)
                        .unwrap_or_else(|| panic!("declared metric {name} not reported")),
                    unit: unit.to_string(),
                };
                (name.to_string(), value)
            })
            .collect();
        ResultLine {
            correct: attempted > 0 && failed == 0,
            attempted,
            failed,
            metrics,
        }
    }
}

/// The end-to-end metrics of a timed pass.
pub fn end_to_end(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let closed = pass.session_ms.len() as f64;
    let attempted = pass.attempted.max(1) as f64;
    BTreeMap::from([
        ("setup_s", median(&pass.setup_s)),
        ("session_ms_p50", median(&pass.session_ms)),
        ("sessions_per_s", closed / pass.timed_wall_s),
        ("wire_bytes_per_session", pass.wire_bytes as f64 / attempted),
        ("messages_per_session", pass.messages as f64 / attempted),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// Everything the traced run gathered for one workload.
pub struct Traced<'a> {
    /// The untraced reference pass (same process, same inputs).
    pub reference: &'a Pass,
    /// The pass with the wrappers on.
    pub traced: &'a Pass,
    /// The spans of the traced pass.
    pub spans: &'a Collected,
    /// Relational replay.
    pub relational: RelationalReplay,
    /// Codec replay.
    pub codec: CodecReplay,
    /// Transport echo replay (`tcp_ring`).
    pub echo: EchoReplay,
    /// Storage recovery replay (`durable_ring`).
    pub storage: StorageReplay,
    /// Live-cluster reads (`tcp_ring`).
    pub tcp: TcpExtras,
    /// `flood_sharded` at one shard, milliseconds per session.
    pub shards1_session_ms: f64,
}

const STORAGE_SPANS: [&str; 4] = ["wal_append", "snapshot", "wal_read", "snapshot_read"];
const DRIVER_SPANS: [&str; 5] = ["session", "insert", "recovery", "crash", "restart"];

fn is_handler(name: &str) -> bool {
    !STORAGE_SPANS.contains(&name) && !DRIVER_SPANS.contains(&name)
}

fn pct_or_zero(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, p)
    }
}

/// The per-layer metrics of a traced run. Times are mean milliseconds per
/// timed session unless the name says otherwise.
pub fn per_layer(t: &Traced) -> BTreeMap<&'static str, f64> {
    let spans = t.spans;
    // Span sums divide by the sessions that recorded spans (every other
    // one); counters kept by the program itself cover every session.
    let n = spans.count("session").max(1) as f64;
    let all = t.traced.attempted.max(1) as f64;
    let reference_n = t.reference.attempted.max(1) as f64;
    let stats = &t.traced.peer_stats;
    // Handlers run inside session spans and, on durable runs, inside the
    // crash → restart → resync runs.
    let session_ms = spans.total_ms("session") + spans.total_ms("recovery");
    let handler_ms: f64 = spans
        .aggs
        .iter()
        .filter(|(name, _)| is_handler(name))
        .map(|(_, a)| a.total_ns as f64 / 1e6)
        .sum();
    let handler_calls: u64 = spans
        .aggs
        .iter()
        .filter(|(name, _)| is_handler(name))
        .map(|(_, a)| a.count)
        .sum();
    let handler_us = spans.durations_us(is_handler);
    let append_us = spans.durations_us(|n| n == "wal_append");
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    // Whether handler spans nest inside their session span on one thread.
    let single_threaded = t.traced.shards == 1;

    // Scheduler self time: the session spans minus the handler spans inside
    // them. Holds only where handlers run inside the session span's thread.
    let sched_self_ms = if single_threaded {
        spans.self_ms("session")
    } else {
        0.0
    };
    let all_self_ms: f64 = spans.aggs.values().map(|a| a.self_ns as f64 / 1e6).sum();
    let coverage = if single_threaded {
        share(
            all_self_ms - spans.total_ms("recovery"),
            t.traced.traced_wall_s * 1e3,
        )
    } else {
        0.0
    };

    let captured = t.traced.layers.captured_sessions.max(1) as f64;
    let codec = &t.codec;
    let msgs = codec.messages.max(1) as f64;
    // Tracing overhead: each traced session against the mean of its two
    // untraced neighbours, right before and after it in the same pass, all
    // at reference host speed. (Comparing two whole passes instead drowns a
    // few percent of overhead in ±10 % of host drift.)
    let raw = &t.traced.session_ms;
    let on = &t.traced.session_traced;
    let ratios: Vec<f64> = (1..raw.len().saturating_sub(1))
        .filter(|&i| on[i] && !on[i - 1] && !on[i + 1])
        .map(|i| raw[i] / ((raw[i - 1] + raw[i + 1]) / 2.0))
        .collect();
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    };
    let tail_ready = tail_percentile(t.reference.session_ms.len()).is_some_and(|p| p >= 95.0);

    BTreeMap::from([
        ("relational.compile_ms", t.relational.compile_ms),
        ("relational.eval_full_ms", t.relational.eval_full_ms),
        ("relational.eval_delta_ms", t.relational.eval_delta_ms),
        ("relational.rows_scanned", stats.rows_scanned as f64 / all),
        ("relational.index_probes", stats.index_probes as f64 / all),
        (
            "relational.rows_scanned_per_result",
            t.relational.rows_scanned_per_result,
        ),
        (
            "relational.plan_cache_hit_share",
            share(stats.plan_cache_hits as f64, stats.local_evaluations as f64),
        ),
        ("peer.calls", handler_calls as f64 / n),
        ("peer.handler_busy_ms", handler_ms / n),
        ("peer.handler_busy_share", share(handler_ms, session_ms)),
        ("peer.query_ms", spans.total_ms("Query") / n),
        ("peer.answer_ms", spans.total_ms("Answer") / n),
        ("peer.ack_ms", spans.total_ms("Ack") / n),
        ("peer.flood_ms", spans.total_ms("UpdateFlood") / n),
        ("peer.fixpoint_ms", spans.total_ms("Fixpoint") / n),
        ("peer.handler_us_p50", pct_or_zero(&handler_us, 50.0)),
        ("peer.handler_us_p99", pct_or_zero(&handler_us, 99.0)),
        (
            "peer.rows_shipped_per_session",
            stats.rows_shipped as f64 / all,
        ),
        (
            "peer.useful_row_share",
            share(stats.tuples_inserted as f64, stats.rows_shipped as f64),
        ),
        (
            "peer.session_table_leak",
            t.traced.layers.session_table_len as f64,
        ),
        ("net.messages", t.traced.messages as f64 / all),
        ("net.bytes", t.traced.wire_bytes as f64 / all),
        ("net.sched_self_ms", sched_self_ms / n),
        (
            "net.sched_us_per_msg",
            share(sched_self_ms * 1e3 / n, t.traced.messages as f64 / all),
        ),
        (
            "net.busy_share",
            share(handler_ms, t.traced.shards as f64 * session_ms),
        ),
        (
            "net.cross_shard_sends",
            t.traced.cross_shard_sends as f64 / all,
        ),
        (
            "net.shared_payload_sends",
            t.traced.shared_payload_sends as f64 / all,
        ),
        ("net.shards1_session_ms", t.shards1_session_ms),
        ("codec.binary.encode_ms", codec.binary_encode_ms / captured),
        ("codec.binary.decode_ms", codec.binary_decode_ms / captured),
        ("codec.json.encode_ms", codec.json_encode_ms / captured),
        ("codec.json.decode_ms", codec.json_decode_ms / captured),
        ("codec.measure_ms", codec.measure_ms / captured),
        (
            "codec.binary.bytes_per_msg",
            codec.binary_bytes as f64 / msgs,
        ),
        ("codec.json.bytes_per_msg", codec.json_bytes as f64 / msgs),
        (
            "codec.shrink",
            share(codec.json_bytes as f64, codec.binary_bytes as f64),
        ),
        (
            "transport.frames_per_session",
            t.reference.transport.frames_sent as f64 / reference_n,
        ),
        (
            "transport.bytes_per_session",
            t.reference.transport.bytes_sent as f64 / reference_n,
        ),
        ("transport.connects", t.reference.transport.connects as f64),
        (
            "transport.reconnects",
            t.reference.transport.reconnects as f64,
        ),
        (
            "transport.frame_rtt_us_p50",
            pct_or_zero(&t.echo.rtts_us, 50.0),
        ),
        (
            "transport.frame_rtt_us_p99",
            pct_or_zero(&t.echo.rtts_us, 99.0),
        ),
        ("transport.mb_per_s", t.echo.mb_per_s),
        (
            "transport.control_rtt_us_p50",
            pct_or_zero(&t.tcp.ping_rtts_us, 50.0),
        ),
        ("transport.first_session_ms", t.tcp.first_session_ms),
        ("storage.wal_appends", spans.count("wal_append") as f64 / n),
        (
            "storage.wal_bytes",
            t.traced.layers.storage_bytes.0 as f64 / all,
        ),
        ("storage.wal_append_ms", spans.total_ms("wal_append") / n),
        ("storage.wal_append_us_p50", pct_or_zero(&append_us, 50.0)),
        ("storage.wal_append_us_p99", pct_or_zero(&append_us, 99.0)),
        ("storage.snapshots", spans.count("snapshot") as f64 / n),
        ("storage.snapshot_ms", spans.total_ms("snapshot") / n),
        (
            "storage.snapshot_bytes",
            t.traced.layers.storage_bytes.1 as f64 / all,
        ),
        (
            "storage.recover_ms_p50",
            pct_or_zero(&t.storage.recover_ms, 50.0),
        ),
        (
            "storage.frames_replayed_per_recover",
            t.storage.frames_per_recover,
        ),
        (
            "storage.recovery_ms_p50",
            pct_or_zero(&t.reference.recovery_ms, 50.0),
        ),
        (
            "storage.stored_bytes_per_user_byte",
            share(
                t.reference.stored_bytes as f64,
                t.reference.user_bytes as f64,
            ),
        ),
        ("topology.generate_ms", t.reference.split.generate_ms),
        ("workload.build_ms", t.reference.split.build_ms),
        ("core.build_peers_ms", t.reference.split.build_peers_ms),
        (
            "session.ms_p95",
            if tail_ready {
                percentile(&t.reference.session_ms, 95.0)
            } else {
                0.0
            },
        ),
        ("session.samples", t.reference.session_ms.len() as f64),
        (
            "session.failed_share",
            share(t.reference.failed as f64, t.reference.attempted as f64),
        ),
        ("trace.overhead_share", overhead),
        ("trace.coverage", coverage),
        ("host.speed_factor", t.reference.speed_factor),
    ])
}
