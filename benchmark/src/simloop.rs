//! The closed loop of the simulator workloads with inserts
//! (`writers_ring`, `durable_ring`, `join_fanin`): set up, then for every
//! timed session insert a batch of fresh base facts at a rotating node and
//! run one global update session to fix-point; afterwards check the final
//! global database against the centralized oracle.
//!
//! `durable_ring` additionally keeps every peer on a `FileBackend` and
//! crashes and restarts a non-root peer before every tenth session, so its
//! difference from `writers_ring` is the `p2p_storage` cost.

use crate::calib::Calibrator;
use crate::cluster::SimCluster;
use crate::inputs::Scenario;
use crate::pass::{stats_delta, traces_session, Pass, SetupSplit};
use crate::stats::ms_since;
use crate::traced::{self, Host};
use crate::{trace, OutDir};
use p2p_core::error::{CoreError, CoreResult};
use p2p_core::stats::PeerStats;
use p2p_net::Codec;
use p2p_relational::Database;
use p2p_storage::{FileBackend, PeerStorage};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What varies between the loop's workloads.
#[derive(Clone, Copy)]
pub struct LoopSpec {
    /// Generates the scenario for `seed` with this many batches.
    pub scenario: fn(u64, usize) -> CoreResult<Scenario>,
    /// Untimed sessions after each build (part of `setup_s`).
    pub warmup: usize,
    /// Timed sessions.
    pub sessions: usize,
    /// Set-ups performed (`setup_s` is their median).
    pub setups: usize,
    /// How many of those set-ups (the last ones) are followed by the timed
    /// loop and the correctness gate. Every loop runs the same session
    /// sequence, so their samples pool: a short workload measures over a
    /// longer stretch of host time without changing what a session is.
    pub loops: usize,
    /// File-backed peers plus periodic crash/restart.
    pub durable: bool,
}

/// Sessions between two crash/restart events of a durable run.
const CRASH_EVERY: usize = 10;
/// Sessions whose messages the traced pass captures for the codec replay.
const CAPTURED_SESSIONS: usize = 8;

fn sum_stats<P: Host>(cluster: &SimCluster<P>) -> PeerStats {
    let mut total = PeerStats::default();
    for (_, p) in cluster.peers() {
        total.merge(p.db().stats());
    }
    total
}

/// One set-up: generate, build, host, warm up.
fn set_up<P: Host>(
    spec: &LoopSpec,
    seed: u64,
    state_dir: Option<&Path>,
) -> CoreResult<(Scenario, SimCluster<P>, SetupSplit)> {
    let mut scenario = (spec.scenario)(seed, spec.warmup + spec.sessions)?;
    scenario.builder.config_mut().durability = spec.durable;
    let t = Instant::now();
    let mut cluster = SimCluster::<P>::build(&mut scenario.builder, state_dir)?;
    let split = SetupSplit {
        generate_ms: scenario.generate_ms,
        build_ms: scenario.build_ms,
        build_peers_ms: ms_since(t),
    };
    for (node, tuples) in &scenario.batches[..spec.warmup] {
        cluster.insert(*node, tuples)?;
        if !cluster.session().ok {
            return Err(CoreError::Storage("warm-up session did not close".into()));
        }
    }
    Ok((scenario, cluster, split))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Reopens one peer's state directory and recovers its database, the way a
/// restarted process would.
pub fn recover_dir(node: u32, dir: &Path) -> CoreResult<Option<Database>> {
    let storage = |e: p2p_storage::StorageError| CoreError::Storage(e.to_string());
    let backend = FileBackend::open(dir).map_err(storage)?;
    let store = PeerStorage::with_codec(Box::new(backend), 0, Codec::Json);
    Ok(store.recover(node).map_err(storage)?.map(|r| r.db))
}

fn same_facts(a: &Database, b: &Database) -> bool {
    let (mut a, mut b) = (a.all_facts(), b.all_facts());
    a.sort();
    b.sort();
    a == b
}

/// Runs the timed loop on one set-up and the correctness gate after it.
fn timed_loop<P: Host>(
    spec: &LoopSpec,
    scenario: &Scenario,
    cluster: &mut SimCluster<P>,
    state: Option<&Path>,
    cal: &mut Calibrator,
    pass: &mut Pass,
) -> CoreResult<bool> {
    let stats0 = sum_stats(cluster);
    let shared0 = cluster.net_stats().shared_payload_sends;
    // Set-up and warm-up wrote too; count the timed loop's bytes only.
    let _ = traced::take_storage_bytes();
    let capture_every = (spec.sessions / CAPTURED_SESSIONS).max(2) & !1;
    let mut correct = true;
    for (k, (node, tuples)) in scenario.batches[spec.warmup..].iter().enumerate() {
        if spec.durable && k > 0 && k % CRASH_EVERY == 0 {
            let victim = scenario.crash_order[k / CRASH_EVERY];
            if P::TRACED {
                trace::enable();
            }
            let ((_, ok), _, norm_ms) = cal.measure(|| cluster.crash_and_recover(victim));
            trace::disable_if(P::TRACED);
            pass.recovery_ms.push(norm_ms);
            // A recovery that errors or never settles fails the run.
            correct &= ok;
        }
        if P::TRACED && k + 1 == spec.sessions {
            pass.layers.marks = cluster
                .peers()
                .map(|(id, p)| (*id, p.db().database().watermarks()))
                .collect();
        }
        let traced_now = P::TRACED && traces_session(k, spec.sessions);
        if traced_now {
            trace::enable();
        }
        // Capture on traced sessions only (an even stride from the last
        // one), so the untraced neighbours stay a clean baseline.
        if traced_now && (spec.sessions - 1 - k).is_multiple_of(capture_every) {
            traced::set_capturing(true);
            pass.layers.captured_sessions += 1;
        }
        let (outcome, raw_ms, norm_ms) = cal.measure(|| {
            cluster.insert(*node, tuples)?;
            Ok::<_, CoreError>(cluster.session())
        });
        trace::disable_if(traced_now);
        traced::set_capturing(false);
        let outcome = outcome?;
        pass.raw_wall_s += raw_ms / 1e3;
        pass.timed_wall_s += norm_ms / 1e3;
        if traced_now {
            pass.traced_wall_s += raw_ms / 1e3;
        }
        // The session's share of the cycle, at the cycle's speed factor.
        pass.record(outcome, outcome.ms * norm_ms / raw_ms, traced_now);
    }
    pass.layers.storage_bytes = traced::take_storage_bytes();
    pass.peer_stats
        .merge(&stats_delta(&sum_stats(cluster), &stats0));
    pass.shared_payload_sends += cluster.net_stats().shared_payload_sends - shared0;

    // Correctness gate: the distributed fix-point equals the centralized
    // one over the base data plus every insert …
    let live = cluster.snapshot();
    correct &= live.equivalent(&cluster.oracle()?);
    // … and, for durable peers, every acknowledged write survives: what a
    // restarted process would recover from disk equals the live database.
    pass.layers.state_dirs.clear();
    pass.stored_bytes = 0;
    if let Some(dir) = state {
        for (id, db) in &live.0 {
            let node_dir = dir.join(format!("node-{}", id.0));
            pass.stored_bytes += dir_bytes(&node_dir);
            correct &= recover_dir(id.0, &node_dir)?.is_some_and(|r| same_facts(&r, db));
            pass.layers.state_dirs.push((id.0, node_dir));
        }
        pass.user_bytes = scenario.user_bytes;
    }
    pass.layers.dbs = live.0;
    if P::TRACED {
        pass.layers.session_table_len = cluster
            .peers()
            .map(|(_, p)| p.db().session_table_len() as u64)
            .sum();
        pass.layers.rules = cluster.rules().clone();
    }
    Ok(correct)
}

/// Runs one pass (timed on `DbPeer`, traced on `TracedPeer`).
pub fn run_pass<P: Host>(spec: &LoopSpec, seed: u64, out: &OutDir) -> CoreResult<Pass> {
    let mut pass = Pass {
        shards: 1,
        ..Pass::default()
    };
    let mut cal = Calibrator::new();
    let setups = spec.setups.max(spec.loops).max(1);
    let mut correct = true;
    for i in 0..setups {
        // State directories live until the run ends (`OutDir`): the replays
        // read the last one, and the discarded set-ups' are a few kilobytes.
        let state: Option<PathBuf> = spec.durable.then(|| out.scratch("state")).transpose()?;
        let (built, _, norm_ms) = cal.measure(|| set_up::<P>(spec, seed, state.as_deref()));
        let (scenario, mut cluster, split) = built?;
        pass.setup_s.push(norm_ms / 1e3);
        pass.split = split;
        pass.input_digest = scenario.digest;
        if i + spec.loops.max(1) >= setups {
            correct &= timed_loop(
                spec,
                &scenario,
                &mut cluster,
                state.as_deref(),
                &mut cal,
                &mut pass,
            )?;
        }
    }
    pass.speed_factor = cal.median_factor();
    if !correct {
        pass.fail_all();
    }
    if P::TRACED {
        pass.layers.captured = traced::take_captured();
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{join_scenario, ring_scenario, JoinSize, RingSize};
    use crate::traced::TracedPeer;
    use p2p_core::peer::DbPeer;

    fn small_ring(seed: u64, sessions: usize) -> CoreResult<Scenario> {
        let size = RingSize {
            nodes: 4,
            records: 8,
            batch: 2,
        };
        ring_scenario(seed, size, sessions)
    }

    fn small_join(seed: u64, sessions: usize) -> CoreResult<Scenario> {
        let size = JoinSize {
            body_nodes: 2,
            rows: 300,
            batch: 5,
        };
        join_scenario(seed, size, sessions)
    }

    fn spec(scenario: fn(u64, usize) -> CoreResult<Scenario>, durable: bool) -> LoopSpec {
        LoopSpec {
            scenario,
            warmup: 1,
            sessions: 12,
            setups: 2,
            loops: 1,
            durable,
        }
    }

    /// `TracedPeer` and `TimedBackend` change nothing the program can see:
    /// same final databases, same message and byte counts, on a durable run
    /// with a crash in it — while really recording spans.
    #[test]
    fn wrappers_are_pure_pass_throughs() {
        let _serial = crate::TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let out = crate::OutDir::new();
        let spec = spec(small_ring, true);
        let bare = run_pass::<DbPeer>(&spec, 5, &out).unwrap();
        let _ = trace::collect();
        let wrapped = run_pass::<TracedPeer>(&spec, 5, &out).unwrap();
        let spans = trace::collect();

        assert!(bare.correct() && wrapped.correct());
        assert_eq!(bare.recovery_ms.len(), 1, "one crash before session 10");
        assert_eq!(bare.messages, wrapped.messages);
        assert_eq!(bare.wire_bytes, wrapped.wire_bytes);
        assert_eq!(bare.stored_bytes, wrapped.stored_bytes);
        assert_eq!(bare.layers.dbs.len(), wrapped.layers.dbs.len());
        for (id, db) in &bare.layers.dbs {
            assert!(same_facts(db, &wrapped.layers.dbs[id]), "node {id} differs");
        }
        assert_eq!(spans.count("session"), 6, "every other session is traced");
        assert_eq!(
            wrapped.session_traced.iter().filter(|t| **t).count(),
            6,
            "and the last one is among them"
        );
        assert!(wrapped.session_traced[11]);
        assert!(spans.count("Answer") > 0 && spans.count("wal_append") > 0);
        assert_eq!(spans.count("restart"), 1);
        assert!(!wrapped.layers.captured.is_empty());
        // On the simulator the spans account for the whole timed loop.
        let covered: u64 =
            spans.aggs.values().map(|a| a.self_ns).sum::<u64>() - spans.aggs["recovery"].total_ns;
        let wall_ns = wrapped.traced_wall_s * 1e9;
        assert!(
            (covered as f64) <= wall_ns && covered as f64 > 0.8 * wall_ns,
            "spans cover {covered} ns of {wall_ns} ns"
        );
    }

    /// `--seed` decides the inputs, and on the simulator the inputs decide
    /// every count exactly.
    #[test]
    fn same_seed_same_inputs_and_counts_other_seed_differs() {
        let _serial = crate::TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let out = crate::OutDir::new();
        for scenario in [small_ring, small_join] {
            let spec = spec(scenario, false);
            let a = run_pass::<DbPeer>(&spec, 11, &out).unwrap();
            let b = run_pass::<DbPeer>(&spec, 11, &out).unwrap();
            let c = run_pass::<DbPeer>(&spec, 12, &out).unwrap();
            assert!(a.correct() && b.correct() && c.correct());
            assert_eq!(a.input_digest, b.input_digest);
            assert_eq!((a.messages, a.wire_bytes), (b.messages, b.wire_bytes));
            assert_eq!(a.peer_stats.rows_shipped, b.peer_stats.rows_shipped);
            assert_ne!(a.input_digest, c.input_digest);
            assert_ne!(a.wire_bytes, c.wire_bytes);
        }
    }

    /// The gate is not decorative: a final state that differs from the
    /// oracle fails every session of the run.
    #[test]
    fn failed_gate_fails_every_session() {
        let mut pass = Pass::default();
        for _ in 0..3 {
            let ok = crate::cluster::SessionOutcome {
                ms: 1.0,
                messages: 1,
                bytes: 1,
                ok: true,
            };
            pass.record(ok, 1.0, false);
        }
        assert!(pass.correct());
        pass.fail_all();
        assert!(!pass.correct());
        assert_eq!((pass.attempted, pass.failed), (3, 3));
        assert!(
            pass.session_ms.is_empty(),
            "failed sessions carry no latency"
        );
    }
}
