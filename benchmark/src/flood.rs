//! `flood_sim` and `flood_sharded`: the `p2p_workload::scale` scenario (one
//! single-atom copy rule per edge) on a 10 000-peer degree-4 expander, where
//! runtime scheduling and the per-message protocol path dominate. Every
//! session gets a fresh system, because a second session on a converged one
//! would ship nothing; the build is counted in `setup_s`.
//!
//! `flood_sim` runs on the simulator, `flood_sharded` on `ShardedNetwork`
//! with round-robin placement. Correctness is the closed form
//! `(nodes + edges) × records`.

use crate::calib::Calibrator;
use crate::cluster::SessionOutcome;
use crate::inputs::{flood_inputs, FloodInputs};
use crate::pass::{traces_session, Pass, SetupSplit};
use crate::stats::ms_since;
use crate::trace;
use crate::traced::{self, Host};
use p2p_core::error::{CoreError, CoreResult};
use p2p_core::{ProtocolMsg, SystemConfig};
use p2p_net::{ConstantLatency, NetStats, SessionId, ShardPlacement, ShardedNetwork};
use p2p_net::{SimTime, Simulator};
use p2p_topology::NodeId;
use p2p_workload::scale_system;
use std::time::Instant;

/// Sizes of one flood run.
#[derive(Debug, Clone, Copy)]
pub struct FloodSpec {
    /// Peers of the expander.
    pub peers: usize,
    /// Expander degree.
    pub degree: usize,
    /// `item` tuples per node.
    pub records: usize,
    /// Untimed sessions first (their builds count as set-ups).
    pub warmup: usize,
    /// Timed sessions.
    pub sessions: usize,
    /// Shard threads; 0 runs on the simulator.
    pub shards: usize,
}

type Peers<P> = Vec<(NodeId, P)>;

/// Runs one session over freshly built peers on the chosen runtime and hands
/// the peers back. `Err` carries a shard panic.
fn run_session<P: Host>(
    peers: Peers<P>,
    config: &SystemConfig,
    shards: usize,
    sid: SessionId,
) -> CoreResult<(Peers<P>, f64, NetStats, bool)> {
    let start = (
        sid.root,
        sid.root,
        ProtocolMsg::StartUpdate { session: sid },
    );
    if shards == 0 {
        let mut sim = Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(1))));
        sim.set_max_events(config.effective_max_events(peers.len()));
        sim.set_codec(config.codec);
        for (id, peer) in peers {
            sim.add_peer(id, peer);
        }
        let started = Instant::now();
        let outcome = {
            let _span = trace::root_span("session", sid.epoch);
            sim.inject(start.0, start.1, start.2);
            sim.run()
        };
        let ms = ms_since(started);
        let stats = sim.stats().clone();
        Ok((sim.into_peers(), ms, stats, outcome.quiescent))
    } else {
        let mut net = ShardedNetwork::new();
        net.set_codec(config.codec);
        net.set_shards(shards);
        net.set_placement(ShardPlacement::RoundRobin);
        for (id, peer) in peers {
            net.add_peer(id, peer);
        }
        let started = Instant::now();
        let run = {
            let _span = trace::root_span("session", sid.epoch);
            net.run(vec![start])
        };
        let ms = ms_since(started);
        let (peers, stats) = run.map_err(|p| CoreError::PeerPanicked {
            node: p.node,
            detail: p.payload,
        })?;
        Ok((peers, ms, stats, true))
    }
}

/// What one session on a fresh system left behind.
struct Settled<P> {
    peers: Peers<P>,
    outcome: SessionOutcome,
    /// The session's time at reference host speed, milliseconds.
    norm_ms: f64,
    stats: NetStats,
    /// Tuples the network ended with (the closed form's left-hand side).
    tuples: usize,
}

/// Builds a fresh system (booked as one set-up) and runs one session on it.
fn fresh_session<P: Host>(
    inputs: &FloodInputs,
    shards: usize,
    epoch: u64,
    cal: &mut Calibrator,
    pass: &mut Pass,
) -> CoreResult<Settled<P>> {
    let (built, _, setup_ms) = cal.measure(|| {
        let t = Instant::now();
        let mut builder = scale_system(&inputs.config)?;
        let build_ms = ms_since(t);
        let t = Instant::now();
        let peers: Peers<P> = builder
            .build_peers()?
            .into_iter()
            .map(|(id, p)| (id, P::host(p)))
            .collect();
        let build_peers_ms = ms_since(t);
        Ok::<_, CoreError>((builder, peers, build_ms, build_peers_ms))
    });
    let (mut builder, peers, build_ms, build_peers_ms) = built?;
    pass.setup_s.push(setup_ms / 1e3);
    pass.split.build_ms = build_ms;
    pass.split.build_peers_ms = build_peers_ms;
    if P::TRACED && pass.layers.rules.is_empty() {
        pass.layers.rules = builder.rules().clone();
    }

    let config = *builder.config_mut();
    let sid = SessionId::new(peers.first().map_or(NodeId(0), |(id, _)| *id), epoch);
    let (ran, raw_ms, norm_ms) = cal.measure(|| run_session(peers, &config, shards, sid));
    let (peers, ms, stats, quiescent) = ran?;
    let mut ok = quiescent;
    let mut tuples = 0;
    for (_, p) in &peers {
        let p = p.db();
        ok &= p.session_closed(sid) && p.errors().is_empty();
        tuples += p.database().total_tuples();
    }
    let outcome = SessionOutcome {
        ms,
        messages: stats.total_messages,
        bytes: stats.total_bytes,
        ok,
    };
    Ok(Settled {
        peers,
        outcome,
        norm_ms: ms * norm_ms / raw_ms,
        stats,
        tuples,
    })
}

/// Runs one pass (timed on `DbPeer`, traced on `TracedPeer`).
pub fn run_pass<P: Host>(spec: &FloodSpec, seed: u64) -> CoreResult<Pass> {
    let t = Instant::now();
    let inputs = flood_inputs(seed, spec.peers, spec.degree, spec.records);
    run_on::<P>(spec, &inputs, ms_since(t))
}

fn run_on<P: Host>(spec: &FloodSpec, inputs: &FloodInputs, generate_ms: f64) -> CoreResult<Pass> {
    let mut pass = Pass {
        shards: spec.shards.max(1),
        split: SetupSplit {
            generate_ms,
            ..SetupSplit::default()
        },
        input_digest: inputs.digest,
        ..Pass::default()
    };
    let mut cal = Calibrator::new();

    for epoch in 1..=spec.warmup as u64 {
        let warm = fresh_session::<P>(inputs, spec.shards, epoch, &mut cal, &mut pass)?;
        if !warm.outcome.ok {
            return Err(CoreError::Storage("warm-up session did not close".into()));
        }
    }
    let mut all_correct = true;
    for k in 0..spec.sessions {
        let epoch = (spec.warmup + k + 1) as u64;
        let traced_now = P::TRACED && traces_session(k, spec.sessions);
        if traced_now {
            trace::enable();
        }
        // One session's messages are plenty for the codec replay.
        if traced_now && k + 1 == spec.sessions {
            traced::set_capturing(true);
            pass.layers.captured_sessions = 1;
        }
        let ran = fresh_session::<P>(inputs, spec.shards, epoch, &mut cal, &mut pass);
        trace::disable_if(traced_now);
        traced::set_capturing(false);
        let Settled {
            peers,
            outcome,
            norm_ms,
            stats,
            tuples,
        } = match ran {
            Ok(r) => r,
            // A panicked shard fails the session it happened in.
            Err(CoreError::PeerPanicked { .. }) => {
                pass.attempted += 1;
                pass.failed += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        all_correct &= tuples == inputs.expected_tuples;
        pass.raw_wall_s += outcome.ms / 1e3;
        pass.timed_wall_s += norm_ms / 1e3;
        if traced_now {
            pass.traced_wall_s += outcome.ms / 1e3;
        }
        pass.record(outcome, norm_ms, traced_now);
        for (_, p) in &peers {
            pass.peer_stats.merge(p.db().stats());
        }
        pass.shared_payload_sends += stats.shared_payload_sends;
        pass.cross_shard_sends += stats.cross_shard_sends;
        if P::TRACED && k + 1 == spec.sessions {
            for (id, p) in &peers {
                let p = p.db();
                pass.layers.session_table_len += p.session_table_len() as u64;
                // A fresh system held exactly its `item` base data before
                // the session; everything else is what the session derived.
                let marks = p
                    .database()
                    .relations()
                    .map(|(name, rel)| {
                        let base = if &**name == "item" { rel.len() } else { 0 };
                        (name.clone(), base)
                    })
                    .collect();
                pass.layers.marks.insert(*id, marks);
                pass.layers.dbs.insert(*id, p.database().clone());
            }
        }
    }
    pass.speed_factor = cal.median_factor();
    if !all_correct {
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
    use p2p_core::peer::DbPeer;

    fn spec(shards: usize) -> FloodSpec {
        FloodSpec {
            peers: 200,
            degree: 4,
            records: 3,
            warmup: 0,
            sessions: 3,
            shards,
        }
    }

    #[test]
    fn simulator_flood_repeats_exactly_per_seed() {
        let _serial = crate::TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let a = run_pass::<DbPeer>(&spec(0), 7).unwrap();
        let b = run_pass::<DbPeer>(&spec(0), 7).unwrap();
        let c = run_pass::<DbPeer>(&spec(0), 8).unwrap();
        assert!(a.correct() && b.correct() && c.correct());
        assert_eq!(a.setup_s.len(), 3, "one fresh system per session");
        assert_eq!(a.input_digest, b.input_digest);
        assert_eq!((a.messages, a.wire_bytes), (b.messages, b.wire_bytes));
        assert_ne!(a.input_digest, c.input_digest);
    }

    #[test]
    fn sharded_flood_reaches_the_closed_form() {
        let _serial = crate::TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let pass = run_pass::<DbPeer>(&spec(2), 7).unwrap();
        assert!(
            pass.correct(),
            "{} of {} failed",
            pass.failed,
            pass.attempted
        );
        assert_eq!(pass.shards, 2);
        assert!(pass.cross_shard_sends > 0);
    }

    #[test]
    fn wrong_closed_form_fails_every_session() {
        let _serial = crate::TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut inputs = flood_inputs(7, 200, 4, 3);
        inputs.expected_tuples += 1;
        let pass = run_on::<DbPeer>(&spec(0), &inputs, 0.0).unwrap();
        assert!(!pass.correct());
        assert_eq!((pass.attempted, pass.failed), (3, 3));
    }
}
