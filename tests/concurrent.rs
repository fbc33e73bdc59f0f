//! Concurrent update sessions: the session as a first-class object.
//!
//! Any number of update sessions — identified by `SessionId { root, epoch }`
//! and initiated by any nodes — run interleaved in one network run. These
//! tests pin the contract of that control plane:
//!
//! * **serial equivalence** — interleaved `run_updates(roots)` reaches a
//!   final global database tuple-identical (modulo null renaming) to
//!   running the same sessions serially, and to the centralized fix-point
//!   oracle (deterministic cases plus a proptest over random topologies ×
//!   root sets × interleaving seeds);
//! * **retirement** — after every session reaches its fix-point, every
//!   peer's session table is empty (no leaked Dijkstra–Scholten state,
//!   watermarks or fragment caches), including after a churn-broken session
//!   is redriven;
//! * **attribution** — the transport layer tags traces and per-session
//!   counters with the session each message belongs to.
//!
//! Concurrent sessions on real threads are `tests/parallel.rs`'s
//! `sharded_concurrent_sessions_match_simulator`.

use p2pdb::core::config::UpdateMode;
use p2pdb::core::system::P2PSystemBuilder;
use p2pdb::net::{SessionId, SimTime, UniformLatency};
use p2pdb::relational::Val;
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{build_system, Distribution, WorkloadConfig};
use proptest::prelude::*;

/// A cyclic three-node system (A→C→B→A) with data at every node: every
/// session has real work and the cycle exercises the Dijkstra–Scholten
/// path rather than pure flag closure.
fn cyclic_builder() -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
    b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
    b.add_rule("r2", "C:c(X,Y) => B:b(X,Y)").unwrap();
    b.add_rule("r3", "A:a(X,Y) => C:c(Y,X)").unwrap();
    for i in 0..8i64 {
        b.insert(2, "c", vec![Val::Int(i), Val::Int(i + 1)])
            .unwrap();
        b.insert(1, "b", vec![Val::Int(100 + i), Val::Int(i)])
            .unwrap();
    }
    b
}

/// A ring(8) workload builder for the larger scenarios.
fn ring_builder(mode: UpdateMode) -> P2PSystemBuilder {
    let mut b = build_system(&WorkloadConfig {
        topology: Topology::Ring { n: 8 },
        records_per_node: 15,
        distribution: Distribution::Disjoint,
        seed: 7,
    })
    .unwrap();
    b.config_mut().mode = mode;
    b.config_mut().max_events = 50_000_000;
    b
}

#[test]
fn interleaved_sessions_match_serial_and_oracle_eager() {
    let roots = [NodeId(0), NodeId(1), NodeId(2)];

    let mut concurrent = cyclic_builder().build().unwrap();
    let reports = concurrent.run_updates(&roots);
    assert_eq!(reports.len(), 3);
    for r in &reports {
        assert!(r.outcome.quiescent, "{r:?}");
        assert!(r.all_closed, "session {} must close: {r:?}", r.session);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert!(r.session_messages > 0, "attribution must see {}", r.session);
    }

    let mut serial = cyclic_builder().build().unwrap();
    for &root in &roots {
        let r = serial.run_update_from(root);
        assert!(r.all_closed, "serial session at {root} must close");
    }

    assert!(
        concurrent.snapshot().equivalent(&serial.snapshot()),
        "interleaved != serial"
    );
    assert!(
        concurrent
            .snapshot()
            .equivalent(&concurrent.oracle().unwrap()),
        "interleaved != oracle"
    );
}

#[test]
fn interleaved_sessions_match_serial_and_oracle_rounds() {
    let roots = [NodeId(0), NodeId(3), NodeId(6)];
    let mut concurrent = ring_builder(UpdateMode::Rounds).build().unwrap();
    let reports = concurrent.run_updates(&roots);
    for r in &reports {
        assert!(r.all_closed, "{r:?}");
        assert!(r.rounds >= 1, "{r:?}");
    }
    let mut serial = ring_builder(UpdateMode::Rounds).build().unwrap();
    for &root in &roots {
        assert!(serial.run_update_from(root).all_closed);
    }
    assert!(concurrent.snapshot().equivalent(&serial.snapshot()));
    assert!(concurrent
        .snapshot()
        .equivalent(&concurrent.oracle().unwrap()));
}

/// Retirement: once every session certified its fix-point, no peer holds
/// any session entry — the table is empty in both modes, and the summary
/// (`done`) knows every session.
#[test]
fn session_tables_are_empty_after_fixpoint() {
    for mode in [UpdateMode::Eager, UpdateMode::Rounds] {
        let mut b = ring_builder(mode);
        b.config_mut().mode = mode;
        let mut sys = b.build().unwrap();
        let roots = [NodeId(0), NodeId(2), NodeId(4), NodeId(6)];
        let reports = sys.run_updates(&roots);
        assert!(reports.iter().all(|r| r.all_closed), "{mode:?}");
        for (id, p) in sys.peers() {
            assert_eq!(
                p.session_table_len(),
                0,
                "{mode:?}: peer {id} leaked session state"
            );
            assert_eq!(p.sessions_done(), roots.len(), "{mode:?}: peer {id}");
            assert!(p.stats().sessions_participated >= roots.len() as u64);
            assert!(p.stats().concurrent_peak >= 2, "{mode:?}: peer {id}");
        }
    }
}

/// Retirement survives churn: a crash mid-run wipes and re-creates session
/// state, the redrive supersedes the stranded epoch (eager) or resumes the
/// same session (rounds), and after closure the tables are empty again.
#[test]
fn session_tables_are_empty_after_churn_redrive() {
    for mode in [UpdateMode::Rounds, UpdateMode::Eager] {
        // Probe for the session length, to place the crash mid-session.
        let mut probe_b = ring_builder(mode);
        probe_b.config_mut().durability = true;
        let mut probe = probe_b.build().unwrap();
        let t = probe.run_update().outcome.virtual_time;

        let mut b = ring_builder(mode);
        b.config_mut().durability = true;
        b.config_mut().snapshot_every = 16;
        b.set_churn(p2pdb::net::ChurnPlan::none().with_crash(
            NodeId(3),
            SimTime(t.0 / 3),
            SimTime(t.0 / 3 + t.0 / 5),
        ));
        let mut sys = b.build().unwrap();
        let report = sys.run_update_resilient(8);
        assert!(report.all_closed, "{mode:?}: {report:?}");
        assert_eq!(sys.sum_stats().crashes, 1, "{mode:?}");
        assert_eq!(sys.sum_stats().recoveries, 1, "{mode:?}");
        for (id, p) in sys.peers() {
            assert_eq!(
                p.session_table_len(),
                0,
                "{mode:?}: peer {id} leaked session state after redrive"
            );
        }
        assert!(
            sys.snapshot().equivalent(&sys.oracle().unwrap()),
            "{mode:?}: churned concurrent run != oracle"
        );
    }
}

/// Transport-layer attribution: trace entries carry the session tag of the
/// message they record, both sessions appear, and the per-session counters
/// agree with the tagged trace.
#[test]
fn trace_and_counters_attribute_messages_to_sessions() {
    let mut b = cyclic_builder();
    b.config_mut().trace_capacity = 100_000;
    let mut sys = b.build().unwrap();
    let roots = [NodeId(0), NodeId(2)];
    let reports = sys.run_updates(&roots);
    assert!(reports.iter().all(|r| r.all_closed));

    let sids: Vec<SessionId> = reports.iter().map(|r| r.session).collect();
    assert_eq!(sids[0], SessionId::new(NodeId(0), 1));
    assert_eq!(sids[1], SessionId::new(NodeId(2), 2));

    // Every traced delivery of a session-tagged kind carries its session.
    let entries = sys.trace().entries();
    assert!(!sys.trace().overflowed(), "raise the capacity");
    for sid in &sids {
        let tagged = entries.iter().filter(|e| e.session == Some(*sid)).count() as u64;
        assert!(tagged > 0, "session {sid} missing from the trace");
        assert_eq!(
            tagged,
            sys.net_stats().session(*sid).messages,
            "trace and counters must agree for {sid}"
        );
    }
    // Attributed messages never exceed the total, and the gap is exactly
    // the session-less control/driver traffic.
    let attributed: u64 = sids
        .iter()
        .map(|s| sys.net_stats().session(*s).messages)
        .sum();
    assert!(attributed <= sys.net_stats().total_messages);
    let untagged = entries.iter().filter(|e| e.session.is_none()).count() as u64;
    assert_eq!(attributed + untagged, sys.net_stats().total_messages);
}

/// Scoped sessions interleave with global ones: a query-dependent session
/// rooted mid-cycle and a global flood session are injected into **one**
/// simulator run (under jitter, so their traffic genuinely interleaves),
/// and both close, retire, and land on the oracle.
#[test]
fn scoped_and_global_sessions_interleave() {
    use p2pdb::core::messages::ProtocolMsg;
    use p2pdb::core::peer::DbPeer;
    use p2pdb::net::{Simulator, UniformLatency};

    // A hand-rolled simulator: the public drivers run one launch to
    // quiescence, but this test needs both session kinds in flight at once.
    let oracle = cyclic_builder().build().unwrap().oracle().unwrap();
    let mut b = cyclic_builder();
    let peers = b.build_peers().unwrap();
    let mut sim: Simulator<ProtocolMsg, DbPeer> = Simulator::new(Box::new(UniformLatency::new(
        SimTime::from_micros(200),
        SimTime::from_micros(3_000),
        7,
    )));
    for (id, peer) in peers {
        sim.add_peer(id, peer);
    }
    let scoped = SessionId::new(NodeId(1), 1);
    let global = SessionId::new(NodeId(0), 2);
    sim.inject(
        NodeId(1),
        NodeId(1),
        ProtocolMsg::StartScopedUpdate { session: scoped },
    );
    sim.inject(
        NodeId(0),
        NodeId(0),
        ProtocolMsg::StartUpdate { session: global },
    );
    let outcome = sim.run();
    assert!(outcome.quiescent);
    for (id, p) in sim.peers() {
        assert!(p.session_closed(global), "global unclosed at {id}");
        assert_eq!(p.session_table_len(), 0, "leak at {id}");
        assert!(p.errors().is_empty(), "{:?}", p.errors());
    }
    assert!(
        sim.peer(NodeId(1)).unwrap().session_closed(scoped),
        "scoped root must close its own session"
    );
    // Both sessions moved attributed traffic.
    assert!(sim.stats().session(scoped).messages > 0);
    assert!(sim.stats().session(global).messages > 0);
    let snapshot = p2pdb::core::oracle::GlobalDb(
        sim.peers()
            .map(|(id, p)| (*id, p.database().clone()))
            .collect(),
    );
    assert!(snapshot.equivalent(&oracle));
}

// ---------------------------------------------------------------------------
// Property: interleaved == serial == oracle over random topologies, root
// sets and interleaving seeds.
// ---------------------------------------------------------------------------

fn proptest_topology(idx: u8, n: u8) -> Topology {
    let n = 3 + (n % 4) as u32; // 3..=6 nodes
    match idx % 3 {
        0 => Topology::Ring { n },
        1 => Topology::Chain { n },
        _ => Topology::Clique { n: n.min(4) },
    }
}

fn builder_for(topology: Topology, mode: UpdateMode, seed: u64) -> P2PSystemBuilder {
    let mut b = build_system(&WorkloadConfig {
        topology,
        records_per_node: 6,
        distribution: Distribution::Disjoint,
        seed: 11,
    })
    .unwrap();
    b.config_mut().mode = mode;
    b.config_mut().max_events = 50_000_000;
    // The interleaving knob: seeded jitter reorders deliveries across
    // sessions, so every seed is a different interleaving of the same
    // sessions.
    b.set_latency(UniformLatency::new(
        SimTime::from_micros(100),
        SimTime::from_micros(4_000),
        seed,
    ));
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole's correctness anchor, property-tested: for random
    /// topologies, random root sets and random interleaving seeds, the
    /// interleaved run's final global database equals the serial execution
    /// of the same sessions and the fix-point oracle (modulo null
    /// renaming), with no session state left behind.
    #[test]
    fn interleaved_equals_serial_equals_oracle(
        topo_idx in 0u8..3,
        size in 0u8..4,
        root_picks in proptest::collection::vec(0u8..8, 1..4),
        seed in 0u64..1000,
        mode_pick in 0u8..2,
    ) {
        let topology = proptest_topology(topo_idx, size);
        let mode = if mode_pick == 0 { UpdateMode::Eager } else { UpdateMode::Rounds };
        let n = topology.generate().node_count as u32;
        // Distinct roots (same-root sessions supersede by design).
        let mut roots: Vec<NodeId> = root_picks
            .iter()
            .map(|r| NodeId(*r as u32 % n))
            .collect();
        roots.sort();
        roots.dedup();

        let mut concurrent = builder_for(topology, mode, seed).build().unwrap();
        let reports = concurrent.run_updates(&roots);
        for r in &reports {
            prop_assert!(r.outcome.quiescent);
            prop_assert!(r.all_closed, "session {} unclosed", r.session);
            prop_assert!(r.errors.is_empty(), "{:?}", r.errors);
        }

        let mut serial = builder_for(topology, mode, seed.wrapping_add(1)).build().unwrap();
        for &root in &roots {
            prop_assert!(serial.run_update_from(root).all_closed);
        }

        prop_assert!(
            concurrent.snapshot().equivalent(&serial.snapshot()),
            "interleaved != serial on {topology} roots {roots:?} seed {seed} ({mode:?})"
        );
        prop_assert!(
            concurrent.snapshot().equivalent(&concurrent.oracle().unwrap()),
            "interleaved != oracle on {topology} roots {roots:?} seed {seed} ({mode:?})"
        );
        for (id, p) in concurrent.peers() {
            prop_assert_eq!(p.session_table_len(), 0, "leak at {}", id);
        }
    }
}
