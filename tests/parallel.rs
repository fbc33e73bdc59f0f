//! The sharded runtime at system level: a `RunSpec` with `shards` given to
//! `P2PSystem::run`, as `--runtime sharded` gives it.
//!
//! The worker-pool runtime trades the simulator's determinism for real
//! parallelism, so its contract is *equivalence*, not identity:
//!
//! * **simulator parity** — a pooled run from the super-peer or from
//!   several roots reaches a final global database tuple-identical modulo
//!   null renaming to the simulator (and the centralized oracle) on the
//!   same workload, for every shard count — including one shard (pure
//!   multiplexing) and more shards than peers (one shard per peer),
//!   deterministic cases plus a proptest over topologies × latency seeds ×
//!   shard counts;
//! * **one system** — a pooled run hands the peers back: the next session,
//!   on either runtime, and a local query see what it left;
//! * **locality accounting** — one shard means zero cross-shard sends;
//! * **refusals** — what only the simulator runs (rounds mode, a churn or
//!   fault plan, a change script) is a typed error from
//!   `P2PSystem::check_run`, not a run that quietly does something else;
//! * **panic containment** — a peer whose handler panics surfaces as a
//!   structured `WorkerPanic` naming the node, never as a poisoned lock or
//!   a hung run, at any shard count.

use p2pdb::core::config::UpdateMode;
use p2pdb::core::dynamic::ChangeScript;
use p2pdb::core::system::{P2PSystem, P2PSystemBuilder, RunSpec, UpdateReport};
use p2pdb::core::CoreError;
use p2pdb::net::{ChurnPlan, Context, FaultPlan, Peer, SessionId, ShardedNetwork, SimTime};
use p2pdb::relational::Val;
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{build_system, Distribution, WorkloadConfig};
use proptest::prelude::*;

/// Every session of a run closed at every peer, and no peer recorded an
/// error.
fn closed_cleanly(reports: &[UpdateReport]) -> bool {
    reports.iter().all(|r| r.all_closed && r.errors.is_empty())
}

/// `builder`'s system after `spec` ran on a pool of `shards` threads, and
/// the run's reports.
fn run_pooled(
    builder: P2PSystemBuilder,
    spec: &RunSpec,
    shards: usize,
) -> (P2PSystem, Vec<UpdateReport>) {
    let mut sys = builder.build().unwrap();
    let reports = sys.run(&RunSpec {
        shards,
        ..spec.clone()
    });
    (sys, reports)
}

/// A cyclic three-node system (A→C→B→A) with data at every node — the same
/// shape `tests/concurrent.rs` uses, so the sharded runtime is measured
/// against an already-trusted workload.
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

/// Leaves feeding the join star's hub, and `item` rows seeded per leaf.
const STAR_SOURCES: usize = 8;
const STAR_ROWS_PER_SOURCE: usize = 4;
/// `item` rows the hub joins every inbox delta against.
const STAR_HUB_ROWS: usize = 64;

/// A delta-join star: head `A`, hub `B` holding [`STAR_HUB_ROWS`] items, and
/// [`STAR_SOURCES`] leaves whose items are copied into `B`'s `inbox`; the
/// join rule derives `pair` at `A` from `inbox ⋈ item` **at `B`**. Every
/// leaf's batch lands in `inbox` as its own delta, so `B` evaluates one
/// two-atom body many times over a growing database — plan cache, index
/// probes and suffix scans all on the path — and the fix-point has a closed
/// form to land on: the hub's items, plus each seeded leaf item once at its
/// leaf, once in `inbox` and once as a distinct `pair`.
fn join_star_builder() -> P2PSystemBuilder {
    const SCHEMA: &str = "item(id: int, src: int). inbox(id: int, src: int). pair(x: int, y: int).";
    let mut b = P2PSystemBuilder::new();
    for node in 0..(2 + STAR_SOURCES) as u32 {
        b.add_node_with_schema(node, SCHEMA).unwrap();
    }
    b.add_rule("j0", "B:inbox(I,S), B:item(I,T) => A:pair(S,T)")
        .unwrap();
    for i in 0..STAR_HUB_ROWS as i64 {
        // The hub's `src` column stays clear of the leaf ids below.
        b.insert(1, "item", vec![Val::Int(i), Val::Int(i + 1_000_000)])
            .unwrap();
    }
    for j in 0..STAR_SOURCES {
        let leaf = 2 + j as u32;
        let rule = format!("{}:item(I,S) => B:inbox(I,S)", NodeId(leaf).letter());
        b.add_rule(&format!("f{j}"), &rule).unwrap();
        for k in 0..STAR_ROWS_PER_SOURCE {
            let id = (j * STAR_ROWS_PER_SOURCE + k) as i64;
            b.insert(leaf, "item", vec![Val::Int(id), Val::Int(j as i64)])
                .unwrap();
        }
    }
    b
}

const JOIN_STAR_TUPLES: usize = STAR_HUB_ROWS + 3 * STAR_SOURCES * STAR_ROWS_PER_SOURCE;

fn ring_builder(n: u32) -> P2PSystemBuilder {
    build_system(&WorkloadConfig {
        topology: Topology::Ring { n },
        records_per_node: 10,
        distribution: Distribution::Disjoint,
        seed: 7,
    })
    .unwrap()
}

/// Sharded fix-points equal the simulator's and the oracle's at every
/// shard count — including 1 (pure multiplexing, and the baseline every
/// speedup is measured against) and 16 > n (the run starts one shard per
/// peer) — on a cyclic copy network and on the join star,
/// whose fix-point must also hit its closed form.
#[test]
fn sharded_matches_simulator_across_shard_counts() {
    type Case = (&'static str, fn() -> P2PSystemBuilder, Option<usize>);
    let cases: [Case; 2] = [
        ("cyclic", cyclic_builder, None),
        ("join star", join_star_builder, Some(JOIN_STAR_TUPLES)),
    ];
    for (name, builder, closed_form) in cases {
        let mut sim = builder().build().unwrap();
        let report = sim.run_update();
        assert!(report.all_closed, "{name}");
        let sim_db = sim.snapshot();
        let oracle = sim.oracle().unwrap();
        assert!(sim_db.equivalent(&oracle), "{name}: simulator != oracle");
        if let Some(tuples) = closed_form {
            assert_eq!(sim_db.total_tuples(), tuples, "{name}: closed form");
        }

        for shards in [1usize, 2, 3, 8, 16] {
            let (sys, reports) = run_pooled(builder(), &RunSpec::default(), shards);
            let (db, stats) = (sys.snapshot(), sys.net_stats());
            assert!(
                closed_cleanly(&reports),
                "{name}, {shards} shards: {reports:?}"
            );
            assert!(
                db.equivalent(&sim_db),
                "{name}, {shards} shards: fix-point differs from the simulator"
            );
            assert!(db.equivalent(&oracle), "{name}, {shards} shards: != oracle");
            assert!(stats.total_messages > 0);
            if shards == 1 {
                assert_eq!(
                    stats.cross_shard_sends, 0,
                    "one shard has no boundaries to cross"
                );
            }
        }
    }
}

/// Concurrent sessions on the sharded runtime: every session closes, gets
/// per-session message attribution, and the combined fix-point equals the
/// simulator's interleaved run.
#[test]
fn sharded_concurrent_sessions_match_simulator() {
    let roots = [NodeId(0), NodeId(2)];
    let spec = RunSpec {
        roots: roots.to_vec(),
        ..Default::default()
    };
    let mut sim = cyclic_builder().build().unwrap();
    let reports = sim.run(&spec);
    assert!(reports.iter().all(|r| r.all_closed));
    let sim_db = sim.snapshot();

    for shards in [2usize, 4] {
        let (sys, reports) = run_pooled(cyclic_builder(), &spec, shards);
        let stats = sys.net_stats();
        assert!(closed_cleanly(&reports), "{shards} shards: {reports:?}");
        assert!(
            sys.snapshot().equivalent(&sim_db),
            "{shards} shards: != simulator"
        );
        for ((i, &root), report) in roots.iter().enumerate().zip(&reports) {
            let sid = SessionId::new(root, (i + 1) as u64);
            assert_eq!(report.session, sid);
            assert!(stats.session(sid).messages > 0, "{sid} unattributed");
            assert_eq!(report.session_messages, stats.session(sid).messages);
            assert_eq!(report.session_bytes, stats.session(sid).bytes);
        }
    }
}

/// The shard pool runs the query-dependent update from the same spec as
/// the simulator: rooted mid-chain (A ← B ← C), it refreshes B from C and
/// leaves A as it was, as the simulator does.
#[test]
fn sharded_scoped_update_matches_simulator() {
    let chain = || {
        let mut b = P2PSystemBuilder::new();
        for (id, schema) in [(0, "a(x: int)."), (1, "b(x: int)."), (2, "c(x: int).")] {
            b.add_node_with_schema(id, schema).unwrap();
        }
        b.add_rule("r1", "B:b(X) => A:a(X)").unwrap();
        b.add_rule("r2", "C:c(X) => B:b(X)").unwrap();
        b.insert(2, "c", vec![Val::Int(1)]).unwrap();
        b
    };
    let spec = RunSpec {
        roots: vec![NodeId(1)],
        scoped: true,
        ..Default::default()
    };
    let mut sim = chain().build().unwrap();
    sim.run(&spec);
    let scoped = sim.snapshot();
    assert_eq!(scoped.total_tuples(), 2, "b(1) and c(1), no a(1)");
    let (sys, reports) = run_pooled(chain(), &spec, 2);
    assert!(reports[0].errors.is_empty(), "{reports:?}");
    assert!(sys.snapshot().equivalent(&scoped));
}

/// A pooled run keeps its peers: after a first-contact run on the pool
/// reaches the oracle, the next write-free session on the pool is its
/// skeleton — the root's start, and one flood, one `Ack` and one `Fixpoint`
/// per other node — and so is a simulator session after it, and a local
/// query answers what an all-simulator system answers.
#[test]
fn a_pooled_run_keeps_its_peers() {
    let pooled = RunSpec {
        shards: 2,
        ..RunSpec::default()
    };
    let (mut sys, reports) = run_pooled(ring_builder(6), &pooled, 2);
    assert!(closed_cleanly(&reports), "{reports:?}");
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));

    let kinds = ["StartUpdate", "UpdateFlood", "Ack", "Fixpoint"];
    let mut skeleton = |spec: &RunSpec| {
        let count = |sys: &P2PSystem| kinds.map(|kind| sys.net_stats().sent_of_kind(kind));
        let (before, messages) = (count(&sys), sys.net_stats().total_messages);
        let reports = sys.run(spec);
        assert!(closed_cleanly(&reports), "{reports:?}");
        let after = count(&sys);
        let sent: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        (sent, sys.net_stats().total_messages - messages)
    };
    assert_eq!(skeleton(&pooled), (vec![1, 5, 5, 5], 16), "pooled");
    assert_eq!(skeleton(&RunSpec::default()), (vec![1, 5, 5, 5], 16), "sim");

    let mut reference = ring_builder(6).build().unwrap();
    assert!(reference.run_update().all_closed);
    let q = "q(I, T) :- pub(I, T, Y)";
    let answers = sys.query(NodeId(0), q).unwrap();
    assert!(!answers.is_empty());
    assert_eq!(answers, reference.query(NodeId(0), q).unwrap());
}

/// What the shard pool refuses: `builder`'s system accepts `spec` on the
/// simulator, and refuses it on a pool with `ShardedUnsupported(what)`.
fn assert_refused(builder: P2PSystemBuilder, spec: RunSpec, what: &'static str) {
    let sys = builder.build().unwrap();
    assert_eq!(sys.check_run(&spec), Ok(()), "{what}: on the simulator");
    let pooled = RunSpec { shards: 2, ..spec };
    assert_eq!(
        sys.check_run(&pooled),
        Err(CoreError::ShardedUnsupported(what))
    );
}

#[test]
fn sharded_refuses_rounds_mode() {
    let mut b = cyclic_builder();
    b.config_mut().mode = UpdateMode::Rounds;
    assert_refused(b, RunSpec::default(), "rounds mode");
}

/// `run` asserts what `check_run` refuses, naming it.
#[test]
#[should_panic(expected = "cannot run rounds mode")]
fn a_refused_pooled_run_panics_naming_what() {
    let mut b = cyclic_builder();
    b.config_mut().mode = UpdateMode::Rounds;
    run_pooled(b, &RunSpec::default(), 2);
}

#[test]
fn sharded_refuses_a_change_script() {
    let sys = cyclic_builder().build().unwrap();
    let mut script = ChangeScript::new();
    script.push(SimTime::from_millis(1), sys.make_delete_link("r1").unwrap());
    let spec = RunSpec {
        script,
        ..Default::default()
    };
    assert_refused(cyclic_builder(), spec, "a change script");
}

/// The pool runs the simulator's drive loop: with a re-drive budget, a
/// run whose sessions all close on the first drive reports 0 re-drives.
#[test]
fn sharded_redrive_budget_closes_on_the_first_drive() {
    let spec = RunSpec {
        roots: vec![NodeId(0), NodeId(2)],
        redrives: 3,
        ..Default::default()
    };
    let (sys, reports) = run_pooled(cyclic_builder(), &spec, 2);
    assert!(closed_cleanly(&reports), "{reports:?}");
    assert!(reports.iter().all(|r| r.redrives == 0), "{reports:?}");
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
}

/// A churn plan is refused while it is pending; a fault plan while it can
/// drop, whether the builder or the running system installed it.
#[test]
fn sharded_refuses_a_churn_or_fault_plan() {
    let mut churned = cyclic_builder();
    let at = SimTime::from_millis(2);
    churned.set_churn(ChurnPlan::none().with_crash(NodeId(1), at, at + at));
    assert_refused(churned, RunSpec::default(), "a churn plan");
    let mut faulty = cyclic_builder();
    faulty.set_fault(FaultPlan::random(5, 1));
    assert_refused(faulty, RunSpec::default(), "a fault plan");

    let mut sys = cyclic_builder().build().unwrap();
    let pooled = RunSpec {
        shards: 2,
        ..Default::default()
    };
    sys.set_fault(FaultPlan::random(5, 1));
    let refused = CoreError::ShardedUnsupported("a fault plan");
    assert_eq!(sys.check_run(&pooled), Err(refused));
    sys.set_fault(FaultPlan::none());
    assert_eq!(sys.check_run(&pooled), Ok(()));
}

/// A panicking peer handler surfaces as a structured error naming the node
/// — at one shard (the panic is on the only worker) and at several (the
/// other workers must still drain and join).
#[test]
fn sharded_panic_is_contained_and_named() {
    #[derive(Debug, Clone, PartialEq)]
    struct Hot(u32);
    impl p2pdb::net::Wire for Hot {
        fn wire_size(&self) -> usize {
            4
        }
        fn kind(&self) -> &'static str {
            "hot"
        }
    }
    #[derive(Debug)]
    struct Bomb {
        next: NodeId,
        fuse: bool,
    }
    impl Peer<Hot> for Bomb {
        fn on_message(&mut self, _from: NodeId, msg: Hot, ctx: &mut Context<Hot>) {
            if self.fuse {
                panic!("injected fault at {}", ctx.id());
            }
            if msg.0 > 0 {
                ctx.send(self.next, Hot(msg.0 - 1));
            }
        }
    }

    for shards in [1usize, 4] {
        let mut net: ShardedNetwork<Hot, Bomb> = ShardedNetwork::new();
        net.set_shards(shards);
        let n = 6u32;
        for i in 0..n {
            net.add_peer(
                NodeId(i),
                Bomb {
                    next: NodeId((i + 1) % n),
                    fuse: i == 4,
                },
            );
        }
        let err = net
            .run(vec![(NodeId(0), NodeId(0), Hot(100))])
            .expect_err("the fuse must blow");
        assert_eq!(err.node, NodeId(4), "{shards} shards");
        assert!(
            err.payload.contains("injected fault"),
            "{shards} shards: {}",
            err.payload
        );
    }
}

// ---------------------------------------------------------------------------
// Property: sharded == simulator == oracle over topologies × seeds × shard
// counts (including more shards than peers).
// ---------------------------------------------------------------------------

fn proptest_topology(idx: u8, n: u8) -> Topology {
    let n = 3 + (n % 4) as u32; // 3..=6 nodes
    match idx % 4 {
        0 => Topology::Ring { n },
        1 => Topology::Chain { n },
        2 => Topology::Clique { n: n.min(4) },
        _ => Topology::Tree {
            branching: 2,
            depth: 1 + n % 2, // 3 or 7 nodes
        },
    }
}

fn builder_for(topology: Topology, seed: u64) -> P2PSystemBuilder {
    build_system(&WorkloadConfig {
        topology,
        records_per_node: 5,
        distribution: Distribution::Disjoint,
        seed,
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole's correctness anchor: for random topologies, data
    /// seeds and shard counts (1 up to > n), the sharded fix-point equals
    /// the simulator's and the centralized oracle's modulo null renaming.
    #[test]
    fn sharded_equals_simulator_equals_oracle(
        topo_idx in 0u8..4,
        size in 0u8..4,
        data_seed in 0u64..500,
        shards in 1usize..9,
    ) {
        let topology = proptest_topology(topo_idx, size);

        let mut sim = builder_for(topology, data_seed).build().unwrap();
        let report = sim.run_update();
        prop_assert!(report.all_closed, "simulator unclosed on {topology}");

        let (pooled, reports) =
            run_pooled(builder_for(topology, data_seed), &RunSpec::default(), shards);
        let db = pooled.snapshot();
        prop_assert!(closed_cleanly(&reports), "{shards} shards unclosed on {topology}");
        prop_assert!(
            db.equivalent(&sim.snapshot()),
            "sharded != simulator on {topology} seed {data_seed} shards {shards}"
        );
        prop_assert!(
            db.equivalent(&sim.oracle().unwrap()),
            "sharded != oracle on {topology} seed {data_seed} shards {shards}"
        );
    }
}
