//! The sharded runtime at system level: `--runtime sharded` seen from the
//! library API.
//!
//! The worker-pool runtime trades the simulator's determinism for real
//! parallelism, so its contract is *equivalence*, not identity:
//!
//! * **simulator parity** — `run_updates_sharded` from the super-peer or
//!   from several roots reaches a final global database tuple-identical
//!   modulo null renaming to the simulator (and the centralized oracle) on
//!   the same workload, for every shard count — including one shard (pure
//!   multiplexing) and more shards than peers (idle workers), deterministic
//!   cases plus a proptest over topologies × latency seeds × shard counts;
//! * **locality accounting** — one shard means zero cross-shard sends;
//!   contiguous-blocks placement beats round-robin on a ring;
//! * **panic containment** — a peer whose handler panics surfaces as a
//!   structured `WorkerPanic` naming the node, never as a poisoned lock or
//!   a hung run, at any shard count.

use p2pdb::core::config::UpdateMode;
use p2pdb::core::system::{run_updates_sharded, P2PSystemBuilder};
use p2pdb::net::{Context, Peer, SessionId, ShardPlacement, ShardedNetwork};
use p2pdb::relational::Val;
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{build_system, Distribution, WorkloadConfig};
use proptest::prelude::*;

/// The super-peer of every builder here (the builder's default).
const SUPER_PEER: NodeId = NodeId(0);

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
/// speedup is measured against) and 16 > n (idle shards must not deadlock
/// the quiescence barrier) — on a cyclic copy network and on the join star,
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
            let (db, stats, all_closed) =
                run_updates_sharded(builder(), &[SUPER_PEER], shards, ShardPlacement::RoundRobin)
                    .unwrap();
            assert!(all_closed, "{name}, {shards} shards: unclosed run");
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
    let mut sim = cyclic_builder().build().unwrap();
    let reports = sim.run_updates(&roots);
    assert!(reports.iter().all(|r| r.all_closed));
    let sim_db = sim.snapshot();

    for shards in [2usize, 4] {
        let (db, stats, all_closed) =
            run_updates_sharded(cyclic_builder(), &roots, shards, ShardPlacement::RoundRobin)
                .unwrap();
        assert!(all_closed, "{shards} shards: some session unclosed");
        assert!(db.equivalent(&sim_db), "{shards} shards: != simulator");
        for (i, &root) in roots.iter().enumerate() {
            let sid = SessionId::new(root, (i + 1) as u64);
            assert!(stats.session(sid).messages > 0, "{sid} unattributed");
        }
    }
}

/// Placement is a pure locality knob: on a ring, contiguous blocks keep
/// neighbours on the same shard and round-robin separates every pair, but
/// both land on the identical fix-point.
#[test]
fn placement_changes_locality_not_the_fixpoint() {
    let mut sim = ring_builder(16).build().unwrap();
    assert!(sim.run_update().all_closed);
    let sim_db = sim.snapshot();

    let (rr_db, rr, _) = run_updates_sharded(
        ring_builder(16),
        &[SUPER_PEER],
        4,
        ShardPlacement::RoundRobin,
    )
    .unwrap();
    let (bl_db, bl, _) =
        run_updates_sharded(ring_builder(16), &[SUPER_PEER], 4, ShardPlacement::Blocks).unwrap();
    assert!(rr_db.equivalent(&sim_db));
    assert!(bl_db.equivalent(&sim_db));
    assert!(
        bl.cross_shard_sends < rr.cross_shard_sends,
        "blocks must localize ring traffic: {} vs {}",
        bl.cross_shard_sends,
        rr.cross_shard_sends
    );
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
    let mut b = build_system(&WorkloadConfig {
        topology,
        records_per_node: 5,
        distribution: Distribution::Disjoint,
        seed,
    })
    .unwrap();
    // The sharded runtime forces eager mode; run the simulator reference
    // in the same mode so the comparison is apples to apples.
    b.config_mut().mode = UpdateMode::Eager;
    b
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

        let (db, _, all_closed) = run_updates_sharded(
            builder_for(topology, data_seed),
            &[SUPER_PEER],
            shards,
            ShardPlacement::RoundRobin,
        ).unwrap();
        prop_assert!(all_closed, "{shards} shards unclosed on {topology}");
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
