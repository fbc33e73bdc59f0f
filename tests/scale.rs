//! Scaling integration: the flat `scale` scenario (one-hop copy rules,
//! closed-form fix-point — see `p2pdb::workload::scale`) exercised across
//! topology families and seeds, as the end-to-end check of the simulator
//! (shared payloads, one event heap, FIFO exactly-once pipes) and the flat
//! per-peer tables: the fix-point must stay tuple-identical to the
//! centralized oracle and hit the scenario's closed-form size exactly.
//!
//! Also the derived event budget: `max_events = 0` (auto) must carry runs
//! that the old flat cap was never sized for.

use p2pdb::topology::Topology;
use p2pdb::workload::{expected_total_tuples, scale_system, ScaleConfig};
use proptest::prelude::*;

fn run_and_check(cfg: &ScaleConfig) {
    let mut sys = scale_system(cfg)
        .expect("scale workload builds")
        .build()
        .expect("system builds");
    let report = sys.run_update();
    assert!(report.outcome.quiescent, "{}: not quiescent", cfg.topology);
    assert!(report.all_closed, "{}: not all closed", cfg.topology);
    assert!(
        report.errors.is_empty(),
        "{}: {:?}",
        cfg.topology,
        report.errors
    );
    assert_eq!(
        sys.snapshot().total_tuples(),
        expected_total_tuples(cfg),
        "{}: fix-point off the closed form",
        cfg.topology
    );
    assert!(
        sys.snapshot().equivalent(&sys.oracle().expect("oracle")),
        "{}: differs from the centralized fix-point",
        cfg.topology
    );
}

/// Connected-by-construction topology specs across every family the scale
/// experiment measures (plus the classical ones), sized to keep the oracle
/// affordable.
fn topo_strategy() -> impl Strategy<Value = Topology> {
    (0u8..5, 3u32..13, 0u8..101, any::<u64>()).prop_map(|(family, size, percent, seed)| {
        match family {
            0 => Topology::Ring { n: size * 2 },
            1 => Topology::Tree {
                branching: (size % 3) + 2,
                depth: (size % 3) + 1,
            },
            2 => Topology::Clique { n: (size % 4) + 2 },
            // n even in 6..=24 keeps n·degree even and degree 4 < n.
            3 => Topology::Expander {
                n: size * 2,
                degree: 4,
                seed,
            },
            _ => Topology::SmallWorld {
                n: size * 2,
                k: 4,
                rewire_percent: percent,
                seed,
            },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batching and flat tables never change results: across families and
    /// seeds, the distributed fix-point is tuple-identical to the oracle
    /// and exactly `(nodes + edges) × records` tuples big.
    #[test]
    fn fixpoint_matches_oracle_across_topologies_and_seeds(
        topology in topo_strategy(),
        records in 1usize..4,
    ) {
        run_and_check(&ScaleConfig { topology, records_per_node: records });
    }
}

/// A 1000-peer run on the auto budget: the old flat `max_events` default
/// was sized for ring(8)-class experiments; the derived budget
/// (`SystemConfig::effective_max_events`) must carry three orders of
/// magnitude more peers without touching the config.
#[test]
fn auto_budget_carries_a_thousand_peer_run() {
    let cfg = ScaleConfig {
        topology: Topology::Expander {
            n: 1000,
            degree: 4,
            seed: 7,
        },
        records_per_node: 1,
    };
    let b = scale_system(&cfg).expect("scale workload builds");
    let mut sys = b.build().expect("system builds");
    let report = sys.run_update();
    assert!(report.outcome.quiescent, "halted by the event budget");
    assert!(report.all_closed);
    assert_eq!(sys.snapshot().total_tuples(), expected_total_tuples(&cfg));
}

/// The headline run: 10 000 peers on a degree-4 expander, auto budget.
/// Slow in debug builds, so ignored by default:
///
/// ```text
/// cargo test --release --test scale -- --ignored
/// ```
#[test]
#[ignore = "10k peers: run with --release -- --ignored"]
fn auto_budget_carries_a_ten_thousand_peer_run() {
    let cfg = ScaleConfig {
        topology: Topology::Expander {
            n: 10_000,
            degree: 4,
            seed: 7,
        },
        records_per_node: 4,
    };
    let b = scale_system(&cfg).expect("scale workload builds");
    let mut sys = b.build().expect("system builds");
    let report = sys.run_update();
    assert!(report.outcome.quiescent, "halted by the event budget");
    assert!(report.all_closed);
    assert_eq!(sys.snapshot().total_tuples(), expected_total_tuples(&cfg));
}
