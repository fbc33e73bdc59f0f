//! Cross-crate end-to-end tests: every topology family, both update modes,
//! always checked against the centralized fix-point oracle (Lemma 1
//! soundness + completeness, modulo null renaming).

use p2pdb::core::config::UpdateMode;
use p2pdb::topology::Topology;
use p2pdb::workload::{build_system, Distribution, WorkloadConfig};

fn check(topology: Topology, mode: UpdateMode, distribution: Distribution) {
    let cfg = WorkloadConfig {
        topology,
        records_per_node: 12,
        distribution,
        seed: 99,
    };
    let mut b = build_system(&cfg).unwrap();
    b.config_mut().mode = mode;
    let mut sys = b.build().unwrap();
    let report = sys.run_update();
    assert!(report.outcome.quiescent, "{topology} {mode:?}: diverged");
    assert!(report.all_closed, "{topology} {mode:?}: not all closed");
    assert!(
        report.errors.is_empty(),
        "{topology} {mode:?}: {:?}",
        report.errors
    );
    assert!(
        sys.snapshot().equivalent(&sys.oracle().unwrap()),
        "{topology} {mode:?}: result differs from oracle"
    );
}

#[test]
fn trees_eager() {
    check(
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        UpdateMode::Eager,
        Distribution::Disjoint,
    );
}

#[test]
fn trees_rounds() {
    check(
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        UpdateMode::Rounds,
        Distribution::Disjoint,
    );
}

#[test]
fn layered_eager() {
    check(
        Topology::LayeredDag {
            layers: 4,
            width: 3,
            fanout: 2,
        },
        UpdateMode::Eager,
        Distribution::Disjoint,
    );
}

#[test]
fn layered_rounds() {
    check(
        Topology::LayeredDag {
            layers: 4,
            width: 3,
            fanout: 2,
        },
        UpdateMode::Rounds,
        Distribution::Disjoint,
    );
}

#[test]
fn clique_eager() {
    check(
        Topology::Clique { n: 4 },
        UpdateMode::Eager,
        Distribution::Disjoint,
    );
}

#[test]
fn clique_rounds() {
    check(
        Topology::Clique { n: 4 },
        UpdateMode::Rounds,
        Distribution::Disjoint,
    );
}

#[test]
fn ring_eager() {
    check(
        Topology::Ring { n: 6 },
        UpdateMode::Eager,
        Distribution::Disjoint,
    );
}

#[test]
fn ring_rounds() {
    check(
        Topology::Ring { n: 6 },
        UpdateMode::Rounds,
        Distribution::Disjoint,
    );
}

#[test]
fn star_eager() {
    check(
        Topology::Star { n: 8 },
        UpdateMode::Eager,
        Distribution::Disjoint,
    );
}

#[test]
fn chain_rounds() {
    check(
        Topology::Chain { n: 7 },
        UpdateMode::Rounds,
        Distribution::Disjoint,
    );
}

#[test]
fn overlap_distribution_eager_tree() {
    check(
        Topology::Tree {
            branching: 2,
            depth: 2,
        },
        UpdateMode::Eager,
        Distribution::OverlapNeighbors { percent: 50 },
    );
}

#[test]
fn overlap_distribution_rounds_ring() {
    check(
        Topology::Ring { n: 5 },
        UpdateMode::Rounds,
        Distribution::OverlapNeighbors { percent: 50 },
    );
}

#[test]
fn random_graph_eager() {
    check(
        Topology::Random {
            n: 10,
            p_percent: 25,
            seed: 5,
        },
        UpdateMode::Eager,
        Distribution::Disjoint,
    );
}

#[test]
fn random_graph_rounds() {
    check(
        Topology::Random {
            n: 10,
            p_percent: 25,
            seed: 5,
        },
        UpdateMode::Rounds,
        Distribution::Disjoint,
    );
}

#[test]
fn baselines_agree_with_distributed_on_dags() {
    use p2pdb::baselines::{acyclic_update, centralized_update};
    use p2pdb::relational::hom::equivalent_modulo_nulls;
    use p2pdb::topology::NodeId;

    let cfg = WorkloadConfig {
        topology: Topology::Tree {
            branching: 2,
            depth: 2,
        },
        records_per_node: 15,
        distribution: Distribution::Disjoint,
        seed: 7,
    };
    let mut sys = build_system(&cfg).unwrap().build().unwrap();
    let initial = sys.snapshot().0;
    let rules = sys.rules().clone();
    sys.run_update();
    let distributed = sys.snapshot();

    let (central, _) = centralized_update(&initial, &rules, NodeId(0), 64).unwrap();
    assert!(distributed.equivalent(&central));

    let (acyclic, _) = acyclic_update(&initial, &rules, 64).unwrap();
    for (node, db) in &acyclic {
        assert!(equivalent_modulo_nulls(
            db,
            distributed.node(*node).unwrap()
        ));
    }
}

#[test]
fn delta_off_same_result_more_bytes() {
    let cfg = WorkloadConfig {
        topology: Topology::Ring { n: 5 },
        records_per_node: 20,
        distribution: Distribution::OverlapNeighbors { percent: 50 },
        seed: 3,
    };
    let run = |delta: bool| {
        let mut b = build_system(&cfg).unwrap();
        b.config_mut().paper_faithful = !delta;
        let mut sys = b.build().unwrap();
        let r = sys.run_update();
        assert!(r.all_closed);
        (sys.snapshot(), r.bytes)
    };
    let (with_delta, bytes_delta) = run(true);
    let (without_delta, bytes_full) = run(false);
    assert!(with_delta.equivalent(&without_delta));
    assert!(
        bytes_full >= bytes_delta,
        "full answers ({bytes_full}) must ship at least as many bytes as deltas ({bytes_delta})"
    );
}
