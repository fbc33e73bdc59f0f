//! The experiment suite: one function per table/figure of EXPERIMENTS.md.
//!
//! Everything here is shared between the Criterion benches and the `repro`
//! binary, so the numbers in EXPERIMENTS.md are regenerated by exactly the
//! code the benches time.

use crate::table::{linear_fit, Table};
use p2p_baselines::{acyclic_update, centralized_update};
use p2p_core::config::UpdateMode;
use p2p_core::dynamic::{ChangeOp, ChangeScript};
use p2p_core::system::{P2PSystemBuilder, UpdateReport};
use p2p_net::{Codec, SimTime};
use p2p_relational::hom::contained_modulo_nulls;
use p2p_relational::Val;
use p2p_topology::paths::format_path;
use p2p_topology::{maximal_dependency_paths, NodeId, Topology};
use p2p_workload::{build_system, Distribution, WorkloadConfig};

/// Records-per-node scale for the experiment suite. The paper used ~1000
/// per node; the quick scale keeps CI fast while preserving every shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~30 records/node — seconds-fast, same qualitative shapes.
    Quick,
    /// ~200 records/node — the default for `repro`.
    Standard,
    /// ~1000 records/node — the paper's scale (use `--release`).
    Paper,
}

impl Scale {
    /// Records per node at this scale.
    pub fn records(self) -> usize {
        match self {
            Scale::Quick => 30,
            Scale::Standard => 200,
            Scale::Paper => 1000,
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Human label (topology, parameters).
    pub label: String,
    /// Node count.
    pub nodes: usize,
    /// Depth from the super-peer.
    pub depth: usize,
    /// Virtual execution time in milliseconds.
    pub time_ms: f64,
    /// Messages delivered.
    pub messages: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Rounds (rounds mode only).
    pub rounds: u32,
    /// Every node closed.
    pub all_closed: bool,
}

/// Builds and runs one workload; panics on configuration errors (the
/// experiment definitions are static) but surfaces protocol errors.
pub fn run_workload(
    cfg: &WorkloadConfig,
    mode: UpdateMode,
    delta: bool,
) -> (RunPoint, UpdateReport) {
    let mut b = build_system(cfg).expect("workload builds");
    b.config_mut().mode = mode;
    b.config_mut().paper_faithful = !delta;
    b.config_mut().max_events = 50_000_000;
    let generated = cfg.topology.generate();
    let mut sys = b.build().expect("system builds");
    let report = sys.run_update();
    assert!(
        report.errors.is_empty(),
        "peer errors in {}: {:?}",
        cfg.topology,
        report.errors
    );
    let point = RunPoint {
        label: cfg.topology.to_string(),
        nodes: generated.node_count,
        depth: generated.depth,
        time_ms: report.outcome.virtual_time.as_millis_f64(),
        messages: report.messages,
        bytes: report.bytes,
        rounds: report.rounds,
        all_closed: report.all_closed,
    };
    (point, report)
}

fn fmt_ms(v: f64) -> String {
    format!("{v:.2}")
}

// ---------------------------------------------------------------------------
// E1 — Section 2: maximal dependency paths of the running example
// ---------------------------------------------------------------------------

/// E1: the corrected Section 2 path table, computed from Definitions 6–7.
pub fn e1_paper_paths() -> Table {
    let graph = p2p_topology::graph::paper_example_graph();
    let mut table = Table::new(&["node", "maximal dependency paths"]);
    for start in 0..5u32 {
        let mut paths: Vec<String> = maximal_dependency_paths(&graph, NodeId(start), 10_000)
            .expect("small example")
            .iter()
            .map(|p| format_path(p))
            .collect();
        paths.sort();
        table.row(vec![
            NodeId(start).letter(),
            if paths.is_empty() {
                "∅".to_string()
            } else {
                paths.join(" ")
            },
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E2 — Figure 1: sample execution trace
// ---------------------------------------------------------------------------

/// E2: a Figure-1 style message-sequence diagram of discovery + update on
/// the running example (columns :A :B :C :E as in the paper).
pub fn e2_figure1_trace() -> String {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int). f(x: int).")
        .unwrap();
    b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
    b.add_node_with_schema(4, "e(x: int, y: int).").unwrap();
    b.add_rule("r1", "E:e(X,Y) => B:b(X,Y)").unwrap();
    b.add_rule("r2", "B:b(X,Y), B:b(Y,Z) => C:c(X,Z)").unwrap();
    b.add_rule("r3", "C:c(X,Y), C:c(Y,Z) => B:b(X,Z)").unwrap();
    b.add_rule("r4", "B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)")
        .unwrap();
    b.insert(4, "e", vec![Val::Int(1), Val::Int(2)]).unwrap();
    b.insert(4, "e", vec![Val::Int(2), Val::Int(3)]).unwrap();
    b.config_mut().trace_capacity = 64;
    // Figure 1 shows strict A4-style propagation (no flood).
    b.config_mut().initiation = p2p_core::config::Initiation::QueryPropagation;
    let mut sys = b.build().unwrap();
    sys.run_discovery();
    sys.run_update();
    sys.trace()
        .render_sequence_diagram(&[NodeId(0), NodeId(1), NodeId(2), NodeId(4)])
}

// ---------------------------------------------------------------------------
// E3/E7 — Section 5 scalability: size sweep × topology × distribution
// ---------------------------------------------------------------------------

/// The topology sweep of the scalability experiment ("up to 31 nodes").
pub fn scalability_topologies() -> Vec<Topology> {
    vec![
        Topology::Tree {
            branching: 2,
            depth: 1,
        }, // 3 nodes
        Topology::Tree {
            branching: 2,
            depth: 2,
        }, // 7
        Topology::Tree {
            branching: 2,
            depth: 3,
        }, // 15
        Topology::Tree {
            branching: 2,
            depth: 4,
        }, // 31
        Topology::LayeredDag {
            layers: 2,
            width: 2,
            fanout: 2,
        }, // 4
        Topology::LayeredDag {
            layers: 4,
            width: 2,
            fanout: 2,
        }, // 8
        Topology::LayeredDag {
            layers: 4,
            width: 4,
            fanout: 2,
        }, // 16
        Topology::LayeredDag {
            layers: 6,
            width: 5,
            fanout: 2,
        }, // 30
        Topology::Clique { n: 3 },
        Topology::Clique { n: 4 },
        Topology::Clique { n: 5 },
        Topology::Clique { n: 6 },
    ]
}

/// E3 + E7: execution time and message counts over network size, for both
/// data distributions.
pub fn e3_scalability(scale: Scale) -> Table {
    let mut table = Table::new(&[
        "topology",
        "nodes",
        "depth",
        "distribution",
        "time_ms",
        "messages",
        "bytes",
        "closed",
    ]);
    for topology in scalability_topologies() {
        for (dist, dist_name) in [
            (Distribution::Disjoint, "disjoint"),
            (Distribution::OverlapNeighbors { percent: 50 }, "overlap50"),
        ] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: dist,
                seed: 42,
            };
            let (p, _) = run_workload(&cfg, UpdateMode::Eager, true);
            table.row(vec![
                p.label.clone(),
                p.nodes.to_string(),
                p.depth.to_string(),
                dist_name.to_string(),
                fmt_ms(p.time_ms),
                p.messages.to_string(),
                p.bytes.to_string(),
                p.all_closed.to_string(),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// E4 — Section 5: execution time linear in depth (trees, layered DAGs)
// ---------------------------------------------------------------------------

/// E4 sweep definition: chains (unary trees) and fixed-width layered DAGs of
/// increasing depth.
pub fn depth_sweep() -> Vec<(&'static str, Vec<Topology>)> {
    vec![
        (
            "tree",
            (1..=8u32)
                .map(|d| Topology::Tree {
                    branching: 1,
                    depth: d,
                })
                .collect(),
        ),
        (
            "layered",
            (2..=8u32)
                .map(|l| Topology::LayeredDag {
                    layers: l,
                    width: 3,
                    fanout: 2,
                })
                .collect(),
        ),
    ]
}

/// E4: depth sweep plus a least-squares fit per family; the paper's claim is
/// a high-R² linear relation.
pub fn e4_depth_linearity(scale: Scale) -> (Table, Vec<(String, f64, f64)>) {
    let mut table = Table::new(&["family", "depth", "nodes", "time_ms", "messages"]);
    let mut fits = Vec::new();
    for (family, sweep) in depth_sweep() {
        let mut points = Vec::new();
        for topology in sweep {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: Distribution::Disjoint,
                seed: 42,
            };
            let (p, _) = run_workload(&cfg, UpdateMode::Eager, true);
            points.push((p.depth as f64, p.time_ms));
            table.row(vec![
                family.to_string(),
                p.depth.to_string(),
                p.nodes.to_string(),
                fmt_ms(p.time_ms),
                p.messages.to_string(),
            ]);
        }
        let (_, slope, r2) = linear_fit(&points);
        fits.push((family.to_string(), slope, r2));
    }
    (table, fits)
}

// ---------------------------------------------------------------------------
// E5 — sync vs async (Section 1/3 trade-off)
// ---------------------------------------------------------------------------

/// E5: eager (asynchronous) vs rounds (synchronous) on representative
/// topologies: convergence time vs message count.
pub fn e5_modes(scale: Scale) -> Table {
    let mut table = Table::new(&[
        "topology", "mode", "time_ms", "messages", "bytes", "rounds", "closed",
    ]);
    let topologies = [
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        Topology::LayeredDag {
            layers: 4,
            width: 3,
            fanout: 2,
        },
        Topology::Ring { n: 6 },
        Topology::Clique { n: 4 },
    ];
    for topology in topologies {
        for (mode, name) in [(UpdateMode::Eager, "eager"), (UpdateMode::Rounds, "rounds")] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: Distribution::Disjoint,
                seed: 42,
            };
            let (p, _) = run_workload(&cfg, mode, true);
            table.row(vec![
                p.label.clone(),
                name.to_string(),
                fmt_ms(p.time_ms),
                p.messages.to_string(),
                p.bytes.to_string(),
                p.rounds.to_string(),
                p.all_closed.to_string(),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// E6 — delta optimization ablation (Section 3)
// ---------------------------------------------------------------------------

/// E6: bytes shipped with the delta optimization on vs off, on overlapping
/// data (where re-sending full results is most wasteful).
pub fn e6_delta(scale: Scale) -> Table {
    let mut table = Table::new(&["topology", "delta", "messages", "bytes", "time_ms"]);
    let topologies = [
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        Topology::Ring { n: 5 },
    ];
    for topology in topologies {
        for delta in [true, false] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: Distribution::OverlapNeighbors { percent: 50 },
                seed: 42,
            };
            let (p, _) = run_workload(&cfg, UpdateMode::Eager, delta);
            table.row(vec![
                p.label.clone(),
                if delta { "on" } else { "off" }.to_string(),
                p.messages.to_string(),
                p.bytes.to_string(),
                fmt_ms(p.time_ms),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// E14 — delta-driven wave answers (rounds mode semi-naive ablation)
// ---------------------------------------------------------------------------

/// Machine-readable outcome of the delta-wave ablation (the CI smoke
/// asserts [`DeltaWavesSummary::ok`]).
#[derive(Debug, Clone)]
pub struct DeltaWavesSummary {
    /// Rows shipped with `delta_waves` on (cyclic topology).
    pub delta_rows_shipped: u64,
    /// Rows shipped by the full re-ship baseline (cyclic topology).
    pub full_rows_shipped: u64,
    /// `rows_saved` reported by the delta run (cyclic topology).
    pub rows_saved: u64,
    /// Both runs (and the paper example) converged to identical databases.
    pub identical: bool,
}

impl DeltaWavesSummary {
    /// The acceptance bar: identical fix-points, actual savings recorded,
    /// and ≥3× fewer rows over the wire on the cyclic topology.
    pub fn ok(&self) -> bool {
        self.identical
            && self.rows_saved > 0
            && self.delta_rows_shipped.max(1) * 3 <= self.full_rows_shipped
    }
}

/// The paper's Section 2 running example (5 nodes, rules r1–r4 with the
/// B↔C dependency cycle), seeded with a 5-fact chain at E so the cycle
/// needs several rounds. Shared by the E14 ablation and `bench_delta_waves`.
pub fn paper_example_builder() -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
    b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "c(x: int, y: int). f(x: int).")
        .unwrap();
    b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
    b.add_node_with_schema(4, "e(x: int, y: int).").unwrap();
    b.add_rule("r1", "E:e(X,Y) => B:b(X,Y)").unwrap();
    b.add_rule("r2", "B:b(X,Y), B:b(Y,Z) => C:c(X,Z)").unwrap();
    b.add_rule("r3", "C:c(X,Y), C:c(Y,Z) => B:b(X,Z)").unwrap();
    b.add_rule("r4", "B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)")
        .unwrap();
    for (x, y) in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)] {
        b.insert(4, "e", vec![Val::Int(x), Val::Int(y)]).unwrap();
    }
    b
}

/// One rounds-mode run of the delta-wave ablation. Returns the system (for
/// snapshot comparison) plus its aggregated stats and report.
pub fn run_delta_waves_once(
    mut b: P2PSystemBuilder,
    delta_waves: bool,
) -> (
    p2p_core::system::P2PSystem,
    p2p_core::stats::PeerStats,
    UpdateReport,
) {
    b.config_mut().mode = UpdateMode::Rounds;
    b.config_mut().paper_faithful = !delta_waves;
    b.config_mut().max_events = 50_000_000;
    let mut sys = b.build().expect("system builds");
    let report = sys.run_update();
    assert!(report.errors.is_empty(), "peer errors: {:?}", report.errors);
    let stats = sys.sum_stats();
    (sys, stats, report)
}

/// E14: rounds-mode traffic with delta-driven wave answers vs full re-ship,
/// on the paper's running example and a generated cyclic topology. The
/// summary (over the cyclic topology) backs the CI smoke.
pub fn e14_delta_waves(scale: Scale) -> (Table, DeltaWavesSummary) {
    let mut table = Table::new(&[
        "topology",
        "delta_waves",
        "rounds",
        "messages",
        "bytes",
        "rows_shipped",
        "delta_answers",
        "rows_saved",
    ]);
    let mut summary = DeltaWavesSummary {
        delta_rows_shipped: 0,
        full_rows_shipped: 0,
        rows_saved: 0,
        identical: true,
    };
    let ring = Topology::Ring { n: 8 };
    // (label, builder, feeds_summary): the cyclic workload feeds the
    // CI-gating summary.
    type BuilderFn = Box<dyn Fn() -> P2PSystemBuilder>;
    let builders: Vec<(String, BuilderFn, bool)> = vec![
        (
            "paper example".to_string(),
            Box::new(paper_example_builder),
            false,
        ),
        (
            ring.to_string(),
            Box::new(move || {
                build_system(&WorkloadConfig {
                    topology: ring,
                    records_per_node: scale.records(),
                    distribution: Distribution::Disjoint,
                    seed: 7,
                })
                .expect("workload builds")
            }),
            true,
        ),
    ];
    for (label, make, feeds_summary) in &builders {
        let (delta_sys, ds, dr) = run_delta_waves_once(make(), true);
        let (full_sys, fs, fr) = run_delta_waves_once(make(), false);
        let identical = delta_sys.snapshot().equivalent(&full_sys.snapshot())
            && delta_sys
                .snapshot()
                .equivalent(&delta_sys.oracle().expect("oracle"));
        summary.identical &= identical;
        if *feeds_summary {
            summary.delta_rows_shipped = ds.rows_shipped;
            summary.full_rows_shipped = fs.rows_shipped;
            summary.rows_saved = ds.rows_saved;
        }
        for (on, stats, report) in [(true, &ds, &dr), (false, &fs, &fr)] {
            table.row(vec![
                label.clone(),
                if on { "on" } else { "off" }.to_string(),
                report.rounds.to_string(),
                report.messages.to_string(),
                report.bytes.to_string(),
                stats.rows_shipped.to_string(),
                stats.delta_answers_sent.to_string(),
                stats.rows_saved.to_string(),
            ]);
        }
    }
    (table, summary)
}

// ---------------------------------------------------------------------------
// E15 — durability & churn: crash/restart with WAL + snapshot recovery
// ---------------------------------------------------------------------------

/// Machine-readable outcome of the churn experiment (the CI smoke asserts
/// [`ChurnSummary::ok`]).
#[derive(Debug, Clone)]
pub struct ChurnSummary {
    /// Peer crashes executed.
    pub crashes: u64,
    /// Successful storage recoveries.
    pub recoveries: u64,
    /// Rows re-shipped through the watermark-based resync protocol.
    pub resync_rows: u64,
    /// What a full re-propagation ships on the same workload (the
    /// `delta_waves = off` baseline's total rows over the wire).
    pub full_repropagation_rows: u64,
    /// Driver re-drives it took to re-certify closure.
    pub redrives: u32,
    /// The churned run converged tuple-identical to the no-churn run and
    /// the centralized oracle.
    pub identical: bool,
}

impl ChurnSummary {
    /// The acceptance bar: both crashes recovered, identical fix-point, and
    /// crash repair strictly cheaper than a full re-propagation.
    pub fn ok(&self) -> bool {
        self.identical
            && self.crashes >= 2
            && self.recoveries == self.crashes
            && self.resync_rows > 0
            && self.resync_rows < self.full_repropagation_rows
    }
}

/// The churn workload: the ring(8) cyclic topology in rounds mode with
/// delta waves, durability on (`durable = false` gives the amnesia
/// variant; `delta_waves = false` the full re-ship baseline).
pub fn churn_builder(scale: Scale, delta_waves: bool, durable: bool) -> P2PSystemBuilder {
    let mut b = build_system(&WorkloadConfig {
        topology: Topology::Ring { n: 8 },
        records_per_node: scale.records(),
        distribution: Distribution::Disjoint,
        seed: 7,
    })
    .expect("workload builds");
    b.config_mut().mode = UpdateMode::Rounds;
    b.config_mut().paper_faithful = !delta_waves;
    b.config_mut().durability = durable;
    b.config_mut().snapshot_every = 32;
    b.config_mut().max_events = 50_000_000;
    b
}

/// Two mid-session crashes scaled to the session length `t`: node 3 goes
/// down a quarter in, node 5 at the half-way mark, each for a sixth of the
/// session — squarely mid-wave at every scale.
pub fn ring_churn_plan(t: p2p_net::SimTime) -> p2p_net::ChurnPlan {
    use p2p_net::SimTime;
    p2p_net::ChurnPlan::none()
        .with_crash(NodeId(3), SimTime(t.0 / 4), SimTime(t.0 / 4 + t.0 / 6))
        .with_crash(NodeId(5), SimTime(t.0 / 2), SimTime(t.0 / 2 + t.0 / 6))
}

/// One churned run (probe + churned session); shared with `bench_churn`.
pub fn run_churn_once(
    scale: Scale,
    plan: p2p_net::ChurnPlan,
) -> (
    p2p_core::system::P2PSystem,
    p2p_core::stats::PeerStats,
    UpdateReport,
) {
    let mut b = churn_builder(scale, true, true);
    b.set_churn(plan);
    let mut sys = b.build().expect("system builds");
    let report = sys.run_update_resilient(8);
    assert!(report.errors.is_empty(), "peer errors: {:?}", report.errors);
    let stats = sys.sum_stats();
    (sys, stats, report)
}

/// E15: ring(8) with two scheduled peer crashes. The no-churn delta run
/// fixes the session length (and the reference fix-point); the full
/// re-ship baseline prices a full re-propagation; the churned run must
/// converge tuple-identical with `resync_rows` strictly below that price.
pub fn e15_churn(scale: Scale) -> (Table, ChurnSummary) {
    let mut table = Table::new(&[
        "run",
        "rounds",
        "redrives",
        "messages",
        "rows_shipped",
        "crashes",
        "recoveries",
        "resync_rows",
    ]);
    let mut row = |label: &str, s: &p2p_core::stats::PeerStats, r: &UpdateReport| {
        table.row(vec![
            label.to_string(),
            r.rounds.to_string(),
            r.redrives.to_string(),
            r.messages.to_string(),
            s.rows_shipped.to_string(),
            s.crashes.to_string(),
            s.recoveries.to_string(),
            s.resync_rows.to_string(),
        ]);
    };

    // No-churn probe: session length + reference fix-point.
    let mut clean = churn_builder(scale, true, true).build().expect("builds");
    let clean_report = clean.run_update();
    assert!(clean_report.all_closed, "probe must close");
    row("no churn (delta)", &clean.sum_stats(), &clean_report);

    // Full re-ship baseline: the cost of re-propagating everything.
    let mut full = churn_builder(scale, false, false).build().expect("builds");
    let full_report = full.run_update();
    let full_stats = full.sum_stats();
    row("no churn (full re-ship)", &full_stats, &full_report);

    // The churned run.
    let plan = ring_churn_plan(clean_report.outcome.virtual_time);
    let (churned, stats, report) = run_churn_once(scale, plan);
    row("2 crashes (durable)", &stats, &report);

    let identical = report.all_closed
        && churned.snapshot().equivalent(&clean.snapshot())
        && churned
            .snapshot()
            .equivalent(&churned.oracle().expect("oracle"));
    let summary = ChurnSummary {
        crashes: stats.crashes,
        recoveries: stats.recoveries,
        resync_rows: stats.resync_rows,
        full_repropagation_rows: full_stats.rows_shipped,
        redrives: report.redrives,
        identical,
    };
    (table, summary)
}

// ---------------------------------------------------------------------------
// E8 — dynamic changes: Theorem 2 + Definition 9 sandwich
// ---------------------------------------------------------------------------

/// E8: a finite add/delete script applied mid-run; reports termination,
/// closure and the Definition 9 soundness/completeness envelope.
pub fn e8_dynamic() -> Table {
    let mut table = Table::new(&[
        "scenario",
        "terminated",
        "all_closed",
        "sound",
        "complete",
        "messages",
    ]);

    let build = || {
        let mut b = P2PSystemBuilder::new();
        b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
        b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
        b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
        b.add_rule("r0", "B:b(X,Y) => A:a(X,Y)").unwrap();
        for i in 0..20i64 {
            b.insert(1, "b", vec![Val::Int(i), Val::Int(i + 1)])
                .unwrap();
            b.insert(2, "c", vec![Val::Int(100 + i), Val::Int(i)])
                .unwrap();
        }
        b.build().unwrap()
    };

    for (scenario, ops) in [
        ("add mid-run", vec![("add", 3u64)]),
        ("delete mid-run", vec![("del", 3)]),
        ("add+delete", vec![("add", 2), ("del", 5)]),
    ] {
        let mut sys = build();
        let mut script = ChangeScript::new();
        for (kind, at) in &ops {
            let op = match *kind {
                "add" => sys.make_add_link("rx", "C:c(X,Y) => A:a(X,Y)").unwrap(),
                _ => sys.make_delete_link("r0").unwrap(),
            };
            script.push(SimTime::from_millis(*at), op);
        }
        let report = sys.run_update_with_script(&script);
        let upper = sys
            .oracle_with(&p2p_core::dynamic::upper_reference(sys.rules(), &script))
            .unwrap();
        let lower = sys
            .oracle_with(&p2p_core::dynamic::lower_reference(sys.rules(), &script))
            .unwrap();
        let result = sys.snapshot();
        let sound = result
            .0
            .iter()
            .all(|(n, db)| contained_modulo_nulls(db, upper.node(*n).unwrap()));
        let complete = result
            .0
            .iter()
            .all(|(n, db)| contained_modulo_nulls(lower.node(*n).unwrap(), db));
        table.row(vec![
            scenario.to_string(),
            report.outcome.quiescent.to_string(),
            report.all_closed.to_string(),
            sound.to_string(),
            complete.to_string(),
            report.messages.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E9 — Theorem 3: separated subset under churn
// ---------------------------------------------------------------------------

/// E9: a two-component network with churn confined to one side; the
/// separated side must close regardless.
pub fn e9_separation() -> Table {
    let mut table = Table::new(&[
        "churn ops",
        "separated side closed",
        "churn side closed",
        "terminated",
    ]);
    for churn_ops in [2u64, 6, 12] {
        let mut b = P2PSystemBuilder::new();
        b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
        b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
        b.add_node_with_schema(2, "c(x: int, y: int).").unwrap();
        b.add_node_with_schema(3, "d(x: int, y: int).").unwrap();
        b.add_rule("rab", "B:b(X,Y) => A:a(X,Y)").unwrap();
        b.add_rule("rcd", "D:d(X,Y) => C:c(X,Y)").unwrap();
        for i in 0..10i64 {
            b.insert(1, "b", vec![Val::Int(i), Val::Int(i + 1)])
                .unwrap();
            b.insert(3, "d", vec![Val::Int(i), Val::Int(i + 2)])
                .unwrap();
        }
        let mut sys = b.build().unwrap();
        let mut script = ChangeScript::new();
        for k in 0..churn_ops {
            let add = sys
                .make_add_link(&format!("churn{k}"), "D:d(X,Y) => C:c(Y,X)")
                .unwrap();
            script.push(SimTime::from_millis(2 + 2 * k), add.clone());
            if let ChangeOp::AddLink { rule } = add {
                script.push(
                    SimTime::from_millis(3 + 2 * k),
                    ChangeOp::DeleteLink {
                        rule: rule.id,
                        head: rule.head_node,
                    },
                );
            }
        }
        let report = sys.run_update_with_script(&script);
        table.row(vec![
            (churn_ops * 2).to_string(),
            (sys.closed(NodeId(0)) && sys.closed(NodeId(1))).to_string(),
            (sys.closed(NodeId(2)) && sys.closed(NodeId(3))).to_string(),
            report.outcome.quiescent.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E10 — discovery cost
// ---------------------------------------------------------------------------

/// E10: topology-discovery messages and time vs network size — both
/// single-owner (super-peer only, the paper's A1) and all-owners (every
/// node learns its own paths).
pub fn e10_discovery() -> Table {
    let mut table = Table::new(&[
        "topology",
        "nodes",
        "initiators",
        "messages",
        "time_ms",
        "paths@super",
        "closed",
    ]);
    for topology in [
        Topology::Tree {
            branching: 2,
            depth: 2,
        },
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        Topology::Tree {
            branching: 2,
            depth: 4,
        },
        Topology::LayeredDag {
            layers: 4,
            width: 4,
            fanout: 2,
        },
        Topology::Clique { n: 4 },
        Topology::Clique { n: 6 },
        Topology::Ring { n: 8 },
    ] {
        for all_owners in [false, true] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: 1, // discovery ignores data
                distribution: Distribution::Disjoint,
                seed: 42,
            };
            let mut sys = build_system(&cfg).unwrap().build().unwrap();
            let report = if all_owners {
                sys.run_discovery_all()
            } else {
                sys.run_discovery()
            };
            let paths = sys
                .peer(sys.super_peer())
                .and_then(|p| p.paths().map(<[_]>::len))
                .unwrap_or(0);
            table.row(vec![
                topology.to_string(),
                topology.node_count().to_string(),
                if all_owners { "all" } else { "super" }.to_string(),
                report.messages.to_string(),
                fmt_ms(report.outcome.virtual_time.as_millis_f64()),
                paths.to_string(),
                report.all_closed.to_string(),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// E11 — baselines
// ---------------------------------------------------------------------------

/// E11: the distributed algorithm vs the centralized (global) and acyclic
/// baselines: messages, bytes, and the hottest node's inbound bytes.
pub fn e11_baselines(scale: Scale) -> Table {
    let mut table = Table::new(&[
        "topology",
        "algorithm",
        "messages",
        "bytes",
        "max_node_in_bytes",
    ]);
    for topology in [
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        Topology::LayeredDag {
            layers: 4,
            width: 3,
            fanout: 2,
        },
        Topology::Ring { n: 6 },
    ] {
        let cfg = WorkloadConfig {
            topology,
            records_per_node: scale.records(),
            distribution: Distribution::Disjoint,
            seed: 42,
        };
        // Distributed run.
        let mut b = build_system(&cfg).unwrap();
        b.config_mut().max_events = 50_000_000;
        let mut sys = b.build().unwrap();
        let initial = sys.snapshot().0;
        let rules = sys.rules().clone();
        let report = sys.run_update();
        table.row(vec![
            topology.to_string(),
            "distributed".to_string(),
            report.messages.to_string(),
            report.bytes.to_string(),
            sys.net_stats().max_node_bytes_received().to_string(),
        ]);
        // Centralized baseline over the same inputs.
        let (_, central) =
            centralized_update(&initial, &rules, NodeId(0), 64).expect("centralized runs");
        table.row(vec![
            topology.to_string(),
            "centralized".to_string(),
            central.messages.to_string(),
            central.bytes.to_string(),
            central.central_bytes_in.to_string(),
        ]);
        // Acyclic baseline (DAGs only).
        match acyclic_update(&initial, &rules, 64) {
            Ok((_, acyclic)) => table.row(vec![
                topology.to_string(),
                "acyclic".to_string(),
                acyclic.messages.to_string(),
                acyclic.bytes.to_string(),
                "-".to_string(),
            ]),
            Err(_) => table.row(vec![
                topology.to_string(),
                "acyclic".to_string(),
                "refused (cyclic)".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]),
        }
    }
    table
}

// ---------------------------------------------------------------------------
// E12 — path-count growth (the 2EXPTIME flavour) + Lemma 1 checks
// ---------------------------------------------------------------------------

/// E12: maximal-dependency-path counts on cliques (factorial growth — the
/// combinatorial core of the paper's 2EXPTIME bound) alongside a Lemma 1
/// check: at closure, the distributed state equals the fix-point oracle.
pub fn e12_growth() -> Table {
    let mut table = Table::new(&["clique n", "paths from node 0", "closed==fixpoint"]);
    for n in 3..=7u32 {
        let topology = Topology::Clique { n };
        let generated = topology.generate();
        let paths = maximal_dependency_paths(&generated.graph, NodeId(0), 1_000_000)
            .map(|p| p.len().to_string())
            .unwrap_or_else(|e| format!(">{}", e.limit));
        let cfg = WorkloadConfig {
            topology,
            records_per_node: 10,
            distribution: Distribution::Disjoint,
            seed: 42,
        };
        let mut sys = build_system(&cfg).unwrap().build().unwrap();
        let report = sys.run_update();
        let ok = report.all_closed && sys.snapshot().equivalent(&sys.oracle().expect("oracle"));
        table.row(vec![n.to_string(), paths, ok.to_string()]);
    }
    table
}

// ---------------------------------------------------------------------------
// E13 — initiation ablation: flood vs strict-A4 query propagation
// ---------------------------------------------------------------------------

/// E13: how the global start request spreads — the root's send to every
/// rostered node (default) vs the pseudocode's pure query propagation. On
/// super-peer-rooted topologies both cover everything; the flood pays one
/// request and its acknowledgement per node for its coverage guarantee.
pub fn e13_initiation(scale: Scale) -> Table {
    let mut table = Table::new(&["topology", "initiation", "messages", "bytes", "closed"]);
    for topology in [
        Topology::Tree {
            branching: 2,
            depth: 3,
        },
        Topology::Ring { n: 6 },
    ] {
        for (initiation, name) in [
            (p2p_core::config::Initiation::Flood, "flood"),
            (p2p_core::config::Initiation::QueryPropagation, "query-prop"),
        ] {
            let cfg = WorkloadConfig {
                topology,
                records_per_node: scale.records(),
                distribution: Distribution::Disjoint,
                seed: 42,
            };
            let mut b = build_system(&cfg).expect("builds");
            b.config_mut().initiation = initiation;
            let mut sys = b.build().expect("builds");
            let report = sys.run_update();
            table.row(vec![
                topology.to_string(),
                name.to_string(),
                report.messages.to_string(),
                report.bytes.to_string(),
                report.all_closed.to_string(),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// E17 — concurrent update sessions: interleaved initiators vs serial runs
// ---------------------------------------------------------------------------

/// Summary of the concurrent-sessions experiment.
#[derive(Debug, Clone)]
pub struct ConcurrentSummary {
    /// Number of interleaved sessions (writer roots).
    pub sessions: usize,
    /// Virtual time of the single interleaved run (all sessions overlap).
    pub concurrent_time_ms: f64,
    /// Virtual time of running the same sessions serially, back to back.
    pub serial_time_ms: f64,
    /// Sessions per virtual second in the interleaved run.
    pub sessions_per_s: f64,
    /// Whole-network deliveries of the interleaved run.
    pub concurrent_messages: u64,
    /// Whole-network deliveries of the serial baseline.
    pub serial_messages: u64,
    /// Per-session attributed deliveries in the interleaved run, in root
    /// order (from the transport layer's session-tagged counters).
    pub messages_per_session: Vec<u64>,
    /// Mean attributed deliveries per serial session (the baseline the
    /// per-session counts compare against).
    pub serial_messages_per_session: f64,
    /// Peak simultaneously-open sessions observed at any peer.
    pub concurrent_peak: u64,
    /// Live session-table entries left anywhere after quiescence (the
    /// retirement invariant: must be 0).
    pub leaked_entries: usize,
    /// Every session closed at every peer in both runs.
    pub all_closed: bool,
    /// Interleaved final DB == serial final DB == fix-point oracle (modulo
    /// null renaming).
    pub identical: bool,
}

impl ConcurrentSummary {
    /// The acceptance bar: identical fix-points, full closure, no leaked
    /// session state, real concurrency observed, and the interleaved run
    /// strictly faster than running the sessions serially.
    pub fn ok(&self) -> bool {
        self.identical
            && self.all_closed
            && self.leaked_entries == 0
            && self.concurrent_peak >= 2
            && self.concurrent_time_ms < self.serial_time_ms
    }
}

/// The concurrent-writers scenario the experiment runs: ring(8), four
/// writers spread around the ring, each with a fresh batch of records to
/// share.
pub fn concurrent_writers_config(scale: Scale) -> p2p_workload::ConcurrentConfig {
    p2p_workload::ConcurrentConfig {
        base: WorkloadConfig {
            topology: Topology::Ring { n: 8 },
            records_per_node: scale.records(),
            distribution: Distribution::Disjoint,
            seed: 7,
        },
        writers: 4,
        records_per_writer: (scale.records() / 4).max(5),
    }
}

/// Runs the interleaved half of E17 once (bench-reusable): inserts every
/// writer's delta, launches all sessions in one simulator run, returns the
/// system and per-session reports.
pub fn run_concurrent_once(scale: Scale) -> (p2p_core::system::P2PSystem, Vec<UpdateReport>) {
    let scenario =
        p2p_workload::concurrent_scenario(&concurrent_writers_config(scale)).expect("scenario");
    let roots = scenario.roots();
    let mut sys = scenario.builder.build().expect("system builds");
    for d in &scenario.deltas {
        for (rel, vals) in &d.tuples {
            sys.insert(d.node, rel, vals.clone()).expect("writer delta");
        }
    }
    let reports = sys.run_updates(&roots);
    (sys, reports)
}

/// E17: concurrent update sessions. N=4 writer-rooted global sessions run
/// (a) serially — insert a writer's fresh records, run its session to the
/// fix-point, repeat — and (b) interleaved in one simulator run. The
/// interleaved run must reach a final global database tuple-identical
/// (modulo null renaming) to the serial one and to the centralized oracle,
/// retire every session's state, and finish in less virtual time than the
/// serial back-to-back execution.
pub fn e17_concurrent(scale: Scale) -> (Table, ConcurrentSummary) {
    let cfg = concurrent_writers_config(scale);

    // -- serial baseline ---------------------------------------------------
    let scenario = p2p_workload::concurrent_scenario(&cfg).expect("scenario");
    let mut serial = scenario.builder.build().expect("system builds");
    let mut serial_closed = true;
    let mut serial_msgs_attr = 0u64;
    for d in &scenario.deltas {
        for (rel, vals) in &d.tuples {
            serial
                .insert(d.node, rel, vals.clone())
                .expect("writer delta");
        }
        let report = serial.run_update_from(d.node);
        serial_closed &= report.all_closed;
        serial_msgs_attr += report.session_messages;
    }
    let serial_time_ms = serial.net_stats().finished_at.as_millis_f64();
    let serial_messages = serial.net_stats().total_messages;

    // -- interleaved run ---------------------------------------------------
    let (sys, reports) = run_concurrent_once(scale);
    let concurrent_time_ms = reports[0].outcome.virtual_time.as_millis_f64();
    let concurrent_messages = reports[0].messages;
    let all_closed = serial_closed && reports.iter().all(|r| r.all_closed);
    let leaked_entries: usize = sys.peers().map(|(_, p)| p.session_table_len()).sum();
    let concurrent_peak = sys
        .peers()
        .map(|(_, p)| p.stats().concurrent_peak)
        .max()
        .unwrap_or(0);

    let oracle = sys.oracle().expect("oracle");
    let identical =
        sys.snapshot().equivalent(&serial.snapshot()) && sys.snapshot().equivalent(&oracle);

    let mut table = Table::new(&["session", "root", "messages", "bytes", "closed", "rounds"]);
    for r in &reports {
        table.row(vec![
            r.session.to_string(),
            r.session.root.to_string(),
            r.session_messages.to_string(),
            r.session_bytes.to_string(),
            r.all_closed.to_string(),
            r.rounds.to_string(),
        ]);
    }

    let summary = ConcurrentSummary {
        sessions: reports.len(),
        concurrent_time_ms,
        serial_time_ms,
        sessions_per_s: reports.len() as f64 / (concurrent_time_ms / 1_000.0).max(1e-9),
        concurrent_messages,
        serial_messages,
        messages_per_session: reports.iter().map(|r| r.session_messages).collect(),
        serial_messages_per_session: serial_msgs_attr as f64 / reports.len().max(1) as f64,
        concurrent_peak,
        leaked_entries,
        all_closed,
        identical,
    };
    (table, summary)
}

/// Renders a [`ConcurrentSummary`] as the machine-readable `BENCH_e17.json`
/// document (`repro e17` writes it next to the tables).
pub fn concurrent_summary_json(s: &ConcurrentSummary) -> String {
    let per_session: Vec<String> = s.messages_per_session.iter().map(u64::to_string).collect();
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e17_concurrent\",\n",
            "  \"sessions\": {},\n",
            "  \"concurrent_time_ms\": {:.3},\n",
            "  \"serial_time_ms\": {:.3},\n",
            "  \"speedup\": {:.3},\n",
            "  \"sessions_per_s\": {:.1},\n",
            "  \"concurrent_messages\": {},\n",
            "  \"serial_messages\": {},\n",
            "  \"messages_per_session\": [{}],\n",
            "  \"serial_messages_per_session\": {:.1},\n",
            "  \"concurrent_peak\": {},\n",
            "  \"leaked_entries\": {},\n",
            "  \"all_closed\": {},\n",
            "  \"identical\": {}\n",
            "}}\n"
        ),
        s.sessions,
        s.concurrent_time_ms,
        s.serial_time_ms,
        s.serial_time_ms / s.concurrent_time_ms.max(1e-9),
        s.sessions_per_s,
        s.concurrent_messages,
        s.serial_messages,
        per_session.join(", "),
        s.serial_messages_per_session,
        s.concurrent_peak,
        s.leaked_entries,
        s.all_closed,
        s.identical,
    )
}

// ---------------------------------------------------------------------------
// E18 — binary wire codec: whole-run wire bytes and time per codec
// ---------------------------------------------------------------------------

/// Machine-readable outcome of the codec experiment (the CI smoke asserts
/// [`CodecSummary::ok`]; `repro e18` also writes it to `BENCH_e18.json`).
#[derive(Debug, Clone)]
pub struct CodecSummary {
    /// Total wire bytes across every workload run under the JSON codec.
    pub json_bytes: u64,
    /// The same runs under the binary codec.
    pub binary_bytes: u64,
    /// `json_bytes / binary_bytes` — the whole-run wire shrink.
    pub shrink: f64,
    /// Summed virtual time of the JSON runs, milliseconds.
    pub json_time_ms: f64,
    /// Summed virtual time of the binary runs, milliseconds.
    pub binary_time_ms: f64,
    /// Deliveries under the JSON codec.
    pub json_messages: u64,
    /// Deliveries under the binary codec — must equal the JSON count: the
    /// codec changes bytes, never the protocol.
    pub binary_messages: u64,
    /// Per-answer payload bytes at the JSON size (the per-codec counters
    /// in `PeerStats`, summed over every run).
    pub payload_bytes_json: u64,
    /// The same payloads at the binary-codec size.
    pub payload_bytes_binary: u64,
    /// Every run closed at every peer.
    pub all_closed: bool,
    /// Each workload's fix-point is tuple-identical across the two codecs
    /// and equivalent to the centralized oracle.
    pub identical: bool,
}

impl CodecSummary {
    /// The acceptance bar: identical fix-points, full closure, identical
    /// message counts, and ≥3× whole-run wire shrink.
    pub fn ok(&self) -> bool {
        self.identical
            && self.all_closed
            && self.binary_bytes > 0
            && self.binary_bytes * 3 <= self.json_bytes
            && self.json_messages == self.binary_messages
    }
}

/// Canonical per-node fact rendering: the deterministic simulator makes
/// runs under both codecs content-identical, so exact string equality (not
/// just equivalence modulo nulls) is the comparison.
fn rendered_facts(
    sys: &p2p_core::system::P2PSystem,
) -> std::collections::BTreeMap<NodeId, Vec<String>> {
    sys.snapshot()
        .0
        .iter()
        .map(|(node, db)| {
            let mut v: Vec<String> = db
                .all_facts()
                .iter()
                .map(|(rel, t)| format!("{rel}{t}"))
                .collect();
            v.sort();
            (*node, v)
        })
        .collect()
}

/// E18: the wire-codec ablation. Three workloads — the paper's
/// running example, the ring(8) DBLP workload, and the four-writer
/// concurrent scenario — runs end to end under the JSON codec and again
/// under the binary codec. Byte/message/time ledgers per run; the summary
/// demands tuple-identical fix-points and a ≥3× whole-run wire shrink.
pub fn e18_codec(scale: Scale) -> (Table, CodecSummary) {
    let mut table = Table::new(&[
        "workload",
        "codec",
        "messages",
        "wire_bytes",
        "time_ms",
        "oracle_identical",
    ]);
    let mut summary = CodecSummary {
        json_bytes: 0,
        binary_bytes: 0,
        shrink: 0.0,
        json_time_ms: 0.0,
        binary_time_ms: 0.0,
        json_messages: 0,
        binary_messages: 0,
        payload_bytes_json: 0,
        payload_bytes_binary: 0,
        all_closed: true,
        identical: true,
    };
    let record = |summary: &mut CodecSummary,
                  codec: Codec,
                  bytes: u64,
                  messages: u64,
                  time_ms: f64,
                  stats: &p2p_core::stats::PeerStats| {
        match codec {
            Codec::Json => {
                summary.json_bytes += bytes;
                summary.json_messages += messages;
                summary.json_time_ms += time_ms;
                // The payload counters measure both codec sizes per send,
                // so one codec's run suffices for the pair.
                summary.payload_bytes_json += stats.payload_bytes;
                summary.payload_bytes_binary += stats.payload_bytes_binary;
            }
            Codec::Binary => {
                summary.binary_bytes += bytes;
                summary.binary_messages += messages;
                summary.binary_time_ms += time_ms;
            }
        }
    };

    // -- the sequential workload pair: paper example + ring(8) DBLP --------
    let ring = Topology::Ring { n: 8 };
    type BuilderFn = Box<dyn Fn() -> P2PSystemBuilder>;
    let builders: Vec<(String, BuilderFn)> = vec![
        ("paper example".to_string(), Box::new(paper_example_builder)),
        (
            ring.to_string(),
            Box::new(move || {
                build_system(&WorkloadConfig {
                    topology: ring,
                    records_per_node: scale.records(),
                    distribution: Distribution::Disjoint,
                    seed: 7,
                })
                .expect("workload builds")
            }),
        ),
    ];
    for (label, make) in &builders {
        let mut rendered = Vec::new();
        for codec in [Codec::Json, Codec::Binary] {
            let mut b = make();
            b.config_mut().codec = codec;
            b.config_mut().measure_payload_bytes = true;
            let mut sys = b.build().expect("system builds");
            let report = sys.run_update();
            assert!(report.errors.is_empty(), "peer errors: {:?}", report.errors);
            let time_ms = report.outcome.virtual_time.as_millis_f64();
            let oracle_identical = sys.snapshot().equivalent(&sys.oracle().expect("oracle"));
            summary.all_closed &= report.all_closed;
            summary.identical &= oracle_identical;
            record(
                &mut summary,
                codec,
                report.bytes,
                report.messages,
                time_ms,
                &sys.sum_stats(),
            );
            rendered.push(rendered_facts(&sys));
            table.row(vec![
                label.clone(),
                codec.to_string(),
                report.messages.to_string(),
                report.bytes.to_string(),
                fmt_ms(time_ms),
                oracle_identical.to_string(),
            ]);
        }
        summary.identical &= rendered[0] == rendered[1];
    }

    // -- the e17 workload: four interleaved writer sessions on ring(8) -----
    {
        let cfg = concurrent_writers_config(scale);
        let mut rendered = Vec::new();
        for codec in [Codec::Json, Codec::Binary] {
            let scenario = p2p_workload::concurrent_scenario(&cfg).expect("scenario");
            let roots = scenario.roots();
            let mut b = scenario.builder;
            b.config_mut().codec = codec;
            b.config_mut().measure_payload_bytes = true;
            let mut sys = b.build().expect("system builds");
            for d in &scenario.deltas {
                for (rel, vals) in &d.tuples {
                    sys.insert(d.node, rel, vals.clone()).expect("writer delta");
                }
            }
            let reports = sys.run_updates(&roots);
            let time_ms = reports[0].outcome.virtual_time.as_millis_f64();
            let oracle_identical = sys.snapshot().equivalent(&sys.oracle().expect("oracle"));
            summary.all_closed &= reports.iter().all(|r| r.all_closed);
            summary.identical &= oracle_identical;
            record(
                &mut summary,
                codec,
                reports[0].bytes,
                reports[0].messages,
                time_ms,
                &sys.sum_stats(),
            );
            rendered.push(rendered_facts(&sys));
            table.row(vec![
                "ring(8) ×4 writers".to_string(),
                codec.to_string(),
                reports[0].messages.to_string(),
                reports[0].bytes.to_string(),
                fmt_ms(time_ms),
                oracle_identical.to_string(),
            ]);
        }
        summary.identical &= rendered[0] == rendered[1];
    }

    summary.shrink = summary.json_bytes as f64 / summary.binary_bytes.max(1) as f64;
    (table, summary)
}

/// Renders a [`CodecSummary`] as the machine-readable `BENCH_e18.json`
/// document (`repro e18` writes it next to the tables).
pub fn codec_summary_json(s: &CodecSummary) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e18_codec\",\n",
            "  \"json_bytes\": {},\n",
            "  \"binary_bytes\": {},\n",
            "  \"wire_shrink\": {:.3},\n",
            "  \"json_time_ms\": {:.3},\n",
            "  \"binary_time_ms\": {:.3},\n",
            "  \"json_messages\": {},\n",
            "  \"binary_messages\": {},\n",
            "  \"payload_bytes_json\": {},\n",
            "  \"payload_bytes_binary\": {},\n",
            "  \"payload_shrink\": {:.3},\n",
            "  \"all_closed\": {},\n",
            "  \"identical\": {}\n",
            "}}\n"
        ),
        s.json_bytes,
        s.binary_bytes,
        s.shrink,
        s.json_time_ms,
        s.binary_time_ms,
        s.json_messages,
        s.binary_messages,
        s.payload_bytes_json,
        s.payload_bytes_binary,
        s.payload_bytes_json as f64 / s.payload_bytes_binary.max(1) as f64,
        s.all_closed,
        s.identical,
    )
}

// ---------------------------------------------------------------------------
// E19 — scaling the simulator: 10k-peer updates on expander overlays
// ---------------------------------------------------------------------------

/// One point of the e19 scaling curves.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Topology family (`ring`, `random`, `expander`, `smallworld`).
    pub family: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Wall-clock time of the full update run, milliseconds.
    pub wall_ms: f64,
    /// Virtual (simulated) time, milliseconds.
    pub virtual_ms: f64,
    /// Messages delivered.
    pub messages: u64,
    /// Bytes delivered.
    pub bytes: u64,
}

/// Machine-readable outcome of the scaling experiment (the CI smoke asserts
/// [`ScaleSummary::ok`]; `repro e19` also writes it to `BENCH_e19.json`).
#[derive(Debug, Clone)]
pub struct ScaleSummary {
    /// `item` tuples seeded per node.
    pub records_per_node: usize,
    /// The peers-vs-wall-clock / peers-vs-bytes curves, one point per
    /// (family, size) cell.
    pub points: Vec<ScalePoint>,
    /// Every run reached full closure at every peer.
    pub all_closed: bool,
    /// Every run's fix-point hit the scenario's closed-form tuple count
    /// (`(nodes + edges) × records`) exactly — the 10k-peer equivalent of
    /// an oracle check, without paying for a 10k-peer chase.
    pub counts_exact: bool,
    /// The small runs (smallest grid size, where the centralized chase is
    /// affordable) are equivalent to the oracle.
    pub oracle_identical: bool,
    /// Node count of the largest run in the grid.
    pub big_run_nodes: usize,
    /// Wall-clock milliseconds of the largest expander run — the headline
    /// "10k-peer update" number the acceptance gate bounds at 30 s.
    pub big_run_wall_ms: f64,
    /// Receivers in the fan-out microbenchmark.
    pub fanout_receivers: usize,
    /// Milliseconds to ship one answer payload to every receiver the
    /// pre-refactor way: clone the message and encode it once per receiver.
    pub fanout_legacy_ms: f64,
    /// The same fan-out the current way: encode once, share the payload
    /// behind an `Arc` across receivers.
    pub fanout_shared_ms: f64,
    /// `fanout_legacy_ms / fanout_shared_ms` — the per-payload broadcast
    /// speedup delivered by the shared-payload transport.
    pub fanout_speedup: f64,
}

impl ScaleSummary {
    /// The acceptance bar: full closure and exact closed-form fix-points
    /// everywhere, oracle equivalence where affordable, a ≥10k-peer run
    /// under 30 s of wall clock, and a ≥5× fan-out speedup over the
    /// per-receiver-encode baseline.
    pub fn ok(&self) -> bool {
        self.all_closed
            && self.counts_exact
            && self.oracle_identical
            && self.big_run_nodes >= 10_000
            && self.big_run_wall_ms < 30_000.0
            && self.fanout_speedup >= 5.0
    }
}

/// The per-receiver-encode fan-out baseline vs the shared-payload path, on
/// one representative answer message (256 two-column rows). Returns
/// `(legacy_ms, shared_ms)`.
///
/// The pre-refactor transport cloned and re-encoded the payload once per
/// receiver; the refactored one measures the payload once and hands every
/// receiver an `Arc` to the same bytes. The end-to-end pre-refactor binary
/// is gone from the tree, so this isolates exactly the per-receiver cost
/// the refactor removed — the dominant term of a broadcast at n=1k+.
fn fanout_microbench(receivers: usize) -> (f64, f64) {
    use p2p_core::messages::{AnswerRows, ProtocolMsg};
    use p2p_core::rule::RuleId;
    use p2p_net::{SessionId, Wire};
    use std::collections::BTreeMap;
    use std::hint::black_box;
    use std::sync::Arc;
    use std::time::Instant;

    let msg = ProtocolMsg::Answer {
        session: SessionId::new(NodeId(0), 1),
        rule: RuleId(0),
        rows: AnswerRows {
            vars: vec![Arc::from("I"), Arc::from("S")],
            rows: (0..256)
                .map(|i| p2p_relational::Tuple::new(vec![Val::Int(i), Val::Int(i * 7)]))
                .collect(),
            null_depths: vec![],
            marks: BTreeMap::new(),
            dict: vec![],
        },
        complete: true,
        reopen: false,
        pushed: false,
    };

    let t = Instant::now();
    let mut legacy_bytes = 0usize;
    for _ in 0..receivers {
        let copy = msg.clone();
        legacy_bytes += black_box(copy.wire_size_with(Codec::Binary));
    }
    let legacy_ms = t.elapsed().as_secs_f64() * 1000.0;

    let t = Instant::now();
    let shared = Arc::new(msg);
    let size = shared.wire_size_with(Codec::Binary);
    let mut shared_bytes = 0usize;
    for _ in 0..receivers {
        let handle = Arc::clone(&shared);
        black_box(&handle);
        shared_bytes += size;
    }
    let shared_ms = t.elapsed().as_secs_f64() * 1000.0;

    assert_eq!(legacy_bytes, shared_bytes, "both paths ship the same bytes");
    (legacy_ms, shared_ms)
}

/// The (family, size) grid of the scaling experiment. `Random` (edge
/// *probability*, integral percent) is capped at 1000 nodes: the sparsest
/// spec at 10k nodes already means ~10^6 edges — a different experiment
/// (density scaling), not peer scaling. Above that the random curve
/// switches to `RandomDegree` (edge *count*, `G(n, m)`), which holds the
/// mean degree flat at 8 — the same regime the expander/small-world
/// generators live in, so the 10k random point is comparable.
fn scale_grid(max_nodes: usize) -> Vec<(&'static str, Topology)> {
    let sizes = [100u32, 1_000, 10_000];
    let mut grid = Vec::new();
    for n in sizes {
        if n as usize > max_nodes {
            continue;
        }
        grid.push(("ring", Topology::Ring { n }));
        if n <= 1_000 {
            // 100 → ~8% ≈ 8 out-edges/node; 1000 → 1% ≈ 10 out-edges/node.
            let p_percent = if n <= 100 { 8 } else { 1 };
            grid.push((
                "random",
                Topology::Random {
                    n,
                    p_percent,
                    seed: 9,
                },
            ));
        } else {
            grid.push((
                "random",
                Topology::RandomDegree {
                    n,
                    degree: 8,
                    seed: 9,
                },
            ));
        }
        grid.push((
            "expander",
            Topology::Expander {
                n,
                degree: 4,
                seed: 7,
            },
        ));
        grid.push((
            "smallworld",
            Topology::SmallWorld {
                n,
                k: 4,
                rewire_percent: 10,
                seed: 7,
            },
        ));
    }
    grid
}

/// E19 with an explicit node-count ceiling — the unit tests run the same
/// code at toy sizes; `repro` and CI use [`e19_scale`] (full grid).
pub fn e19_scale_up_to(scale: Scale, max_nodes: usize) -> (Table, ScaleSummary) {
    use p2p_workload::{expected_total_tuples, scale_system, ScaleConfig};
    use std::time::Instant;

    let records = match scale {
        Scale::Quick => 4,
        Scale::Standard => 10,
        Scale::Paper => 20,
    };
    let mut table = Table::new(&[
        "family",
        "nodes",
        "wall_ms",
        "virtual_ms",
        "messages",
        "bytes",
        "msgs_per_s",
        "exact_fixpoint",
    ]);
    let mut summary = ScaleSummary {
        records_per_node: records,
        points: Vec::new(),
        all_closed: true,
        counts_exact: true,
        oracle_identical: true,
        big_run_nodes: 0,
        big_run_wall_ms: 0.0,
        fanout_receivers: 1024,
        fanout_legacy_ms: 0.0,
        fanout_shared_ms: 0.0,
        fanout_speedup: 0.0,
    };

    let grid = scale_grid(max_nodes);
    let smallest = grid.iter().map(|(_, t)| t.node_count()).min().unwrap_or(0);
    for (family, topology) in grid {
        let cfg = ScaleConfig {
            topology,
            records_per_node: records,
        };
        let mut sys = scale_system(&cfg)
            .expect("scale workload builds")
            .build()
            .expect("system builds");
        let t = Instant::now();
        let report = sys.run_update();
        let wall_ms = t.elapsed().as_secs_f64() * 1000.0;
        assert!(report.errors.is_empty(), "{topology}: {:?}", report.errors);

        let nodes = topology.node_count();
        let exact = sys.snapshot().total_tuples() == expected_total_tuples(&cfg);
        summary.all_closed &= report.all_closed;
        summary.counts_exact &= exact;
        if nodes == smallest {
            summary.oracle_identical &= sys.snapshot().equivalent(&sys.oracle().expect("oracle"));
        }
        if family == "expander" && nodes > summary.big_run_nodes {
            summary.big_run_nodes = nodes;
            summary.big_run_wall_ms = wall_ms;
        }
        let msgs_per_s = report.messages as f64 / (wall_ms / 1000.0).max(1e-9);
        table.row(vec![
            family.to_string(),
            nodes.to_string(),
            fmt_ms(wall_ms),
            fmt_ms(report.outcome.virtual_time.as_millis_f64()),
            report.messages.to_string(),
            report.bytes.to_string(),
            format!("{msgs_per_s:.0}"),
            exact.to_string(),
        ]);
        summary.points.push(ScalePoint {
            family,
            nodes,
            wall_ms,
            virtual_ms: report.outcome.virtual_time.as_millis_f64(),
            messages: report.messages,
            bytes: report.bytes,
        });
    }

    let (legacy_ms, shared_ms) = fanout_microbench(summary.fanout_receivers);
    summary.fanout_legacy_ms = legacy_ms;
    summary.fanout_shared_ms = shared_ms;
    summary.fanout_speedup = legacy_ms / shared_ms.max(1e-9);
    (table, summary)
}

/// E19: the scaling experiment. The flat `scale` scenario (one-hop copy
/// rules, closed-form fix-point — see `p2p_workload::scale`) runs across
/// {ring, random, expander, small-world} at n ∈ {100, 1k, 10k}, measuring
/// wall-clock, virtual time, messages and bytes per point, plus the
/// fan-out microbenchmark isolating the shared-payload speedup.
pub fn e19_scale(scale: Scale) -> (Table, ScaleSummary) {
    e19_scale_up_to(scale, 10_000)
}

/// Renders a [`ScaleSummary`] as the machine-readable `BENCH_e19.json`
/// document (`repro e19` writes it next to the tables).
pub fn scale_summary_json(s: &ScaleSummary) -> String {
    let mut curves = String::new();
    for (i, p) in s.points.iter().enumerate() {
        let sep = if i + 1 == s.points.len() { "" } else { "," };
        curves.push_str(&format!(
            "    {{\"family\": \"{}\", \"nodes\": {}, \"wall_ms\": {:.3}, \
             \"virtual_ms\": {:.3}, \"messages\": {}, \"bytes\": {}}}{sep}\n",
            p.family, p.nodes, p.wall_ms, p.virtual_ms, p.messages, p.bytes,
        ));
    }
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e19_scale\",\n",
            "  \"records_per_node\": {},\n",
            "  \"curves\": [\n{}  ],\n",
            "  \"big_run_nodes\": {},\n",
            "  \"big_run_wall_ms\": {:.3},\n",
            "  \"fanout_receivers\": {},\n",
            "  \"fanout_legacy_ms\": {:.3},\n",
            "  \"fanout_shared_ms\": {:.3},\n",
            "  \"fanout_speedup\": {:.3},\n",
            "  \"all_closed\": {},\n",
            "  \"counts_exact\": {},\n",
            "  \"oracle_identical\": {}\n",
            "}}\n"
        ),
        s.records_per_node,
        curves,
        s.big_run_nodes,
        s.big_run_wall_ms,
        s.fanout_receivers,
        s.fanout_legacy_ms,
        s.fanout_shared_ms,
        s.fanout_speedup,
        s.all_closed,
        s.counts_exact,
        s.oracle_identical,
    )
}

// ---------------------------------------------------------------------------
// E20 — real sockets: multi-process cluster vs the in-process simulator
// ---------------------------------------------------------------------------

/// One codec's side of the transport experiment.
#[derive(Debug, Clone)]
pub struct TransportRun {
    /// Codec label (`json` / `binary`).
    pub codec: String,
    /// Wall-clock from first spawn to cluster fix-point, milliseconds.
    pub wall_ms: f64,
    /// Frames sent across all pipes.
    pub frames: u64,
    /// Payload bytes sent across all pipes.
    pub bytes: u64,
    /// Mid-stream pipe reconnects (0 on a healthy loopback run).
    pub reconnects: u64,
    /// The cluster database matched the simulator *and* the oracle.
    pub verified: bool,
    /// Messages the in-process simulator delivered on the same workload.
    pub sim_messages: u64,
    /// Bytes the in-process simulator shipped on the same workload.
    pub sim_bytes: u64,
}

/// Machine-readable outcome of the transport experiment (the CI smoke
/// asserts [`TransportSummary::ok`]; `repro e20` writes `BENCH_e20.json`).
#[derive(Debug, Clone)]
pub struct TransportSummary {
    /// Nodes in the cluster (one OS process each).
    pub nodes: usize,
    /// The JSON-codec cluster run.
    pub json: TransportRun,
    /// The binary-codec cluster run.
    pub binary: TransportRun,
}

impl TransportSummary {
    /// The acceptance bar: both clusters converged to the simulator's (and
    /// the oracle's) exact fix-point, real frames crossed the wire, and
    /// the binary codec shipped fewer bytes than JSON end-to-end.
    pub fn ok(&self) -> bool {
        self.json.verified
            && self.binary.verified
            && self.json.frames > 0
            && self.binary.frames > 0
            && self.binary.bytes < self.json.bytes
    }
}

/// Where the `p2pdb` binary lives: `$P2PDB_BIN` if set, else next to the
/// running executable (both binaries land in the same `target/<profile>`).
fn p2pdb_bin() -> Result<std::path::PathBuf, String> {
    if let Ok(p) = std::env::var("P2PDB_BIN") {
        let p = std::path::PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(format!("P2PDB_BIN={} does not exist", p.display()));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name("p2pdb");
    if sibling.is_file() {
        return Ok(sibling);
    }
    Err(format!(
        "p2pdb binary not found at {} — build it first (`cargo build --release --bin p2pdb`) \
         or point P2PDB_BIN at it",
        sibling.display()
    ))
}

/// E20: the ring(8) DBLP workload as a *real* cluster — eight `p2pdb
/// serve` OS processes on loopback TCP, driven to the update fix-point and
/// verified tuple-for-tuple against the in-process simulator and the
/// centralized oracle, once per wire codec. Errs (rather than panicking)
/// when the `p2pdb` binary is missing, so `repro` can report it plainly.
pub fn e20_transport(scale: Scale) -> Result<(Table, TransportSummary), String> {
    let bin = p2pdb_bin()?;
    let cfg = WorkloadConfig {
        topology: Topology::Ring { n: 8 },
        records_per_node: scale.records(),
        distribution: Distribution::Disjoint,
        seed: 7,
    };
    let sys = build_system(&cfg)
        .map_err(|e| e.to_string())?
        .build()
        .map_err(|e| e.to_string())?;
    let netfile = p2p_core::netfile::NetworkFile::from_databases(
        sys.super_peer(),
        &sys.snapshot().0,
        sys.rules(),
    );
    let dir = std::env::temp_dir().join("p2pdb_e20");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let netfile_path = dir.join("ring8.json");
    std::fs::write(&netfile_path, netfile.to_json()).map_err(|e| e.to_string())?;

    let mut table = Table::new(&[
        "codec",
        "wall_ms",
        "frames",
        "wire_bytes",
        "reconnects",
        "sim_messages",
        "sim_bytes",
        "verified",
    ]);
    let mut runs = Vec::new();
    for codec in [Codec::Json, Codec::Binary] {
        let mut ccfg = p2p_core::socket::ClusterConfig::new(netfile_path.clone(), bin.clone());
        ccfg.codec = codec;
        let outcome =
            p2p_core::socket::launch_cluster(&ccfg, &mut |_| {}).map_err(|e| e.to_string())?;
        let t = &outcome.transport_total;
        let run = TransportRun {
            codec: codec.name().to_string(),
            wall_ms: outcome.converge_wall.as_secs_f64() * 1e3,
            frames: t.frames_sent,
            bytes: t.bytes_sent,
            reconnects: t.reconnects,
            verified: outcome.verified == Some(true),
            sim_messages: outcome.sim_messages,
            sim_bytes: outcome.sim_bytes,
        };
        table.row(vec![
            run.codec.clone(),
            fmt_ms(run.wall_ms),
            run.frames.to_string(),
            run.bytes.to_string(),
            run.reconnects.to_string(),
            run.sim_messages.to_string(),
            run.sim_bytes.to_string(),
            run.verified.to_string(),
        ]);
        runs.push(run);
    }
    let binary = runs.pop().expect("two runs");
    let json = runs.pop().expect("two runs");
    Ok((
        table,
        TransportSummary {
            nodes: 8,
            json,
            binary,
        },
    ))
}

fn transport_run_json(r: &TransportRun) -> String {
    format!(
        "{{\"codec\": \"{}\", \"wall_ms\": {:.3}, \"frames\": {}, \"bytes\": {}, \
         \"reconnects\": {}, \"verified\": {}, \"sim_messages\": {}, \"sim_bytes\": {}}}",
        r.codec,
        r.wall_ms,
        r.frames,
        r.bytes,
        r.reconnects,
        r.verified,
        r.sim_messages,
        r.sim_bytes,
    )
}

/// Renders a [`TransportSummary`] as the machine-readable `BENCH_e20.json`
/// document (`repro e20` writes it next to the tables).
pub fn transport_summary_json(s: &TransportSummary) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e20_transport\",\n",
            "  \"nodes\": {},\n",
            "  \"json\": {},\n",
            "  \"binary\": {},\n",
            "  \"ok\": {}\n",
            "}}\n"
        ),
        s.nodes,
        transport_run_json(&s.json),
        transport_run_json(&s.binary),
        s.ok(),
    )
}

// ---------------------------------------------------------------------------
// E21 — parallel runtime: sharded worker pool vs the single-thread simulator
// ---------------------------------------------------------------------------

/// One (size, shard-count) cell of the parallel experiment. `shards == 0`
/// is the deterministic simulator baseline for that size.
#[derive(Debug, Clone)]
pub struct ParallelPoint {
    /// Node count of the expander run.
    pub nodes: usize,
    /// Shard threads (0 = simulator baseline).
    pub shards: usize,
    /// Wall-clock time of the full update run, milliseconds.
    pub wall_ms: f64,
    /// Messages delivered.
    pub messages: u64,
    /// Sends that crossed a shard boundary (0 for the simulator).
    pub cross_shard_sends: u64,
    /// Wall-clock of the 1-shard run divided by this cell's wall-clock
    /// (1.0 for the 1-shard cell itself; 0.0 for the simulator baseline).
    pub speedup: f64,
    /// The sharded fix-point is equivalent (modulo null renaming) to the
    /// simulator's fix-point on the same workload (true for the baseline).
    pub matches_simulator: bool,
    /// The fix-point hit the closed-form tuple count exactly.
    pub exact_fixpoint: bool,
}

/// Machine-readable outcome of the parallel-runtime experiment (the CI
/// smoke asserts [`ParallelSummary::ok`]; `repro e21` also writes it to
/// `BENCH_e21.json`).
#[derive(Debug, Clone)]
pub struct ParallelSummary {
    /// `item` tuples seeded per node.
    pub records_per_node: usize,
    /// `std::thread::available_parallelism()` on the measuring host. The
    /// speedup gates only bind when this is ≥ 4: a sharded runtime cannot
    /// beat single-thread wall-clock on a single-core box, and pretending
    /// otherwise would just make CI green-on-my-machine.
    pub host_cores: usize,
    /// The (size × shard-count) wall-clock grid, simulator baselines
    /// included.
    pub points: Vec<ParallelPoint>,
    /// Every run (simulator and sharded) reached full closure.
    pub all_closed: bool,
    /// Every run's fix-point hit the closed-form tuple count exactly.
    pub counts_exact: bool,
    /// Every sharded fix-point is equivalent to the simulator's.
    pub matches_simulator: bool,
    /// The smallest sharded run is equivalent to the centralized oracle
    /// (the sizes where the chase is affordable).
    pub oracle_identical: bool,
    /// Node count of the largest run in the grid.
    pub big_run_nodes: usize,
    /// 1k-node expander: wall(1 shard) / wall(4 shards). 0.0 if the grid
    /// was capped below 1k nodes (toy/unit-test runs).
    pub speedup_small_4: f64,
    /// 10k-node expander: wall(1 shard) / wall(8 shards). 0.0 if capped.
    pub speedup_big_8: f64,
    /// Ring placement probe: cross-shard sends under round-robin placement
    /// (peer i on shard i mod T — every ring hop crosses).
    pub rr_cross_shard: u64,
    /// The same ring under contiguous-blocks placement (only the block
    /// seams cross).
    pub blocks_cross_shard: u64,
}

impl ParallelSummary {
    /// The acceptance bar. Correctness gates are unconditional: full
    /// closure, exact closed-form fix-points, equivalence with the
    /// simulator everywhere, oracle identity where affordable, and the
    /// blocks placement strictly beating round-robin on ring locality.
    /// The wall-clock gates (≥1.5× at 4 shards on 1k nodes, ≥2× at 8
    /// shards on 10k) additionally require a host with ≥ 4 cores and a
    /// grid that actually ran those sizes.
    pub fn ok(&self) -> bool {
        let correct = self.all_closed
            && self.counts_exact
            && self.matches_simulator
            && self.oracle_identical
            && self.blocks_cross_shard < self.rr_cross_shard;
        let gates_bind = self.host_cores >= 4;
        let small_ok = self.speedup_small_4 <= 0.0 || self.speedup_small_4 >= 1.5;
        let big_ok = self.speedup_big_8 <= 0.0 || self.speedup_big_8 >= 2.0;
        correct && (!gates_bind || (small_ok && big_ok))
    }
}

/// Shard counts every size is measured at.
const E21_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// E21 with an explicit node-count ceiling — the unit tests run the same
/// code at toy sizes; `repro` and CI use [`e21_parallel`] (full grid).
pub fn e21_parallel_up_to(scale: Scale, max_nodes: usize) -> (Table, ParallelSummary) {
    use p2p_core::system::run_update_sharded;
    use p2p_net::ShardPlacement;
    use p2p_workload::{expected_total_tuples, scale_system, ScaleConfig};
    use std::time::Instant;

    let records = match scale {
        Scale::Quick => 4,
        Scale::Standard => 10,
        Scale::Paper => 20,
    };
    let mut table = Table::new(&[
        "nodes",
        "runtime",
        "shards",
        "wall_ms",
        "messages",
        "cross_shard",
        "speedup",
        "matches_sim",
        "exact_fixpoint",
    ]);
    let mut summary = ParallelSummary {
        records_per_node: records,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        points: Vec::new(),
        all_closed: true,
        counts_exact: true,
        matches_simulator: true,
        oracle_identical: true,
        big_run_nodes: 0,
        speedup_small_4: 0.0,
        speedup_big_8: 0.0,
        rr_cross_shard: 0,
        blocks_cross_shard: 0,
    };

    let sizes: Vec<u32> = [100u32, 1_000, 10_000]
        .into_iter()
        .filter(|&n| n as usize <= max_nodes)
        .collect();
    let smallest = sizes.first().copied().unwrap_or(0);
    for &n in &sizes {
        let cfg = ScaleConfig {
            topology: Topology::Expander {
                n,
                degree: 4,
                seed: 7,
            },
            records_per_node: records,
        };
        let expected = expected_total_tuples(&cfg);

        // Simulator baseline: the deterministic single-thread fix-point the
        // sharded runs must reproduce (modulo null renaming).
        let mut sys = scale_system(&cfg)
            .expect("scale workload builds")
            .build()
            .expect("system builds");
        let t = Instant::now();
        let report = sys.run_update();
        let sim_wall = t.elapsed().as_secs_f64() * 1000.0;
        assert!(
            report.errors.is_empty(),
            "{}: {:?}",
            cfg.topology,
            report.errors
        );
        let sim_db = sys.snapshot();
        let sim_exact = sim_db.total_tuples() == expected;
        summary.all_closed &= report.all_closed;
        summary.counts_exact &= sim_exact;
        summary.big_run_nodes = summary.big_run_nodes.max(n as usize);
        summary.points.push(ParallelPoint {
            nodes: n as usize,
            shards: 0,
            wall_ms: sim_wall,
            messages: report.messages,
            cross_shard_sends: 0,
            speedup: 0.0,
            matches_simulator: true,
            exact_fixpoint: sim_exact,
        });

        let mut one_shard_wall = 0.0f64;
        for shards in E21_SHARDS {
            let builder = scale_system(&cfg).expect("scale workload builds");
            let t = Instant::now();
            let (db, stats, closed) =
                run_update_sharded(builder, shards, ShardPlacement::RoundRobin)
                    .expect("sharded run");
            let wall = t.elapsed().as_secs_f64() * 1000.0;
            if shards == 1 {
                one_shard_wall = wall;
            }
            let matches = db.equivalent(&sim_db);
            let exact = db.total_tuples() == expected;
            summary.all_closed &= closed;
            summary.counts_exact &= exact;
            summary.matches_simulator &= matches;
            if n == smallest {
                summary.oracle_identical &= db.equivalent(&sys.oracle().expect("oracle"));
            }
            let speedup = one_shard_wall / wall.max(1e-9);
            if n == 1_000 && shards == 4 {
                summary.speedup_small_4 = speedup;
            }
            if n == 10_000 && shards == 8 {
                summary.speedup_big_8 = speedup;
            }
            summary.points.push(ParallelPoint {
                nodes: n as usize,
                shards,
                wall_ms: wall,
                messages: stats.total_messages,
                cross_shard_sends: stats.cross_shard_sends,
                speedup,
                matches_simulator: matches,
                exact_fixpoint: exact,
            });
        }
    }

    for p in &summary.points {
        table.row(vec![
            p.nodes.to_string(),
            if p.shards == 0 { "sim" } else { "sharded" }.to_string(),
            if p.shards == 0 {
                "-".to_string()
            } else {
                p.shards.to_string()
            },
            fmt_ms(p.wall_ms),
            p.messages.to_string(),
            p.cross_shard_sends.to_string(),
            if p.shards == 0 {
                "-".to_string()
            } else {
                format!("{:.2}x", p.speedup)
            },
            p.matches_simulator.to_string(),
            p.exact_fixpoint.to_string(),
        ]);
    }

    // Placement probe: the same ring update under both placements. On a
    // ring every pipe joins neighbours, so round-robin (i mod T) makes
    // every hop cross-shard while contiguous blocks only pay at the seams.
    let ring = ScaleConfig {
        topology: Topology::Ring { n: 256 },
        records_per_node: records,
    };
    for (placement, slot) in [
        (ShardPlacement::RoundRobin, &mut summary.rr_cross_shard),
        (ShardPlacement::Blocks, &mut summary.blocks_cross_shard),
    ] {
        let builder = scale_system(&ring).expect("scale workload builds");
        let (_, stats, closed) = run_update_sharded(builder, 4, placement).expect("ring run");
        summary.all_closed &= closed;
        *slot = stats.cross_shard_sends;
    }

    (table, summary)
}

/// E21: the parallel-runtime experiment. The closed-form `scale` scenario
/// on expander overlays (degree 4) runs once on the simulator and once per
/// shard count T ∈ {1, 2, 4, 8} on the sharded runtime, at n ∈
/// {100, 1k, 10k} — measuring wall-clock against shard count and checking
/// every sharded fix-point against the simulator, the closed form and (at
/// n=100) the centralized oracle. A ring probe compares round-robin and
/// contiguous-blocks placement by [`p2p_net::NetStats::cross_shard_sends`].
pub fn e21_parallel(scale: Scale) -> (Table, ParallelSummary) {
    e21_parallel_up_to(scale, 10_000)
}

/// Renders a [`ParallelSummary`] as the machine-readable `BENCH_e21.json`
/// document (`repro e21` writes it next to the tables).
pub fn parallel_summary_json(s: &ParallelSummary) -> String {
    let mut curves = String::new();
    for (i, p) in s.points.iter().enumerate() {
        let sep = if i + 1 == s.points.len() { "" } else { "," };
        curves.push_str(&format!(
            "    {{\"nodes\": {}, \"runtime\": \"{}\", \"shards\": {}, \
             \"wall_ms\": {:.3}, \"messages\": {}, \"cross_shard_sends\": {}, \
             \"speedup\": {:.3}, \"matches_simulator\": {}, \
             \"exact_fixpoint\": {}}}{sep}\n",
            p.nodes,
            if p.shards == 0 { "sim" } else { "sharded" },
            p.shards,
            p.wall_ms,
            p.messages,
            p.cross_shard_sends,
            p.speedup,
            p.matches_simulator,
            p.exact_fixpoint,
        ));
    }
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e21_parallel\",\n",
            "  \"records_per_node\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"curves\": [\n{}  ],\n",
            "  \"big_run_nodes\": {},\n",
            "  \"speedup_small_4\": {:.3},\n",
            "  \"speedup_big_8\": {:.3},\n",
            "  \"rr_cross_shard\": {},\n",
            "  \"blocks_cross_shard\": {},\n",
            "  \"all_closed\": {},\n",
            "  \"counts_exact\": {},\n",
            "  \"matches_simulator\": {},\n",
            "  \"oracle_identical\": {},\n",
            "  \"ok\": {}\n",
            "}}\n"
        ),
        s.records_per_node,
        s.host_cores,
        curves,
        s.big_run_nodes,
        s.speedup_small_4,
        s.speedup_big_8,
        s.rr_cross_shard,
        s.blocks_cross_shard,
        s.all_closed,
        s.counts_exact,
        s.matches_simulator,
        s.oracle_identical,
        s.ok(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_scale_toy_grid_is_exact_and_fanout_is_shared() {
        // The full grid (10k peers) belongs to `repro --quick e19` in
        // release; the unit test runs the identical code at n=100.
        let (table, summary) = e19_scale_up_to(Scale::Quick, 100);
        let rendered = table.render();
        assert!(summary.all_closed, "{rendered}");
        assert!(summary.counts_exact, "{rendered}");
        assert!(summary.oracle_identical, "{rendered}");
        assert_eq!(summary.points.len(), 4, "{rendered}");
        assert!(
            summary.fanout_speedup >= 5.0,
            "shared fan-out must beat per-receiver encodes 5x, got {:.1}x",
            summary.fanout_speedup
        );
        let json = scale_summary_json(&summary);
        assert!(json.contains("\"experiment\": \"e19_scale\""), "{json}");
        assert!(json.contains("\"family\": \"expander\""), "{json}");
    }

    #[test]
    fn e21_parallel_toy_grid_matches_simulator_and_oracle() {
        // The full grid (10k peers, 8 shards) belongs to `repro e21` in
        // release; the unit test runs the identical code at n=100.
        let (table, summary) = e21_parallel_up_to(Scale::Quick, 100);
        let rendered = table.render();
        assert!(summary.all_closed, "{rendered}");
        assert!(summary.counts_exact, "{rendered}");
        assert!(summary.matches_simulator, "{rendered}");
        assert!(summary.oracle_identical, "{rendered}");
        // n=100, sim baseline + 4 shard counts.
        assert_eq!(summary.points.len(), 5, "{rendered}");
        assert!(
            summary.blocks_cross_shard < summary.rr_cross_shard,
            "blocks placement must beat round-robin on a ring: {} vs {}",
            summary.blocks_cross_shard,
            summary.rr_cross_shard
        );
        // Toy grid never ran 1k/10k, so the speedup gates must not bind.
        assert_eq!(summary.speedup_small_4, 0.0);
        assert_eq!(summary.speedup_big_8, 0.0);
        assert!(summary.ok(), "{rendered}");
        let json = parallel_summary_json(&summary);
        assert!(json.contains("\"experiment\": \"e21_parallel\""), "{json}");
        assert!(json.contains("\"host_cores\""), "{json}");
    }

    #[test]
    fn e20_transport_summary_gates_on_verification_and_shrink() {
        // Launching the 8-process cluster belongs to `repro e20` (it needs
        // the p2pdb binary on disk); the summary logic and the JSON
        // document are unit-testable as-is.
        let run = |codec: &str, bytes: u64, verified: bool| TransportRun {
            codec: codec.into(),
            wall_ms: 80.0,
            frames: 61,
            bytes,
            reconnects: 0,
            verified,
            sim_messages: 70,
            sim_bytes: 16_000,
        };
        let good = TransportSummary {
            nodes: 8,
            json: run("json", 16_000, true),
            binary: run("binary", 5_000, true),
        };
        assert!(good.ok());
        let diverged = TransportSummary {
            binary: run("binary", 5_000, false),
            ..good.clone()
        };
        assert!(!diverged.ok(), "an unverified run must fail the smoke");
        let no_shrink = TransportSummary {
            binary: run("binary", 16_000, true),
            ..good.clone()
        };
        assert!(!no_shrink.ok(), "binary must ship fewer bytes than json");

        let json = transport_summary_json(&good);
        assert!(json.contains("\"experiment\": \"e20_transport\""), "{json}");
        assert!(json.contains("\"ok\": true"), "{json}");
        assert!(json.contains("\"codec\": \"binary\""), "{json}");
    }

    #[test]
    fn e1_matches_corrected_table() {
        let t = e1_paper_paths();
        let s = t.render();
        assert!(s.contains("ABCA ABCB ABCDA ABE"));
        assert!(s.contains("∅"));
    }

    #[test]
    fn e2_trace_mentions_paper_message_names() {
        let s = e2_figure1_trace();
        assert!(s.contains("requestNodes"), "{s}");
        assert!(s.contains("Query"), "{s}");
        assert!(s.contains("Answer"), "{s}");
    }

    #[test]
    fn e5_has_both_modes_per_topology() {
        let t = e5_modes(Scale::Quick);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn e14_delta_waves_saves_3x_on_the_cyclic_topology() {
        let (table, summary) = e14_delta_waves(Scale::Quick);
        let s = table.render();
        assert!(
            summary.ok(),
            "summary {summary:?} failed the acceptance bar\n{s}"
        );
        assert!(
            summary.delta_rows_shipped * 3 <= summary.full_rows_shipped,
            "{summary:?}"
        );
    }

    #[test]
    fn e15_churn_recovers_identically_and_cheaper_than_repropagation() {
        let (table, summary) = e15_churn(Scale::Quick);
        let s = table.render();
        assert!(
            summary.ok(),
            "summary {summary:?} failed the acceptance bar\n{s}"
        );
        assert!(
            summary.crashes >= 2 && summary.recoveries >= 2,
            "{summary:?}"
        );
        assert!(
            summary.resync_rows < summary.full_repropagation_rows,
            "{summary:?}"
        );
    }

    #[test]
    fn e17_concurrent_matches_serial_and_oracle_with_no_leaks() {
        let (table, summary) = e17_concurrent(Scale::Quick);
        let s = table.render();
        assert!(
            summary.ok(),
            "summary {summary:?} failed the acceptance bar\n{s}"
        );
        assert_eq!(summary.sessions, 4, "{summary:?}");
        assert_eq!(summary.messages_per_session.len(), 4);
        assert!(summary.messages_per_session.iter().all(|&m| m > 0));
        let json = concurrent_summary_json(&summary);
        assert!(
            json.contains("\"experiment\": \"e17_concurrent\""),
            "{json}"
        );
    }

    #[test]
    fn e18_codec_shrinks_3x_with_identical_fixpoints() {
        let (table, summary) = e18_codec(Scale::Quick);
        let s = table.render();
        assert!(
            summary.ok(),
            "summary {summary:?} failed the acceptance bar\n{s}"
        );
        assert_eq!(summary.json_messages, summary.binary_messages);
        assert!(
            summary.payload_bytes_binary > 0
                && summary.payload_bytes_binary < summary.payload_bytes_json,
            "{summary:?}"
        );
        let json = codec_summary_json(&summary);
        assert!(json.contains("\"experiment\": \"e18_codec\""), "{json}");
    }

    #[test]
    fn e8_all_scenarios_sound_and_complete() {
        let t = e8_dynamic();
        let s = t.render();
        assert!(!s.contains("false"), "{s}");
    }

    #[test]
    fn e9_separated_side_always_closes() {
        let t = e9_separation();
        let s = t.render();
        for line in s.lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[1], "true", "separated side must close: {line}");
        }
    }

    #[test]
    fn e12_growth_is_monotonic_and_correct() {
        let t = e12_growth();
        let s = t.render();
        assert!(!s.contains("false"), "{s}");
    }

    #[test]
    fn e13_query_propagation_is_cheaper_on_rooted_topologies() {
        let t = e13_initiation(Scale::Quick);
        let s = t.render();
        // Both initiations close everywhere on these topologies.
        assert!(!s.contains("false"), "{s}");
        // Per topology, the flood row ships at least as many messages.
        let rows: Vec<Vec<&str>> = s
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().collect())
            .collect();
        for pair in rows.chunks(2) {
            let flood: u64 = pair[0][2].parse().unwrap();
            let strict: u64 = pair[1][2].parse().unwrap();
            assert!(flood >= strict, "{s}");
        }
    }
}
