//! The experiment suite: one function per table or figure of the paper
//! (e1–e13), plus the delta-wave, churn and concurrent-session experiments
//! (e14, e15, e17).
//!
//! Everything here is shared between the Criterion benches and the `repro`
//! binary, so the tables `repro` prints are regenerated by exactly the code
//! the benches time. Performance is measured by the repo benchmark
//! (`BENCHMARK.json`, `benchmark/`), not here.

use crate::table::{linear_fit, Table};
use p2p_baselines::{acyclic_update, centralized_update};
use p2p_core::config::UpdateMode;
use p2p_core::dynamic::{ChangeOp, ChangeScript};
use p2p_core::system::{P2PSystemBuilder, UpdateReport};
use p2p_net::SimTime;
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

#[cfg(test)]
mod tests {
    use super::*;

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
