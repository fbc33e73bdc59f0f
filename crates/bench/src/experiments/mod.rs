//! The experiment suite: one module per table or figure of the paper
//! (e1–e13), plus the delta-wave, churn and concurrent-session experiments
//! (e14, e15, e17).
//!
//! [`EXPERIMENTS`] lists them in printing order; [`report`] renders the
//! selected ones as the text `repro` prints. At `--quick` scale that text is
//! tracked as `REPRO.txt` and diffed exactly by a tier-1 test. Performance
//! is measured by the repo benchmark (`BENCHMARK.json`, `benchmark/`), not
//! here.

mod e1;
mod e10;
mod e11;
mod e12;
mod e13;
mod e14;
mod e15;
mod e17;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e8;
mod e9;

pub use e1::e1_paper_paths;
pub use e10::e10_discovery;
pub use e11::e11_baselines;
pub use e12::e12_growth;
pub use e13::e13_initiation;
pub use e14::{e14_delta_waves, DeltaWavesSummary};
pub use e15::{e15_churn, ChurnSummary};
pub use e17::{e17_concurrent, ConcurrentSummary};
pub use e2::e2_figure1_trace;
pub use e3::e3_scalability;
pub use e4::e4_depth_linearity;
pub use e5::e5_modes;
pub use e6::e6_delta;
pub use e8::e8_dynamic;
pub use e9::e9_separation;

use p2p_core::config::UpdateMode;
use p2p_core::system::{P2PSystemBuilder, UpdateReport};
use p2p_net::SimTime;
use p2p_relational::Val;
use p2p_workload::{build_system, WorkloadConfig};

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

/// One entry of the experiment registry.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The ids that select it on the `repro` command line.
    pub ids: &'static [&'static str],
    /// Its heading line in the report.
    pub title: &'static str,
    /// Renders everything below the heading, trailing blank line included.
    pub run: fn(Scale) -> String,
}

/// Every experiment, in printing order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        ids: &["e1"],
        title: "E1 — Section 2: maximal dependency paths of the running example",
        run: e1::report,
    },
    Experiment {
        ids: &["e2"],
        title: "E2 — Figure 1: sample execution of discovery + update (:A :B :C :E)",
        run: e2::report,
    },
    Experiment {
        ids: &["e3", "e7"],
        title: "E3/E7 — Section 5 scalability: topologies × sizes × distributions",
        run: e3::report,
    },
    Experiment {
        ids: &["e4"],
        title: "E4 — Section 5 claim: execution time linear in depth",
        run: e4::report,
    },
    Experiment {
        ids: &["e5"],
        title: "E5 — async (eager) vs sync (rounds): the Section 1 trade-off",
        run: e5::report,
    },
    Experiment {
        ids: &["e6"],
        title: "E6 — delta optimization ablation (Section 3)",
        run: e6::report,
    },
    Experiment {
        ids: &["e8"],
        title: "E8 — dynamic changes: Theorem 2 termination + Definition 9 envelope",
        run: e8::report,
    },
    Experiment {
        ids: &["e9"],
        title: "E9 — Theorem 3: separated subset closes despite external churn",
        run: e9::report,
    },
    Experiment {
        ids: &["e10"],
        title: "E10 — topology discovery cost",
        run: e10::report,
    },
    Experiment {
        ids: &["e11"],
        title: "E11 — distributed vs centralized vs acyclic baselines",
        run: e11::report,
    },
    Experiment {
        ids: &["e12"],
        title: "E12 — maximal-path growth on cliques (2EXPTIME flavour) + Lemma 1",
        run: e12::report,
    },
    Experiment {
        ids: &["e13"],
        title: "E13 — initiation ablation: flood vs strict-A4 query propagation",
        run: e13::report,
    },
    Experiment {
        ids: &["e15"],
        title: "E15 — durability & churn: crash/restart with WAL + snapshot recovery",
        run: e15::report,
    },
    Experiment {
        ids: &["e14"],
        title: "E14 — delta-driven wave answers vs full re-ship (rounds mode)",
        run: e14::report,
    },
    Experiment {
        ids: &["e17"],
        title: "E17 — concurrent update sessions: interleaved initiators vs serial runs",
        run: e17::report,
    },
];

/// The report `repro` prints: a banner, then every experiment `selected`
/// names (all of them when it is empty), each under its heading.
pub fn report(scale: Scale, selected: &[&str]) -> String {
    let mut out = format!(
        "p2pdb experiment reproduction (scale: {scale:?})\n{}\n\n",
        "=".repeat(50)
    );
    for exp in EXPERIMENTS {
        if selected.is_empty() || exp.ids.iter().any(|id| selected.contains(id)) {
            out.push_str(exp.title);
            out.push('\n');
            out.push_str(&(exp.run)(scale));
        }
    }
    out
}

/// Builds and runs one workload; panics on configuration errors (the
/// experiment definitions are static) and on protocol errors.
fn run_workload(cfg: &WorkloadConfig, mode: UpdateMode, delta: bool) -> UpdateReport {
    let mut b = build_system(cfg).expect("workload builds");
    b.config_mut().mode = mode;
    b.config_mut().paper_faithful = !delta;
    b.config_mut().max_events = 50_000_000;
    let report = b.build().expect("system builds").run_update();
    assert!(
        report.errors.is_empty(),
        "peer errors in {}: {:?}",
        cfg.topology,
        report.errors
    );
    report
}

/// The paper's Section 2 running example: 5 nodes, rules r1–r4 with the
/// B↔C dependency cycle, and `chain` inserted at E as `e` facts.
fn paper_example(chain: &[(i64, i64)]) -> P2PSystemBuilder {
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
    for &(x, y) in chain {
        b.insert(4, "e", vec![Val::Int(x), Val::Int(y)]).unwrap();
    }
    b
}

/// A virtual time as the tables print it: milliseconds, two decimals.
fn fmt_ms(t: SimTime) -> String {
    format!("{:.2}", t.as_millis_f64())
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
