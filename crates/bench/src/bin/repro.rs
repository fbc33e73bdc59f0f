//! `repro` — regenerates every experiment table and figure of the paper.
//!
//! ```text
//! cargo run -p p2p-bench --bin repro --release             # standard scale
//! cargo run -p p2p-bench --bin repro --release -- --quick  # CI scale
//! cargo run -p p2p-bench --bin repro --release -- --paper  # ~1000 recs/node
//! cargo run -p p2p-bench --bin repro --release -- e4 e5    # selected only
//! ```

use p2p_bench::experiments as exp;
use p2p_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Standard
    };
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |id: &str| selected.is_empty() || selected.contains(&id);

    println!("p2pdb experiment reproduction (scale: {scale:?})");
    println!("==================================================\n");

    if want("e1") {
        println!("E1 — Section 2: maximal dependency paths of the running example");
        println!("(the PDF's typographical slips corrected: rows follow Definitions 6–7)\n");
        println!("{}", exp::e1_paper_paths().render());
    }
    if want("e2") {
        println!("E2 — Figure 1: sample execution of discovery + update (:A :B :C :E)\n");
        println!("{}", exp::e2_figure1_trace());
    }
    if want("e3") || want("e7") {
        println!("E3/E7 — Section 5 scalability: topologies × sizes × distributions");
        println!("({} records/node)\n", scale.records());
        println!("{}", exp::e3_scalability(scale).render());
    }
    if want("e4") {
        println!("E4 — Section 5 claim: execution time linear in depth\n");
        let (table, fits) = exp::e4_depth_linearity(scale);
        println!("{}", table.render());
        for (family, slope, r2) in fits {
            println!("  {family}: time ≈ {slope:.3} ms/depth, R² = {r2:.4}");
        }
        println!();
    }
    if want("e5") {
        println!("E5 — async (eager) vs sync (rounds): the Section 1 trade-off\n");
        println!("{}", exp::e5_modes(scale).render());
    }
    if want("e6") {
        println!("E6 — delta optimization ablation (Section 3)\n");
        println!("{}", exp::e6_delta(scale).render());
    }
    if want("e8") {
        println!("E8 — dynamic changes: Theorem 2 termination + Definition 9 envelope\n");
        println!("{}", exp::e8_dynamic().render());
    }
    if want("e9") {
        println!("E9 — Theorem 3: separated subset closes despite external churn\n");
        println!("{}", exp::e9_separation().render());
    }
    if want("e10") {
        println!("E10 — topology discovery cost\n");
        println!("{}", exp::e10_discovery().render());
    }
    if want("e11") {
        println!("E11 — distributed vs centralized vs acyclic baselines\n");
        println!("{}", exp::e11_baselines(scale).render());
    }
    if want("e12") {
        println!("E12 — maximal-path growth on cliques (2EXPTIME flavour) + Lemma 1\n");
        println!("{}", exp::e12_growth().render());
    }
    if want("e13") {
        println!("E13 — initiation ablation: flood vs strict-A4 query propagation\n");
        println!("{}", exp::e13_initiation(scale).render());
    }
    if want("e15") {
        println!("E15 — durability & churn: crash/restart with WAL + snapshot recovery\n");
        let (table, summary) = exp::e15_churn(scale);
        println!("{}", table.render());
        println!(
            "ring(8), {} crashes: resync re-shipped {} rows vs {} for a full re-propagation ({:.1}x cheaper), {} redrive(s)",
            summary.crashes,
            summary.resync_rows,
            summary.full_repropagation_rows,
            summary.full_repropagation_rows as f64 / summary.resync_rows.max(1) as f64,
            summary.redrives,
        );
        println!(
            "churn smoke: {}\n",
            if summary.ok() {
                "OK"
            } else {
                "FAILED (unrecovered crash, fix-point mismatch, or resync not cheaper than re-propagation)"
            }
        );
    }
    if want("e14") {
        println!("E14 — delta-driven wave answers vs full re-ship (rounds mode)\n");
        let (table, summary) = exp::e14_delta_waves(scale);
        println!("{}", table.render());
        println!(
            "cyclic topology: delta ships {} rows vs {} full ({:.1}x), rows_saved = {}",
            summary.delta_rows_shipped,
            summary.full_rows_shipped,
            summary.full_rows_shipped as f64 / summary.delta_rows_shipped.max(1) as f64,
            summary.rows_saved,
        );
        println!(
            "delta-wave smoke: {}\n",
            if summary.ok() {
                "OK"
            } else {
                "FAILED (rows_saved == 0 or <3x saving or fix-point mismatch)"
            }
        );
    }
    if want("e17") {
        println!("E17 — concurrent update sessions: interleaved initiators vs serial runs\n");
        let (table, summary) = exp::e17_concurrent(scale);
        println!("{}", table.render());
        println!(
            "ring(8), {} writer sessions: interleaved {:.2} ms vs serial {:.2} ms ({:.2}x), \
             {:.1} sessions/s, peak {} concurrent, {} leaked entries",
            summary.sessions,
            summary.concurrent_time_ms,
            summary.serial_time_ms,
            summary.serial_time_ms / summary.concurrent_time_ms.max(1e-9),
            summary.sessions_per_s,
            summary.concurrent_peak,
            summary.leaked_entries,
        );
        let json = exp::concurrent_summary_json(&summary);
        match std::fs::write("BENCH_e17.json", &json) {
            Ok(()) => println!("wrote BENCH_e17.json"),
            Err(e) => println!("could not write BENCH_e17.json: {e}"),
        }
        println!(
            "concurrent smoke: {}\n",
            if summary.ok() {
                "OK"
            } else {
                "FAILED (fix-point mismatch, unclosed session, leaked session state, \
                 or no interleaving speedup)"
            }
        );
    }
}
