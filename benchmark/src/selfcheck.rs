//! `--all` and `--self-check`: both run every workload in a child process of
//! its own (so `peak_rss_mb` stays per workload), on this same build.
//!
//! `--all` is the "one command": it prints every metric by name with its
//! unit, writes the traces and runs every correctness gate.
//!
//! `--self-check` is the A/A test: the timed set runs twice with the same
//! seed, and the check fails if any end-to-end metric of any workload
//! differs between the two sets by more than its bound — or if a byte or
//! message count of a simulator workload differs at all.

use crate::manifest::{Better, END_TO_END, WORKLOADS};
use crate::report::ResultLine;
use std::process::{Command, ExitCode, Stdio};

/// Workloads whose counts are exact functions of the seed.
const EXACT_COUNT_WORKLOADS: [&str; 4] =
    ["writers_ring", "durable_ring", "join_fanin", "flood_sim"];
const COUNT_METRICS: [&str; 2] = ["wire_bytes_per_session", "messages_per_session"];

fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: ResultLine =
        serde_json::from_str(last).map_err(|e| format!("{workload}: no result line: {e}"))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload}: exit {:?}, correct {}, {} of {} sessions failed",
            output.status.code(),
            result.correct,
            result.failed,
            result.attempted
        ));
    }
    Ok(result)
}

fn print_result(workload: &str, pass_name: &str, result: &ResultLine) {
    println!(
        "## {workload} ({pass_name}): correct {}, failed_share {}/{}",
        result.correct, result.failed, result.attempted
    );
    for (name, m) in &result.metrics {
        println!("{name:<40} {:>16.4} {}", m.value, m.unit);
    }
}

/// Runs every workload timed and traced and prints every metric.
pub fn run_all(seed: u64, seconds: u64) -> ExitCode {
    let mut failed = false;
    for (workload, _) in WORKLOADS {
        for (trace, pass_name) in [(false, "end to end"), (true, "per layer")] {
            match run_child(workload, seed, seconds, trace) {
                Ok(result) => print_result(workload, pass_name, &result),
                Err(e) => {
                    eprintln!("error: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Runs the timed set twice and compares.
pub fn self_check(seed: u64, seconds: u64) -> ExitCode {
    let mut sets: [Vec<ResultLine>; 2] = [Vec::new(), Vec::new()];
    for set in &mut sets {
        for (workload, _) in WORKLOADS {
            match run_child(workload, seed, seconds, false) {
                Ok(result) => set.push(result),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    let mut violations = 0;
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, (workload, _)) in WORKLOADS.iter().enumerate() {
        for (name, _, better, bound) in END_TO_END {
            let a = sets[0][i].metrics[name].value;
            let b = sets[1][i].metrics[name].value;
            // A/A has no "parent": neither set may be worse than the other.
            let diff = worse_by(a, b, better).max(worse_by(b, a, better));
            let exact = EXACT_COUNT_WORKLOADS.contains(workload) && COUNT_METRICS.contains(&name);
            let bad = diff > bound || (exact && a != b);
            violations += usize::from(bad);
            println!(
                "{workload:<14} {name:<24} {a:>14.4} {b:>14.4} {:>7.2}% {:>5.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if bad { "  <-- differs" } else { "" }
            );
        }
    }
    if violations > 0 {
        eprintln!("self-check failed: {violations} metric(s) differ by more than their bound");
        ExitCode::from(1)
    } else {
        println!("self-check passed: two sets of runs agree within every bound");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!(worse_by(100.0, 120.0, Better::Higher) < 0.0);
    }
}
