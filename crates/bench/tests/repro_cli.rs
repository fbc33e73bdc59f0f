//! The `repro` command line: unknown arguments are refused with the valid
//! ids, a selection prints only what it names, and a reader that stops
//! early ends the run without a panic.

use std::process::{Command, Output, Stdio};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_ids_and_flags_exit_2_with_a_usage_line() {
    for (args, bad) in [(["--quick", "e99"], "e99"), (["--quik", "e1"], "--quik")] {
        let out = repro(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(err.contains(&format!("`{bad}`")), "{err}");
        assert!(
            err.contains("usage: repro") && err.contains("e1 e2 e3 e7 e4"),
            "{err}"
        );
    }
}

#[test]
fn a_selected_id_prints_the_banner_and_that_experiment_only() {
    let out = repro(&["--quick", "e1"]);
    assert!(out.status.success());
    let golden = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRO.txt"))
        .expect("REPRO.txt");
    let e1_only = &golden[..golden.find("E2 — ").expect("E2 heading")];
    assert_eq!(String::from_utf8_lossy(&out.stdout), e1_only);
}

#[test]
fn a_reader_that_stops_early_is_not_a_crash() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--quick")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    // The report is written once, after seconds of computing: the read end
    // is gone long before the child writes.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("repro exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    // Not 101 (a panic), not a signal: a reader that left is a normal exit.
    assert!(out.status.success(), "{:?}: {err}", out.status);
}
