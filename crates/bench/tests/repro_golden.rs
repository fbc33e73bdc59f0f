//! `REPRO.txt` at the repo root is the `repro --quick` report, byte for
//! byte. Rendering it in-process and comparing exactly makes every count,
//! path set and virtual-time column of the paper's experiments a regression
//! gate: a change that moves one must regenerate the golden and say which
//! rows moved.

use p2p_bench::{report, Scale, EXPERIMENTS};

const REGENERATE: &str = "cargo run --release -p p2p_bench --bin repro -- --quick > REPRO.txt";

#[test]
fn quick_report_matches_the_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRO.txt");
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {path}: {e}; regenerate with: {REGENERATE}"));
    let actual = report(Scale::Quick, &[]);
    if actual == golden {
        return;
    }
    let want: Vec<&str> = golden.split('\n').collect();
    let got: Vec<&str> = actual.split('\n').collect();
    let line = (0..)
        .find(|&i| want.get(i) != got.get(i))
        .expect("the texts differ");
    let heading = want[..want.len().min(line + 1)]
        .iter()
        .rev()
        .find(|l| EXPERIMENTS.iter().any(|e| e.title == **l))
        .copied()
        .unwrap_or("the banner");
    panic!(
        "REPRO.txt differs from the `repro --quick` report under \"{heading}\", line {}:\n  \
         REPRO.txt: {:?}\n  report:    {:?}\n\
         If the change is intended, regenerate the golden and list the rows that moved:\n  \
         {REGENERATE}",
        line + 1,
        want.get(line).copied().unwrap_or("<end of file>"),
        got.get(line).copied().unwrap_or("<end of report>"),
    );
}
