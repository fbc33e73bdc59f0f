//! `repro` — regenerates every experiment table and figure of the paper.
//!
//! ```text
//! cargo run -p p2p_bench --bin repro --release             # standard scale
//! cargo run -p p2p_bench --bin repro --release -- --quick  # CI scale (REPRO.txt)
//! cargo run -p p2p_bench --bin repro --release -- --paper  # ~1000 recs/node
//! cargo run -p p2p_bench --bin repro --release -- e4 e5    # selected only
//! ```

use p2p_bench::{report, Scale, EXPERIMENTS};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected = Vec::new();
    for arg in &args {
        let known = matches!(arg.as_str(), "--quick" | "--paper")
            || EXPERIMENTS.iter().any(|e| e.ids.contains(&arg.as_str()));
        if !known {
            let ids: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.ids).copied().collect();
            eprintln!("repro: unknown argument `{arg}`");
            eprintln!(
                "usage: repro [--quick | --paper] [ID ...]  (IDs: {})",
                ids.join(" ")
            );
            return ExitCode::from(2);
        }
        if !arg.starts_with("--") {
            selected.push(arg.as_str());
        }
    }
    let scale = if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Standard
    };
    let text = report(scale, &selected);
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        // A reader that stopped early (`repro | head`) is not an error.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: writing the report: {e}");
            ExitCode::FAILURE
        }
    }
}
