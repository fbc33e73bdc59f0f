//! The program's size as a number: non-test lines per crate, and a pinned
//! ceiling on their total.
//!
//! A file's non-test code is the file up to its first `#[cfg(test)]` at
//! column 0. An indented one (a test-only method inside an `impl`) does not
//! stop it. Every `.rs` file under `crates/*/src`, `vendor/*/src` and `src/`
//! counts. `cargo test --test shape -- --nocapture` prints the per-crate
//! counts.

use std::fs;
use std::path::{Path, PathBuf};

/// The most non-test lines the program may have. A change that grows the
/// total raises this pin and gives the reason in CHANGES.md.
const NON_TEST_LINES: usize = 26_961;

/// The non-test lines of a file's text: those before its first
/// `#[cfg(test)]` at column 0.
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .count()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Non-test lines of each crate's `src/` (`crates/*`, `vendor/*`, and the
/// root package as `src`), in path order.
fn counts() -> Vec<(String, usize)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates = vec!["src".to_string()];
    for group in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(group)).unwrap() {
            let dir = entry.unwrap().path();
            if dir.join("src").is_dir() {
                let name = dir.file_name().unwrap().to_string_lossy();
                crates.push(format!("{group}/{name}"));
            }
        }
    }
    crates.sort();
    let count = |name: &String| {
        let src = if name == "src" {
            root.join("src")
        } else {
            root.join(name).join("src")
        };
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        let lines = files.iter().map(|file| {
            let text = fs::read_to_string(file).unwrap();
            non_test_lines(&text)
        });
        (name.clone(), lines.sum())
    };
    crates.iter().map(count).collect()
}

#[test]
fn non_test_lines_stay_under_the_pin() {
    let counts = counts();
    for (name, lines) in &counts {
        println!("{name:<22} {lines:>6}");
    }
    let total: usize = counts.iter().map(|(_, lines)| lines).sum();
    println!("{:<22} {total:>6}", "total");
    assert!(
        total <= NON_TEST_LINES,
        "{total} non-test lines, over the pin of {NON_TEST_LINES}: \
         raise NON_TEST_LINES and say why in CHANGES.md"
    );
}

#[test]
fn the_count_stops_at_a_column_0_cfg_test_only() {
    let text = "\
struct S;

impl S {
    #[cfg(test)]
    fn probe(&self) {}
}

#[cfg(test)]
mod tests {
    fn helper() {}
}
";
    assert_eq!(
        non_test_lines(text),
        7,
        "an indented #[cfg(test)] counts on"
    );
    assert_eq!(
        non_test_lines("fn f() {}\n"),
        1,
        "no #[cfg(test)]: all of it"
    );
    assert_eq!(non_test_lines("#[cfg(test)]\nmod tests {}\n"), 0);
}
