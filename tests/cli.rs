//! Integration tests of the `p2pdb` command-line driver (cargo exposes the
//! binary path via `CARGO_BIN_EXE_p2pdb`).

use std::process::Command;

fn p2pdb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_p2pdb"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn sample_emits_loadable_json() {
    let out = p2pdb(&["sample"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let file = p2pdb::core::netfile::NetworkFile::from_json(&text).unwrap();
    assert_eq!(file.nodes.len(), 2);
    assert_eq!(file.rules.len(), 1);
}

/// A reader that stops early (`p2pdb workload … | head -c 10`) ends the
/// command quietly, with status 0. Here the reader is gone before the first
/// byte is written.
#[test]
fn a_closed_stdout_is_not_an_error() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_p2pdb"))
        .args(["workload", "--topology", "tree", "--size", "31"])
        .args(["--records", "200"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn workload_then_run_round_trips() {
    let dir = std::env::temp_dir().join("p2pdb_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");

    let out = p2pdb(&[
        "workload",
        "--topology",
        "chain",
        "--size",
        "4",
        "--records",
        "10",
    ]);
    assert!(out.status.success());
    std::fs::write(&net, &out.stdout).unwrap();

    let out = p2pdb(&[
        "run",
        net.to_str().unwrap(),
        "--discover",
        "--stats",
        "--query",
        "0",
        "q(I) :- pub(I, T, Y)",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("all closed: true"), "{text}");
    assert!(text.contains("answers at node A"), "{text}");
    assert!(text.contains("per-peer statistics"), "{text}");
}

/// `run --query` prints each answer row as `  (…)`: integers bare,
/// strings quoted, at most 25 rows and then how many more there are.
#[test]
fn run_query_prints_its_answer_rows() {
    let dir = std::env::temp_dir().join(format!("p2pdb_cli_query_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let answers = |records: &str, query: &str| {
        let net = dir.join(format!("net-{records}.json"));
        let out = p2pdb(&[
            "workload",
            "--topology",
            "chain",
            "--size",
            "3",
            "--records",
            records,
        ]);
        assert!(out.status.success());
        std::fs::write(&net, &out.stdout).unwrap();
        let out = p2pdb(&["run", net.to_str().unwrap(), "--query", "0", query]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        let at = (text.find("answers at node"))
            .or_else(|| text.find("answer at node"))
            .expect("an answer section");
        text[text[..at].rfind('\n').map_or(0, |i| i + 1)..].to_string()
    };
    assert_eq!(
        answers("3", "q(I, T) :- pub(I, T, Y)"),
        concat!(
            "9 answers at node A:\n",
            "  (1, 'update coordination query')\n",
            "  (2, 'discovery coordination integration data')\n",
            "  (3, 'logic exchange propagation network')\n",
            "  (4, 'answering answering update update')\n",
            "  (5, 'fixpoint consistency integration mediation')\n",
            "  (6, 'coordination query query fixpoint')\n",
            "  (7, 'coordination integration consistency views update')\n",
            "  (8, 'query views update coordination views')\n",
            "  (9, 'schema discovery consistency logic')\n",
        )
    );
    let listed: String = (1..=25).map(|i| format!("  ({i})\n")).collect();
    assert_eq!(
        answers("10", "q(I) :- pub(I, T, Y), I < 28"),
        format!("27 answers at node A:\n{listed}  … (2 more)\n")
    );
    assert_eq!(
        answers("3", "q() :- pub(I, T, Y)"),
        "1 answer at node A:\n  ()\n"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_rounds_mode_and_export() {
    let dir = std::env::temp_dir().join("p2pdb_cli_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");
    let exported = dir.join("out.json");

    let out = p2pdb(&[
        "workload",
        "--topology",
        "ring",
        "--size",
        "4",
        "--records",
        "5",
    ]);
    assert!(out.status.success());
    std::fs::write(&net, &out.stdout).unwrap();

    let out = p2pdb(&[
        "run",
        net.to_str().unwrap(),
        "--mode",
        "rounds",
        "--export",
        exported.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The export must load back.
    let text = std::fs::read_to_string(&exported).unwrap();
    let file = p2pdb::core::netfile::NetworkFile::from_json(&text).unwrap();
    assert_eq!(file.nodes.len(), 4);
}

/// Two processes chasing the same netfile export the same bytes: which
/// column gets which labeled null does not depend on a process's hash seed.
/// The fixture's rule has two existential variables and eight bindings, so
/// minting in hash-map order would differ between two runs with odds of
/// 255 in 256.
#[test]
fn export_with_existentials_is_the_same_in_every_process() {
    let dir = std::env::temp_dir().join("p2pdb_cli_existentials");
    std::fs::create_dir_all(&dir).unwrap();
    let net = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/two_existentials.json"
    );
    let exports: Vec<String> = (0..2)
        .map(|k| {
            let exported = dir.join(format!("out{k}.json"));
            let out = p2pdb(&["run", net, "--export", exported.to_str().unwrap()]);
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            std::fs::read_to_string(&exported).unwrap()
        })
        .collect();
    assert!(exports[0].contains("Null"), "{}", exports[0]);
    assert_eq!(exports[0], exports[1]);
}

/// A network whose nodes are named `alice`, `bob` and `carol`, with no
/// letter name anywhere, runs through the CLI to the oracle's fix-point,
/// and its export reloads to the same databases.
#[test]
fn named_nodes_run_to_the_oracle_and_export() {
    use p2pdb::core::netfile::NetworkFile;

    let dir = std::env::temp_dir().join("p2pdb_cli_named_nodes");
    std::fs::create_dir_all(&dir).unwrap();
    let net = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/named_nodes.json"
    );
    let exported = dir.join("out.json");
    let out = p2pdb(&["run", net, "--export", exported.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("all closed: true"), "{stdout}");

    let load = |text: &str| {
        let file = NetworkFile::from_json(text).unwrap();
        file.into_builder().unwrap().build().unwrap()
    };
    let oracle = load(&std::fs::read_to_string(net).unwrap())
        .oracle()
        .unwrap();
    let reloaded = load(&std::fs::read_to_string(&exported).unwrap()).snapshot();
    assert!(reloaded.equivalent(&oracle), "{reloaded:?}\nvs\n{oracle:?}");
    // Every node gained rows around the cycle.
    assert!(
        oracle.0.values().all(|db| db.total_tuples() >= 3),
        "{oracle:?}"
    );
}

/// `serve` and `launch` reject a flag they do not know before they read
/// the network or start anything: a typo does not run the defaults.
#[test]
fn serve_and_launch_reject_unknown_flags() {
    let net = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/named_nodes.json"
    );
    let serve = [
        "serve",
        net,
        "--node",
        "99",
        "--listen",
        "127.0.0.1:0",
        "--codex",
        "binary",
    ];
    let launch = ["launch", net, "--codex", "binary", "--bin", "/nonexistent"];
    for args in [&serve[..], &launch[..]] {
        let out = p2pdb(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown flag `--codex`"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}

/// `--concurrent N` launches N interleaved sessions with per-session
/// attribution and the new session counters; `--concurrent 0` is rejected
/// with a clear error.
#[test]
fn run_concurrent_sessions_prints_attribution() {
    let dir = std::env::temp_dir().join("p2pdb_cli_concurrent");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");
    let out = p2pdb(&[
        "workload",
        "--topology",
        "ring",
        "--size",
        "6",
        "--records",
        "8",
    ]);
    assert!(out.status.success());
    std::fs::write(&net, &out.stdout).unwrap();

    let out = p2pdb(&["run", net.to_str().unwrap(), "--concurrent", "3", "--stats"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("all closed: true"), "{text}");
    // One attributed line per session, rooted at distinct nodes.
    assert!(text.contains("session A#1:"), "{text}");
    assert!(text.contains("session C#2:"), "{text}");
    assert!(text.contains("session E#3:"), "{text}");
    // The stats summary shows the new counters.
    assert!(text.contains("sessions: 3 launched"), "{text}");
    assert!(text.contains("peak 3 concurrent"), "{text}");
    assert!(text.contains("sessions=3 peak=3"), "{text}");

    let out = p2pdb(&["run", net.to_str().unwrap(), "--concurrent", "0"]);
    assert!(!out.status.success(), "--concurrent 0 must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--concurrent 0"), "{err}");
    assert!(err.contains("at least one"), "{err}");
}

/// `p2pdb sample | p2pdb run /dev/stdin --stats` round-trips: the sample
/// network file is consumable straight from a pipe and the update closes.
#[test]
#[cfg(unix)]
fn sample_pipes_into_run_via_stdin() {
    use std::io::Write;
    use std::process::Stdio;

    let sample = p2pdb(&["sample"]);
    assert!(sample.status.success());

    let mut run = Command::new(env!("CARGO_BIN_EXE_p2pdb"))
        .args(["run", "/dev/stdin", "--stats"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Ignore write errors: if the child exits early the pipe breaks, and the
    // status/stderr assertions below report the real failure.
    let _ = run
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(&sample.stdout);
    let out = run.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("all closed: true"), "{text}");
    assert!(text.contains("per-peer statistics"), "{text}");
}

/// Regression: `p2pdb run` parses untrusted network files; a deeply nested
/// document must produce a clean parse error, not recurse the JSON parser
/// off the stack and abort the process.
#[test]
fn deeply_nested_netfile_fails_cleanly_instead_of_overflowing() {
    let dir = std::env::temp_dir().join("p2pdb_cli_deep");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("deep.json");
    let depth = 10_000;
    let doc = "[".repeat(depth) + &"]".repeat(depth);
    std::fs::write(&net, doc).unwrap();

    let out = p2pdb(&["run", net.to_str().unwrap()]);
    assert!(!out.status.success());
    // A controlled exit (code 1), not a signal-killed abort.
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting depth"), "{stderr}");
}

/// A node id is a name, not a size: a network file whose peer is numbered
/// 4 000 000 000 runs like any other, on the simulator and on the shard
/// pool. Each run is capped at 4 GB of address space, so a table sized by
/// the id's value (16 GB of slots) fails there, as an abort, instead of
/// taking the machine's memory.
#[test]
#[cfg(unix)]
fn a_node_id_of_four_billion_runs_without_a_table_sized_by_it() {
    let sample = p2pdb(&["sample"]);
    let mut file =
        p2pdb::core::netfile::NetworkFile::from_json(&String::from_utf8_lossy(&sample.stdout))
            .unwrap();
    file.nodes[1].id = 4_000_000_000;
    let dir = std::env::temp_dir().join("p2pdb_cli_huge_id");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");
    std::fs::write(&net, file.to_json()).unwrap();

    for runtime in ["sim", "sharded"] {
        let out = Command::new("sh")
            .args([
                "-c",
                r#"ulimit -v 4000000 && exec "$0" run "$1" --runtime "$2""#,
            ])
            .arg(env!("CARGO_BIN_EXE_p2pdb"))
            .args([net.to_str().unwrap(), runtime])
            .output()
            .expect("shell runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{runtime}: {:?}: {stderr}",
            out.status
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("all closed: true"), "{runtime}: {text}");
    }
}

/// Durability & churn flags: a churned durable run converges and reports
/// the recovery counters; churn flags without `--durable` are rejected
/// with a clear error instead of being silently ignored.
#[test]
fn churn_flags_require_durable_and_report_counters() {
    let dir = std::env::temp_dir().join("p2pdb_cli_churn");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");
    let out = p2pdb(&[
        "workload",
        "--topology",
        "ring",
        "--size",
        "6",
        "--records",
        "10",
    ]);
    assert!(out.status.success());
    std::fs::write(&net, &out.stdout).unwrap();

    // Churned durable run: closes, and the churn line + per-peer counters
    // show up under --stats.
    let out = p2pdb(&[
        "run",
        net.to_str().unwrap(),
        "--mode",
        "rounds",
        "--durable",
        "--churn",
        "2",
        "--snapshot-every",
        "8",
        "--stats",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("all closed: true"), "{text}");
    assert!(text.contains("churn: 2 crashes, 2 recoveries"), "{text}");
    assert!(text.contains("resync_rows="), "{text}");

    // Rejections: churn/snapshot flags without --durable.
    for flags in [&["--churn", "2"][..], &["--snapshot-every", "8"][..]] {
        let mut args = vec!["run", net.to_str().unwrap()];
        args.extend_from_slice(flags);
        let out = p2pdb(&args);
        assert!(!out.status.success(), "{flags:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("requires --durable"), "{stderr}");
    }
}

/// `--codec binary` runs the whole update under the binary wire codec (and
/// closes with fewer reported bytes than JSON); unknown codecs are rejected.
#[test]
fn codec_flag_switches_wire_accounting() {
    let dir = std::env::temp_dir().join("p2pdb_cli_codec");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");
    let out = p2pdb(&[
        "workload",
        "--topology",
        "chain",
        "--size",
        "4",
        "--records",
        "10",
    ]);
    assert!(out.status.success());
    std::fs::write(&net, &out.stdout).unwrap();

    fn reported_bytes(text: &str) -> u64 {
        // "update: N messages, B bytes, ..."
        let tail = text.split(" messages, ").nth(1).expect("update line");
        tail.split(" bytes").next().unwrap().parse().unwrap()
    }
    let mut bytes = Vec::new();
    for codec in ["json", "binary"] {
        let out = p2pdb(&["run", net.to_str().unwrap(), "--codec", codec, "--durable"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("all closed: true"), "{text}");
        bytes.push(reported_bytes(&text));
    }
    assert!(
        bytes[1] < bytes[0],
        "binary codec must report fewer wire bytes: {bytes:?}"
    );

    let out = p2pdb(&["run", net.to_str().unwrap(), "--codec", "protobuf"]);
    assert!(!out.status.success(), "unknown codec must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown codec"), "{stderr}");
}

#[test]
fn bad_usage_fails_cleanly() {
    assert!(!p2pdb(&[]).status.success());
    assert!(!p2pdb(&["run"]).status.success());
    assert!(!p2pdb(&["run", "/nonexistent/x.json"]).status.success());
    assert!(!p2pdb(&["workload", "--topology", "moebius"])
        .status
        .success());
}

/// The socket verbs validate their flags with exit code 2 (usage error,
/// distinct from runtime failure = 1) and name the offending flag.
#[test]
fn serve_and_launch_usage_errors_exit_2() {
    let dir = std::env::temp_dir().join("p2pdb_cli_socket_usage");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");
    let out = p2pdb(&["workload", "--topology", "ring", "--size", "4"]);
    assert!(out.status.success());
    std::fs::write(&net, &out.stdout).unwrap();
    let net = net.to_str().unwrap();

    let check = |args: &[&str], flag: &str| {
        let out = p2pdb(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: expected exit 2, got {:?}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag),
            "{args:?}: stderr must name {flag}: {stderr}"
        );
        // One-line errors: a single trailing newline, no stack traces.
        assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
    };

    // serve: malformed and missing flags.
    check(
        &["serve", net, "--node", "0", "--listen", "not-an-addr"],
        "--listen",
    );
    check(&["serve", net, "--listen", "127.0.0.1:0"], "--node");
    check(
        &["serve", net, "--node", "zero", "--listen", "127.0.0.1:0"],
        "--node",
    );
    check(
        &["serve", net, "--node", "9", "--listen", "127.0.0.1:0"],
        "--node",
    );
    check(
        &[
            "serve",
            net,
            "--node",
            "0",
            "--listen",
            "127.0.0.1:0",
            "--codec",
            "msgpack",
        ],
        "--codec",
    );
    check(
        &[
            "serve",
            net,
            "--node",
            "0",
            "--listen",
            "127.0.0.1:0",
            "--mode",
            "rounds",
        ],
        "--mode",
    );
    check(
        &[
            "serve",
            net,
            "--node",
            "0",
            "--listen",
            "127.0.0.1:0",
            "--peer",
            "nonsense",
        ],
        "--peer",
    );
    check(
        &[
            "serve",
            net,
            "--node",
            "0",
            "--listen",
            "127.0.0.1:0",
            "--durable",
        ],
        "--state-dir",
    );
    check(
        &[
            "serve",
            net,
            "--node",
            "0",
            "--listen",
            "127.0.0.1:0",
            "--snapshot-every",
            "8",
        ],
        "--durable",
    );

    // serve: a listen address that is already taken is a usage error too —
    // the caller picked the port.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    check(
        &["serve", net, "--node", "0", "--listen", &addr],
        "--listen",
    );

    // launch: the same validation style.
    check(&["launch", net, "--codec", "msgpack"], "--codec");
    check(&["launch", net, "--timeout-ms", "soon"], "--timeout-ms");
    check(&["launch", net, "--state-dir", "/tmp/x"], "--durable");
    check(&["launch", net, "--durable"], "--state-dir");
    let out = p2pdb(&["launch"]);
    assert_eq!(out.status.code(), Some(2));
}

/// The parallel runtime behind `--runtime sharded` reaches a fully closed
/// fix-point and reports its shard count and cross-shard locality; its
/// flags are validated as one-line usage errors with exit code 2, and the
/// retired `threaded` runtime is an unknown one.
#[test]
fn run_parallel_runtimes_and_flag_validation() {
    let dir = std::env::temp_dir().join("p2pdb_cli_parallel");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");
    let out = p2pdb(&["workload", "--topology", "ring", "--size", "6"]);
    assert!(out.status.success());
    std::fs::write(&net, &out.stdout).unwrap();
    let net = net.to_str().unwrap();

    let out = p2pdb(&["run", net, "--runtime", "sharded", "--threads", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("all closed: true"), "{text}");
    assert!(text.contains("sharded: 2 threads"), "{text}");
    assert!(text.contains("cross-shard sends"), "{text}");

    let usage = |args: &[&str], needle: &str| {
        let out = p2pdb(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: expected exit 2, got {:?}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    };
    usage(
        &["run", net, "--runtime", "sharded", "--threads", "0"],
        "--threads 0",
    );
    usage(&["run", net, "--threads", "2"], "--threads only applies");
    usage(&["run", net, "--runtime", "warp"], "unknown runtime");
    usage(&["run", net, "--runtime", "threaded"], "unknown runtime");
    usage(
        &["run", net, "--runtime", "sharded", "--trace", "5"],
        "simulator-only",
    );
}

/// `--runtime sharded` prints through the simulator's report path: with
/// `--concurrent 2`, one closed line per session. What the shard pool
/// cannot run — rounds mode, a churn plan — the library refuses (exit 1).
#[test]
fn sharded_run_reports_sessions_and_refuses_what_it_cannot_run() {
    let dir = std::env::temp_dir().join("p2pdb_cli_sharded_sessions");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");
    let out = p2pdb(&["workload", "--topology", "ring", "--size", "6"]);
    assert!(out.status.success());
    std::fs::write(&net, &out.stdout).unwrap();
    let net = net.to_str().unwrap();

    let sharded = ["run", net, "--runtime", "sharded", "--threads", "2"];
    let out = p2pdb(&[&sharded[..], &["--concurrent", "2"]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("all closed: true"), "{text}");
    assert!(text.contains("sharded: 2 threads"), "{text}");
    let sessions: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("  session "))
        .collect();
    assert_eq!(sessions.len(), 2, "{text}");
    assert!(
        sessions.iter().all(|l| l.ends_with("closed: true")),
        "{text}"
    );

    for (flags, refused) in [
        (&["--mode", "rounds"][..], "rounds mode"),
        (&["--durable", "--churn", "2"][..], "a churn plan"),
    ] {
        let out = p2pdb(&[&sharded[..], flags].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(refused), "{flags:?}: {stderr}");
    }
}

/// `run` looks flags up by name, so an unknown one used to run the default
/// configuration without a word. Now it is a usage error naming the flag —
/// for a typo and for the two engine-selection flags that no longer exist —
/// while flag *values* may look like anything.
#[test]
fn run_rejects_unknown_flags_but_not_flag_values() {
    let dir = std::env::temp_dir().join("p2pdb_cli_unknown_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.json");
    let out = p2pdb(&["workload", "--topology", "chain", "--size", "3"]);
    assert!(out.status.success());
    std::fs::write(&net, &out.stdout).unwrap();
    let net = net.to_str().unwrap();

    // The removed flags are spelled in halves so that grepping the tree for
    // them finds nothing.
    let flags = [
        ["--no-plan", "-cache"].concat(),
        ["--no-", "indexes"].concat(),
        ["--no-delta", "-waves"].concat(),
        "--durabel".to_string(),
    ];
    for flag in &flags {
        let out = p2pdb(&["run", net, "--stats", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: nothing may run");
    }

    // The baseline switch that replaced the last of them is known, in both
    // modes.
    for mode in ["eager", "rounds"] {
        let out = p2pdb(&["run", net, "--mode", mode, "--paper-faithful"]);
        assert!(out.status.success(), "{mode}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("all closed: true"), "{mode}: {stdout}");
    }

    // Values are not flags: a query text and an export path starting with
    // dashes reach the code that consumes them (the query parser rejects
    // this one, which ends the run before anything is exported).
    let out = p2pdb(&[
        "run",
        net,
        "--query",
        "0",
        "--q(I) :- pub(I, T, Y)",
        "--export",
        "--out.json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("unknown flag"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
}

/// `workload` validates what it is asked for before it builds anything: a
/// topology of too few nodes, an unknown topology and an unknown flag are
/// usage errors (exit 2) that name the culprit, and nothing is printed.
#[test]
fn workload_rejects_bad_topologies_and_unknown_flags() {
    let cases: [(&[&str], &str); 4] = [
        (&["--topology", "clique", "--size", "0"], "clique(n=0)"),
        (&["--topology", "chain", "--size", "0"], "chain(n=0)"),
        (&["--topology", "moebius"], "unknown topology `moebius`"),
        (&["--topolgy", "ring"], "unknown flag `--topolgy`"),
    ];
    for (args, culprit) in cases {
        let out = p2pdb(&[&["workload"], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(culprit), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may be generated");
    }
    // The smallest valid sizes still generate.
    for topology in ["clique", "chain"] {
        let out = p2pdb(&["workload", "--topology", topology, "--size", "1"]);
        assert!(out.status.success(), "{topology}");
    }
}
