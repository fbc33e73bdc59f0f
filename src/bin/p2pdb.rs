//! `p2pdb` — command-line driver for P2P database networks.
//!
//! ```text
//! p2pdb sample                                  print a sample network file
//! p2pdb workload [--topology tree|layered|clique|ring|chain]
//!                [--size N] [--records N] [--overlap PCT] [--seed N]
//!                                               generate a network file
//!                                               (an unknown flag or a
//!                                               topology of too few nodes
//!                                               exits 2)
//! p2pdb run <network.json> [--mode eager|rounds] [--discover]
//!                [--paper-faithful] [--query NODE QUERY] [--stats]
//!                [--durable] [--churn N] [--snapshot-every K]
//!                [--concurrent N] [--codec json|binary]
//!                [--runtime sim|sharded] [--threads N]
//!                [--trace] [--export FILE]      run discovery + update
//! p2pdb serve <network.json> --node N --listen ADDR
//!                [--peer M=ADDR]... [--codec json|binary]
//!                [--durable --state-dir DIR] [--snapshot-every K]
//!                                              serve one node over TCP
//! p2pdb launch <network.json> [--codec json|binary] [--timeout-ms N]
//!                [--durable --state-dir DIR] [--no-verify] [--json]
//!                [--bin PATH]                  spawn the whole network as
//!                                              OS processes, update to
//!                                              fix-point, verify vs sim
//! ```
//!
//! Real sockets: `serve` hosts one declared node behind the
//! `p2p_transport` TCP runtime — length-prefixed frames, a
//! `(node, codec)` handshake that rejects misconfigured peers, and a
//! control socket the launcher drives. `launch` spawns one `serve` child
//! per node on loopback ports, injects a global update at the super-peer,
//! polls every node's session fix-point, collects databases and
//! frame/byte/reconnect counters, reaps all children (also on failure),
//! and checks the distributed result tuple-for-tuple against the
//! in-process simulator and the centralized oracle. Argument errors on
//! these verbs, an unknown flag among them, exit with status 2 and name
//! the offending flag.
//!
//! Concurrent sessions: `--concurrent N` launches `N` interleaved global
//! update sessions, each rooted at a different node spread across the
//! network, in one simulator run — the multi-writer scenario. Per-session
//! message/byte attribution is printed per root; the final database is
//! identical to running the sessions serially.
//!
//! Durability & churn: `--durable` gives every peer a write-ahead log plus
//! snapshot store; `--churn N` schedules `N` peer crash/restart events
//! spread across the non-super peers mid-session (the run is then driven
//! to closure with bounded re-drives); `--snapshot-every K` sets the fewest
//! WAL records between snapshots (a snapshot also waits for its own size
//! in log bytes). `--churn`/`--snapshot-every` require
//! `--durable` — without storage a crashed peer would lose its data for
//! good.
//!
//! Wire codec: `--codec binary` switches protocol messages (and, with
//! `--durable`, the WAL/snapshot files) to the varint-packed binary
//! encoding; `--codec json` (the default) keeps the historical
//! self-describing JSON. Network files and exports are JSON either way.
//!
//! Runtimes: `--runtime sim` (default) runs the update on the deterministic
//! discrete-event simulator with virtual time; `--runtime sharded` runs it
//! on real threads, multiplexed over `--threads N` shard threads (default:
//! one per core), and reports cross-shard send counts. Either way it is one
//! system: discovery, `--query`, `--stats` and `--export` read the peers the
//! update left. `--trace` (the simulator's message trace) beside
//! `--runtime sharded`, any other runtime, `--threads` outside
//! `--runtime sharded` and `--threads 0` are usage errors (exit 2). What
//! the shard pool cannot run — `--mode rounds`, `--churn` — the library
//! refuses (exit 1).
//!
//! Example session:
//!
//! ```text
//! p2pdb workload --topology tree --size 7 --records 50 > net.json
//! p2pdb run net.json --discover --stats --query 0 'q(I,T) :- pub(I,T,Y)'
//! ```

use p2pdb::core::config::UpdateMode;
use p2pdb::core::netfile::NetworkFile;
use p2pdb::core::system::{RunSpec, UpdateReport};
use p2pdb::relational::ShowRow;
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{build_system, Distribution, WorkloadConfig};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sample") => cmd_sample(),
        Some("workload") => cmd_workload(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("launch") => cmd_launch(&args[1..]),
        _ => {
            eprintln!(
                "usage: p2pdb <sample|workload|run|serve|launch> [options]   \
                 (see --help in source)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stopped early (`p2pdb … | head`) is not an error.
        Err(e) if e.is::<ReaderGone>() => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.downcast_ref::<Usage>().is_some() {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// An argument-validation failure: printed like any error but exits with
/// status 2, so scripts can tell "you called it wrong" from "it failed".
#[derive(Debug)]
struct Usage(String);

impl std::fmt::Display for Usage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Usage {}

fn usage(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(Usage(msg.into()))
}

/// Stdout's reader went away: the command stops, and exits 0.
#[derive(Debug)]
struct ReaderGone;

impl std::fmt::Display for ReaderGone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("stdout closed")
    }
}

impl std::error::Error for ReaderGone {}

/// Writes one line to stdout; a closed pipe is [`ReaderGone`].
fn say(line: std::fmt::Arguments<'_>) -> CliResult {
    match writeln!(std::io::stdout().lock(), "{line}") {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Err(Box::new(ReaderGone)),
        written => Ok(written?),
    }
}

/// `println!` that ends the command instead of panicking when stdout's
/// reader is gone.
macro_rules! outln {
    ($($arg:tt)*) => {
        say(format_args!($($arg)*))?
    };
}

fn cmd_sample() -> CliResult {
    let sample = NetworkFile::from_json(
        r#"{
        "super_peer": 0,
        "nodes": [
            { "id": 0, "name": "A", "schema": "a(x: int, y: int)." },
            { "id": 1, "name": "B", "schema": "b(x: int, y: int).",
              "data": { "b": [[{"Int":1},{"Int":2}], [{"Int":2},{"Int":3}]] } }
        ],
        "rules": [ { "name": "r1", "text": "B:b(X,Y) => A:a(X,Y)" } ]
    }"#,
    )?;
    outln!("{}", sample.to_json());
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Every flag `workload` understands, with the number of values it consumes.
const WORKLOAD_FLAGS: &[(&str, usize)] = &[
    ("--topology", 1),
    ("--size", 1),
    ("--records", 1),
    ("--overlap", 1),
    ("--seed", 1),
];

fn cmd_workload(args: &[String]) -> CliResult {
    reject_unknown_flags("workload", WORKLOAD_FLAGS, args)?;
    let size: u32 = flag_value(args, "--size").unwrap_or("7").parse()?;
    let records: usize = flag_value(args, "--records").unwrap_or("50").parse()?;
    let overlap: u8 = flag_value(args, "--overlap").unwrap_or("0").parse()?;
    let seed: u64 = flag_value(args, "--seed").unwrap_or("42").parse()?;
    let topology = match flag_value(args, "--topology").unwrap_or("tree") {
        "tree" => {
            // Choose the depth of a binary tree closest to the size.
            let mut depth = 1;
            while (Topology::Tree {
                branching: 2,
                depth: depth + 1,
            })
            .node_count()
                <= size as usize
            {
                depth += 1;
            }
            Topology::Tree {
                branching: 2,
                depth,
            }
        }
        "layered" => Topology::LayeredDag {
            layers: (size / 3).max(2),
            width: 3,
            fanout: 2,
        },
        "clique" => Topology::Clique { n: size },
        "ring" => Topology::Ring { n: size.max(2) },
        "chain" => Topology::Chain { n: size },
        other => return Err(usage(format!("workload: unknown topology `{other}`"))),
    };
    topology
        .validate()
        .map_err(|e| usage(format!("workload: {topology}: {e}")))?;
    let cfg = WorkloadConfig {
        topology,
        records_per_node: records,
        distribution: if overlap == 0 {
            Distribution::Disjoint
        } else {
            Distribution::OverlapNeighbors { percent: overlap }
        },
        seed,
    };
    // Materialise the workload into a network file by building the system
    // once and exporting its initial state.
    let sys = build_system(&cfg)?.build()?;
    outln!("{}", sys.export().to_json());
    Ok(())
}

/// Every flag `run` understands, with the number of values it consumes.
const RUN_FLAGS: &[(&str, usize)] = &[
    ("--mode", 1),
    ("--discover", 0),
    ("--paper-faithful", 0),
    ("--query", 2),
    ("--stats", 0),
    ("--durable", 0),
    ("--churn", 1),
    ("--snapshot-every", 1),
    ("--concurrent", 1),
    ("--codec", 1),
    ("--runtime", 1),
    ("--threads", 1),
    ("--trace", 0),
    ("--export", 1),
];

/// Rejects any `--flag` that `cmd` does not know: flags are looked up by
/// name wherever they stand, so a typo or a removed flag would otherwise
/// run the default configuration without a word. Flag values are skipped,
/// whatever they look like.
fn reject_unknown_flags(cmd: &str, flags: &[(&str, usize)], args: &[String]) -> CliResult {
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        i += 1;
        if let Some((_, values)) = flags.iter().find(|(flag, _)| flag == arg) {
            i += values;
        } else if arg.starts_with("--") {
            let known: Vec<&str> = flags.iter().map(|(flag, _)| *flag).collect();
            return Err(usage(format!(
                "{cmd}: unknown flag `{arg}` (known: {})",
                known.join(" ")
            )));
        }
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("run: missing <network.json>".into());
    };
    reject_unknown_flags("run", RUN_FLAGS, &args[1..])?;
    let text = std::fs::read_to_string(path)?;
    let file = NetworkFile::from_json(&text)?;
    let mut builder = file.into_builder()?;
    match flag_value(args, "--mode").unwrap_or("eager") {
        "eager" => builder.config_mut().mode = UpdateMode::Eager,
        "rounds" => builder.config_mut().mode = UpdateMode::Rounds,
        other => return Err(format!("unknown mode `{other}`").into()),
    }
    if args.iter().any(|a| a == "--paper-faithful") {
        // The baseline: every answer re-evaluates its fragment and carries
        // the whole current extension (delta-driven answers are the
        // default).
        builder.config_mut().paper_faithful = true;
    }
    if args.iter().any(|a| a == "--trace") {
        builder.config_mut().trace_capacity = 256;
    }
    if let Some(codec) = flag_value(args, "--codec") {
        builder.config_mut().codec = codec.parse::<p2pdb::net::Codec>()?;
    }

    // Runtime selection: `RunSpec::shards` is 0 on the deterministic
    // simulator (the default), else the shard threads the pool multiplexes
    // all peers over (`--threads`, default: one per core).
    let threads: Option<usize> = (flag_value(args, "--threads"))
        .map(|v| {
            v.parse()
                .map_err(|_| usage(format!("--threads expects a positive number, got `{v}`")))
        })
        .transpose()?;
    let shards = match (flag_value(args, "--runtime").unwrap_or("sim"), threads) {
        ("sim", None) => 0,
        ("sim", Some(_)) => Err(usage(
            "--threads only applies to --runtime sharded (the sim runtime is \
             single-threaded by design)",
        ))?,
        ("sharded", Some(0)) => Err(usage(
            "--threads 0 makes no sense: the sharded runtime needs at least one \
             shard thread (drop the flag for one shard per core)",
        ))?,
        ("sharded", _) if args.iter().any(|a| a == "--trace") => Err(usage(
            "--trace is simulator-only: drop the flag or use --runtime sim",
        ))?,
        ("sharded", threads) => {
            threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
        }
        (runtime, _) => Err(usage(format!(
            "unknown runtime `{runtime}`: expected sim or sharded"
        )))?,
    };

    // Concurrent sessions.
    let concurrent: Option<usize> = flag_value(args, "--concurrent")
        .map(str::parse)
        .transpose()?;
    if concurrent == Some(0) {
        return Err(
            "--concurrent 0 makes no sense: an update run needs at least one \
                    session (use --concurrent 1 for a single session, or drop the flag)"
                .into(),
        );
    }

    // Durability & churn.
    let durable = args.iter().any(|a| a == "--durable");
    let churn_n: Option<u32> = flag_value(args, "--churn").map(str::parse).transpose()?;
    let snapshot_every: Option<u64> = flag_value(args, "--snapshot-every")
        .map(str::parse)
        .transpose()?;
    if !durable {
        if churn_n.is_some() {
            return Err("--churn requires --durable: without durability a crashed \
                        peer loses its data for good (enable persistence or drop --churn)"
                .into());
        }
        if snapshot_every.is_some() {
            return Err(
                "--snapshot-every requires --durable: it sets the write-ahead-log \
                        records between snapshots, which only exist with persistence on"
                    .into(),
            );
        }
    }
    builder.config_mut().durability = durable;
    if let Some(k) = snapshot_every {
        builder.config_mut().snapshot_every = k;
    }
    if let Some(n) = churn_n.filter(|n| *n > 0) {
        // Crash the non-super peers round-robin, staggered mid-session.
        let victims: Vec<NodeId> = file
            .nodes
            .iter()
            .map(|d| NodeId(d.id))
            .filter(|id| id.0 != file.super_peer)
            .collect();
        if victims.is_empty() {
            return Err("--churn needs at least one non-super peer".into());
        }
        let mut plan = p2pdb::net::ChurnPlan::none();
        for i in 0..n as u64 {
            let node = victims[i as usize % victims.len()];
            let crash_at = p2pdb::net::SimTime::from_millis(2 + 3 * i);
            let restart_at = p2pdb::net::SimTime::from_millis(2 + 3 * i + 2);
            plan = plan.with_crash(node, crash_at, restart_at);
        }
        builder.set_churn(plan);
    }

    // Roots for interleaved sessions: spread across the declared nodes
    // (the same deterministic spread the concurrent-writers workloads use).
    let roots: Vec<NodeId> = match concurrent {
        Some(n) => {
            let nodes: Vec<NodeId> = file.nodes.iter().map(|d| NodeId(d.id)).collect();
            p2pdb::workload::pick_writer_indices(nodes.len(), n)
                .into_iter()
                .map(|i| nodes[i])
                .collect()
        }
        None => vec![NodeId(file.super_peer)],
    };
    let churned = churn_n.unwrap_or(0) > 0;
    let spec = RunSpec {
        roots,
        // Churn can stall a wave (a crashed peer cannot echo); drive the
        // sessions to closure with bounded re-drives.
        redrives: if churned { 8 } else { 0 },
        shards,
        ..Default::default()
    };
    let mut sys = builder.build()?;
    sys.check_run(&spec)?;

    if args.iter().any(|a| a == "--discover") {
        let report = sys.run_discovery(&[]);
        outln!(
            "discovery: {} messages, {} virtual time, closed: {}",
            report.messages,
            report.outcome.virtual_time,
            report.all_closed
        );
        for (node, peer) in sys.peers() {
            if let Some(paths) = peer.paths() {
                let mut shown: Vec<String> = paths
                    .iter()
                    .map(|p| p2pdb::topology::paths::format_path(p))
                    .collect();
                shown.sort();
                outln!(
                    "  {node}: {}",
                    if shown.is_empty() {
                        "∅".into()
                    } else {
                        shown.join(" ")
                    }
                );
            }
        }
    }

    let reports = sys.run(&spec);
    let (clock, trailer) = if shards > 0 {
        let cross = sys.net_stats().cross_shard_sends;
        let line = format!("sharded: {shards} threads, {cross} cross-shard sends");
        ("wall", Some(line))
    } else {
        let churn = churned.then(|| {
            let s = sys.sum_stats();
            format!(
                "churn: {} crashes, {} recoveries, {} resync rows, {} redrive(s)",
                s.crashes,
                s.recoveries,
                s.resync_rows,
                reports.iter().map(|r| r.redrives).max().unwrap_or(0)
            )
        });
        ("virtual time", churn)
    };
    print_reports(&reports, clock, trailer)?;

    if args.iter().any(|a| a == "--trace") {
        let columns: Vec<NodeId> = sys.peers().map(|(id, _)| *id).take(6).collect();
        outln!("{}", sys.trace().render_sequence_diagram(&columns));
    }

    if let Some(i) = args.iter().position(|a| a == "--query") {
        let node: u32 = args
            .get(i + 1)
            .ok_or("--query needs NODE and QUERY")?
            .parse()?;
        let query = args.get(i + 2).ok_or("--query needs NODE and QUERY")?;
        let answers = sys.query(NodeId(node), query)?;
        let noun = if answers.len() == 1 {
            "answer"
        } else {
            "answers"
        };
        outln!("{} {noun} at node {}:", answers.len(), NodeId(node));
        for row in answers.iter().take(25) {
            outln!("  {}", ShowRow(row));
        }
        if answers.len() > 25 {
            outln!("  … ({} more)", answers.len() - 25);
        }
    }

    if args.iter().any(|a| a == "--stats") {
        outln!("per-peer statistics:");
        let collected = sys.collect_stats();
        for (node, stats) in &collected {
            outln!("  {node}: {stats}");
        }
        let total_sessions: u64 = collected.values().map(|s| s.sessions_participated).sum();
        let peak = collected
            .values()
            .map(|s| s.concurrent_peak)
            .max()
            .unwrap_or(0);
        outln!(
            "sessions: {} launched, {} peer-participations, peak {} concurrent",
            spec.roots.len(),
            total_sessions,
            peak
        );
    }

    if let Some(out) = flag_value(args, "--export") {
        std::fs::write(out, sys.export().to_json())?;
        outln!("exported materialised state to {out}");
    }
    Ok(())
}

/// Prints an update run's reports, whichever runtime ran it: the whole
/// run's traffic and closure, one line per session when there are several,
/// then `trailer`. Fails if the peers recorded errors. `clock` names what
/// the run's time measures.
fn print_reports(reports: &[UpdateReport], clock: &str, trailer: Option<String>) -> CliResult {
    let report = &reports[0];
    outln!(
        "update: {} messages, {} bytes, {} {clock}, all closed: {}",
        report.messages,
        report.bytes,
        report.outcome.virtual_time,
        reports.iter().all(|r| r.all_closed),
    );
    if reports.len() > 1 {
        for r in reports {
            outln!(
                "  session {}: {} messages, {} bytes, closed: {}",
                r.session,
                r.session_messages,
                r.session_bytes,
                r.all_closed
            );
        }
    }
    if let Some(line) = trailer {
        outln!("{line}");
    }
    if report.errors.is_empty() {
        return Ok(());
    }
    for (node, err) in &report.errors {
        eprintln!("  {node}: {err}");
    }
    Err("peers reported errors".into())
}

/// All occurrences of a repeatable flag's value (`--peer M=ADDR ...`).
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// Shared by `serve` and `launch`: the `--durable`/`--state-dir` pairing.
fn durable_state_dir(
    verb: &str,
    args: &[String],
) -> Result<Option<std::path::PathBuf>, Box<dyn std::error::Error>> {
    let durable = args.iter().any(|a| a == "--durable");
    let state_dir = flag_value(args, "--state-dir");
    match (durable, state_dir) {
        (true, Some(dir)) => Ok(Some(std::path::PathBuf::from(dir))),
        (true, None) => Err(usage(format!(
            "{verb}: --durable needs --state-dir DIR (where the WAL and snapshots live)"
        ))),
        (false, Some(_)) => Err(usage(format!(
            "{verb}: --state-dir only makes sense with --durable"
        ))),
        (false, None) => Ok(None),
    }
}

/// Every flag `serve` understands, with the number of values it consumes.
const SERVE_FLAGS: &[(&str, usize)] = &[
    ("--node", 1),
    ("--listen", 1),
    ("--peer", 1),
    ("--codec", 1),
    ("--durable", 0),
    ("--state-dir", 1),
    ("--snapshot-every", 1),
];

fn cmd_serve(args: &[String]) -> CliResult {
    use p2pdb::core::socket::{prepare, ServeConfig};

    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(usage("serve: missing <network.json>"));
    };
    reject_unknown_flags("serve", SERVE_FLAGS, &args[1..])?;
    let node: u32 = match flag_value(args, "--node") {
        Some(v) => v
            .parse()
            .map_err(|e| usage(format!("serve: --node {v}: not a node id ({e})")))?,
        None => {
            return Err(usage(
                "serve: missing --node N (which declared node to host)",
            ))
        }
    };
    let listen: std::net::SocketAddr = match flag_value(args, "--listen") {
        Some(v) => v.parse().map_err(|e| {
            usage(format!(
                "serve: --listen {v}: not a socket address like 127.0.0.1:7000 ({e})"
            ))
        })?,
        None => return Err(usage("serve: missing --listen ADDR (e.g. 127.0.0.1:7000)")),
    };
    let codec = match flag_value(args, "--codec") {
        Some(v) => v
            .parse::<p2pdb::net::Codec>()
            .map_err(|e| usage(format!("serve: --codec {v}: {e}")))?,
        None => p2pdb::net::Codec::Json,
    };
    let mut peers = std::collections::BTreeMap::new();
    for spec in flag_values(args, "--peer") {
        let (id, addr) = spec.split_once('=').ok_or_else(|| {
            usage(format!(
                "serve: --peer {spec}: expected NODE=ADDR, e.g. 2=127.0.0.1:7002"
            ))
        })?;
        let id: u32 = id
            .parse()
            .map_err(|e| usage(format!("serve: --peer {spec}: bad node id ({e})")))?;
        let addr: std::net::SocketAddr = addr
            .parse()
            .map_err(|e| usage(format!("serve: --peer {spec}: bad address ({e})")))?;
        peers.insert(id, addr);
    }
    let state_dir = durable_state_dir("serve", args)?;
    let snapshot_every: Option<u64> = flag_value(args, "--snapshot-every")
        .map(str::parse)
        .transpose()
        .map_err(|e| usage(format!("serve: --snapshot-every: {e}")))?;
    if snapshot_every.is_some() && state_dir.is_none() {
        return Err(usage("serve: --snapshot-every requires --durable"));
    }

    let text = std::fs::read_to_string(path)?;
    let netfile = NetworkFile::from_json(&text)?;
    let mut cfg = ServeConfig::new(netfile, node, listen);
    cfg.peers = peers;
    cfg.codec = codec;
    cfg.state_dir = state_dir;
    if let Some(k) = snapshot_every {
        cfg.snapshot_every = k;
    }

    let server = match prepare(&cfg) {
        Ok(s) => s,
        Err(p2pdb::core::CoreError::Listen { addr, detail }) => {
            // A dead listen address is a caller mistake (typo'd interface,
            // port already taken), not a runtime failure.
            return Err(usage(format!("serve: --listen {addr}: {detail}")));
        }
        Err(p2pdb::core::CoreError::UnknownNode(n)) => {
            return Err(usage(format!(
                "serve: --node {n}: not declared in {path} (check the network file)"
            )));
        }
        Err(e) => return Err(e.into()),
    };
    outln!(
        "serving node {} on {} (codec {}, {})",
        node,
        server.local_addr(),
        codec.name(),
        if server.recovered() {
            "recovered from disk"
        } else if cfg.state_dir.is_some() {
            "durable, fresh"
        } else {
            "volatile"
        }
    );
    let outcome = server.run()?;
    outln!(
        "node {} done: {} frames / {} bytes sent, {} frames / {} bytes received, \
         {} reconnects",
        outcome.node,
        outcome.transport.frames_sent,
        outcome.transport.bytes_sent,
        outcome.transport.frames_received,
        outcome.transport.bytes_received,
        outcome.transport.reconnects,
    );
    if !outcome.errors.is_empty() {
        for err in &outcome.errors {
            eprintln!("  {err}");
        }
        return Err("peer recorded errors".into());
    }
    Ok(())
}

/// Every flag `launch` understands, with the number of values it consumes.
const LAUNCH_FLAGS: &[(&str, usize)] = &[
    ("--codec", 1),
    ("--timeout-ms", 1),
    ("--durable", 0),
    ("--state-dir", 1),
    ("--no-verify", 0),
    ("--json", 0),
    ("--bin", 1),
];

fn cmd_launch(args: &[String]) -> CliResult {
    use p2pdb::core::socket::{launch_cluster, ClusterConfig};

    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(usage("launch: missing <network.json>"));
    };
    reject_unknown_flags("launch", LAUNCH_FLAGS, &args[1..])?;
    let codec = match flag_value(args, "--codec") {
        Some(v) => v
            .parse::<p2pdb::net::Codec>()
            .map_err(|e| usage(format!("launch: --codec {v}: {e}")))?,
        None => p2pdb::net::Codec::Json,
    };
    let timeout_ms: u64 = flag_value(args, "--timeout-ms")
        .unwrap_or("60000")
        .parse()
        .map_err(|e| usage(format!("launch: --timeout-ms: {e}")))?;
    let state_dir = durable_state_dir("launch", args)?;
    let json_out = args.iter().any(|a| a == "--json");
    let bin = match flag_value(args, "--bin") {
        Some(p) => std::path::PathBuf::from(p),
        None => std::env::current_exe()?,
    };

    let mut cfg = ClusterConfig::new(std::path::PathBuf::from(path), bin);
    cfg.codec = codec;
    cfg.state_dir = state_dir;
    cfg.timeout = std::time::Duration::from_millis(timeout_ms);
    cfg.verify = !args.iter().any(|a| a == "--no-verify");

    // Progress goes to stderr under --json so stdout stays machine-readable.
    let mut progress = |line: String| {
        if json_out {
            eprintln!("{line}");
        } else {
            // The cluster is reaped either way; a closed stdout ends the
            // command after that.
            let _ = say(format_args!("{line}"));
        }
    };
    let outcome = launch_cluster(&cfg, &mut progress)?;

    if json_out {
        let t = &outcome.transport_total;
        let mut fields = vec![
            format!("\"nodes\":{}", outcome.counters.len()),
            format!("\"codec\":\"{}\"", codec.name()),
            format!("\"wall_ms\":{}", outcome.converge_wall.as_millis()),
            format!("\"frames_sent\":{}", t.frames_sent),
            format!("\"bytes_sent\":{}", t.bytes_sent),
            format!("\"reconnects\":{}", t.reconnects),
        ];
        if let Some(ok) = outcome.verified {
            fields.push(format!("\"verified\":{ok}"));
            fields.push(format!("\"sim_messages\":{}", outcome.sim_messages));
            fields.push(format!("\"sim_bytes\":{}", outcome.sim_bytes));
        }
        outln!("{{{}}}", fields.join(","));
    } else {
        for (node, c) in &outcome.counters {
            outln!(
                "node {}: {} frames / {} bytes sent, {} frames / {} bytes received, \
                 {} reconnects, {} tuples inserted",
                node,
                c.transport.frames_sent,
                c.transport.bytes_sent,
                c.transport.frames_received,
                c.transport.bytes_received,
                c.transport.reconnects,
                c.peer.tuples_inserted,
            );
            for err in &c.errors {
                eprintln!("  node {node}: {err}");
            }
        }
        let t = &outcome.transport_total;
        outln!(
            "cluster: {} nodes, {} frames / {} bytes on the wire, {} reconnects, \
             converged in {:.1?}",
            outcome.counters.len(),
            t.frames_sent,
            t.bytes_sent,
            t.reconnects,
            outcome.converge_wall,
        );
        match outcome.verified {
            Some(true) => outln!(
                "verified: MATCH vs simulator and oracle (sim shipped {} messages / {} bytes)",
                outcome.sim_messages,
                outcome.sim_bytes
            ),
            Some(false) => {}
            None => outln!("verification skipped (--no-verify)"),
        }
    }
    if outcome.verified == Some(false) {
        return Err("cluster database diverges from the in-process simulator/oracle".into());
    }
    if outcome.counters.values().any(|c| !c.errors.is_empty()) {
        return Err("peers recorded errors".into());
    }
    Ok(())
}
