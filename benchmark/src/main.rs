//! The repo benchmark: six closed-loop update-session workloads, measured
//! end to end with tracing off and layer by layer in a separate traced run.
//! See `README.md` in this directory and `BENCHMARK.json` at the repository
//! root.
//!
//! ```text
//! p2p_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! p2p_benchmark --all         [--seed N] [--seconds S]   every workload, timed and traced
//! p2p_benchmark --self-check  [--seed N] [--seconds S]   A/A: the timed set twice, compared
//! p2p_benchmark --emit-manifest                          prints BENCHMARK.json
//! ```

mod calib;
mod cluster;
mod flood;
mod inputs;
mod layers;
mod manifest;
mod pass;
mod report;
mod selfcheck;
mod simloop;
mod stats;
mod tcp;
mod trace;
mod traced;

use flood::FloodSpec;
use inputs::{join_scenario, ring_scenario, JoinSize, RingSize, Scenario};
use p2p_core::error::{CoreError, CoreResult};
use p2p_core::peer::DbPeer;
use p2p_net::Codec;
use pass::Pass;
use report::{ResultLine, Traced};
use simloop::LoopSpec;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, Ordering};
use tcp::{TcpExtras, TcpSpec};
use traced::TracedPeer;

/// Serialises the tests that record into the process-global tracer.
#[cfg(test)]
pub static TRACE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `benchmark/out`: where traces go and where durable peers keep their
/// state while a run lasts. Nothing is written outside it.
pub struct OutDir {
    root: PathBuf,
    scratch: PathBuf,
}

/// Makes scratch names unique within the process (a counter, nothing more).
static NEXT_SCRATCH: AtomicU32 = AtomicU32::new(0);

impl OutDir {
    fn new() -> Self {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let scratch = root.join(format!("scratch-{}-{n}", std::process::id()));
        OutDir { root, scratch }
    }

    /// A fresh, empty directory that disappears when the run ends.
    pub fn scratch(&self, tag: &str) -> CoreResult<PathBuf> {
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let dir = self.scratch.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| CoreError::Storage(e.to_string()))?;
        Ok(dir)
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

const RING: RingSize = RingSize {
    nodes: 8,
    records: 40,
    batch: 2,
};
const JOIN: JoinSize = JoinSize {
    body_nodes: 4,
    rows: 50_000,
    batch: 20,
};
const TCP_RING: RingSize = RingSize {
    nodes: 6,
    records: 200,
    batch: 0,
};

fn ring(seed: u64, sessions: usize) -> CoreResult<Scenario> {
    ring_scenario(seed, RING, sessions)
}

fn join(seed: u64, sessions: usize) -> CoreResult<Scenario> {
    join_scenario(seed, JOIN, sessions)
}

/// `tcp_ring`'s inputs on the simulator under the binary codec: where its
/// traced run takes `peer.*` and the captured messages from.
fn tcp_replay(seed: u64, sessions: usize) -> CoreResult<Scenario> {
    let mut scenario = ring_scenario(seed, TCP_RING, sessions)?;
    scenario.builder.config_mut().codec = Codec::Binary;
    Ok(scenario)
}

/// Scales a session count with `--seconds`; the counts below are sized for
/// the manifest's `run_seconds` on the reference host. The work of a run is
/// a function of `(workload, seed, seconds)` only, never of how fast the
/// host happens to be, so counts repeat exactly.
fn scaled(base: usize, floor: usize, seconds: u64) -> usize {
    ((base as u64 * seconds).div_ceil(manifest::RUN_SECONDS) as usize).max(floor)
}

enum Plan {
    Loop(LoopSpec),
    Flood(FloodSpec),
    Tcp(TcpSpec),
}

fn plan(workload: &str, seconds: u64) -> Option<Plan> {
    let looped = |scenario, warmup, loops, durable| {
        Plan::Loop(LoopSpec {
            scenario,
            warmup,
            sessions: scaled(200, 200, seconds),
            setups: 3,
            loops,
            durable,
        })
    };
    let flood = |sessions, shards| {
        Plan::Flood(FloodSpec {
            peers: 10_000,
            degree: 4,
            records: 4,
            warmup: 1,
            sessions: scaled(sessions, 11, seconds),
            shards,
        })
    };
    Some(match workload {
        "writers_ring" => looped(ring, 5, 3, false),
        "durable_ring" => looped(ring, 5, 1, true),
        "join_fanin" => looped(join, 3, 1, false),
        "flood_sim" => flood(12, 0),
        "flood_sharded" => flood(16, 2),
        "tcp_ring" => Plan::Tcp(TcpSpec {
            size: TCP_RING,
            warmup: 20,
            sessions: scaled(600, 200, seconds),
            setups: 3,
        }),
        _ => return None,
    })
}

fn timed_pass(plan: &Plan, seed: u64, out: &OutDir) -> CoreResult<Pass> {
    match plan {
        Plan::Loop(spec) => simloop::run_pass::<DbPeer>(spec, seed, out),
        Plan::Flood(spec) => flood::run_pass::<DbPeer>(spec, seed),
        Plan::Tcp(spec) => tcp::run_pass(spec, seed, None),
    }
}

/// The traced run: an untraced reference pass, then the pass with the
/// wrappers on, then the replays.
fn traced_run(workload: &str, plan: &Plan, seed: u64, out: &OutDir) -> CoreResult<ResultLine> {
    let mut tcp_extras = TcpExtras::default();
    let mut shards1_session_ms = 0.0;
    let mut run_codec = Codec::Json;
    let (reference, mut traced) = match plan {
        Plan::Loop(spec) => (
            simloop::run_pass::<DbPeer>(spec, seed, out)?,
            simloop::run_pass::<TracedPeer>(spec, seed, out)?,
        ),
        Plan::Flood(spec) => {
            if spec.shards > 0 {
                let one = FloodSpec {
                    shards: 1,
                    warmup: 0,
                    sessions: 3,
                    ..*spec
                };
                let pass = flood::run_pass::<DbPeer>(&one, seed)?;
                shards1_session_ms = stats::median(&pass.session_ms);
            }
            (
                flood::run_pass::<DbPeer>(spec, seed)?,
                flood::run_pass::<TracedPeer>(spec, seed)?,
            )
        }
        Plan::Tcp(spec) => {
            run_codec = Codec::Binary;
            let replay = LoopSpec {
                scenario: tcp_replay,
                warmup: 2,
                sessions: 40,
                setups: 1,
                loops: 1,
                durable: false,
            };
            (
                tcp::run_pass(spec, seed, Some(&mut tcp_extras))?,
                simloop::run_pass::<TracedPeer>(&replay, seed, out)?,
            )
        }
    };
    let spans = trace::collect();
    let relational = layers::relational_replay(&mut traced.layers)?;
    let codec = layers::codec_replay(&traced.layers.captured, run_codec)?;
    let echo = match plan {
        Plan::Tcp(_) => layers::echo_replay(&codec.binary_frames)?,
        _ => layers::EchoReplay::default(),
    };
    let storage = layers::storage_replay(&traced.layers)?;

    let path = out.root.join(format!("trace-{workload}.json"));
    trace::write_file(&path, workload, seed, &spans)
        .map_err(|e| CoreError::Storage(format!("{}: {e}", path.display())))?;
    eprintln!("trace written to {}", path.display());

    let values = report::per_layer(&Traced {
        reference: &reference,
        traced: &traced,
        spans: &spans,
        relational,
        codec,
        echo,
        storage,
        tcp: tcp_extras,
        shards1_session_ms,
    });
    // A failure in either pass fails the run.
    let failed = reference.failed.max(u64::from(!traced.correct()));
    Ok(ResultLine::new(reference.attempted, failed, values, true))
}

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    mode: Mode,
}

enum Mode {
    One,
    All,
    SelfCheck,
    EmitManifest,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: manifest::RUN_SECONDS,
        trace: false,
        mode: Mode::One,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--all" => args.mode = Mode::All,
            "--self-check" => args.mode = Mode::SelfCheck,
            "--emit-manifest" => args.mode = Mode::EmitManifest,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_one(workload: &str, args: &Args) -> CoreResult<ResultLine> {
    let plan = plan(workload, args.seconds)
        .ok_or_else(|| CoreError::UnknownNode(format!("workload `{workload}`")))?;
    let out = OutDir::new();
    if args.trace {
        return traced_run(workload, &plan, args.seed, &out);
    }
    let pass = timed_pass(&plan, args.seed, &out)?;
    if pass.session_ms.is_empty() {
        return Err(CoreError::Storage(format!(
            "no session passed ({} attempted, {} failed)",
            pass.attempted, pass.failed
        )));
    }
    eprintln!(
        "{workload} seed {} inputs {:016x}: {} sessions, raw p50 {:.3} ms, raw wall {:.2} s, \
         host speed factor {:.3}",
        args.seed,
        pass.input_digest,
        pass.attempted,
        stats::median(&pass.raw_session_ms),
        pass.raw_wall_s,
        pass.speed_factor,
    );
    Ok(ResultLine::new(
        pass.attempted,
        pass.failed,
        report::end_to_end(&pass),
        false,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::EmitManifest => {
            print!("{}", manifest::manifest_json());
            ExitCode::SUCCESS
        }
        Mode::All => selfcheck::run_all(args.seed, args.seconds),
        Mode::SelfCheck => selfcheck::self_check(args.seed, args.seconds),
        Mode::One => {
            let Some(workload) = args.workload.as_deref() else {
                eprintln!("error: --workload <name> (or --all, --self-check, --emit-manifest)");
                return ExitCode::from(2);
            };
            match run_one(workload, &args) {
                Ok(result) => {
                    let line = serde_json::to_string(&result).expect("results are plain data");
                    println!("{line}");
                    if result.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(1)
                }
            }
        }
    }
}
