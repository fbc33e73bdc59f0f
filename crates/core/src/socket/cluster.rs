//! The multi-process cluster launcher behind `p2pdb launch`.
//!
//! One `p2pdb serve` child process per declared node, all on loopback:
//! pick free ports, spawn the fleet, wait for every control socket, inject
//! the session's `StartUpdate` at the super-peer, poll the protocol's own
//! fix-point signal (`session_closed` at every node — the cross-process
//! reading of the Dijkstra–Scholten + completion-flag termination), then
//! collect per-node databases and counters, shut everyone down, and
//! optionally verify the distributed result against the in-process
//! simulator and the centralized oracle on the same netfile.
//!
//! Children are reaped on **every** exit path: the `Fleet` guard kills
//! and waits whatever is still alive when it drops, so a failed or timed
//! out launch leaves no orphaned `serve` processes listening. Each child's
//! stderr is drained as it runs and its last few KiB kept, so a failed
//! launch names every child that already exited, with its exit status and
//! the last line it printed (a store it refused, say).

use super::Controller;
use crate::error::{CoreError, CoreResult};
use crate::messages::ProtocolMsg;
use crate::netfile::NetworkFile;
use crate::oracle::GlobalDb;
use crate::stats::PeerStats;
use p2p_net::{Codec, SessionId};
use p2p_topology::NodeId;
use p2p_transport::TransportStats;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-node counters collected before shutdown.
#[derive(Debug, Clone)]
pub struct NodeCounters {
    /// Protocol counters (queries, answers, rows, inserts …).
    pub peer: PeerStats,
    /// Socket counters (frames, bytes, connects, reconnects).
    pub transport: TransportStats,
    /// Structured errors the peer recorded.
    pub errors: Vec<String>,
}

/// Configuration of one launch.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Path of the network file (passed through to every child).
    pub netfile_path: PathBuf,
    /// The `p2pdb` binary to spawn (`current_exe` in the CLI).
    pub bin: PathBuf,
    /// Wire codec for the whole cluster.
    pub codec: Codec,
    /// Durable state root; `Some` runs every child with
    /// `--durable --state-dir <dir>`.
    pub state_dir: Option<PathBuf>,
    /// Overall deadline: spawn, converge, collect and shut down within
    /// this budget or fail (children still get reaped).
    pub timeout: Duration,
    /// Verify the cluster result against the in-process simulator and the
    /// centralized fix-point oracle on the same netfile.
    pub verify: bool,
}

impl ClusterConfig {
    /// Defaults: JSON codec, volatile, 60 s budget, verification on.
    pub fn new(netfile_path: PathBuf, bin: PathBuf) -> Self {
        ClusterConfig {
            netfile_path,
            bin,
            codec: Codec::Json,
            state_dir: None,
            timeout: Duration::from_secs(60),
            verify: true,
        }
    }
}

/// What a successful launch reports.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The session that was driven to fix-point.
    pub session: SessionId,
    /// Spawned child PIDs, in node order.
    pub pids: Vec<(u32, u32)>,
    /// Wall-clock from first spawn to all-closed.
    pub converge_wall: Duration,
    /// Per-node counters.
    pub counters: BTreeMap<u32, NodeCounters>,
    /// Cluster-wide transport totals.
    pub transport_total: TransportStats,
    /// The collected global database (every node's relations, remapped
    /// into this process's symbol space).
    pub db: GlobalDb,
    /// `Some(true)` if verification ran and both the simulator and the
    /// oracle agree tuple-for-tuple (modulo null renaming); `None` when
    /// verification was off.
    pub verified: Option<bool>,
    /// Messages the in-process simulator delivered on the same workload
    /// (only when verification ran).
    pub sim_messages: u64,
    /// Bytes the in-process simulator shipped on the same workload.
    pub sim_bytes: u64,
}

/// Bytes of each child's stderr kept for a failure report.
const STDERR_TAIL: usize = 4 << 10;

/// One `serve` child and the thread draining its stderr.
struct Member {
    node: u32,
    child: Child,
    /// Ends when the child's stderr closes, with its last [`STDERR_TAIL`]
    /// bytes; taken once, by the first report that names the child.
    stderr: Option<JoinHandle<Vec<u8>>>,
}

impl Member {
    /// `node N exited with STATUS`, then the last line the child printed.
    fn exited(&mut self, status: ExitStatus) -> String {
        let tail = self
            .stderr
            .take()
            .and_then(|drain| drain.join().ok())
            .unwrap_or_default();
        let tail = String::from_utf8_lossy(&tail);
        match tail.lines().map(str::trim).rfind(|l| !l.is_empty()) {
            Some(line) => format!("node {} exited with {status}: {line}", self.node),
            None => format!("node {} exited with {status}", self.node),
        }
    }
}

/// Reads a child's stderr to its end, so the child never blocks on a full
/// pipe, and returns the last [`STDERR_TAIL`] bytes.
fn drain_tail(mut pipe: ChildStderr) -> Vec<u8> {
    let mut tail = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match pipe.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                tail.extend_from_slice(&buf[..n]);
                if tail.len() > 2 * STDERR_TAIL {
                    tail.drain(..tail.len() - STDERR_TAIL);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let cut = tail.len().saturating_sub(STDERR_TAIL);
    tail.split_off(cut)
}

/// Child processes with kill-on-drop semantics.
struct Fleet {
    children: Vec<Member>,
}

impl Fleet {
    /// Waits for `member` to exit, killing it at the deadline.
    fn reap_one(member: &mut Member, deadline: Instant) -> Option<String> {
        let node = member.node;
        loop {
            match member.child.try_wait() {
                Ok(Some(status)) if status.success() => return None,
                Ok(Some(status)) => return Some(member.exited(status)),
                Ok(None) => {
                    if Instant::now() >= deadline {
                        let _ = member.child.kill();
                        let _ = member.child.wait();
                        return Some(format!("node {node} did not exit in time; killed"));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Some(format!("node {node}: wait failed: {e}")),
            }
        }
    }

    /// Graceful path: children were asked to shut down; give them until
    /// `deadline`, then force. Returns complaints (empty = all clean).
    fn reap_all(&mut self, deadline: Instant) -> Vec<String> {
        let mut complaints = Vec::new();
        for member in &mut self.children {
            if let Some(c) = Self::reap_one(member, deadline) {
                complaints.push(c);
            }
        }
        self.children.clear();
        complaints
    }

    /// True once the child of `node` has exited.
    fn exited(&mut self, node: u32) -> bool {
        (self.children.iter_mut())
            .any(|m| m.node == node && matches!(m.child.try_wait(), Ok(Some(_))))
    }

    /// Failure path: `e`, followed by every child that already exited.
    fn explain(&mut self, e: CoreError) -> CoreError {
        let exited: Vec<String> = self
            .children
            .iter_mut()
            .filter_map(|m| match m.child.try_wait() {
                Ok(Some(status)) => Some(m.exited(status)),
                _ => None,
            })
            .collect();
        if exited.is_empty() {
            return e;
        }
        let reason = match e {
            CoreError::Transport(reason) => reason,
            other => other.to_string(),
        };
        CoreError::Transport(format!("{reason}; {}", exited.join("; ")))
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Failure path: whatever is still running gets killed and waited —
        // no orphaned `serve` processes after a failed launch.
        for member in &mut self.children {
            let _ = member.child.kill();
            let _ = member.child.wait();
        }
    }
}

/// Spawns the whole network as child processes, drives one global update
/// session to fix-point, and collects the result. `progress` receives
/// human-readable one-liners as the launch advances (the CLI prints them;
/// tests parse the `pid` lines to assert reaping).
pub fn launch_cluster(
    cfg: &ClusterConfig,
    progress: &mut dyn FnMut(String),
) -> CoreResult<ClusterOutcome> {
    let text = std::fs::read_to_string(&cfg.netfile_path)
        .map_err(|e| CoreError::Transport(format!("read {}: {e}", cfg.netfile_path.display())))?;
    let netfile = NetworkFile::from_json(&text)?;
    if netfile.nodes.is_empty() {
        return Err(CoreError::Transport(
            "network file declares no nodes".into(),
        ));
    }
    let deadline = Instant::now() + cfg.timeout;
    let started = Instant::now();

    // Reserve one loopback port per node: bind :0, remember, and release
    // them all at once — a probe released early could hand its port to
    // the next bind, and two nodes would share it.
    let mut addrs: BTreeMap<u32, SocketAddr> = BTreeMap::new();
    let mut probes = Vec::with_capacity(netfile.nodes.len());
    for node in &netfile.nodes {
        let probe = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| CoreError::Transport(format!("reserve port: {e}")))?;
        let addr = probe
            .local_addr()
            .map_err(|e| CoreError::Transport(format!("reserve port: {e}")))?;
        addrs.insert(node.id, addr);
        probes.push(probe);
    }
    drop(probes);

    // Spawn the fleet.
    let mut fleet = Fleet {
        children: Vec::with_capacity(netfile.nodes.len()),
    };
    let mut pids = Vec::new();
    for node in &netfile.nodes {
        let mut cmd = Command::new(&cfg.bin);
        cmd.arg("serve")
            .arg(&cfg.netfile_path)
            .arg("--node")
            .arg(node.id.to_string())
            .arg("--listen")
            .arg(addrs[&node.id].to_string())
            .arg("--codec")
            .arg(cfg.codec.name());
        for (peer, addr) in &addrs {
            if *peer != node.id {
                cmd.arg("--peer").arg(format!("{peer}={addr}"));
            }
        }
        if let Some(dir) = &cfg.state_dir {
            cmd.arg("--durable").arg("--state-dir").arg(dir);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| {
            fleet.explain(CoreError::Transport(format!(
                "spawn {} serve: {e}",
                cfg.bin.display()
            )))
        })?;
        let stderr = child
            .stderr
            .take()
            .map(|pipe| std::thread::spawn(move || drain_tail(pipe)));
        let pid = child.id();
        pids.push((node.id, pid));
        progress(format!(
            "spawned node {} pid {} listening on {}",
            node.id, pid, addrs[&node.id]
        ));
        fleet.children.push(Member {
            node: node.id,
            child,
            stderr,
        });
    }

    // Wait for every control socket, then drive the session.
    let outcome = drive(
        cfg, &netfile, &addrs, &mut fleet, deadline, started, progress,
    );

    match outcome {
        Ok((session, converge_wall, counters, db)) => {
            let complaints = fleet.reap_all(Instant::now() + Duration::from_secs(10));
            if !complaints.is_empty() {
                return Err(CoreError::Transport(complaints.join("; ")));
            }
            progress(format!("all {} children exited cleanly", pids.len()));

            let mut transport_total = TransportStats::default();
            for c in counters.values() {
                transport_total.merge(&c.transport);
            }

            let (verified, sim_messages, sim_bytes) = if cfg.verify {
                let (ok, msgs, bytes) = verify_against_sim(&netfile, cfg.codec, &db)?;
                (Some(ok), msgs, bytes)
            } else {
                (None, 0, 0)
            };

            Ok(ClusterOutcome {
                session,
                pids,
                converge_wall,
                counters,
                transport_total,
                db,
                verified,
                sim_messages,
                sim_bytes,
            })
        }
        // `fleet` drops here on the error path: children killed + waited.
        Err(e) => Err(fleet.explain(e)),
    }
}

/// Connect, inject, poll to fix-point, collect. Split out so every `?`
/// inside still runs the caller's fleet cleanup.
fn drive(
    cfg: &ClusterConfig,
    netfile: &NetworkFile,
    addrs: &BTreeMap<u32, SocketAddr>,
    fleet: &mut Fleet,
    deadline: Instant,
    started: Instant,
    progress: &mut dyn FnMut(String),
) -> CoreResult<(SessionId, Duration, BTreeMap<u32, NodeCounters>, GlobalDb)> {
    // Each node's control socket comes up, or its child exits first: then
    // the launch fails once every node has done one or the other, so the
    // report names every child that exited, without waiting for `deadline`.
    let mut controllers: BTreeMap<u32, Controller> = BTreeMap::new();
    let mut down = Vec::new();
    for (&node, &addr) in addrs {
        loop {
            match Controller::connect(addr, Instant::now()) {
                Ok(ctl) => {
                    controllers.insert(node, ctl);
                    break;
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) if fleet.exited(node) => {
                    down.push(node.to_string());
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }
    if !down.is_empty() {
        return Err(CoreError::Transport(format!(
            "control socket never came up at node {}",
            down.join(", ")
        )));
    }
    progress(format!("all {} control sockets up", controllers.len()));

    // One global update session rooted at the super-peer, epoch 1 — the
    // driver-assigned id every process can predict.
    let root = netfile.super_peer;
    let session = SessionId::new(NodeId(root), 1);
    controllers
        .get_mut(&root)
        .ok_or_else(|| CoreError::UnknownNode(root.to_string()))?
        .inject(root, ProtocolMsg::StartUpdate { session })?;

    // The cluster's own termination signal: every node reports the session
    // closed (or retired). Flood initiation reaches the whole connected
    // component, so this is exactly the in-process all-closed condition.
    loop {
        let mut all = true;
        for ctl in controllers.values_mut() {
            if !ctl.session_closed(session)? {
                all = false;
                break;
            }
        }
        if all {
            break;
        }
        if Instant::now() >= deadline {
            return Err(CoreError::Transport(format!(
                "cluster did not reach fix-point within {:?}",
                cfg.timeout
            )));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let converge_wall = started.elapsed();
    progress(format!(
        "session {session:?} closed at all {} nodes after {:.1?}",
        controllers.len(),
        converge_wall
    ));

    // Collect databases and counters, then shut everyone down.
    let mut counters = BTreeMap::new();
    let mut db = BTreeMap::new();
    for (&node, ctl) in &mut controllers {
        db.insert(NodeId(node), ctl.snapshot()?);
        let (peer, transport, errors) = ctl.stats()?;
        counters.insert(
            node,
            NodeCounters {
                peer,
                transport,
                errors,
            },
        );
    }
    for ctl in controllers.values_mut() {
        ctl.shutdown()?;
    }
    Ok((session, converge_wall, counters, GlobalDb(db)))
}

/// Runs the same netfile through the in-process simulator and the
/// centralized oracle; true iff the cluster's database is tuple-identical
/// (modulo null renaming) to both.
fn verify_against_sim(
    netfile: &NetworkFile,
    codec: Codec,
    cluster_db: &GlobalDb,
) -> CoreResult<(bool, u64, u64)> {
    let mut builder = netfile.into_builder()?;
    builder.config_mut().codec = codec;
    let mut system = builder.build()?;
    let report = system.run_update();
    let sim_db = system.snapshot();
    let oracle = system.oracle()?;
    let ok = report.all_closed && cluster_db.equivalent(&sim_db) && cluster_db.equivalent(&oracle);
    Ok((ok, report.messages, report.bytes))
}
