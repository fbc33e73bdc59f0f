//! End-to-end tests of the real-socket stack: `p2pdb serve` children on
//! loopback, handshake rejection of misconfigured peers, full multi-process
//! cluster convergence under both codecs (the binary one shipping fewer
//! bytes), durable restart + resync over TCP, and child reaping on failed
//! launches.

use p2pdb::core::messages::ProtocolMsg;
use p2pdb::core::oracle::GlobalDb;
use p2pdb::core::socket::Controller;
use p2pdb::net::{Codec, SessionId};
use p2pdb::topology::NodeId;
use p2pdb::transport::{client_handshake, Hello, RejectReason, TransportError, DEFAULT_MAX_FRAME};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_p2pdb")
}

fn workload(topology: &str, size: u32, dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let out = Command::new(bin())
        .args([
            "workload",
            "--topology",
            topology,
            "--size",
            &size.to_string(),
            "--records",
            "8",
        ])
        .output()
        .expect("workload runs");
    assert!(out.status.success());
    let path = dir.join(format!("net-{topology}-{size}.json"));
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

/// `serve` children, killed and waited when dropped: a failing assertion
/// leaves none of them running.
struct Serves(Vec<Child>);

impl Drop for Serves {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns one `serve` child and returns it with its resolved listen
/// address (parsed from the `serving node … on ADDR` banner).
fn spawn_serve(net: &std::path::Path, node: u32, args: &[String]) -> (Child, SocketAddr) {
    let mut child = Command::new(bin())
        .arg("serve")
        .arg(net)
        .args(["--node", &node.to_string()])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    // Hand the pipe back to the child handle: dropping it would make the
    // child's next println! die on EPIPE.
    child.stdout = Some(reader.into_inner());
    let addr = line
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listen address in banner: {line:?}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad address in banner {line:?}: {e}"));
    (child, addr)
}

#[test]
fn handshake_rejects_misconfigured_peers() {
    let dir = std::env::temp_dir().join("p2pdb_transport_hs");
    let net = workload("ring", 4, &dir);
    let (child, addr) = spawn_serve(&net, 0, &["--listen".into(), "127.0.0.1:0".into()]);
    let mut serves = Serves(vec![child]);

    let connect = || {
        let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    };

    // Wrong codec: the server runs JSON, a binary pipe must be refused
    // with the typed reason (and the detail says what the server wanted).
    let mut s = connect();
    let err = client_handshake(
        &mut s,
        &Hello::pipe(NodeId(1), Codec::Binary),
        DEFAULT_MAX_FRAME,
    )
    .expect_err("codec mismatch refused");
    match err {
        TransportError::Rejected { reason, detail } => {
            assert_eq!(reason, RejectReason::Codec);
            assert!(detail.contains("json"), "detail: {detail}");
        }
        other => panic!("expected Rejected, got {other}"),
    }

    // Version skew.
    let mut stale = Hello::pipe(NodeId(1), Codec::Json);
    stale.version = 9;
    let mut s = connect();
    let err = client_handshake(&mut s, &stale, DEFAULT_MAX_FRAME).expect_err("version refused");
    match err {
        TransportError::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Version),
        other => panic!("expected Rejected, got {other}"),
    }

    // A node id the netfile never declared.
    let mut s = connect();
    let err = client_handshake(
        &mut s,
        &Hello::pipe(NodeId(99), Codec::Json),
        DEFAULT_MAX_FRAME,
    )
    .expect_err("unknown node refused");
    match err {
        TransportError::Rejected { reason, .. } => assert_eq!(reason, RejectReason::UnknownNode),
        other => panic!("expected Rejected, got {other}"),
    }

    // A well-formed peer pipe and a control connection both get in; the
    // control socket answers the typed protocol and can stop the server.
    let mut s = connect();
    let server = client_handshake(
        &mut s,
        &Hello::pipe(NodeId(1), Codec::Json),
        DEFAULT_MAX_FRAME,
    )
    .expect("matching pipe accepted");
    assert_eq!(server, NodeId(0));

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut ctl = Controller::connect(addr, deadline).expect("control accepted");
    ctl.shutdown().expect("server acknowledges shutdown");
    let status = serves.0[0].wait().expect("server exits");
    assert!(status.success(), "serve exited with {status}");
}

/// `bytes_sent` of each codec's launch on the same network: whichever of
/// the two launch tests finishes second compares them, so the binary
/// codec's saving over real TCP is checked without a third cluster.
static BYTES_SENT: Mutex<BTreeMap<&str, u64>> = Mutex::new(BTreeMap::new());

/// The value of `"key":` in the one-line JSON summary of `launch --json`.
fn json_field<'a>(summary: &'a str, key: &str) -> &'a str {
    let start = summary
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {summary}"))
        + key.len()
        + 3;
    let rest = &summary[start..];
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

fn launch_and_check(net: &std::path::Path, codec: &'static str) {
    let out = Command::new(bin())
        .arg("launch")
        .arg(net)
        .args(["--codec", codec, "--json"])
        .output()
        .expect("launch runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launch {codec}: {stdout}\n{stderr}");
    let summary = stdout.trim();
    assert_eq!(json_field(summary, "verified"), "true", "launch {codec}");
    assert!(
        stderr.contains("children exited cleanly"),
        "launch {codec}: {stderr}"
    );
    let bytes: u64 = json_field(summary, "bytes_sent").parse().unwrap();
    assert!(bytes > 0, "launch {codec}: nothing crossed the wire");

    let mut sent = BYTES_SENT.lock().unwrap_or_else(PoisonError::into_inner);
    sent.insert(codec, bytes);
    if let (Some(&json), Some(&binary)) = (sent.get("json"), sent.get("binary")) {
        assert!(
            binary < json,
            "binary shipped {binary} B over TCP, JSON {json} B"
        );
    }
}

#[test]
fn launch_ring_converges_and_matches_sim_json() {
    let dir = std::env::temp_dir().join("p2pdb_transport_launch");
    let net = workload("ring", 5, &dir);
    launch_and_check(&net, "json");
}

#[test]
fn launch_ring_converges_and_matches_sim_binary() {
    let dir = std::env::temp_dir().join("p2pdb_transport_launch");
    let net = workload("ring", 5, &dir);
    launch_and_check(&net, "binary");
}

#[test]
fn durable_serve_restarts_and_resyncs_over_the_socket() {
    let dir = std::env::temp_dir().join("p2pdb_transport_durable");
    let _ = std::fs::remove_dir_all(&dir);
    let net = workload("chain", 3, &dir);
    let state = dir.join("state");

    // Reserve fixed ports so the restarted node comes back where its
    // peers expect it. Every probe stays bound until all three are picked:
    // one released early could hand its port to the next bind.
    let probes: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = probes.iter().map(|p| p.local_addr().unwrap()).collect();
    drop(probes);
    let serve_args = |node: u32| -> Vec<String> {
        let mut a = vec!["--listen".into(), addrs[node as usize].to_string()];
        for peer in 0..3u32 {
            if peer != node {
                a.push("--peer".into());
                a.push(format!("{peer}={}", addrs[peer as usize]));
            }
        }
        a.extend([
            "--durable".into(),
            "--state-dir".into(),
            state.to_string_lossy().into_owned(),
        ]);
        a
    };

    let mut children = Serves(Vec::new());
    for node in 0..3u32 {
        children
            .0
            .push(spawn_serve(&net, node, &serve_args(node)).0);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut ctls: Vec<Controller> = addrs
        .iter()
        .map(|a| Controller::connect(*a, deadline).expect("control up"))
        .collect();

    // Drive one update session to fix-point.
    let session = SessionId::new(NodeId(0), 1);
    ctls[0]
        .inject(0, ProtocolMsg::StartUpdate { session })
        .unwrap();
    loop {
        let closed = ctls.iter_mut().all(|c| c.session_closed(session).unwrap());
        if closed {
            break;
        }
        assert!(Instant::now() < deadline, "no fix-point within 30s");
        std::thread::sleep(Duration::from_millis(20));
    }
    let before = GlobalDb(
        [(NodeId(0), ctls[0].snapshot().unwrap())]
            .into_iter()
            .collect(),
    );
    assert!(
        before.0[&NodeId(0)].total_tuples() > 0,
        "the update materialised rows at the head node"
    );

    // Cleanly stop node 0, then bring it back on the same address and
    // state dir: it must adopt the on-disk state (a restart, not a fresh
    // boot) and resync over TCP while nodes 1 and 2 keep running.
    ctls[0].shutdown().unwrap();
    let status = children.0[0].wait().unwrap();
    assert!(status.success());

    let (revived, _) = spawn_serve(&net, 0, &serve_args(0));
    children.0[0] = revived;
    let deadline = Instant::now() + Duration::from_secs(30);
    ctls[0] = Controller::connect(addrs[0], deadline).expect("restarted control up");
    let (stats, _, _) = ctls[0].stats().unwrap();
    assert!(
        stats.recoveries >= 1,
        "restart counted as a recovery: {stats:?}"
    );

    // The restarted node converges back to the pre-restart database.
    loop {
        let after = GlobalDb(
            [(NodeId(0), ctls[0].snapshot().unwrap())]
                .into_iter()
                .collect(),
        );
        if after.equivalent(&before) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "restarted node did not resync to the pre-restart state"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    for ctl in &mut ctls {
        ctl.shutdown().unwrap();
    }
    for child in &mut children.0 {
        let status = child.wait().unwrap();
        assert!(status.success());
    }
}

#[test]
fn failed_launch_reaps_every_child() {
    let dir = std::env::temp_dir().join("p2pdb_transport_reap");
    let net = workload("ring", 4, &dir);
    // A 1 ms budget: long enough to spawn the fleet (and print the pids),
    // far too short to converge — the launch must fail AND leave no
    // orphaned serve processes behind.
    let out = Command::new(bin())
        .arg("launch")
        .arg(&net)
        .args(["--timeout-ms", "1"])
        .output()
        .expect("launch runs");
    assert!(!out.status.success(), "a 1ms launch cannot succeed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let pids: Vec<u32> = stdout
        .lines()
        .filter_map(|l| {
            let rest = l.split(" pid ").nth(1)?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .collect();
    assert_eq!(pids.len(), 4, "all four spawns were announced: {stdout}");
    for pid in pids {
        // The launcher wait()s every child it kills, so the pid must be
        // fully gone (not even a zombie) once the process exits.
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "child {pid} still alive after failed launch"
        );
    }
}

/// A launch whose children refuse their stores says why, and says it at
/// once: every child that exited is named with its exit status and the
/// last line it printed, and the launch fails as soon as they are gone
/// instead of waiting out its timeout.
#[test]
fn a_failed_launch_names_each_exited_child_and_its_last_line() {
    let dir = std::env::temp_dir().join("p2pdb_transport_refused_store");
    let _ = std::fs::remove_dir_all(&dir);
    let net = workload("ring", 3, &dir);
    let state = dir.join("state");
    let launch = |extra: &[&str]| {
        Command::new(bin())
            .arg("launch")
            .arg(&net)
            .args(extra)
            .arg("--durable")
            .arg("--state-dir")
            .arg(&state)
            .output()
            .expect("launch runs")
    };
    let first = launch(&[]);
    assert!(first.status.success(), "{first:?}");
    // The stores hold JSON payloads: under the binary codec every child
    // refuses its store and exits before its control socket is up.
    let began = Instant::now();
    let second = launch(&["--codec", "binary", "--timeout-ms", "10000"]);
    let took = began.elapsed();
    assert!(!second.status.success(), "a refused store cannot launch");
    assert!(took < Duration::from_secs(2), "failed after {took:?}");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("corrupt storage"), "{stderr}");
    for node in 0..3 {
        assert!(
            stderr.contains(&format!("node {node} exited with exit status: 1")),
            "{stderr}"
        );
    }
}
