//! The socket-backed runtime: one `DbPeer` per OS process, speaking the
//! protocol over real TCP pipes (`p2p_transport`), plus the control plane
//! the cluster launcher drives it with.
//!
//! The peer logic is **unchanged** — the same `DbPeer` the simulator and
//! the sharded runtime host, with its Dijkstra–Scholten termination and
//! per-session routing, runs behind [`p2p_transport::SocketRuntime`].
//! What this module adds is the glue:
//!
//! * [`ProtoCodec`] — [`FrameCodec`] for [`ProtocolMsg`] under both wire
//!   codecs (JSON text / the binary encoding of [`crate::codec`]).
//! * [`ControlReq`] / [`ControlResp`] — the JSON control protocol every
//!   served node answers on its listen socket (inject a message, poll
//!   session fix-point, export the database, collect counters, shut
//!   down). Control frames are always JSON, independent of `--codec`:
//!   it is a cold path and greppable on the wire.
//! * [`serve`] — build the peer from a netfile and run it until a
//!   control shutdown.
//! * [`Controller`] — the client side of the control protocol.
//! * [`cluster`] — the multi-process launcher (`p2pdb launch`).
//!
//! Eager mode only: like the sharded runtime, real sockets have no
//! global lock-step, so the rounds variant (which the paper frames as the
//! synchronous alternative) stays simulator-only.

pub mod cluster;

use crate::config::UpdateMode;
use crate::error::{CoreError, CoreResult};
use crate::messages::ProtocolMsg;
use crate::netfile::NetworkFile;
use crate::peer::DbPeer;
use crate::stats::PeerStats;
use p2p_net::Peer as _;
use p2p_net::{Codec, SessionId};
use p2p_relational::{ConstCatalog, Database, SymId};
use p2p_storage::{FileBackend, PeerStorage};
use p2p_topology::NodeId;
use p2p_transport::runtime::ControlAction;
use p2p_transport::{
    read_frame, write_frame, FrameCodec, Hello, SocketConfig, SocketRuntime, TransportError,
    TransportStats, DEFAULT_MAX_FRAME,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use cluster::{launch_cluster, ClusterConfig, ClusterOutcome, NodeCounters};

/// [`FrameCodec`] for protocol messages: JSON text or the varint-packed
/// binary encoding, matching what `SystemConfig::codec` selects in-process.
pub struct ProtoCodec(pub Codec);

impl FrameCodec<ProtocolMsg> for ProtoCodec {
    fn codec(&self) -> Codec {
        self.0
    }

    fn encode(&self, msg: &ProtocolMsg) -> Vec<u8> {
        match self.0 {
            Codec::Json => serde_json::to_string(msg)
                .expect("protocol messages are plain data")
                .into_bytes(),
            Codec::Binary => crate::codec::encode_msg(msg),
        }
    }

    fn decode(&self, bytes: &[u8]) -> Result<ProtocolMsg, String> {
        match self.0 {
            Codec::Json => {
                let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
                serde_json::from_str(text).map_err(|e| e.to_string())
            }
            Codec::Binary => crate::codec::decode_msg(bytes).map_err(|e| e.to_string()),
        }
    }
}

/// A database leaving its process: the local relations plus the symbol
/// definitions for every interned constant in them, so the receiving
/// process can [`absorb`](ConstCatalog::absorb) the catalog and remap the
/// rows into its own `SymId` space (the same contract
/// `p2p_storage::DatabaseSnapshot` honours on disk).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DbExport {
    /// `(symbol, string)` definitions for every id occurring in `db`.
    pub catalog: Vec<(SymId, Arc<str>)>,
    /// The relations, rows carrying the *sender's* `SymId`s.
    pub db: Database,
}

impl DbExport {
    /// Captures a database for the wire.
    pub fn capture(db: &Database) -> Self {
        DbExport {
            catalog: ConstCatalog::global().export(db.syms()),
            db: db.clone(),
        }
    }

    /// Rebuilds the database in this process's symbol space.
    pub fn import(self) -> Database {
        let remap = ConstCatalog::global().absorb(&self.catalog);
        let mut db = self.db;
        if !remap.is_identity() {
            db.remap_syms(&|s| remap.map(s));
        }
        db
    }
}

/// A control request (JSON frame on a control connection).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ControlReq {
    /// Liveness probe.
    Ping,
    /// Deliver `msg` to the peer as if sent by node `from` (the launcher's
    /// equivalent of the simulator's `inject` — this is how a session's
    /// `StartUpdate` enters the network).
    Inject {
        /// Apparent sender.
        from: u32,
        /// The message (boxed: `ProtocolMsg` dwarfs the other variants).
        msg: Box<ProtocolMsg>,
    },
    /// Is the session `{root, epoch}` closed at this peer?
    SessionClosed {
        /// Session root node.
        root: u32,
        /// Session epoch.
        epoch: u64,
    },
    /// Export the local database (catalog-bearing, see [`DbExport`]).
    Snapshot,
    /// Collect the peer's protocol counters and transport counters.
    Stats,
    /// Reply, flush, and exit the serve loop.
    Shutdown,
}

/// A control response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ControlResp {
    /// Answer to [`ControlReq::Ping`].
    Pong {
        /// The serving node's id.
        node: u32,
    },
    /// The injected message was delivered.
    Injected,
    /// Answer to [`ControlReq::SessionClosed`].
    SessionClosed {
        /// Whether the session is closed (or retired) at this peer.
        closed: bool,
    },
    /// Answer to [`ControlReq::Snapshot`].
    Snapshot(Box<DbExport>),
    /// Answer to [`ControlReq::Stats`].
    Stats {
        /// Protocol counters.
        peer: Box<PeerStats>,
        /// Socket counters.
        transport: TransportStats,
        /// Structured errors the peer recorded.
        errors: Vec<String>,
    },
    /// Acknowledges [`ControlReq::Shutdown`]; the process exits after this
    /// frame flushes.
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// What went wrong.
        detail: String,
    },
}

/// Configuration of one served node.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The parsed network description (identical across all processes —
    /// that is what makes every process intern the same constants in the
    /// same order, and the dictionary remap in `absorb_dict` covers any
    /// drift).
    pub netfile: NetworkFile,
    /// Which declared node this process serves.
    pub node: u32,
    /// Listen address.
    pub listen: SocketAddr,
    /// Peer id → address for every *other* node.
    pub peers: BTreeMap<u32, SocketAddr>,
    /// Wire codec (must match the whole cluster; the handshake enforces it).
    pub codec: Codec,
    /// Durable state directory; `Some` attaches a `FileBackend` WAL +
    /// snapshot store under `<dir>/node-<id>` and resyncs over the socket
    /// after a restart.
    pub state_dir: Option<PathBuf>,
    /// Fewest WAL records between snapshots (durable only).
    pub snapshot_every: u64,
}

impl ServeConfig {
    /// A config with the runtime defaults (JSON codec, volatile, ~10 s
    /// connect budget).
    pub fn new(netfile: NetworkFile, node: u32, listen: SocketAddr) -> Self {
        ServeConfig {
            netfile,
            node,
            listen,
            peers: BTreeMap::new(),
            codec: Codec::Json,
            state_dir: None,
            snapshot_every: 64,
        }
    }
}

/// What [`serve`] reports after a clean shutdown.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The node served.
    pub node: NodeId,
    /// Final protocol counters.
    pub peer_stats: PeerStats,
    /// Final transport counters.
    pub transport: TransportStats,
    /// Structured errors the peer recorded (empty on a healthy run).
    pub errors: Vec<String>,
}

/// A bound, not-yet-running served node. Splitting bind from run lets the
/// CLI report a dead listen address as a usage error before forking any
/// threads, and lets tests learn the resolved port of `--listen :0`.
pub struct NodeServer {
    runtime: SocketRuntime<ProtocolMsg, ProtoCodec>,
    peer: DbPeer,
    node: NodeId,
    recovered: bool,
}

fn map_transport(node: NodeId, e: TransportError) -> CoreError {
    match e {
        TransportError::PeerDisconnected { node, detail } => {
            CoreError::PeerDisconnected { node, detail }
        }
        TransportError::ConnectFailed { node, addr, detail } => CoreError::PeerDisconnected {
            node,
            detail: format!("never reachable at {addr}: {detail}"),
        },
        other => CoreError::Transport(format!("node {node}: {other}")),
    }
}

/// Builds the peer from the netfile and binds the listener.
pub fn prepare(cfg: &ServeConfig) -> CoreResult<NodeServer> {
    if !cfg.netfile.nodes.iter().any(|n| n.id == cfg.node) {
        return Err(CoreError::UnknownNode(cfg.node.to_string()));
    }
    let mut builder = cfg.netfile.into_builder()?;
    {
        let c = builder.config_mut();
        c.mode = UpdateMode::Eager; // sockets have no global lock-step
        c.codec = cfg.codec;
        c.durability = cfg.state_dir.is_some();
        c.snapshot_every = cfg.snapshot_every;
    }
    let node = NodeId(cfg.node);
    let (_, mut peer) = (builder.build_peers_of(|id| id == node)?.pop())
        .expect("node id checked against the netfile above");

    // Swap the builder's in-memory store for the real on-disk one. An
    // existing store means this is a *restart*: adopt the disk state and
    // resync over the socket once the runtime is up.
    let mut recovered = false;
    if let Some(dir) = &cfg.state_dir {
        let node_dir = dir.join(format!("node-{}", cfg.node));
        let backend =
            FileBackend::open(&node_dir).map_err(|e| CoreError::Storage(e.to_string()))?;
        let storage = PeerStorage::with_codec(Box::new(backend), cfg.snapshot_every, cfg.codec);
        // One replay: the peer keeps what it rebuilt for the restart hook.
        peer.attach_storage(storage)
            .map_err(|e| CoreError::Storage(e.to_string()))?;
        recovered = peer.adopted_stored_state();
    }

    let mut socket = SocketConfig::new(node, cfg.listen);
    socket.peers = cfg
        .peers
        .iter()
        .map(|(id, addr)| (NodeId(*id), *addr))
        .collect();
    // Accept inbound pipes from every *declared* node, not just those with
    // a known address — declaration is what makes a peer legitimate.
    socket.accept_from = cfg
        .netfile
        .nodes
        .iter()
        .map(|n| NodeId(n.id))
        .filter(|id| *id != node)
        .collect();

    let runtime = match SocketRuntime::bind(socket, ProtoCodec(cfg.codec)) {
        Ok(rt) => rt,
        Err(TransportError::Io { op, detail }) if op.starts_with("bind ") => {
            return Err(CoreError::Listen {
                addr: cfg.listen.to_string(),
                detail,
            });
        }
        Err(e) => return Err(map_transport(node, e)),
    };

    Ok(NodeServer {
        runtime,
        peer,
        node,
        recovered,
    })
}

impl NodeServer {
    /// The bound listen address (resolves `--listen 127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.runtime.local_addr()
    }

    /// Whether the peer adopted prior on-disk state (restart).
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Serves until a control `Shutdown` or a fatal transport error.
    pub fn run(self) -> CoreResult<ServeOutcome> {
        let NodeServer {
            runtime,
            peer,
            node,
            recovered,
        } = self;
        let (peer, transport) = runtime
            .run(
                peer,
                |p, ctx| {
                    if recovered {
                        // A restarted durable node announces itself by
                        // re-requesting the fragments it was mid-way
                        // through — the same resync protocol the
                        // simulator's churn uses, now over TCP.
                        p.on_restart(ctx);
                    }
                },
                |p, body, ctx, stats| handle_control(p, &body, ctx, stats),
            )
            .map_err(|e| map_transport(node, e))?;
        Ok(ServeOutcome {
            node,
            peer_stats: peer.stats().clone(),
            transport,
            errors: peer.errors().to_vec(),
        })
    }
}

/// Builds the peer, binds, and serves — the body of `p2pdb serve`.
pub fn serve(cfg: &ServeConfig) -> CoreResult<ServeOutcome> {
    prepare(cfg)?.run()
}

fn handle_control(
    peer: &mut DbPeer,
    body: &[u8],
    ctx: &mut p2p_net::Context<ProtocolMsg>,
    transport: TransportStats,
) -> ControlAction {
    let resp_and_stop = |resp: ControlResp, stop: bool| {
        let bytes = serde_json::to_string(&resp)
            .expect("control responses are plain data")
            .into_bytes();
        if stop {
            ControlAction::ReplyThenShutdown(bytes)
        } else {
            ControlAction::Reply(bytes)
        }
    };
    let req: ControlReq = match std::str::from_utf8(body)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(t).map_err(|e| e.to_string()))
    {
        Ok(req) => req,
        Err(detail) => return resp_and_stop(ControlResp::Error { detail }, false),
    };
    match req {
        ControlReq::Ping => resp_and_stop(ControlResp::Pong { node: peer.id().0 }, false),
        ControlReq::Inject { from, msg } => {
            peer.on_message(NodeId(from), *msg, ctx);
            resp_and_stop(ControlResp::Injected, false)
        }
        ControlReq::SessionClosed { root, epoch } => resp_and_stop(
            ControlResp::SessionClosed {
                closed: peer.session_closed(SessionId::new(NodeId(root), epoch)),
            },
            false,
        ),
        ControlReq::Snapshot => resp_and_stop(
            ControlResp::Snapshot(Box::new(DbExport::capture(peer.database()))),
            false,
        ),
        ControlReq::Stats => resp_and_stop(
            ControlResp::Stats {
                peer: Box::new(peer.stats().clone()),
                transport,
                errors: peer.errors().to_vec(),
            },
            false,
        ),
        ControlReq::Shutdown => resp_and_stop(ControlResp::ShuttingDown, true),
    }
}

/// Client side of the control protocol: one TCP connection, JSON frames,
/// strict request/reply.
pub struct Controller {
    stream: TcpStream,
    addr: SocketAddr,
}

impl Controller {
    /// Connects and handshakes, retrying until `deadline` — the serve
    /// process may still be binding its listener.
    pub fn connect(addr: SocketAddr, deadline: Instant) -> CoreResult<Controller> {
        loop {
            let last = match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                Ok(mut stream) => {
                    let _ = stream.set_nodelay(true);
                    match p2p_transport::client_handshake(
                        &mut stream,
                        &Hello::control(),
                        DEFAULT_MAX_FRAME,
                    ) {
                        Ok(_) => return Ok(Controller { stream, addr }),
                        Err(e) => e.to_string(),
                    }
                }
                Err(e) => e.to_string(),
            };
            if Instant::now() >= deadline {
                return Err(CoreError::Transport(format!(
                    "control connect to {addr} timed out: {last}"
                )));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Sends one request and awaits its reply.
    pub fn request(&mut self, req: &ControlReq) -> CoreResult<ControlResp> {
        let body = serde_json::to_string(req)
            .expect("control requests are plain data")
            .into_bytes();
        write_frame(&mut self.stream, &body)
            .and_then(|_| self.stream.flush())
            .map_err(|e| CoreError::Transport(format!("control send to {}: {e}", self.addr)))?;
        let frame = read_frame(&mut self.stream, DEFAULT_MAX_FRAME)
            .map_err(|e| CoreError::Transport(format!("control read from {}: {e}", self.addr)))?
            .ok_or_else(|| {
                CoreError::Transport(format!("control peer {} closed the connection", self.addr))
            })?;
        let text = std::str::from_utf8(&frame)
            .map_err(|e| CoreError::Transport(format!("control reply from {}: {e}", self.addr)))?;
        serde_json::from_str(text)
            .map_err(|e| CoreError::Transport(format!("control reply from {}: {e}", self.addr)))
    }

    /// Injects a message into the served peer.
    pub fn inject(&mut self, from: u32, msg: ProtocolMsg) -> CoreResult<()> {
        match self.request(&ControlReq::Inject {
            from,
            msg: Box::new(msg),
        })? {
            ControlResp::Injected => Ok(()),
            other => Err(unexpected("Injected", &other)),
        }
    }

    /// Polls whether `sid` is closed at the served peer.
    pub fn session_closed(&mut self, sid: SessionId) -> CoreResult<bool> {
        match self.request(&ControlReq::SessionClosed {
            root: sid.root.0,
            epoch: sid.epoch,
        })? {
            ControlResp::SessionClosed { closed } => Ok(closed),
            other => Err(unexpected("SessionClosed", &other)),
        }
    }

    /// Fetches the served peer's database (remapped into this process's
    /// symbol space).
    pub fn snapshot(&mut self) -> CoreResult<Database> {
        match self.request(&ControlReq::Snapshot)? {
            ControlResp::Snapshot(export) => Ok(export.import()),
            other => Err(unexpected("Snapshot", &other)),
        }
    }

    /// Fetches counters.
    pub fn stats(&mut self) -> CoreResult<(PeerStats, TransportStats, Vec<String>)> {
        match self.request(&ControlReq::Stats)? {
            ControlResp::Stats {
                peer,
                transport,
                errors,
            } => Ok((*peer, transport, errors)),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Asks the served node to exit.
    pub fn shutdown(&mut self) -> CoreResult<()> {
        match self.request(&ControlReq::Shutdown)? {
            ControlResp::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(want: &str, got: &ControlResp) -> CoreError {
    CoreError::Transport(format!("control protocol: expected {want}, got {got:?}"))
}
