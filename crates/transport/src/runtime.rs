//! The socket-backed runtime: one acceptor thread, one reader thread per
//! inbound connection, one writer thread per outgoing pipe, and a
//! single-threaded main loop that owns the peer.
//!
//! The delivery contract is the same one the simulator and the sharded
//! runtime honour: handlers run to completion one at a time, communicate
//! only through [`Context`], and each FIFO pipe preserves send order (a
//! pipe is one TCP connection, so ordering comes for free). Fan-out
//! payloads queued via `Context::send_to_many` share one `Arc`, and the
//! runtime encodes each unique message exactly once per drain through the
//! same [`PayloadMemo`] the in-memory runtimes size messages with.
//!
//! Threads communicate over `std::sync::mpsc`; every failure travels as a
//! typed [`TransportError`] event into the main loop, never as a panic.

use crate::error::{TransportError, TransportResult};
use crate::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use crate::handshake::{client_handshake, server_handshake, Hello, HelloKind};
use crate::stats::{StatCells, TransportStats};
use p2p_net::{Codec, Context, Outgoing, PayloadMemo, Peer, SimTime};
use p2p_topology::NodeId;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a message type crosses the wire. The runtime is generic over this,
/// so the transport crate stays protocol-agnostic; `p2p_core` implements
/// it for `ProtocolMsg` under both codecs.
pub trait FrameCodec<M>: Send + Sync + 'static {
    /// Which codec this encoder implements (checked in the handshake).
    fn codec(&self) -> Codec;
    /// Encodes one message into a frame payload.
    fn encode(&self, msg: &M) -> Vec<u8>;
    /// Decodes one frame payload.
    fn decode(&self, bytes: &[u8]) -> Result<M, String>;
}

/// Static configuration of one socket-backed node.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// This node's id (sent in pipe handshakes).
    pub node: NodeId,
    /// Address to listen on.
    pub listen: SocketAddr,
    /// Peer id → address map (who this node can *dial*).
    pub peers: BTreeMap<NodeId, SocketAddr>,
    /// Node ids accepted on inbound pipes. A node may legitimately accept
    /// a declared peer whose address it never learned, so this is the
    /// roster, not the keys of `peers`.
    pub accept_from: BTreeSet<NodeId>,
}

impl SocketConfig {
    /// A config that dials and accepts nobody yet.
    pub fn new(node: NodeId, listen: SocketAddr) -> Self {
        SocketConfig {
            node,
            listen,
            peers: BTreeMap::new(),
            accept_from: BTreeSet::new(),
        }
    }
}

/// Connection attempts before an outgoing pipe is declared dead: with
/// [`CONNECT_BACKOFF`], a ~10 s budget — generous enough for a whole
/// cluster cold-starting.
const CONNECT_ATTEMPTS: u32 = 200;

/// Pause between connection attempts.
const CONNECT_BACKOFF: Duration = Duration::from_millis(50);

/// What the control hook tells the runtime to do with a control request.
pub enum ControlAction {
    /// Send this reply frame and keep serving.
    Reply(Vec<u8>),
    /// Send this reply frame, wait for it to flush, then shut down.
    ReplyThenShutdown(Vec<u8>),
}

/// Reply travelling from the main loop back to a control reader thread.
struct ControlReply {
    bytes: Vec<u8>,
    /// When present, the control thread signals here after flushing —
    /// so a shutdown reply reaches the launcher before the process exits.
    flushed: Option<mpsc::Sender<()>>,
}

enum Event<M> {
    /// A protocol message arrived on an inbound pipe.
    Deliver { from: NodeId, msg: M },
    /// A control request arrived; the reply goes back through `reply`.
    Control {
        body: Vec<u8>,
        reply: mpsc::Sender<ControlReply>,
    },
    /// An inbound pipe reached clean EOF (peer shut down normally).
    PipeClosed,
    /// A thread hit an unrecoverable, typed failure.
    Fatal(TransportError),
}

struct WriterSeat {
    tx: mpsc::Sender<Arc<Vec<u8>>>,
    handle: JoinHandle<()>,
}

/// A bound, accepting socket node. [`SocketRuntime::run`] consumes it and
/// drives the peer until a control shutdown or a fatal transport error.
pub struct SocketRuntime<M, C> {
    config: SocketConfig,
    codec: Arc<C>,
    local_addr: SocketAddr,
    stats: Arc<StatCells>,
    shutdown: Arc<AtomicBool>,
    event_tx: mpsc::Sender<Event<M>>,
    event_rx: mpsc::Receiver<Event<M>>,
    writers: BTreeMap<NodeId, WriterSeat>,
    acceptor: Option<JoinHandle<()>>,
}

impl<M, C> SocketRuntime<M, C>
where
    M: Clone + Send + 'static,
    C: FrameCodec<M>,
{
    /// Binds the listener and starts accepting. Handshakes and reads
    /// happen on background threads from here on; nothing is delivered
    /// until [`SocketRuntime::run`].
    pub fn bind(config: SocketConfig, codec: C) -> TransportResult<Self> {
        let listener = TcpListener::bind(config.listen)
            .map_err(|e| TransportError::io(format!("bind {}", config.listen), &e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| TransportError::io("local_addr", &e))?;
        let (event_tx, event_rx) = mpsc::channel();
        let stats = Arc::new(StatCells::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let codec = Arc::new(codec);

        let acceptor = {
            let event_tx = event_tx.clone();
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let codec = Arc::clone(&codec);
            let my_node = config.node;
            let known = Arc::new(config.accept_from.clone());
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let event_tx = event_tx.clone();
                    let stats = Arc::clone(&stats);
                    let codec = Arc::clone(&codec);
                    let known = Arc::clone(&known);
                    std::thread::spawn(move || {
                        serve_connection(stream, my_node, codec, known, stats, event_tx)
                    });
                }
            })
        };

        Ok(SocketRuntime {
            config,
            codec,
            local_addr,
            stats,
            shutdown,
            event_tx,
            event_rx,
            writers: BTreeMap::new(),
            acceptor: Some(acceptor),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current transport counters.
    pub fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    /// Drives the peer until a control shutdown or a fatal error.
    ///
    /// * `start` runs once before any delivery — a durable node sends its
    ///   resync requests from here.
    /// * `on_control` handles each control request; its context's outgoing
    ///   messages are shipped like a handler's (this is how the launcher
    ///   injects the session-starting message).
    pub fn run<P, S, F>(
        mut self,
        mut peer: P,
        start: S,
        mut on_control: F,
    ) -> TransportResult<(P, TransportStats)>
    where
        P: Peer<M>,
        S: FnOnce(&mut P, &mut Context<M>),
        F: FnMut(&mut P, Vec<u8>, &mut Context<M>, TransportStats) -> ControlAction,
    {
        let started = Instant::now();
        let node = self.config.node;
        let mut next_id: u64 = 1;
        let mut pending: VecDeque<(NodeId, M)> = VecDeque::new();

        let mut ctx = Context::new(wall(started), node);
        start(&mut peer, &mut ctx);
        if let Err(e) = self.ship(ctx.take_outgoing(), &mut pending) {
            self.teardown();
            return Err(e);
        }

        loop {
            while let Some((from, msg)) = pending.pop_front() {
                let mut ctx = Context::new(wall(started), node);
                peer.on_envelope(from, next_id, msg, &mut ctx);
                next_id += 1;
                if let Err(e) = self.ship(ctx.take_outgoing(), &mut pending) {
                    self.teardown();
                    return Err(e);
                }
            }
            match self.event_rx.recv() {
                Ok(Event::Deliver { from, msg }) => pending.push_back((from, msg)),
                Ok(Event::Control { body, reply }) => {
                    let mut ctx = Context::new(wall(started), node);
                    let action = on_control(&mut peer, body, &mut ctx, self.stats.snapshot());
                    if let Err(e) = self.ship(ctx.take_outgoing(), &mut pending) {
                        self.teardown();
                        return Err(e);
                    }
                    match action {
                        ControlAction::Reply(bytes) => {
                            let _ = reply.send(ControlReply {
                                bytes,
                                flushed: None,
                            });
                        }
                        ControlAction::ReplyThenShutdown(bytes) => {
                            let (ftx, frx) = mpsc::channel();
                            let _ = reply.send(ControlReply {
                                bytes,
                                flushed: Some(ftx),
                            });
                            // Give the reply two seconds to reach the wire;
                            // a vanished controller should not wedge us.
                            let _ = frx.recv_timeout(Duration::from_secs(2));
                            let stats = self.stats.snapshot();
                            self.teardown();
                            return Ok((peer, stats));
                        }
                    }
                }
                Ok(Event::PipeClosed) => {}
                Ok(Event::Fatal(e)) => {
                    self.teardown();
                    return Err(e);
                }
                Err(_) => {
                    self.teardown();
                    return Err(TransportError::Io {
                        op: "event loop".into(),
                        detail: "all transport threads exited".into(),
                    });
                }
            }
        }
    }

    /// Encodes and enqueues a drained batch of outgoing messages. Each
    /// unique `Arc` payload is encoded once; self-sends loop back locally.
    fn ship(
        &mut self,
        outgoing: Vec<Outgoing<M>>,
        loopback: &mut VecDeque<(NodeId, M)>,
    ) -> TransportResult<()> {
        let mut encoded = PayloadMemo::default();
        for out in outgoing {
            if out.to == self.config.node {
                let msg = Arc::try_unwrap(out.msg).unwrap_or_else(|s| (*s).clone());
                loopback.push_back((self.config.node, msg));
                continue;
            }
            let (bytes, _) =
                encoded.get_or_insert_with(&out.msg, |m| Arc::new(self.codec.encode(m)));
            StatCells::bump(&self.stats.frames_sent);
            StatCells::add(&self.stats.bytes_sent, bytes.len() as u64);
            let to = out.to;
            let seat = self.writer_for(to)?;
            if seat.tx.send(bytes).is_err() {
                return Err(TransportError::PeerDisconnected {
                    node: to,
                    detail: "writer thread gave up".into(),
                });
            }
        }
        Ok(())
    }

    /// The writer seat for `to`, spawning its thread on first use.
    fn writer_for(&mut self, to: NodeId) -> TransportResult<&WriterSeat> {
        let slot = match self.writers.entry(to) {
            Entry::Occupied(seat) => return Ok(seat.into_mut()),
            Entry::Vacant(slot) => slot,
        };
        let addr = *self
            .config
            .peers
            .get(&to)
            .ok_or(TransportError::NoRoute { node: to })?;
        let (tx, rx) = mpsc::channel::<Arc<Vec<u8>>>();
        let hello = Hello::pipe(self.config.node, self.codec.codec());
        let stats = Arc::clone(&self.stats);
        let event_tx = self.event_tx.clone();
        let shutdown = Arc::clone(&self.shutdown);
        let handle =
            std::thread::spawn(move || writer_loop(to, addr, hello, rx, stats, event_tx, shutdown));
        Ok(slot.insert(WriterSeat { tx, handle }))
    }

    /// Stops the acceptor and joins the writer threads. Reader threads
    /// exit on their own when the remote ends close.
    fn teardown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept()`.
        let _ = TcpStream::connect(self.local_addr);
        for (_, seat) in std::mem::take(&mut self.writers) {
            drop(seat.tx);
            let _ = seat.handle.join();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Wall-clock time since the runtime started, as the `SimTime` handlers see.
fn wall(started: Instant) -> SimTime {
    SimTime::from_micros(started.elapsed().as_micros() as u64)
}

/// Inbound connection: handshake, then pipe-read or control loop.
fn serve_connection<M, C>(
    mut stream: TcpStream,
    my_node: NodeId,
    codec: Arc<C>,
    known: Arc<BTreeSet<NodeId>>,
    stats: Arc<StatCells>,
    event_tx: mpsc::Sender<Event<M>>,
) where
    M: Send + 'static,
    C: FrameCodec<M>,
{
    let _ = stream.set_nodelay(true);
    let hello = match server_handshake(
        &mut stream,
        my_node,
        codec.codec(),
        |n| known.contains(&n),
        DEFAULT_MAX_FRAME,
    ) {
        Ok(h) => h,
        Err(TransportError::UnexpectedEof { got: 0, .. }) => return, // probe/wake-up
        Err(_) => {
            StatCells::bump(&stats.rejects);
            return;
        }
    };
    StatCells::bump(&stats.accepts);
    match hello.kind {
        HelloKind::Pipe => pipe_read_loop(stream, hello.node, codec, stats, event_tx),
        HelloKind::Control => control_loop(stream, event_tx),
    }
}

/// Reads protocol frames off one inbound pipe until EOF or error.
fn pipe_read_loop<M, C>(
    mut stream: TcpStream,
    from: NodeId,
    codec: Arc<C>,
    stats: Arc<StatCells>,
    event_tx: mpsc::Sender<Event<M>>,
) where
    C: FrameCodec<M>,
{
    loop {
        match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            Ok(Some(payload)) => {
                StatCells::bump(&stats.frames_received);
                StatCells::add(&stats.bytes_received, payload.len() as u64);
                match codec.decode(&payload) {
                    Ok(msg) => {
                        if event_tx.send(Event::Deliver { from, msg }).is_err() {
                            return;
                        }
                    }
                    Err(detail) => {
                        let _ =
                            event_tx.send(Event::Fatal(TransportError::Decode { from, detail }));
                        return;
                    }
                }
            }
            Ok(None) => {
                StatCells::bump(&stats.pipes_closed);
                let _ = event_tx.send(Event::PipeClosed);
                return;
            }
            Err(e) => {
                // A torn frame or socket error on an established pipe is a
                // peer death, reported as such (not a panic, not garbage).
                let err = match e {
                    TransportError::UnexpectedEof { .. } | TransportError::Io { .. } => {
                        TransportError::PeerDisconnected {
                            node: from,
                            detail: e.to_string(),
                        }
                    }
                    other => other,
                };
                let _ = event_tx.send(Event::Fatal(err));
                return;
            }
        }
    }
}

/// Serves one control connection: request frame in, reply frame out.
fn control_loop<M>(mut stream: TcpStream, event_tx: mpsc::Sender<Event<M>>) {
    loop {
        match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            Ok(Some(body)) => {
                let (rtx, rrx) = mpsc::channel();
                if event_tx.send(Event::Control { body, reply: rtx }).is_err() {
                    return;
                }
                let Ok(reply) = rrx.recv() else { return };
                let wrote = write_frame(&mut stream, &reply.bytes)
                    .and_then(|_| stream.flush())
                    .is_ok();
                if let Some(flushed) = reply.flushed {
                    let _ = flushed.send(());
                }
                if !wrote {
                    return;
                }
            }
            // A controller going away is not a node failure.
            Ok(None) | Err(_) => return,
        }
    }
}

/// Owns one outgoing pipe: connects lazily, writes frames in order, and
/// reconnects (with a bounded budget) when the connection breaks.
fn writer_loop<M>(
    to: NodeId,
    addr: SocketAddr,
    hello: Hello,
    rx: mpsc::Receiver<Arc<Vec<u8>>>,
    stats: Arc<StatCells>,
    event_tx: mpsc::Sender<Event<M>>,
    shutdown: Arc<AtomicBool>,
) {
    let mut conn: Option<BufWriter<TcpStream>> = None;
    let mut ever_connected = false;
    while let Ok(frame) = rx.recv() {
        let mut retried = false;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let w = match conn {
                Some(ref mut w) => w,
                None => match connect_pipe(addr, &hello, &shutdown) {
                    Ok(stream) => {
                        StatCells::bump(&stats.connects);
                        if ever_connected {
                            StatCells::bump(&stats.reconnects);
                        }
                        ever_connected = true;
                        conn.insert(BufWriter::new(stream))
                    }
                    Err(e) => {
                        let err = if ever_connected {
                            TransportError::PeerDisconnected {
                                node: to,
                                detail: e.to_string(),
                            }
                        } else {
                            TransportError::ConnectFailed {
                                node: to,
                                addr: addr.to_string(),
                                detail: e.to_string(),
                            }
                        };
                        let _ = event_tx.send(Event::Fatal(err));
                        return;
                    }
                },
            };
            match write_frame(w, &frame).and_then(|_| w.flush()) {
                Ok(()) => break,
                Err(e) => {
                    conn = None;
                    if retried {
                        let _ = event_tx.send(Event::Fatal(TransportError::PeerDisconnected {
                            node: to,
                            detail: format!("write failed twice: {e}"),
                        }));
                        return;
                    }
                    retried = true;
                }
            }
        }
    }
}

/// Dials `addr` with a retry budget, performing the pipe handshake. A
/// typed rejection is terminal (retrying a codec mismatch cannot help);
/// connection refusals and handshake I/O errors are retried — the remote
/// process may simply not have bound its listener yet.
fn connect_pipe(
    addr: SocketAddr,
    hello: &Hello,
    shutdown: &AtomicBool,
) -> TransportResult<TcpStream> {
    let mut last = TransportError::Io {
        op: format!("connect {addr}"),
        detail: "no attempts made".into(),
    };
    for attempt in 0..CONNECT_ATTEMPTS {
        if shutdown.load(Ordering::SeqCst) {
            return Err(last);
        }
        if attempt > 0 {
            std::thread::sleep(CONNECT_BACKOFF);
        }
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                let _ = stream.set_nodelay(true);
                match client_handshake(&mut stream, hello, DEFAULT_MAX_FRAME) {
                    Ok(_) => return Ok(stream),
                    Err(e @ TransportError::Rejected { .. }) => return Err(e),
                    Err(e) => last = e,
                }
            }
            Err(e) => last = TransportError::io(format!("connect {addr}"), &e),
        }
    }
    Err(last)
}
