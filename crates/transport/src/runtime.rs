//! The socket-backed runtime: one acceptor thread, one reader thread per
//! inbound connection, and a single-threaded loop that owns the peer and
//! writes every frame the node sends.
//!
//! Delivery is the simulator's and the shard pool's: handlers run to
//! completion one at a time and talk only through [`Context`], and each
//! pipe (one TCP connection) keeps send order. A fan-out payload shares one
//! `Arc` and is encoded once per batch through [`PayloadMemo`].
//!
//! The loop takes events off the one `std::sync::mpsc` channel the reader
//! threads feed, runs the handler, and writes its sends itself: it dials a
//! pipe on first use and, when a write fails, redials once and writes the
//! frame again. It writes each control reply too, under a write timeout,
//! so a shutdown reply is on the wire before [`SocketRuntime::run`]
//! returns. A failure ends the loop as a typed [`TransportError`], never
//! as a panic. Writing from the loop means:
//!
//! * A send to a peer that is down stalls the node's deliveries for up to
//!   the connect budget (200 attempts 50 ms apart); control requests are
//!   still answered between attempts. A peer that stays down ends the node
//!   with [`TransportError::ConnectFailed`] (or
//!   [`TransportError::PeerDisconnected`] for a pipe that worked before).
//! * A reader that stops reading stalls its sender's loop through TCP
//!   backpressure; nothing queues on the sending side. The event channel on
//!   the receiving side is the one unbounded queue.

use crate::error::{TransportError, TransportResult};
use crate::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use crate::handshake::{client_handshake, server_handshake, Hello, HelloKind};
use crate::stats::{StatCells, TransportStats};
use p2p_net::{Codec, Context, Outgoing, PayloadMemo, Peer, SimTime};
use p2p_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::convert::Infallible;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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

/// How long the loop waits to write one control reply before it gives the
/// controller up: a vanished controller must not wedge the node.
const CONTROL_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// What the control hook tells the runtime to do with a control request.
pub enum ControlAction {
    /// Send this reply frame and keep serving.
    Reply(Vec<u8>),
    /// Send this reply frame, then shut down.
    ReplyThenShutdown(Vec<u8>),
}

enum Event<M> {
    /// A protocol message arrived on an inbound pipe.
    Deliver { from: NodeId, msg: M },
    /// A control request arrived; the loop writes the reply on `reply`,
    /// the control connection it came in on.
    Control {
        body: Vec<u8>,
        reply: Arc<TcpStream>,
    },
    /// A reader thread hit an unrecoverable, typed failure.
    Fatal(TransportError),
}

/// Why the loop stopped: a control request asked it to, or a typed failure.
enum Halt {
    Shutdown,
    Failed(TransportError),
}

/// A bound, accepting socket node. [`SocketRuntime::run`] consumes it and
/// drives the peer until a control shutdown or a fatal transport error.
pub struct SocketRuntime<M, C> {
    config: SocketConfig,
    codec: Arc<C>,
    local_addr: SocketAddr,
    stats: Arc<StatCells>,
    shutdown: Arc<AtomicBool>,
    event_rx: mpsc::Receiver<Event<M>>,
    /// Outgoing pipes by peer: present once dialed, `None` after a write
    /// broke the connection (the next dial is a reconnect).
    pipes: BTreeMap<NodeId, Option<TcpStream>>,
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
            event_rx,
            pipes: BTreeMap::new(),
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
        peer: P,
        start: S,
        on_control: F,
    ) -> TransportResult<(P, TransportStats)>
    where
        P: Peer<M>,
        S: FnOnce(&mut P, &mut Context<M>),
        F: FnMut(&mut P, Vec<u8>, &mut Context<M>, TransportStats) -> ControlAction,
    {
        let mut node = Loop {
            rt: &mut self,
            peer,
            on_control,
            started: Instant::now(),
            next_id: 1,
            pending: VecDeque::new(),
            outbox: Vec::new(),
        };
        let mut ctx = node.context();
        start(&mut node.peer, &mut ctx);
        node.outbox = ctx.take_outgoing();
        let Err(halt) = node.serve();
        let peer = node.peer;
        let stats = self.stats();
        match halt {
            Halt::Shutdown => Ok((peer, stats)),
            Halt::Failed(e) => Err(e),
        }
    }
}

/// Dropping a runtime — after [`SocketRuntime::run`], or a bound one never
/// run — stops the acceptor, which releases the listener, and closes the
/// outgoing pipes and the connections of unanswered control requests;
/// readers exit as remote ends close.
impl<M, C> Drop for SocketRuntime<M, C> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept()`.
        let _ = TcpStream::connect(self.local_addr);
        self.pipes.clear();
        while let Ok(event) = self.event_rx.try_recv() {
            if let Event::Control { reply, .. } = event {
                let _ = reply.shutdown(Shutdown::Both);
            }
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// The node's loop: the runtime, the peer, and what waits for the peer.
struct Loop<'r, M, C, P, F> {
    rt: &'r mut SocketRuntime<M, C>,
    peer: P,
    on_control: F,
    started: Instant,
    next_id: u64,
    /// Deliveries and self-sends not yet handed to the peer, in order.
    pending: VecDeque<(NodeId, M)>,
    /// Sends of handlers and control requests not yet written.
    outbox: Vec<Outgoing<M>>,
}

impl<M, C, P, F> Loop<'_, M, C, P, F>
where
    M: Clone + Send + 'static,
    C: FrameCodec<M>,
    P: Peer<M>,
    F: FnMut(&mut P, Vec<u8>, &mut Context<M>, TransportStats) -> ControlAction,
{
    /// A handler's context, timed by the wall clock since the loop started.
    fn context(&self) -> Context<M> {
        let now = SimTime::from_micros(self.started.elapsed().as_micros() as u64);
        Context::new(now, self.rt.config.node)
    }

    /// Writes what was sent, runs the next delivery, or blocks for the next
    /// event — until a shutdown or a failure.
    fn serve(&mut self) -> Result<Infallible, Halt> {
        loop {
            self.flush()?;
            if let Some((from, msg)) = self.pending.pop_front() {
                let mut ctx = self.context();
                self.peer.on_envelope(from, self.next_id, msg, &mut ctx);
                self.next_id += 1;
                self.outbox.extend(ctx.take_outgoing());
                continue;
            }
            let event = self.rt.event_rx.recv().map_err(|_| {
                let gone = std::io::Error::other("all transport threads exited");
                Halt::Failed(TransportError::io("event loop", &gone))
            })?;
            self.absorb(event)?;
        }
    }

    /// Takes one event in: a delivery waits its turn in `pending`; a
    /// control request runs at once and its reply is written at once, its
    /// sends going out after whatever the loop is writing.
    fn absorb(&mut self, event: Event<M>) -> Result<(), Halt> {
        match event {
            Event::Deliver { from, msg } => self.pending.push_back((from, msg)),
            Event::Control { body, reply } => {
                let mut ctx = self.context();
                let stats = self.rt.stats.snapshot();
                let action = (self.on_control)(&mut self.peer, body, &mut ctx, stats);
                self.outbox.extend(ctx.take_outgoing());
                let (bytes, last) = match action {
                    ControlAction::Reply(bytes) => (bytes, false),
                    ControlAction::ReplyThenShutdown(bytes) => (bytes, true),
                };
                // A controller going away is not a node failure.
                let _ = write_frame(&mut &*reply, &bytes);
                if last {
                    return Err(Halt::Shutdown);
                }
            }
            Event::Fatal(e) => return Err(Halt::Failed(e)),
        }
        Ok(())
    }

    /// Encodes and writes the outbox. Each unique `Arc` payload is encoded
    /// once per batch; self-sends loop back to `pending`.
    fn flush(&mut self) -> Result<(), Halt> {
        while !self.outbox.is_empty() {
            let mut encoded = PayloadMemo::default();
            for out in std::mem::take(&mut self.outbox) {
                if out.to == self.rt.config.node {
                    let msg = Arc::try_unwrap(out.msg).unwrap_or_else(|s| (*s).clone());
                    self.pending.push_back((out.to, msg));
                    continue;
                }
                let codec = &self.rt.codec;
                let (bytes, _) =
                    encoded.get_or_insert_with(&out.msg, |m| Arc::new(codec.encode(m)));
                self.write(out.to, &bytes)?;
            }
        }
        Ok(())
    }

    /// Writes one frame on the pipe to `to`, dialing it on first use. A
    /// failed write drops the connection and redials once; a second
    /// failure is the peer's death.
    fn write(&mut self, to: NodeId, frame: &[u8]) -> Result<(), Halt> {
        StatCells::bump(&self.rt.stats.frames_sent);
        StatCells::add(&self.rt.stats.bytes_sent, frame.len() as u64);
        let mut retried = false;
        loop {
            let stream = match self.rt.pipes.get_mut(&to) {
                Some(Some(stream)) => stream,
                _ => {
                    let stream = self.dial(to)?;
                    self.rt.pipes.entry(to).or_default().insert(stream)
                }
            };
            match write_frame(stream, frame) {
                Ok(()) => return Ok(()),
                Err(e) if retried => {
                    let detail = format!("write failed twice: {e}");
                    let failure = TransportError::PeerDisconnected { node: to, detail };
                    return Err(Halt::Failed(failure));
                }
                Err(_) => {
                    self.rt.pipes.insert(to, None);
                    retried = true;
                }
            }
        }
    }

    /// Dials `node` within the connect budget. Between attempts the loop
    /// takes in the events that arrive, so a node waiting for a peer still
    /// answers its controller and shuts down when told to. A typed
    /// rejection is final (retrying a codec mismatch cannot help); refusals
    /// and handshake I/O errors are retried — the remote process may not
    /// have bound its listener yet.
    fn dial(&mut self, node: NodeId) -> Result<TcpStream, Halt> {
        let Some(&addr) = self.rt.config.peers.get(&node) else {
            return Err(Halt::Failed(TransportError::NoRoute { node }));
        };
        let hello = Hello::pipe(self.rt.config.node, self.rt.codec.codec());
        let redial = self.rt.pipes.contains_key(&node);
        let mut attempts = 1;
        let last = loop {
            match connect_pipe(addr, &hello) {
                Ok(stream) => {
                    StatCells::bump(&self.rt.stats.connects);
                    StatCells::add(&self.rt.stats.reconnects, u64::from(redial));
                    return Ok(stream);
                }
                Err(e @ TransportError::Rejected { .. }) => break e,
                Err(e) if attempts == CONNECT_ATTEMPTS => break e,
                Err(_) => attempts += 1,
            }
            std::thread::sleep(CONNECT_BACKOFF);
            while let Ok(event) = self.rt.event_rx.try_recv() {
                self.absorb(event)?;
            }
        };
        let (addr, detail) = (addr.to_string(), last.to_string());
        Err(Halt::Failed(if redial {
            TransportError::PeerDisconnected { node, detail }
        } else {
            TransportError::ConnectFailed { node, addr, detail }
        }))
    }
}

/// Inbound connection: the handshake, then a control connection's requests
/// or a pipe's frames until EOF or error.
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
    if hello.kind == HelloKind::Control {
        return control_loop(stream, event_tx);
    }
    let from = hello.node;
    let failure = loop {
        match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            Ok(Some(payload)) => {
                StatCells::bump(&stats.frames_received);
                StatCells::add(&stats.bytes_received, payload.len() as u64);
                let event = match codec.decode(&payload) {
                    Ok(msg) => Event::Deliver { from, msg },
                    Err(detail) => break TransportError::Decode { from, detail },
                };
                if event_tx.send(event).is_err() {
                    return;
                }
            }
            Ok(None) => {
                StatCells::bump(&stats.pipes_closed);
                return;
            }
            // A torn frame or socket error on an established pipe is a peer
            // death, reported as such (not a panic, not garbage).
            Err(e @ (TransportError::UnexpectedEof { .. } | TransportError::Io { .. })) => {
                let detail = e.to_string();
                break TransportError::PeerDisconnected { node: from, detail };
            }
            Err(other) => break other,
        }
    };
    let _ = event_tx.send(Event::Fatal(failure));
}

/// Reads control requests off one control connection and hands each to the
/// loop with the connection, which the loop writes the reply on.
fn control_loop<M>(stream: TcpStream, event_tx: mpsc::Sender<Event<M>>) {
    let _ = stream.set_write_timeout(Some(CONTROL_WRITE_TIMEOUT));
    let stream = Arc::new(stream);
    // A controller going away is not a node failure.
    while let Ok(Some(body)) = read_frame(&mut &*stream, DEFAULT_MAX_FRAME) {
        let reply = Arc::clone(&stream);
        if event_tx.send(Event::Control { body, reply }).is_err() {
            return;
        }
    }
}

/// One dial of a pipe: connect, then the pipe handshake.
fn connect_pipe(addr: SocketAddr, hello: &Hello) -> TransportResult<TcpStream> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| TransportError::io(format!("connect {addr}"), &e))?;
    let _ = stream.set_nodelay(true);
    client_handshake(&mut stream, hello, DEFAULT_MAX_FRAME)?;
    Ok(stream)
}
