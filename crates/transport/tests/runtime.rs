//! The socket runtime's loop writes every frame itself: a pipe it cannot
//! establish ends `SocketRuntime::run` with a typed error, and a loop that
//! waits to dial a peer still answers its controller. A runtime dropped
//! without running gives its address back.

use p2p_net::{Codec, Context, Peer};
use p2p_topology::NodeId;
use p2p_transport::{
    client_handshake, read_frame, write_frame, ControlAction, FrameCodec, Hello, SocketConfig,
    SocketRuntime, TransportError, DEFAULT_MAX_FRAME,
};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Four little-endian bytes per message, under whichever codec it claims.
struct Toy(Codec);

impl FrameCodec<u32> for Toy {
    fn codec(&self) -> Codec {
        self.0
    }

    fn encode(&self, msg: &u32) -> Vec<u8> {
        msg.to_le_bytes().to_vec()
    }

    fn decode(&self, bytes: &[u8]) -> Result<u32, String> {
        let word = bytes
            .try_into()
            .map_err(|_| format!("{} bytes", bytes.len()))?;
        Ok(u32::from_le_bytes(word))
    }
}

struct Silent;

impl Peer<u32> for Silent {
    fn on_message(&mut self, _: NodeId, _: u32, _: &mut Context<u32>) {}
}

fn node(id: u32, codec: Codec, accept_from: &[u32]) -> SocketRuntime<u32, Toy> {
    let mut config = SocketConfig::new(NodeId(id), "127.0.0.1:0".parse().unwrap());
    config.accept_from = accept_from.iter().map(|&n| NodeId(n)).collect();
    SocketRuntime::bind(config, Toy(codec)).unwrap()
}

#[test]
fn a_refused_pipe_fails_the_node_with_a_typed_error() {
    // B listens under the other codec, so its handshake rejects A's pipe:
    // a final answer that spends none of the connect budget.
    let b = node(2, Codec::Binary, &[1]);
    let mut a_config = SocketConfig::new(NodeId(1), "127.0.0.1:0".parse().unwrap());
    a_config.peers.insert(NodeId(2), b.local_addr());
    let a = SocketRuntime::bind(a_config, Toy(Codec::Json)).unwrap();

    let started = Instant::now();
    let outcome = a.run(
        Silent,
        |_, ctx| ctx.send(NodeId(2), 7),
        |_, _, _, _| ControlAction::Reply(Vec::new()),
    );
    let elapsed = started.elapsed();

    match outcome {
        Err(TransportError::ConnectFailed { node, detail, .. }) => {
            assert_eq!(node, NodeId(2));
            assert!(detail.contains("codec"), "{detail}");
        }
        Err(other) => panic!("expected ConnectFailed naming node 2, got {other}"),
        Ok(_) => panic!("a send to a refusing peer must fail the node"),
    }
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

#[test]
fn a_node_waiting_for_a_peer_still_shuts_down_on_request() {
    // Nobody listens at B's address: A's first send dials it for the whole
    // connect budget, about ten seconds.
    let vacant = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut a_config = SocketConfig::new(NodeId(1), "127.0.0.1:0".parse().unwrap());
    a_config
        .peers
        .insert(NodeId(2), vacant.local_addr().unwrap());
    drop(vacant);
    let a = SocketRuntime::bind(a_config, Toy(Codec::Json)).unwrap();
    let control = a.local_addr();
    let node = std::thread::spawn(move || {
        let started = Instant::now();
        let outcome = a.run(
            Silent,
            |_, ctx| ctx.send(NodeId(2), 7),
            |_, body, _, _| ControlAction::ReplyThenShutdown(body),
        );
        (outcome.map(|(_, stats)| stats), started.elapsed())
    });

    std::thread::sleep(Duration::from_millis(200));
    let mut ctl = TcpStream::connect(control).unwrap();
    // Not the ten seconds a loop that waits out the budget would take.
    ctl.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    client_handshake(&mut ctl, &Hello::control(), DEFAULT_MAX_FRAME).unwrap();
    write_frame(&mut ctl, b"stop").unwrap();
    let reply = read_frame(&mut ctl, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(reply.as_deref(), Some(&b"stop"[..]));

    let (outcome, elapsed) = node.join().unwrap();
    let stats = outcome.unwrap_or_else(|e| panic!("a shutdown is not a failure: {e}"));
    assert_eq!(stats.connects, 0);
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
}

#[test]
fn a_runtime_dropped_without_running_releases_its_listener() {
    let bound = node(1, Codec::Json, &[]);
    let addr = bound.local_addr();
    drop(bound);
    let again = SocketRuntime::bind(SocketConfig::new(NodeId(1), addr), Toy(Codec::Json));
    let again = again.unwrap_or_else(|e| panic!("re-binding {addr}: {e}"));
    assert_eq!(again.local_addr(), addr);
}
