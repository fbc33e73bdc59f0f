//! `p2p_transport` — a TCP transport for P2P database networks.
//!
//! Everything before this crate ran in one OS process: the discrete-event
//! simulator and the sharded runtime both deliver messages through
//! in-memory queues. This crate implements the same `Wire`-pipe delivery
//! contract over `std::net` TCP sockets, which is what lets `p2pdb serve`
//! run one peer per *process* and a launcher drive a whole network of
//! them to fix-point on loopback (or, addresses permitting, across
//! machines).
//!
//! Layout:
//!
//! * [`frame`] — `u32`-length-prefixed framing with a reader that treats
//!   short reads, split frames and mid-frame EOF as typed values.
//! * [`handshake`] — the 12-byte `(magic, version, kind, node, codec)`
//!   hello plus accept/reject reply, so misconfigured peers are refused
//!   with a reason instead of exchanging garbage.
//! * [`runtime`] — [`SocketRuntime`]: one acceptor thread, one reader
//!   thread per inbound connection, and one loop that owns the `Peer`,
//!   preserves the simulator's handler semantics (atomic handlers, FIFO
//!   pipes, `Arc`-shared fan-out encoded once per unique message) and
//!   writes every pipe frame and control reply itself, dialing each pipe
//!   on first use with bounded reconnects. A send to a peer that is down
//!   stalls the loop's deliveries for up to the connect budget (control
//!   requests are still answered), and a reader that stops reading stalls
//!   its sender through TCP backpressure: nothing queues on the sending
//!   side, and the event channel the readers feed is the one unbounded
//!   queue.
//! * [`error`] / [`stats`] — typed failures and the counters the control
//!   plane exports (frames, bytes, connects, reconnects).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod error;
pub mod frame;
pub mod handshake;
pub mod runtime;
pub mod stats;

pub use error::{RejectReason, TransportError, TransportResult};
pub use frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};
pub use handshake::{client_handshake, server_handshake, Hello, HelloKind, MAGIC, VERSION};
pub use runtime::{ControlAction, FrameCodec, SocketConfig, SocketRuntime};
pub use stats::TransportStats;
