//! Typed transport failures.
//!
//! Every way a socket can betray a peer gets its own variant, so the layers
//! above can react structurally (e.g. `p2p_core` maps a broken pipe to its
//! `PeerDisconnected` error the same way PR 6 mapped worker panics) instead
//! of string-matching `io::Error` text. A peer dropping mid-message is a
//! *value*, never a panic.

use p2p_net::Codec;
use p2p_topology::NodeId;
use std::fmt;

/// Result alias for transport operations.
pub(crate) type TransportResult<T> = std::result::Result<T, TransportError>;

/// Why an acceptor refused a handshake. Carried as a status byte in the
/// reply frame, so the *connecting* side gets the typed reason too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Protocol version differs.
    Version,
    /// The two endpoints are configured with different wire codecs.
    Codec,
    /// The hello names a node the acceptor does not serve pipes for.
    UnknownNode,
    /// The hello frame did not parse (bad magic, truncated, bad enum byte).
    Malformed,
}

impl RejectReason {
    /// Wire encoding (status byte of the handshake reply; `0` is "accepted").
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            RejectReason::Version => 1,
            RejectReason::Codec => 2,
            RejectReason::UnknownNode => 3,
            RejectReason::Malformed => 4,
        }
    }

    /// Decodes a status byte (`0` maps to `None`: accepted).
    pub(crate) fn from_u8(b: u8) -> Option<Option<Self>> {
        match b {
            0 => Some(None),
            1 => Some(Some(RejectReason::Version)),
            2 => Some(Some(RejectReason::Codec)),
            3 => Some(Some(RejectReason::UnknownNode)),
            4 => Some(Some(RejectReason::Malformed)),
            _ => None,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Version => write!(f, "protocol version mismatch"),
            RejectReason::Codec => write!(f, "codec mismatch"),
            RejectReason::UnknownNode => write!(f, "unknown node"),
            RejectReason::Malformed => write!(f, "malformed hello"),
        }
    }
}

/// Errors raised by the TCP transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// OS-level socket failure, annotated with the failing operation.
    Io {
        /// What the transport was doing (e.g. `bind 127.0.0.1:7000`).
        op: String,
        /// The `io::Error` text.
        detail: String,
    },
    /// A handshake frame did not start with the protocol magic.
    BadMagic {
        /// The four bytes actually received.
        got: [u8; 4],
    },
    /// The remote speaks a different protocol version.
    VersionMismatch {
        /// Version in the received hello.
        got: u16,
        /// Version this endpoint speaks.
        want: u16,
    },
    /// The remote is configured with a different wire codec.
    CodecMismatch {
        /// Codec in the received hello.
        got: Codec,
        /// Codec this endpoint runs.
        want: Codec,
    },
    /// A hello named a node this acceptor does not know.
    UnknownPeer {
        /// The claimed node id.
        node: NodeId,
    },
    /// A handshake frame failed to parse.
    MalformedHello {
        /// What was wrong.
        detail: String,
    },
    /// The remote acceptor rejected our hello (client-side view of one of
    /// the above, relayed through the reply frame's status byte).
    Rejected {
        /// Typed reason from the status byte.
        reason: RejectReason,
        /// Human-readable detail the acceptor attached.
        detail: String,
    },
    /// The stream ended in the middle of a frame (header or payload): the
    /// remote process died or closed mid-message.
    UnexpectedEof {
        /// Bytes of the current unit actually read.
        got: usize,
        /// Bytes the frame header promised.
        needed: usize,
    },
    /// A frame header announced a length above the configured cap —
    /// almost certainly garbage or a codec mismatch that slipped through.
    FrameTooLarge {
        /// Announced payload length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// A received payload failed to decode under the configured codec.
    Decode {
        /// The pipe it arrived on.
        from: NodeId,
        /// Decoder error text.
        detail: String,
    },
    /// An established pipe died and reconnection attempts were exhausted,
    /// or an inbound pipe broke mid-frame.
    PeerDisconnected {
        /// The unreachable peer.
        node: NodeId,
        /// Last failure observed.
        detail: String,
    },
    /// An outgoing pipe could never be established.
    ConnectFailed {
        /// The peer we tried to reach.
        node: NodeId,
        /// Its configured address.
        addr: String,
        /// Last failure observed.
        detail: String,
    },
    /// A message was queued for a node the runtime has no address for.
    NoRoute {
        /// The addressless destination.
        node: NodeId,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io { op, detail } => write!(f, "{op}: {detail}"),
            TransportError::BadMagic { got } => {
                write!(f, "handshake does not start with `P2PD` (got {got:?})")
            }
            TransportError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks v{got}, this node v{want}"
                )
            }
            TransportError::CodecMismatch { got, want } => write!(
                f,
                "codec mismatch: peer is configured with `{}`, this node runs `{}`",
                got.name(),
                want.name()
            ),
            TransportError::UnknownPeer { node } => {
                write!(
                    f,
                    "handshake names node {node}, which this acceptor does not serve"
                )
            }
            TransportError::MalformedHello { detail } => {
                write!(f, "malformed handshake: {detail}")
            }
            TransportError::Rejected { reason, detail } => {
                write!(f, "handshake rejected ({reason}): {detail}")
            }
            TransportError::UnexpectedEof { got, needed } => write!(
                f,
                "connection closed mid-frame ({got} of {needed} bytes received)"
            ),
            TransportError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            TransportError::Decode { from, detail } => {
                write!(f, "undecodable frame from node {from}: {detail}")
            }
            TransportError::PeerDisconnected { node, detail } => {
                write!(f, "pipe to node {node} broke: {detail}")
            }
            TransportError::ConnectFailed { node, addr, detail } => {
                write!(f, "cannot reach node {node} at {addr}: {detail}")
            }
            TransportError::NoRoute { node } => {
                write!(f, "no address configured for node {node}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// Wraps an `io::Error` with the operation that hit it.
    pub(crate) fn io(op: impl Into<String>, err: &std::io::Error) -> Self {
        TransportError::Io {
            op: op.into(),
            detail: err.to_string(),
        }
    }
}
