//! Connection handshake.
//!
//! The first frame on every connection is a fixed 12-byte hello:
//!
//! ```text
//! magic "P2PD" (4) | version u16 LE | kind u8 | node u32 LE | codec u8
//! ```
//!
//! `kind` distinguishes protocol pipes (`0`) from control connections
//! (`1`, used by the cluster launcher). The acceptor validates version,
//! codec (pipes only — control connections always speak JSON) and the
//! claimed node id, then replies with a status frame:
//!
//! ```text
//! status u8 | node u32 LE | detail (UTF-8, rest of frame)
//! ```
//!
//! Status `0` is "accepted" and carries the acceptor's own node id; any
//! other value is a [`RejectReason`] plus human-readable detail, so a
//! misconfigured peer learns *why* it was refused instead of reading
//! garbage frames until something fails to decode.

use crate::error::{RejectReason, TransportError, TransportResult};
use crate::frame::{read_frame, write_frame};
use p2p_net::Codec;
use p2p_topology::NodeId;
use std::io::{Read, Write};

/// Protocol magic: the first four bytes of every connection.
pub(crate) const MAGIC: [u8; 4] = *b"P2PD";

/// Protocol version spoken by this build. It moves whenever the message
/// table does (2: one `Query`/`Answer` pair for every exchange), so a peer
/// of another table is refused at the hello instead of misreading a frame.
pub(crate) const VERSION: u16 = 2;

/// Node id claimed by control connections (they are not peers).
pub(crate) const CONTROL_NODE: u32 = u32::MAX;

/// What a connection is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelloKind {
    /// A protocol pipe between two peers.
    Pipe,
    /// A control connection (launcher / operator tooling).
    Control,
}

impl HelloKind {
    fn as_u8(self) -> u8 {
        match self {
            HelloKind::Pipe => 0,
            HelloKind::Control => 1,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(HelloKind::Pipe),
            1 => Some(HelloKind::Control),
            _ => None,
        }
    }
}

fn codec_byte(c: Codec) -> u8 {
    match c {
        Codec::Json => 0,
        Codec::Binary => 1,
    }
}

fn byte_codec(b: u8) -> Option<Codec> {
    match b {
        0 => Some(Codec::Json),
        1 => Some(Codec::Binary),
        _ => None,
    }
}

/// The opening frame of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Pipe or control.
    pub(crate) kind: HelloKind,
    /// The connecting side's node id (`CONTROL_NODE` for control).
    pub node: NodeId,
    /// The wire codec the connecting side is configured with.
    pub codec: Codec,
    /// Protocol version (always `VERSION` when constructed locally).
    pub version: u16,
}

impl Hello {
    /// A pipe hello for this node/codec at the current `VERSION`.
    pub fn pipe(node: NodeId, codec: Codec) -> Self {
        Hello {
            kind: HelloKind::Pipe,
            node,
            codec,
            version: VERSION,
        }
    }

    /// A control hello (codec is irrelevant; control traffic is JSON).
    pub fn control() -> Self {
        Hello {
            kind: HelloKind::Control,
            node: NodeId(CONTROL_NODE),
            codec: Codec::Json,
            version: VERSION,
        }
    }

    /// Encodes the fixed 12-byte hello payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(self.kind.as_u8());
        out.extend_from_slice(&self.node.0.to_le_bytes());
        out.push(codec_byte(self.codec));
        out
    }

    /// Decodes a hello payload. Distinguishes bad magic (a foreign client)
    /// from a version skew (a stale peer) from structural garbage.
    pub fn decode(buf: &[u8]) -> TransportResult<Self> {
        if buf.len() < 4 {
            return Err(TransportError::MalformedHello {
                detail: format!("hello frame of {} bytes (want 12)", buf.len()),
            });
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&buf[..4]);
        if magic != MAGIC {
            return Err(TransportError::BadMagic { got: magic });
        }
        if buf.len() != 12 {
            return Err(TransportError::MalformedHello {
                detail: format!("hello frame of {} bytes (want 12)", buf.len()),
            });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        let kind = HelloKind::from_u8(buf[6]).ok_or(TransportError::MalformedHello {
            detail: format!("unknown connection kind byte {}", buf[6]),
        })?;
        let node = NodeId(u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]));
        let codec = byte_codec(buf[11]).ok_or(TransportError::MalformedHello {
            detail: format!("unknown codec byte {}", buf[11]),
        })?;
        Ok(Hello {
            kind,
            node,
            codec,
            version,
        })
    }
}

/// The acceptor's answer to a hello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloReply {
    /// `None` = accepted, `Some(reason)` = refused.
    pub(crate) reject: Option<RejectReason>,
    /// The acceptor's node id.
    pub node: NodeId,
    /// Human-readable detail (empty on accept).
    pub(crate) detail: String,
}

impl HelloReply {
    fn encode(&self) -> Vec<u8> {
        let status = self.reject.map(RejectReason::as_u8).unwrap_or(0);
        let mut out = Vec::with_capacity(5 + self.detail.len());
        out.push(status);
        out.extend_from_slice(&self.node.0.to_le_bytes());
        out.extend_from_slice(self.detail.as_bytes());
        out
    }

    /// Decodes a reply payload; anything shorter than its 5-byte header or
    /// with an unknown status is a typed error.
    pub fn decode(buf: &[u8]) -> TransportResult<Self> {
        if buf.len() < 5 {
            return Err(TransportError::MalformedHello {
                detail: format!("handshake reply of {} bytes (want >= 5)", buf.len()),
            });
        }
        let reject = RejectReason::from_u8(buf[0]).ok_or(TransportError::MalformedHello {
            detail: format!("unknown handshake status byte {}", buf[0]),
        })?;
        let node = NodeId(u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]));
        let detail = String::from_utf8_lossy(&buf[5..]).into_owned();
        Ok(HelloReply {
            reject,
            node,
            detail,
        })
    }
}

/// Client side: sends `hello`, awaits the reply, and maps a rejection to
/// the matching typed error. Returns the acceptor's node id.
pub fn client_handshake<S: Read + Write>(
    stream: &mut S,
    hello: &Hello,
    max_frame: u32,
) -> TransportResult<NodeId> {
    write_frame(stream, &hello.encode()).map_err(|e| TransportError::io("send hello", &e))?;
    stream
        .flush()
        .map_err(|e| TransportError::io("send hello", &e))?;
    let reply = match read_frame(stream, max_frame)? {
        Some(bytes) => HelloReply::decode(&bytes)?,
        None => {
            return Err(TransportError::UnexpectedEof { got: 0, needed: 5 });
        }
    };
    match reply.reject {
        None => Ok(reply.node),
        Some(reason) => Err(TransportError::Rejected {
            reason,
            detail: reply.detail,
        }),
    }
}

/// Server side: reads and validates the hello, writes the accept/reject
/// reply, and returns the validated hello (or the typed error it was
/// rejected with, *after* telling the client).
pub(crate) fn server_handshake<S: Read + Write>(
    stream: &mut S,
    my_node: NodeId,
    my_codec: Codec,
    knows_peer: impl Fn(NodeId) -> bool,
    max_frame: u32,
) -> TransportResult<Hello> {
    let hello = match read_frame(stream, max_frame)? {
        Some(bytes) => Hello::decode(&bytes),
        None => return Err(TransportError::UnexpectedEof { got: 0, needed: 12 }),
    };
    let verdict: Result<Hello, (RejectReason, TransportError)> = match hello {
        Err(e @ TransportError::BadMagic { .. }) => Err((RejectReason::Malformed, e)),
        Err(e) => Err((RejectReason::Malformed, e)),
        Ok(h) if h.version != VERSION => Err((
            RejectReason::Version,
            TransportError::VersionMismatch {
                got: h.version,
                want: VERSION,
            },
        )),
        Ok(h) if h.kind == HelloKind::Pipe && h.codec != my_codec => Err((
            RejectReason::Codec,
            TransportError::CodecMismatch {
                got: h.codec,
                want: my_codec,
            },
        )),
        Ok(h) if h.kind == HelloKind::Pipe && !knows_peer(h.node) => Err((
            RejectReason::UnknownNode,
            TransportError::UnknownPeer { node: h.node },
        )),
        Ok(h) => Ok(h),
    };
    let reply = match &verdict {
        Ok(_) => HelloReply {
            reject: None,
            node: my_node,
            detail: String::new(),
        },
        Err((reason, err)) => HelloReply {
            reject: Some(*reason),
            node: my_node,
            detail: err.to_string(),
        },
    };
    write_frame(stream, &reply.encode())
        .map_err(|e| TransportError::io("send handshake reply", &e))?;
    stream
        .flush()
        .map_err(|e| TransportError::io("send handshake reply", &e))?;
    verdict.map_err(|(_, err)| err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// In-memory duplex: reads from one buffer, writes to another.
    struct Duplex {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn hello_round_trips() {
        let h = Hello::pipe(NodeId(7), Codec::Binary);
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);
        let c = Hello::control();
        assert_eq!(Hello::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn acceptor_accepts_matching_pipe() {
        let hello = Hello::pipe(NodeId(3), Codec::Json);
        let mut s = Duplex {
            input: Cursor::new(framed(&hello.encode())),
            output: Vec::new(),
        };
        let got = server_handshake(&mut s, NodeId(1), Codec::Json, |n| n == NodeId(3), 1024)
            .expect("accepted");
        assert_eq!(got.node, NodeId(3));
        let reply = HelloReply::decode(&s.output[4..]).unwrap();
        assert_eq!(reply.reject, None);
        assert_eq!(reply.node, NodeId(1));
    }

    #[test]
    fn acceptor_rejects_codec_mismatch_with_detail() {
        let hello = Hello::pipe(NodeId(3), Codec::Binary);
        let mut s = Duplex {
            input: Cursor::new(framed(&hello.encode())),
            output: Vec::new(),
        };
        let err =
            server_handshake(&mut s, NodeId(1), Codec::Json, |_| true, 1024).expect_err("rejected");
        assert_eq!(
            err,
            TransportError::CodecMismatch {
                got: Codec::Binary,
                want: Codec::Json,
            }
        );
        let reply = HelloReply::decode(&s.output[4..]).unwrap();
        assert_eq!(reply.reject, Some(RejectReason::Codec));
        assert!(reply.detail.contains("binary"), "detail: {}", reply.detail);
    }

    /// A peer of another version — version 1 spoke the retired round and
    /// repair message kinds — is refused at the hello with the typed skew.
    #[test]
    fn acceptor_rejects_version_skew_and_bad_magic() {
        for version in [1, 99] {
            let mut stale = Hello::pipe(NodeId(2), Codec::Binary);
            stale.version = version;
            let mut s = Duplex {
                input: Cursor::new(framed(&stale.encode())),
                output: Vec::new(),
            };
            let err =
                server_handshake(&mut s, NodeId(0), Codec::Binary, |_| true, 1024).unwrap_err();
            let want = VERSION;
            assert_eq!(err, TransportError::VersionMismatch { got: version, want });
            let reply = HelloReply::decode(&s.output[4..]).unwrap();
            assert_eq!(reply.reject, Some(RejectReason::Version));
        }

        let mut s = Duplex {
            input: Cursor::new(framed(b"GET / HTTP/1.1\r\n")),
            output: Vec::new(),
        };
        let err = server_handshake(&mut s, NodeId(0), Codec::Json, |_| true, 1024).unwrap_err();
        assert_eq!(err, TransportError::BadMagic { got: *b"GET " });
        let reply = HelloReply::decode(&s.output[4..]).unwrap();
        assert_eq!(reply.reject, Some(RejectReason::Malformed));
    }

    #[test]
    fn control_hello_skips_codec_and_roster_checks() {
        let mut s = Duplex {
            input: Cursor::new(framed(&Hello::control().encode())),
            output: Vec::new(),
        };
        // Acceptor runs binary and knows nobody; control still gets in.
        let got = server_handshake(&mut s, NodeId(0), Codec::Binary, |_| false, 1024)
            .expect("control accepted");
        assert_eq!(got.kind, HelloKind::Control);
    }

    #[test]
    fn client_maps_rejection_to_typed_error() {
        let reply = HelloReply {
            reject: Some(RejectReason::Codec),
            node: NodeId(1),
            detail: "codec mismatch: peer is configured with `binary`".into(),
        };
        let mut s = Duplex {
            input: Cursor::new(framed(&reply.encode())),
            output: Vec::new(),
        };
        let err =
            client_handshake(&mut s, &Hello::pipe(NodeId(2), Codec::Binary), 1024).unwrap_err();
        match err {
            TransportError::Rejected { reason, detail } => {
                assert_eq!(reason, RejectReason::Codec);
                assert!(detail.contains("binary"));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }
}
