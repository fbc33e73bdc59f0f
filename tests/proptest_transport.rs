//! Property tests for the TCP wire layer: a stream of random protocol
//! messages, framed with the u32 length prefix and encoded under **either**
//! codec, must survive arbitrary read-chunk boundaries — the receiver sees
//! the byte stream diced into random pieces (as TCP is free to do) and must
//! still recover every message exactly. Truncating the stream anywhere that
//! is not a frame boundary must yield a typed `UnexpectedEof`, never a
//! partial message.

use p2pdb::core::messages::{Answer, AnswerRows, ProtocolMsg, Query, Start, Via};
use p2pdb::core::rule::RuleId;
use p2pdb::core::socket::ProtoCodec;
use p2pdb::net::{Codec, SessionId};
use p2pdb::relational::value::NullId;
use p2pdb::relational::{RowSet, SymId, Val};
use p2pdb::topology::NodeId;
use p2pdb::transport::handshake::HelloReply;
use p2pdb::transport::{
    read_frame, write_frame, FrameCodec, Hello, TransportError, DEFAULT_MAX_FRAME,
};
use proptest::prelude::*;
use std::io::Read;
use std::sync::Arc;

/// A reader that hands out the underlying bytes in caller-chosen chunk
/// sizes, cycling through `plan` — the adversarial version of TCP's
/// freedom to split a stream anywhere.
struct Dribble {
    data: Vec<u8>,
    pos: usize,
    plan: Vec<usize>,
    next: usize,
}

impl Read for Dribble {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let want = self.plan[self.next % self.plan.len()].max(1);
        self.next += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn val() -> impl Strategy<Value = Val> {
    (
        0u8..3,
        any::<i64>(),
        any::<u32>(),
        0u32..9000,
        0u64..100_000,
    )
        .prop_map(|(kind, i, sym, node, counter)| match kind {
            0 => Val::Int(i),
            1 => Val::Sym(SymId(sym)),
            _ => Val::Null(NullId::new(node, counter)),
        })
}

fn answer_rows() -> impl Strategy<Value = AnswerRows> {
    (1usize..4, 0usize..8).prop_flat_map(|(arity, nrows)| {
        proptest::collection::vec(val(), arity * nrows..arity * nrows + 1).prop_map(move |flat| {
            AnswerRows {
                vars: (0..arity)
                    .map(|i| Arc::<str>::from(format!("X{i}")))
                    .collect(),
                rows: RowSet::from_flat(arity, nrows, flat),
                null_depths: vec![],
                marks: Default::default(),
                dict: vec![],
            }
        })
    })
}

fn session() -> impl Strategy<Value = SessionId> {
    (0u32..9000, 0u64..100_000).prop_map(|(root, epoch)| SessionId::new(NodeId(root), epoch))
}

/// A spread over the message variants the socket runtime actually ships:
/// the row-carrying hot path plus the session-scalar control messages.
fn msg() -> impl Strategy<Value = ProtocolMsg> {
    (
        (0u8..7, session(), any::<u32>(), 0u32..10_000),
        answer_rows(),
    )
        .prop_map(|((kind, session, rule, round), rows)| {
            let rule = RuleId(rule);
            match kind {
                0 => ProtocolMsg::StartUpdate { session },
                1 => ProtocolMsg::Answer(Answer {
                    complete: round % 2 == 0,
                    reopen: round % 3 == 0,
                    pushed: round % 5 == 0,
                    acks: round % 7 == 0,
                    ..Answer::new(session, rule, rows, Via::Session)
                }),
                2 => ProtocolMsg::Answer(Answer::new(session, rule, rows, Via::Round(round))),
                3 => ProtocolMsg::Fixpoint {
                    session,
                    generation: round,
                },
                4 => ProtocolMsg::Ack { session },
                5 => {
                    let part = Arc::new(p2pdb::core::rule::BodyPart::new(
                        NodeId(session.root.0),
                        vec![],
                        vec![],
                        [Arc::from("X")].into(),
                    ));
                    let from = if round % 2 == 0 {
                        Start::Resume
                    } else {
                        Start::Fresh
                    };
                    ProtocolMsg::Query(Query::new(session, rule, part, from, Via::Round(round)))
                }
                _ => ProtocolMsg::Unsubscribe { session, rule },
            }
        })
}

fn both_codecs() -> impl Strategy<Value = Codec> {
    any::<bool>().prop_map(|b| if b { Codec::Binary } else { Codec::Json })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frame a random message stream, dice the bytes into random read
    /// chunks, and recover every message exactly — under both codecs.
    #[test]
    fn framed_stream_survives_arbitrary_chunking(
        msgs in proptest::collection::vec(msg(), 1..8),
        codec in both_codecs(),
        plan in proptest::collection::vec(1usize..64, 1..10),
    ) {
        let pc = ProtoCodec(codec);
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, &pc.encode(m)).unwrap();
        }
        let mut reader = Dribble { data: wire, pos: 0, plan, next: 0 };
        let mut got = Vec::new();
        while let Some(payload) = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap() {
            got.push(pc.decode(&payload).unwrap());
        }
        // `ProtocolMsg` has no `PartialEq`; byte-identical re-encoding is
        // the same equality the codec differential tests use.
        prop_assert_eq!(got.len(), msgs.len());
        for (g, m) in got.iter().zip(&msgs) {
            prop_assert_eq!(pc.encode(g), pc.encode(m));
        }
    }

    /// Cutting the stream anywhere that is not a frame boundary is a typed
    /// mid-frame EOF; cutting exactly at a boundary is a clean end.
    #[test]
    fn truncation_is_typed_eof(
        msgs in proptest::collection::vec(msg(), 1..5),
        codec in both_codecs(),
        cut_seed in any::<u64>(),
    ) {
        let pc = ProtoCodec(codec);
        let mut wire = Vec::new();
        let mut boundaries = vec![0usize];
        for m in &msgs {
            write_frame(&mut wire, &pc.encode(m)).unwrap();
            boundaries.push(wire.len());
        }
        let cut = (cut_seed as usize) % (wire.len() + 1);
        wire.truncate(cut);
        let mut reader = Dribble { data: wire, pos: 0, plan: vec![7], next: 0 };
        let at_boundary = boundaries.contains(&cut);
        loop {
            match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
                Ok(Some(payload)) => {
                    // Full frames before the cut still decode.
                    prop_assert!(pc.decode(&payload).is_ok());
                }
                Ok(None) => {
                    prop_assert!(at_boundary, "clean EOF despite mid-frame cut at {cut}");
                    break;
                }
                Err(TransportError::UnexpectedEof { got, needed }) => {
                    prop_assert!(!at_boundary, "mid-frame EOF at a boundary cut {cut}");
                    prop_assert!(got < needed);
                    break;
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
            }
        }
    }

    /// Arbitrary bytes on a pipe — a header, possibly torn, announcing any
    /// length, then any payload, read in any chunks under any frame cap —
    /// read as frames no longer than the cap and the bytes that followed,
    /// then a clean end or a typed error; never a panic. (A header that
    /// announces up to `u32::MAX` under that cap is read as far as the bytes
    /// go: the payload buffer grows with them.)
    #[test]
    fn arbitrary_bytes_read_as_frames_or_typed_errors(
        (announce, header) in (0u8..3, any::<u32>()),
        torn in 0usize..6,
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        (small, cap) in (any::<bool>(), any::<u32>()),
        plan in proptest::collection::vec(1usize..16, 1..4),
    ) {
        let len = match announce {
            0 => header,
            1 => payload.len() as u32,
            _ => payload.len() as u32 + header % 8,
        };
        let max_frame = if small { cap % 64 } else { cap };
        let mut data = len.to_le_bytes()[..4usize.saturating_sub(torn % 5)].to_vec();
        data.extend(&payload);
        let total = data.len();
        let mut reader = Dribble { data, pos: 0, plan, next: 0 };
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut frames = Vec::new();
            let end = loop {
                match read_frame(&mut reader, max_frame) {
                    Ok(Some(frame)) => frames.push(frame),
                    end => break end.map(|_| ()),
                }
            };
            (frames, end)
        }));
        let Ok((frames, _end)) = read else {
            return Err(TestCaseError::fail("read_frame panicked"));
        };
        let framed: usize = frames.iter().map(|f| 4 + f.len()).sum();
        prop_assert!(framed <= total);
        for frame in &frames {
            prop_assert!(frame.len() <= max_frame as usize);
        }
    }

    /// A hello or a handshake reply made of arbitrary bytes decodes to a
    /// value or a typed error, never a panic; a hello that decodes is the
    /// twelve bytes it re-encodes to.
    #[test]
    fn arbitrary_handshake_bytes_decode_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..24),
        magic in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"P2PD");
        }
        let hello = std::panic::catch_unwind(|| Hello::decode(&bytes));
        let Ok(hello) = hello else {
            return Err(TestCaseError::fail("Hello::decode panicked"));
        };
        if let Ok(hello) = hello {
            prop_assert_eq!(hello.encode(), bytes.clone());
        }
        let reply = std::panic::catch_unwind(|| HelloReply::decode(&bytes));
        prop_assert!(reply.is_ok(), "HelloReply::decode panicked on {:?}", bytes);
        if let Ok(Ok(reply)) = reply {
            prop_assert!(bytes.len() >= 5);
            prop_assert_eq!(reply.node.0.to_le_bytes(), [bytes[1], bytes[2], bytes[3], bytes[4]]);
        }
    }
}
