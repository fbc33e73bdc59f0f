//! Differential property tests for the binary wire codec: random protocol
//! messages, WAL records and database snapshots must (a) round-trip through
//! the binary codec **byte-for-byte** — encode → decode → re-encode yields
//! identical bytes — and (b) decode to exactly the value the JSON path
//! produces, including foreign-dictionary `SymRemap` on recovery.
//!
//! And for the serializer under both codecs: what a value *streams* into a
//! sink is, byte for byte, what its `Content` tree renders to — compact and
//! pretty JSON, the counted length, the binary document — the two fail on
//! exactly the same inputs, and every output still decodes.

use p2pdb::core::codec::{decode_msg, encode_msg};
use p2pdb::core::messages::{Answer, AnswerRows, ProtocolMsg, Query, Start, Via};
use p2pdb::core::netfile::{NetworkFile, NodeDecl, RuleDecl};
use p2pdb::core::rule::RuleId;
use p2pdb::core::stats::PeerStats;
use p2pdb::net::{Codec, SessionId};
use p2pdb::relational::query::Marks;
use p2pdb::relational::value::NullId;
use p2pdb::relational::Value;
use p2pdb::relational::{ConstCatalog, Database, DatabaseSchema, RowSet, SymId, Val};
use p2pdb::storage::{
    CursorMark, DatabaseSnapshot, FragmentMark, MemoryBackend, PeerStorage, StorageBackend,
    WalFrame, WalRecord,
};
use p2pdb::topology::NodeId;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn val() -> impl Strategy<Value = Val> {
    (
        0u8..3,
        any::<i64>(),
        any::<u32>(),
        0u32..9000,
        0u64..1_000_000,
    )
        .prop_map(|(kind, i, sym, node, counter)| match kind {
            0 => Val::Int(i),
            1 => Val::Sym(SymId(sym)),
            _ => Val::Null(NullId::new(node, counter)),
        })
}

fn null_depths() -> impl Strategy<Value = Vec<(NullId, u32)>> {
    proptest::collection::vec(
        (0u32..9000, 0u64..1_000_000, 0u32..64).prop_map(|(n, c, d)| (NullId::new(n, c), d)),
        0..5,
    )
}

/// Watermark entries in drawn order, relations repeating.
fn mark_entries() -> impl Strategy<Value = Vec<(Arc<str>, usize)>> {
    proptest::collection::vec((0u8..6, 0usize..100_000), 0..5).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(k, v)| (Arc::<str>::from(format!("rel{k}")), v))
            .collect()
    })
}

fn marks() -> impl Strategy<Value = Marks> {
    mark_entries().prop_map(|entries| entries.into_iter().collect())
}

fn dict() -> impl Strategy<Value = Vec<(SymId, Arc<str>)>> {
    proptest::collection::vec((any::<u32>(), 0u16..600), 0..5).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(id, n)| (SymId(id), Arc::<str>::from(format!("sym-{n}"))))
            .collect()
    })
}

/// Random answer payloads: row blocks of one width, which is sometimes not
/// the width of the vars (a peer refuses such a block; the codecs carry it).
fn answer_rows() -> impl Strategy<Value = AnswerRows> {
    (1usize..4, 0usize..10).prop_flat_map(|(arity, nrows)| {
        (
            proptest::collection::vec(val(), arity * nrows..arity * nrows + 1),
            any::<bool>(),
            null_depths(),
            marks(),
            dict(),
        )
            .prop_map(move |(flat, wrong_width, null_depths, marks, dict)| {
                let width = if wrong_width { arity - 1 } else { arity };
                AnswerRows {
                    vars: (0..width)
                        .map(|i| Arc::<str>::from(format!("X{i}")))
                        .collect(),
                    rows: RowSet::from_flat(arity, nrows, flat),
                    null_depths,
                    marks,
                    dict,
                }
            })
    })
}

fn session() -> impl Strategy<Value = SessionId> {
    (0u32..9000, 0u64..1_000_000).prop_map(|(root, epoch)| SessionId::new(NodeId(root), epoch))
}

/// A rule fragment. A cold structured field: it travels as an embedded
/// generic document, so one shape suffices here.
fn part(node: u32) -> Arc<p2pdb::core::rule::BodyPart> {
    Arc::new(p2pdb::core::rule::BodyPart::new(
        NodeId(node),
        vec![],
        vec![],
        [Arc::from("X")].into(),
    ))
}

/// A query's or an answer's exchange: each of the three, the round
/// number drawn.
fn via() -> impl Strategy<Value = Via> {
    (0u8..3, 0u32..100_000).prop_map(|(kind, round)| match kind {
        0 => Via::Session,
        1 => Via::Round(round),
        _ => Via::Repair,
    })
}

/// Where a query starts: each of the three, the claim drawn.
fn start() -> impl Strategy<Value = Start> {
    (0u8..3, marks()).prop_map(|(kind, since)| match kind {
        0 => Start::Fresh,
        1 => Start::Resume,
        _ => Start::Since(since),
    })
}

/// A spread of protocol messages: answers (the hot path) and queries of
/// every start and exchange, the session-scalar control messages, and
/// discovery traffic.
fn msg() -> impl Strategy<Value = ProtocolMsg> {
    (
        (0u8..18, session(), any::<u32>(), 0u32..100_000),
        answer_rows(),
        (any::<bool>(), any::<bool>()),
        proptest::collection::vec((0u32..200, 0u32..200), 0..6),
        (start(), via()),
    )
        .prop_map(
            |((kind, session, rule, round), rows, (b1, b2), edge_list, (from, via))| {
                let rule = RuleId(rule);
                match kind {
                    0 => ProtocolMsg::StartDiscovery,
                    1 => ProtocolMsg::StartUpdate { session },
                    2..=5 => ProtocolMsg::Answer(Answer {
                        complete: b1,
                        reopen: b2,
                        pushed: round % 2 == 0,
                        acks: round % 3 == 0,
                        ..Answer::new(session, rule, rows, via)
                    }),
                    6 => ProtocolMsg::Fixpoint {
                        session,
                        generation: round,
                    },
                    7 => ProtocolMsg::Ack { session },
                    8 => ProtocolMsg::RoundEcho {
                        session,
                        round,
                        dirty: b1,
                    },
                    9 => ProtocolMsg::Unsubscribe { session, rule },
                    10 => {
                        let edges: BTreeSet<(NodeId, NodeId)> = edge_list
                            .into_iter()
                            .map(|(a, b)| (NodeId(a), NodeId(b)))
                            .collect();
                        ProtocolMsg::DiscoveryAnswer {
                            owner: NodeId(session.root.0),
                            edges,
                            closed: b1,
                            finished: b2,
                        }
                    }
                    11..=15 => ProtocolMsg::Query(Query {
                        sn: edge_list.into_iter().map(|(a, _)| NodeId(a)).collect(),
                        ..Query::new(session, rule, part(session.root.0), from, via)
                    }),
                    16 => ProtocolMsg::CursorVoid { session },
                    _ => ProtocolMsg::RoundsClosed {
                        session,
                        rounds: round,
                    },
                }
            },
        )
}

fn wal_record() -> impl Strategy<Value = WalRecord> {
    (
        (0u8..6, session(), any::<u32>(), 0u32..9000),
        proptest::collection::vec(val(), 0..8),
        null_depths(),
        marks(),
    )
        .prop_map(|((kind, session, rule, node), vals, depths, watermarks)| {
            if kind == 0 {
                WalRecord::Insert {
                    relation: Arc::from("rel"),
                    tuple: vals,
                    depths,
                }
            } else if kind == 1 {
                WalRecord::ForgetRule { rule }
            } else if kind <= 4 {
                // A key's first record (with the fragment, an opaque
                // document), a later one (without), a removal.
                let part = match kind {
                    2 => fragment_doc(node),
                    _ => serde::Content::Null,
                };
                WalRecord::Cursor {
                    subscriber: NodeId(node),
                    rule,
                    mark: (kind < 4).then_some(CursorMark {
                        part,
                        watermarks,
                        rows: vals.len(),
                    }),
                }
            } else {
                WalRecord::Answer {
                    session,
                    rule,
                    node: NodeId(node),
                    vars: [Arc::from("X")].into(),
                    rows: RowSet::from_flat(1, vals.len(), vals),
                    watermarks,
                }
            }
        })
}

/// One delivery's frame: one to six records and a dictionary.
fn wal_frame() -> impl Strategy<Value = WalFrame> {
    (dict(), proptest::collection::vec(wal_record(), 1..7))
        .prop_map(|(dict, records)| WalFrame { dict, records })
}

/// A rule fragment as `p2p_core` hands it to the store.
fn fragment_doc(node: u32) -> serde::Content {
    let part = p2pdb::core::rule::BodyPart::new(
        NodeId(node),
        vec![],
        vec![],
        [Arc::from("X"), Arc::from("Y")].into(),
    );
    part.to_content().unwrap()
}

fn snapshot() -> impl Strategy<Value = DatabaseSnapshot> {
    (
        proptest::collection::vec((any::<i64>(), any::<i64>()), 0..15),
        proptest::collection::vec(0u16..600, 0..6),
        null_depths(),
        0u64..1_000_000,
    )
        .prop_map(|(ints, strs, depths, nulls_next)| {
            let schema = DatabaseSchema::parse("a(x: int, y: int). s(x: str).").unwrap();
            let mut db = Database::new(schema);
            for (x, y) in ints {
                db.insert_values("a", vec![Val::Int(x), Val::Int(y)])
                    .unwrap();
            }
            for n in strs {
                db.insert_values("s", vec![Val::str(format!("snap-{n}"))])
                    .unwrap();
            }
            let syms = db.syms();
            DatabaseSnapshot {
                nulls_next,
                depths,
                catalog: ConstCatalog::global().export(syms),
                marks: vec![(3, NodeId(1), FragmentMark::default())],
                cursors: vec![(
                    NodeId(2),
                    3,
                    CursorMark {
                        part: fragment_doc(1),
                        watermarks: [(Arc::<str>::from("a"), nulls_next as usize)]
                            .into_iter()
                            .collect(),
                        rows: 9,
                    },
                )],
                last_session: SessionId::new(NodeId(0), nulls_next),
                db,
            }
        })
}

/// A rule file as the super-peer reads and re-exports it: named and
/// unnamed nodes, base data in the boundary `Value` form, strings that
/// need every kind of JSON escape.
fn network_file() -> impl Strategy<Value = NetworkFile> {
    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..9, 0..12).prop_map(|picks| {
            picks
                .into_iter()
                .map(|k| ["a", "Ż", "\"", "\\", "\n", "\u{1}", "😀", " ", "/"][k as usize])
                .collect()
        })
    }
    let row = proptest::collection::vec((val(), 0u16..600), 0..4).prop_map(|vals| {
        vals.into_iter()
            .map(|(v, n)| match v {
                Val::Sym(_) => Value::Str(Arc::from(format!("net-{n}"))),
                other => other.to_value(),
            })
            .collect::<Vec<Value>>()
    });
    let node = (
        any::<u32>(),
        proptest::option::of(text()),
        proptest::collection::vec((0u8..4, proptest::collection::vec(row, 0..4)), 0..3),
    )
        .prop_map(|(id, name, relations)| NodeDecl {
            id,
            name,
            schema: "a(x: int, y: int).".into(),
            data: relations
                .into_iter()
                .map(|(k, rows)| (format!("rel{k}"), rows))
                .collect(),
        });
    (
        any::<u32>(),
        proptest::collection::vec(node, 0..4),
        proptest::collection::vec((text(), text()), 0..4),
    )
        .prop_map(|(super_peer, nodes, rules)| NetworkFile {
            super_peer,
            nodes,
            rules: rules
                .into_iter()
                .map(|(name, text)| RuleDecl { name, text })
                .collect(),
        })
}

fn peer_stats() -> impl Strategy<Value = PeerStats> {
    (any::<u64>(), any::<u64>(), 0u64..1000).prop_map(|(a, b, c)| PeerStats {
        queries_received: a,
        answers_sent: b,
        duplicate_queries: c,
        ..PeerStats::default()
    })
}

/// Floats, finite and not, at the root, in sequences and under map keys
/// (no protocol or storage type carries one; the benchmark's reports do).
fn floats() -> impl Strategy<Value = (f64, Vec<f32>, BTreeMap<i64, Option<f64>>)> {
    fn float() -> impl Strategy<Value = f64> {
        (0u8..8, any::<i64>()).prop_map(|(kind, bits)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => bits as f64 * 1e290,
            4 => bits as f64 / 1024.0,
            _ => (bits % 1000) as f64,
        })
    }
    (
        float(),
        proptest::collection::vec(float().prop_map(|f| f as f32), 0..4),
        proptest::collection::vec((any::<i64>(), proptest::option::of(float())), 0..4)
            .prop_map(|entries| entries.into_iter().collect()),
    )
}

/// Streamed ≡ tree: every encoder gives, for `v`, exactly what it gives for
/// `v`'s `Content` tree — or fails exactly when that fails — and what it
/// gives decodes to a value that encodes the same again.
fn streams_like_its_tree<T: Serialize + Deserialize>(v: &T) -> Result<(), TestCaseError> {
    let text = serde_json::to_string(v).ok();
    let pretty = serde_json::to_string_pretty(v).ok();
    let bytes = binpack::to_bytes(v).ok();
    prop_assert_eq!(
        serde_json::encoded_len(v).ok(),
        text.as_ref().map(String::len)
    );
    match v.to_content() {
        Ok(tree) => {
            prop_assert_eq!(&text, &serde_json::to_string(&tree).ok());
            prop_assert_eq!(&pretty, &serde_json::to_string_pretty(&tree).ok());
            prop_assert_eq!(&bytes, &binpack::content_to_bytes(&tree).ok());
            // Both codecs refuse the same values.
            prop_assert_eq!(text.is_some(), pretty.is_some());
            prop_assert_eq!(text.is_some(), bytes.is_some());
        }
        // A map key no sink can render: nothing encodes.
        Err(_) => prop_assert!(text.is_none() && pretty.is_none() && bytes.is_none()),
    }
    if let (Some(text), Some(pretty), Some(bytes)) = (text, pretty, bytes) {
        for json in [&text, &pretty] {
            let back: T =
                serde_json::from_str(json).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&serde_json::to_string(&back).unwrap(), &text);
        }
        let back: T =
            binpack::from_bytes(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(binpack::to_bytes(&back).unwrap(), bytes);
    }
    Ok(())
}

/// One past the highest binary message tag (`Answer` of a repair, with
/// `pushed` and `acks` set).
const FIRST_UNUSED_TAG: u8 = 49;

/// The tags of the five round and repair kinds that were folded into
/// `Query` and `Answer` (one of them had two): never reused.
const RETIRED_TAGS: [u8; 6] = [18, 19, 20, 22, 23, 33];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn messages_stream_like_their_trees(msg in msg()) {
        streams_like_its_tree(&msg)?;
    }

    #[test]
    fn storage_documents_stream_like_their_trees(rec in wal_record(), snap in snapshot()) {
        streams_like_its_tree(&rec)?;
        streams_like_its_tree(&snap)?;
    }

    #[test]
    fn files_and_reports_stream_like_their_trees(
        file in network_file(),
        peer in peer_stats(),
        floats in floats(),
    ) {
        streams_like_its_tree(&file)?;
        prop_assert_eq!(&NetworkFile::from_json(&file.to_json()).unwrap(), &file);
        streams_like_its_tree(&peer)?;
        streams_like_its_tree(&floats)?;
    }

    /// Binary encode → decode → re-encode is byte-for-byte stable, and the
    /// decoded message is (observed through JSON, the codec-independent
    /// lens) exactly the original.
    #[test]
    fn messages_roundtrip_byte_for_byte(msg in msg()) {
        let bytes = encode_msg(&msg);
        let decoded = decode_msg(&bytes).unwrap();
        prop_assert_eq!(&encode_msg(&decoded), &bytes);
        prop_assert_eq!(
            serde_json::to_string(&decoded).unwrap(),
            serde_json::to_string(&msg).unwrap()
        );
    }

    /// Driving the same message through the JSON path (serialize + parse)
    /// lands on a value whose binary encoding is identical — the two codecs
    /// agree on every message value.
    #[test]
    fn json_path_and_binary_path_agree(msg in msg()) {
        let json = serde_json::to_string(&msg).unwrap();
        let via_json: ProtocolMsg = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(encode_msg(&via_json), encode_msg(&msg));
    }

    /// An eager `Answer` without the `pushed` and `acks` flags — every
    /// answer a peer wrote before they existed — decodes with both unset in
    /// both codecs, and a binary tag no variant owns (a retired one, the
    /// first unused one) is a typed error, not a panic.
    #[test]
    fn absent_pushed_flag_is_false_and_unknown_tags_are_typed_errors(
        msg in msg(),
        tag in FIRST_UNUSED_TAG..=255,
    ) {
        if let ProtocolMsg::Answer(answer) = msg {
            let asked = ProtocolMsg::Answer(Answer {
                pushed: false,
                acks: false,
                via: Via::Session,
                ..answer
            });
            let json = serde_json::to_string(&asked).unwrap();
            prop_assert!(!json.contains("pushed") && !json.contains("acks"));
            prop_assert!(!json.contains("via"));
            for decoded in [
                serde_json::from_str(&json).unwrap(),
                decode_msg(&encode_msg(&asked)).unwrap(),
            ] {
                let ProtocolMsg::Answer(Answer { pushed, acks, via, .. }) = decoded else {
                    return Err(TestCaseError::fail("not an answer"));
                };
                prop_assert!(!pushed && !acks && via == Via::Session);
            }
            for tag in RETIRED_TAGS.into_iter().chain([FIRST_UNUSED_TAG, tag]) {
                let mut bytes = encode_msg(&asked);
                bytes[0] = tag;
                prop_assert!(matches!(decode_msg(&bytes), Err(binpack::Error::BadTag(t)) if t == tag));
            }
        }
    }

    /// Every start × exchange of a query, and every exchange × flags of an
    /// answer, round-trips byte for byte in the binary codec and through
    /// JSON, under a tag of its own.
    #[test]
    fn every_start_and_exchange_roundtrips_in_both_codecs(
        session in session(),
        rule in any::<u32>(),
        round in 0u32..100_000,
        since in marks(),
        rows in answer_rows(),
    ) {
        let vias = [Via::Session, Via::Round(round), Via::Repair];
        let starts = [Start::Fresh, Start::Resume, Start::Since(since)];
        let mut msgs = Vec::new();
        for via in vias {
            for from in starts.clone() {
                let query = Query::new(session, RuleId(rule), part(7), from, via);
                msgs.push(ProtocolMsg::Query(query));
            }
            for (pushed, acks) in [(false, false), (true, false), (false, true), (true, true)] {
                let answer = Answer::new(session, RuleId(rule), rows.clone(), via);
                msgs.push(ProtocolMsg::Answer(Answer { pushed, acks, ..answer }));
            }
        }
        let mut tags = BTreeSet::new();
        for msg in &msgs {
            let bytes = encode_msg(msg);
            prop_assert!(tags.insert(bytes[0]), "tag {} taken twice", bytes[0]);
            prop_assert!(!RETIRED_TAGS.contains(&bytes[0]) && bytes[0] < FIRST_UNUSED_TAG);
            let json = serde_json::to_string(msg).unwrap();
            for decoded in [decode_msg(&bytes).unwrap(), serde_json::from_str(&json).unwrap()] {
                prop_assert_eq!(&encode_msg(&decoded), &bytes);
                prop_assert_eq!(&serde_json::to_string(&decoded).unwrap(), &json);
            }
        }
    }

    /// A round's query says `resume` in its binary tag and is otherwise
    /// the same bytes, and says nothing of it in JSON when it starts fresh;
    /// its round travels in both codecs.
    #[test]
    fn wave_query_resume_rides_in_the_tag_and_is_omitted_when_false(
        session in session(),
        rule in any::<u32>(),
        round in 0u32..100_000,
        node in 0u32..9000,
    ) {
        let query = |from| {
            let query = Query::new(session, RuleId(rule), part(node), from, Via::Round(round));
            ProtocolMsg::Query(query)
        };
        for (from, tag) in [(Start::Fresh, 35), (Start::Resume, 36)] {
            let resume = from == Start::Resume;
            let msg = query(from);
            let json = serde_json::to_string(&msg).unwrap();
            prop_assert_eq!(json.contains("resume"), resume);
            let bytes = encode_msg(&msg);
            prop_assert_eq!(bytes[0], tag);
            prop_assert_eq!(&bytes[1..], &encode_msg(&query(Start::Fresh))[1..]);
            for decoded in [serde_json::from_str(&json).unwrap(), decode_msg(&bytes).unwrap()] {
                let ProtocolMsg::Query(Query { from: back, via, .. }) = &decoded else {
                    return Err(TestCaseError::fail("not a query"));
                };
                prop_assert_eq!(*back == Start::Resume, resume);
                prop_assert_eq!(*via, Via::Round(round));
                prop_assert_eq!(&encode_msg(&decoded), &bytes);
            }
        }
    }

    /// Encoder output with bytes overwritten, inserted and cut off decodes
    /// to a message or to a typed error — never a panic, which in a pipe
    /// reader thread would end the thread without a word.
    #[test]
    fn mutated_messages_decode_or_fail_without_panicking(
        msg in msg(),
        edits in proptest::collection::vec((0u8..4, any::<u64>(), any::<u8>()), 1..5),
    ) {
        let mut bytes = encode_msg(&msg);
        for (op, at, byte) in edits {
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            match op {
                0 | 1 if at < bytes.len() => bytes[at] = byte,
                2 => bytes.insert(at, byte),
                3 => bytes.truncate(at),
                _ => {}
            }
        }
        let decoded = std::panic::catch_unwind(|| decode_msg(&bytes).map(|_| ()));
        prop_assert!(decoded.is_ok(), "decoding {:?} panicked", bytes);
    }

    /// WAL frames of several records round-trip byte-for-byte through the
    /// binary frame codec and agree with the JSON frame path.
    #[test]
    fn wal_records_roundtrip_byte_for_byte(frame in wal_frame()) {
        let bytes = frame.encode(Codec::Binary).unwrap();
        let decoded = WalFrame::decode(Codec::Binary, &bytes).unwrap();
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(decoded.encode(Codec::Binary).unwrap(), bytes.clone());
        let text = frame.encode(Codec::Json).unwrap();
        let via_json = WalFrame::decode(Codec::Json, &text).unwrap();
        prop_assert_eq!(&via_json, &frame);
        prop_assert_eq!(via_json.encode(Codec::Binary).unwrap(), bytes);
    }

    /// Database snapshots round-trip byte-for-byte through binpack and
    /// decode to the same value the JSON path produces.
    #[test]
    fn snapshots_roundtrip_byte_for_byte(snap in snapshot()) {
        let bytes = binpack::to_bytes(&snap).unwrap();
        let decoded: DatabaseSnapshot = binpack::from_bytes(&bytes).unwrap();
        prop_assert_eq!(binpack::to_bytes(&decoded).unwrap(), bytes);
        let json = serde_json::to_string(&snap).unwrap();
        prop_assert_eq!(&serde_json::to_string(&decoded).unwrap(), &json);
        let via_json: DatabaseSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(serde_json::to_string(&via_json).unwrap(), json);
    }

    /// A row set encodes, in both codecs, to the bytes of the list of
    /// its rows — what a fragment mark or any other stored row list wrote
    /// before row sets — and reads back equal, order kept.
    #[test]
    fn row_sets_encode_like_their_tuple_lists(
        arity in 0usize..4,
        vals in proptest::collection::vec(val(), 0..24),
    ) {
        let mut set = RowSet::new(arity);
        let mut tuples = Vec::new();
        for row in vals.chunks(arity.max(1)).filter(|row| row.len() == arity) {
            if set.insert(row) {
                tuples.push(row.to_vec());
            }
        }
        let bytes = binpack::to_bytes(&set).unwrap();
        prop_assert_eq!(&bytes, &binpack::to_bytes(&tuples).unwrap());
        let text = serde_json::to_string(&set).unwrap();
        prop_assert_eq!(&text, &serde_json::to_string(&tuples).unwrap());
        let from_bytes: RowSet = binpack::from_bytes(&bytes).unwrap();
        let from_text: RowSet = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&from_bytes, &set);
        prop_assert_eq!(&from_text, &set);
    }

    /// Watermarks encode, in both codecs, to the bytes of the ordered map
    /// they replaced — whatever order their entries came in, the later of
    /// two for one relation winning in both — and read back equal.
    #[test]
    fn marks_encode_like_the_map_they_replaced(entries in mark_entries()) {
        let marks: Marks = entries.iter().cloned().collect();
        let map: BTreeMap<Arc<str>, usize> = entries.into_iter().collect();
        prop_assert_eq!(marks.len(), map.len());
        prop_assert!(map.iter().all(|(relation, &w)| marks.get(relation) == Some(w)));
        let bytes = binpack::to_bytes(&marks).unwrap();
        prop_assert_eq!(&bytes, &binpack::to_bytes(&map).unwrap());
        let text = serde_json::to_string(&marks).unwrap();
        prop_assert_eq!(&text, &serde_json::to_string(&map).unwrap());
        let from_bytes: Marks = binpack::from_bytes(&bytes).unwrap();
        let from_text: Marks = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&from_bytes, &marks);
        prop_assert_eq!(&from_text, &marks);
    }

    /// Foreign-process dictionaries (symbol ids minted in another catalog)
    /// recover through `SymRemap` to the same facts under both codecs.
    #[test]
    fn foreign_dictionaries_remap_identically_across_codecs(
        names in proptest::collection::vec(0u16..900, 1..8),
    ) {
        let mut recovered = Vec::new();
        for codec in [Codec::Json, Codec::Binary] {
            let mut backend = MemoryBackend::default();
            let snap = DatabaseSnapshot {
                nulls_next: 0,
                depths: Vec::new(),
                catalog: Vec::new(),
                marks: Vec::new(),
                cursors: Vec::new(),
                last_session: SessionId::default(),
                db: Database::new(DatabaseSchema::parse("s(x: str).").unwrap()),
            };
            // Ids far outside the live catalog, as a foreign process would
            // mint them, three to a frame; each frame's dictionary defines
            // its own.
            let foreign = |i: usize| SymId(3_000_000 + i as u32);
            let frames: Vec<WalFrame> = (names.iter().enumerate().collect::<Vec<_>>().chunks(3))
                .map(|chunk| WalFrame {
                    dict: (chunk.iter())
                        .map(|(i, n)| (foreign(*i), Arc::from(format!("fw-{n}"))))
                        .collect(),
                    records: (chunk.iter())
                        .map(|(i, _)| WalRecord::Insert {
                            relation: Arc::from("s"),
                            tuple: vec![Val::Sym(foreign(*i))],
                            depths: vec![],
                        })
                        .collect(),
                })
                .collect();
            let snapshot = match codec {
                Codec::Json => serde_json::to_string(&snap).unwrap().into_bytes(),
                Codec::Binary => binpack::to_bytes(&snap).unwrap(),
            };
            backend.write_snapshot_bytes(&snapshot).unwrap();
            for frame in &frames {
                backend.append_wal_bytes(&frame.encode(codec).unwrap()).unwrap();
            }
            let st = PeerStorage::with_codec(Box::new(backend), 0, codec);
            let rec = st.recover(0).unwrap().unwrap();
            for n in &names {
                prop_assert!(
                    rec.db
                        .relation("s")
                        .unwrap()
                        .contains(&[Val::str(format!("fw-{n}"))]),
                    "missing fw-{} under {}", n, codec
                );
            }
            recovered.push(rec.db);
        }
        prop_assert_eq!(recovered[0].all_facts(), recovered[1].all_facts());
    }
}
