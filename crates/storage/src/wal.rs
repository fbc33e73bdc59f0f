//! Write-ahead-log frames: one frame per delivery.
//!
//! The [`WalRecord`]s one delivery of a peer made — or one call from outside
//! any delivery — are written as **one frame** ([`WalFrame`]), in the order
//! they were made, before anything the delivery sent leaves. The backend
//! checksums frames and drops a torn tail whole, so wherever the log is cut
//! it holds the state after some number of whole deliveries.
//!
//! Replay is idempotent: inserts deduplicate, depths and watermarks merge by
//! maximum, answer rows deduplicate. The newest `Cursor` of a key wins and a
//! `ForgetRule` drops the marks before it, idempotent in sequence: a
//! checkpoint drops the frames it covers at once, so stale frames replay up
//! to the snapshot that folded them and end where it stands.
//!
//! Symbol ids in rows mean something only against a catalog, so a frame
//! carries a **first-use dictionary**: the `(SymId, string)` definitions of
//! the symbols among its rows the store has not persisted before, which
//! recovery interns and remaps by. Empty lists are left out of a frame. A
//! frame of the one-record-per-frame layout — a bare record, or a record
//! with a dictionary of its own — is corrupt, as is a frame without records.

use crate::store::CursorMark;
use crate::{StorageError, StorageResult};
use p2p_net::{Codec, SessionId};
use p2p_relational::query::Marks;
use p2p_relational::value::NullId;
use p2p_relational::{RowSet, SymId, Val};
use p2p_topology::NodeId;
use serde::{content_get, Content, Deserialize, Serialize};
use std::fmt::Display;
use std::sync::Arc;

/// The records of one delivery, written and read back as one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalFrame {
    /// First-use symbol definitions for interned constants in the rows of
    /// `records`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub dict: Vec<(SymId, Arc<str>)>,
    /// The records, in the order they were made.
    pub records: Vec<WalRecord>,
}

impl WalFrame {
    /// The frame's payload under `codec`.
    pub fn encode(&self, codec: Codec) -> StorageResult<Vec<u8>> {
        crate::encode(codec, self, "WAL frame")
    }

    /// Decodes a payload [`WalFrame::encode`] wrote under `codec`, refusing
    /// the earlier layout (the derive skips unknown keys: a record's own
    /// `dict` would go unread).
    pub fn decode(codec: Codec, frame: &[u8]) -> StorageResult<Self> {
        let corrupt = |e: &dyn Display| StorageError::Corrupt(format!("WAL frame: {e}"));
        let doc: Content = crate::decode(codec, frame, "WAL frame")?;
        let frame = Self::from_content(&doc).map_err(|e| corrupt(&e))?;
        let records = (field(&doc, "records").and_then(Content::as_seq)).unwrap_or_default();
        let mut bodies = records.iter().filter_map(Content::as_map).flatten();
        if bodies.any(|(_, body)| field(body, "dict").is_some()) {
            return Err(corrupt(&"a record with a dictionary of its own"));
        }
        if frame.records.is_empty() {
            return Err(corrupt(&"no records"));
        }
        Ok(frame)
    }
}

/// The `key` entry of a map document.
fn field<'a>(doc: &'a Content, key: &str) -> Option<&'a Content> {
    content_get(doc.as_map()?, key)
}

/// One durable event in a peer's write-ahead log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A fact the update algorithm inserted into the local database. A
    /// frame may list one delivery's inserts relation by relation rather
    /// than in the order they were made; each relation's rows keep their
    /// order, which is all replay needs to rebuild the same database.
    Insert {
        /// Relation the fact went into.
        relation: Arc<str>,
        /// The inserted row (the key keeps the name the format always had).
        tuple: Vec<Val>,
        /// Chase depths of any labeled nulls aboard the row (the global
        /// null-depth safety valve must survive recovery).
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        depths: Vec<(NullId, u32)>,
    },
    /// A fragment answer this peer processed: crucially the answerer's
    /// database watermarks at answer time, whose newest values per
    /// `(rule, peer)` are the resync cursor — after a crash the peer asks
    /// the answerer only for rows derived from facts beyond them — and,
    /// where the head retains fragment rows (a rule with more than one
    /// body node), the rows, so recovery can rebuild that state.
    Answer {
        /// The update session the answer belonged to (resync traffic
        /// travels under the newest one's tag).
        session: SessionId,
        /// Rule the answer served (raw id; `p2p_core` owns the typed form).
        rule: u32,
        /// The answering peer.
        node: NodeId,
        /// Column variables of `rows`.
        #[serde(default, skip_serializing_if = "no_vars")]
        vars: Arc<[Arc<str>]>,
        /// The shipped rows (head-side fragment rebuild), the answer's own
        /// set: encoded as the array of its rows, as a list of tuples
        /// holding them was. Empty for a rule with a single body node, whose
        /// head keeps none.
        #[serde(default, skip_serializing_if = "RowSet::is_empty")]
        rows: RowSet,
        /// The answerer's per-relation insertion watermarks at answer time.
        watermarks: Marks,
    },
    /// The body side of a subscription moved: the cursor this peer serves
    /// `subscriber` from for `rule` was set (started from scratch, or
    /// advanced by a session that retired) or dropped. The newest record
    /// of a key is its cursor.
    Cursor {
        /// The head node the cursor is served to.
        subscriber: NodeId,
        /// The rule it serves (raw id, as in [`WalRecord::Answer`]).
        rule: u32,
        /// Where the cursor stands now; `None`: it is gone. A mark without
        /// a fragment moves the cursor the key already has.
        mark: Option<CursorMark>,
    },
    /// A rule was replaced or deleted at its head: every answer mark logged
    /// for it so far belongs to a rule that no longer exists.
    ForgetRule {
        /// The rule (raw id).
        rule: u32,
    },
}

/// Whether an answer record names no column, which its encoding leaves out.
fn no_vars(vars: &Arc<[Arc<str>]>) -> bool {
    vars.is_empty()
}

impl WalRecord {
    /// The values of the record's rows: what its frame's dictionary covers.
    pub(crate) fn values(&self) -> impl Iterator<Item = &Val> {
        let (tuple, rows): (&[Val], Option<&RowSet>) = match self {
            WalRecord::Insert { tuple, .. } => (tuple, None),
            WalRecord::Answer { rows, .. } => (&[], Some(rows)),
            WalRecord::Cursor { .. } | WalRecord::ForgetRule { .. } => (&[], None),
        };
        tuple
            .iter()
            .chain(rows.into_iter().flat_map(RowSet::iter).flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_relational::Val;

    fn one(record: WalRecord) -> WalFrame {
        WalFrame {
            dict: Vec::new(),
            records: vec![record],
        }
    }

    /// The frame encoded under `codec` and decoded back.
    fn roundtrip(frame: &WalFrame, codec: Codec) -> WalFrame {
        WalFrame::decode(codec, &frame.encode(codec).unwrap()).unwrap()
    }

    fn json(frame: &WalFrame) -> String {
        String::from_utf8(frame.encode(Codec::Json).unwrap()).unwrap()
    }

    #[test]
    fn insert_record_roundtrips() {
        let frame = one(WalRecord::Insert {
            relation: Arc::from("a"),
            tuple: vec![Val::Int(1), Val::Null(NullId::new(2, 5))],
            depths: vec![(NullId::new(2, 5), 3)],
        });
        assert_eq!(roundtrip(&frame, Codec::Json), frame);
    }

    /// A one-insert frame keeps its bytes under both codecs: the row of an
    /// integer, a symbol and a null, with the null's depth.
    #[test]
    fn an_insert_frame_keeps_its_bytes() {
        let null = NullId::new(2, 5);
        let frame = one(WalRecord::Insert {
            relation: Arc::from("a"),
            tuple: vec![Val::Int(1), Val::Sym(SymId(7)), Val::Null(null)],
            depths: vec![(null, 3)],
        });
        assert_eq!(
            json(&frame),
            concat!(
                r#"{"records":[{"Insert":{"relation":"a","tuple":"#,
                r#"[{"Int":1},{"Sym":7},{"Null":2199023255557}],"#,
                r#""depths":[[2199023255557,3]]}}]}"#
            )
        );
        let binary: &[u8] = &[
            8, 1, 0, 7, 114, 101, 99, 111, 114, 100, 115, 7, 1, 8, 1, 0, 6, 73, 110, 115, 101, 114,
            116, 8, 3, 0, 8, 114, 101, 108, 97, 116, 105, 111, 110, 6, 1, 97, 0, 5, 116, 117, 112,
            108, 101, 7, 3, 8, 1, 0, 3, 73, 110, 116, 3, 2, 8, 1, 0, 3, 83, 121, 109, 4, 7, 8, 1,
            0, 4, 78, 117, 108, 108, 4, 133, 128, 128, 128, 128, 64, 0, 6, 100, 101, 112, 116, 104,
            115, 7, 1, 7, 2, 4, 133, 128, 128, 128, 128, 64, 4, 3,
        ];
        assert_eq!(frame.encode(Codec::Binary).unwrap(), binary);
        assert_eq!(roundtrip(&frame, Codec::Binary), frame);
    }

    /// The dictionary is the frame's, and covers the rows of every record
    /// in it.
    #[test]
    fn record_dict_roundtrips_symbol_definitions() {
        let v = Val::str("wal-dict-sym");
        let insert = WalRecord::Insert {
            relation: Arc::from("a"),
            tuple: vec![Val::Int(1), v],
            depths: vec![],
        };
        assert_eq!(insert.values().collect::<Vec<_>>(), [&Val::Int(1), &v]);
        let frame = WalFrame {
            dict: vec![(v.as_sym().unwrap(), Arc::from("wal-dict-sym"))],
            records: vec![insert, WalRecord::ForgetRule { rule: 2 }],
        };
        let text = json(&frame);
        assert!(text.starts_with(r#"{"dict":[["#) && text.contains("wal-dict-sym"));
        assert_eq!(roundtrip(&frame, Codec::Json), frame);
        assert_eq!(roundtrip(&frame, Codec::Binary), frame);
    }

    #[test]
    fn answer_record_roundtrips_with_watermarks() {
        let mut watermarks = Marks::new();
        watermarks.insert(Arc::<str>::from("b"), 7usize);
        let frame = one(WalRecord::Answer {
            session: SessionId::new(NodeId(0), 3),
            rule: 4,
            node: NodeId(3),
            vars: [Arc::from("X"), Arc::from("Y")].into(),
            rows: RowSet::from_flat(2, 1, vec![Val::Int(1), Val::Int(2)]),
            watermarks,
        });
        assert_eq!(roundtrip(&frame, Codec::Json), frame);
    }

    #[test]
    fn cursor_record_roundtrips_with_and_without_its_fragment() {
        let mut watermarks = Marks::new();
        watermarks.insert(Arc::<str>::from("b"), 7usize);
        let start = CursorMark {
            part: serde::Content::Map(vec![("node".into(), serde::Content::U64(3))]),
            ..CursorMark::default()
        };
        let advance = CursorMark {
            watermarks,
            rows: 12,
            ..CursorMark::default()
        };
        let mut records: Vec<WalRecord> = [Some(start), Some(advance), None]
            .into_iter()
            .map(|mark| WalRecord::Cursor {
                subscriber: NodeId(3),
                rule: 4,
                mark,
            })
            .collect();
        records.push(WalRecord::ForgetRule { rule: 9 });
        for record in records {
            let frame = one(record);
            assert_eq!(roundtrip(&frame, Codec::Json), frame);
            assert_eq!(roundtrip(&frame, Codec::Binary), frame);
        }
    }

    /// Empty lists are left out of a frame; a frame that spells them out
    /// reads the same.
    #[test]
    fn frames_leave_empty_lists_out_and_read_the_earlier_form() {
        let mut watermarks = Marks::new();
        watermarks.insert(Arc::<str>::from("b"), 7usize);
        let frame = WalFrame {
            dict: vec![],
            records: vec![
                WalRecord::Insert {
                    relation: Arc::from("a"),
                    tuple: vec![Val::Int(1)],
                    depths: vec![],
                },
                WalRecord::Answer {
                    session: SessionId::new(NodeId(0), 3),
                    rule: 4,
                    node: NodeId(3),
                    vars: Arc::default(),
                    rows: RowSet::default(),
                    watermarks,
                },
            ],
        };
        let text = json(&frame);
        assert!(!["dict", "depths", "vars", "rows"]
            .iter()
            .any(|k| text.contains(k)));
        let spelled_out = concat!(
            r#"{"dict":[],"records":[{"Insert":{"relation":"a","tuple":[{"Int":1}],"depths":[]}},"#,
            r#"{"Answer":{"session":{"root":0,"epoch":3},"rule":4,"node":3,"#,
            r#""vars":[],"rows":[],"watermarks":{"b":7}}}]}"#
        );
        let read = WalFrame::decode(Codec::Json, spelled_out.as_bytes()).unwrap();
        assert_eq!(read, frame);
        assert!(text.len() + 40 < spelled_out.len());
    }

    /// Garbage, a frame of the one-record-per-frame layout (bare, or as a
    /// record with its own dictionary), and a frame without records are all
    /// corrupt, in both codecs.
    #[test]
    fn garbage_frame_is_a_corrupt_error() {
        let corrupt = |r: StorageResult<WalFrame>| matches!(r, Err(StorageError::Corrupt(_)));
        assert!(corrupt(WalFrame::decode(Codec::Json, b"not json")));
        assert!(corrupt(WalFrame::decode(
            Codec::Binary,
            &[0xff, 0xff, 0xff]
        )));
        let earlier = r#"{"Insert":{"relation":"a","tuple":[{"Int":1}],"dict":[[9,"x"]]}}"#;
        let nested = format!(r#"{{"records":[{earlier}]}}"#);
        for text in [earlier, &nested, r#"{"records":[]}"#, r#"{"dict":[]}"#] {
            let doc: Content = serde_json::from_str(text).unwrap();
            assert!(
                corrupt(WalFrame::decode(Codec::Json, text.as_bytes())),
                "{text}"
            );
            let bytes = binpack::to_bytes(&doc).unwrap();
            assert!(corrupt(WalFrame::decode(Codec::Binary, &bytes)), "{text}");
        }
    }

    #[test]
    fn binary_frames_roundtrip_and_undercut_json() {
        let mut watermarks = Marks::new();
        watermarks.insert(Arc::<str>::from("b"), 7usize);
        let frame = one(WalRecord::Answer {
            session: SessionId::new(NodeId(0), 3),
            rule: 4,
            node: NodeId(3),
            vars: [Arc::from("X"), Arc::from("Y")].into(),
            rows: RowSet::from_flat(
                2,
                20,
                (0..20)
                    .flat_map(|i| [Val::Int(i), Val::Int(1_000_000 + i)])
                    .collect(),
            ),
            watermarks,
        });
        assert_eq!(roundtrip(&frame, Codec::Binary), frame);
        let bytes = frame.encode(Codec::Binary).unwrap();
        assert!(
            bytes.len() * 3 < json(&frame).len() * 2,
            "binary frame {} should be well under the JSON frame {}",
            bytes.len(),
            json(&frame).len()
        );
    }
}
