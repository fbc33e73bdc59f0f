//! Write-ahead-log records.
//!
//! One record per durable event, serde-framed (one JSON or [`binpack`]
//! document per frame; the backend delimits and checksums frames).
//! Records are designed to be **replay-idempotent**: inserting an
//! already-present tuple is a no-op at the relation layer, depth records
//! and answer watermarks merge by maximum and answer rows deduplicate, so
//! recovery may safely replay frames the snapshot already covers. The two
//! records that take something back — [`WalRecord::Cursor`], whose newest
//! record per key wins, and [`WalRecord::ForgetRule`] — are idempotent in
//! sequence instead: a checkpoint drops all the frames it covers at once,
//! so stale frames are always replayed up to the snapshot that folded them
//! and end where it stands.
//!
//! Rows carry interned [`p2p_relational::Val`]s, whose 4-byte symbol ids
//! are only meaningful relative to a catalog. Every record therefore ships
//! a **first-use dictionary** (`dict`): the `(SymId, string)` definitions
//! of symbols this store has never persisted before. Recovery folds those
//! into the live catalog and remaps ids, so a log written by one process
//! round-trips in another — the on-disk analogue of the wire protocol's
//! dictionary deltas. A list that is empty is left out of the frame (most
//! are: no nulls aboard, no new symbol, no rows kept) and reads back empty.

use crate::store::CursorMark;
use p2p_net::SessionId;
use p2p_relational::value::NullId;
use p2p_relational::{SymId, Tuple};
use p2p_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One durable event in a peer's write-ahead log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A fact the update algorithm inserted into the local database.
    Insert {
        /// Relation the tuple went into.
        relation: Arc<str>,
        /// The inserted tuple.
        tuple: Tuple,
        /// Chase depths of any labeled nulls aboard the tuple (the global
        /// null-depth safety valve must survive recovery).
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        depths: Vec<(NullId, u32)>,
        /// First-use symbol definitions for interned constants in `tuple`.
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        dict: Vec<(SymId, Arc<str>)>,
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
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        vars: Vec<Arc<str>>,
        /// The shipped rows (head-side fragment rebuild); empty for a rule
        /// with a single body node, whose head keeps none.
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        rows: Vec<Tuple>,
        /// The answerer's per-relation insertion watermarks at answer time.
        watermarks: BTreeMap<Arc<str>, usize>,
        /// First-use symbol definitions for interned constants in `rows`.
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        dict: Vec<(SymId, Arc<str>)>,
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

impl WalRecord {
    /// Serializes the record into one frame.
    pub fn to_frame(&self) -> String {
        serde_json::to_string(self).expect("WAL records are plain data")
    }

    /// Parses a frame back.
    pub fn from_frame(frame: &str) -> Result<Self, crate::StorageError> {
        serde_json::from_str(frame)
            .map_err(|e| crate::StorageError::Corrupt(format!("WAL frame: {e}")))
    }

    /// Serializes the record into one binary frame (the [`binpack`] wire
    /// form, used when the store's codec is `Binary`).
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        binpack::to_bytes(self).expect("WAL records are plain data")
    }

    /// Parses a binary frame back.
    pub fn from_frame_bytes(frame: &[u8]) -> Result<Self, crate::StorageError> {
        binpack::from_bytes(frame)
            .map_err(|e| crate::StorageError::Corrupt(format!("binary WAL frame: {e}")))
    }

    /// The record's dictionary delta.
    pub fn dict(&self) -> &[(SymId, Arc<str>)] {
        match self {
            WalRecord::Insert { dict, .. } | WalRecord::Answer { dict, .. } => dict,
            WalRecord::Cursor { .. } | WalRecord::ForgetRule { .. } => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_relational::Val;

    #[test]
    fn insert_record_roundtrips() {
        let rec = WalRecord::Insert {
            relation: Arc::from("a"),
            tuple: Tuple::new(vec![Val::Int(1), Val::Null(NullId::new(2, 5))]),
            depths: vec![(NullId::new(2, 5), 3)],
            dict: vec![],
        };
        let frame = rec.to_frame();
        assert_eq!(WalRecord::from_frame(&frame).unwrap(), rec);
    }

    #[test]
    fn record_dict_roundtrips_symbol_definitions() {
        let v = Val::str("wal-dict-sym");
        let rec = WalRecord::Insert {
            relation: Arc::from("a"),
            tuple: Tuple::new(vec![v]),
            depths: vec![],
            dict: vec![(v.as_sym().unwrap(), Arc::from("wal-dict-sym"))],
        };
        let frame = rec.to_frame();
        assert!(frame.contains("wal-dict-sym"));
        assert_eq!(WalRecord::from_frame(&frame).unwrap(), rec);
    }

    #[test]
    fn answer_record_roundtrips_with_watermarks() {
        let mut watermarks = BTreeMap::new();
        watermarks.insert(Arc::<str>::from("b"), 7usize);
        let rec = WalRecord::Answer {
            session: SessionId::new(NodeId(0), 3),
            rule: 4,
            node: NodeId(3),
            vars: vec![Arc::from("X"), Arc::from("Y")],
            rows: vec![Tuple::new(vec![Val::Int(1), Val::Int(2)])],
            watermarks,
            dict: vec![],
        };
        let frame = rec.to_frame();
        assert_eq!(WalRecord::from_frame(&frame).unwrap(), rec);
    }

    #[test]
    fn cursor_record_roundtrips_with_and_without_its_fragment() {
        let mut watermarks = BTreeMap::new();
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
        for mark in [Some(start), Some(advance), None] {
            let rec = WalRecord::Cursor {
                subscriber: NodeId(3),
                rule: 4,
                mark,
            };
            assert_eq!(WalRecord::from_frame(&rec.to_frame()).unwrap(), rec);
            assert_eq!(
                WalRecord::from_frame_bytes(&rec.to_frame_bytes()).unwrap(),
                rec
            );
        }
        let rec = WalRecord::ForgetRule { rule: 9 };
        assert_eq!(WalRecord::from_frame(&rec.to_frame()).unwrap(), rec);
    }

    /// Empty lists are left out of a frame; a frame that spells them out —
    /// every frame written before they were — reads the same.
    #[test]
    fn frames_leave_empty_lists_out_and_read_the_earlier_form() {
        let rec = WalRecord::Insert {
            relation: Arc::from("a"),
            tuple: Tuple::new(vec![Val::Int(1)]),
            depths: vec![],
            dict: vec![],
        };
        let frame = rec.to_frame();
        assert!(!frame.contains("depths") && !frame.contains("dict"));
        let earlier = r#"{"Insert":{"relation":"a","tuple":[{"Int":1}],"depths":[],"dict":[]}}"#;
        assert_eq!(WalRecord::from_frame(earlier).unwrap(), rec);

        let mut watermarks = BTreeMap::new();
        watermarks.insert(Arc::<str>::from("b"), 7usize);
        let rec = WalRecord::Answer {
            session: SessionId::new(NodeId(0), 3),
            rule: 4,
            node: NodeId(3),
            vars: vec![],
            rows: vec![],
            watermarks,
            dict: vec![],
        };
        let earlier = concat!(
            r#"{"Answer":{"session":{"root":0,"epoch":3},"rule":4,"node":3,"#,
            r#""vars":[],"rows":[],"watermarks":{"b":7},"dict":[]}}"#
        );
        assert_eq!(WalRecord::from_frame(earlier).unwrap(), rec);
        assert!(rec.to_frame().len() + 25 < earlier.len());
    }

    #[test]
    fn garbage_frame_is_a_corrupt_error() {
        assert!(matches!(
            WalRecord::from_frame("not json"),
            Err(crate::StorageError::Corrupt(_))
        ));
        assert!(matches!(
            WalRecord::from_frame_bytes(&[0xff, 0xff, 0xff]),
            Err(crate::StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn binary_frames_roundtrip_and_undercut_json() {
        let mut watermarks = BTreeMap::new();
        watermarks.insert(Arc::<str>::from("b"), 7usize);
        let rec = WalRecord::Answer {
            session: SessionId::new(NodeId(0), 3),
            rule: 4,
            node: NodeId(3),
            vars: vec![Arc::from("X"), Arc::from("Y")],
            rows: (0..20)
                .map(|i| Tuple::new(vec![Val::Int(i), Val::Int(1_000_000 + i)]))
                .collect(),
            watermarks,
            dict: vec![],
        };
        let bytes = rec.to_frame_bytes();
        assert_eq!(WalRecord::from_frame_bytes(&bytes).unwrap(), rec);
        assert!(
            bytes.len() * 3 < rec.to_frame().len() * 2,
            "binary frame {} should be well under the JSON frame {}",
            bytes.len(),
            rec.to_frame().len()
        );
    }
}
