//! Write-ahead-log records.
//!
//! One record per durable event, serde-framed (one JSON or [`binpack`]
//! document per frame; the backend delimits and checksums frames).
//! Records are designed to be **replay-idempotent**: inserting an
//! already-present tuple is a no-op at the relation layer, depth records
//! and answer watermarks merge by maximum and answer rows deduplicate, so
//! recovery may safely replay frames the snapshot already covers.
//!
//! Rows carry interned [`p2p_relational::Val`]s, whose 4-byte symbol ids
//! are only meaningful relative to a catalog. Every record therefore ships
//! a **first-use dictionary** (`dict`): the `(SymId, string)` definitions
//! of symbols this store has never persisted before. Recovery folds those
//! into the live catalog and remaps ids, so a log written by one process
//! round-trips in another — the on-disk analogue of the wire protocol's
//! dictionary deltas.

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
        depths: Vec<(NullId, u32)>,
        /// First-use symbol definitions for interned constants in `tuple`.
        #[serde(default)]
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
        vars: Vec<Arc<str>>,
        /// The shipped rows (head-side fragment rebuild); empty for a rule
        /// with a single body node, whose head keeps none.
        rows: Vec<Tuple>,
        /// The answerer's per-relation insertion watermarks at answer time.
        watermarks: BTreeMap<Arc<str>, usize>,
        /// First-use symbol definitions for interned constants in `rows`.
        #[serde(default)]
        dict: Vec<(SymId, Arc<str>)>,
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
