//! Properties of the store. For arbitrary insertion sequences with
//! interleaved snapshots, `snapshot + WAL replay == live Database` —
//! exactly, including insertion order (watermarks), the null mint, and
//! chase depths. For arbitrary subscription histories, a cursor is its
//! newest record and a forgotten rule has no mark, through checkpoints and
//! over frames replayed twice. And whatever bytes sit in a `FileBackend`
//! directory, opening and recovering it gives a typed error or a prefix of
//! the acknowledged writes, never a panic.

use p2p_net::{Codec, SessionId};
use p2p_relational::value::NullId;
use p2p_relational::{Database, DatabaseSchema, Tuple, Val};
use p2p_storage::{
    CursorMark, FileBackend, FragmentMark, MemoryBackend, PeerStorage, StorageBackend,
    StorageResult, WalRecord,
};
use p2p_topology::NodeId;
use proptest::prelude::*;
use serde::Content;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// One step of a peer's durable life.
#[derive(Debug, Clone)]
enum Op {
    /// Insert `r(x, y)` or `s(x)` (arity decided by the relation pick).
    Insert { rel: bool, x: i64, y: i64 },
    /// Insert an interned-string fact `t(name)` (exercises the persisted
    /// catalog: first-use WAL dictionaries + the snapshot catalog section).
    InsertStr { pick: i64 },
    /// Insert a tuple carrying an own-minted null with a depth.
    InsertNull { counter: u64, depth: u32 },
    /// Take a snapshot right here.
    Snapshot,
}

fn op() -> impl Strategy<Value = Op> {
    // (selector, rel, x, y) — the vendored proptest stand-in has no
    // `prop_oneof`, so the variant pick is a mapped selector: 0–4 insert,
    // 5–6 string insert, 7–8 null insert, 9 snapshot.
    (0..10u8, any::<bool>(), 0..8i64, 0..8i64).prop_map(|(sel, rel, x, y)| match sel {
        0..=4 => Op::Insert { rel, x, y },
        5 | 6 => Op::InsertStr { pick: x },
        7 | 8 => Op::InsertNull {
            counter: x as u64,
            depth: y as u32,
        },
        _ => Op::Snapshot,
    })
}

const NODE: u32 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn snapshot_plus_replay_equals_live_database(ops in proptest::collection::vec(op(), 0..60)) {
        let schema =
            DatabaseSchema::parse("r(x: int, y: int). s(x: int). t(name: str).").unwrap();
        let mut db = Database::new(schema);
        let mut store = PeerStorage::new(Box::<MemoryBackend>::default(), 0);
        store.snapshot(&db, 0, Vec::new()).unwrap();

        let mut nulls_next = 0u64;
        let mut depths: BTreeMap<NullId, u32> = BTreeMap::new();
        for o in &ops {
            match o {
                Op::Insert { rel, x, y } => {
                    let (name, tuple) = if *rel {
                        ("r", Tuple::new(vec![Val::Int(*x), Val::Int(*y)]))
                    } else {
                        ("s", Tuple::new(vec![Val::Int(*x)]))
                    };
                    db.insert(name, tuple.clone()).unwrap();
                    let dict = store.first_use_dict(tuple.values());
                    store.log(&WalRecord::Insert {
                        relation: Arc::from(name),
                        tuple,
                        depths: Vec::new(),
                        dict,
                    }).unwrap();
                }
                Op::InsertStr { pick } => {
                    let tuple =
                        Tuple::new(vec![Val::str(format!("durable-const-{pick}"))]);
                    db.insert("t", tuple.clone()).unwrap();
                    let dict = store.first_use_dict(tuple.values());
                    store.log(&WalRecord::Insert {
                        relation: Arc::from("t"),
                        tuple,
                        depths: Vec::new(),
                        dict,
                    }).unwrap();
                }
                Op::InsertNull { counter, depth } => {
                    let id = NullId::new(NODE, *counter);
                    let tuple = Tuple::new(vec![Val::Null(id)]);
                    db.insert("s", tuple.clone()).unwrap();
                    store.log(&WalRecord::Insert {
                        relation: Arc::from("s"),
                        tuple,
                        depths: vec![(id, *depth)],
                        dict: vec![],
                    }).unwrap();
                    if counter + 1 > nulls_next {
                        nulls_next = counter + 1;
                    }
                    let e = depths.entry(id).or_insert(*depth);
                    if *depth > *e {
                        *e = *depth;
                    }
                }
                Op::Snapshot => {
                    store
                        .snapshot(&db, nulls_next, depths.clone().into_iter().collect())
                        .unwrap();
                }
            }
        }

        let rec = store.recover(NODE).unwrap().expect("initial snapshot exists");
        // Tuple-identity, including insertion order (watermark semantics).
        prop_assert_eq!(rec.db.all_facts(), db.all_facts());
        prop_assert_eq!(rec.db.watermarks(), db.watermarks());
        prop_assert_eq!(rec.nulls_next, nulls_next);
        let rec_depths: BTreeMap<NullId, u32> = rec.depths.into_iter().collect();
        prop_assert_eq!(rec_depths, depths);
    }
}

/// One step in the life of the subscriptions a peer serves and heads.
#[derive(Debug, Clone)]
enum SubOp {
    /// The cursor of `key` starts from scratch for fragment `part`.
    Start {
        key: u8,
        part: u8,
    },
    /// It advances (a record without the fragment).
    Advance {
        key: u8,
        to: usize,
    },
    /// `Unsubscribe`.
    Drop {
        key: u8,
    },
    /// An answer of `rule`'s fragment at node `key` is processed.
    Answer {
        rule: u8,
        key: u8,
        mark: usize,
    },
    /// The rule is replaced at its head.
    Forget {
        rule: u8,
    },
    Snapshot,
}

fn sub_op() -> impl Strategy<Value = SubOp> {
    (0..12u8, 0..3u8, 0..2u8, 0..40usize).prop_map(|(sel, key, small, n)| match sel {
        0..=1 => SubOp::Start { key, part: small },
        2..=4 => SubOp::Advance { key, to: n },
        5 => SubOp::Drop { key },
        6..=8 => SubOp::Answer {
            rule: small,
            key,
            mark: n,
        },
        9 => SubOp::Forget { rule: small },
        _ => SubOp::Snapshot,
    })
}

/// A backend that hands back every frame ever appended, whatever snapshot
/// was written since: the loosest reading of the contract, and what a crash
/// inside a checkpoint leaves behind.
#[derive(Debug, Default)]
struct KeepsEveryFrame {
    inner: MemoryBackend,
    text: Vec<String>,
    bytes: Vec<Vec<u8>>,
}

impl StorageBackend for KeepsEveryFrame {
    fn append_wal(&mut self, frame: &str) -> StorageResult<()> {
        self.text.push(frame.to_string());
        Ok(())
    }
    fn read_wal(&self) -> StorageResult<Vec<String>> {
        Ok(self.text.clone())
    }
    fn write_snapshot(&mut self, snapshot: &str) -> StorageResult<()> {
        self.inner.write_snapshot(snapshot)
    }
    fn read_snapshot(&self) -> StorageResult<Option<String>> {
        self.inner.read_snapshot()
    }
    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
        self.bytes.push(frame.to_vec());
        Ok(())
    }
    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
        Ok(self.bytes.clone())
    }
    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        self.inner.write_snapshot_bytes(snapshot)
    }
    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_snapshot_bytes()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A cursor is its newest record — started, advanced without its
    /// fragment, dropped — and a forgotten rule has no mark, whichever of
    /// those frames a checkpoint has folded and dropped since, on both
    /// codecs; and folding the frames a snapshot covers over it again (a
    /// backend that drops nothing) ends in the same place.
    #[test]
    fn cursors_and_marks_replay_to_their_newest_state(
        ops in proptest::collection::vec(sub_op(), 0..60),
        binary in any::<bool>(),
        keeps_frames in any::<bool>(),
    ) {
        let codec = if binary { Codec::Binary } else { Codec::Json };
        let backend: Box<dyn StorageBackend> = if keeps_frames {
            Box::<KeepsEveryFrame>::default()
        } else {
            Box::<MemoryBackend>::default()
        };
        let db = Database::new(DatabaseSchema::parse("r(x: int).").unwrap());
        let mut store = PeerStorage::with_codec(backend, 0, codec);
        store.snapshot(&db, 0, Vec::new()).unwrap();

        let mut cursors: BTreeMap<(NodeId, u32), CursorMark> = BTreeMap::new();
        let mut marks: BTreeMap<(u32, NodeId), FragmentMark> = BTreeMap::new();
        let marks_of = |n: usize| -> BTreeMap<Arc<str>, usize> {
            [(Arc::<str>::from("r"), n)].into_iter().collect()
        };
        for o in &ops {
            match *o {
                SubOp::Start { key, part } => {
                    let key = (NodeId(u32::from(key)), 7);
                    let mark = CursorMark {
                        part: Content::Str(format!("fragment {part}")),
                        ..CursorMark::default()
                    };
                    cursors.insert(key, mark.clone());
                    store.log(&WalRecord::Cursor {
                        subscriber: key.0,
                        rule: key.1,
                        mark: Some(mark),
                    }).unwrap();
                }
                SubOp::Advance { key, to } => {
                    let key = (NodeId(u32::from(key)), 7);
                    // The owner advances a cursor it has.
                    let Some(cursor) = cursors.get_mut(&key) else { continue };
                    cursor.watermarks = marks_of(to);
                    cursor.rows = to;
                    store.log(&WalRecord::Cursor {
                        subscriber: key.0,
                        rule: key.1,
                        mark: Some(CursorMark {
                            part: Content::Null,
                            watermarks: marks_of(to),
                            rows: to,
                        }),
                    }).unwrap();
                }
                SubOp::Drop { key } => {
                    let key = (NodeId(u32::from(key)), 7);
                    cursors.remove(&key);
                    store.log(&WalRecord::Cursor {
                        subscriber: key.0,
                        rule: key.1,
                        mark: None,
                    }).unwrap();
                }
                SubOp::Answer { rule, key, mark } => {
                    let key = (u32::from(rule), NodeId(u32::from(key)));
                    let held = marks.entry(key).or_default();
                    let newest = held.watermarks.entry(Arc::from("r")).or_default();
                    *newest = (*newest).max(mark);
                    store.log(&WalRecord::Answer {
                        session: SessionId::default(),
                        rule: key.0,
                        node: key.1,
                        vars: Vec::new(),
                        rows: Vec::new(),
                        watermarks: marks_of(mark),
                        dict: Vec::new(),
                    }).unwrap();
                }
                SubOp::Forget { rule } => {
                    marks.retain(|(r, _), _| *r != u32::from(rule));
                    store.log(&WalRecord::ForgetRule { rule: u32::from(rule) }).unwrap();
                }
                SubOp::Snapshot => store.snapshot(&db, 0, Vec::new()).unwrap(),
            }
        }
        let rec = store.recover(NODE).unwrap().expect("initial snapshot exists");
        prop_assert_eq!(&rec.cursors, &cursors);
        prop_assert_eq!(&rec.marks, &marks);
        // … and once more through the snapshot a reopened store writes.
        store.adopt(&rec);
        store.snapshot(&db, 0, Vec::new()).unwrap();
        let again = store.recover(NODE).unwrap().unwrap();
        prop_assert_eq!(again.cursors, cursors);
        prop_assert_eq!(again.marks, marks);
    }
}

/// How a directory's files are damaged before it is reopened.
#[derive(Debug, Clone)]
struct Damage {
    /// 0 = replace the file, 1 = flip one byte, 2 = append, 3 = cut, then
    /// append.
    how: u8,
    /// The snapshot (true) or the log (false).
    snapshot: bool,
    /// Where (reduced modulo the file's length).
    at: usize,
    noise: Vec<u8>,
}

fn damage() -> impl Strategy<Value = Damage> {
    (
        0..4u8,
        any::<bool>(),
        0..4096usize,
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(how, snapshot, at, noise)| Damage {
            how,
            snapshot,
            at,
            noise,
        })
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("p2p_storage_hostile_{tag}_{}", std::process::id()))
}

/// Five acknowledged inserts on top of an empty snapshot; returns the facts
/// in insertion order.
fn acknowledged_history(dir: &std::path::Path, codec: Codec) -> Vec<(Arc<str>, Tuple)> {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = Database::new(DatabaseSchema::parse("t(x: int, name: str).").unwrap());
    let backend = Box::new(FileBackend::open(dir).unwrap());
    let mut store = PeerStorage::with_codec(backend, 0, codec);
    store.snapshot(&db, 0, Vec::new()).unwrap();
    for i in 0..5i64 {
        let tuple = Tuple::new(vec![Val::Int(i), Val::str(format!("hostile-{i}"))]);
        db.insert("t", tuple.clone()).unwrap();
        let dict = store.first_use_dict(tuple.values());
        store
            .log(&WalRecord::Insert {
                relation: Arc::from("t"),
                tuple,
                depths: Vec::new(),
                dict,
            })
            .unwrap();
    }
    db.all_facts()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes in the WAL and snapshot files: a typed error or a
    /// prefix of the acknowledged writes.
    #[test]
    fn hostile_files_give_a_typed_error_or_an_acknowledged_prefix(
        damage in damage(),
        binary in any::<bool>(),
    ) {
        let codec = if binary { Codec::Binary } else { Codec::Json };
        let dir = scratch_dir(&format!("files_{codec}"));
        let facts = acknowledged_history(&dir, codec);
        let name = match (damage.snapshot, binary) {
            (true, false) => "snapshot-1.json",
            (true, true) => "snapshot-1.bin",
            (false, false) => "wal-1.jsonl",
            (false, true) => "wal-1.bin",
        };
        let mut bytes = std::fs::read(dir.join(name)).unwrap();
        let at = damage.at % bytes.len();
        match damage.how {
            0 => bytes = damage.noise.clone(),
            1 => bytes[at] ^= damage.noise.first().copied().unwrap_or(0) | 1,
            2 => bytes.extend_from_slice(&damage.noise),
            _ => {
                bytes.truncate(at);
                bytes.extend_from_slice(&damage.noise);
            }
        }
        std::fs::write(dir.join(name), &bytes).unwrap();

        let recovered = FileBackend::open(&dir)
            .and_then(|b| PeerStorage::with_codec(Box::new(b), 0, codec).recover(0));
        match recovered {
            Ok(Some(rec)) => {
                let got = rec.db.all_facts();
                prop_assert!(
                    got.len() <= facts.len() && got[..] == facts[..got.len()],
                    "recovered {:?}, which is no prefix of the acknowledged writes", got
                );
            }
            Ok(None) => prop_assert!(false, "a log without its snapshot read as an empty store"),
            Err(_) => {}
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary payloads under valid framing — what a bug in a writer, or
    /// another program's file, would leave: the checksums pass, the
    /// decoders must still answer with a typed error.
    #[test]
    fn well_framed_garbage_is_a_typed_error(
        frame in proptest::collection::vec(any::<u8>(), 0..64),
        in_snapshot in any::<bool>(),
        binary in any::<bool>(),
    ) {
        let codec = if binary { Codec::Binary } else { Codec::Json };
        let dir = scratch_dir(&format!("framed_{codec}"));
        acknowledged_history(&dir, codec);
        let mut backend = FileBackend::open(&dir).unwrap();
        let text: String = frame.iter().map(|b| (b % 0x5f + 0x20) as char).collect();
        match (in_snapshot, binary) {
            (true, false) => backend.write_snapshot(&text).unwrap(),
            (true, true) => backend.write_snapshot_bytes(&frame).unwrap(),
            (false, false) => backend.append_wal(&text).unwrap(),
            (false, true) => backend.append_wal_bytes(&frame).unwrap(),
        }
        drop(backend);
        let backend = FileBackend::open(&dir).unwrap();
        let recovered = PeerStorage::with_codec(Box::new(backend), 0, codec).recover(0);
        prop_assert!(recovered.is_err(), "garbage decoded: {:?}", frame);
        std::fs::remove_dir_all(&dir).ok();
    }
}
