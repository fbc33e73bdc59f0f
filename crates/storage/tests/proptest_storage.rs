//! Properties of the store, over histories committed a frame of one to six
//! records at a time. For arbitrary insertion sequences with interleaved
//! snapshots, `snapshot + WAL replay == live Database` — exactly, including
//! insertion order (watermarks), the null mint, and chase depths. For
//! arbitrary subscription histories, a cursor is its newest record and a
//! forgotten rule has no mark, through checkpoints and over frames replayed
//! twice. And whatever bytes sit in a `FileBackend` directory, opening and
//! recovering it gives a typed error or a prefix of the acknowledged
//! frames, never a panic.

use p2p_net::{Codec, SessionId};
use p2p_relational::query::Marks;
use p2p_relational::value::NullId;
use p2p_relational::{Database, DatabaseSchema, Val};
use p2p_storage::{
    CursorMark, FileBackend, FragmentMark, MemoryBackend, PeerStorage, StorageBackend,
    StorageError, StorageResult, WalFrame, WalRecord,
};
use p2p_topology::NodeId;
use proptest::prelude::*;
use serde::{Content, Serialize};
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
}

fn op() -> impl Strategy<Value = Op> {
    // (selector, rel, x, y) — the vendored proptest stand-in has no
    // `prop_oneof`, so the variant pick is a mapped selector: 0–4 insert,
    // 5–6 string insert, 7–8 null insert.
    (0..9u8, any::<bool>(), 0..8i64, 0..8i64).prop_map(|(sel, rel, x, y)| match sel {
        0..=4 => Op::Insert { rel, x, y },
        5 | 6 => Op::InsertStr { pick: x },
        _ => Op::InsertNull {
            counter: x as u64,
            depth: y as u32,
        },
    })
}

/// One frame of one to six records, then a snapshot one time in six.
fn step<S: Strategy>(record: S) -> impl Strategy<Value = (Vec<S::Value>, bool)> {
    (proptest::collection::vec(record, 1..7), 0..6u8).prop_map(|(frame, s)| (frame, s == 0))
}

const NODE: u32 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn snapshot_plus_replay_equals_live_database(steps in proptest::collection::vec(step(op()), 0..20)) {
        let schema =
            DatabaseSchema::parse("r(x: int, y: int). s(x: int). t(name: str).").unwrap();
        let mut db = Database::new(schema);
        let mut store = PeerStorage::new(Box::<MemoryBackend>::default(), 0);
        store.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();

        let mut nulls_next = 0u64;
        let mut depths: BTreeMap<NullId, u32> = BTreeMap::new();
        for (ops, snapshot) in &steps {
            let mut frame = Vec::new();
            for o in ops {
                let (name, tuple, tuple_depths) = match o {
                    Op::Insert { rel: true, x, y } => {
                        ("r", vec![Val::Int(*x), Val::Int(*y)], Vec::new())
                    }
                    Op::Insert { rel: false, x, .. } => ("s", vec![Val::Int(*x)], Vec::new()),
                    Op::InsertStr { pick } => {
                        ("t", vec![Val::str(format!("durable-const-{pick}"))], Vec::new())
                    }
                    Op::InsertNull { counter, depth } => {
                        let id = NullId::new(NODE, *counter);
                        nulls_next = nulls_next.max(counter + 1);
                        let e = depths.entry(id).or_insert(*depth);
                        *e = (*e).max(*depth);
                        ("s", vec![Val::Null(id)], vec![(id, *depth)])
                    }
                };
                db.insert_values(name, tuple.clone()).unwrap();
                frame.push(WalRecord::Insert {
                    relation: Arc::from(name),
                    tuple,
                    depths: tuple_depths,
                });
            }
            store.commit(frame).unwrap();
            if *snapshot {
                store
                    .snapshot(&db, nulls_next, depths.clone().into_iter().collect(), |_, _| None)
                    .unwrap();
            }
        }

        let rec = store.recover(NODE).unwrap().expect("initial snapshot exists");
        // Fact identity, including insertion order (watermark semantics).
        prop_assert_eq!(rec.db.all_facts(), db.all_facts());
        prop_assert_eq!(rec.db.watermarks::<Marks>(), db.watermarks());
        prop_assert_eq!(rec.nulls_next, nulls_next);
        let rec_depths: BTreeMap<NullId, u32> = rec.depths.into_iter().collect();
        prop_assert_eq!(rec_depths, depths);
    }
}

/// One step in the life of the subscriptions a peer serves and heads.
#[derive(Debug, Clone)]
enum SubOp {
    /// The cursor of `key` starts from scratch for fragment `part`.
    Start { key: u8, part: u8 },
    /// It advances (a record without the fragment).
    Advance { key: u8, to: usize },
    /// `Unsubscribe`.
    Drop { key: u8 },
    /// An answer of `rule`'s fragment at node `key` is processed.
    Answer { rule: u8, key: u8, mark: usize },
    /// The rule is replaced at its head.
    Forget { rule: u8 },
}

fn sub_op() -> impl Strategy<Value = SubOp> {
    (0..10u8, 0..3u8, 0..2u8, 0..40usize).prop_map(|(sel, key, small, n)| match sel {
        0..=1 => SubOp::Start { key, part: small },
        2..=4 => SubOp::Advance { key, to: n },
        5 => SubOp::Drop { key },
        6..=8 => SubOp::Answer {
            rule: small,
            key,
            mark: n,
        },
        _ => SubOp::Forget { rule: small },
    })
}

/// A backend that hands back every frame ever appended, whatever snapshot
/// was written since: the loosest reading of the contract, and what a crash
/// inside a checkpoint leaves behind.
#[derive(Debug, Default)]
struct KeepsEveryFrame {
    inner: MemoryBackend,
    bytes: Vec<Vec<u8>>,
}

impl StorageBackend for KeepsEveryFrame {
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
        steps in proptest::collection::vec(step(sub_op()), 0..20),
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
        store.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();

        let mut cursors: BTreeMap<(NodeId, u32), CursorMark> = BTreeMap::new();
        let mut marks: BTreeMap<(u32, NodeId), FragmentMark> = BTreeMap::new();
        let marks_of = |n: usize| -> Marks {
            [(Arc::<str>::from("r"), n)].into_iter().collect()
        };
        for (ops, snapshot) in &steps {
            let mut frame = Vec::new();
            for o in ops {
                match *o {
                    SubOp::Start { key, part } => {
                        let key = (NodeId(u32::from(key)), 7);
                        let mark = CursorMark {
                            part: Content::Str(format!("fragment {part}")),
                            ..CursorMark::default()
                        };
                        cursors.insert(key, mark.clone());
                        frame.push(WalRecord::Cursor {
                            subscriber: key.0,
                            rule: key.1,
                            mark: Some(mark),
                        });
                    }
                    SubOp::Advance { key, to } => {
                        let key = (NodeId(u32::from(key)), 7);
                        // The owner advances a cursor it has.
                        let Some(cursor) = cursors.get_mut(&key) else { continue };
                        cursor.watermarks = marks_of(to);
                        cursor.rows = to;
                        frame.push(WalRecord::Cursor {
                            subscriber: key.0,
                            rule: key.1,
                            mark: Some(CursorMark {
                                part: Content::Null,
                                watermarks: marks_of(to),
                                rows: to,
                            }),
                        });
                    }
                    SubOp::Drop { key } => {
                        let key = (NodeId(u32::from(key)), 7);
                        cursors.remove(&key);
                        frame.push(WalRecord::Cursor {
                            subscriber: key.0,
                            rule: key.1,
                            mark: None,
                        });
                    }
                    SubOp::Answer { rule, key, mark } => {
                        let key = (u32::from(rule), NodeId(u32::from(key)));
                        let held = marks.entry(key).or_default();
                        held.watermarks.raise(&Arc::from("r"), mark);
                        frame.push(WalRecord::Answer {
                            session: SessionId::default(),
                            rule: key.0,
                            node: key.1,
                            vars: Arc::default(),
                            rows: Default::default(),
                            watermarks: marks_of(mark),
                        });
                    }
                    SubOp::Forget { rule } => {
                        marks.retain(|(r, _), _| *r != u32::from(rule));
                        frame.push(WalRecord::ForgetRule { rule: u32::from(rule) });
                    }
                }
            }
            store.commit(frame).unwrap();
            if *snapshot {
                store.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
            }
        }
        let rec = store.recover(NODE).unwrap().expect("initial snapshot exists");
        prop_assert_eq!(&rec.cursors, &cursors);
        prop_assert_eq!(&rec.marks, &marks);
        // … and once more through the snapshot a reopened store writes.
        store.adopt(&rec);
        store.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
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

/// Facts as `Database::all_facts` lists them.
type Facts = Vec<(Arc<str>, Vec<Val>)>;

/// One acknowledged frame per entry of `sizes` on top of an empty
/// snapshot, each of that many records: inserts, every third an answer
/// mark. Returns the facts in insertion order and how many stood after
/// each frame.
fn acknowledged_history(
    dir: &std::path::Path,
    codec: Codec,
    sizes: &[usize],
) -> (Facts, Vec<usize>) {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = Database::new(DatabaseSchema::parse("t(x: int, name: str).").unwrap());
    let backend = Box::new(FileBackend::open(dir).unwrap());
    let mut store = PeerStorage::with_codec(backend, 0, codec);
    store.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
    let mut ends = vec![0];
    for (i, size) in sizes.iter().enumerate() {
        let frame = (0..*size as i64)
            .map(|k| {
                let x = 10 * i as i64 + k;
                if k % 3 == 2 {
                    return WalRecord::Answer {
                        session: SessionId::default(),
                        rule: 1,
                        node: NodeId(3),
                        vars: Arc::default(),
                        rows: Default::default(),
                        watermarks: [(Arc::<str>::from("u"), x as usize)].into_iter().collect(),
                    };
                }
                let tuple = vec![Val::Int(x), Val::str(format!("hostile-{x}"))];
                db.insert_values("t", tuple.clone()).unwrap();
                WalRecord::Insert {
                    relation: Arc::from("t"),
                    tuple,
                    depths: Vec::new(),
                }
            })
            .collect();
        store.commit(frame).unwrap();
        ends.push(db.total_tuples());
    }
    (db.all_facts(), ends)
}

/// A well-framed payload `shape` picks: 0 the garbage itself; 1 a frame of
/// the one-record-per-frame layout; 2 a frame holding a record of that
/// layout; 3 a frame without records; 4 a frame cut short at `at`.
fn framed_payload(shape: u8, garbage: &[u8], at: usize, binary: bool) -> Vec<u8> {
    let encode = |doc: &Content| match binary {
        true => binpack::to_bytes(doc).unwrap(),
        false => serde_json::to_string(doc).unwrap().into_bytes(),
    };
    let earlier = || {
        let name = Val::str("earlier-layout");
        let insert = WalRecord::Insert {
            relation: Arc::from("t"),
            tuple: vec![Val::Int(1), name],
            depths: Vec::new(),
        };
        let Content::Map(mut record) = insert.to_content().unwrap() else {
            unreachable!("a record is a map")
        };
        let dict = vec![(name.as_sym().unwrap(), Arc::<str>::from("earlier-layout"))];
        if let (_, Content::Map(body)) = &mut record[0] {
            body.push(("dict".into(), dict.to_content().unwrap()));
        }
        Content::Map(record)
    };
    let batch =
        |records: Vec<Content>| Content::Map(vec![("records".into(), Content::Seq(records))]);
    match shape {
        0 if binary => garbage.to_vec(),
        0 => garbage.iter().map(|b| b % 0x5f + 0x20).collect(),
        1 => encode(&earlier()),
        2 => encode(&batch(vec![earlier()])),
        3 => encode(&batch(Vec::new())),
        _ => {
            let frame = WalFrame {
                dict: Vec::new(),
                records: vec![
                    WalRecord::ForgetRule { rule: 1 },
                    WalRecord::ForgetRule { rule: 2 },
                ],
            };
            let mut whole = encode(&frame.to_content().unwrap());
            whole.truncate(at % whole.len());
            whole
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes in the WAL and snapshot files: a typed error or a
    /// prefix of the acknowledged writes.
    #[test]
    fn hostile_files_give_a_typed_error_or_an_acknowledged_prefix(
        damage in damage(),
        binary in any::<bool>(),
        sizes in proptest::collection::vec(1..7usize, 1..5),
    ) {
        let codec = if binary { Codec::Binary } else { Codec::Json };
        let dir = scratch_dir(&format!("files_{codec}"));
        let (facts, ends) = acknowledged_history(&dir, codec, &sizes);
        let name = if damage.snapshot { "snapshot-1.bin" } else { "wal-1.bin" };
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
                    ends.contains(&got.len()) && got[..] == facts[..got.len()],
                    "recovered {:?}, which is no prefix of the acknowledged frames", got
                );
            }
            Ok(None) => prop_assert!(false, "a log without its snapshot read as an empty store"),
            Err(_) => {}
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary payloads under valid framing — what a bug in a writer, or
    /// another program's file, would leave — and frames of the earlier
    /// layout, without records, or cut short: the checksums pass, the
    /// decoders must still answer with a typed error.
    #[test]
    fn well_framed_garbage_is_a_typed_error(
        frame in proptest::collection::vec(any::<u8>(), 0..64),
        shape in 0..5u8,
        at in 0..4096usize,
        in_snapshot in any::<bool>(),
        binary in any::<bool>(),
    ) {
        let codec = if binary { Codec::Binary } else { Codec::Json };
        let dir = scratch_dir(&format!("framed_{codec}"));
        acknowledged_history(&dir, codec, &[2, 3]);
        let mut backend = FileBackend::open(&dir).unwrap();
        let payload = framed_payload(shape, &frame, at, binary);
        match in_snapshot {
            true => backend.write_snapshot_bytes(&payload).unwrap(),
            false => backend.append_wal_bytes(&payload).unwrap(),
        }
        drop(backend);
        let backend = FileBackend::open(&dir).unwrap();
        let recovered = PeerStorage::with_codec(Box::new(backend), 0, codec).recover(0);
        prop_assert!(
            matches!(recovered, Err(StorageError::Corrupt(_))),
            "shape {} decoded: {:?}", shape, payload
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
