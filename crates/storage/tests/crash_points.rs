//! Kill at every byte offset: a real `FileBackend` directory, cut where a
//! process could have died — inside each of the last three WAL frames, and
//! inside a snapshot being written — always recovers to a prefix of the
//! acknowledged writes, whole frames of several records each, and the store
//! accepts commits and checkpoints afterwards. Both codecs.

use p2p_net::{Codec, SessionId};
use p2p_relational::{Database, DatabaseSchema, Val};
use p2p_storage::{CursorMark, FileBackend, FragmentMark, MemoryBackend, PeerStorage, WalRecord};
use p2p_topology::NodeId;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const NODE: u32 = 2;
const WRITES: usize = 8;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("p2p_storage_crash_{tag}_{}", std::process::id()))
}

fn open(dir: &Path, codec: Codec) -> PeerStorage {
    PeerStorage::with_codec(Box::new(FileBackend::open(dir).unwrap()), 0, codec)
}

/// The `r`-th record of the history: facts with strings (so frames carry
/// dictionaries), every fourth record an answer mark instead, and every
/// fourth a cursor of one subscription — started with its fragment, then
/// advanced without it.
fn record(db: &mut Database, r: usize) -> WalRecord {
    if r % 4 == 3 {
        WalRecord::Cursor {
            subscriber: NodeId(7),
            rule: 1,
            mark: Some(CursorMark {
                part: match r {
                    3 => serde::Content::Str("the fragment".into()),
                    _ => serde::Content::Null,
                },
                watermarks: [(Arc::<str>::from("r"), r)].into_iter().collect(),
                rows: r,
            }),
        }
    } else if r % 4 == 2 {
        WalRecord::Answer {
            session: SessionId::new(NodeId(0), r as u64),
            rule: 1,
            node: NodeId(5),
            vars: Arc::default(),
            rows: Default::default(),
            watermarks: [(Arc::<str>::from("r"), r)].into_iter().collect(),
        }
    } else {
        let tuple = vec![Val::Int(r as i64), Val::str(format!("crash-{r}"))];
        db.insert_values("r", tuple.clone()).unwrap();
        WalRecord::Insert {
            relation: Arc::from("r"),
            tuple,
            depths: Vec::new(),
        }
    }
}

/// The `i`-th write of the history: one frame of one to three records.
fn write(st: &mut PeerStorage, db: &mut Database, i: usize) {
    let first: usize = (0..i).map(|j| 1 + j % 3).sum();
    let batch = (first..=first + i % 3).map(|r| record(db, r)).collect();
    st.commit(batch).unwrap();
}

/// What recovery must report after the first `k` writes.
type Expected = (
    Database,
    BTreeMap<(u32, NodeId), FragmentMark>,
    BTreeMap<(NodeId, u32), CursorMark>,
);

fn expected(k: usize) -> Expected {
    let mut db = Database::new(schema());
    let mut st = PeerStorage::new(Box::<MemoryBackend>::default(), 0);
    st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
    for i in 0..k {
        write(&mut st, &mut db, i);
    }
    let rec = st.recover(NODE).unwrap().unwrap();
    (db, rec.marks, rec.cursors)
}

fn schema() -> DatabaseSchema {
    DatabaseSchema::parse("r(x: int, name: str).").unwrap()
}

fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn restore(dir: &Path, files: &[(String, Vec<u8>)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Recovers `dir`, checks it against the first `k` writes, then makes the
/// next write and a checkpoint and checks again — through a reopen each.
fn recovers_to_and_carries_on(
    dir: &Path,
    codec: Codec,
    k: usize,
    expected: &[Expected],
    what: &str,
) {
    let (mut db, marks, cursors) = expected[k].clone();
    let mut st = open(dir, codec);
    let rec = st.recover(NODE).unwrap().expect("the first snapshot");
    assert_eq!(rec.db.all_facts(), db.all_facts(), "{what}");
    assert_eq!(rec.marks, marks, "{what}");
    assert_eq!(rec.cursors, cursors, "{what}");
    st.adopt(&rec);

    write(&mut st, &mut db, k);
    let rec = open(dir, codec).recover(NODE).unwrap().unwrap();
    assert_eq!(rec.db.all_facts(), db.all_facts(), "{what}, appended");
    assert_eq!(rec.marks, expected[k + 1].1, "{what}, appended");
    assert_eq!(rec.cursors, expected[k + 1].2, "{what}, appended");

    // The checkpoint drops the cursor's frames and keeps the cursor, with
    // its fragment, for the frame after it to move.
    st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
    write(&mut st, &mut db, k + 1);
    let rec = open(dir, codec).recover(NODE).unwrap().unwrap();
    assert_eq!(rec.db.all_facts(), db.all_facts(), "{what}, checkpointed");
    assert_eq!(rec.marks, expected[k + 2].1, "{what}, checkpointed");
    assert_eq!(rec.cursors, expected[k + 2].2, "{what}, checkpointed");
}

#[test]
fn kill_at_every_byte_offset_recovers_a_prefix_and_carries_on() {
    let expected: Vec<Expected> = (0..=WRITES + 2).map(expected).collect();
    for codec in [Codec::Json, Codec::Binary] {
        let golden = temp_dir(&format!("golden_{codec}"));
        let scratch = temp_dir(&format!("scratch_{codec}"));
        let _ = std::fs::remove_dir_all(&golden);
        // One file family, whichever codec encodes the payloads.
        let (snapshot, log) = ("snapshot-1.bin", "wal-1.bin");

        // The acknowledged history, and the log's length after each write.
        let mut db = Database::new(schema());
        let mut st = open(&golden, codec);
        st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
        let mut acked = vec![0usize];
        for i in 0..WRITES {
            write(&mut st, &mut db, i);
            acked.push(std::fs::metadata(golden.join(log)).unwrap().len() as usize);
        }
        let before = files(&golden);
        assert_eq!(
            before.iter().map(|(n, _)| &n[..]).collect::<Vec<_>>(),
            [snapshot, log]
        );

        // Die inside each of the last three writes' frames.
        for cut in acked[WRITES - 3]..=acked[WRITES] {
            let mut files = before.clone();
            files[1].1.truncate(cut);
            restore(&scratch, &files);
            let k = acked.iter().rposition(|len| *len <= cut).unwrap();
            let what = format!("{codec} log cut at {cut}");
            recovers_to_and_carries_on(&scratch, codec, k, &expected, &what);
        }

        // Die inside the checkpoint: the next snapshot at every length up
        // to complete, the generation it replaces still in place.
        st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
        let after = files(&golden);
        assert_eq!(after.len(), 1, "the checkpoint dropped generation 1");
        let (next_name, next_bytes) = &after[0];
        for cut in 0..=next_bytes.len() {
            let mut files = before.clone();
            files.push((next_name.clone(), next_bytes[..cut].to_vec()));
            restore(&scratch, &files);
            let what = format!("{codec} snapshot cut at {cut} of {}", next_bytes.len());
            recovers_to_and_carries_on(&scratch, codec, WRITES, &expected, &what);
        }
        std::fs::remove_dir_all(&golden).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
