//! One delivery, one frame. A head that joins two fragments records, for
//! every answer it processes, the insertions the answer derives and the
//! answer's mark — rows and watermarks, which a restart trusts: primed rows
//! count as joined already — and the delivery writes them as one frame. So
//! wherever the log is cut — at any byte of a `FileBackend` log, and between
//! any two frames whatever checkpoints fell among them — recovery gives the
//! state after some number of whole deliveries, and every binding the
//! recovered marks' rows join to is in the recovered database. No
//! checkpoint falls inside a delivery.

use p2p_core::messages::{Answer, AnswerRows, Via};
use p2p_core::peer::DbPeer;
use p2p_core::{CoordinationRule, ProtocolMsg, SystemConfig};
use p2p_net::{Context, Peer, SessionId, SimTime};
use p2p_relational::query::Idents;
use p2p_relational::{Database, DatabaseSchema, RowSet, Val};
use p2p_storage::{
    FileBackend, MemoryBackend, PeerStorage, RecoveredState, StorageBackend, StorageResult,
};
use p2p_topology::NodeId;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const HEAD: NodeId = NodeId(0);
const B: NodeId = NodeId(1);
const C: NodeId = NodeId(2);

fn rule() -> CoordinationRule {
    let resolve = |s: &str| match s {
        "A" => Some(HEAD),
        "B" => Some(B),
        "C" => Some(C),
        _ => None,
    };
    CoordinationRule::parse(
        "r",
        "B:b(X,Y), C:c(Y,Z) => A:a(X,Z)",
        None,
        &resolve,
        &mut Idents::new(),
    )
    .unwrap()
}

/// The head of `B:b(X,Y), C:c(Y,Z) => A:a(X,Z)` on `storage`, with `pad`
/// unrelated facts logged first (they move where a checkpoint falls).
fn head(storage: PeerStorage, pad: i64) -> DbPeer {
    let schema = DatabaseSchema::parse("a(x: int, z: int). pad(x: int).").unwrap();
    let config = SystemConfig {
        durability: true,
        ..Default::default()
    };
    let mut peer = DbPeer::new(HEAD, Database::new(schema), config);
    peer.install_rule(rule());
    peer.attach_storage(storage).unwrap();
    for x in 0..pad {
        peer.insert_base_fact("pad", vec![Val::Int(x)]).unwrap();
    }
    peer
}

/// Two sessions as the head sees them: the flood, then one answer from
/// each body node, every one deriving something. Session 2's rows join
/// session 1's. `delivered` sees the head after each delivery.
fn two_sessions(peer: &mut DbPeer, mut delivered: impl FnMut(&DbPeer)) {
    let rule = rule();
    let answers = [
        (1, B, [1, 2], 1),
        (1, C, [2, 3], 1),
        (2, B, [5, 2], 2),
        (2, C, [2, 4], 2),
    ];
    let mut flooded = 0;
    for (epoch, from, row, watermark) in answers {
        let session = SessionId::new(B, epoch);
        let mut ctx = Context::new(SimTime::ZERO, HEAD);
        if flooded < epoch {
            flooded = epoch;
            peer.on_message(B, ProtocolMsg::UpdateFlood { session }, &mut ctx);
            delivered(peer);
        }
        let part = rule.parts.iter().find(|p| p.node == from).unwrap();
        let relation = part.atoms[0].relation.clone();
        let rows = AnswerRows {
            vars: part.vars.clone(),
            rows: RowSet::from_flat(2, 1, row.map(Val::Int).to_vec()),
            marks: [(relation, watermark)].into_iter().collect(),
            ..Default::default()
        };
        let answer = Answer::new(session, rule.id, rows, Via::Session);
        peer.on_message(from, ProtocolMsg::Answer(answer), &mut ctx);
        delivered(peer);
    }
    assert!(peer.errors().is_empty(), "{:?}", peer.errors());
    assert_eq!(peer.database().relation("a").unwrap().len(), 4);
}

fn ints(row: &[Val]) -> (i64, i64) {
    match row {
        [Val::Int(x), Val::Int(y)] => (*x, *y),
        _ => panic!("two integers, not {row:?}"),
    }
}

/// Every `(x, z)` the recovered marks' rows join to is a recovered `a`
/// fact; returns how many there are.
fn marks_are_covered(rec: &RecoveredState, what: &str) -> usize {
    let rule = rule();
    let rows = |node| {
        (rec.marks.get(&(rule.id.0, node)).into_iter())
            .flat_map(|mark| mark.rows.iter().map(ints))
            .collect::<Vec<_>>()
    };
    let a = rec.db.relation("a").unwrap();
    let stored: BTreeSet<(i64, i64)> = a.iter().map(ints).collect();
    let mut joined = 0;
    for (x, y) in rows(B) {
        for (y2, z) in rows(C) {
            if y == y2 {
                joined += 1;
                assert!(
                    stored.contains(&(x, z)),
                    "{what}: the marks hold b({x},{y}) and c({y},{z}), the database no a({x},{z})"
                );
            }
        }
    }
    joined
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("p2p_core_crash_{tag}_{}", std::process::id()))
}

fn open(dir: &Path) -> PeerStorage {
    PeerStorage::new(Box::new(FileBackend::open(dir).unwrap()), 0)
}

#[test]
fn log_cut_at_any_byte_recovers_no_mark_ahead_of_the_database() {
    let (golden, scratch) = (temp_dir("golden"), temp_dir("scratch"));
    let _ = std::fs::remove_dir_all(&golden);
    two_sessions(&mut head(open(&golden), 0), |_| {});
    let snapshot = std::fs::read(golden.join("snapshot-1.bin")).unwrap();
    let log = std::fs::read(golden.join("wal-1.bin")).unwrap();

    let mut most = 0;
    for cut in 0..=log.len() {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join("snapshot-1.bin"), &snapshot).unwrap();
        std::fs::write(scratch.join("wal-1.bin"), &log[..cut]).unwrap();
        let rec = open(&scratch).recover(HEAD.0).unwrap().unwrap();
        most = most.max(marks_are_covered(&rec, &format!("log cut at {cut}")));
    }
    assert_eq!(most, 4, "the whole log holds both sessions");
    std::fs::remove_dir_all(&golden).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

/// A log cut at any byte recovers exactly the database the head held after
/// some whole number of deliveries — the number whose frames the cut left
/// whole — never part of one.
#[test]
fn log_cut_at_any_byte_recovers_whole_deliveries() {
    let (golden, scratch) = (temp_dir("whole_golden"), temp_dir("whole_scratch"));
    let _ = std::fs::remove_dir_all(&golden);
    let log_len = || std::fs::metadata(golden.join("wal-1.bin")).map_or(0, |m| m.len());
    let mut after = vec![(0, Vec::new())];
    let mut peer = head(open(&golden), 0);
    two_sessions(&mut peer, |peer| {
        after.push((log_len(), peer.database().all_facts()));
    });
    let snapshot = std::fs::read(golden.join("snapshot-1.bin")).unwrap();
    let log = std::fs::read(golden.join("wal-1.bin")).unwrap();
    assert!(
        after.windows(2).filter(|w| w[1].0 > w[0].0).count() == 4,
        "the four answers logged a frame each, the floods none"
    );

    for cut in 0..=log.len() {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join("snapshot-1.bin"), &snapshot).unwrap();
        std::fs::write(scratch.join("wal-1.bin"), &log[..cut]).unwrap();
        let rec = open(&scratch).recover(HEAD.0).unwrap().unwrap();
        let whole = after
            .iter()
            .rposition(|(len, _)| *len <= cut as u64)
            .unwrap();
        assert_eq!(rec.db.all_facts(), after[whole].1, "log cut at {cut}");
    }
    std::fs::remove_dir_all(&golden).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

/// What a store holds: the newest snapshot and the frames since.
type Held = (Option<Vec<u8>>, Vec<Vec<u8>>);

/// Everything a store held after each write it took.
#[derive(Debug, Clone, Default)]
struct Recording {
    now: Arc<Mutex<Held>>,
    history: Arc<Mutex<Vec<Held>>>,
}

impl Recording {
    fn write(&self, f: impl FnOnce(&mut Held)) -> StorageResult<()> {
        let mut now = self.now.lock().unwrap();
        f(&mut now);
        self.history.lock().unwrap().push(now.clone());
        Ok(())
    }
}

impl StorageBackend for Recording {
    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
        self.write(|(_, frames)| frames.push(frame.to_vec()))
    }
    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
        Ok(self.now.lock().unwrap().1.clone())
    }
    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        self.write(|now| *now = (Some(snapshot.to_vec()), Vec::new()))
    }
    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.now.lock().unwrap().0.clone())
    }
}

/// With a checkpoint due after every record once the log outweighs the
/// last snapshot, and the padding moving where that is: checkpoints follow
/// answers' frames in some runs, none falls between an answer's insertions
/// and its mark, and no state the store ever held — after any frame, after
/// any checkpoint — recovers a mark ahead of the database.
#[test]
fn checkpoint_between_any_two_frames_holds_no_mark_ahead_of_the_database() {
    let (mut checkpoints_after_an_answer, mut checkpoints_inside_an_answer) = (0, 0);
    for pad in 0..12 {
        let disk = Recording::default();
        let storage = PeerStorage::new(Box::new(disk.clone()), 1);
        two_sessions(&mut head(storage, pad), |_| {});
        let history = disk.history.lock().unwrap().clone();
        let mut last_frame = String::new();
        for (i, (snapshot, frames)) in history.iter().enumerate() {
            let mut backend = MemoryBackend::default();
            backend
                .write_snapshot_bytes(snapshot.as_ref().unwrap())
                .unwrap();
            for frame in frames {
                backend.append_wal_bytes(frame).unwrap();
            }
            let rec = PeerStorage::new(Box::new(backend), 0)
                .recover(HEAD.0)
                .unwrap()
                .unwrap();
            marks_are_covered(&rec, &format!("pad {pad}, state {i}"));
            // A checkpoint right behind an insertion into `a`: behind an
            // answer's frame, or — were its mark in a later frame — inside
            // the answer.
            if frames.is_empty() && last_frame.contains("\"relation\":\"a\"") {
                checkpoints_after_an_answer += 1;
                if !last_frame.contains("\"Answer\"") {
                    checkpoints_inside_an_answer += 1;
                }
            }
            // The store's codec is JSON: a frame is its text.
            last_frame = (frames.last())
                .map(|f| String::from_utf8(f.clone()).unwrap())
                .unwrap_or_default();
        }
    }
    assert!(
        checkpoints_after_an_answer > 0,
        "the padding never put a checkpoint behind an answer"
    );
    assert_eq!(
        checkpoints_inside_an_answer, 0,
        "a checkpoint fell between an insertion and its mark"
    );
}

/// A head application that fails part-way keeps the facts it inserted
/// before the failure, in memory and in the log alike:
/// `B:b(X,S) => A:a(X), A:n(S)` given the row `(1, 's')` inserts `a(1)`,
/// then refuses a symbol for `n`'s integer column. The store recovers the
/// database the peer holds, and the peer counts the fact it inserted.
#[test]
fn a_head_that_fails_part_way_logs_the_facts_it_inserted() {
    let resolve = |s: &str| match s {
        "A" => Some(HEAD),
        "B" => Some(B),
        _ => None,
    };
    let rule = CoordinationRule::parse(
        "r",
        "B:b(X,S) => A:a(X), A:n(S)",
        None,
        &resolve,
        &mut Idents::new(),
    )
    .unwrap();
    let schema = DatabaseSchema::parse("a(x: int). n(v: int).").unwrap();
    let config = SystemConfig {
        durability: true,
        ..Default::default()
    };
    let mut peer = DbPeer::new(HEAD, Database::new(schema), config);
    peer.install_rule(rule.clone());
    let disk = Recording::default();
    peer.attach_storage(PeerStorage::new(Box::new(disk.clone()), 0))
        .unwrap();

    let session = SessionId::new(B, 1);
    let mut ctx = Context::new(SimTime::ZERO, HEAD);
    peer.on_message(B, ProtocolMsg::UpdateFlood { session }, &mut ctx);
    let part = &rule.parts[0];
    let rows = AnswerRows {
        vars: part.vars.clone(),
        rows: RowSet::from_flat(2, 1, vec![Val::Int(1), Val::str("s")]),
        marks: [(part.atoms[0].relation.clone(), 1)].into_iter().collect(),
        ..Default::default()
    };
    let answer = Answer::new(session, rule.id, rows, Via::Session);
    peer.on_message(B, ProtocolMsg::Answer(answer), &mut ctx);

    assert!(
        peer.errors().iter().any(|e| e.contains("type mismatch")),
        "{:?}",
        peer.errors()
    );
    let live = peer.database().all_facts();
    assert_eq!(live, [(Arc::from("a"), vec![Val::Int(1)])]);
    assert_eq!(peer.stats().tuples_inserted, 1);

    let (snapshot, frames) = disk.now.lock().unwrap().clone();
    let mut backend = MemoryBackend::default();
    backend.write_snapshot_bytes(&snapshot.unwrap()).unwrap();
    for frame in &frames {
        backend.append_wal_bytes(frame).unwrap();
    }
    let rec = (PeerStorage::new(Box::new(backend), 0).recover(HEAD.0))
        .unwrap()
        .unwrap();
    assert_eq!(
        rec.db.all_facts(),
        live,
        "the store recovers what the peer holds"
    );
}
