//! The per-peer store: one WAL frame per commit, checkpoint cadence, and
//! recovery.

use crate::backend::StorageBackend;
use crate::wal::{WalFrame, WalRecord};
use crate::{StorageError, StorageResult};
use p2p_net::{Codec, SessionId};
use p2p_relational::query::Marks;
use p2p_relational::value::NullId;
use p2p_relational::{ConstCatalog, Database, RowSet, SymId, SymRemap, Val};
use p2p_topology::NodeId;
use serde::{Content, Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// A point-in-time image of a peer's durable state: the database, the
/// chase bookkeeping, the answer log folded to one mark per fragment and
/// the cursor log folded to one cursor per subscription served.
/// Writing one is a **checkpoint** — the backend drops the WAL frames it
/// covers — so a snapshot must hold everything those frames said.
/// `catalog` carries the `(SymId, string)` definition of every interned
/// constant in `db` and `marks`, so the snapshot is self-contained: a
/// reader process with a different catalog re-interns and remaps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatabaseSnapshot {
    /// The null factory's next counter at snapshot time.
    pub nulls_next: u64,
    /// Chase depths of every null known to the peer.
    pub depths: Vec<(NullId, u32)>,
    /// Symbol definitions for every interned constant in `db` and `marks`.
    #[serde(default)]
    pub catalog: Vec<(SymId, Arc<str>)>,
    /// The folded answer log: one mark per `(raw rule id, answering peer)`.
    #[serde(default)]
    pub marks: Vec<(u32, NodeId, FragmentMark)>,
    /// The folded cursor log: one cursor per `(subscriber, raw rule id)`,
    /// each with its fragment.
    #[serde(default)]
    pub cursors: Vec<(NodeId, u32, CursorMark)>,
    /// The newest session any folded answer belonged to.
    #[serde(default)]
    pub last_session: SessionId,
    /// The full local database.
    pub db: Database,
}

/// The durable knowledge about one `(rule, answering peer)` fragment:
/// accumulated rows (head-side cache rebuild, only where the owner retains
/// them — rules with more than one body node) and the answerer's newest
/// watermarks among the processed answers (the resync cursor). A snapshot
/// takes the rows from the owner, a recovery folds them from the snapshot
/// and the frames after it. Encoded as it was when `rows` was a list of
/// tuples, byte for byte.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FragmentMark {
    /// Column variables of `rows`.
    pub vars: Arc<[Arc<str>]>,
    /// Accumulated fragment rows over `vars`, deduplicated, in
    /// first-arrival order.
    pub rows: RowSet,
    /// Per relation, the highest watermark any processed answer carried.
    pub watermarks: Marks,
}

/// The durable knowledge about the body side of one subscription: how much
/// of one rule fragment one subscriber holds of this peer's data.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CursorMark {
    /// The fragment the cursor is for, as its owner serialized it — opaque
    /// here, like the raw rule id. `Null` only inside a
    /// [`WalRecord::Cursor`]: the fragment the key already has.
    #[serde(default, skip_serializing_if = "Content::is_null")]
    pub part: Content,
    /// Per relation of the fragment, the watermark below which the
    /// subscriber holds every row this peer's facts derive.
    pub watermarks: Marks,
    /// Rows shipped on the subscription so far (a statistic).
    pub rows: usize,
}

/// Everything [`PeerStorage::recover`] rebuilds.
#[derive(Debug, Clone)]
pub struct RecoveredState {
    /// The database, tuple-identical to the pre-crash one.
    pub db: Database,
    /// Where the null factory must resume so no id is ever re-minted.
    pub nulls_next: u64,
    /// Recovered chase depths.
    pub depths: Vec<(NullId, u32)>,
    /// Per-`(raw rule id, answering peer)` fragment marks, whatever
    /// sessions carried the answers.
    pub marks: BTreeMap<(u32, NodeId), FragmentMark>,
    /// Per-`(subscriber, raw rule id)` cursors of the subscriptions this
    /// peer serves, each as its newest record left it.
    pub cursors: BTreeMap<(NodeId, u32), CursorMark>,
    /// The newest session any logged answer belonged to (the default id
    /// when none was).
    pub last_session: SessionId,
}

/// What a fold keeps of one fragment's answers: the running store the
/// newest watermarks only — the rows are their owner's, who hands them to
/// [`PeerStorage::snapshot`] — and a recovery the rows too
/// ([`FragmentMark`]), which a restart primes the owner with.
trait Mark: Default {
    /// The newest watermarks.
    fn newest(&mut self) -> &mut Marks;
    /// Folds an answer's rows in, through the recovery remap.
    fn add_rows(
        &mut self,
        vars: &Arc<[Arc<str>]>,
        rows: &RowSet,
        map: &SymRemap,
    ) -> StorageResult<()>;
}

/// Per relation, the highest watermark an answer carried.
impl Mark for Marks {
    fn newest(&mut self) -> &mut Marks {
        self
    }
    fn add_rows(&mut self, _: &Arc<[Arc<str>]>, _: &RowSet, _: &SymRemap) -> StorageResult<()> {
        Ok(())
    }
}

impl Mark for FragmentMark {
    fn newest(&mut self) -> &mut Marks {
        &mut self.watermarks
    }
    /// Rows not as wide as the mark's are corrupt.
    fn add_rows(
        &mut self,
        vars: &Arc<[Arc<str>]>,
        rows: &RowSet,
        map: &SymRemap,
    ) -> StorageResult<()> {
        if self.vars.is_empty() {
            self.vars = Arc::clone(vars);
        }
        if self.rows.is_empty() {
            self.rows = RowSet::new(self.vars.len());
        }
        if !rows.is_empty() && rows.arity() != self.rows.arity() {
            return Err(StorageError::Corrupt(format!(
                "answer rows of {} values for a mark of {}",
                rows.arity(),
                self.rows.arity()
            )));
        }
        let mut buf = Vec::new();
        for row in rows.iter() {
            self.rows.insert(remap_row(map, row, &mut buf));
        }
        Ok(())
    }
}

/// The answer and cursor logs folded as they are written (with
/// [`Marks`]: what only the log knows) or replayed (with
/// [`FragmentMark`]s). Folding is idempotent — rows deduplicate in each
/// mark's [`RowSet`], watermarks merge by per-relation maximum; cursors and
/// forgotten rules are last-writer-wins — so frames a snapshot already
/// covers may be folded again, in order (see [`crate::wal`]).
#[derive(Debug, Default)]
struct LogFold<M> {
    marks: BTreeMap<(u32, NodeId), M>,
    cursors: BTreeMap<(NodeId, u32), CursorMark>,
    last_session: SessionId,
}

impl<M: Mark> LogFold<M> {
    /// Folds one record (an `Insert` says nothing here).
    fn fold(&mut self, record: &WalRecord, remap: &SymRemap) -> StorageResult<()> {
        match record {
            WalRecord::Insert { .. } => {}
            WalRecord::Answer {
                session,
                rule,
                node,
                vars,
                rows,
                watermarks,
            } => {
                let mark = self.marks.entry((*rule, *node)).or_default();
                mark.add_rows(vars, rows, remap)?;
                for (relation, w) in watermarks {
                    mark.newest().raise(relation, w);
                }
                self.last_session = self.last_session.max(*session);
            }
            WalRecord::Cursor {
                subscriber,
                rule,
                mark,
            } => match mark {
                None => {
                    self.cursors.remove(&(*subscriber, *rule));
                }
                Some(mark) if !mark.part.is_null() => {
                    self.cursors.insert((*subscriber, *rule), mark.clone());
                }
                // A key this fold does not know: a frame older than the
                // snapshot that dropped it, and the frames up to that
                // snapshot follow.
                Some(mark) => {
                    if let Some(cursor) = self.cursors.get_mut(&(*subscriber, *rule)) {
                        cursor.watermarks = mark.watermarks.clone();
                        cursor.rows = mark.rows;
                    }
                }
            },
            WalRecord::ForgetRule { rule } => self.marks.retain(|(r, _), _| r != rule),
        }
        Ok(())
    }
}

/// What an owner holds of one fragment, for a checkpoint: its columns and
/// its rows (`None`: nothing, as for a rule with one body node).
pub(crate) type Held<'h> = Option<(&'h Arc<[Arc<str>]>, &'h RowSet)>;

/// A peer's durable store: commits WAL records a frame at a time, says when
/// a checkpoint is due, and recovers the pre-crash state.
#[derive(Debug)]
pub struct PeerStorage {
    backend: Box<dyn StorageBackend>,
    /// How this store encodes the payload of every frame and snapshot.
    codec: Codec,
    /// WAL records between automatic snapshots (0 = only explicit ones).
    snapshot_every: u64,
    /// Records and frame bytes logged since the last snapshot, and that
    /// snapshot's size: what the cadence weighs.
    since_snapshot: u64,
    bytes_since_snapshot: u64,
    snapshot_bytes: u64,
    /// Symbols whose `(id, string)` definition the newest snapshot or a
    /// frame after it carries — the first-use filter for WAL dictionaries.
    persisted_syms: HashSet<SymId>,
    folded: LogFold<Marks>,
}

impl PeerStorage {
    /// Wraps a backend with JSON payloads. `snapshot_every` is the number
    /// of WAL records between automatic snapshots (0 disables the cadence;
    /// the initial snapshot is always written explicitly by the owner).
    pub fn new(backend: Box<dyn StorageBackend>, snapshot_every: u64) -> Self {
        Self::with_codec(backend, snapshot_every, Codec::Json)
    }

    /// Wraps a backend with an explicit payload codec: frames and snapshots
    /// are JSON text (`Json`) or [`binpack`] (`Binary`), framed alike by
    /// the backend. Reads nothing: what the backend holds is seen by
    /// [`PeerStorage::recover`], which reports its errors — a store written
    /// under the other codec is [`StorageError::Corrupt`].
    pub fn with_codec(backend: Box<dyn StorageBackend>, snapshot_every: u64, codec: Codec) -> Self {
        PeerStorage {
            backend,
            codec,
            snapshot_every,
            since_snapshot: 0,
            bytes_since_snapshot: 0,
            snapshot_bytes: 0,
            persisted_syms: HashSet::new(),
            folded: LogFold::default(),
        }
    }

    /// Whether what this store holds — its newest snapshot and the frames
    /// after it — has an answer mark for `rule`: only then does forgetting
    /// the rule need a [`WalRecord::ForgetRule`].
    pub fn has_marks(&self, rule: u32) -> bool {
        self.folded.marks.keys().any(|(r, _)| *r == rule)
    }

    /// The first-use dictionary for a set of values: `(id, string)` pairs
    /// for every symbol among `vals` that this store has not yet persisted,
    /// which are thereby marked persisted.
    fn first_use_dict<'a>(
        &mut self,
        vals: impl IntoIterator<Item = &'a Val>,
    ) -> Vec<(SymId, Arc<str>)> {
        let fresh: Vec<SymId> = vals
            .into_iter()
            .filter_map(Val::as_sym)
            .filter(|id| self.persisted_syms.insert(*id))
            .collect();
        ConstCatalog::global().export(fresh)
    }

    /// Writes one delivery's records, in order, as one frame with the
    /// first-use dictionary of their rows' symbols; nothing when there are
    /// none. Returns `true` when a checkpoint is due, for the owner (who
    /// holds the database) to take with [`PeerStorage::snapshot`]: after
    /// `snapshot_every` records **and** the last snapshot's bytes of frames,
    /// so rewriting the state is paid for by as much log as it replaces and
    /// what is written, held and replayed stays within a constant factor of
    /// the state. A failed append un-marks the frame's symbols, so a later
    /// frame ships their definitions again.
    pub fn commit(&mut self, records: Vec<WalRecord>) -> StorageResult<bool> {
        if records.is_empty() {
            return Ok(false);
        }
        let dict = self.first_use_dict(records.iter().flat_map(WalRecord::values));
        let frame = WalFrame { dict, records };
        let appended = (frame.encode(self.codec))
            .and_then(|bytes| self.backend.append_wal_bytes(&bytes).map(|()| bytes.len()));
        let len = match appended {
            Ok(len) => len,
            Err(e) => {
                for (id, _) in &frame.dict {
                    self.persisted_syms.remove(id);
                }
                return Err(e);
            }
        };
        for record in &frame.records {
            self.folded.fold(record, &SymRemap::default())?;
        }
        self.since_snapshot += frame.records.len() as u64;
        self.bytes_since_snapshot += len as u64;
        Ok(self.snapshot_every > 0
            && self.since_snapshot >= self.snapshot_every
            && self.bytes_since_snapshot >= self.snapshot_bytes)
    }

    /// Checkpoints: writes a snapshot of the current database, the chase
    /// bookkeeping, the folded answer and cursor logs — each mark with the
    /// columns and rows the owner holds of its fragment (`held`; `None`:
    /// none, as for a rule with one body node) — and the symbol dictionary
    /// that makes it self-contained; the backend then drops the frames it
    /// covers. A failed write leaves the store as it was — no symbol counts
    /// as persisted on the strength of an unwritten snapshot.
    pub fn snapshot<'h>(
        &mut self,
        db: &Database,
        nulls_next: u64,
        depths: Vec<(NullId, u32)>,
        held: impl Fn(u32, NodeId) -> Held<'h>,
    ) -> StorageResult<()> {
        // A database clone shares its relations; a mark's rows are copied
        // into the snapshot, and dropped with it once written.
        let marks: Vec<(u32, NodeId, FragmentMark)> = (self.folded.marks.iter())
            .map(|(&(rule, node), watermarks)| {
                let mut mark = FragmentMark::default();
                if let Some((vars, rows)) = held(rule, node) {
                    (mark.vars, mark.rows) = (Arc::clone(vars), rows.clone());
                }
                mark.watermarks = watermarks.clone();
                (rule, node, mark)
            })
            .collect();
        let mut syms = db.syms();
        syms.extend(marks.iter().flat_map(|(_, _, mark)| mark.rows.syms()));
        let snap = DatabaseSnapshot {
            nulls_next,
            depths,
            catalog: ConstCatalog::global().export(syms),
            marks,
            cursors: (self.folded.cursors.iter())
                .map(|((subscriber, rule), cursor)| (*subscriber, *rule, cursor.clone()))
                .collect(),
            last_session: self.folded.last_session,
            db: db.clone(),
        };
        let bytes = crate::encode(self.codec, &snap, "snapshot")?;
        self.backend.write_snapshot_bytes(&bytes)?;
        // The dictionaries of the dropped frames went with them: what is
        // persisted now is exactly what this snapshot defines.
        self.persisted_syms = snap.catalog.iter().map(|(id, _)| *id).collect();
        self.since_snapshot = 0;
        self.bytes_since_snapshot = 0;
        self.snapshot_bytes = bytes.len() as u64;
        Ok(())
    }

    /// Rebuilds the pre-crash state: newest snapshot + WAL replay, which is
    /// idempotent (see `crate::wal`): frames the snapshot already covers
    /// — a backend may hand them back, a crash inside a checkpoint leaves
    /// them — change nothing. The snapshot's catalog and each frame's
    /// dictionary are interned as they come, and the accumulated
    /// [`SymRemap`] (the identity in the writing process) rewrites rows.
    /// Own nulls (`node` is the peer's id) in replayed insertions advance
    /// the null mint. `None` when no snapshot was ever written: the owner
    /// writes one at attach time, so the store never belonged to a peer.
    pub fn recover(&self, node: u32) -> StorageResult<Option<RecoveredState>> {
        let Some(bytes) = self.backend.read_snapshot_bytes()? else {
            return Ok(None);
        };
        let snap: DatabaseSnapshot = crate::decode(self.codec, &bytes, "snapshot")?;
        let catalog = ConstCatalog::global();
        let mut remap = catalog.absorb(&snap.catalog);
        let mut db = snap.db;
        if !remap.is_identity() {
            db.remap_syms(&|id| remap.map(id));
        }
        let mut nulls_next = snap.nulls_next;
        let mut depths: BTreeMap<NullId, u32> = snap.depths.into_iter().collect();
        let mut folded = LogFold::<FragmentMark> {
            last_session: snap.last_session,
            cursors: (snap.cursors.into_iter())
                .map(|(subscriber, rule, cursor)| ((subscriber, rule), cursor))
                .collect(),
            ..LogFold::default()
        };
        for (rule, from, mark) in snap.marks {
            let held = folded.marks.entry((rule, from)).or_default();
            held.add_rows(&mark.vars, &mark.rows, &remap)?;
            held.watermarks = mark.watermarks;
        }

        let frames: Vec<WalFrame> = (self.backend.read_wal_bytes()?.iter())
            .map(|f| WalFrame::decode(self.codec, f))
            .collect::<StorageResult<_>>()?;
        let mut buf = Vec::new();
        for frame in frames {
            remap.extend(catalog.absorb(&frame.dict));
            for record in frame.records {
                folded.fold(&record, &remap)?;
                let WalRecord::Insert {
                    relation,
                    tuple,
                    depths: rec_depths,
                } = record
                else {
                    continue;
                };
                let row = remap_row(&remap, &tuple, &mut buf);
                let own = row.iter().filter_map(|v| match v {
                    Val::Null(id) if id.node() == node => Some(id.counter() + 1),
                    _ => None,
                });
                nulls_next = own.fold(nulls_next, u64::max);
                for (id, d) in rec_depths {
                    let e = depths.entry(id).or_insert(d);
                    *e = (*e).max(d);
                }
                db.insert_row(&relation, row)
                    .map_err(|e| StorageError::Corrupt(format!("WAL replay: {e}")))?;
            }
        }
        Ok(Some(RecoveredState {
            db,
            nulls_next,
            depths: depths.into_iter().collect(),
            marks: folded.marks,
            cursors: folded.cursors,
            last_session: folded.last_session,
        }))
    }

    /// Takes over what the log alone knows of a [`PeerStorage::recover`] of
    /// this store — each mark's watermarks, the cursors, the newest session
    /// — so the next snapshot carries them on; the rows stay with the
    /// owner. The owner calls this whenever it restarts from the store: a
    /// store reopened by a new process has folded nothing yet.
    pub fn adopt(&mut self, recovered: &RecoveredState) {
        self.folded = LogFold {
            marks: (recovered.marks.iter())
                .map(|(key, mark)| (*key, mark.watermarks.clone()))
                .collect(),
            cursors: recovered.cursors.clone(),
            last_session: recovered.last_session,
        };
    }
}

/// A row with its symbols rewritten through the recovery remap: the row
/// itself under the identity, else its rewrite in `buf`.
fn remap_row<'a>(remap: &SymRemap, row: &'a [Val], buf: &'a mut Vec<Val>) -> &'a [Val] {
    if remap.is_identity() {
        return row;
    }
    buf.clear();
    buf.extend(row.iter().map(|v| remap.val(*v)));
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FileBackend, MemoryBackend};
    use p2p_relational::DatabaseSchema;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::parse("a(x: int, y: int). b(x: int). s(x: str).").unwrap()
    }

    fn store(snapshot_every: u64) -> (PeerStorage, Database) {
        store_on(Box::<MemoryBackend>::default(), snapshot_every)
    }

    fn store_on(backend: Box<dyn StorageBackend>, snapshot_every: u64) -> (PeerStorage, Database) {
        let db = Database::new(schema());
        let mut st = PeerStorage::new(backend, snapshot_every);
        st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
        (st, db)
    }

    fn insert(st: &mut PeerStorage, db: &mut Database, rel: &str, vals: Vec<Val>) -> bool {
        db.insert_values(rel, vals.clone()).unwrap();
        let record = WalRecord::Insert {
            relation: Arc::from(rel),
            tuple: vals,
            depths: Vec::new(),
        };
        st.commit(vec![record]).unwrap()
    }

    fn tuples(rows: &RowSet) -> Vec<Vec<Val>> {
        rows.iter().map(<[Val]>::to_vec).collect()
    }

    fn answer(session: SessionId, rows: Vec<Vec<Val>>, mark: usize) -> WalRecord {
        let mut watermarks = Marks::new();
        watermarks.insert(Arc::<str>::from("b"), mark);
        let mut set = RowSet::new(rows.first().map_or(1, Vec::len));
        set.extend(rows.iter().map(Vec::as_slice));
        WalRecord::Answer {
            session,
            rule: 5,
            node: NodeId(2),
            vars: [Arc::from("X")].into(),
            rows: set,
            watermarks,
        }
    }

    /// A backend that keeps every frame ever appended — the loosest reading
    /// of the contract ("at least every frame since the newest snapshot"),
    /// and what a crash inside a checkpoint leaves behind: the new snapshot
    /// present, the frames it covers not yet dropped.
    #[derive(Debug, Default)]
    struct KeepsEveryFrame {
        wal: Vec<Vec<u8>>,
        snapshot: Option<Vec<u8>>,
    }

    impl StorageBackend for KeepsEveryFrame {
        fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
            self.wal.push(frame.to_vec());
            Ok(())
        }
        fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
            Ok(self.wal.clone())
        }
        fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
            self.snapshot = Some(snapshot.to_vec());
            Ok(())
        }
        fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
            Ok(self.snapshot.clone())
        }
    }

    #[test]
    fn recover_replays_wal_onto_snapshot() {
        let (mut st, mut db) = store(0);
        insert(&mut st, &mut db, "a", vec![Val::Int(1), Val::Int(2)]);
        insert(&mut st, &mut db, "b", vec![Val::Int(7)]);
        let rec = st.recover(0).unwrap().unwrap();
        assert_eq!(rec.db.all_facts(), db.all_facts());
        assert_eq!(rec.db.watermarks::<Marks>(), db.watermarks());
    }

    #[test]
    fn recover_without_snapshot_is_none() {
        let st = PeerStorage::new(Box::<MemoryBackend>::default(), 0);
        assert!(st.recover(0).unwrap().is_none());
    }

    /// A checkpoint is due once `snapshot_every` records *and* as many
    /// frame bytes as the last snapshot took have been logged: a small
    /// state checkpoints every k records, a large one when its log has
    /// grown to its own size.
    #[test]
    fn checkpoint_is_due_after_k_records_and_a_snapshot_of_bytes() {
        let (mut st, mut db) = store(2);
        let mut logged = 0;
        let mut next = |st: &mut PeerStorage, db: &mut Database| {
            logged += 1;
            insert(st, db, "b", vec![Val::Int(logged)])
        };
        // The empty database's snapshot outweighs two records.
        assert!(!next(&mut st, &mut db));
        assert!(!next(&mut st, &mut db), "k records, but too few bytes");
        let mut records = 2;
        while !next(&mut st, &mut db) {
            records += 1;
        }
        assert!(st.bytes_since_snapshot >= st.snapshot_bytes);
        assert!(
            st.bytes_since_snapshot < st.snapshot_bytes + 100,
            "and no later"
        );
        st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
        // The snapshot grew, so the next one takes more records.
        let mut again = 1;
        while !next(&mut st, &mut db) {
            again += 1;
        }
        assert!(again > records, "{again} records after {records}");
        // Recovery from the mid-stream snapshot is still exact.
        let rec = st.recover(0).unwrap().unwrap();
        assert_eq!(rec.db.all_facts(), db.all_facts());

        // With the bytes already there, the record count still binds.
        let (mut st, mut db) = store(3);
        st.snapshot_bytes = 0;
        assert!(!insert(&mut st, &mut db, "b", vec![Val::Int(1)]));
        assert!(!insert(&mut st, &mut db, "b", vec![Val::Int(2)]));
        assert!(insert(&mut st, &mut db, "b", vec![Val::Int(3)]));

        // A frame counts its records, not itself.
        let (mut st, _db) = store(3);
        st.snapshot_bytes = 0;
        let sid = SessionId::new(NodeId(0), 1);
        let batch = (1..=3).map(|mark| answer(sid, Vec::new(), mark)).collect();
        assert!(st.commit(batch).unwrap());
        assert_eq!(st.since_snapshot, 3);
        assert!(
            !st.commit(Vec::new()).unwrap(),
            "an empty commit writes nothing"
        );
    }

    #[test]
    fn recover_restores_null_mint_and_depths() {
        let (mut st, mut db) = store(0);
        let own = NullId::new(3, 9);
        let foreign = NullId::new(8, 100);
        db.insert_values("a", vec![Val::Null(own), Val::Null(foreign)])
            .unwrap();
        st.commit(vec![WalRecord::Insert {
            relation: Arc::from("a"),
            tuple: vec![Val::Null(own), Val::Null(foreign)],
            depths: vec![(own, 2), (foreign, 5)],
        }])
        .unwrap();
        let rec = st.recover(3).unwrap().unwrap();
        // Own counter advanced past 9; the foreign node's null is ignored.
        assert_eq!(rec.nulls_next, 10);
        assert!(rec.depths.contains(&(own, 2)));
        assert!(rec.depths.contains(&(foreign, 5)));
    }

    #[test]
    fn answer_records_fold_into_marks() {
        let (mut st, _db) = store(0);
        let sid = SessionId::new(NodeId(0), 1);
        let row1 = vec![Val::Int(1)];
        let row2 = vec![Val::Int(2)];
        // Logged out of watermark order on purpose: the maximum wins.
        st.commit(vec![answer(sid, vec![row1.clone(), row2.clone()], 4)])
            .unwrap();
        st.commit(vec![answer(sid, vec![row1.clone()], 1)]).unwrap();
        let rec = st.recover(0).unwrap().unwrap();
        let mark = &rec.marks[&(5, NodeId(2))];
        assert_eq!(tuples(&mark.rows), vec![row1, row2]); // deduplicated, in order
        assert_eq!(mark.watermarks["b"], 4);
        assert_eq!(rec.last_session, sid);
    }

    /// The answers of interleaved sessions fold into one mark per fragment:
    /// rows united, the newest watermark and the newest session kept.
    #[test]
    fn marks_of_interleaved_sessions_fold_per_fragment() {
        let (mut st, _db) = store(0);
        let s1 = SessionId::new(NodeId(0), 1);
        let s2 = SessionId::new(NodeId(3), 1);
        st.commit(vec![
            answer(s2, vec![vec![Val::Int(7)]], 9),
            answer(s1, vec![vec![Val::Int(1)]], 2),
        ])
        .unwrap();
        let rec = st.recover(0).unwrap().unwrap();
        assert_eq!(rec.marks.len(), 1);
        let mark = &rec.marks[&(5, NodeId(2))];
        assert_eq!(
            tuples(&mark.rows),
            vec![vec![Val::Int(7)], vec![Val::Int(1)]]
        );
        assert_eq!(mark.watermarks["b"], 9);
        assert_eq!(rec.last_session, s2);
    }

    /// The rows an owner holds of each fragment, handed to a snapshot: here
    /// the rows of recovered `marks`, which is what a restarted owner holds.
    fn held<'m>(
        marks: &'m BTreeMap<(u32, NodeId), FragmentMark>,
    ) -> impl Fn(u32, NodeId) -> Held<'m> {
        |rule, node| (marks.get(&(rule, node))).map(|mark| (&mark.vars, &mark.rows))
    }

    /// A snapshot carries the folded answer log with the rows the owner
    /// hands it, so the answer frames it covers can go — on both codecs,
    /// through a checkpoint and a reopen by a store that has folded nothing
    /// itself.
    #[test]
    fn marks_survive_the_checkpoint_that_drops_their_frames() {
        let sid = SessionId::new(NodeId(1), 4);
        for codec in [Codec::Json, Codec::Binary] {
            let dir = std::env::temp_dir()
                .join(format!("p2p_storage_marks_{}_{codec}", std::process::id()));
            let db = Database::new(schema());
            let rows = vec![vec![Val::str("mark-only-sym")]];
            {
                let backend = Box::new(FileBackend::open(&dir).unwrap());
                let mut st = PeerStorage::with_codec(backend, 0, codec);
                st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
                st.commit(vec![answer(sid, rows.clone(), 3)]).unwrap();
                assert!(st.first_use_dict(rows[0].iter()).is_empty());
                let owner = st.recover(0).unwrap().unwrap();
                st.snapshot(&db, 0, Vec::new(), held(&owner.marks)).unwrap();
            }
            let backend = Box::new(FileBackend::open(&dir).unwrap());
            let mut st = PeerStorage::with_codec(backend, 0, codec);
            let rec = st.recover(0).unwrap().unwrap();
            assert_eq!(tuples(&rec.marks[&(5, NodeId(2))].rows), rows, "{codec}");
            assert_eq!(rec.last_session, sid);
            // … and through the next checkpoint of the reopened store.
            st.adopt(&rec);
            st.snapshot(&db, 0, Vec::new(), held(&rec.marks)).unwrap();
            let again = st.recover(0).unwrap().unwrap();
            assert_eq!(again.marks, rec.marks, "{codec}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The crash window of a checkpoint, and any backend that hands back
    /// more than it must: frames the snapshot covers are replayed over it
    /// and change nothing — same database, same order, same marks.
    #[test]
    fn replay_is_idempotent_over_stale_snapshot_boundary() {
        let (mut st, mut db) = store_on(Box::<KeepsEveryFrame>::default(), 0);
        let sid = SessionId::new(NodeId(0), 2);
        insert(&mut st, &mut db, "b", vec![Val::Int(1)]);
        insert(&mut st, &mut db, "s", vec![Val::str("stale-sym")]);
        st.commit(vec![answer(sid, vec![vec![Val::Int(1)]], 5)])
            .unwrap();
        let before = st.recover(0).unwrap().unwrap();
        st.snapshot(&db, 0, Vec::new(), held(&before.marks))
            .unwrap();
        let after = st.recover(0).unwrap().unwrap();
        assert_eq!(after.db.all_facts(), db.all_facts());
        assert_eq!(after.db.watermarks::<Marks>(), db.watermarks());
        assert_eq!(after.marks, before.marks);
        assert_eq!(after.last_session, sid);

        insert(&mut st, &mut db, "b", vec![Val::Int(2)]);
        insert(&mut st, &mut db, "b", vec![Val::Int(1)]); // dup in WAL
        let rec = st.recover(0).unwrap().unwrap();
        assert_eq!(rec.db.all_facts(), db.all_facts());
    }

    #[test]
    fn string_facts_round_trip_through_snapshot_and_wal() {
        let (mut st, mut db) = store(0);
        insert(&mut st, &mut db, "s", vec![Val::str("snap-sym")]);
        st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
        insert(&mut st, &mut db, "s", vec![Val::str("wal-sym")]);
        let rec = st.recover(0).unwrap().unwrap();
        assert_eq!(rec.db.all_facts(), db.all_facts());
        let rel = rec.db.relation("s").unwrap();
        assert!(rel.contains(&[Val::str("snap-sym")]));
        assert!(rel.contains(&[Val::str("wal-sym")]));
    }

    #[test]
    fn first_use_dict_ships_each_symbol_once() {
        let (mut st, _db) = store(0);
        let v = Val::str("first-use-once");
        let d1 = st.first_use_dict([v].iter());
        assert_eq!(d1.len(), 1);
        assert_eq!(&*d1[0].1, "first-use-once");
        assert!(st.first_use_dict([v].iter()).is_empty());
    }

    /// A memory backend whose writes fail while the shared flag is set.
    #[derive(Debug)]
    struct Failing {
        inner: MemoryBackend,
        fail: Arc<AtomicBool>,
    }

    impl StorageBackend for Failing {
        fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(StorageError::Io("disk full".into()));
            }
            self.inner.append_wal_bytes(frame)
        }
        fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
            self.inner.read_wal_bytes()
        }
        fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(StorageError::Io("disk full".into()));
            }
            self.inner.write_snapshot_bytes(snapshot)
        }
        fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
            self.inner.read_snapshot_bytes()
        }
    }

    /// Regression: `snapshot` used to mark the database's symbols as
    /// persisted before the write. When the write failed, later WAL records
    /// left those symbols' definitions out for good, and a recovery in
    /// another process could not resolve them.
    #[test]
    fn failed_snapshot_persists_no_symbols() {
        let fail = Arc::new(AtomicBool::new(false));
        let backend = Failing {
            inner: MemoryBackend::default(),
            fail: fail.clone(),
        };
        let (mut st, mut db) = store_on(Box::new(backend), 0);
        // In the database but in no WAL record — as base data is.
        let (lost, kept) = (
            Val::str("saw-a-failed-snapshot"),
            Val::str("saw-a-good-one"),
        );
        db.insert_values("s", vec![lost]).unwrap();
        fail.store(true, Ordering::Relaxed);
        assert!(matches!(
            st.snapshot(&db, 0, Vec::new(), |_, _| None),
            Err(StorageError::Io(_))
        ));
        assert_eq!(
            st.first_use_dict([lost].iter()).len(),
            1,
            "the definition must still be shipped"
        );
        // A snapshot that is written does persist its symbols.
        fail.store(false, Ordering::Relaxed);
        db.insert_values("s", vec![kept]).unwrap();
        st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
        assert!(st.first_use_dict([kept].iter()).is_empty());
    }

    /// A commit whose append fails folds none of its records and persists
    /// none of its frame's symbols: the next frame ships them again.
    #[test]
    fn failed_commit_persists_no_symbols_and_folds_nothing() {
        let fail = Arc::new(AtomicBool::new(true));
        let backend = Failing {
            inner: MemoryBackend::default(),
            fail: fail.clone(),
        };
        let mut st = PeerStorage::new(Box::new(backend), 0);
        let sym = Val::str("saw-a-failed-commit");
        let batch = || {
            let insert = WalRecord::Insert {
                relation: Arc::from("s"),
                tuple: vec![sym],
                depths: Vec::new(),
            };
            vec![insert, answer(SessionId::new(NodeId(0), 1), Vec::new(), 1)]
        };
        assert!(matches!(st.commit(batch()), Err(StorageError::Io(_))));
        assert!(!st.has_marks(5) && st.since_snapshot == 0);
        fail.store(false, Ordering::Relaxed);
        st.commit(batch()).unwrap();
        assert!(st.has_marks(5));
        let frames = st.backend.read_wal_bytes().unwrap();
        assert_eq!(frames.len(), 1);
        let text = String::from_utf8(frames[0].clone()).unwrap();
        assert!(text.contains("saw-a-failed-commit"), "{text}");
    }

    /// A checkpoint drops the frames whose dictionaries defined a symbol,
    /// so the snapshot's catalog must define every symbol it mentions, and
    /// a symbol it does not mention counts as unpersisted again.
    #[test]
    fn checkpoint_resets_the_first_use_filter_to_its_catalog() {
        let (mut st, mut db) = store(0);
        insert(&mut st, &mut db, "s", vec![Val::str("kept-in-db")]);
        let gone = Val::str("in-a-dropped-frame-only");
        assert_eq!(st.first_use_dict([gone].iter()).len(), 1);
        st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
        assert!(st
            .first_use_dict([Val::str("kept-in-db")].iter())
            .is_empty());
        assert_eq!(st.first_use_dict([gone].iter()).len(), 1);
    }

    /// Regression: the pre-columnar `Relation` serialized a `present` set —
    /// a byte-for-byte duplicate of every tuple — into every snapshot. The
    /// new form must carry each row exactly once, making data-dominated
    /// snapshots roughly half the size of the old format (reconstructed
    /// here by appending a second copy of each relation's rows, which is
    /// exactly what `present` serialized to).
    #[test]
    fn snapshot_size_regression_rows_serialized_once() {
        use serde::{Content, Serialize};
        let mut db = Database::new(schema());
        for i in 0..300i64 {
            db.insert_values("a", vec![Val::Int(700_000 + i), Val::Int(i)])
                .unwrap();
        }
        let snap = DatabaseSnapshot {
            nulls_next: 0,
            depths: Vec::new(),
            catalog: Vec::new(),
            marks: Vec::new(),
            cursors: Vec::new(),
            last_session: SessionId::default(),
            db: db.clone(),
        };
        let text = serde_json::to_string(&snap).unwrap();
        // Every tuple appears exactly once.
        assert_eq!(text.matches("700123").count(), 1);
        assert!(!text.contains("present"));

        // Reconstruct the old duplicated form and compare sizes.
        let old_form = match snap.to_content().unwrap() {
            Content::Map(mut fields) => {
                for (_, v) in fields.iter_mut() {
                    duplicate_rows_as_present(v);
                }
                Content::Map(fields)
            }
            other => other,
        };
        let old_len = serde_json::encoded_len(&old_form).unwrap();
        assert!(
            text.len() * 9 <= old_len * 5,
            "snapshot must be ~2x smaller than the duplicated form: \
             new {} vs old {}",
            text.len(),
            old_len
        );
    }

    /// Recursively appends a `present` duplicate next to every `rows` array
    /// (the old `Relation` serialization).
    fn duplicate_rows_as_present(c: &mut serde::Content) {
        use serde::Content;
        if let Content::Map(entries) = c {
            let dup: Vec<(String, Content)> = entries
                .iter()
                .filter(|(k, _)| k == "rows")
                .map(|(_, v)| ("present".to_string(), v.clone()))
                .collect();
            for (_, v) in entries.iter_mut() {
                duplicate_rows_as_present(v);
            }
            entries.extend(dup);
        }
    }

    /// A snapshot of a mark whose owner holds rows for it encodes to bytes
    /// pinned in both codecs — the bytes a mark holding its rows as a list
    /// of tuples wrote, and those a store that folded the rows itself
    /// wrote — and a recovery adopted by the store, handed the rows a
    /// restarted owner holds, writes them again.
    #[test]
    fn a_rows_bearing_mark_snapshots_to_pinned_bytes() {
        const JSON: &str = concat!(
            r#"{"nulls_next":3,"depths":[[4398046511106,1]],"catalog":[],"marks":[[5,"#,
            r#"2,{"vars":["X","Y"],"rows":[[{"Int":7},{"Int":-1}],[{"Int":0},{"Null":"#,
            r#"4398046511106}],[{"Null":4398046511106},{"Int":9}]],"watermarks":{"b":"#,
            r#"4}}]],"cursors":[],"last_session":{"root":1,"epoch":3},"db":{"schema":"#,
            r#"{"relations":{"b":{"name":"b","columns":[{"name":"x","ty":"Int"}]}}},""#,
            r#"relations":{"b":{"schema":{"name":"b","columns":[{"name":"x","ty":"Int"#,
            r#""}]},"rows":[]}}}}"#,
        );
        const BINARY: &str = concat!(
            "0807000a6e756c6c735f6e6578740403000664657074687307010702048280808080800104010007",
            "636174616c6f67070000056d61726b73070107030405040208030004766172730702060158060159",
            "0004726f77730703070208010003496e74030e080107030107020801070300080100044e756c6c04",
            "82808080808001070208010804828080808080010801070312000a77617465726d61726b73080100",
            "016204040007637572736f72730700000c6c6173745f73657373696f6e08020004726f6f74040100",
            "0565706f636804030002646208020006736368656d610801000972656c6174696f6e7308010a0802",
            "00046e616d650601620007636f6c756d6e730701080212060178000274790603496e741108010a08",
            "0210080212060162130701080212060178140603496e74060700",
        );
        let row = |vals: &[Val]| vals.to_vec();
        let null = Val::Null(NullId::new(4, 2));
        let answer = |rows: Vec<Vec<Val>>, mark: usize| {
            let mut record = answer(SessionId::new(NodeId(1), 3), rows, mark);
            if let WalRecord::Answer { vars, .. } = &mut record {
                *vars = [Arc::from("X"), Arc::from("Y")].into();
            }
            record
        };
        let db = Database::new(DatabaseSchema::parse("b(x: int).").unwrap());
        for codec in [Codec::Json, Codec::Binary] {
            let mut st = PeerStorage::with_codec(Box::<MemoryBackend>::default(), 0, codec);
            let (seven, zero) = ([Val::Int(7), Val::Int(-1)], [Val::Int(0), null]);
            st.commit(vec![answer(vec![row(&seven), row(&zero)], 2)])
                .unwrap();
            st.commit(vec![answer(vec![row(&zero), row(&[null, Val::Int(9)])], 4)])
                .unwrap();
            // What the owner holds: the answers' rows, deduplicated, in
            // arrival order.
            let mut rows = RowSet::new(2);
            rows.extend([&seven[..], &zero, &[null, Val::Int(9)]]);
            let owner = BTreeMap::from([(
                (5, NodeId(2)),
                FragmentMark {
                    vars: [Arc::from("X"), Arc::from("Y")].into(),
                    rows,
                    watermarks: Marks::new(),
                },
            )]);
            let written = |st: &mut PeerStorage, owner: &BTreeMap<_, _>| {
                (st.snapshot(&db, 3, vec![(NullId::new(4, 2), 1)], held(owner))).unwrap();
                let bytes = st.backend.read_snapshot_bytes().unwrap().unwrap();
                match codec {
                    Codec::Json => String::from_utf8(bytes).unwrap(),
                    Codec::Binary => bytes.iter().map(|b| format!("{b:02x}")).collect(),
                }
            };
            let bytes = written(&mut st, &owner);
            let pinned = match codec {
                Codec::Json => JSON,
                Codec::Binary => BINARY,
            };
            assert_eq!(bytes, pinned, "{codec}");
            let rec = st.recover(4).unwrap().unwrap();
            st.adopt(&rec);
            assert_eq!(
                written(&mut st, &rec.marks),
                pinned,
                "{codec} after recovery"
            );
        }
    }

    /// A snapshot whose mark holds a row of another width than the mark's
    /// other rows, or than its variables, is a corrupt store in both codecs
    /// — a typed error, not a panic.
    #[test]
    fn a_snapshot_whose_mark_holds_a_ragged_row_is_corrupt() {
        let mark = FragmentMark {
            vars: [Arc::from("X"), Arc::from("Y")].into(),
            rows: {
                let mut rows = RowSet::new(2);
                rows.insert(&[Val::Int(1), Val::Int(2)]);
                rows
            },
            watermarks: Marks::new(),
        };
        let snap = DatabaseSnapshot {
            nulls_next: 0,
            depths: Vec::new(),
            catalog: Vec::new(),
            marks: vec![(5, NodeId(2), mark)],
            cursors: Vec::new(),
            last_session: SessionId::default(),
            db: Database::new(schema()),
        };
        let text = serde_json::to_string(&snap).unwrap();
        let pair = r#"[[{"Int":1},{"Int":2}]]"#;
        assert!(text.contains(pair));
        for ragged in [r#"[[{"Int":1},{"Int":2}],[{"Int":3}]]"#, r#"[[{"Int":1}]]"#] {
            let text = text.replace(pair, ragged);
            let doc: Content = serde_json::from_str(&text).unwrap();
            for codec in [Codec::Json, Codec::Binary] {
                let mut backend = MemoryBackend::default();
                let bytes = crate::encode(codec, &doc, "snapshot").unwrap();
                backend.write_snapshot_bytes(&bytes).unwrap();
                let st = PeerStorage::with_codec(Box::new(backend), 0, codec);
                let err = st.recover(0).unwrap_err();
                assert!(matches!(err, StorageError::Corrupt(_)), "{codec}: {err}");
            }
        }
    }

    /// A snapshot written before cursors were persisted has no `cursors`
    /// section: it opens, with none.
    #[test]
    fn snapshot_without_a_cursor_section_still_loads() {
        use serde::Content;
        let mut db = Database::new(schema());
        db.insert_values("b", vec![Val::Int(3)]).unwrap();
        let snap = DatabaseSnapshot {
            nulls_next: 2,
            depths: Vec::new(),
            catalog: Vec::new(),
            marks: vec![(5, NodeId(2), FragmentMark::default())],
            cursors: Vec::new(),
            last_session: SessionId::new(NodeId(0), 3),
            db: db.clone(),
        };
        let Content::Map(mut fields) = snap.to_content().unwrap() else {
            panic!("a snapshot is a map");
        };
        fields.retain(|(key, _)| key != "cursors");
        assert_eq!(fields.len(), 6, "the earlier layout");
        let old = Content::Map(fields);
        for codec in [Codec::Json, Codec::Binary] {
            let mut backend = MemoryBackend::default();
            let bytes = crate::encode(codec, &old, "snapshot").unwrap();
            backend.write_snapshot_bytes(&bytes).unwrap();
            let st = PeerStorage::with_codec(Box::new(backend), 0, codec);
            let rec = st.recover(0).unwrap().unwrap();
            assert_eq!(rec.db.all_facts(), db.all_facts(), "{codec}");
            assert!(rec.cursors.is_empty() && rec.marks.len() == 1, "{codec}");
            assert_eq!(rec.last_session, snap.last_session);
        }
    }

    #[test]
    fn binary_store_recovers_identically_to_json() {
        // The same durable history through both codecs rebuilds the same
        // state — facts, strings (dictionary remap), and fragment marks.
        let mut recovered = Vec::new();
        for codec in [Codec::Json, Codec::Binary] {
            let mut db = Database::new(schema());
            let mut st = PeerStorage::with_codec(Box::<MemoryBackend>::default(), 0, codec);
            assert_eq!(st.codec, codec);
            st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
            insert(&mut st, &mut db, "a", vec![Val::Int(3), Val::Int(4)]);
            st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
            insert(&mut st, &mut db, "s", vec![Val::str("cross-codec-sym")]);
            let sid = SessionId::new(NodeId(0), 1);
            st.commit(vec![answer(sid, vec![vec![Val::Int(5)]], 2)])
                .unwrap();
            let rec = st.recover(0).unwrap().unwrap();
            assert_eq!(rec.db.all_facts(), db.all_facts());
            recovered.push(rec);
        }
        let (json, binary) = (&recovered[0], &recovered[1]);
        assert_eq!(json.db.all_facts(), binary.db.all_facts());
        assert_eq!(json.marks, binary.marks);
    }

    #[test]
    fn binary_file_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "p2p_storage_store_bin_{}_{}",
            std::process::id(),
            line!()
        ));
        let mut db = Database::new(schema());
        {
            let backend = Box::new(FileBackend::open(&dir).unwrap());
            let mut st = PeerStorage::with_codec(backend, 0, Codec::Binary);
            st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
            insert(&mut st, &mut db, "b", vec![Val::Int(11)]);
            insert(&mut st, &mut db, "s", vec![Val::str("bin-reopen")]);
        }
        // One snapshot and one log, whichever codec encoded them.
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["snapshot-1.bin", "wal-1.bin"]);
        let backend = Box::new(FileBackend::open(&dir).unwrap());
        let st = PeerStorage::with_codec(backend, 0, Codec::Binary);
        let rec = st.recover(0).unwrap().unwrap();
        assert_eq!(rec.db.all_facts(), db.all_facts());
        assert!(rec
            .db
            .relation("s")
            .unwrap()
            .contains(&[Val::str("bin-reopen")]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store written under one codec and reopened under the other is a
    /// typed error, in both directions — not an empty store the owner
    /// would then checkpoint its base data over.
    #[test]
    fn a_store_reopened_under_the_other_codec_is_refused_not_read_as_empty() {
        for (wrote, reads) in [(Codec::Json, Codec::Binary), (Codec::Binary, Codec::Json)] {
            let dir = std::env::temp_dir().join(format!(
                "p2p_storage_other_codec_{}_{wrote}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = Database::new(schema());
            {
                let backend = Box::new(FileBackend::open(&dir).unwrap());
                let mut st = PeerStorage::with_codec(backend, 0, wrote);
                st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
                insert(
                    &mut st,
                    &mut db,
                    "s",
                    vec![Val::str("logged-under-one-codec")],
                );
            }
            let backend = Box::new(FileBackend::open(&dir).unwrap());
            let err = PeerStorage::with_codec(backend, 0, reads).recover(0);
            assert!(
                matches!(err, Err(StorageError::Corrupt(_))),
                "{wrote} store read as {reads}: {err:?}"
            );
            // Past the snapshot, each frame is refused the same way.
            let frames = FileBackend::open(&dir).unwrap().read_wal_bytes().unwrap();
            assert_eq!(frames.len(), 1);
            let frame = WalFrame::decode(reads, &frames[0]);
            assert!(matches!(frame, Err(StorageError::Corrupt(_))), "{frame:?}");
            // The store is still whole under its own codec.
            let backend = Box::new(FileBackend::open(&dir).unwrap());
            let rec = PeerStorage::with_codec(backend, 0, wrote).recover(0);
            assert_eq!(rec.unwrap().unwrap().db.all_facts(), db.all_facts());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn snapshot_carries_its_symbol_dictionary() {
        let (mut st, mut db) = store(0);
        db.insert_values("s", vec![Val::str("self-contained")])
            .unwrap();
        st.snapshot(&db, 0, Vec::new(), |_, _| None).unwrap();
        // The snapshot text must embed the string, not just the raw id.
        let rec = st.recover(0).unwrap().unwrap();
        assert!(rec
            .db
            .relation("s")
            .unwrap()
            .contains(&[Val::str("self-contained")]));
    }
}
