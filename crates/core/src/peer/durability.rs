//! Durable peers: WAL logging, crash wipe, storage recovery, and a restart
//! that resumes its subscriptions on both ends through the watermark-based
//! resync protocol.
//!
//! With [`crate::config::SystemConfig::durability`] on, every peer owns a
//! [`p2p_storage::PeerStorage`] and records, as [`p2p_storage::WalRecord`]s,
//! what its subscriptions rest on: every fact the update algorithm inserts
//! (`Insert`); as a head, every fragment answer it processes (`Answer`: the
//! answerer's watermarks — the **resync cursor** — and, for a rule with more
//! than one body node, the fragment rows it retains), and the replacement
//! or deletion of a rule, which forgets its marks (`ForgetRule`); as a body
//! node, every move of a cursor a subscriber may come to rely on
//! (`Cursor`, which `Subscriptions` appends).
//!
//! **One delivery, one frame.** A handler never writes to its store: it
//! adds records to a pending list, and `DbPeer::commit` writes the list as
//! one frame, then takes a checkpoint if one is due. The commit ends every
//! delivery and restart, before what the handler sent leaves, and every
//! call from outside a delivery that records ([`DbPeer::insert_base_fact`],
//! [`crate::system::P2PSystem::install_rule`]). A torn frame is dropped whole, so a log cut
//! anywhere holds the state after some number of whole deliveries: no mark
//! ahead of the insertions it derived, no subscriber holding rows past a
//! cursor the store lacks.
//!
//! ## Crash and recovery
//!
//! A crash (`DbPeer::crash_volatile_state`) wipes everything in memory but
//! static configuration — the rules targeting the node, its pipes, the
//! roster, which a real peer re-reads at boot (Section 5) — and statistics.
//!
//! At restart (`DbPeer::restart_and_resync`) the peer replays `snapshot +
//! WAL` into a database **tuple-identical** to the pre-crash one — once: a
//! restarted process keeps what [`DbPeer::attach_storage`] replayed — and
//! resumes its subscriptions on both ends, so a crash costs what was at
//! risk, not what is held.
//!
//! **As a body node** it takes back the cursors its store holds. Each was
//! committed behind its session's terminal broadcast, when its subscriber
//! had applied — and, durable itself, logged — every answer up to it, so
//! the invariant of [`crate::peer`] holds across the restart: *for every
//! fragment a head holds, its body node's store has a cursor no further
//! than what the head holds*, and the next flood ships `(cursor, now]`. A
//! peer that cannot vouch for its cursors — no store, a store that does not
//! read back, a cursor counting rows the recovered relation lacks — owes
//! its pipe neighbours the cursor-void notice (`Subscriptions::recover`).
//!
//! **As a head** it primes its retained fragment rows from the recovered
//! marks and asks every rule fragment's body node for a delta: a `Query` on
//! [`Via::Repair`] starting `Start::Since` the newest durably-processed
//! watermark — or, under the default protocol, the body node's committed
//! cursor where that lies behind (`DbPeer::eval_from`). The answer is
//! absorbed through the chase and the WAL like any other, so a crash during
//! recovery is recoverable too. FIFO pipes make this sound: a peer that
//! logged an answer with watermark `W` had processed every earlier answer of
//! that subscription, and every subscription started from scratch or from a
//! logged session's cursor, so all it can miss derives from facts past the
//! smaller of `W` and the cursor — in both update modes, as a rounds session
//! commits its cursors at `RoundsClosed` as an eager one does at `Fixpoint`.
//! Under `paper_faithful` the repair is answered from the claim.
//!
//! Liveness after a mid-wave crash is the driver's job: the wave stalls,
//! and [`crate::system::P2PSystem::run`] re-drives the session, within its
//! [`crate::system::RunSpec::redrives`] budget, until closure is
//! re-certified.

use crate::error::{CoreError, CoreResult};
use crate::messages::{Answer, AnswerRows, ProtocolMsg, Query, Via};
use crate::peer::{DbPeer, Nulls};
use crate::rule::RuleId;
use p2p_net::{Context, SessionId};
use p2p_relational::{Database, NullFactory, Val};
use p2p_storage::{PeerStorage, RecoveredState, StorageResult, WalRecord};
use p2p_topology::NodeId;

/// A peer's durable side: its store, the records the running delivery made
/// so far, and what a store that already held state was replayed into (kept
/// until the restart hook resumes from it: a restarted process reads once).
#[derive(Debug)]
pub(crate) struct Durable {
    store: PeerStorage,
    pending: Vec<WalRecord>,
    replayed: Option<RecoveredState>,
}

impl Durable {
    /// The records of the running delivery, which `DbPeer::commit` writes.
    pub(crate) fn log(&mut self) -> &mut Vec<WalRecord> {
        &mut self.pending
    }
}

impl DbPeer {
    /// Attaches a durable store. A fresh store gets the initial snapshot
    /// (base data, pre-session) so recovery always has a schema-bearing
    /// starting point; a store that already holds state — e.g. a reopened
    /// [`p2p_storage::FileBackend`] from a previous process — is adopted
    /// instead: the disk is the truth, and checkpointing this peer's base
    /// data over it would amputate every logged fact from recovery. What
    /// the replay rebuilt besides the database is kept for the restart hook
    /// (`DbPeer::restart_and_resync`), so a restarted process reads its
    /// store once.
    pub fn attach_storage(&mut self, mut store: PeerStorage) -> StorageResult<()> {
        let replayed = self.replay(&mut store)?;
        if replayed.is_none() {
            let Nulls { mint, chase } = &self.nulls;
            store.snapshot(&self.db, mint.minted(), chase.export(), |_, _| None)?;
        }
        self.storage = Some(Box::new(Durable {
            store,
            pending: Vec::new(),
            replayed,
        }));
        Ok(())
    }

    /// Whether the attached store already held state, which this peer
    /// adopted and no restart has resumed from yet: the process is a
    /// restarted one.
    pub fn adopted_stored_state(&self) -> bool {
        (self.storage.as_ref()).is_some_and(|st| st.replayed.is_some())
    }

    /// The one replay step, of an attach and of a restart alike: rebuilds
    /// what `store` holds, hands the store back what its log alone knows,
    /// and takes the database, null mint and chase depths as this peer's
    /// own. Returns the rest — the answer log's marks with their rows, the
    /// cursors, the newest session — for `Subscriptions::recover`; `None`
    /// when the store never held state.
    fn replay(&mut self, store: &mut PeerStorage) -> StorageResult<Option<RecoveredState>> {
        let Some(mut rec) = store.recover(self.id.0)? else {
            return Ok(None);
        };
        store.adopt(&rec);
        let emptied = Database::new(rec.db.schema().clone());
        rec.db.share_schema(self.db.schema());
        self.db = std::mem::replace(&mut rec.db, emptied);
        self.nulls.mint = NullFactory::resume(self.id.0, rec.nulls_next);
        for (id, depth) in std::mem::take(&mut rec.depths) {
            self.nulls.chase.record(id, depth);
        }
        Ok(Some(rec))
    }

    /// Inserts one base fact **durably**: into the live database and — with
    /// a store — the WAL, in a frame of its own written before this returns
    /// (an error if it was not: the fact is in memory only). The seeding
    /// path for data arriving after build time (concurrent-writer deltas).
    pub fn insert_base_fact(&mut self, relation: &str, values: Vec<Val>) -> CoreResult<()> {
        let end = self.db.relation(relation)?.len();
        self.db.insert_row(relation, &values)?;
        self.log_rows_past(relation, end);
        self.commit()
    }

    /// Records every row `relation` holds past its first `end` as an
    /// insertion (no-op without storage): a fact lives in its relation, and
    /// what a delivery inserted is the relation's end.
    pub(crate) fn log_rows_past(&mut self, relation: &str, end: usize) {
        let (Some(st), Ok(rel)) = (self.storage.as_mut(), self.db.relation(relation)) else {
            return;
        };
        let chase = &self.nulls.chase;
        st.pending
            .extend(rel.since(end).map(|row| WalRecord::Insert {
                relation: rel.schema().name.clone(),
                tuple: row.to_vec(),
                depths: chase.depths_for(row),
            }));
    }

    /// Records one processed fragment answer: the answerer's watermarks
    /// (resync cursor) and — for a rule with more than one body node, whose
    /// head retains fragment rows — the rows (cache rebuild). Nothing for a
    /// payload-free acknowledgement (empty `marks`).
    pub(crate) fn log_answer_mark(
        &mut self,
        sid: SessionId,
        rule: RuleId,
        from: NodeId,
        answer: AnswerRows,
    ) {
        let Some(st) = self.storage.as_mut().filter(|_| !answer.marks.is_empty()) else {
            return;
        };
        let keeps_rows = self.rules.get(&rule).is_some_and(|r| r.parts.len() > 1);
        let (vars, rows) = if keeps_rows {
            (answer.vars, answer.rows)
        } else {
            Default::default()
        };
        st.pending.push(WalRecord::Answer {
            session: sid,
            rule: rule.0,
            node: from,
            vars,
            rows,
            watermarks: answer.marks,
        });
    }

    /// Records that `rule` was replaced or deleted here: the marks of its
    /// answers are not the new rule's. A store that holds none says
    /// nothing (no delivery both takes in an answer and replaces a rule, so
    /// the committed marks are all there is to forget).
    pub(crate) fn log_forget_rule(&mut self, rule: RuleId) {
        if let Some(st) = (self.storage.as_mut()).filter(|st| st.store.has_marks(rule.0)) {
            st.pending.push(WalRecord::ForgetRule { rule: rule.0 });
        }
    }

    /// The one commit point (module docs): writes what was recorded since
    /// the last commit as one WAL frame, then checkpoints if one is due. A
    /// failed append loses the records, is recorded in [`DbPeer::errors`]
    /// and returned.
    pub fn commit(&mut self) -> CoreResult<()> {
        let Some(st) = self.storage.as_mut() else {
            return Ok(());
        };
        let due = match st.store.commit(std::mem::take(&mut st.pending)) {
            Ok(due) => due,
            Err(e) => {
                let e = format!("WAL append failed: {e}");
                self.fail(&e);
                return Err(CoreError::Storage(e));
            }
        };
        if due {
            // A fragment's rows are held once, by its head's subscriptions.
            let Nulls { mint, chase } = &self.nulls;
            let subscriptions = &self.subscriptions;
            let held = |rule, node| {
                let fragment = subscriptions.fragment((RuleId(rule), node))?;
                Some((&fragment.vars, &fragment.rows))
            };
            if let Err(e) = (st.store).snapshot(&self.db, mint.minted(), chase.export(), held) {
                self.fail(format!("snapshot failed: {e}"));
            }
        }
        Ok(())
    }

    /// Churn: the process dies. Everything in memory goes — including the
    /// whole per-session table; storage (and static configuration — rules,
    /// pipes, roster) survives.
    pub(crate) fn crash_volatile_state(&mut self) {
        self.stats.crashes += 1;
        self.db = Database::new(self.db.schema().clone());
        self.subscriptions.discard(None);
        if let Some(st) = self.storage.as_mut() {
            st.pending.clear();
            st.replayed = None;
        }
        self.nulls = Nulls::new(self.id);
        self.sessions.discard();
        self.disc = Default::default();
        self.pipes.known.clear();
    }

    /// Churn: the process comes back. Rebuilds the database from storage —
    /// unless [`DbPeer::attach_storage`] just did — resumes the null mint
    /// past every pre-crash id, takes back the cursors of the
    /// subscriptions it serves, primes the retained fragment state from the
    /// durable answer log, and asks every rule fragment's body node for
    /// the delta since the newest durably-processed watermark.
    pub(crate) fn restart_and_resync(&mut self, ctx: &mut Context<ProtocolMsg>) {
        let Some(mut st) = self.storage.take() else {
            // Amnesia baseline: without storage there is no durable state to
            // recover and no watermark to resync from — the peer genuinely
            // lost everything, owes its subscribers the notice (a restarted
            // `serve` process starts here, with no crash hook behind it),
            // and rejoins empty at the next session.
            return self.subscriptions.discard(None);
        };
        let replayed = match st.replayed.take() {
            Some(replayed) => Some(replayed),
            None => self.replay(&mut st.store).unwrap_or_else(|e| {
                self.fail(format!("recovery failed: {e}"));
                None
            }),
        };
        self.storage = Some(st);
        self.stats.recoveries += u64::from(replayed.is_some());
        // Watermark-based repair (control plane, outside any session's
        // termination detector). Each query stays outstanding until its
        // answer arrives: the peer refuses to close while any is, and
        // re-sends on every session (re-)entry, so a dropped resync message
        // stalls the session (which the driver re-drives) instead of
        // silently losing the missed rows forever. A fragment never durably
        // answered is asked from the empty watermark.
        (self.subscriptions).recover(replayed, &self.rules, &self.db);
        self.subscriptions.resend(&self.rules, ctx);
    }

    /// Body-node side of a repair: the fragment's rows past where the
    /// query starts ([`DbPeer::eval_from`]: the requester's claim, or this
    /// node's cursor where that lies behind it) — of this one fragment,
    /// never of the network. Answered regardless of what this node holds
    /// for the session: repair is control-plane data movement. Under
    /// `paper_faithful` every subscription this node holds for the requester
    /// in a live session is dropped, so the next cascade answer is the full
    /// extension rather than a delta the restarted requester has nothing to
    /// join to.
    pub(crate) fn answer_repair(
        &mut self,
        sid: SessionId,
        to: NodeId,
        query: Query,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if self.config.paper_faithful {
            for st in self.sessions.live_mut(None) {
                st.subs.remove(&(to, query.rule));
            }
        }
        let (rows, _) = self.eval_from((to, query.rule), &query.part, &query.from, ctx);
        let rows = self.make_answer_rows(to, &query.part, rows);
        let answer = Answer::new(sid, query.rule, rows, Via::Repair);
        ctx.send(to, ProtocolMsg::Answer(answer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::messages::Marks;
    use crate::messages::Start;
    use p2p_net::Codec;
    use p2p_relational::query::Idents;
    use p2p_relational::{Database, DatabaseSchema, RowSet, Val};
    use p2p_storage::FileBackend;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "p2p_core_durability_{}_{}_{}",
            tag,
            std::process::id(),
            n
        ))
    }

    fn schema() -> DatabaseSchema {
        DatabaseSchema::parse("a(x: int).").unwrap()
    }

    fn durable_config() -> SystemConfig {
        SystemConfig {
            durability: true,
            ..Default::default()
        }
    }

    /// Attaching a store that already holds state (a reopened file backend
    /// from a previous process) must adopt that state, not clobber its
    /// snapshot with the fresh peer's base data — which, combined with the
    /// pre-existing WAL cursor, would amputate every logged fact from
    /// recovery.
    #[test]
    fn attach_adopts_reopened_file_store_instead_of_clobbering() {
        let dir = temp_dir("reopen");
        // "First process": fresh store, one logged fact.
        {
            let mut peer = DbPeer::new(NodeId(1), Database::new(schema()), durable_config());
            let st = PeerStorage::new(Box::new(FileBackend::open(&dir).unwrap()), 0);
            peer.attach_storage(st).unwrap();
            peer.insert_base_fact("a", vec![Val::Int(7)]).unwrap();
        }
        // "Second process": reopen the same store with a base-only peer.
        let mut peer = DbPeer::new(NodeId(1), Database::new(schema()), durable_config());
        let st = PeerStorage::new(Box::new(FileBackend::open(&dir).unwrap()), 0);
        peer.attach_storage(st).unwrap();
        assert_eq!(
            peer.database().total_tuples(),
            1,
            "the logged fact must survive the reopen"
        );
        // And a crash/restart cycle still recovers it.
        peer.crash_volatile_state();
        assert!(peer.database().is_empty(), "crash wipes memory");
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(1));
        peer.restart_and_resync(&mut ctx);
        assert_eq!(peer.database().total_tuples(), 1);
        assert_eq!(peer.stats.recoveries, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store written under one codec and attached under the other is
    /// refused, in both directions, and left as it was: read as empty, it
    /// would get this peer's base data checkpointed over its logged facts.
    #[test]
    fn a_store_reopened_under_the_other_codec_is_refused_not_read_as_empty() {
        for (wrote, reads) in [(Codec::Json, Codec::Binary), (Codec::Binary, Codec::Json)] {
            let dir = temp_dir(&format!("other_codec_{wrote}"));
            let _ = std::fs::remove_dir_all(&dir);
            let attach = |codec| -> StorageResult<DbPeer> {
                let mut peer = DbPeer::new(NodeId(1), Database::new(schema()), durable_config());
                let backend = Box::new(FileBackend::open(&dir)?);
                peer.attach_storage(PeerStorage::with_codec(backend, 0, codec))?;
                Ok(peer)
            };
            let mut peer = attach(wrote).unwrap();
            peer.insert_base_fact("a", vec![Val::Int(7)]).unwrap();
            drop(peer);
            let files = || {
                let mut files: Vec<_> = (std::fs::read_dir(&dir).unwrap())
                    .map(|e| e.unwrap().path())
                    .map(|p| (std::fs::read(&p).unwrap(), p))
                    .collect();
                files.sort();
                files
            };
            let before = files();
            let refused = attach(reads).map(|_| ());
            assert!(
                matches!(refused, Err(p2p_storage::StorageError::Corrupt(_))),
                "{wrote} store attached as {reads}: {refused:?}"
            );
            assert_eq!(files(), before, "the refused attach wrote nothing");
            assert_eq!(attach(wrote).unwrap().database().total_tuples(), 1);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Without storage a restart is pure amnesia: nothing recovered, no
    /// resync traffic, no recovery counted.
    #[test]
    fn restart_without_storage_is_amnesia() {
        let mut peer = DbPeer::new(NodeId(2), Database::new(schema()), SystemConfig::default());
        peer.db.insert_values("a", vec![Val::Int(1)]).unwrap();
        peer.crash_volatile_state();
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(2));
        peer.restart_and_resync(&mut ctx);
        assert!(peer.database().is_empty());
        assert!(ctx.take_outgoing().is_empty(), "no resync without storage");
        assert_eq!(peer.stats.crashes, 1);
        assert_eq!(peer.stats.recoveries, 0);
    }

    /// Post-build seeding goes through the WAL: a fact inserted via
    /// `insert_base_fact` (the concurrent-writer delta path) survives a
    /// crash exactly like a protocol-applied insertion.
    #[test]
    fn insert_base_fact_is_durable() {
        let mut peer = DbPeer::new(NodeId(1), Database::new(schema()), durable_config());
        let st = PeerStorage::new(Box::<p2p_storage::MemoryBackend>::default(), 0);
        peer.attach_storage(st).unwrap();
        peer.insert_base_fact("a", vec![Val::Int(41)]).unwrap();
        peer.insert_base_fact("a", vec![Val::Int(41)]).unwrap(); // dup: one WAL frame
        peer.crash_volatile_state();
        assert!(peer.database().is_empty());
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(1));
        peer.restart_and_resync(&mut ctx);
        assert_eq!(peer.database().total_tuples(), 1, "writer delta recovered");
    }

    /// A base fact the log did not take is the caller's error, not only an
    /// entry in `errors()`: it would not survive a crash.
    #[test]
    fn insert_base_fact_reports_a_failed_append() {
        let mut peer = DbPeer::new(NodeId(1), Database::new(schema()), durable_config());
        let disk = TestDisk {
            refuses_appends: true,
            ..TestDisk::default()
        };
        peer.attach_storage(PeerStorage::new(Box::new(disk), 0))
            .unwrap();
        let err = peer.insert_base_fact("a", vec![Val::Int(41)]).unwrap_err();
        assert!(matches!(err, crate::error::CoreError::Storage(_)), "{err}");
        assert_eq!(peer.errors().len(), 1, "{:?}", peer.errors());
    }

    /// A head that crashed before durably processing **any** answer resyncs
    /// under the fallback session tag; the repair must still merge, derive
    /// the head rule, and leave no session entry behind once the last
    /// outstanding resync drains.
    #[test]
    fn fallback_tagged_resync_repairs_and_drains() {
        use p2p_net::SessionId;

        let schema = DatabaseSchema::parse("a(x: int).").unwrap();
        let mut peer = DbPeer::new(NodeId(0), Database::new(schema), durable_config());
        let resolve = |s: &str| match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            _ => None,
        };
        let rule = crate::rule::CoordinationRule::parse(
            "r",
            "B:b(X) => A:a(X)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let rule_id = rule.id;
        peer.install_rule(rule.clone());
        let st = PeerStorage::new(Box::<p2p_storage::MemoryBackend>::default(), 0);
        peer.attach_storage(st).unwrap();

        peer.crash_volatile_state();
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(0));
        peer.restart_and_resync(&mut ctx);
        // No durable answer marks existed, so the one request carries the
        // fallback tag and an empty cursor.
        let out = ctx.take_outgoing();
        assert_eq!(out.len(), 1);
        let ProtocolMsg::Query(Query {
            session,
            from: Start::Since(since),
            via: Via::Repair,
            ..
        }) = &*out[0].msg
        else {
            panic!("expected a repair query, got {:?}", out[0].msg);
        };
        assert_eq!(*session, SessionId::default());
        assert!(since.is_empty());

        // The body's answer under that tag must still repair the head rule.
        let mut marks = Marks::new();
        marks.insert(Arc::<str>::from("b"), 1usize);
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(0));
        use p2p_net::Peer as _;
        let rows = AnswerRows {
            vars: rule.parts[0].vars.clone(),
            rows: RowSet::from_flat(1, 1, vec![Val::Int(7)]),
            marks,
            ..Default::default()
        };
        let answer = Answer::new(SessionId::default(), rule_id, rows, Via::Repair);
        peer.on_message(NodeId(1), ProtocolMsg::Answer(answer), &mut ctx);
        assert!(
            peer.database()
                .relation("a")
                .unwrap()
                .contains(&[Val::Int(7)]),
            "the repair must derive the head rule without a redrive"
        );
        assert!(!peer.subscriptions.resyncing());
        assert_eq!(
            peer.session_table_len(),
            0,
            "repair-only entries are swept once the last resync drains"
        );
    }

    /// Recovery takes the durable answer log — whatever sessions carried it,
    /// through a checkpoint or not — as one retained fragment per
    /// `(rule, body node)` with the newest watermark as resync cursor, and
    /// creates no session entry.
    #[test]
    fn recovery_primes_fragments_across_sessions() {
        let resolve = |s: &str| match s {
            "A" => Some(NodeId(1)),
            "B" => Some(NodeId(3)),
            "C" => Some(NodeId(4)),
            _ => None,
        };
        let schema = DatabaseSchema::parse("a(x: int, y: int).").unwrap();
        let mut peer = DbPeer::new(NodeId(1), Database::new(schema), durable_config());
        let rule = crate::rule::CoordinationRule::parse(
            "r",
            "B:b(X), C:c(Y) => A:a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let rule_id = rule.id;
        peer.install_rule(rule);
        let st = PeerStorage::new(Box::<p2p_storage::MemoryBackend>::default(), 0);
        peer.attach_storage(st).unwrap();
        let s1 = SessionId::new(NodeId(0), 1);
        let s2 = SessionId::new(NodeId(2), 2);
        // Logged out of watermark order on purpose: the newest wins.
        for (sid, v) in [(s2, 2i64), (s1, 1)] {
            let mut marks = Marks::new();
            marks.insert(Arc::<str>::from("b"), v as usize);
            let rows = AnswerRows {
                vars: [Arc::from("X")].into(),
                rows: RowSet::from_flat(1, 1, vec![Val::Int(v)]),
                marks,
                ..Default::default()
            };
            peer.log_answer_mark(sid, rule_id, NodeId(3), rows);
        }
        peer.commit().unwrap();
        peer.crash_volatile_state();
        assert_eq!(peer.retained_entries(), (0, 0), "crash wipes the state");
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(1));
        peer.restart_and_resync(&mut ctx);
        assert_eq!(peer.session_table_len(), 0, "no placeholder sessions");
        let cache = peer.subscriptions.fragment((rule_id, NodeId(3))).unwrap();
        assert_eq!(
            cache.rows.iter().collect::<Vec<_>>(),
            [[Val::Int(2)], [Val::Int(1)]],
            "united in log order"
        );
        let out = ctx.take_outgoing();
        assert_eq!(out.len(), 2, "one request per fragment, not per session");
        let ProtocolMsg::Query(Query {
            session,
            from: Start::Since(since),
            via: Via::Repair,
            ..
        }) = &*out[0].msg
        else {
            panic!("expected a repair query, got {:?}", out[0].msg);
        };
        assert_eq!(*session, s2, "tagged with the newest logged session");
        assert_eq!(since[&Arc::<str>::from("b")], 2);
    }

    /// Regression: a rule replaced under its id kept its durable answer
    /// mark — vars set once, rows accumulated, watermarks merged by maximum
    /// — so a restart primed the *new* rule's fragment with the old rule's
    /// rows and asked the body node for a delta past the old relation's
    /// watermark.
    #[test]
    fn replaced_rule_does_not_prime_the_restart_with_the_old_fragment() {
        let resolve = |s: &str| match s {
            "A" => Some(NodeId(1)),
            "B" => Some(NodeId(3)),
            "C" => Some(NodeId(4)),
            _ => None,
        };
        let parse = |text: &str| {
            crate::rule::CoordinationRule::parse("r", text, None, &resolve, &mut Idents::new())
                .unwrap()
        };
        let schema = DatabaseSchema::parse("a(x: int, y: int).").unwrap();
        let mut peer = DbPeer::new(NodeId(1), Database::new(schema), durable_config());
        let rule = parse("B:b(X), C:c(Y) => A:a(X,Y)");
        let rule_id = rule.id;
        peer.install_rule(rule);
        let st = PeerStorage::new(Box::<p2p_storage::MemoryBackend>::default(), 0);
        peer.attach_storage(st).unwrap();
        let rows = AnswerRows {
            vars: [Arc::from("X")].into(),
            rows: RowSet::from_flat(1, 1, vec![Val::Int(1)]),
            marks: [(Arc::<str>::from("b"), 9usize)].into_iter().collect(),
            ..Default::default()
        };
        peer.log_answer_mark(SessionId::new(NodeId(0), 1), rule_id, NodeId(3), rows);
        peer.commit().unwrap();

        let mut replacement = parse("B:b2(Z), C:c(Y) => A:a(Z,Y)");
        replacement.id = rule_id;
        peer.install_rule(replacement);
        peer.commit().unwrap();
        peer.crash_volatile_state();
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(1));
        peer.restart_and_resync(&mut ctx);
        assert_eq!(peer.retained_rows(), 0, "nothing of the old fragment");
        for out in ctx.take_outgoing() {
            let ProtocolMsg::Query(Query {
                from: Start::Since(since),
                via: Via::Repair,
                ..
            }) = &*out.msg
            else {
                panic!("expected a repair query, got {:?}", out.msg);
            };
            assert!(since.is_empty(), "asked since {since:?}");
        }
    }

    /// Replacing a rule the store holds no answer mark for appends nothing;
    /// replacing one it holds marks for logs `ForgetRule`, and recovery
    /// drops those marks.
    #[test]
    fn forget_rule_is_logged_only_over_marks() {
        use p2p_storage::StorageBackend as _;
        let resolve = |s: &str| match s {
            "A" => Some(NodeId(1)),
            "B" => Some(NodeId(3)),
            "C" => Some(NodeId(4)),
            _ => None,
        };
        let rule = crate::rule::CoordinationRule::parse(
            "r",
            "B:b(X), C:c(Y) => A:a(X,Y)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let schema = DatabaseSchema::parse("a(x: int, y: int).").unwrap();
        let mut peer = DbPeer::new(NodeId(1), Database::new(schema), durable_config());
        peer.install_rule(rule.clone());
        let disk = TestDisk::default();
        peer.attach_storage(PeerStorage::new(Box::new(disk.clone()), 0))
            .unwrap();
        let frames = || disk.read_wal_bytes().unwrap().len();

        let install = |peer: &mut DbPeer| {
            peer.install_rule(rule.clone());
            peer.commit().unwrap();
        };
        install(&mut peer);
        assert_eq!(frames(), 0, "no marks, no frame");
        let rows = AnswerRows {
            vars: [Arc::from("X")].into(),
            rows: RowSet::from_flat(1, 1, vec![Val::Int(1)]),
            marks: [(Arc::<str>::from("b"), 1usize)].into_iter().collect(),
            ..Default::default()
        };
        peer.log_answer_mark(SessionId::new(NodeId(0), 1), rule.id, NodeId(3), rows);
        peer.commit().unwrap();
        assert_eq!(frames(), 1);
        install(&mut peer);
        assert_eq!(frames(), 2, "the marks are forgotten");
        let recovered = PeerStorage::new(Box::new(disk.clone()), 0)
            .recover(1)
            .unwrap()
            .unwrap();
        assert!(recovered.marks.is_empty());
        install(&mut peer);
        assert_eq!(frames(), 2, "and forgetting them again says nothing");
    }

    /// A body node `B` serving `B:b(X) => A:a(X)` to head `A`, with a store
    /// on `backend`, one fact, and the subscription taken through one
    /// retired session: the cursor stands at one row.
    fn body_node_with_a_committed_cursor(
        backend: Box<dyn p2p_storage::StorageBackend>,
    ) -> (DbPeer, RuleId) {
        use p2p_net::Peer as _;
        let schema = DatabaseSchema::parse("b(x: int).").unwrap();
        let mut peer = DbPeer::new(NodeId(1), Database::new(schema), durable_config());
        peer.attach_storage(PeerStorage::new(backend, 0)).unwrap();
        peer.insert_base_fact("b", vec![Val::Int(1)]).unwrap();
        let resolve = |s: &str| match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            _ => None,
        };
        let rule = crate::rule::CoordinationRule::parse(
            "r",
            "B:b(X) => A:a(X)",
            None,
            &resolve,
            &mut Idents::new(),
        )
        .unwrap();
        let (head, session) = (NodeId(0), SessionId::new(NodeId(0), 1));
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(1));
        let query = Query::new(
            session,
            rule.id,
            rule.parts[0].clone(),
            Start::Fresh,
            Via::Session,
        );
        let query = Query {
            sn: [head].into(),
            ..query
        };
        peer.on_message(head, ProtocolMsg::Query(query), &mut ctx);
        peer.on_message(head, ProtocolMsg::Ack { session }, &mut ctx);
        let generation = 1;
        peer.on_message(
            head,
            ProtocolMsg::Fixpoint {
                session,
                generation,
            },
            &mut ctx,
        );
        assert_eq!(peer.subscriptions.cursor((head, rule.id)).unwrap().rows, 1);
        (peer, rule.id)
    }

    /// A restart resumes the cursors the store holds and owes no notice;
    /// one that recovers nothing, or a cursor the recovered database cannot
    /// vouch for, voids instead of resuming.
    #[test]
    fn restart_resumes_its_cursors_or_voids_when_it_cannot_vouch_for_them() {
        let head = NodeId(0);
        let restart = |peer: &mut DbPeer| {
            peer.crash_volatile_state();
            assert!(peer.subscriptions.owes_notice() && peer.retained_entries().0 == 0);
            let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(1));
            peer.restart_and_resync(&mut ctx);
        };

        let (mut peer, rule) =
            body_node_with_a_committed_cursor(Box::<p2p_storage::MemoryBackend>::default());
        restart(&mut peer);
        assert!(
            !peer.subscriptions.owes_notice(),
            "the store vouches for the cursor"
        );
        let cursor = peer.subscriptions.cursor((head, rule)).unwrap();
        assert_eq!((cursor.rows, cursor.watermarks["b"]), (1, 1));
        assert_eq!(cursor.part.atoms[0].relation.as_ref(), "b");

        // The same log without its insertion's frame: the cursor counts a
        // row the recovered relation does not have.
        let disk = TestDisk {
            drops_insertions: true,
            ..TestDisk::default()
        };
        let (mut peer, rule) = body_node_with_a_committed_cursor(Box::new(disk));
        restart(&mut peer);
        assert!(
            peer.subscriptions.owes_notice(),
            "a cursor past the database is not resumed"
        );
        assert!(peer.subscriptions.cursor((head, rule)).is_none());

        // A store that cannot be read back recovers nothing.
        let disk = TestDisk {
            unreadable_once_logged: true,
            ..TestDisk::default()
        };
        let (mut peer, _) = body_node_with_a_committed_cursor(Box::new(disk));
        restart(&mut peer);
        assert!(peer.subscriptions.owes_notice() && peer.retained_entries().0 == 0);
        assert_eq!(peer.errors().len(), 1, "{:?}", peer.errors());
    }

    /// A store in memory that outlives the handle a peer owns,
    /// counts how often it is replayed, and can be told to misbehave.
    #[derive(Debug, Clone, Default)]
    struct TestDisk {
        disk: Arc<std::sync::Mutex<p2p_storage::MemoryBackend>>,
        replays: Arc<AtomicU64>,
        /// Loses every `Insert` record — what going around the log leaves.
        drops_insertions: bool,
        /// Fails every append.
        refuses_appends: bool,
        /// The snapshot does not read back once a frame was logged.
        unreadable_once_logged: bool,
    }

    impl TestDisk {
        fn with<T>(&self, f: impl FnOnce(&mut p2p_storage::MemoryBackend) -> T) -> T {
            f(&mut self.disk.lock().expect("no test thread panics holding it"))
        }
    }

    impl p2p_storage::StorageBackend for TestDisk {
        fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
            if self.refuses_appends {
                return Err(p2p_storage::StorageError::Io("disk full".into()));
            }
            if self.drops_insertions {
                let mut frame = p2p_storage::WalFrame::decode(Codec::Json, frame)?;
                (frame.records).retain(|r| !matches!(r, WalRecord::Insert { .. }));
                if !frame.records.is_empty() {
                    let bytes = frame.encode(Codec::Json)?;
                    self.with(|b| b.append_wal_bytes(&bytes))?;
                }
                return Ok(());
            }
            self.with(|b| b.append_wal_bytes(frame))
        }
        fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
            self.with(|b| b.read_wal_bytes())
        }
        fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
            self.with(|b| b.write_snapshot_bytes(snapshot))
        }
        fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
            self.replays.fetch_add(1, Ordering::Relaxed);
            if self.unreadable_once_logged && !self.read_wal_bytes()?.is_empty() {
                return Err(p2p_storage::StorageError::Io("unreadable".into()));
            }
            self.with(|b| b.read_snapshot_bytes())
        }
    }

    /// A `serve` process that restarts reads its store once: what
    /// `attach_storage` replayed is what the restart hook resumes from.
    #[test]
    fn attach_then_restart_replays_the_store_once() {
        // "First process": a cursor committed, then the process is gone.
        let disk = TestDisk::default();
        drop(body_node_with_a_committed_cursor(Box::new(disk.clone())));
        disk.replays.store(0, Ordering::Relaxed);

        let schema = DatabaseSchema::parse("b(x: int).").unwrap();
        let mut peer = DbPeer::new(NodeId(1), Database::new(schema), durable_config());
        peer.attach_storage(PeerStorage::new(Box::new(disk.clone()), 0))
            .unwrap();
        assert!(peer.adopted_stored_state());
        assert_eq!(peer.database().total_tuples(), 1);
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(1));
        peer.restart_and_resync(&mut ctx);
        assert_eq!(disk.replays.load(Ordering::Relaxed), 1, "one replay");
        assert!(!peer.adopted_stored_state(), "consumed");
        assert_eq!(peer.stats.recoveries, 1);
        assert!(!peer.subscriptions.owes_notice());
        assert_eq!(peer.retained_entries().0, 1, "the cursor is served again");
    }

    /// FNV-1a, 64 bits.
    fn fnv1a(bytes: &[u8]) -> u64 {
        (bytes.iter()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// `named_nodes.json` run durably to closure, then a checkpoint at
    /// carol, whose `back_to_carol` joins alice's and bob's fragments: the
    /// snapshot holds both fragments' rows, and its bytes under either
    /// codec are the bytes a store that kept its own copy of the rows
    /// wrote (pinned by length and FNV-1a hash).
    #[test]
    fn a_join_heads_checkpoint_after_closure_keeps_its_bytes() {
        use p2p_storage::StorageBackend as _;
        let text = include_str!("../../../../tests/fixtures/named_nodes.json");
        let carol = NodeId(2);
        for (codec, pinned) in [
            (Codec::Json, (1_440, 0x21c2_05dc_3431_2d7a)),
            (Codec::Binary, (771, 0x0072_65bb_2eeb_9064)),
        ] {
            let mut b = crate::netfile::NetworkFile::from_json(text)
                .unwrap()
                .into_builder()
                .unwrap();
            b.config_mut().durability = true;
            b.config_mut().codec = codec;
            let mut sys = b.build().unwrap();
            let disk = TestDisk::default();
            let store = PeerStorage::with_codec(Box::new(disk.clone()), 1, codec);
            let peer = sys.peer_mut(carol).unwrap();
            peer.attach_storage(store).unwrap();
            let report = sys.run_update();
            assert!(report.all_closed && report.errors.is_empty(), "{codec}");
            assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
            // Base facts until the store says a checkpoint is due: the one
            // that drops the frames, the new fact's among them.
            let peer = sys.peer_mut(carol).unwrap();
            for x in 100.. {
                peer.insert_base_fact("c", vec![Val::Int(x), Val::Int(x)])
                    .unwrap();
                if disk.read_wal_bytes().unwrap().is_empty() {
                    break;
                }
            }
            let bytes = disk.read_snapshot_bytes().unwrap().unwrap();
            let rec = PeerStorage::with_codec(Box::new(disk.clone()), 0, codec)
                .recover(carol.0)
                .unwrap()
                .unwrap();
            let rows: Vec<usize> = rec.marks.values().map(|m| m.rows.len()).collect();
            assert_eq!(rows, [7, 6], "{codec}: alice's and bob's fragments");
            let shown = String::from_utf8_lossy(&bytes);
            assert_eq!((bytes.len(), fnv1a(&bytes)), pinned, "{codec}: {shown}");
        }
    }
}
