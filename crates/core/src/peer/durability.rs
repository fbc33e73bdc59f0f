//! Durable peers: WAL logging, crash wipe, storage recovery and the
//! watermark-based resync protocol.
//!
//! With [`crate::config::SystemConfig::durability`] on, every peer owns a
//! [`p2p_storage::PeerStorage`] and logs two kinds of events as they
//! happen, atomically with the handler that caused them:
//!
//! * every fact the update algorithm inserts
//!   ([`p2p_storage::WalRecord::Insert`], written from
//!   [`DbPeer::apply_rule_bindings`]);
//! * every fragment answer it processes
//!   ([`p2p_storage::WalRecord::Answer`]): the answerer's watermarks of the
//!   fragment's relations (the **resync cursor**) and — for a rule with
//!   more than one body node, whose head retains fragment rows in
//!   `DbPeer::fragments` — the rows, so that state can be rebuilt.
//!
//! When the store reports a checkpoint as due the peer snapshots its
//! database right there; the store adds the answer log folded to one mark
//! per `(rule, body node)` and drops the frames the snapshot covers.
//!
//! ## Crash and recovery
//!
//! A crash (`DbPeer::crash_volatile_state`) wipes everything in memory:
//! database, null mint, chase depths, the whole per-session state table
//! (update/rounds/Dijkstra–Scholten state of every interleaved session),
//! the per-peer subscription cursors and retained fragments, discovery
//! state, dedup sets. Static configuration — the coordination
//! rules targeting the node, its pipes, the roster — survives, just as a
//! real peer would re-read the network rule file at boot (Section 5).
//! Statistics survive too: they are the experiment's measurement apparatus,
//! not modelled peer state.
//!
//! At restart ([`DbPeer::restart_and_resync`]) the peer replays
//! `snapshot + WAL` into a database **tuple-identical** to the pre-crash
//! one (soundness of recovery), primes `DbPeer::fragments` from the
//! recovered fragment marks — whatever sessions carried the answers — and
//! sends one
//! [`crate::messages::ProtocolMsg::ResyncRequest`] per rule fragment,
//! carrying the newest durably-processed watermark of that fragment's body
//! node. The body node answers with a delta evaluation from exactly that
//! watermark — the same machinery as the delta waves — so only facts
//! inserted there *since the crash horizon* are re-shipped, never the full
//! extension (completeness of recovery, at delta cost). FIFO pipes make the
//! cursor sound: if the peer durably logged an answer with watermark `W`,
//! it had processed every earlier answer of that subscription, and every
//! subscription started from the full extension or from a cursor an earlier
//! logged session committed, so everything it can possibly be missing is
//! derivable from facts past `W`. The request also voids the body node's
//! own cursor for this peer, so the session after a restart is answered in
//! full once. And the restarted peer lost the cursors *it* served: it owes
//! its pipe neighbours a cursor-void notice with the next flood it sees
//! (see [`crate::peer`]), amnesiac or not.
//!
//! Liveness after a mid-wave crash is the driver's job: a crashed peer
//! cannot echo, so the wave stalls and the simulator quiesces unclosed;
//! [`crate::system::P2PSystem::run_update_resilient`] then re-drives the
//! session (a fresh round of the same session for rounds mode, a fresh
//! session-tagged epoch for eager mode) until closure is re-certified.

use crate::config::UpdateMode;
use crate::messages::{AnswerRows, ProtocolMsg};
use crate::peer::{DbPeer, Marks};
use crate::rule::{BodyPart, RuleId};
use p2p_net::{Context, SessionId};
use p2p_relational::chase::ChaseState;
use p2p_relational::{Database, NullFactory, Tuple};
use p2p_storage::{FragmentMark, PeerStorage, StorageResult, WalRecord};
use p2p_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

impl DbPeer {
    /// Attaches a durable store. A fresh store gets the initial snapshot
    /// (base data, pre-session) so recovery always has a schema-bearing
    /// starting point; a store that already holds state — e.g. a reopened
    /// [`p2p_storage::FileBackend`] from a previous process — is adopted
    /// instead: the disk is the truth, and checkpointing this peer's base
    /// data over it would silently amputate every previously logged fact
    /// from recovery.
    pub fn attach_storage(&mut self, mut storage: PeerStorage) -> StorageResult<()> {
        match storage.recover(self.id.0)? {
            Some(rec) => {
                storage.adopt(&rec);
                self.db = rec.db;
                self.nulls = NullFactory::resume(self.id.0, rec.nulls_next);
                for (id, depth) in rec.depths {
                    self.chase.record(id, depth);
                }
            }
            None => storage.snapshot(&self.db, self.nulls.minted(), self.chase.export())?,
        }
        self.storage = Some(Box::new(storage));
        Ok(())
    }

    /// Whether a durable store is attached.
    pub fn has_storage(&self) -> bool {
        self.storage.is_some()
    }

    /// Inserts one base fact **durably**: into the live database and — when
    /// a store is attached — the write-ahead log, exactly like a
    /// protocol-applied insertion. The seeding path for data arriving after
    /// build time (concurrent-writer deltas); going around the WAL here
    /// would make a later crash silently lose the fact.
    pub fn insert_base_fact(
        &mut self,
        relation: &str,
        values: Vec<p2p_relational::Val>,
    ) -> p2p_relational::error::Result<()> {
        let tuple = Tuple::new(values);
        if self.db.insert(relation, tuple.clone())? {
            self.log_insertions(&[(Arc::from(relation), tuple)]);
        }
        Ok(())
    }

    /// Write-ahead-logs freshly applied insertions (no-op without storage).
    pub(crate) fn log_insertions(&mut self, inserted: &[(Arc<str>, Tuple)]) {
        for (relation, tuple) in inserted {
            let Some(st) = self.storage.as_mut() else {
                return;
            };
            let record = WalRecord::Insert {
                relation: relation.clone(),
                tuple: tuple.clone(),
                depths: self.chase.depths_for(tuple),
                dict: st.first_use_dict(tuple.values()),
            };
            self.log(&record);
        }
    }

    /// Write-ahead-logs one processed fragment answer: the session it
    /// belongs to, the answerer's watermarks (resync cursor) and — for a
    /// rule with more than one body node, whose head retains fragment rows
    /// — the rows (cache rebuild). Payload-free acknowledgements (empty
    /// `marks`) carry no durable information.
    pub(crate) fn log_answer_mark(
        &mut self,
        sid: SessionId,
        rule: RuleId,
        from: NodeId,
        rows: &AnswerRows,
    ) {
        let Some(st) = self.storage.as_mut() else {
            return;
        };
        if rows.marks.is_empty() {
            return;
        }
        let (vars, kept) = if self.rules.get(&rule).is_some_and(|r| r.parts.len() > 1) {
            (rows.vars.clone(), rows.rows.clone())
        } else {
            Default::default()
        };
        let record = WalRecord::Answer {
            session: sid,
            rule: rule.0,
            node: from,
            dict: st.first_use_dict(kept.iter().flat_map(Tuple::values)),
            vars,
            rows: kept,
            watermarks: rows.marks.clone(),
        };
        self.log(&record);
    }

    /// Appends one record and checkpoints when the store says one is due.
    fn log(&mut self, record: &WalRecord) {
        let Some(st) = self.storage.as_mut() else {
            return;
        };
        let due = match st.log(record) {
            Ok(due) => due,
            Err(e) => return self.fail(format!("WAL append failed: {e}")),
        };
        if due {
            let (nulls_next, depths) = (self.nulls.minted(), self.chase.export());
            if let Err(e) = st.snapshot(&self.db, nulls_next, depths) {
                self.fail(format!("snapshot failed: {e}"));
            }
        }
    }

    /// Rebuilds `DbPeer::fragments` from the recovered answer log — one
    /// mark per `(rule, body node)`, rows only where a rule joins several
    /// fragments — and returns each fragment's resync cursor. Must run
    /// before any delta answer arrives: a delta joins against the *full*
    /// retained extensions, so a hole would silently lose bindings.
    fn prime_fragments(
        &mut self,
        marks: BTreeMap<(u32, NodeId), FragmentMark>,
    ) -> BTreeMap<(RuleId, NodeId), Marks> {
        let mut cursors = BTreeMap::new();
        for ((rule_raw, node), mark) in marks {
            let key = (RuleId(rule_raw), node);
            let Some(rule) = self.rules.get(&key.0) else {
                continue;
            };
            if rule.parts.len() > 1 {
                self.fragments.or_default(key).merge(&mark.vars, mark.rows);
            }
            cursors.insert(key, mark.watermarks);
        }
        cursors
    }

    /// Churn: the process dies. Everything in memory goes — including the
    /// whole per-session table; storage (and static configuration — rules,
    /// pipes, roster) survives.
    pub(crate) fn crash_volatile_state(&mut self) {
        self.stats.crashes += 1;
        self.db = Database::new(self.db.schema().clone());
        self.plans.clear();
        self.cursors.clear();
        self.void_owed = true;
        self.held.clear();
        self.fragments.clear();
        self.nulls = NullFactory::new(self.id.0);
        self.chase = ChaseState::new();
        self.sessions.clear();
        self.done.clear();
        self.disc = Default::default();
        self.seen_msgs.clear();
        self.pending_resync.clear();
        self.sym_sent.clear();
    }

    /// Churn: the process comes back. Rebuilds the database from storage,
    /// resumes the null mint past every pre-crash id, primes the retained
    /// fragment state from the durable answer log, and asks every rule
    /// fragment's body node for the delta since the newest
    /// durably-processed watermark.
    pub(crate) fn restart_and_resync(&mut self, ctx: &mut Context<ProtocolMsg>) {
        // A process that comes back serves no cursor, whatever it committed
        // before (a restarted `serve` process starts here, with no crash
        // hook behind it).
        self.void_owed = true;
        let Some(st) = self.storage.as_mut() else {
            // Amnesia baseline: without storage there is no durable state to
            // recover and no watermark to resync from — the peer genuinely
            // lost everything and rejoins empty at the next session.
            return;
        };
        // Resync traffic travels under the newest logged session's tag (the
        // default tag when nothing was ever logged).
        let mut tag = SessionId::default();
        let mut marks = BTreeMap::new();
        match st.recover(self.id.0) {
            Ok(Some(rec)) => {
                st.adopt(&rec);
                self.db = rec.db;
                self.nulls = NullFactory::resume(self.id.0, rec.nulls_next);
                for (id, depth) in rec.depths {
                    self.chase.record(id, depth);
                }
                tag = rec.last_session;
                marks = rec.marks;
                self.stats.recoveries += 1;
            }
            Ok(None) => {}
            Err(e) => self.fail(format!("recovery failed: {e}")),
        }
        let mut cursors = self.prime_fragments(marks);

        // Watermark-based resync (control plane, outside any session's
        // termination detector). Each request is tracked in
        // `pending_resync` until its answer arrives: the peer refuses to
        // close while any is outstanding and re-sends on every session
        // (re-)entry, so a dropped resync message stalls the session (which
        // the driver re-drives) instead of silently losing the missed rows
        // forever. A fragment never durably answered is asked from the
        // empty watermark.
        let rules: Vec<_> = self.rules.values().cloned().collect();
        for rule in &rules {
            for part in &rule.parts {
                let since = cursors.remove(&(rule.id, part.node)).unwrap_or_default();
                self.pending_resync
                    .insert((tag, rule.id, part.node), since.clone());
                ctx.send(
                    part.node,
                    ProtocolMsg::ResyncRequest {
                        session: tag,
                        rule: rule.id,
                        part: part.clone(),
                        since,
                    },
                );
            }
        }
    }

    /// Re-sends every outstanding resync request (at-least-once delivery;
    /// both ends are idempotent — the answerer just delta-evaluates again,
    /// the requester's cache merge deduplicates). Called when the peer
    /// (re-)enters an update session, which is exactly when the driver's
    /// re-drive gives lost resync traffic another chance.
    pub(crate) fn resend_pending_resyncs(&mut self, ctx: &mut Context<ProtocolMsg>) {
        if self.pending_resync.is_empty() {
            return;
        }
        let pending: Vec<((SessionId, RuleId, NodeId), Marks)> = self
            .pending_resync
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        for ((sid, rule, node), since) in pending {
            let part = self
                .rules
                .get(&rule)
                .and_then(|r| r.parts.iter().find(|p| p.node == node).cloned());
            match part {
                Some(part) => ctx.send(
                    node,
                    ProtocolMsg::ResyncRequest {
                        session: sid,
                        rule,
                        part,
                        since,
                    },
                ),
                // The rule (or this fragment) is gone — nothing left to
                // reconcile.
                None => {
                    self.pending_resync.remove(&(sid, rule, node));
                }
            }
        }
    }

    /// Body-node side of resync: evaluate the fragment's delta past the
    /// requester's durable watermark and ship it. An empty `since` (the
    /// requester never durably processed an answer) degenerates to the full
    /// extension — of this one fragment, never of the network. Answered
    /// regardless of what this node holds for the session: repair is
    /// control-plane data movement.
    ///
    /// A resync request also means the requester **lost its volatile
    /// fragment state**: the cursor this node committed for that requester
    /// and rule, and every delta subscription it holds for them in *any*
    /// live session, are dropped, so the next session, wave or cascade
    /// answer ships the full extension instead of a delta the requester
    /// could not join soundly. (A delta joins against the full retained
    /// extension; an answer stream resumed against a partially recovered
    /// one would silently lose bindings.)
    pub(crate) fn on_resync_request(
        &mut self,
        from: NodeId,
        sid: SessionId,
        rule: RuleId,
        part: BodyPart,
        since: BTreeMap<Arc<str>, usize>,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.add_pipe(from);
        self.cursors.remove(&(from, rule));
        for st in self.sessions.values_mut() {
            st.rnd.wave_subs.remove(&(from, rule));
            st.upd.subs.remove(&(from, rule));
        }
        let rows = self.eval_part_delta_local(rule, &part, &since, ctx);
        let payload = self.make_answer_rows(from, &part, rows);
        ctx.send(
            from,
            ProtocolMsg::ResyncAnswer {
                session: sid,
                rule,
                rows: payload,
            },
        );
    }

    /// Requester side of resync: log the answer durably and absorb it like
    /// any fragment answer — merged into the retained extension and joined
    /// semi-naively against the primed other fragments — so the repair's
    /// derivations land even without a driver re-drive. Insertions go
    /// through the standard chase (and hence the WAL), so a crash *during*
    /// recovery is itself recoverable.
    pub(crate) fn on_resync_answer(
        &mut self,
        sid: SessionId,
        from: NodeId,
        rule: RuleId,
        mut rows: AnswerRows,
    ) {
        self.pending_resync.remove(&(sid, rule, from));
        self.stats.resync_rows += rows.rows.len() as u64;
        self.absorb_dict(from, &mut rows);
        self.absorb_null_depths(&rows);
        self.log_answer_mark(sid, rule, from, &rows);
        if self.absorb_fragment(rule, from, &rows.vars, rows.rows) > 0 {
            // A wave that is under way here must not certify a clean round
            // over facts its earlier answers did not carry.
            for st in self.sessions.values_mut() {
                st.rnd.dirty_self |= st.rnd.active;
            }
        }
        // Rounds sessions join against their own wave caches: there the
        // primed rows served the repair only.
        if self.config.mode == UpdateMode::Rounds && self.pending_resync.is_empty() {
            self.fragments.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use p2p_relational::{Database, DatabaseSchema, Val};
    use p2p_storage::FileBackend;
    use std::sync::atomic::{AtomicU64, Ordering};

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
            peer.db.insert_values("a", vec![Val::Int(7)]).unwrap();
            peer.log_insertions(&[(Arc::from("a"), Tuple::new(vec![Val::Int(7)]))]);
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
        let rule =
            crate::rule::CoordinationRule::parse("r", "B:b(X) => A:a(X)", None, &resolve).unwrap();
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
        let ProtocolMsg::ResyncRequest { session, since, .. } = &*out[0].msg else {
            panic!("expected a resync request, got {:?}", out[0].msg);
        };
        assert_eq!(*session, SessionId::default());
        assert!(since.is_empty());

        // The body's answer under that tag must still repair the head rule.
        let mut marks = BTreeMap::new();
        marks.insert(Arc::<str>::from("b"), 1usize);
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(0));
        use p2p_net::Peer as _;
        peer.on_message(
            NodeId(1),
            ProtocolMsg::ResyncAnswer {
                session: SessionId::default(),
                rule: rule_id,
                rows: AnswerRows {
                    vars: rule.parts[0].vars.clone(),
                    rows: vec![Tuple::new(vec![Val::Int(7)])],
                    marks,
                    ..Default::default()
                },
            },
            &mut ctx,
        );
        assert!(
            peer.database()
                .relation("a")
                .unwrap()
                .contains(&[Val::Int(7)]),
            "the repair must derive the head rule without a redrive"
        );
        assert!(peer.pending_resync.is_empty());
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
        let rule =
            crate::rule::CoordinationRule::parse("r", "B:b(X), C:c(Y) => A:a(X,Y)", None, &resolve)
                .unwrap();
        let rule_id = rule.id;
        peer.install_rule(rule);
        let st = PeerStorage::new(Box::<p2p_storage::MemoryBackend>::default(), 0);
        peer.attach_storage(st).unwrap();
        let s1 = SessionId::new(NodeId(0), 1);
        let s2 = SessionId::new(NodeId(2), 2);
        // Logged out of watermark order on purpose: the newest wins.
        for (sid, v) in [(s2, 2i64), (s1, 1)] {
            let mut marks = BTreeMap::new();
            marks.insert(Arc::<str>::from("b"), v as usize);
            peer.log_answer_mark(
                sid,
                rule_id,
                NodeId(3),
                &AnswerRows {
                    vars: vec![Arc::from("X")],
                    rows: vec![Tuple::new(vec![Val::Int(v)])],
                    marks,
                    ..Default::default()
                },
            );
        }
        peer.crash_volatile_state();
        assert_eq!(peer.retained_entries(), (0, 0), "crash wipes the state");
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(1));
        peer.restart_and_resync(&mut ctx);
        assert_eq!(peer.session_table_len(), 0, "no placeholder sessions");
        let cache = &peer.fragments[&(rule_id, NodeId(3))];
        assert_eq!(
            cache.rows,
            vec![Tuple::new(vec![Val::Int(2)]), Tuple::new(vec![Val::Int(1)])],
            "united in log order"
        );
        let out = ctx.take_outgoing();
        assert_eq!(out.len(), 2, "one request per fragment, not per session");
        let ProtocolMsg::ResyncRequest { session, since, .. } = &*out[0].msg else {
            panic!("expected a resync request, got {:?}", out[0].msg);
        };
        assert_eq!(*session, s2, "tagged with the newest logged session");
        assert_eq!(since[&Arc::<str>::from("b")], 2);
    }
}
