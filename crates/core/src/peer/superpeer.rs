//! Driver duties (Section 5 of the paper).
//!
//! The super-peer is an ordinary peer — "a super-peer does not have any
//! other property differentiating it from other nodes" — plus driver
//! capabilities the paper's prototype gave it: routing dynamic-change
//! notifications, broadcasting a network-wide rule file ("one peer can
//! change the network topology at run-time"), and commanding statistics
//! collection/reset. Starting an update session is **not** a super-peer
//! privilege: any node handed a `StartUpdate`/`StartScopedUpdate` command
//! becomes the root of its own session, and any number of such sessions run
//! interleaved.

use crate::config::UpdateMode;
use crate::dynamic::ChangeOp;
use crate::messages::ProtocolMsg;
use crate::peer::durability::Durable;
use crate::peer::{DbPeer, SessionState};
use crate::rule::{CoordinationRule, RuleId};
use crate::stats::PeerStats;
use p2p_net::{Context, SessionId};
use p2p_topology::NodeId;
use std::sync::Arc;

impl DbPeer {
    /// Driver command: start a global update session rooted here.
    pub(crate) fn start_update(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        self.sessions.root(sid);
        match self.config.mode {
            UpdateMode::Eager => {
                st.ds.reset();
                st.ds.engage_as_root();
                st.root_quiet = false;
                let standing = !self.config.paper_faithful;
                self.begin_session(st, sid, ctx, &[], standing);
                st.upd.flood_seen = true;
                // A direct send to every rostered node: the rule file is
                // network-wide knowledge (Section 5), so the root reaches
                // components no pipe path connects it to — otherwise the
                // *global* update would silently skip them. By default this
                // send *is* the flood; under `paper_faithful` the receivers
                // also forward it along their acquaintances, as the paper
                // propagates it.
                let mut targets = self.pipes.nodes.clone();
                targets.extend(self.sessions.others(self.id));
                targets.remove(&self.id);
                self.send_basic_many(st, ctx, targets, ProtocolMsg::UpdateFlood { session: sid });
                if standing {
                    // After the flood, so a subscriber hears of the session
                    // from the flood before a push of the root's reaches it.
                    self.open_standing(st, sid, ctx);
                }
            }
            UpdateMode::Rounds => self.start_round(st, sid, 1, ctx),
        }
    }

    /// Driver command: query-dependent update rooted at this node. Pure A4
    /// propagation: only nodes on dependency paths from here participate, so
    /// the refresh touches exactly the data local queries can depend on.
    pub(crate) fn start_scoped_update(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if self.config.mode != UpdateMode::Eager {
            self.fail("query-dependent updates require the eager update mode");
            return;
        }
        self.sessions.root(sid);
        st.ds.reset();
        st.ds.engage_as_root();
        st.root_quiet = false;
        self.begin_session(st, sid, ctx, &[], false);
    }

    /// Driver command: apply a dynamic change (Section 4). The super-peer
    /// notifies the head node — `addRule(i, j, rule, id)` /
    /// `deleteRule(i, j, id)` — within its most recent session. With no
    /// session ever rooted here, the notification is routed **outside** any
    /// diffusing computation (plain send, synthetic epoch 0): the head only
    /// installs/removes the rule, and neither end creates session state —
    /// engaging a detector for a session that can never terminate would
    /// leak a permanently engaged entry.
    pub(crate) fn apply_change(&mut self, change: ChangeOp, ctx: &mut Context<ProtocolMsg>) {
        if self.config.mode != UpdateMode::Eager {
            self.fail("dynamic changes require the eager update mode");
            return;
        }
        let Some(sid) = self.sessions.rooted() else {
            let zero = SessionId::new(self.id, 0);
            match change {
                ChangeOp::AddLink { rule } => {
                    if rule.head_node == self.id {
                        self.install_rule(rule);
                    } else {
                        let head = rule.head_node;
                        ctx.send(
                            head,
                            ProtocolMsg::AddRule {
                                session: zero,
                                rule,
                            },
                        );
                    }
                }
                ChangeOp::DeleteLink { rule, head } => {
                    if head == self.id {
                        self.rules.remove(&rule);
                        self.forget_rule(rule, None);
                    } else {
                        ctx.send(
                            head,
                            ProtocolMsg::DeleteRule {
                                session: zero,
                                rule,
                            },
                        );
                    }
                }
            }
            return;
        };
        // Take this root's session entry out (re-creating a retired one: a
        // change arriving after the fix-point broadcast legitimately
        // re-opens the session; the root re-engages, re-joins, and
        // re-quiesces — the re-broadcast then retires everything again).
        let mut st = self.sessions.reopen(sid);
        if sid.root == self.id && !st.ds.engaged() {
            st.ds.engage_as_root();
            st.root_quiet = false;
        }
        if sid.epoch > 0 && !st.upd.active {
            // A retired root must re-join its own session: termination's
            // `RootTerminated` hook only re-broadcasts for an *active*
            // root, and the re-woken region can only close through that
            // broadcast.
            self.begin_session(&mut st, sid, ctx, &[], false);
        }
        match change {
            ChangeOp::AddLink { rule } => {
                let head = rule.head_node;
                if head == self.id {
                    // The change touches the root itself.
                    self.on_add_rule(&mut st, sid, rule, ctx);
                } else {
                    self.send(
                        &mut st,
                        ctx,
                        head,
                        ProtocolMsg::AddRule { session: sid, rule },
                    );
                }
            }
            ChangeOp::DeleteLink { rule, head } => {
                if head == self.id {
                    self.on_delete_rule(&mut st, sid, rule, ctx);
                } else {
                    self.send(
                        &mut st,
                        ctx,
                        head,
                        ProtocolMsg::DeleteRule { session: sid, rule },
                    );
                }
            }
        }
        self.after_event(&mut st, sid, ctx);
        self.finish_session_event(sid, st, None);
    }

    /// Driver command: resume a stalled rounds-mode session (churn broke a
    /// wave — a crashed peer cannot echo, so the round never completed).
    /// Starting a fresh round strictly above every peer's current one
    /// restarts the wave machinery while keeping the session's
    /// subscriptions, so the resumed session ships deltas, not the world:
    /// only a fragment whose answer went missing is asked for afresh. Its
    /// clean round re-certifies the fix-point, and its `RoundsClosed`
    /// commits the cursors the next session resumes from.
    pub(crate) fn on_resume_rounds(
        &mut self,
        st: &mut SessionState,
        sid: SessionId,
        round: u32,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if self.config.mode != UpdateMode::Rounds {
            self.fail("ResumeRounds requires the rounds update mode");
            return;
        }
        self.start_round(st, sid, round, ctx);
    }

    /// Driver command: gather statistics from every peer.
    pub(crate) fn on_collect_stats(&mut self, from: NodeId, ctx: &mut Context<ProtocolMsg>) {
        if let Some(collected) = self.sessions.collected_mut() {
            collected.clear();
            collected.insert(self.id, self.stats.clone());
            ctx.send_to_many(self.sessions.others(self.id), ProtocolMsg::CollectStats);
        } else {
            ctx.send(
                from,
                ProtocolMsg::StatsReport {
                    stats: self.stats.clone(),
                },
            );
        }
    }

    /// A peer's statistics arriving at the super-peer.
    pub(crate) fn on_stats_report(&mut self, from: NodeId, stats: PeerStats) {
        if let Some(collected) = self.sessions.collected_mut() {
            collected.insert(from, stats);
        }
    }

    /// Driver command: reset statistics at all peers.
    pub(crate) fn on_reset_stats(&mut self, _from: NodeId, ctx: &mut Context<ProtocolMsg>) {
        if self.sessions.is_super() {
            ctx.send_to_many(self.sessions.others(self.id), ProtocolMsg::ResetStats);
        }
        self.stats.reset();
    }

    /// Rule-file broadcast: every peer replaces its rules with the ones
    /// targeting it and recomputes its pipes — "each peer looks for relevant
    /// to it coordination rules, reads them, creates and drops pipes with
    /// other nodes, where necessary".
    pub(crate) fn on_broadcast_rules(
        &mut self,
        _from: NodeId,
        rules: Vec<Arc<CoordinationRule>>,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if self.sessions.is_super() {
            // One shared payload for the whole roster — the rule file used
            // to be cloned once per peer.
            ctx.send_to_many(
                self.sessions.others(self.id),
                ProtocolMsg::BroadcastRules {
                    rules: rules.clone(),
                },
            );
        }
        // Adopt the new rule set: nothing retained for the old one — as a
        // head or as a body node, in memory or in the store — outlives it.
        let heads: Vec<RuleId> = std::mem::take(&mut self.rules).into_keys().collect();
        for rule in heads {
            self.forget_rule(rule, None);
        }
        self.pipes.nodes.clear();
        (self.subscriptions).discard(self.storage.as_deref_mut().map(Durable::log));
        for rule in rules {
            if rule.head_node == self.id {
                self.install_rule(Arc::clone(&rule));
            }
            if rule.parts.iter().any(|p| p.node == self.id) {
                self.add_pipe(rule.head_node);
            }
        }
        // Sessions and discovery knowledge built on the old topology are
        // void.
        self.sessions.discard();
        self.disc = Default::default();
        self.in_cycle = true; // conservative until re-analysed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::rule::CoordinationRule;
    use p2p_relational::query::Idents;
    use p2p_relational::{Database, DatabaseSchema};

    fn resolve(s: &str) -> Option<NodeId> {
        match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            _ => None,
        }
    }

    /// A dynamic change applied before any session ever started is routed
    /// outside the session machinery: nothing is engaged, nothing leaks,
    /// and the notification carries the synthetic epoch-0 tag.
    #[test]
    fn pre_session_change_creates_no_session_state() {
        let schema = DatabaseSchema::parse("a(x: int).").unwrap();
        let mut peer = DbPeer::new(NodeId(0), Database::new(schema), SystemConfig::default());
        peer.make_super(vec![NodeId(0), NodeId(1)]);
        let rule =
            CoordinationRule::parse("r", "A:a(X) => B:b(X)", None, &resolve, &mut Idents::new())
                .unwrap();
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(0));
        peer.apply_change(ChangeOp::AddLink { rule: rule.clone() }, &mut ctx);
        let out = ctx.take_outgoing();
        assert_eq!(out.len(), 1);
        match &*out[0].msg {
            ProtocolMsg::AddRule { session, .. } => assert_eq!(session.epoch, 0),
            other => panic!("expected AddRule, got {other:?}"),
        }
        assert_eq!(
            peer.session_table_len(),
            0,
            "no session may be created (a detector for it could never terminate)"
        );
        assert_eq!(peer.sessions_done(), 0);

        // Deleting pre-session likewise only routes the notification.
        let mut ctx = Context::new(p2p_net::SimTime::ZERO, NodeId(0));
        peer.apply_change(
            ChangeOp::DeleteLink {
                rule: rule.id,
                head: NodeId(1),
            },
            &mut ctx,
        );
        assert_eq!(peer.session_table_len(), 0);
    }
}
