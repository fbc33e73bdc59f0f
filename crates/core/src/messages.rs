//! Protocol messages.
//!
//! Message kinds reuse the paper's names where one exists (`requestNodes`,
//! `Query`, `Answer` — see Figure 1); the wire-size estimates drive the
//! byte accounting and bandwidth-aware latency of `p2p-net`.
//!
//! Every message belonging to an update session carries its
//! [`SessionId`] — the pair `(root, epoch)` identifying the diffusing
//! computation it serves. Any number of sessions, initiated by any nodes,
//! run interleaved in one network run; the session tag is what routes each
//! message to the right per-session state table at the receiving peer and
//! what the transport layer attributes traces and per-session traffic
//! counters by.

use crate::dynamic::ChangeOp;
use crate::rule::{BodyPart, CoordinationRule, RuleId};
use crate::stats::PeerStats;
use p2p_net::{SessionId, Wire};
use p2p_relational::value::NullId;
use p2p_relational::{SymId, Tuple};
use p2p_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Rows shipped in an answer: bindings of a body part's variables.
///
/// The serialized form omits the optional sections (`null_depths`, `marks`,
/// `dict`) when empty — ground answers under the default configuration pay
/// zero bytes for machinery they don't use.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnswerRows {
    /// Variable names, defining the column order of `rows`.
    pub vars: Vec<Arc<str>>,
    /// One tuple per satisfying assignment.
    pub rows: Vec<Tuple>,
    /// Chase depths of labeled nulls occurring in `rows` (receivers feed
    /// these into their own chase state so the depth safety valve is global).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub null_depths: Vec<(NullId, u32)>,
    /// The answerer's per-relation insertion watermarks at evaluation time.
    /// Durable receivers log these with the answer; after a crash they are
    /// the resync cursor — the restarted peer asks only for rows derived
    /// from facts beyond the last watermark it durably processed. Empty on
    /// payload-free acknowledgements (stale acks, reopen notices).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub marks: BTreeMap<Arc<str>, usize>,
    /// First-use dictionary delta: `(symbol, string)` definitions for
    /// interned constants in `rows` that the sender has never shipped to
    /// this recipient before. Rows carry 4-byte `SymId`s; this is the sync
    /// that lets the recipient resolve them — sound because the paper's
    /// Definition 1 makes the constant set `C` network-wide. Each string
    /// crosses each pipe at most once; the receiver folds the delta into its
    /// catalog view before touching the rows.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub dict: Vec<(SymId, Arc<str>)>,
}

impl AnswerRows {
    /// Exact encoded size of this payload in bytes.
    pub fn wire_size(&self) -> usize {
        p2p_net::encoded_wire_size(self)
    }

    /// True iff some row is not `vars.len()` values wide: both codecs carry
    /// such rows, and a peer refuses them where they arrive.
    pub fn is_ragged(&self) -> bool {
        self.rows.iter().any(|t| t.arity() != self.vars.len())
    }
}

/// All messages exchanged by peers (and by the external driver with the
/// super-peer).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProtocolMsg {
    // ---------------- driver → root commands ----------------
    /// Kick off topology discovery (algorithm A1).
    StartDiscovery,
    /// Kick off a global update session rooted at the receiving node.
    StartUpdate {
        /// The session (the receiving node is its root).
        session: SessionId,
    },
    /// Kick off a **query-dependent** update (Section 5: the prototype
    /// "supports both global and query-dependent updates handling"): the
    /// receiving node refreshes only the data its own dependency paths can
    /// reach, via pure A4 query propagation — no flood, no other roots.
    StartScopedUpdate {
        /// The session (the receiving node is its root).
        session: SessionId,
    },
    /// Apply one dynamic network change (Section 4). The super-peer routes
    /// the resulting `addRule`/`deleteRule` notification to the head node.
    ApplyChange {
        /// The change operation.
        change: ChangeOp,
    },
    /// Ask every peer for its statistics (flooded; peers reply with
    /// [`ProtocolMsg::StatsReport`] straight to the super-peer).
    CollectStats,
    /// Reset statistics at all peers (flooded).
    ResetStats,
    /// Replace the coordination rules of the whole network from a rule file
    /// read by the super-peer (Section 5: "one peer can change the network
    /// topology at runtime"). Flooded; every peer picks out the rules
    /// relevant to it.
    BroadcastRules {
        /// The full new rule set.
        rules: Vec<CoordinationRule>,
    },

    // ---------------- topology discovery (A1–A3) ----------------
    /// `requestNodes(IDs, IDo)`: sender asks the recipient to explore on
    /// behalf of `owner`.
    RequestNodes {
        /// The node on whose behalf discovery runs (`IDo`).
        owner: NodeId,
    },
    /// `processAnswer(...)`: dependency edges discovered so far, plus the
    /// answering node's discovery state.
    DiscoveryAnswer {
        /// Owner this answer serves.
        owner: NodeId,
        /// Dependency edges known to the answerer.
        edges: BTreeSet<(NodeId, NodeId)>,
        /// Answerer's `state_d == closed`.
        closed: bool,
        /// This branch of the exploration is exhausted.
        finished: bool,
    },
    /// Owner's final broadcast: discovery is complete network-wide, every
    /// participant may close and compute its maximal dependency paths.
    DiscoveryClosed,

    // ---------------- update, eager mode (A4–A6) ----------------
    /// Global update request flooded along pipes (see
    /// [`crate::config::Initiation::Flood`]).
    UpdateFlood {
        /// Update session.
        session: SessionId,
    },
    /// `Query(IDs, Q, SN)`: the head node of `rule` asks a body node for its
    /// fragment's extension, subscribing itself for deltas.
    Query {
        /// Update session.
        session: SessionId,
        /// The rule this query serves.
        rule: RuleId,
        /// The fragment to evaluate (atoms + pushed-down constraints).
        part: BodyPart,
        /// The dependency path the request travelled (the paper's `SN`).
        sn: Vec<NodeId>,
        /// The sender still holds what earlier sessions shipped it for this
        /// fragment, so the answerer may resume from its committed cursor
        /// instead of shipping the full extension (see [`crate::peer`]).
        /// `false` — first contact, or the state was lost — is omitted from
        /// the encoding.
        #[serde(default, skip_serializing_if = "std::ops::Not::not")]
        resume: bool,
    },
    /// `Answer(ID, QA, SN, state)`: fragment extension (delta or full).
    /// A basic message acknowledged by its recipient — except the answer to
    /// a `Query` that found its answerer already engaged in the session,
    /// which acknowledges that `Query` instead (`acks`).
    Answer {
        /// Update session.
        session: SessionId,
        /// The rule being answered.
        rule: RuleId,
        /// The bindings.
        rows: AnswerRows,
        /// Sender's `state_u == closed` at send time — the paper's
        /// completeness flag feeding the per-rule closure criterion.
        complete: bool,
        /// Sender re-opened after a dynamic change: the recipient must
        /// invalidate the completeness it recorded for this rule.
        reopen: bool,
        /// Sent on a standing subscription — one the sender opened from its
        /// committed cursor when the session's flood reached it, without
        /// having been asked in this session (see [`crate::peer`]). The
        /// recipient applies it only to a fragment it holds. `false` — the
        /// answer to a `Query` and everything after it — is omitted from
        /// the encoding.
        #[serde(default, skip_serializing_if = "std::ops::Not::not")]
        pushed: bool,
        /// The Dijkstra–Scholten acknowledgement of the `Query` this
        /// answers, and not a basic message itself: the sender does not
        /// count it, and the recipient acknowledges it with nothing. The
        /// recipient handles the answer, then debits its deficit once, as
        /// if an `Ack` had followed on the pipe. Never set under
        /// [`crate::config::SystemConfig::paper_faithful`]. `false` is
        /// omitted from the encoding.
        #[serde(default, skip_serializing_if = "std::ops::Not::not")]
        acks: bool,
    },
    /// Head node dropped the rule (dynamic `deleteLink`); the body node
    /// removes the subscription.
    Unsubscribe {
        /// Update session.
        session: SessionId,
        /// Rule whose subscription dies.
        rule: RuleId,
    },
    /// Cursor-void notice: the sender discarded the cursors of the
    /// subscriptions it served without its subscribers having asked (it
    /// restarted, or adopted a new rule file), so its silence on a standing
    /// subscription no longer means "nothing new". The recipient stops
    /// holding the sender's fragments and queries them afresh within the
    /// same session.
    CursorVoid {
        /// Update session.
        session: SessionId,
    },
    /// Root's fix-point broadcast: the diffusing computation terminated;
    /// everyone still open closes (`ClosedBy::RootBroadcast`) and retires
    /// the session's state.
    Fixpoint {
        /// Update session.
        session: SessionId,
        /// Broadcast generation (re-broadcasts happen when dynamic changes
        /// re-open and re-quiesce the same session).
        generation: u32,
    },
    /// Dijkstra–Scholten acknowledgement (control plane). Session-tagged so
    /// the receiver debits the right session's deficit counter — each
    /// session is its own diffusing computation with its own detector. A
    /// `Query` acknowledged at once gets none: its `Answer` acknowledges it,
    /// and that answer gets none either.
    Ack {
        /// The session whose basic message is being acknowledged.
        session: SessionId,
    },

    // ---------------- update, rounds mode ----------------
    /// Round `round` begins: flooded along pipes, building the echo tree.
    RoundStart {
        /// Update session.
        session: SessionId,
        /// Round number (1-based within a session).
        round: u32,
    },
    /// Echo to the flood parent: this subtree is done with the round.
    RoundEcho {
        /// Update session.
        session: SessionId,
        /// Round number.
        round: u32,
        /// Whether anything was inserted in the subtree this round.
        dirty: bool,
    },
    /// Per-rule fragment query within a round.
    WaveQuery {
        /// Update session.
        session: SessionId,
        /// Round number.
        round: u32,
        /// Rule served.
        rule: RuleId,
        /// Fragment to evaluate.
        part: BodyPart,
        /// The sender holds everything the answerer shipped it for this
        /// fragment — up to the committed cursor, and every answer of this
        /// session — so the answer may be a delta (see
        /// [`crate::peer::rounds`]). `false` — the session's first query of
        /// a fragment not held, or an answer went missing — is omitted from
        /// the encoding.
        #[serde(default, skip_serializing_if = "std::ops::Not::not")]
        resume: bool,
    },
    /// Fragment extension for a round.
    WaveAnswer {
        /// Update session.
        session: SessionId,
        /// Round number.
        round: u32,
        /// Rule served.
        rule: RuleId,
        /// Full bindings as of the answerer's current state.
        rows: AnswerRows,
    },
    /// Delta fragment extension for a round (off under
    /// `SystemConfig::paper_faithful`): only the rows, not yet shipped in
    /// this session, derived from facts inserted since the answerer's last
    /// answer to this requester. A session's first answer to a query is a
    /// [`ProtocolMsg::WaveAnswer`] — the full extension, or the delta since
    /// the committed cursor; the requester merges either into what it holds
    /// of the fragment and joins semi-naively.
    WaveAnswerDelta {
        /// Update session.
        session: SessionId,
        /// Round number.
        round: u32,
        /// Rule served.
        rule: RuleId,
        /// The new bindings only.
        rows: AnswerRows,
    },
    /// Clean-round broadcast: fix-point reached, close everywhere and retire
    /// the session's state.
    RoundsClosed {
        /// Update session.
        session: SessionId,
        /// Total rounds executed.
        rounds: u32,
    },

    // ---------------- durability & churn ----------------
    /// A restarted peer asks a rule fragment's body node for everything it
    /// missed while down: rows of `part` derived from facts the body node
    /// inserted after `since` — the watermark of the last answer the
    /// requester **durably** processed (empty = never answered, which
    /// degenerates to the full extension). This reuses the delta-wave
    /// watermark machinery, so recovery never re-propagates the world.
    ResyncRequest {
        /// The newest session in the requester's durable answer log: the
        /// tag repair traffic is attributed to and logged under. The repaired
        /// rows flow into the requester's per-peer fragment state.
        session: SessionId,
        /// The rule whose fragment is being reconciled.
        rule: RuleId,
        /// The fragment to evaluate.
        part: BodyPart,
        /// The requester's last durable watermark of the answerer's
        /// database.
        since: BTreeMap<Arc<str>, usize>,
    },
    /// The body node's reply: the delta since the requested watermark (the
    /// payload's `marks` carry the new watermark, as in every answer).
    ResyncAnswer {
        /// The tag of the request, echoed.
        session: SessionId,
        /// The rule being reconciled.
        rule: RuleId,
        /// The missed rows.
        rows: AnswerRows,
    },
    /// Driver command: resume a stalled rounds-mode session at `round`
    /// after churn broke a wave (a crashed peer cannot echo, so the echo
    /// tree never completes; the driver detects the stall at quiescence and
    /// re-drives). The session's subscriptions survive, so the resumed wave
    /// ships deltas, not the world.
    ResumeRounds {
        /// The stalled session to resume.
        session: SessionId,
        /// The round to start (strictly above every peer's current round).
        round: u32,
    },

    // ---------------- dynamic changes (Section 4) ----------------
    /// `addRule(i, j, rule, id)` notification to the head node, applied
    /// within `session`.
    AddRule {
        /// The session the change joins (the super-peer's current one).
        session: SessionId,
        /// The new rule (already carrying its network-unique id).
        rule: CoordinationRule,
    },
    /// `deleteRule(i, j, id)` notification to the head node.
    DeleteRule {
        /// The session the change joins.
        session: SessionId,
        /// The rule to drop.
        rule: RuleId,
    },

    // ---------------- statistics ----------------
    /// A peer's statistics, sent to the super-peer on `CollectStats`.
    StatsReport {
        /// The peer's counters.
        stats: PeerStats,
    },
}

impl ProtocolMsg {
    /// True iff the message belongs to an eager update's diffusing
    /// computation and must be tracked by Dijkstra–Scholten. Resync
    /// traffic is deliberately control-plane: it flows outside any
    /// session's detector (a restarted peer has no Dijkstra–Scholten
    /// state), and the driver's post-stall re-drive is what re-certifies
    /// closure. An acking answer (`Answer { acks: true }`) is not basic
    /// either: it is the acknowledgement of a basic message.
    pub fn is_basic(&self) -> bool {
        matches!(
            self,
            ProtocolMsg::UpdateFlood { .. }
                | ProtocolMsg::Query { .. }
                | ProtocolMsg::Answer { acks: false, .. }
                | ProtocolMsg::Unsubscribe { .. }
                | ProtocolMsg::CursorVoid { .. }
                | ProtocolMsg::AddRule { .. }
                | ProtocolMsg::DeleteRule { .. }
        )
    }

    /// True iff the message is an `Answer` that also acknowledges the
    /// `Query` it replies to.
    pub(crate) fn acks_query(&self) -> bool {
        matches!(self, ProtocolMsg::Answer { acks: true, .. })
    }

    /// The rows an answer of either update mode or a resync answer carries.
    pub fn answer_rows(&self) -> Option<&AnswerRows> {
        match self {
            ProtocolMsg::Answer { rows, .. }
            | ProtocolMsg::WaveAnswer { rows, .. }
            | ProtocolMsg::WaveAnswerDelta { rows, .. }
            | ProtocolMsg::ResyncAnswer { rows, .. } => Some(rows),
            _ => None,
        }
    }

    /// The update session the message belongs to, if any. Session-tagged
    /// messages are routed to the per-session state table at the receiving
    /// peer; the rest is session-less control or discovery traffic.
    pub fn session(&self) -> Option<SessionId> {
        match self {
            ProtocolMsg::StartUpdate { session }
            | ProtocolMsg::StartScopedUpdate { session }
            | ProtocolMsg::UpdateFlood { session }
            | ProtocolMsg::Query { session, .. }
            | ProtocolMsg::Answer { session, .. }
            | ProtocolMsg::Unsubscribe { session, .. }
            | ProtocolMsg::CursorVoid { session }
            | ProtocolMsg::Fixpoint { session, .. }
            | ProtocolMsg::Ack { session }
            | ProtocolMsg::RoundStart { session, .. }
            | ProtocolMsg::RoundEcho { session, .. }
            | ProtocolMsg::WaveQuery { session, .. }
            | ProtocolMsg::WaveAnswer { session, .. }
            | ProtocolMsg::WaveAnswerDelta { session, .. }
            | ProtocolMsg::RoundsClosed { session, .. }
            | ProtocolMsg::ResyncRequest { session, .. }
            | ProtocolMsg::ResyncAnswer { session, .. }
            | ProtocolMsg::ResumeRounds { session, .. }
            | ProtocolMsg::AddRule { session, .. }
            | ProtocolMsg::DeleteRule { session, .. } => Some(*session),
            _ => None,
        }
    }
}

impl Wire for ProtocolMsg {
    /// The **real** encoded size of the message — the exact byte length of
    /// its serialized form. This replaced the old per-variant field-count
    /// estimates (`24 + atoms*16`-style), so byte accounting and the
    /// bandwidth-aware latency model see what a transport would carry:
    /// interned rows cost 4-byte symbol ids, and dictionary deltas pay for
    /// each string exactly once per pipe.
    fn wire_size(&self) -> usize {
        p2p_net::encoded_wire_size(self)
    }

    /// Codec-true size: JSON length under [`p2p_net::Codec::Json`], the
    /// specialized binary encoding's length under
    /// [`p2p_net::Codec::Binary`]. Either way the measurement is one
    /// encode pass; the runtimes call this once per send. The JSON length
    /// is counted as the message streams by — no text, no allocation; the
    /// binary length is that of the frame, which is built and dropped.
    fn wire_size_with(&self, codec: p2p_net::Codec) -> usize {
        match codec {
            p2p_net::Codec::Json => self.wire_size(),
            p2p_net::Codec::Binary => crate::codec::encoded_msg_len(self),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            ProtocolMsg::StartDiscovery => "StartDiscovery",
            ProtocolMsg::StartUpdate { .. } => "StartUpdate",
            ProtocolMsg::StartScopedUpdate { .. } => "StartScopedUpdate",
            ProtocolMsg::ApplyChange { .. } => "ApplyChange",
            ProtocolMsg::CollectStats => "CollectStats",
            ProtocolMsg::ResetStats => "ResetStats",
            ProtocolMsg::BroadcastRules { .. } => "BroadcastRules",
            ProtocolMsg::RequestNodes { .. } => "requestNodes",
            ProtocolMsg::DiscoveryAnswer { .. } => "processAnswer",
            ProtocolMsg::DiscoveryClosed => "DiscoveryClosed",
            ProtocolMsg::UpdateFlood { .. } => "UpdateFlood",
            ProtocolMsg::Query { .. } => "Query",
            ProtocolMsg::Answer { .. } => "Answer",
            ProtocolMsg::Unsubscribe { .. } => "Unsubscribe",
            ProtocolMsg::CursorVoid { .. } => "CursorVoid",
            ProtocolMsg::Fixpoint { .. } => "Fixpoint",
            ProtocolMsg::Ack { .. } => "Ack",
            ProtocolMsg::RoundStart { .. } => "RoundStart",
            ProtocolMsg::RoundEcho { .. } => "RoundEcho",
            ProtocolMsg::WaveQuery { .. } => "WaveQuery",
            ProtocolMsg::WaveAnswer { .. } => "WaveAnswer",
            ProtocolMsg::WaveAnswerDelta { .. } => "WaveAnswerDelta",
            ProtocolMsg::RoundsClosed { .. } => "RoundsClosed",
            ProtocolMsg::ResyncRequest { .. } => "ResyncRequest",
            ProtocolMsg::ResyncAnswer { .. } => "ResyncAnswer",
            ProtocolMsg::ResumeRounds { .. } => "ResumeRounds",
            ProtocolMsg::AddRule { .. } => "addRule",
            ProtocolMsg::DeleteRule { .. } => "deleteRule",
            ProtocolMsg::StatsReport { .. } => "StatsReport",
        }
    }

    /// Per-session traffic attribution for the transport layer's traces and
    /// counters.
    fn session(&self) -> Option<SessionId> {
        ProtocolMsg::session(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_relational::Val;

    fn sid(epoch: u64) -> SessionId {
        SessionId::new(NodeId(0), epoch)
    }

    #[test]
    fn basic_classification() {
        assert!(ProtocolMsg::UpdateFlood { session: sid(1) }.is_basic());
        assert!(!ProtocolMsg::Ack { session: sid(1) }.is_basic());
        assert!(!ProtocolMsg::Fixpoint {
            session: sid(1),
            generation: 0
        }
        .is_basic());
        assert!(!ProtocolMsg::RequestNodes { owner: NodeId(0) }.is_basic());
        let answer = |acks| ProtocolMsg::Answer {
            session: sid(1),
            rule: RuleId(0),
            rows: AnswerRows::default(),
            complete: false,
            reopen: false,
            pushed: false,
            acks,
        };
        assert!(answer(false).is_basic() && !answer(false).acks_query());
        assert!(!answer(true).is_basic() && answer(true).acks_query());
        assert!(!ProtocolMsg::RoundStart {
            session: sid(1),
            round: 1
        }
        .is_basic());
    }

    #[test]
    fn session_tags_cover_all_update_traffic() {
        assert_eq!(
            ProtocolMsg::UpdateFlood { session: sid(3) }.session(),
            Some(sid(3))
        );
        assert_eq!(ProtocolMsg::Ack { session: sid(2) }.session(), Some(sid(2)));
        assert_eq!(
            ProtocolMsg::RoundEcho {
                session: sid(4),
                round: 1,
                dirty: false
            }
            .session(),
            Some(sid(4))
        );
        assert_eq!(ProtocolMsg::StartDiscovery.session(), None);
        assert_eq!(ProtocolMsg::CollectStats.session(), None);
        // The Wire impl exposes the same attribution to the runtimes.
        assert_eq!(
            Wire::session(&ProtocolMsg::UpdateFlood { session: sid(3) }),
            Some(sid(3))
        );
    }

    #[test]
    fn answer_size_scales_with_rows() {
        let empty = ProtocolMsg::Answer {
            session: sid(1),
            rule: RuleId(0),
            rows: AnswerRows::default(),
            complete: false,
            reopen: false,
            pushed: false,
            acks: false,
        };
        let full = ProtocolMsg::Answer {
            session: sid(1),
            rule: RuleId(0),
            rows: AnswerRows {
                vars: vec![Arc::from("X")],
                rows: (0..10).map(|i| Tuple::new(vec![Val::Int(i)])).collect(),
                null_depths: vec![],
                marks: BTreeMap::new(),
                dict: vec![],
            },
            complete: false,
            reopen: false,
            pushed: false,
            acks: false,
        };
        assert!(full.wire_size() > empty.wire_size() + 80);
    }

    #[test]
    fn wire_size_is_the_exact_encoded_length() {
        let msg = ProtocolMsg::Answer {
            session: sid(3),
            rule: RuleId(1),
            rows: AnswerRows {
                vars: vec![Arc::from("X")],
                rows: vec![Tuple::new(vec![Val::str("wire-exact")])],
                null_depths: vec![(NullId::new(1, 2), 3)],
                marks: BTreeMap::new(),
                dict: vec![(
                    Val::str("wire-exact").as_sym().unwrap(),
                    Arc::from("wire-exact"),
                )],
            },
            complete: true,
            reopen: false,
            pushed: false,
            acks: false,
        };
        assert_eq!(msg.wire_size(), serde_json::to_string(&msg).unwrap().len());
    }

    #[test]
    fn dict_strings_cost_bytes_once_rows_cost_ids() {
        let row = || Tuple::new(vec![Val::str("a-rather-long-shared-constant")]);
        let with_dict = ProtocolMsg::WaveAnswer {
            session: sid(1),
            round: 1,
            rule: RuleId(0),
            rows: AnswerRows {
                vars: vec![Arc::from("X")],
                rows: vec![row()],
                null_depths: vec![],
                marks: BTreeMap::new(),
                dict: vec![(
                    row().0[0].as_sym().unwrap(),
                    Arc::from("a-rather-long-shared-constant"),
                )],
            },
        };
        let without_dict = ProtocolMsg::WaveAnswer {
            session: sid(1),
            round: 1,
            rule: RuleId(0),
            rows: AnswerRows {
                vars: vec![Arc::from("X")],
                rows: vec![row()],
                null_depths: vec![],
                marks: BTreeMap::new(),
                dict: vec![],
            },
        };
        // First use pays the string; later rows carry only the 4-byte id.
        assert!(with_dict.wire_size() > without_dict.wire_size() + 29);
    }

    #[test]
    fn kinds_match_paper_names() {
        assert_eq!(
            ProtocolMsg::RequestNodes { owner: NodeId(0) }.kind(),
            "requestNodes"
        );
        assert_eq!(
            ProtocolMsg::DiscoveryAnswer {
                owner: NodeId(0),
                edges: BTreeSet::new(),
                closed: false,
                finished: false
            }
            .kind(),
            "processAnswer"
        );
    }
}
