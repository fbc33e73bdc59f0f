//! Protocol messages.
//!
//! Message kinds reuse the paper's names where one exists (`requestNodes`,
//! `Query`, `Answer` — see Figure 1); the wire-size estimates drive the
//! byte accounting of `p2p-net`.
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
use p2p_relational::{RowSet, SymId};
use p2p_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Rows shipped in an answer: bindings of a body part's variables, the
/// fragment's evaluated [`RowSet`] as it left the evaluator.
///
/// The rows serialize as the array of their rows, byte for byte what a list
/// of tuples holding them writes. The serialized form omits the optional sections (`null_depths`, `marks`,
/// `dict`) when empty — ground answers under the default configuration pay
/// zero bytes for machinery they don't use.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnswerRows {
    /// Variable names, defining the column order of `rows`: the fragment's
    /// own list, shared.
    pub vars: Arc<[Arc<str>]>,
    /// One row per satisfying assignment, each `vars.len()` values wide
    /// (a foreign block may hold rows of another width; see
    /// `AnswerRows::is_ragged`).
    pub rows: RowSet,
    /// Chase depths of labeled nulls occurring in `rows` (receivers feed
    /// these into their own chase state so the depth safety valve is global).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub null_depths: Vec<(NullId, u32)>,
    /// The answerer's per-relation insertion watermarks at evaluation time.
    /// Durable receivers log these with the answer; after a crash they are
    /// the resync cursor — the restarted peer asks only for rows derived
    /// from facts beyond the last watermark it durably processed. Empty on
    /// payload-free acknowledgements (stale acks, reopen notices).
    #[serde(default, skip_serializing_if = "Marks::is_empty")]
    pub marks: Marks,
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
    /// True iff the rows are not `vars.len()` values wide. A decoded block
    /// holds rows of one width, but that width may be another one, and a
    /// peer refuses such rows where they arrive.
    pub(crate) fn is_ragged(&self) -> bool {
        !self.rows.is_empty() && self.rows.arity() != self.vars.len()
    }
}

pub use p2p_relational::query::Marks;

/// Where a query's evaluation starts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Start {
    /// From scratch: the full extension. The asker holds nothing of the
    /// fragment — first contact, or its state was lost.
    #[default]
    Fresh,
    /// From the cursor the answerer committed for this very fragment: the
    /// asker still holds what earlier sessions shipped it (see
    /// [`crate::peer`]).
    Resume,
    /// From the asker's own claim — the watermark of the last answer it
    /// durably processed (a restart's repair). Empty means never answered.
    Since(Marks),
}

/// Serialized under the key `resume` — `true` for `Resume`, the claim's
/// watermarks for `Since`, nothing for `Fresh` — so that an eager query's
/// start costs the bytes a `resume` flag does.
impl Serialize for Start {
    fn serialize<S: serde::Sink>(&self, out: &mut S) -> Result<(), S::Error> {
        match self {
            Start::Fresh => out.bool(false),
            Start::Resume => out.bool(true),
            Start::Since(marks) => marks.serialize(out),
        }
    }
}

impl Deserialize for Start {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        match c {
            serde::Content::Bool(resume) => Ok(if *resume { Start::Resume } else { Start::Fresh }),
            marks => Ok(Start::Since(Deserialize::from_content(marks)?)),
        }
    }
}

/// Which exchange a query or an answer belongs to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Via {
    /// An eager session: a Dijkstra–Scholten basic message (an answer that
    /// acknowledges its query excepted).
    #[default]
    Session,
    /// Round `k` of a rounds-mode session.
    Round(u32),
    /// A restarted peer's repair: control plane, outside every session's
    /// Dijkstra–Scholten detector and staleness rules.
    Repair,
}

/// Whether a list is empty, which the encodings leave out.
fn is_empty<T>(list: &Arc<[T]>) -> bool {
    list.is_empty()
}

/// Whether `value` is its type's default (`Start::Fresh`, `Via::Session`),
/// which the encodings leave out.
fn is_default<T: Default + PartialEq>(value: &T) -> bool {
    *value == T::default()
}

/// `Query(IDs, Q, SN)`: the head node of `rule` asks a body node for its
/// fragment's extension, subscribing itself for deltas (eager sessions and
/// rounds; a repair subscribes nothing).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Query {
    /// Update session (a repair: the newest session of the asker's durable
    /// answer log, which the repaired rows are logged under).
    pub session: SessionId,
    /// The rule this query serves.
    pub rule: RuleId,
    /// The fragment to evaluate (atoms + pushed-down constraints): the
    /// head rule's own `Arc`, so an in-process answerer's cursor and plan
    /// cache share it, and find it again by pointer. Decoded from bytes it
    /// is a fresh allocation, equal by value.
    pub part: Arc<BodyPart>,
    /// The dependency path the request travelled (the paper's `SN`; empty
    /// outside eager sessions, and then omitted): one list per session
    /// and peer, which every query it sends in the session shares.
    #[serde(default, skip_serializing_if = "is_empty")]
    pub sn: Arc<[NodeId]>,
    /// Where the answerer's evaluation starts. `Fresh` is omitted from the
    /// encoding, so a first-contact query costs what it did before.
    #[serde(rename = "resume", default, skip_serializing_if = "is_default")]
    pub from: Start,
    /// The exchange the query belongs to; `Session` is omitted.
    #[serde(default, skip_serializing_if = "is_default")]
    pub via: Via,
}

impl Query {
    /// A query of `part` for `rule`, starting `from`, on `via`, with an
    /// empty `SN`.
    pub fn new(
        session: SessionId,
        rule: RuleId,
        part: Arc<BodyPart>,
        from: Start,
        via: Via,
    ) -> Self {
        Query {
            session,
            rule,
            part,
            sn: Arc::default(),
            from,
            via,
        }
    }
}

/// `Answer(ID, QA, SN, state)`: fragment extension (delta or full). In an
/// eager session a basic message acknowledged by its recipient — except the
/// answer to a `Query` that found its answerer already engaged in the
/// session, which acknowledges that `Query` instead (`acks`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Answer {
    /// Update session (a repair: the tag of its query, echoed).
    pub session: SessionId,
    /// The rule being answered.
    pub rule: RuleId,
    /// The bindings.
    pub rows: AnswerRows,
    /// Sender's `state_u == closed` at send time — the paper's completeness
    /// flag feeding the per-rule closure criterion.
    pub complete: bool,
    /// Sender re-opened after a dynamic change: the recipient must
    /// invalidate the completeness it recorded for this rule.
    pub reopen: bool,
    /// Sent on a standing subscription — one the sender opened from its
    /// committed cursor when the session's flood reached it, without having
    /// been asked in this session (see [`crate::peer`]). The recipient
    /// applies it only to a fragment it holds. `false` — the answer to a
    /// `Query` and everything after it — is omitted from the encoding.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub pushed: bool,
    /// The Dijkstra–Scholten acknowledgement of the `Query` this answers,
    /// and not a basic message itself: the sender does not count it, and the
    /// recipient acknowledges it with nothing. The recipient handles the
    /// answer, then debits its deficit once, as if an `Ack` had followed on
    /// the pipe. Never set under
    /// [`crate::config::SystemConfig::paper_faithful`]. `false` is omitted
    /// from the encoding.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub acks: bool,
    /// The exchange the answer serves: its query's. `Session` is omitted.
    #[serde(default, skip_serializing_if = "is_default")]
    pub via: Via,
}

impl Answer {
    /// An answer of `rows` on `via` with no flag set.
    pub fn new(session: SessionId, rule: RuleId, rows: AnswerRows, via: Via) -> Self {
        Answer {
            session,
            rule,
            rows,
            complete: false,
            reopen: false,
            pushed: false,
            acks: false,
            via,
        }
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
        rules: Vec<Arc<CoordinationRule>>,
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
    /// Global update request: the root sends it to every rostered node (see
    /// [`crate::config::SystemConfig`]).
    UpdateFlood {
        /// Update session.
        session: SessionId,
    },
    /// `Query(IDs, Q, SN)`: a head node asks a body node for its fragment's
    /// extension — in an eager session, in a round, or to repair a restart.
    Query(Query),
    /// `Answer(ID, QA, SN, state)`: fragment extension (delta or full).
    Answer(Answer),
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
    /// Clean-round broadcast: fix-point reached, close everywhere and retire
    /// the session's state.
    RoundsClosed {
        /// Update session.
        session: SessionId,
        /// Total rounds executed.
        rounds: u32,
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
    /// computation and must be tracked by Dijkstra–Scholten. Rounds and
    /// repair traffic are not: a repair deliberately flows outside any
    /// session's detector (a restarted peer has no Dijkstra–Scholten state),
    /// and the driver's post-stall re-drive is what re-certifies closure. An
    /// acking answer (`Answer { acks: true }`) is not basic either: it is the
    /// acknowledgement of a basic message.
    pub(crate) fn is_basic(&self) -> bool {
        match self {
            ProtocolMsg::Query(q) => q.via == Via::Session,
            ProtocolMsg::Answer(a) => a.via == Via::Session && !a.acks,
            ProtocolMsg::UpdateFlood { .. }
            | ProtocolMsg::Unsubscribe { .. }
            | ProtocolMsg::CursorVoid { .. }
            | ProtocolMsg::AddRule { .. }
            | ProtocolMsg::DeleteRule { .. } => true,
            _ => false,
        }
    }

    /// True iff the message is an `Answer` that also acknowledges the
    /// `Query` it replies to.
    pub(crate) fn acks_query(&self) -> bool {
        matches!(self, ProtocolMsg::Answer(a) if a.acks)
    }

    /// The exchange a query or an answer belongs to.
    pub(crate) fn via(&self) -> Option<Via> {
        match self {
            ProtocolMsg::Query(q) => Some(q.via),
            ProtocolMsg::Answer(a) => Some(a.via),
            _ => None,
        }
    }

    /// The rows an answer carries.
    pub(crate) fn answer_rows(&self) -> Option<&AnswerRows> {
        match self {
            ProtocolMsg::Answer(a) => Some(&a.rows),
            _ => None,
        }
    }

    /// The update session the message belongs to, if any. Session-tagged
    /// messages are routed to the per-session state table at the receiving
    /// peer; the rest is session-less control or discovery traffic.
    pub(crate) fn session(&self) -> Option<SessionId> {
        match self {
            ProtocolMsg::Query(Query { session, .. })
            | ProtocolMsg::Answer(Answer { session, .. })
            | ProtocolMsg::StartUpdate { session }
            | ProtocolMsg::StartScopedUpdate { session }
            | ProtocolMsg::UpdateFlood { session }
            | ProtocolMsg::Unsubscribe { session, .. }
            | ProtocolMsg::CursorVoid { session }
            | ProtocolMsg::Fixpoint { session, .. }
            | ProtocolMsg::Ack { session }
            | ProtocolMsg::RoundStart { session, .. }
            | ProtocolMsg::RoundEcho { session, .. }
            | ProtocolMsg::RoundsClosed { session, .. }
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
    /// estimates (`24 + atoms*16`-style), so byte accounting sees what a
    /// transport would carry: interned rows cost 4-byte symbol ids, and
    /// dictionary deltas pay for each string exactly once per pipe.
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
            ProtocolMsg::Query(_) => "Query",
            ProtocolMsg::Answer(_) => "Answer",
            ProtocolMsg::Unsubscribe { .. } => "Unsubscribe",
            ProtocolMsg::CursorVoid { .. } => "CursorVoid",
            ProtocolMsg::Fixpoint { .. } => "Fixpoint",
            ProtocolMsg::Ack { .. } => "Ack",
            ProtocolMsg::RoundStart { .. } => "RoundStart",
            ProtocolMsg::RoundEcho { .. } => "RoundEcho",
            ProtocolMsg::RoundsClosed { .. } => "RoundsClosed",
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
        let answer = |acks, via| {
            let plain = Answer::new(sid(1), RuleId(0), AnswerRows::default(), via);
            ProtocolMsg::Answer(Answer { acks, ..plain })
        };
        assert!(answer(false, Via::Session).is_basic());
        assert!(!answer(false, Via::Session).acks_query());
        assert!(!answer(true, Via::Session).is_basic() && answer(true, Via::Session).acks_query());
        // Rounds and repair traffic stay outside Dijkstra–Scholten.
        assert!(!answer(false, Via::Round(1)).is_basic() && !answer(false, Via::Repair).is_basic());
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
        let answer = |rows| ProtocolMsg::Answer(Answer::new(sid(1), RuleId(0), rows, Via::Session));
        let empty = answer(AnswerRows::default());
        let full = answer(AnswerRows {
            vars: [Arc::from("X")].into(),
            rows: RowSet::from_flat(1, 10, (0..10).map(Val::Int).collect()),
            ..AnswerRows::default()
        });
        assert!(full.wire_size() > empty.wire_size() + 80);
    }

    #[test]
    fn wire_size_is_the_exact_encoded_length() {
        let rows = AnswerRows {
            vars: [Arc::from("X")].into(),
            rows: RowSet::from_flat(1, 1, vec![Val::str("wire-exact")]),
            null_depths: vec![(NullId::new(1, 2), 3)],
            marks: Marks::new(),
            dict: vec![(
                Val::str("wire-exact").as_sym().unwrap(),
                Arc::from("wire-exact"),
            )],
        };
        let msg = ProtocolMsg::Answer(Answer {
            complete: true,
            ..Answer::new(sid(3), RuleId(1), rows, Via::Repair)
        });
        assert_eq!(msg.wire_size(), serde_json::to_string(&msg).unwrap().len());
    }

    #[test]
    fn dict_strings_cost_bytes_once_rows_cost_ids() {
        let row = || RowSet::from_flat(1, 1, vec![Val::str("a-rather-long-shared-constant")]);
        let answer = |dict| {
            let rows = AnswerRows {
                vars: [Arc::from("X")].into(),
                rows: row(),
                dict,
                ..AnswerRows::default()
            };
            ProtocolMsg::Answer(Answer::new(sid(1), RuleId(0), rows, Via::Round(1)))
        };
        let with_dict = answer(vec![(
            row().row(0)[0].as_sym().unwrap(),
            Arc::from("a-rather-long-shared-constant"),
        )]);
        let without_dict = answer(vec![]);
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
