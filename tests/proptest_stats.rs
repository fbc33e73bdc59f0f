//! `NetStats` against a reference model: the transport counters as ordered
//! maps keyed by node and by kind name, counted the straightforward way.
//! Random sends, deliveries and merges in either direction go to two
//! `NetStats` and to two models. Node ids run up to `u32::MAX`. Every kind
//! text comes at two addresses. After every step each side must count what
//! its model counts, through every accessor and in its display.

use p2pdb::net::{NetStats, NodeNetStats, SessionId, SimTime};
use p2pdb::topology::NodeId;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::OnceLock;

const TEXTS: [&str; 4] = ["Query", "Answer", "Ack", "odd \"kind\""];

/// Each kind text twice: the literal and a copy at another address.
fn kinds() -> &'static [&'static str; 8] {
    static KINDS: OnceLock<[&'static str; 8]> = OnceLock::new();
    KINDS.get_or_init(|| {
        let copy = |i: usize| -> &'static str { Box::leak(TEXTS[i].to_string().into_boxed_str()) };
        [
            TEXTS[0],
            TEXTS[1],
            TEXTS[2],
            TEXTS[3],
            copy(0),
            copy(1),
            copy(2),
            copy(3),
        ]
    })
}

#[derive(Debug, Clone, Default)]
struct ModelNode {
    sent: u64,
    received: u64,
    bytes_sent: u64,
    bytes_received: u64,
    sent_by_kind: BTreeMap<String, u64>,
}

/// What `NetStats` counts, field for field.
#[derive(Debug, Clone, Default)]
struct Model {
    per_node: BTreeMap<NodeId, ModelNode>,
    per_session: BTreeMap<SessionId, (u64, u64)>,
    total_messages: u64,
    total_bytes: u64,
    dropped: u64,
    finished_at: SimTime,
}

impl Model {
    fn send(&mut self, from: NodeId, kind: &str, size: usize) {
        let e = self.per_node.entry(from).or_default();
        e.sent += 1;
        e.bytes_sent += size as u64;
        *e.sent_by_kind.entry(kind.to_string()).or_default() += 1;
    }

    fn deliver(&mut self, to: NodeId, size: usize, session: Option<SessionId>) {
        let e = self.per_node.entry(to).or_default();
        e.received += 1;
        e.bytes_received += size as u64;
        self.total_messages += 1;
        self.total_bytes += size as u64;
        if let Some(sid) = session {
            let s = self.per_session.entry(sid).or_default();
            s.0 += 1;
            s.1 += size as u64;
        }
    }

    fn merge(&mut self, other: &Model) {
        for (node, s) in &other.per_node {
            let e = self.per_node.entry(*node).or_default();
            e.sent += s.sent;
            e.received += s.received;
            e.bytes_sent += s.bytes_sent;
            e.bytes_received += s.bytes_received;
            for (k, v) in &s.sent_by_kind {
                *e.sent_by_kind.entry(k.clone()).or_default() += v;
            }
        }
        for (sid, s) in &other.per_session {
            let e = self.per_session.entry(*sid).or_default();
            e.0 += s.0;
            e.1 += s.1;
        }
        self.total_messages += other.total_messages;
        self.total_bytes += other.total_bytes;
        self.dropped += other.dropped;
        self.finished_at = self.finished_at.max(other.finished_at);
    }

    fn display(&self) -> String {
        let mut out = format!(
            "messages={} bytes={} dropped={} finished_at={}\n",
            self.total_messages, self.total_bytes, self.dropped, self.finished_at
        );
        for (node, s) in &self.per_node {
            writeln!(
                out,
                "  {node}: sent={} recv={} bytes_out={} bytes_in={}",
                s.sent, s.received, s.bytes_sent, s.bytes_received
            )
            .unwrap();
        }
        out
    }
}

#[derive(Debug, Clone)]
enum Step {
    Send(NodeId, &'static str, usize),
    Deliver(NodeId, usize, Option<SessionId>),
    Drop(SimTime),
    /// Merge the other side into this one.
    Merge,
}

/// Small ids that collide, ids at the top of the range, and any id.
fn node() -> impl Strategy<Value = NodeId> {
    (0u8..3, 0u32..4, any::<u32>()).prop_map(|(pick, small, any)| {
        NodeId(match pick {
            0 => small,
            1 => u32::MAX - small,
            _ => any,
        })
    })
}

fn step() -> impl Strategy<Value = (bool, Step)> {
    (
        any::<bool>(),
        0u8..10,
        node(),
        0usize..8,
        (1usize..5000, 0u32..3),
    )
        .prop_map(|(left, op, node, kind, (size, session))| {
            let session = (session > 0).then(|| SessionId::new(NodeId(session), 1));
            let step = match op {
                0..=4 => Step::Send(node, kinds()[kind], size),
                5..=7 => Step::Deliver(node, size, session),
                8 => Step::Drop(SimTime(size as u64)),
                _ => Step::Merge,
            };
            (left, step)
        })
}

fn apply(stats: &mut NetStats, model: &mut Model, other: &(NetStats, Model), step: &Step) {
    match *step {
        Step::Send(from, kind, size) => {
            stats.record_send(from, kind, size);
            model.send(from, kind, size);
        }
        Step::Deliver(to, size, session) => {
            stats.record_delivery(to, size, session);
            model.deliver(to, size, session);
        }
        Step::Drop(at) => {
            stats.dropped += 1;
            stats.finished_at = at;
            model.dropped += 1;
            model.finished_at = at;
        }
        Step::Merge => {
            stats.merge(&other.0);
            model.merge(&other.1);
        }
    }
}

fn agree(stats: &NetStats, model: &Model) -> Result<(), TestCaseError> {
    let nodes: Vec<(NodeId, NodeNetStats)> = (model.per_node.iter())
        .map(|(id, n)| {
            let counts = NodeNetStats {
                sent: n.sent,
                received: n.received,
                bytes_sent: n.bytes_sent,
                bytes_received: n.bytes_received,
            };
            (*id, counts)
        })
        .collect();
    prop_assert_eq!(stats.nodes().collect::<Vec<_>>(), nodes);
    for (id, n) in &model.per_node {
        prop_assert_eq!(stats.node(*id).sent, n.sent);
        for text in TEXTS {
            let want = n.sent_by_kind.get(text).copied().unwrap_or(0);
            prop_assert_eq!(stats.node_sent_of_kind(*id, text), want);
        }
    }
    let unseen = model.per_node.get(&NodeId(7)).map_or(0, |n| n.sent);
    prop_assert_eq!(stats.node(NodeId(7)).sent, unseen);
    for text in TEXTS {
        let want: u64 = (model.per_node.values())
            .map(|n| n.sent_by_kind.get(text).copied().unwrap_or(0))
            .sum();
        prop_assert_eq!(stats.sent_of_kind(text), want);
    }
    let hot = model.per_node.values().map(|n| n.bytes_received).max();
    prop_assert_eq!(stats.max_node_bytes_received(), hot.unwrap_or(0));
    for (sid, (messages, bytes)) in &model.per_session {
        prop_assert_eq!(stats.session(*sid).messages, *messages);
        prop_assert_eq!(stats.session(*sid).bytes, *bytes);
    }
    prop_assert_eq!(
        (stats.total_messages, stats.total_bytes, stats.dropped),
        (model.total_messages, model.total_bytes, model.dropped)
    );
    prop_assert_eq!(stats.finished_at, model.finished_at);
    prop_assert_eq!(stats.to_string(), model.display());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn net_stats_count_what_the_ordered_map_model_counts(
        steps in proptest::collection::vec(step(), 0..60),
    ) {
        let mut left = (NetStats::default(), Model::default());
        let mut right = (NetStats::default(), Model::default());
        for (to_left, step) in &steps {
            let (this, other) = if *to_left {
                (&mut left, &right)
            } else {
                (&mut right, &left)
            };
            let other = other.clone();
            apply(&mut this.0, &mut this.1, &other, step);
            agree(&this.0, &this.1)?;
        }
        // Merged both ways, the two sides count what the merged model does.
        let (mut both, mut twin) = (left.0.clone(), right.0.clone());
        both.merge(&right.0);
        twin.merge(&left.0);
        let mut model = left.1.clone();
        model.merge(&right.1);
        agree(&both, &model)?;
        agree(&twin, &model)?;
    }
}

#[test]
fn every_kind_text_sits_at_two_addresses() {
    let kinds = kinds();
    for i in 0..4 {
        assert_eq!(kinds[i], kinds[i + 4]);
        assert_ne!(kinds[i].as_ptr(), kinds[i + 4].as_ptr());
    }
}
