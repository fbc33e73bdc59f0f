//! Configuration of a P2P system run.

use serde::{Deserialize, Serialize};

/// Which variant of the distributed update algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum UpdateMode {
    /// Asynchronous eager propagation (the paper's default model): queried
    /// nodes subscribe their askers and push deltas the moment local data
    /// grows; global termination detected by Dijkstra–Scholten at the
    /// super-peer; nodes additionally close early bottom-up via the paper's
    /// per-rule completion flags. Fastest convergence, most messages.
    #[default]
    Eager,
    /// The "synchronous alternative" the paper mentions: repeated
    /// query/echo waves from the super-peer; wave *k+1* starts only if wave
    /// *k* inserted data anywhere. Fewer messages in flight, more latency.
    Rounds,
}

/// Knobs of one run. `Default` gives the configuration used throughout the
/// examples: eager mode, delta evaluation on.
///
/// A global update reaches every node: in eager mode the root sends the
/// start request once to each rostered node (the rule file is network-wide
/// knowledge, Section 5), which is what makes the update reach nodes that
/// nothing depends on and components no pipe connects to the root. Because
/// every node hears of the session, body nodes serve the fragments their
/// heads hold from standing subscriptions and only the others are queried
/// (see [`crate::peer`]). Under [`SystemConfig::paper_faithful`] each
/// receiver also forwards the request along its pipes in both directions,
/// as the paper propagates it. The pseudocode's strict A4 propagation — a
/// node joins when the first `Query` reaches it — is the query-dependent
/// update, [`crate::system::RunSpec::scoped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Update algorithm variant.
    pub mode: UpdateMode,
    /// The baseline switch of the delta ladder. `false` (the default) runs
    /// all three rungs: answers carry only rows not yet sent to that
    /// subscriber (the paper's "delta optimization … in order to minimize
    /// data transfer and duplication"), re-answers delta-**evaluate** from
    /// the subscription's watermarks instead of re-running the fragment
    /// query (rounds mode too, plus semi-naive joins at the head), under
    /// both modes the cursor outlives the session — committed when it retires, at
    /// `Fixpoint` or `RoundsClosed` — so a later session ships what changed
    /// since the last one, and in eager mode so does the subscription:
    /// nobody asks again for what it holds, nobody answers with nothing, and
    /// the start request is not forwarded (see [`crate::peer`]). `true` is
    /// the paper-faithful, oracle-comparable baseline, message for message:
    /// the start request travels along every pipe, every session queries
    /// every fragment, every answer re-evaluates the fragment and re-ships
    /// its full current extension, every basic message gets an `Ack` of its
    /// own, and no cursor is kept. Rounds mode sends the same messages
    /// either way, and ships far fewer rows by default once a session is
    /// not the first; eager mode sends far fewer messages too
    /// (`tests/session_cost.rs` pins both).
    pub paper_faithful: bool,
    /// Durable peers. When true, every peer owns a `p2p_storage` write-ahead
    /// log plus snapshot store: applied insertions and processed fragment
    /// answers are logged as they happen, and a crashed peer rebuilds its
    /// pre-crash database from storage at restart, then reconciles missed
    /// traffic through watermark-based repair queries
    /// ([`crate::messages::Via::Repair`]). When false (the default), a crash
    /// loses everything the peer ever held — the amnesia baseline.
    pub durability: bool,
    /// With durability on: the fewest WAL records between automatic
    /// snapshots — one is taken once this many records *and* the previous
    /// snapshot's bytes of log have accumulated, which bounds what is held
    /// and replayed at ~2× the state. 0 keeps only the initial snapshot.
    pub snapshot_every: u64,
    /// Wire codec for protocol messages and (with durability on) the
    /// payload encoding of WAL frames and snapshots: JSON text by default,
    /// or the compact binary encoding of [`crate::codec`]. It picks no file
    /// family: a store's files and their framing are the same under both,
    /// and a store opened under the other codec than the one that wrote it
    /// is refused as corrupt. Netfiles and the CLI always speak JSON
    /// regardless — the codec is a transport/storage property.
    pub codec: p2p_net::Codec,
    /// Maximum null-derivation depth for the restricted chase.
    pub max_null_depth: u32,
    /// Simulator event budget (safety net). `0` means **auto**: the budget
    /// is derived from the node count at build time
    /// ([`SystemConfig::effective_max_events`]) so a 10k-peer run is not
    /// artificially halted by a flat cap sized for ring(8). Any explicit
    /// non-zero value wins.
    pub max_events: u64,
    /// Trace capacity (0 = tracing off).
    pub trace_capacity: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            mode: UpdateMode::Eager,
            paper_faithful: false,
            durability: false,
            snapshot_every: 64,
            codec: p2p_net::Codec::Json,
            max_null_depth: 64,
            max_events: 0,
            trace_capacity: 0,
        }
    }
}

impl SystemConfig {
    /// Events per node granted by the auto budget. A global update costs a
    /// roster flood + queries/answers/acks per rule plus the fix-point
    /// broadcast — well under a thousand deliveries per node in every
    /// experiment; 5000 leaves an order-of-magnitude margin for faults,
    /// churn redrives and dynamic changes.
    pub(crate) const AUTO_EVENTS_PER_NODE: u64 = 5_000;

    /// Floor of the auto budget (the old flat default, so small systems keep
    /// exactly the safety margin they always had).
    pub(crate) const AUTO_EVENTS_FLOOR: u64 = 10_000_000;

    /// The event budget a system of `nodes` peers actually runs with:
    /// an explicit non-zero [`SystemConfig::max_events`] verbatim, otherwise
    /// `max(floor, nodes × per-node share)`.
    pub fn effective_max_events(&self, nodes: usize) -> u64 {
        if self.max_events != 0 {
            self.max_events
        } else {
            Self::AUTO_EVENTS_FLOOR.max(nodes as u64 * Self::AUTO_EVENTS_PER_NODE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_eager_flood_delta() {
        let c = SystemConfig::default();
        assert_eq!(c.mode, UpdateMode::Eager);
        assert!(!c.paper_faithful);
        assert_eq!(c.codec, p2p_net::Codec::Json);
    }

    #[test]
    fn event_budget_scales_with_node_count() {
        let auto = SystemConfig::default();
        assert_eq!(auto.max_events, 0, "default budget is auto");
        // Small systems keep the historical flat floor…
        assert_eq!(
            auto.effective_max_events(8),
            SystemConfig::AUTO_EVENTS_FLOOR
        );
        // …large ones grow linearly instead of being halted by it.
        assert_eq!(
            auto.effective_max_events(10_000),
            10_000 * SystemConfig::AUTO_EVENTS_PER_NODE
        );
        assert_eq!(
            auto.effective_max_events(100_000),
            100_000 * SystemConfig::AUTO_EVENTS_PER_NODE
        );
        // An explicit budget always wins, at any scale.
        let explicit = SystemConfig {
            max_events: 1_234,
            ..SystemConfig::default()
        };
        assert_eq!(explicit.effective_max_events(100_000), 1_234);
    }
}
