//! Per-peer statistics — the application half of the paper's "statistical
//! module" (Section 5): executed queries and updates, per-query duplicate
//! counts due to paths and loops, inserted tuples, data volumes; resettable
//! and collectable by the super-peer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How a node's update state reached `closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ClosedBy {
    /// Not closed (yet).
    #[default]
    Open,
    /// All coordination rules' body nodes reported final data (the paper's
    /// per-rule `flag` criterion) — happens bottom-up on acyclic parts.
    RulesFlags,
    /// The super-peer's termination broadcast (fix-point detected globally —
    /// stands in for the paper's maximal-dependency-path flags on cyclic
    /// parts).
    RootBroadcast,
    /// A clean synchronous round completed (rounds mode).
    CleanRound,
}

/// Counters kept by every peer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerStats {
    /// Queries received (including re-deliveries on other paths).
    pub queries_received: u64,
    /// Queries received for a `(rule, owner)` pair already being served —
    /// the paper's "number of queries received … for the same original
    /// query (due to different paths and loops)".
    pub duplicate_queries: u64,
    /// Queries sent to acquaintances.
    pub queries_sent: u64,
    /// Answers sent (initial + delta re-answers).
    pub answers_sent: u64,
    /// Answers sent that also acknowledged the `Query` they reply to (a
    /// Dijkstra–Scholten `Ack` each did not need). Subset of `answers_sent`;
    /// omitted from the encoding while zero.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub acking_answers: u64,
    /// Answers received.
    pub answers_received: u64,
    /// Answer rows shipped out (tuple count).
    pub rows_shipped: u64,
    /// Delta answers sent: watermark-based re-answers on a subscription
    /// (under either mode). Subset of `answers_sent`.
    pub delta_answers_sent: u64,
    /// Rows a **full re-ship** (`paper_faithful`) would have re-sent but a
    /// delta answer did not, approximated by the rows already shipped on
    /// that subscription.
    pub rows_saved: u64,
    /// Empty acknowledgements sent for wave queries of already-finished
    /// rounds: pure protocol overhead, kept out of `answers_sent` /
    /// `rows_shipped` so those keep measuring useful traffic.
    pub stale_answers_sent: u64,
    /// Local conjunctive-query evaluations.
    pub local_evaluations: u64,
    /// Relation rows physically read by fragment evaluations (scans,
    /// transient-index builds, candidate rows visited after an index
    /// probe). A 1-tuple delta wave reads O(delta) rows regardless of
    /// relation size — this counter is how the benchmark observes it.
    pub rows_scanned: u64,
    /// Persistent-index bucket probes performed by fragment evaluations.
    pub index_probes: u64,
    /// Evaluations served by a cached compiled plan (no recompilation).
    /// Compared against `local_evaluations` this is the plan-cache hit rate;
    /// invalidated on `AddRule`/`DeleteRule` and on crash.
    pub plan_cache_hits: u64,
    /// Subscriptions opened by delta evaluation from a cursor an earlier
    /// session committed, instead of from the fragment's full extension —
    /// by a `Query` that says `resume`, or standing, when the session's
    /// flood arrives. Per session this is how many subscriptions started
    /// from what changed rather than from what exists.
    #[serde(default)]
    pub resumed_answers: u64,
    /// Facts inserted into the local database by the update algorithm.
    pub tuples_inserted: u64,
    /// Labeled nulls minted for existential head variables.
    pub nulls_minted: u64,
    /// Discovery requests received.
    pub discovery_requests: u64,
    /// Discovery answers sent.
    pub discovery_answers: u64,
    /// Times this node re-opened after having closed (dynamic changes).
    pub reopened: u64,
    /// Process crashes suffered (churn plan).
    pub crashes: u64,
    /// Successful recoveries from storage after a crash.
    pub recoveries: u64,
    /// Rows received through crash-recovery resync answers — the traffic it
    /// took to repair the crash, to be compared against what a full
    /// re-propagation would have shipped.
    pub resync_rows: u64,
    /// First-use dictionary entries shipped with answers: `(SymId, string)`
    /// definitions for interned constants the recipient had not seen on
    /// that pipe. Bounded by (distinct constants × pipes) for the whole
    /// run — the price of never re-shipping a string.
    pub dict_entries_sent: u64,
    /// Update sessions this peer participated in (activated a session
    /// entry for — as initiator, via flood, or via a query/wave joining it).
    pub sessions_participated: u64,
    /// Peak number of sessions simultaneously open (participating, not yet
    /// closed) at this peer — the concurrency the interleaved control plane
    /// actually reached.
    pub concurrent_peak: u64,
    /// How the node last closed.
    pub closed_by: ClosedBy,
    /// Synchronous rounds participated in (rounds mode).
    pub rounds: u64,
}

fn is_zero(n: &u64) -> bool {
    *n == 0
}

impl PeerStats {
    /// Resets every counter — the super-peer's "reset statistics at all
    /// peers" command.
    pub(crate) fn reset(&mut self) {
        *self = PeerStats::default();
    }

    /// Merges another peer's counters (super-peer aggregation).
    pub fn merge(&mut self, other: &PeerStats) {
        self.queries_received += other.queries_received;
        self.duplicate_queries += other.duplicate_queries;
        self.queries_sent += other.queries_sent;
        self.answers_sent += other.answers_sent;
        self.acking_answers += other.acking_answers;
        self.answers_received += other.answers_received;
        self.rows_shipped += other.rows_shipped;
        self.delta_answers_sent += other.delta_answers_sent;
        self.rows_saved += other.rows_saved;
        self.stale_answers_sent += other.stale_answers_sent;
        self.local_evaluations += other.local_evaluations;
        self.rows_scanned += other.rows_scanned;
        self.index_probes += other.index_probes;
        self.plan_cache_hits += other.plan_cache_hits;
        self.resumed_answers += other.resumed_answers;
        self.tuples_inserted += other.tuples_inserted;
        self.nulls_minted += other.nulls_minted;
        self.discovery_requests += other.discovery_requests;
        self.discovery_answers += other.discovery_answers;
        self.reopened += other.reopened;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.resync_rows += other.resync_rows;
        self.dict_entries_sent += other.dict_entries_sent;
        self.sessions_participated += other.sessions_participated;
        self.concurrent_peak = self.concurrent_peak.max(other.concurrent_peak);
        self.rounds = self.rounds.max(other.rounds);
    }
}

impl fmt::Display for PeerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "q_in={} (dup={}) q_out={} a_out={} (delta={} stale={}) a_in={} rows={} saved={} evals={} scanned={} probes={} plan_hits={} resumed={} ins={} nulls={} crashes={} recoveries={} resync_rows={} sessions={} peak={} closed_by={:?}",
            self.queries_received,
            self.duplicate_queries,
            self.queries_sent,
            self.answers_sent,
            self.delta_answers_sent,
            self.stale_answers_sent,
            self.answers_received,
            self.rows_shipped,
            self.rows_saved,
            self.local_evaluations,
            self.rows_scanned,
            self.index_probes,
            self.plan_cache_hits,
            self.resumed_answers,
            self.tuples_inserted,
            self.nulls_minted,
            self.crashes,
            self.recoveries,
            self.resync_rows,
            self.sessions_participated,
            self.concurrent_peak,
            self.closed_by,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes() {
        let mut s = PeerStats {
            queries_received: 5,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, PeerStats::default());
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = PeerStats {
            queries_sent: 2,
            tuples_inserted: 3,
            rounds: 1,
            ..Default::default()
        };
        let b = PeerStats {
            queries_sent: 4,
            rounds: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.queries_sent, 6);
        assert_eq!(a.tuples_inserted, 3);
        assert_eq!(a.rounds, 5);
    }
}
