//! Peer churn: scheduled crash/restart events.
//!
//! The fault layer ([`crate::fault`]) breaks the *transport* (drops, link
//! outages); churn breaks the *peers themselves*. A crashed peer loses all
//! in-memory state and receives nothing while down — every message
//! addressed to it is dropped, exactly like packets sent to a dead process.
//! At the restart time the runtime calls the peer's
//! [`crate::Peer::on_restart`] hook, which is where a durable peer rebuilds
//! itself from storage and reconciles missed traffic (see `p2p_storage` and
//! `p2p_core`'s resync protocol).
//!
//! Like every other source of nondeterminism in this crate, churn is a
//! deterministic schedule: the plan is data, so a churned run is a pure
//! function of its inputs and can be replayed bit-for-bit.

use crate::message::SimTime;
use p2p_topology::NodeId;

/// One scheduled crash/restart of a peer. Offsets are relative to the
/// moment the plan is scheduled onto a simulator (the driver schedules it
/// when the update session starts, so "crash at 5 ms" means five
/// milliseconds into the session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The peer that dies.
    pub node: NodeId,
    /// Offset at which the peer crashes (state wiped, deliveries dropped).
    pub crash_at: SimTime,
    /// Offset at which the peer comes back (must be after `crash_at`).
    pub restart_at: SimTime,
}

/// A deterministic schedule of peer crashes and restarts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    events: Vec<CrashEvent>,
}

impl ChurnPlan {
    /// An empty plan (no churn).
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// Adds one crash/restart pair. Panics if the restart does not strictly
    /// follow the crash (a zero-length outage would be unobservable), or if
    /// the window overlaps an already-scheduled outage of the same node —
    /// overlapping windows would let the inner restart revive a peer the
    /// outer window still declares dead.
    pub fn with_crash(mut self, node: NodeId, crash_at: SimTime, restart_at: SimTime) -> Self {
        assert!(
            restart_at > crash_at,
            "restart {restart_at} must follow crash {crash_at}"
        );
        for e in self.events.iter().filter(|e| e.node == node) {
            assert!(
                restart_at <= e.crash_at || crash_at >= e.restart_at,
                "outage [{crash_at}, {restart_at}) of {node} overlaps \
                 scheduled outage [{}, {})",
                e.crash_at,
                e.restart_at
            );
        }
        self.events.push(CrashEvent {
            node,
            crash_at,
            restart_at,
        });
        self
    }

    /// The scheduled events.
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// True iff no churn is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled crashes.
    pub fn crash_count(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_collects_events() {
        let plan = ChurnPlan::none()
            .with_crash(NodeId(1), SimTime(10), SimTime(20))
            .with_crash(NodeId(2), SimTime(15), SimTime(30));
        assert_eq!(plan.crash_count(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].node, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "must follow crash")]
    fn restart_before_crash_panics() {
        let _ = ChurnPlan::none().with_crash(NodeId(0), SimTime(10), SimTime(10));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_windows_for_one_node_panic() {
        let _ = ChurnPlan::none()
            .with_crash(NodeId(1), SimTime(10), SimTime(50))
            .with_crash(NodeId(1), SimTime(20), SimTime(30));
    }

    #[test]
    fn back_to_back_and_cross_node_windows_are_fine() {
        let plan = ChurnPlan::none()
            .with_crash(NodeId(1), SimTime(10), SimTime(20))
            .with_crash(NodeId(1), SimTime(20), SimTime(30))
            .with_crash(NodeId(2), SimTime(15), SimTime(25));
        assert_eq!(plan.crash_count(), 3);
    }
}
