//! Fault injection for robustness testing.
//!
//! JXTA pipes — and both of our runtimes by default — deliver reliably. The
//! fault plan lets tests and the robustness experiments *break* that
//! assumption deliberately: random drops and scheduled link outages. The
//! link stays exactly-once, as TCP is: nothing is ever delivered twice.
//! The protocol-level claim under test is that drops may prevent closure
//! (liveness) but must never produce unsound data or a false `closed` state
//! (safety).

use crate::message::SimTime;
use p2p_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scheduled outage of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// Link source.
    pub from: NodeId,
    /// Link target.
    pub to: NodeId,
    /// Outage start (inclusive).
    pub start: SimTime,
    /// Outage end (exclusive).
    pub end: SimTime,
}

/// What the fault layer decided about one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver exactly once.
    Deliver,
    /// Silently drop.
    Drop,
}

/// Deterministic (seeded) fault plan.
#[derive(Debug)]
pub struct FaultPlan {
    drop_percent: u8,
    outages: Vec<LinkOutage>,
    rng: StdRng,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No faults at all (the default: reliable JXTA-like pipes).
    pub fn none() -> Self {
        FaultPlan {
            drop_percent: 0,
            outages: Vec::new(),
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// Random drops with the given percentage and seed.
    pub fn random(drop_percent: u8, seed: u64) -> Self {
        FaultPlan {
            drop_percent: drop_percent.min(100),
            outages: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Adds a scheduled link outage.
    pub fn with_outage(mut self, outage: LinkOutage) -> Self {
        self.outages.push(outage);
        self
    }

    /// True iff the plan can never drop anything.
    pub fn is_reliable(&self) -> bool {
        self.drop_percent == 0 && self.outages.is_empty()
    }

    /// Decides the fate of one message sent at `now` on `from → to`.
    pub fn decide(&mut self, from: NodeId, to: NodeId, now: SimTime) -> FaultDecision {
        for o in &self.outages {
            if o.from == from && o.to == to && now >= o.start && now < o.end {
                return FaultDecision::Drop;
            }
        }
        if self.drop_percent > 0 && self.rng.gen_range(0..100u8) < self.drop_percent {
            return FaultDecision::Drop;
        }
        FaultDecision::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_plan_always_delivers() {
        let mut p = FaultPlan::none();
        assert!(p.is_reliable());
        for _ in 0..100 {
            assert_eq!(
                p.decide(NodeId(0), NodeId(1), SimTime(0)),
                FaultDecision::Deliver
            );
        }
    }

    #[test]
    fn full_drop_plan_drops_everything() {
        let mut p = FaultPlan::random(100, 7);
        for _ in 0..50 {
            assert_eq!(
                p.decide(NodeId(0), NodeId(1), SimTime(0)),
                FaultDecision::Drop
            );
        }
    }

    #[test]
    fn outage_window_drops_only_inside() {
        let mut p = FaultPlan::none().with_outage(LinkOutage {
            from: NodeId(0),
            to: NodeId(1),
            start: SimTime(100),
            end: SimTime(200),
        });
        assert!(!p.is_reliable());
        assert_eq!(
            p.decide(NodeId(0), NodeId(1), SimTime(50)),
            FaultDecision::Deliver
        );
        assert_eq!(
            p.decide(NodeId(0), NodeId(1), SimTime(100)),
            FaultDecision::Drop
        );
        assert_eq!(
            p.decide(NodeId(0), NodeId(1), SimTime(199)),
            FaultDecision::Drop
        );
        assert_eq!(
            p.decide(NodeId(0), NodeId(1), SimTime(200)),
            FaultDecision::Deliver
        );
        // Other direction unaffected.
        assert_eq!(
            p.decide(NodeId(1), NodeId(0), SimTime(150)),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let mut a = FaultPlan::random(30, 99);
        let mut b = FaultPlan::random(30, 99);
        for _ in 0..200 {
            assert_eq!(
                a.decide(NodeId(0), NodeId(1), SimTime(0)),
                b.decide(NodeId(0), NodeId(1), SimTime(0))
            );
        }
    }
}
