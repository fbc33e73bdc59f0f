//! Pluggable link-latency models for the discrete-event simulator.

use crate::message::SimTime;
use p2p_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Computes the delivery delay of a message. Implementations may be
/// stateful (seeded RNGs) but must be deterministic given their seed and the
/// call sequence.
pub trait LatencyModel: Send {
    /// Delay for a `size`-byte message on the link `from → to`.
    fn latency(&mut self, from: NodeId, to: NodeId, size: usize) -> SimTime;
}

/// Fixed delay on every link — the simplest model, used by most tests.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLatency(pub SimTime);

impl LatencyModel for ConstantLatency {
    fn latency(&mut self, _from: NodeId, _to: NodeId, _size: usize) -> SimTime {
        self.0
    }
}

/// Uniformly random delay in `[min, max]`, seeded — models jittery WAN links
/// while keeping runs reproducible.
#[derive(Debug)]
pub struct UniformLatency {
    min: SimTime,
    max: SimTime,
    rng: StdRng,
}

impl UniformLatency {
    /// Creates the model; `min ≤ max` is enforced by swapping.
    pub fn new(min: SimTime, max: SimTime, seed: u64) -> Self {
        let (min, max) = if min <= max { (min, max) } else { (max, min) };
        UniformLatency {
            min,
            max,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl LatencyModel for UniformLatency {
    fn latency(&mut self, _from: NodeId, _to: NodeId, _size: usize) -> SimTime {
        SimTime(self.rng.gen_range(self.min.0..=self.max.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ignores_everything() {
        let mut m = ConstantLatency(SimTime::from_millis(5));
        assert_eq!(m.latency(NodeId(0), NodeId(1), 10), SimTime::from_millis(5));
        assert_eq!(
            m.latency(NodeId(3), NodeId(2), 10_000),
            SimTime::from_millis(5)
        );
    }

    #[test]
    fn uniform_is_seeded_and_in_range() {
        let mut a = UniformLatency::new(SimTime(100), SimTime(200), 42);
        let mut b = UniformLatency::new(SimTime(100), SimTime(200), 42);
        for _ in 0..100 {
            let la = a.latency(NodeId(0), NodeId(1), 1);
            let lb = b.latency(NodeId(0), NodeId(1), 1);
            assert_eq!(la, lb);
            assert!((100..=200).contains(&la.0));
        }
    }

    #[test]
    fn uniform_swaps_reversed_bounds() {
        let mut m = UniformLatency::new(SimTime(200), SimTime(100), 1);
        let l = m.latency(NodeId(0), NodeId(1), 1);
        assert!((100..=200).contains(&l.0));
    }
}
