//! Message envelopes, virtual time, and the [`Wire`] trait.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Virtual time in microseconds. The discrete-event simulator advances this;
/// the sharded runtime reports wall-clock time through the same type so the
/// statistics pipeline is runtime-agnostic.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// What the network layer needs to know about a protocol message: its
/// wire size (for byte accounting and size-aware latency models), a short
/// kind label (for per-kind statistics and Figure-1 style traces), and —
/// for protocols with interleaved update sessions — which session the
/// message belongs to (for per-session traffic attribution).
pub trait Wire: Clone + fmt::Debug + Send + 'static {
    /// Serialized size in bytes. Implementations for serde-serializable
    /// messages should report the **real** encoded size via
    /// [`encoded_wire_size`] rather than a hand-maintained approximation.
    fn wire_size(&self) -> usize;
    /// Serialized size under a specific wire codec. The default ignores the
    /// codec and reports [`Wire::wire_size`]; message types that support
    /// the binary codec override this to report the codec-true length.
    /// The runtimes call it **once per send** and carry the result on the
    /// envelope — implementations are the single measurement point. Under
    /// [`Codec::Json`](crate::codec::Codec) that is [`encoded_wire_size`],
    /// which allocates nothing; a binary length is the encoded frame's.
    fn wire_size_with(&self, codec: crate::codec::Codec) -> usize {
        let _ = codec;
        self.wire_size()
    }
    /// Short stable label, e.g. `"Query"`, `"Answer"`, `"requestNodes"`.
    fn kind(&self) -> &'static str;
    /// The update session this message belongs to, if any. The runtimes use
    /// it to attribute traces and per-session traffic counters; `None`
    /// (the default) marks session-less control traffic.
    fn session(&self) -> Option<crate::session::SessionId> {
        None
    }
}

/// The codec-true wire size of a message: the exact byte length of its
/// serialized form (the same codec the storage layer frames records with).
/// This replaced the old per-type `fields * 8` style estimates, so byte
/// accounting, latency models and the experiments all see what a
/// real transport would carry.
///
/// The message streams itself into the JSON writer's byte counter: one
/// walk, no text, no tree and **no allocation** (protocol messages carry no
/// floats and nest a few levels, so the encoder cannot fail). Each call
/// registers one encode pass with [`crate::codec::encode_passes`] — the
/// hook the hot-path regression tests use to prove messages are measured
/// once per send, not re-serialized at every hop.
pub fn encoded_wire_size<T: serde::Serialize>(msg: &T) -> usize {
    crate::codec::note_encode_pass();
    serde_json::encoded_len(msg).expect("wire messages serialize without floats")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let a = SimTime::from_millis(2);
        let b = SimTime::from_micros(500);
        assert_eq!((a + b).as_micros(), 2_500);
        assert_eq!((a - b).as_micros(), 1_500);
        assert_eq!((b - a).as_micros(), 0); // saturating
        let mut c = a;
        c += b;
        assert_eq!(c.as_micros(), 2_500);
    }

    #[test]
    fn time_display() {
        assert_eq!(SimTime::from_micros(1_234).to_string(), "1.234ms");
    }
}
