//! Wire codec selection.
//!
//! Both runtimes carry protocol messages under one of two codecs: the
//! original JSON text encoding (the default — human-readable, and what
//! netfiles and the CLI keep speaking) or the compact binary encoding
//! built on the vendored `binpack` crate (varints, length-prefixed
//! strings, delta-packed columnar row blocks). The codec is a property of
//! the *transport*: [`crate::Simulator::set_codec`] /
//! [`crate::ShardedNetwork::set_codec`] pick it, and every
//! [`crate::Wire::wire_size_with`] measurement and byte counter follows.
//!
//! This module also hosts the **encode-pass counter**, a thread-local
//! tally of full-message serialization walks. The runtimes measure each
//! message exactly once, at send, and carry the size on the envelope;
//! regression tests diff this counter around a run to prove the hot path
//! never re-serializes a message just to weigh it.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt;
use std::str::FromStr;

/// Which encoding protocol messages (and durable frames) travel in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Codec {
    /// JSON text — the default; byte-compatible with every artifact the
    /// repo produced before the binary codec existed.
    #[default]
    Json,
    /// Compact binary: varint/zigzag integers, length-prefixed strings,
    /// interned map keys, columnar delta row blocks.
    Binary,
}

impl Codec {
    /// Stable lowercase name, matching the CLI flag values.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Codec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(Codec::Json),
            "binary" => Ok(Codec::Binary),
            other => Err(format!("unknown codec `{other}` (expected json|binary)")),
        }
    }
}

thread_local! {
    /// Count of full-message encode walks on this thread. Thread-local
    /// because the simulator runs a whole network on one thread; tests
    /// running in parallel never see each other's counts.
    static ENCODE_PASSES: Cell<u64> = const { Cell::new(0) };
}

/// Registers one full serialization walk of a message. Called by every
/// codec-true size or encode routine on the message path.
pub fn note_encode_pass() {
    ENCODE_PASSES.with(|c| c.set(c.get() + 1));
}

/// Total encode passes on this thread so far. Diff around a run to count
/// serializations per message sent.
pub fn encode_passes() -> u64 {
    ENCODE_PASSES.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_round_trip() {
        for codec in [Codec::Json, Codec::Binary] {
            assert_eq!(codec.name().parse::<Codec>().unwrap(), codec);
            assert_eq!(codec.to_string(), codec.name());
        }
        assert!("protobuf".parse::<Codec>().is_err());
    }

    #[test]
    fn default_is_json() {
        assert_eq!(Codec::default(), Codec::Json);
    }

    #[test]
    fn serde_round_trip() {
        for codec in [Codec::Json, Codec::Binary] {
            let text = serde_json::to_string(&codec).unwrap();
            assert_eq!(serde_json::from_str::<Codec>(&text).unwrap(), codec);
        }
    }

    #[test]
    fn encode_pass_counter_counts() {
        let before = encode_passes();
        note_encode_pass();
        note_encode_pass();
        assert_eq!(encode_passes() - before, 2);
    }
}
