//! A fast, non-cryptographic hasher for the join/membership hot paths and
//! the simulator's per-message pipe lookup.
//!
//! The data plane hashes fixed-width `Val` words constantly: every
//! membership probe, every join-index build, every dedup. The standard
//! library's SipHash is DoS-resistant but pays for it per word; this is the
//! Fowler-style multiply-rotate scheme popularised by rustc (`FxHash`),
//! which is 2–4× faster on short keys. Keys here are not
//! attacker-controlled (they come from the operator's own databases and
//! its own node ids), so the trade is sound.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-style multiply-rotate hasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Hashes one value with [`FxHasher`] (membership bucket keys).
pub fn fx_hash<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_hash_equal() {
        assert_eq!(fx_hash(&[1u64, 2, 3]), fx_hash(&[1u64, 2, 3]));
        assert_ne!(fx_hash(&[1u64, 2, 3]), fx_hash(&[1u64, 2, 4]));
        assert_ne!(fx_hash("abc"), fx_hash("abd"));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        m.insert(7, 8);
        assert_eq!(m[&7], 8);
        let mut s: FxHashSet<&str> = FxHashSet::default();
        assert!(s.insert("x"));
        assert!(!s.insert("x"));
    }
}
