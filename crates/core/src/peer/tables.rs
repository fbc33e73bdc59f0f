//! Flat control-plane tables.
//!
//! The session / subscription / dictionary tables used to be nested
//! `BTreeMap`s: fine at ring(8), but at 10k+ peers every delivery paid a
//! pointer-chasing tree walk per lookup and an allocation per node touched.
//! [`VecMap`] is the arena pattern from the columnar data-plane rewrite
//! (PR 4) applied to the control plane: one sorted `Vec<(K, V)>` per table,
//! binary-searched lookups, contiguous iteration, `clear()` that keeps its
//! capacity. The tables these peers hold are small-to-medium and
//! insert-mostly-at-the-end (session epochs grow monotonically), which is
//! exactly where a sorted vec beats a tree.
//!
//! The `BTreeMap` originals are gone from the runtime but survive as the
//! *oracle* in this module's tests: a randomized op sequence is applied to
//! both implementations and every observation must match.

use std::ops::{Bound, RangeBounds};

/// A map over a flat sorted vector. Drop-in for the `BTreeMap` subset the
/// control plane uses: ordered iteration, range scans, entry-or-default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// Index of `key`, or where it would be inserted.
    fn probe(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Looks a key up.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.probe(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.probe(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// True iff the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.probe(key).is_ok()
    }

    /// Inserts, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.probe(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes, returning the value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.probe(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The entry for `key`, default-inserted if absent.
    pub fn or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.probe(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Entries in key order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Entries within a key range, in order — two binary searches and a
    /// slice walk (the supersession scans in the session dispatcher live on
    /// this).
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        let lo = match range.start_bound() {
            Bound::Unbounded => 0,
            Bound::Included(k) => self.entries.partition_point(|(ek, _)| ek < k),
            Bound::Excluded(k) => self.entries.partition_point(|(ek, _)| ek <= k),
        };
        let hi = match range.end_bound() {
            Bound::Unbounded => self.entries.len(),
            Bound::Included(k) => self.entries.partition_point(|(ek, _)| ek <= k),
            Bound::Excluded(k) => self.entries.partition_point(|(ek, _)| ek < k),
        };
        self.entries[lo..hi.max(lo)].iter().map(|(k, v)| (k, v))
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// Keeps only the entries the predicate approves (order preserved).
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }
}

impl<K: Ord + Copy, V> std::ops::Index<&K> for VecMap<K, V> {
    type Output = V;
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<K: Ord + Copy, V> FromIterator<(K, V)> for VecMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = VecMap::default();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One step of the oracle workload.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        OrDefaultBump(u16),
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..10, any::<u16>(), any::<u32>()).prop_map(|(kind, k, v)| {
            // Keys are drawn from a small space so inserts/removes collide
            // often — the interesting paths.
            let k = k % 64;
            match kind {
                0..=4 => Op::Insert(k, v),
                5..=6 => Op::Remove(k),
                7..=8 => Op::OrDefaultBump(k),
                _ => Op::Clear,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The retired `BTreeMap` implementation is the oracle: any op
        /// sequence must leave both maps observationally identical —
        /// lookups, ordered iteration, ranges, op return values.
        #[test]
        fn vecmap_matches_btreemap_oracle(ops in proptest::collection::vec(op_strategy(), 0..80)) {
            let mut flat: VecMap<u16, u32> = VecMap::default();
            let mut oracle: BTreeMap<u16, u32> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(flat.insert(k, v), oracle.insert(k, v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(flat.remove(&k), oracle.remove(&k));
                    }
                    Op::OrDefaultBump(k) => {
                        *flat.or_default(k) += 1;
                        *oracle.entry(k).or_default() += 1;
                    }
                    Op::Clear => {
                        flat.clear();
                        oracle.clear();
                    }
                }
                prop_assert_eq!(flat.len(), oracle.len());
            }
            // Full-state equivalence after the run.
            let flat_all: Vec<(u16, u32)> = flat.iter().map(|(k, v)| (*k, *v)).collect();
            let oracle_all: Vec<(u16, u32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(flat_all, oracle_all);
            for k in 0u16..64 {
                prop_assert_eq!(flat.get(&k), oracle.get(&k));
                prop_assert_eq!(flat.contains_key(&k), oracle.contains_key(&k));
            }
            // Range scans — the supersession pattern: (Excluded(a), Included(b)).
            for (a, b) in [(0u16, 10u16), (5, 5), (20, 63), (63, 0)] {
                let f: Vec<u16> = flat
                    .range((Bound::Excluded(a), Bound::Included(b)))
                    .map(|(k, _)| *k)
                    .collect();
                let o: Vec<u16> = if a <= b {
                    oracle
                        .range((Bound::Excluded(a), Bound::Included(b)))
                        .map(|(k, _)| *k)
                        .collect()
                } else {
                    Vec::new()
                };
                prop_assert_eq!(f, o);
                let f2: Vec<u16> = if a <= b {
                    flat.range(a..b).map(|(k, _)| *k).collect()
                } else {
                    Vec::new()
                };
                let o2: Vec<u16> = if a <= b {
                    oracle.range(a..b).map(|(k, _)| *k).collect()
                } else {
                    Vec::new()
                };
                prop_assert_eq!(f2, o2);
            }
        }
    }

    #[test]
    fn or_default_inserts_once() {
        let mut m: VecMap<u8, Vec<u8>> = VecMap::default();
        m.or_default(3).push(1);
        m.or_default(3).push(2);
        assert_eq!(m.get(&3), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn keys_stay_sorted() {
        let mut m: VecMap<i32, i32> = VecMap::default();
        for k in [5, 1, 9, 3, 7, 1] {
            m.insert(k, k * 10);
        }
        let keys: Vec<i32> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }
}
