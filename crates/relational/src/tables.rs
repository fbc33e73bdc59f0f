//! Flat sorted tables: the control-plane maps a peer keeps, and the
//! watermarks ([`crate::query::Marks`]) a delta evaluation reads.
//!
//! The session / subscription / dictionary tables used to be nested
//! `BTreeMap`s: fine at ring(8), but at 10k+ peers every delivery paid a
//! pointer-chasing tree walk per lookup and an allocation per node touched.
//! `VecMap` is the arena pattern of the columnar row store applied to the
//! control plane: one sorted `Vec<(K, V)>` per table,
//! binary-searched lookups, contiguous iteration, `clear()` that keeps its
//! capacity. The tables these peers hold are small-to-medium and
//! insert-mostly-at-the-end (session epochs grow monotonically), which is
//! exactly where a sorted vec beats a tree.
//!
//! The session tables — a peer's live sessions and the sessions retired
//! there — and a fragment's watermarks are `InlineMap`s instead: sorted the
//! same way, but holding their first entry inline and spilling to a sorted
//! `Vec` past it. One live session and one retired epoch per root is what
//! a peer holds almost always, and one relation or two what a fragment
//! reads, so a session message finds its entry in the peer's own memory,
//! and a peer between sessions holds no heap block for them.
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

impl<K: Ord, V> VecMap<K, V> {
    /// Index of `key`, or where it would be inserted.
    fn probe(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the table holds no entry.
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

    /// Keeps only the entries the predicate approves (order preserved).
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }

    /// Entries within a key range, in order — two binary searches and a
    /// slice walk.
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        self.entries[span(&self.entries, &range)]
            .iter()
            .map(|(k, v)| (k, v))
    }
}

/// Where the entries of a sorted slice that fall in `range` lie.
fn span<K: Ord, V>(entries: &[(K, V)], range: &impl RangeBounds<K>) -> std::ops::Range<usize> {
    let lo = match range.start_bound() {
        Bound::Unbounded => 0,
        Bound::Included(k) => entries.partition_point(|(ek, _)| ek < k),
        Bound::Excluded(k) => entries.partition_point(|(ek, _)| ek <= k),
    };
    let hi = match range.end_bound() {
        Bound::Unbounded => entries.len(),
        Bound::Included(k) => entries.partition_point(|(ek, _)| ek <= k),
        Bound::Excluded(k) => entries.partition_point(|(ek, _)| ek < k),
    };
    lo..hi.max(lo)
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// A sorted map that holds its first entry inline and spills to a sorted
/// `Vec` past it — for the tables read on every delivery that hold one
/// entry almost always: a peer's live sessions and the sessions retired
/// there (one of each per root), a fragment's watermarks. Such a
/// table costs no heap block, and a lookup reads the peer's own memory.
/// Once spilled it stays a `Vec`, which keeps its capacity, so a table that
/// goes 1 ↔ 2 entries does not allocate each time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineMap<K, V>(Slots<K, V>);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Slots<K, V> {
    Empty,
    One((K, V)),
    Many(Vec<(K, V)>),
}

impl<K, V> Default for InlineMap<K, V> {
    fn default() -> Self {
        InlineMap(Slots::Empty)
    }
}

impl<K: Ord, V> InlineMap<K, V> {
    /// The entries, in key order.
    pub fn entries(&self) -> &[(K, V)] {
        match &self.0 {
            Slots::Empty => &[],
            Slots::One(entry) => std::slice::from_ref(entry),
            Slots::Many(entries) => entries,
        }
    }

    pub(crate) fn entries_mut(&mut self) -> &mut [(K, V)] {
        match &mut self.0 {
            Slots::Empty => &mut [],
            Slots::One(entry) => std::slice::from_mut(entry),
            Slots::Many(entries) => entries,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True iff the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    fn probe(&self, key: &K) -> Result<usize, usize> {
        self.entries().binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Looks a key up.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.probe(key).ok().map(|i| &self.entries()[i].1)
    }

    /// Inserts, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.probe(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries_mut()[i].1, value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// Inserts `key`, absent so far, at position `at` of
    /// [`InlineMap::entries`], where it sorts.
    pub(crate) fn insert_at(&mut self, at: usize, key: K, value: V) {
        self.0 = match std::mem::replace(&mut self.0, Slots::Empty) {
            Slots::Empty => Slots::One((key, value)),
            Slots::One(held) => {
                let mut entries = Vec::with_capacity(2);
                entries.push(held);
                entries.insert(at, (key, value));
                Slots::Many(entries)
            }
            Slots::Many(mut entries) => {
                entries.insert(at, (key, value));
                Slots::Many(entries)
            }
        };
    }

    /// Removes the entry at position `at` of [`InlineMap::entries`].
    ///
    /// # Panics
    /// Panics if `at` is out of bounds.
    pub fn remove_at(&mut self, at: usize) -> (K, V) {
        match &mut self.0 {
            Slots::Many(entries) => entries.remove(at),
            slots => match std::mem::replace(slots, Slots::Empty) {
                Slots::One(entry) if at == 0 => entry,
                _ => panic!("no entry at {at}"),
            },
        }
    }

    /// Removes, returning the value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.probe(key).ok().map(|i| self.remove_at(i).1)
    }

    /// Removes every entry within a key range.
    pub fn remove_range<R: RangeBounds<K>>(&mut self, range: R) {
        let at = span(self.entries(), &range);
        match &mut self.0 {
            Slots::Many(entries) => drop(entries.drain(at)),
            slots if !at.is_empty() => *slots = Slots::Empty,
            _ => {}
        }
    }

    /// Drops all entries, keeping a spilled table's allocation.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Slots::Many(entries) => entries.clear(),
            slots => *slots = Slots::Empty,
        }
    }

    /// Values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries().iter().map(|(_, v)| v)
    }

    /// Mutable values in key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries_mut().iter_mut().map(|(_, v)| v)
    }

    /// Whether the entries spilled to the heap.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(self.0, Slots::Many(_))
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

    /// One step of the inline-first table's oracle workload.
    #[derive(Debug, Clone)]
    enum InlineOp {
        Insert(u8, u32),
        Remove(u8),
        RemoveRange(u8, u8),
        Clear,
    }

    fn inline_op() -> impl Strategy<Value = InlineOp> {
        // Four keys, so that a sequence keeps crossing 0 ↔ 1 ↔ 2+ entries.
        (0u8..10, 0u8..4, 0u8..4, any::<u32>()).prop_map(|(kind, k, l, v)| match kind {
            0..=4 => InlineOp::Insert(k, v),
            5..=7 => InlineOp::Remove(k),
            8 => InlineOp::RemoveRange(k.min(l), k.max(l)),
            _ => InlineOp::Clear,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The inline-first table against the same oracle: every op's
        /// return value, lookups and iteration match after every
        /// step, as the table goes empty, inline and spilled and back; it
        /// holds its first entry without a heap block and keeps a spilled
        /// one's.
        #[test]
        fn inline_map_matches_btreemap_oracle(ops in proptest::collection::vec(inline_op(), 0..60)) {
            let mut inline: InlineMap<u8, u32> = InlineMap::default();
            let mut oracle: BTreeMap<u8, u32> = BTreeMap::new();
            let mut spilled = false;
            for op in ops {
                match op {
                    InlineOp::Insert(k, v) => {
                        prop_assert_eq!(inline.insert(k, v), oracle.insert(k, v));
                    }
                    InlineOp::Remove(k) => {
                        prop_assert_eq!(inline.remove(&k), oracle.remove(&k));
                    }
                    InlineOp::RemoveRange(a, b) => {
                        inline.remove_range(a..b);
                        oracle.retain(|k, _| !(a..b).contains(k));
                    }
                    InlineOp::Clear => {
                        inline.clear();
                        oracle.clear();
                    }
                }
                spilled |= oracle.len() > 1;
                prop_assert_eq!(inline.spilled(), spilled, "spills past one entry, and stays");
                prop_assert_eq!(inline.len(), oracle.len());
                let all: Vec<(u8, u32)> = inline.entries().to_vec();
                let want: Vec<(u8, u32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(all, want);
                for k in 0u8..4 {
                    prop_assert_eq!(inline.get(&k), oracle.get(&k));
                }
                let values: Vec<u32> = inline.values().copied().collect();
                prop_assert_eq!(values, oracle.values().copied().collect::<Vec<_>>());
            }
        }
    }

    /// The first entry of an inline-first table costs no heap block; the
    /// second spills, and removing entries keeps the spilled capacity.
    #[test]
    fn inline_map_spills_past_its_first_entry() {
        let mut m: InlineMap<u8, u8> = InlineMap::default();
        assert!(!m.spilled());
        m.insert(5, 1);
        assert!(!m.spilled());
        assert_eq!(m.remove_at(0), (5, 1));
        assert!(m.entries().is_empty() && !m.spilled());
        m.insert(5, 1);
        m.insert(3, 2);
        assert!(m.spilled());
        for v in m.values_mut() {
            *v += 10;
        }
        assert_eq!(m.entries(), [(3, 12), (5, 11)]);
        m.remove_range(..);
        assert!(m.entries().is_empty() && m.spilled());
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
