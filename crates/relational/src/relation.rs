//! A single relation instance: columnar, deduplicated, insertion-ordered
//! rows with lazily built join-key hash indexes.
//!
//! Storage is one flat `Vec<Val>` in row-major order with stride = arity —
//! a row is a contiguous 16-byte-per-field slice, cache-friendly to scan and
//! free of per-row allocations. Membership (deduplication) is a hash of the
//! row slice mapping to candidate positions; there is **no** second
//! serialized copy of the data (the old `present: HashSet<Tuple>` both
//! doubled memory and doubled every snapshot on disk).
//!
//! Insertion order is preserved so that (a) iteration is deterministic and
//! (b) *watermarks* work: the update protocol's delta optimization sends a
//! subscriber only the rows inserted after the watermark recorded at the
//! previous answer, which is exactly the "delta optimization … to minimize
//! data transfer and duplication" the paper sketches in Section 3.

use crate::fxhash::{fx_hash, FxHashMap};
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Val;
use serde::{Content, DeError, Deserialize, Serialize, Sink};
use std::fmt;

/// Hashes one row slice (used for membership buckets).
fn row_hash(row: &[Val]) -> u64 {
    fx_hash(row)
}

/// Hashes a join key, value by value. Index maintenance (projecting a stored
/// row onto the key columns) and probes (projecting a partial binding) must
/// agree on this hash without materializing the projected slice, so both
/// feed the values through one raw [`crate::fxhash::FxHasher`].
pub fn key_hash<'a>(vals: impl IntoIterator<Item = &'a Val>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::fxhash::FxHasher::default();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// A persistent hash index over a subset of columns: key hash → candidate
/// row positions. Collisions are possible; callers must verify the key
/// columns of each candidate against the probe values (which the join loop
/// needs anyway for repeated-variable rechecks).
///
/// Built lazily by [`Relation::ensure_index`] and maintained incrementally
/// by [`Relation::insert_row`], so repeated evaluation never rebuilds it.
#[derive(Debug, Clone, Default)]
pub struct Index {
    cols: Box<[usize]>,
    buckets: FxHashMap<u64, Vec<u32>>,
}

impl Index {
    /// The indexed column positions, in probe order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Candidate row positions whose key columns hash to `hash`.
    pub fn candidates(&self, hash: u64) -> &[u32] {
        self.buckets.get(&hash).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// A relation instance.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    /// Column count, cached (`schema.arity()`).
    arity: usize,
    /// Row-major flat storage: row `i` is `data[i*arity .. (i+1)*arity]`.
    data: Vec<Val>,
    /// Number of rows (tracked separately so arity-0 relations work).
    len: usize,
    /// Membership: row-slice hash → positions with that hash (collisions
    /// resolved by comparing slices). Rebuilt on deserialize, never stored.
    seen: FxHashMap<u64, Vec<u32>>,
    /// Lazily built multi-column join indexes keyed by column subset.
    /// Maintained incrementally by [`Relation::insert_row`]; cleared on
    /// symbol remap (key hashes go stale) and never serialized.
    key_indexes: FxHashMap<Box<[usize]>, Index>,
}

impl Relation {
    /// Creates an empty relation with the given signature.
    pub fn new(schema: RelationSchema) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            arity,
            data: Vec::new(),
            len: 0,
            seen: FxHashMap::default(),
            key_indexes: FxHashMap::default(),
        }
    }

    /// The relation's signature.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the relation holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test on a row slice.
    pub fn contains(&self, row: &[Val]) -> bool {
        if row.len() != self.arity {
            return false;
        }
        match self.seen.get(&row_hash(row)) {
            Some(positions) => positions.iter().any(|&p| self.row(p as usize) == row),
            None => false,
        }
    }

    /// Inserts a row by copy; returns `true` iff it was new. The caller is
    /// expected to have validated the row against the schema (see
    /// [`crate::Database::insert`], which does).
    pub fn insert_row(&mut self, row: &[Val]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        let hash = row_hash(row);
        let bucket = self.seen.entry(hash).or_default();
        // Membership probe against flat storage (no borrow of `self.row`
        // here because `bucket` borrows `self.seen` mutably).
        let arity = self.arity;
        let data = &self.data;
        if bucket
            .iter()
            .any(|&p| &data[p as usize * arity..p as usize * arity + arity] == row)
        {
            return false;
        }
        let pos = self.len as u32;
        bucket.push(pos);
        self.data.extend_from_slice(row);
        self.len += 1;
        for idx in self.key_indexes.values_mut() {
            let hash = key_hash(idx.cols.iter().map(|&c| &row[c]));
            idx.buckets.entry(hash).or_default().push(pos);
        }
        true
    }

    /// Inserts a tuple (convenience over [`Relation::insert_row`]).
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        self.insert_row(&tuple.0)
    }

    /// Row at insertion position `pos`, as a slice into columnar storage.
    pub fn row(&self, pos: usize) -> &[Val] {
        &self.data[pos * self.arity..pos * self.arity + self.arity]
    }

    /// Iterates rows in insertion order (zero-copy slices).
    pub fn iter(&self) -> RowIter<'_> {
        RowIter { rel: self, next: 0 }
    }

    /// Rows inserted at or after `watermark` (insertion index), in order.
    /// `watermark >= len()` yields an empty iterator.
    pub fn since(&self, watermark: usize) -> RowIter<'_> {
        RowIter {
            rel: self,
            next: watermark.min(self.len),
        }
    }

    /// Ensures a persistent multi-column index on `cols` exists, building it
    /// from current rows on first use. Subsequent [`Relation::insert_row`]
    /// calls maintain it incrementally. Pair with [`Relation::index`] when
    /// rows must be read while the index is borrowed.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        if !self.key_indexes.contains_key(cols) {
            let idx = self.build_index(cols);
            self.key_indexes.insert(cols.into(), idx);
        }
    }

    /// Builds an index on `cols` over the current rows without storing it —
    /// what a join falls back to when no persistent index exists.
    pub(crate) fn build_index(&self, cols: &[usize]) -> Index {
        debug_assert!(cols.iter().all(|&c| c < self.arity));
        let mut idx = Index {
            cols: cols.into(),
            buckets: FxHashMap::default(),
        };
        for (pos, row) in self.iter().enumerate() {
            let hash = key_hash(cols.iter().map(|&c| &row[c]));
            idx.buckets.entry(hash).or_default().push(pos as u32);
        }
        idx
    }

    /// The persistent index on `cols`, if [`Relation::ensure_index`] has
    /// built it. Immutable, so candidate rows can be read while probing.
    pub fn index(&self, cols: &[usize]) -> Option<&Index> {
        self.key_indexes.get(cols)
    }

    /// Ensures and returns the persistent index on `cols` (convenience over
    /// [`Relation::ensure_index`] + [`Relation::index`]).
    pub fn index_on(&mut self, cols: &[usize]) -> &Index {
        self.ensure_index(cols);
        &self.key_indexes[cols]
    }

    /// Every distinct [`crate::catalog::SymId`] occurring in this relation —
    /// the symbols a persisted copy must carry a dictionary for.
    pub fn syms(&self) -> impl Iterator<Item = crate::catalog::SymId> + '_ {
        self.data.iter().filter_map(Val::as_sym)
    }

    /// Rewrites every symbol through `f` (crash recovery remaps foreign
    /// catalog ids through the live catalog). Membership buckets are
    /// rebuilt; join indexes are dropped (their key hashes went stale).
    pub fn remap_syms(&mut self, f: &impl Fn(crate::catalog::SymId) -> crate::catalog::SymId) {
        for v in &mut self.data {
            if let Val::Sym(id) = v {
                *id = f(*id);
            }
        }
        self.rebuild_membership();
        self.key_indexes.clear();
    }

    /// Rebuilds the membership buckets from flat storage (deserialize,
    /// remap).
    fn rebuild_membership(&mut self) {
        self.seen.clear();
        for pos in 0..self.len {
            let hash = row_hash(&self.data[pos * self.arity..pos * self.arity + self.arity]);
            self.seen.entry(hash).or_default().push(pos as u32);
        }
    }
}

/// Iterator over a relation's rows as slices.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    rel: &'a Relation,
    next: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Val];

    fn next(&mut self) -> Option<&'a [Val]> {
        if self.next >= self.rel.len {
            return None;
        }
        let row = self.rel.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.rel.len - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

// Serialization carries the schema and the rows exactly once, as nested
// arrays (`"rows": [[...], ...]`); membership and indexes are rebuilt on
// read. The old derived form additionally serialized a `present` set — a
// byte-for-byte duplicate of every tuple that roughly doubled snapshots.
impl Serialize for Relation {
    fn serialize<S: Sink>(&self, out: &mut S) -> Result<(), S::Error> {
        out.map_begin(2)?;
        out.map_key("schema")?;
        self.schema.serialize(out)?;
        out.map_key("rows")?;
        out.seq_begin(self.len)?;
        for row in self.iter() {
            row.serialize(out)?;
        }
        out.seq_end()?;
        out.map_end()
    }
}

impl Deserialize for Relation {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| DeError::expected("object", "Relation"))?;
        let schema = serde::content_get(m, "schema")
            .ok_or_else(|| DeError::missing_field("schema", "Relation"))
            .and_then(RelationSchema::from_content)?;
        let rows = serde::content_get(m, "rows")
            .ok_or_else(|| DeError::missing_field("rows", "Relation"))?
            .as_seq()
            .ok_or_else(|| DeError::expected("array", "Relation::rows"))?;
        let mut rel = Relation::new(schema);
        let mut buf: Vec<Val> = Vec::with_capacity(rel.arity);
        for row in rows {
            let fields = row
                .as_seq()
                .ok_or_else(|| DeError::expected("array", "Relation row"))?;
            if fields.len() != rel.arity {
                return Err(DeError::expected("row of schema arity", "Relation row"));
            }
            buf.clear();
            for f in fields {
                buf.push(Val::from_content(f)?);
            }
            rel.insert_row(&buf);
        }
        Ok(rel)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len)?;
        for row in self.iter() {
            write!(f, "  (")?;
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn rel() -> Relation {
        Relation::new(RelationSchema::new(
            "r",
            vec![("x", ColumnType::Int), ("y", ColumnType::Int)],
        ))
    }

    fn tup(x: i64, y: i64) -> Vec<Val> {
        vec![Val::Int(x), Val::Int(y)]
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = rel();
        assert!(r.insert_row(&tup(1, 2)));
        assert!(!r.insert_row(&tup(1, 2)));
        assert!(r.insert_row(&tup(2, 1)));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tup(1, 2)));
        assert!(!r.contains(&tup(9, 9)));
    }

    #[test]
    fn insertion_order_preserved() {
        let mut r = rel();
        r.insert_row(&tup(3, 3));
        r.insert_row(&tup(1, 1));
        r.insert_row(&tup(2, 2));
        let got: Vec<Vec<Val>> = r.iter().map(<[Val]>::to_vec).collect();
        assert_eq!(got, vec![tup(3, 3), tup(1, 1), tup(2, 2)]);
    }

    #[test]
    fn since_returns_suffix() {
        let mut r = rel();
        r.insert_row(&tup(1, 1));
        let w = r.len();
        r.insert_row(&tup(2, 2));
        r.insert_row(&tup(3, 3));
        let got: Vec<Vec<Val>> = r.since(w).map(<[Val]>::to_vec).collect();
        assert_eq!(got, vec![tup(2, 2), tup(3, 3)]);
        assert_eq!(r.since(r.len()).count(), 0);
        assert_eq!(r.since(usize::MAX).count(), 0);
    }

    /// Row positions the index on `cols` yields for `key`, with hash
    /// collisions filtered out the way a join does.
    fn probe(r: &Relation, cols: &[usize], key: &[Val]) -> Vec<u32> {
        let idx = r.index(cols).expect("index built");
        idx.candidates(key_hash(key.iter()))
            .iter()
            .copied()
            .filter(|&p| {
                cols.iter()
                    .zip(key)
                    .all(|(&c, k)| r.row(p as usize)[c] == *k)
            })
            .collect()
    }

    #[test]
    fn index_built_lazily_and_maintained() {
        let mut r = rel();
        r.insert_row(&tup(1, 10));
        r.insert_row(&tup(2, 20));
        assert!(r.index(&[0]).is_none(), "no index before the first ensure");
        // Build the index on column 0 after two inserts …
        r.ensure_index(&[0]);
        assert_eq!(probe(&r, &[0], &[Val::Int(1)]), &[0]);
        // … and it must be maintained by subsequent inserts.
        r.insert_row(&tup(1, 30));
        assert_eq!(probe(&r, &[0], &[Val::Int(1)]), &[0, 2]);
        assert!(probe(&r, &[0], &[Val::Int(9)]).is_empty());
    }

    #[test]
    fn index_on_second_column() {
        let mut r = rel();
        r.insert_row(&tup(1, 7));
        r.insert_row(&tup(2, 7));
        r.ensure_index(&[1]);
        assert_eq!(probe(&r, &[1], &[Val::Int(7)]), &[0, 1]);
    }

    #[test]
    fn key_index_built_lazily_and_maintained() {
        let mut r = rel();
        r.insert_row(&tup(1, 10));
        r.insert_row(&tup(2, 10));
        r.insert_row(&tup(1, 20));
        let key = |x: i64, y: i64| [Val::Int(x), Val::Int(y)];
        r.ensure_index(&[0, 1]);
        assert_eq!(probe(&r, &[0, 1], &key(1, 10)), &[0]);
        assert_eq!(probe(&r, &[0, 1], &key(2, 10)), &[1]);
        assert!(probe(&r, &[0, 1], &key(2, 20)).is_empty());
        // Maintained incrementally by subsequent inserts.
        r.insert_row(&tup(2, 20));
        assert_eq!(probe(&r, &[0, 1], &key(2, 20)), &[3]);
        // A single-column key index returns the matching row positions.
        r.ensure_index(&[0]);
        assert_eq!(probe(&r, &[0], &[Val::Int(1)]), &[0, 2]);
        // index_on is ensure + get.
        assert_eq!(r.index_on(&[0, 1]).cols(), &[0, 1]);
    }

    #[test]
    fn remap_syms_drops_key_indexes() {
        let mut r = Relation::new(RelationSchema::new("s", vec![("x", ColumnType::Str)]));
        let a = Val::str("key-remap-a");
        r.insert_row(&[a]);
        r.ensure_index(&[0]);
        assert!(r.index(&[0]).is_some());
        r.remap_syms(&|id| id);
        assert!(r.index(&[0]).is_none(), "stale hashes must be dropped");
    }

    #[test]
    fn serde_round_trip_rebuilds_membership() {
        let mut r = rel();
        r.insert_row(&tup(1, 2));
        r.insert_row(&tup(3, 4));
        let text = serde_json::to_string(&r).unwrap();
        let back: Relation = serde_json::from_str(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.contains(&tup(1, 2)));
        let mut back = back;
        assert!(!back.insert_row(&tup(3, 4))); // dedup still works
        assert!(back.insert_row(&tup(5, 6)));
    }

    #[test]
    fn serialized_form_has_no_duplicate_row_copy() {
        let mut r = rel();
        r.insert_row(&tup(123_456, 654_321));
        let text = serde_json::to_string(&r).unwrap();
        assert_eq!(text.matches("123456").count(), 1, "{text}");
        assert!(!text.contains("present"), "{text}");
    }

    #[test]
    fn zero_arity_relation_holds_at_most_one_row() {
        let mut r = Relation::new(RelationSchema::new("unit", vec![]));
        assert!(r.insert_row(&[]));
        assert!(!r.insert_row(&[]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().count(), 1);
    }

    #[test]
    fn remap_syms_rewrites_and_rebuilds() {
        let mut r = Relation::new(RelationSchema::new("s", vec![("x", ColumnType::Str)]));
        let a = Val::str("remap-a");
        let b = Val::str("remap-b");
        r.insert_row(&[a]);
        let (a_id, b_id) = (a.as_sym().unwrap(), b.as_sym().unwrap());
        r.remap_syms(&|id| if id == a_id { b_id } else { id });
        assert!(r.contains(&[b]));
        assert!(!r.contains(&[a]));
    }
}
