//! A single relation instance: columnar, deduplicated, insertion-ordered
//! rows with lazily built join-key hash indexes.
//!
//! Storage is one flat `Vec<Val>` in row-major order with stride = arity —
//! a row is a contiguous 16-byte-per-field slice, cache-friendly to scan.
//! Membership (deduplication) and the join indexes are one structure, an
//! [`Index`]: membership is the index on every column, and a probe compares
//! the row slice of each candidate position. There is **no** second
//! serialized copy of the data (the old `present: HashSet<Tuple>` both
//! doubled memory and doubled every snapshot on disk), and no heap
//! allocation per row or per key: a stored row costs its `16 × arity`
//! bytes plus, in membership and in each join index, one 4-byte chain link;
//! a distinct hash costs one 16-byte map entry per index. Inserting grows
//! these buffers by amortised doubling, and cloning a relation copies them
//! with one allocation each.
//!
//! Insertion order is preserved so that (a) iteration is deterministic and
//! (b) *watermarks* work: the update protocol's delta optimization sends a
//! subscriber only the rows inserted after the watermark recorded at the
//! previous answer, which is exactly the "delta optimization … to minimize
//! data transfer and duplication" the paper sketches in Section 3.

use crate::fxhash::FxHashMap;
use crate::schema::RelationSchema;
use crate::value::Val;
use serde::{Content, DeError, Deserialize, Serialize, Sink};
use std::fmt;
use std::sync::Arc;

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

/// The chain link of a bucket's newest position: never read, because a
/// walk stops at the bucket's recorded newest position.
const UNLINKED: u32 = u32::MAX;

/// A persistent hash index over a subset of columns: key hash → candidate
/// row positions, in insertion order. Collisions are possible; callers must
/// verify the key columns of each candidate against the probe values (which
/// the join loop needs anyway for repeated-variable rechecks).
///
/// Every index covers every row of its relation. Built lazily by
/// [`Relation::ensure_index`] and maintained incrementally by
/// [`Relation::insert_row`], so repeated evaluation never rebuilds it.
#[derive(Debug, Clone)]
pub struct Index {
    /// Key columns in probe order (shared, so a clone does not copy them).
    cols: Arc<[usize]>,
    /// Key hash → the oldest and the newest position with that hash.
    buckets: FxHashMap<u64, (u32, u32)>,
    /// `next[pos]`: the next newer position whose key hash equals `pos`'s
    /// ([`UNLINKED`] while `pos` is its bucket's newest). One per row.
    next: Vec<u32>,
}

impl Index {
    /// An empty index on `cols`, with room for `rows` rows.
    fn with_capacity(cols: Arc<[usize]>, rows: usize) -> Self {
        let mut buckets = FxHashMap::default();
        buckets.reserve(rows);
        Index {
            cols,
            buckets,
            next: Vec::with_capacity(rows),
        }
    }

    /// The indexed column positions, in probe order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Candidate row positions whose key columns hash to `hash`, oldest
    /// first.
    pub fn candidates(&self, hash: u64) -> Candidates<'_> {
        Candidates {
            next: &self.next,
            span: self.buckets.get(&hash).copied(),
        }
    }

    /// Appends the next row position (`next.len()`) to the chain of `hash`.
    fn link(&mut self, hash: u64) {
        let pos = self.next.len() as u32;
        let span = self.buckets.entry(hash).or_insert((pos, pos));
        if span.1 != pos {
            self.next[span.1 as usize] = pos;
            span.1 = pos;
        }
        self.next.push(UNLINKED);
    }

    /// [`Index::link`], unless `same` accepts a position already on the
    /// chain of `hash` — then nothing changes and the result is `false`.
    /// One map lookup either way.
    fn link_unless(&mut self, hash: u64, same: impl FnMut(u32) -> bool) -> bool {
        let pos = self.next.len() as u32;
        let span = self.buckets.entry(hash).or_insert((pos, pos));
        if span.1 != pos {
            let mut chain = Candidates {
                next: &self.next,
                span: Some(*span),
            };
            if chain.any(same) {
                return false;
            }
            self.next[span.1 as usize] = pos;
            span.1 = pos;
        }
        self.next.push(UNLINKED);
        true
    }
}

/// Iterator over the row positions of one [`Index`] bucket, oldest first.
/// A bucket with one position never reads the chain.
#[derive(Debug, Clone)]
pub struct Candidates<'a> {
    next: &'a [u32],
    /// The position to yield next and the bucket's newest; `None` when done.
    span: Option<(u32, u32)>,
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let (at, newest) = self.span?;
        self.span = (at != newest).then(|| (self.next[at as usize], newest));
        Some(at)
    }
}

/// A relation instance.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The signature, shared by every clone.
    schema: Arc<RelationSchema>,
    /// Column count, cached (`schema.arity()`).
    arity: usize,
    /// Row-major flat storage: row `i` is `data[i*arity .. (i+1)*arity]`.
    data: Vec<Val>,
    /// Membership: the index on every column, which also counts the rows
    /// (so arity-0 relations work). Collisions are resolved by comparing
    /// row slices. Rebuilt on deserialize and remap, never stored.
    seen: Index,
    /// Lazily built multi-column join indexes, one per column list (a
    /// relation has a handful, so they are found by a linear scan).
    /// Maintained incrementally by [`Relation::insert_row`]; cleared on
    /// symbol remap (key hashes go stale) and never serialized.
    key_indexes: Vec<Index>,
}

impl Relation {
    /// Creates an empty relation with the given signature.
    pub fn new(schema: RelationSchema) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// An empty relation with room for `rows` rows.
    fn with_capacity(schema: RelationSchema, rows: usize) -> Self {
        let arity = schema.arity();
        Relation {
            schema: Arc::new(schema),
            arity,
            data: Vec::with_capacity(rows * arity),
            seen: Index::with_capacity((0..arity).collect(), rows),
            key_indexes: Vec::new(),
        }
    }

    /// The relation's signature.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.seen.next.len()
    }

    /// True iff the relation holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test on a row slice.
    pub fn contains(&self, row: &[Val]) -> bool {
        row.len() == self.arity
            && self
                .seen
                .candidates(key_hash(row))
                .any(|p| self.row(p as usize) == row)
    }

    /// Inserts a row by copy; returns `true` iff it was new. The caller is
    /// expected to have validated the row against the schema (see
    /// [`crate::Database::insert_row`], which does).
    pub fn insert_row(&mut self, row: &[Val]) -> bool {
        self.insert_hashed(row, |cols| key_hash(cols.iter().map(|&c| &row[c])))
    }

    /// [`Relation::insert_row`] with the hashing supplied: `hash(cols)` is
    /// the hash of `row` projected onto `cols`, for membership (every
    /// column) and for each join index. Tests pass a constant here to put
    /// every row in one bucket.
    fn insert_hashed(&mut self, row: &[Val], hash: impl Fn(&[usize]) -> u64) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        // Row positions are `u32`, and `UNLINKED` is not one.
        assert!(
            self.len() < UNLINKED as usize,
            "a relation holds fewer than 2³² − 1 rows"
        );
        let (data, arity) = (&self.data, self.arity);
        let new = self.seen.link_unless(hash(&self.seen.cols), |p| {
            &data[p as usize * arity..][..arity] == row
        });
        if new {
            self.data.extend_from_slice(row);
            for idx in &mut self.key_indexes {
                idx.link(hash(&idx.cols));
            }
        }
        new
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
            next: watermark.min(self.len()),
        }
    }

    /// Ensures a persistent multi-column index on `cols` exists, building it
    /// from current rows on first use. Subsequent [`Relation::insert_row`]
    /// calls maintain it incrementally. Pair with [`Relation::index`] when
    /// rows must be read while the index is borrowed.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        self.index_on(cols);
    }

    /// Builds an index on `cols` over the current rows without storing it —
    /// what a join falls back to when no persistent index exists.
    pub(crate) fn build_index(&self, cols: &[usize]) -> Index {
        debug_assert!(cols.iter().all(|&c| c < self.arity));
        let mut idx = Index::with_capacity(cols.into(), self.len());
        for row in self.iter() {
            idx.link(key_hash(cols.iter().map(|&c| &row[c])));
        }
        // Sized for one key per row; give back what repeated keys left idle.
        idx.buckets.shrink_to_fit();
        idx
    }

    /// The persistent index on `cols`, if [`Relation::ensure_index`] has
    /// built it. Immutable, so candidate rows can be read while probing.
    pub fn index(&self, cols: &[usize]) -> Option<&Index> {
        self.key_indexes.iter().find(|idx| *idx.cols == *cols)
    }

    /// Ensures and returns the persistent index on `cols` (convenience over
    /// [`Relation::ensure_index`] + [`Relation::index`]).
    pub fn index_on(&mut self, cols: &[usize]) -> &Index {
        let at = match self.key_indexes.iter().position(|idx| *idx.cols == *cols) {
            Some(at) => at,
            None => {
                let idx = self.build_index(cols);
                self.key_indexes.push(idx);
                self.key_indexes.len() - 1
            }
        };
        &self.key_indexes[at]
    }

    /// Every distinct [`crate::catalog::SymId`] occurring in this relation —
    /// the symbols a persisted copy must carry a dictionary for.
    pub fn syms(&self) -> impl Iterator<Item = crate::catalog::SymId> + '_ {
        self.data.iter().filter_map(Val::as_sym)
    }

    /// Rewrites every symbol through `f` (crash recovery remaps foreign
    /// catalog ids through the live catalog). Membership is rebuilt; join
    /// indexes are dropped (their key hashes went stale).
    pub fn remap_syms(&mut self, f: &impl Fn(crate::catalog::SymId) -> crate::catalog::SymId) {
        for v in &mut self.data {
            if let Val::Sym(id) = v {
                *id = f(*id);
            }
        }
        self.seen = self.build_index(&self.seen.cols);
        self.key_indexes.clear();
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
        if self.next >= self.rel.len() {
            return None;
        }
        let row = self.rel.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.rel.len() - self.next;
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
        out.seq_begin(self.len())?;
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
        let mut rel = Relation::with_capacity(schema, rows.len());
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
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
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

    /// Every row hashes alike through the hashed-insert seam, so membership
    /// and the index each hold one chain: dedup must still compare slices
    /// along all of it, candidates come oldest first, and a clone extends
    /// its own chain without touching the original's.
    #[test]
    fn colliding_rows_share_one_chain() {
        let same = |_: &[usize]| 7;
        let mut r = rel();
        r.ensure_index(&[1]);
        let fresh: Vec<bool> = [(1, 1), (2, 2), (1, 1), (3, 1), (2, 2), (3, 1)]
            .iter()
            .map(|&(x, y)| r.insert_hashed(&tup(x, y), same))
            .collect();
        assert_eq!(fresh, [true, true, false, true, false, false]);
        assert_eq!(r.len(), 3);
        let chain = |idx: &Index| idx.candidates(7).collect::<Vec<u32>>();
        assert_eq!(chain(&r.seen), [0, 1, 2]);
        assert_eq!(chain(r.index(&[1]).unwrap()), [0, 1, 2]);
        assert_eq!(r.seen.candidates(8).count(), 0);

        let mut copy = r.clone();
        assert!(copy.insert_hashed(&tup(4, 4), same));
        assert!(!copy.insert_hashed(&tup(4, 4), same));
        assert_eq!(chain(&copy.seen), [0, 1, 2, 3]);
        assert_eq!(chain(copy.index(&[1]).unwrap()), [0, 1, 2, 3]);
        assert_eq!(chain(&r.seen), [0, 1, 2], "the original is untouched");
        assert_eq!(r.len(), 3);

        // Rebuilding membership from storage uses the real hashes again.
        copy.remap_syms(&|id| id);
        assert!(copy.contains(&tup(4, 4)) && copy.contains(&tup(1, 1)));
        assert!(!copy.insert_row(&tup(3, 1)));
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
