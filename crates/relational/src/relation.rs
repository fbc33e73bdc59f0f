//! [`RowSet`] — the one deduplicated, insertion-ordered row collection:
//! relations keep their rows in one, and so does every peer-side collection
//! that dedups or outlives a handler (shipped fragments, what a
//! subscription sent, join and delta-union results, the durable answer
//! fold) — and [`Relation`], a schema over a row set with lazily built
//! join-key hash indexes.
//!
//! Storage is one flat `Vec<Val>` in row-major order with stride = arity —
//! a row is a contiguous 16-byte-per-field slice, cache-friendly to scan.
//! Membership (deduplication) and the join indexes are one structure, an
//! [`Index`] of row positions per hash; a probe compares the row slice of
//! each candidate position. There is no second copy of the data and no
//! heap allocation per row or per key: a stored row costs its `16 × arity`
//! bytes plus, in membership and in each join index, one 4-byte chain link;
//! a distinct hash costs one 16-byte map entry per index. Inserting grows
//! these buffers by amortised doubling.
//!
//! Membership is kept only past a small bound, `LINEAR_ROWS` (8) rows: a
//! set that holds no more compares a row with each row it holds, and its
//! index is an empty, unallocated one. Most sets a peer makes are that
//! small — a fragment's answer, what a subscription sent, a delta, a copy
//! rule's relations — so each costs one data buffer, and a clone copies
//! that one buffer. The insert that passes the bound builds the index over
//! the rows held, hashed as the caller hashes them; from then on the set
//! reads and maintains it like any other. A relation is copy-on-write: a
//! clone (of it, or of a [`crate::Database`]) shares its row set and join
//! indexes, each behind an `Arc`, and copies no row; its first write copies
//! what it writes, there only, and a row already present copies nothing.
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
use std::sync::{Arc, OnceLock};

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

/// A hash index of row positions: key hash → the positions whose key hashes
/// to it, in insertion order — one map entry per distinct hash and one
/// chain link per row. It knows no columns: [`RowSet`] membership indexes
/// whole rows, a relation's join indexes the key columns they are kept
/// under. Collisions are possible; callers compare the candidate rows
/// (which the join loop does anyway for repeated-variable rechecks).
///
/// A relation's join indexes cover every row of it: built lazily by
/// [`Relation::ensure_index`] and maintained incrementally by
/// [`Relation::insert_row`], so repeated evaluation never rebuilds them.
/// [`Index::build`] indexes any sequence of rows once.
#[derive(Debug, Clone, Default)]
pub struct Index {
    /// Key hash → the oldest and the newest position with that hash.
    buckets: FxHashMap<u64, (u32, u32)>,
    /// `next[pos]`: the next newer position whose hash equals `pos`'s
    /// ([`UNLINKED`] while `pos` is its bucket's newest). One per row.
    next: Vec<u32>,
}

impl Index {
    /// Empty, with room for `rows` rows.
    fn with_capacity(rows: usize) -> Self {
        let mut buckets = FxHashMap::default();
        buckets.reserve(rows);
        Index {
            buckets,
            next: Vec::with_capacity(rows),
        }
    }

    /// Indexes `rows` on the columns `cols`: a row's position is its place
    /// in the sequence.
    pub fn build<'a>(cols: &[usize], rows: impl ExactSizeIterator<Item = &'a [Val]>) -> Self {
        let mut idx = Index::hashed(rows, |row| key_hash(cols.iter().map(|&c| &row[c])));
        // Sized for one key per row; give back what repeated keys left idle.
        idx.buckets.shrink_to_fit();
        idx
    }

    /// Indexes `rows` under `hash`, a row's position being its place in
    /// the sequence.
    fn hashed<'a>(
        rows: impl ExactSizeIterator<Item = &'a [Val]>,
        hash: impl Fn(&[Val]) -> u64,
    ) -> Self {
        let mut idx = Index::with_capacity(rows.len());
        for row in rows {
            idx.link(hash(row));
        }
        idx
    }

    /// Candidate row positions whose key hashes to `hash`, oldest first.
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

/// Rows a [`RowSet`] compares one by one: membership of at most this many
/// rows is a linear scan, with no index behind it, and the insert that
/// passes the bound builds the index over the rows held.
const LINEAR_ROWS: usize = 8;

/// A deduplicated, insertion-ordered set of rows of one fixed arity (zero
/// included): one flat `Vec<Val>`, its row count, and — past
/// `LINEAR_ROWS` rows — its membership chains.
///
/// Serialized as the array of its rows — byte for byte what a `Vec` of
/// `Vec<Val>` rows writes. Reading one back takes the arity from the first
/// row and rejects a row of any other width.
#[derive(Debug, Clone, Default)]
pub struct RowSet {
    arity: usize,
    /// Number of rows (a field, so arity 0 works).
    len: usize,
    /// Row-major flat storage: row `i` is `data[i*arity .. (i+1)*arity]`.
    data: Vec<Val>,
    /// Membership: the index of whole rows once the set holds more than
    /// `LINEAR_ROWS` of them, and unallocated before. Never stored.
    seen: Index,
}

impl RowSet {
    /// An empty set of rows `arity` values wide.
    pub fn new(arity: usize) -> Self {
        Self::with_capacity(arity, 0)
    }

    /// An empty set with room for `rows` rows. Membership is built when
    /// the rows pass `LINEAR_ROWS`, so no room is kept for it.
    pub(crate) fn with_capacity(arity: usize, rows: usize) -> Self {
        RowSet {
            arity,
            len: 0,
            data: Vec::with_capacity(rows * arity),
            seen: Index::default(),
        }
    }

    /// An empty set, shared for arities below 8: an empty relation
    /// allocates nothing until its first row.
    fn shared_empty(arity: usize) -> Arc<RowSet> {
        static EMPTY: [OnceLock<Arc<RowSet>>; 8] = [const { OnceLock::new() }; 8];
        match EMPTY.get(arity) {
            Some(cell) => Arc::clone(cell.get_or_init(|| Arc::new(RowSet::new(arity)))),
            None => Arc::new(RowSet::new(arity)),
        }
    }

    /// The width of every row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff membership reads the index: the set holds more than
    /// `LINEAR_ROWS` rows.
    fn indexed(&self) -> bool {
        self.len > LINEAR_ROWS
    }

    /// Membership test on a row slice.
    pub fn contains(&self, row: &[Val]) -> bool {
        row.len() == self.arity && self.holds(row, |row| key_hash(row))
    }

    /// Membership test on a row of the set's arity, which an indexed set
    /// looks up under `hash(row)`.
    fn holds(&self, row: &[Val], hash: impl Fn(&[Val]) -> u64) -> bool {
        if !self.indexed() || self.seen.next.len() < self.len {
            // Under the bound, or distinct rows never indexed.
            return self.iter().any(|held| held == row);
        }
        (self.seen.candidates(hash(row))).any(|p| self.row(p as usize) == row)
    }

    /// Inserts a row by copy; returns `true` iff it was new.
    ///
    /// # Panics
    /// If the row is not [`RowSet::arity`] values wide: rows from outside
    /// are checked where they arrive.
    pub fn insert(&mut self, row: &[Val]) -> bool {
        self.insert_hashed(row, |row| key_hash(row))
    }

    /// [`RowSet::insert`] with the hashing supplied: membership hashes
    /// every row it indexes through `hash`, the rows held when the set
    /// passes `LINEAR_ROWS` included. Tests pass a constant here to put
    /// every row in one bucket.
    fn insert_hashed(&mut self, row: &[Val], hash: impl Fn(&[Val]) -> u64) -> bool {
        assert_eq!(row.len(), self.arity, "a row of the set's arity");
        // Row positions are `u32`, and `UNLINKED` is not one.
        assert!(
            self.len < UNLINKED as usize,
            "a row set holds fewer than 2³² − 1 rows"
        );
        if !self.indexed() {
            if self.iter().any(|held| held == row) {
                return false;
            }
            self.push(row);
            if self.indexed() {
                self.seen = Index::hashed(self.iter(), hash);
            }
            return true;
        }
        if self.seen.next.len() < self.len {
            // Made from distinct rows: membership is built by the first insert.
            self.seen = Index::hashed(self.iter(), &hash);
        }
        let (data, arity) = (&self.data, self.arity);
        let new =
            (self.seen).link_unless(hash(row), |p| &data[p as usize * arity..][..arity] == row);
        if new {
            self.push(row);
        }
        new
    }

    /// Appends a row membership has accepted.
    fn push(&mut self, row: &[Val]) {
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    /// The distinct rows among the first `rows` rows of a flat, row-major
    /// buffer, in first-occurrence order: the buffer becomes the store
    /// (duplicates compacted out in place). Up to `LINEAR_ROWS` rows a
    /// row is compared with the rows kept before it; past that membership
    /// is built, and a row is compared only with rows whose hash it shares.
    ///
    /// # Panics
    /// If `data` holds fewer than `rows × arity` values.
    pub fn from_flat(arity: usize, rows: usize, mut data: Vec<Val>) -> Self {
        assert!(
            rows < UNLINKED as usize,
            "a row set holds fewer than 2³² − 1 rows"
        );
        data.truncate(rows * arity);
        assert_eq!(data.len(), rows * arity, "a row set's flat rows");
        let mut seen = Index::default();
        let mut kept = 0;
        for i in 0..rows {
            let row = &data[i * arity..][..arity];
            let held = |p: usize| &data[p * arity..][..arity] == row;
            let new = if rows <= LINEAR_ROWS {
                !(0..kept).any(held)
            } else {
                seen.link_unless(key_hash(row), |p| held(p as usize))
            };
            if new {
                if kept != i {
                    data.copy_within(i * arity..(i + 1) * arity, kept * arity);
                }
                kept += 1;
            }
        }
        data.truncate(kept * arity);
        if kept <= LINEAR_ROWS {
            // Duplicates took the set back under the bound.
            seen = Index::default();
        }
        RowSet {
            arity,
            len: kept,
            data,
            seen,
        }
    }

    /// The first `rows` rows of a flat, row-major buffer, distinct already
    /// (the caller guarantees it): the buffer becomes the store as it is,
    /// with no row compared and no membership built. A membership test
    /// scans such a set; [`RowSet::reindex`] or its first insert builds
    /// membership.
    pub(crate) fn from_distinct(arity: usize, rows: usize, mut data: Vec<Val>) -> Self {
        data.truncate(rows * arity);
        RowSet {
            arity,
            len: rows,
            data,
            seen: Index::default(),
        }
    }

    /// Builds membership over the rows held, if the set is large enough to
    /// keep it and holds none (made from distinct rows, or remapped).
    pub(crate) fn reindex(&mut self) {
        if self.indexed() && self.seen.next.len() < self.len {
            self.seen = Index::hashed(self.iter(), |row| key_hash(row));
        }
    }

    /// Row at insertion position `pos`, as a slice into the flat store.
    pub fn row(&self, pos: usize) -> &[Val] {
        &self.data[pos * self.arity..pos * self.arity + self.arity]
    }

    /// Iterates rows in insertion order (zero-copy slices).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Val]> + Clone {
        self.since(0)
    }

    /// Rows inserted at or after position `from`, in order. `from >= len()`
    /// yields an empty iterator.
    pub fn since(&self, from: usize) -> impl ExactSizeIterator<Item = &[Val]> + Clone {
        (from.min(self.len())..self.len()).map(|pos| self.row(pos))
    }

    /// Every [`crate::catalog::SymId`] occurring in the rows — the symbols
    /// a persisted copy must carry a dictionary for.
    pub fn syms(&self) -> impl Iterator<Item = crate::catalog::SymId> + '_ {
        self.data.iter().filter_map(Val::as_sym)
    }

    /// Rewrites every symbol through `f` (crash recovery remaps foreign
    /// catalog ids through the live catalog) and rebuilds membership, if
    /// the set keeps one.
    pub fn remap_syms(&mut self, f: &impl Fn(crate::catalog::SymId) -> crate::catalog::SymId) {
        for v in &mut self.data {
            if let Val::Sym(id) = v {
                *id = f(*id);
            }
        }
        self.seen = Index::default();
        self.reindex();
    }

    /// Reads the rows of `rows` (arrays of `arity` values each) into a set.
    fn from_rows(arity: usize, rows: &[Content], what: &'static str) -> Result<Self, DeError> {
        let mut set = RowSet::with_capacity(arity, rows.len());
        let mut buf: Vec<Val> = Vec::with_capacity(arity);
        for row in rows {
            let fields = row
                .as_seq()
                .ok_or_else(|| DeError::expected("array", what))?;
            if fields.len() != arity {
                return Err(DeError::expected("rows of one width", what));
            }
            buf.clear();
            for f in fields {
                buf.push(Val::from_content(f)?);
            }
            set.insert(&buf);
        }
        Ok(set)
    }
}

impl<'a> Extend<&'a [Val]> for RowSet {
    fn extend<I: IntoIterator<Item = &'a [Val]>>(&mut self, rows: I) {
        for row in rows {
            self.insert(row);
        }
    }
}

/// Equal when they hold the same rows in the same order.
impl PartialEq for RowSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for RowSet {}

impl Serialize for RowSet {
    fn serialize<S: Sink>(&self, out: &mut S) -> Result<(), S::Error> {
        out.seq_begin(self.len())?;
        for row in self.iter() {
            row.serialize(out)?;
        }
        out.seq_end()
    }
}

impl Deserialize for RowSet {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let rows = c
            .as_seq()
            .ok_or_else(|| DeError::expected("array", "RowSet"))?;
        let arity = rows.first().and_then(Content::as_seq).map_or(0, <[_]>::len);
        RowSet::from_rows(arity, rows, "RowSet row")
    }
}

/// A relation instance, copy-on-write (see the module docs).
#[derive(Debug, Clone)]
pub struct Relation {
    /// The signature, shared by every clone.
    schema: Arc<RelationSchema>,
    /// The rows, of the schema's arity; shared until a clone inserts a new
    /// row or remaps its symbols.
    rows: Arc<RowSet>,
    /// Lazily built multi-column join indexes, each under its key columns
    /// (a relation has a handful, so they are found by a linear scan). A
    /// clone shares each index until it inserts a new row; an index built
    /// later belongs to the clone that built it. Maintained incrementally
    /// by [`Relation::insert_row`]; cleared on symbol remap (key hashes go
    /// stale) and never serialized.
    key_indexes: Vec<(Arc<[usize]>, Arc<Index>)>,
}

impl Relation {
    /// Creates an empty relation with the given signature (a
    /// [`crate::DatabaseSchema`]'s shared one, or an owned one).
    pub fn new(schema: impl Into<Arc<RelationSchema>>) -> Self {
        let schema = schema.into();
        Relation {
            rows: RowSet::shared_empty(schema.arity()),
            schema,
            key_indexes: Vec::new(),
        }
    }

    /// The relation's signature.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Inserts a row by copy; returns `true` iff it was new. The caller is
    /// expected to have validated the row against the schema (see
    /// [`crate::Database::insert_row`], which does).
    pub fn insert_row(&mut self, row: &[Val]) -> bool {
        self.insert_hashed(
            row,
            |row| key_hash(row),
            |cols| key_hash(cols.iter().map(|&c| &row[c])),
        )
    }

    /// [`Relation::insert_row`] with the hashing supplied: `row_hash` for
    /// membership (of every row the set indexes), and `hash(cols)`, the
    /// hash of `row` projected onto `cols`, for each join index. Tests pass
    /// constants here to put every row in one bucket. Shared rows are
    /// copied only for a new row.
    fn insert_hashed(
        &mut self,
        row: &[Val],
        row_hash: impl Fn(&[Val]) -> u64,
        hash: impl Fn(&[usize]) -> u64,
    ) -> bool {
        let rows = match Arc::get_mut(&mut self.rows) {
            Some(rows) => rows,
            None => {
                if self.rows.holds(row, &row_hash) {
                    return false;
                }
                Arc::make_mut(&mut self.rows)
            }
        };
        let new = rows.insert_hashed(row, row_hash);
        if new {
            for (cols, idx) in &mut self.key_indexes {
                Arc::make_mut(idx).link(hash(cols));
            }
        }
        new
    }

    /// Ensures a persistent multi-column index on `cols` exists, building it
    /// from current rows on first use (at this clone only: the rows are
    /// read, not copied). Subsequent [`Relation::insert_row`]
    /// calls maintain it incrementally. Pair with [`Relation::index`] when
    /// rows must be read while the index is borrowed.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        self.index_on(cols);
    }

    /// The persistent index on `cols`, if [`Relation::ensure_index`] has
    /// built it. Immutable, so candidate rows can be read while probing.
    pub fn index(&self, cols: &[usize]) -> Option<&Index> {
        let mut indexes = self.key_indexes.iter();
        indexes.find(|(on, _)| **on == *cols).map(|(_, idx)| &**idx)
    }

    /// Ensures and returns the persistent index on `cols` (convenience over
    /// [`Relation::ensure_index`] + [`Relation::index`]).
    pub(crate) fn index_on(&mut self, cols: &[usize]) -> &Index {
        let at = match self.key_indexes.iter().position(|(on, _)| **on == *cols) {
            Some(at) => at,
            None => {
                let idx = Index::build(cols, self.iter());
                self.key_indexes.push((cols.into(), Arc::new(idx)));
                self.key_indexes.len() - 1
            }
        };
        &self.key_indexes[at].1
    }

    /// Rewrites every symbol through `f` (crash recovery remaps foreign
    /// catalog ids through the live catalog). Membership is rebuilt; join
    /// indexes are dropped (their key hashes went stale). Shared rows are
    /// copied first.
    pub fn remap_syms(&mut self, f: &impl Fn(crate::catalog::SymId) -> crate::catalog::SymId) {
        Arc::make_mut(&mut self.rows).remap_syms(f);
        self.key_indexes.clear();
    }
}

/// A relation reads as its rows: length, membership, iteration and
/// watermark suffixes are its [`RowSet`]'s. Inserting goes through
/// [`Relation::insert_row`], which keeps the join indexes in step.
impl std::ops::Deref for Relation {
    type Target = RowSet;

    fn deref(&self) -> &RowSet {
        &self.rows
    }
}

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
        self.rows.serialize(out)?;
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
        Ok(Relation {
            rows: Arc::new(RowSet::from_rows(schema.arity(), rows, "Relation row")?),
            schema: Arc::new(schema),
            key_indexes: Vec::new(),
        })
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for row in self.iter() {
            writeln!(f, "  {}", ShowRow(row))?;
        }
        Ok(())
    }
}

/// Displays a row as `(1, 'x')`: the one row format, of a relation's
/// listing, `p2pdb run --query`'s answers and the examples'.
#[derive(Debug, Clone, Copy)]
pub struct ShowRow<'a>(pub &'a [Val]);

impl fmt::Display for ShowRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
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
        let on: Vec<u32> = (r.index_on(&[0, 1]))
            .candidates(key_hash(key(2, 20).iter()))
            .collect();
        assert_eq!(on, probe(&r, &[0, 1], &key(2, 20)));
    }

    /// Every row hashes alike through the hashed-insert seam, so membership
    /// — once the set passes the linear bound, built over the rows it held
    /// under that same hashing — and the index each hold one chain: dedup
    /// must still compare slices along all of it, candidates come oldest
    /// first, and a clone extends its own chain without touching the
    /// original's.
    #[test]
    fn colliding_rows_share_one_chain() {
        let (same, seven) = (|_: &[usize]| 7, |_: &[Val]| 7);
        let mut r = rel();
        r.ensure_index(&[1]);
        // Row `x` is new; row `x / 2`, offered right after it, is not.
        let offer = |r: &mut Relation, xs: std::ops::Range<i64>| {
            for x in xs {
                assert!(r.insert_hashed(&tup(x, 1), seven, same), "{x} is new");
                assert!(!r.insert_hashed(&tup(x / 2, 1), seven, same), "{x} / 2");
            }
        };
        offer(&mut r, 0..LINEAR_ROWS as i64);
        assert_eq!(r.len(), LINEAR_ROWS);
        assert!(r.rows.seen.next.is_empty(), "no index up to the bound");
        offer(&mut r, LINEAR_ROWS as i64..12);
        assert_eq!(r.len(), 12);
        let chain = |idx: &Index| idx.candidates(7).collect::<Vec<u32>>();
        let upto = |n: u32| (0..n).collect::<Vec<u32>>();
        assert_eq!(chain(&r.rows.seen), upto(12));
        assert_eq!(chain(r.index(&[1]).unwrap()), upto(12));
        assert_eq!(r.rows.seen.candidates(8).count(), 0);

        let mut copy = r.clone();
        assert!(copy.insert_hashed(&tup(40, 4), seven, same));
        assert!(!copy.insert_hashed(&tup(40, 4), seven, same));
        assert!(!copy.insert_hashed(&tup(3, 1), seven, same));
        assert_eq!(chain(&copy.rows.seen), upto(13));
        assert_eq!(chain(copy.index(&[1]).unwrap()), upto(13));
        assert_eq!(chain(&r.rows.seen), upto(12), "the original is untouched");
        assert_eq!(r.len(), 12);

        // Rebuilding membership from storage uses the real hashes again.
        copy.remap_syms(&|id| id);
        assert!(copy.contains(&tup(40, 4)) && copy.contains(&tup(0, 1)));
        assert!(!copy.insert_row(&tup(3, 1)));
        assert_eq!(copy.rows.seen.candidates(7).count(), 0);
    }

    /// A set made from distinct rows past the linear bound builds no
    /// membership: a membership test scans it, its first insert builds
    /// membership over every row before it looks the new one up, and
    /// `reindex` builds it once and then keeps it.
    #[test]
    fn a_distinct_set_builds_membership_when_first_needed() {
        let n = 3 * LINEAR_ROWS;
        let flat = |rows: std::ops::Range<i64>| rows.map(Val::Int).collect::<Vec<_>>();
        let mut set = RowSet::from_distinct(1, n, flat(0..n as i64));
        assert!(set.seen.next.is_empty(), "no membership built");
        assert!(set.contains(&[Val::Int(5)]) && !set.contains(&[Val::Int(-1)]));
        assert!(
            !set.insert(&[Val::Int(n as i64 - 1)]),
            "a held row is found"
        );
        assert_eq!(set.seen.next.len(), n, "the insert built membership");
        assert!(set.insert(&[Val::Int(-1)]) && set.contains(&[Val::Int(-1)]));
        assert_eq!((set.len(), set.seen.next.len()), (n + 1, n + 1));

        let mut kept = RowSet::from_distinct(1, n, flat(0..n as i64));
        kept.reindex();
        assert_eq!(kept.seen.next.len(), n);
        let buckets = kept.seen.buckets.len();
        kept.reindex();
        assert_eq!(
            (kept.seen.next.len(), kept.seen.buckets.len()),
            (n, buckets)
        );
        assert!(!kept.insert(&[Val::Int(0)]));
    }

    /// `from_flat` keeps what a `Vec` dedup keeps, in the same order, below,
    /// at and above the linear bound, with duplicates taking a set of many
    /// rows back under it: then it keeps no index.
    #[test]
    fn from_flat_matches_a_vec_dedup_across_the_bound() {
        for rows in 0..=3 * LINEAR_ROWS {
            for distinct in 1..=rows.max(1) {
                let row = |i: usize| tup((i % distinct) as i64, -((i % distinct) as i64));
                let flat: Vec<Val> = (0..rows).flat_map(row).collect();
                let set = RowSet::from_flat(2, rows, flat);
                let mut model: Vec<Vec<Val>> = Vec::new();
                for i in 0..rows {
                    if !model.contains(&row(i)) {
                        model.push(row(i));
                    }
                }
                let got: Vec<Vec<Val>> = set.iter().map(<[Val]>::to_vec).collect();
                assert_eq!(got, model, "{rows} rows, {distinct} distinct");
                assert_eq!(set.len(), model.len());
                assert_eq!(
                    set.seen.next.len(),
                    if set.indexed() { set.len() } else { 0 }
                );
                assert!(model.iter().all(|r| set.contains(r)));
                assert!(!set.contains(&tup(-1, 1)));
                let mut grown = set.clone();
                assert!(model.iter().all(|r| !grown.insert(r)), "present");
                assert!(grown.insert(&tup(-1, 1)));
            }
        }
    }

    /// Rows `(x, x % 3)` for `x` in `xs`, under an index on column 1.
    fn filled(xs: std::ops::Range<i64>) -> Relation {
        let mut r = rel();
        r.ensure_index(&[1]);
        for x in xs {
            r.insert_row(&tup(x, x % 3));
        }
        r
    }

    /// Everything a reader of a relation sees: rows in order, the length,
    /// and the positions its index on column 1 yields for each key.
    fn seen(r: &Relation) -> (Vec<Vec<Val>>, usize, Vec<Vec<u32>>) {
        let keys = (0..3).map(|k| probe(r, &[1], &[Val::Int(k)])).collect();
        (r.iter().map(<[Val]>::to_vec).collect(), r.len(), keys)
    }

    /// A clone shares rows and indexes until one side inserts a new row;
    /// then that side alone holds a copy, and the other reads as before —
    /// rows, length (its watermark) and join index alike. A present row
    /// copies nothing.
    #[test]
    fn a_write_to_either_clone_leaves_the_other_untouched() {
        for writer in 0..2 {
            let mut pair = [filled(0..5), filled(0..0)];
            pair[1] = pair[0].clone();
            assert!(Arc::ptr_eq(&pair[0].rows, &pair[1].rows));
            assert!(Arc::ptr_eq(
                &pair[0].key_indexes[0].1,
                &pair[1].key_indexes[0].1
            ));
            let before = seen(&pair[1 - writer]);

            assert!(!pair[writer].insert_row(&tup(4, 1)), "present");
            assert!(Arc::ptr_eq(&pair[0].rows, &pair[1].rows), "nothing copied");
            assert!(pair[writer].insert_row(&tup(9, 0)));
            assert!(!Arc::ptr_eq(&pair[0].rows, &pair[1].rows));

            assert_eq!(seen(&pair[1 - writer]), before, "writer {writer}");
            assert_eq!(pair[writer].len(), 6);
            assert_eq!(probe(&pair[writer], &[1], &[Val::Int(0)]), [0, 3, 5]);
        }
    }

    /// An index built at a shared clone belongs to it alone, and reads the
    /// shared rows without copying them.
    #[test]
    fn ensure_index_on_a_shared_clone_builds_nothing_in_the_other() {
        let r = filled(0..5);
        let mut copy = r.clone();
        copy.ensure_index(&[0]);
        assert_eq!(probe(&copy, &[0], &[Val::Int(3)]), [3]);
        assert!(r.index(&[0]).is_none());
        assert_eq!(r.key_indexes.len(), 1);
        assert!(Arc::ptr_eq(&r.rows, &copy.rows), "no row copied");
    }

    /// A remap at a shared clone rewrites its own copy of the rows only.
    #[test]
    fn remap_syms_on_a_shared_clone_leaves_the_other_intact() {
        let mut r = Relation::new(RelationSchema::new("s", vec![("x", ColumnType::Str)]));
        let (a, b) = (Val::str("cow-remap-a"), Val::str("cow-remap-b"));
        r.insert_row(&[a]);
        r.ensure_index(&[0]);
        let mut copy = r.clone();
        let (a_id, b_id) = (a.as_sym().unwrap(), b.as_sym().unwrap());
        copy.remap_syms(&|id| if id == a_id { b_id } else { id });
        assert!(copy.contains(&[b]) && !copy.contains(&[a]));
        assert!(r.contains(&[a]) && !r.contains(&[b]));
        assert_eq!(probe(&r, &[0], &[a]), [0], "the original keeps its index");
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

    /// Value `k` of a small domain mixing ints and nulls, so rows repeat.
    fn small(k: u8) -> Val {
        match k % 2 {
            0 => Val::Int(i64::from(k)),
            _ => Val::Null(crate::value::NullId::new(1, u64::from(k))),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A row set against the `Vec` of tuples and the `HashSet` it
        /// replaced, kept in lockstep: random inserts with frequent
        /// duplicates over arity 0–3 (up to 216 distinct rows, so sets end
        /// on either side of the linear bound), every row hashed alike (one
        /// chain) half the time. `insert`'s result, the order, `len`,
        /// `contains` and every `since` suffix agree, the set serializes to
        /// the bytes of the `Vec` and reads back equal, and `from_flat` of
        /// every row offered — duplicates included, so it may fall back
        /// under the bound — is the same set.
        #[test]
        fn row_set_matches_a_vec_and_a_hash_set(
            arity in 0usize..4,
            picks in proptest::collection::vec(proptest::collection::vec(0u8..6, 3..4), 0..40),
            collide in proptest::prelude::any::<bool>(),
        ) {
            use proptest::prelude::*;
            let hash = |row: &[Val]| if collide { 7 } else { key_hash(row) };
            let mut set = RowSet::new(arity);
            let mut rows: Vec<Vec<Val>> = Vec::new();
            let mut seen: std::collections::HashSet<Vec<Val>> = Default::default();
            for pick in &picks {
                let row: Vec<Val> = pick[..arity].iter().map(|&k| small(k)).collect();
                let fresh = seen.insert(row.clone());
                if fresh {
                    rows.push(row.clone());
                }
                prop_assert_eq!(set.insert_hashed(&row, hash), fresh);
                prop_assert_eq!(set.len(), rows.len());
                prop_assert!(!set.insert_hashed(&row, hash), "present now");
                prop_assert_eq!(set.seen.next.len(), if set.len() > LINEAR_ROWS { set.len() } else { 0 });
            }
            let offered: Vec<Val> = (picks.iter())
                .flat_map(|pick| pick[..arity].iter().map(|&k| small(k)))
                .collect();
            let flat = RowSet::from_flat(arity, picks.len(), offered);
            prop_assert_eq!(&flat, &set);
            for row in &rows {
                prop_assert!(flat.contains(row));
            }
            for other in rows.iter().cloned().chain([
                vec![Val::Int(9); arity],
                vec![Val::Int(0); arity + 1],
            ]) {
                // Membership reads the real hash: the same chain unless collided.
                if !collide {
                    prop_assert_eq!(set.contains(&other), seen.contains(&other));
                }
            }
            for from in 0..=rows.len() + 1 {
                let suffix: Vec<&[Val]> = set.since(from).collect();
                let model: Vec<&[Val]> = rows.iter().skip(from).map(Vec::as_slice).collect();
                prop_assert_eq!(suffix, model);
            }
            let text = serde_json::to_string(&set).unwrap();
            prop_assert_eq!(&text, &serde_json::to_string(&rows).unwrap());
            let back: RowSet = serde_json::from_str(&text).unwrap();
            prop_assert_eq!(&back, &set);
            prop_assert_eq!(back.arity(), if rows.is_empty() { 0 } else { arity });
        }
    }

    /// One row format: parenthesised, comma-separated, symbols quoted — a
    /// relation's listing writes its rows so.
    #[test]
    fn display_is_parenthesised() {
        assert_eq!(
            ShowRow(&[Val::Int(1), Val::str("x")]).to_string(),
            "(1, 'x')"
        );
        assert_eq!(ShowRow(&[]).to_string(), "()");
        let mut r = rel();
        r.insert_row(&tup(1, 2));
        assert!(r.to_string().ends_with(" [1 tuples]\n  (1, 2)\n"), "{r}");
    }

    /// Reading rows back rejects a row of another width than the first.
    #[test]
    fn a_ragged_row_set_does_not_read_back() {
        for text in [r#"[[{"Int":1}],[]]"#, r#"[[],[{"Int":1}]]"#, r#"[5]"#] {
            assert!(serde_json::from_str::<RowSet>(text).is_err(), "{text}");
        }
        let unit: RowSet = serde_json::from_str("[[]]").unwrap();
        assert_eq!((unit.arity(), unit.len()), (0, 1));
    }
}
