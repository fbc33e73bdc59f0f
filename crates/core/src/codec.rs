//! Binary wire codec for [`ProtocolMsg`].
//!
//! The JSON codec spells out field names and decimal digits on every
//! message; measured, most of its wire bytes were syntax, not data. This
//! module is the compact alternative: a hand-specialized framing for the
//! protocol's hot shapes, built on the vendored
//! [`binpack`] primitives (varints, zigzag folding, length prefixes).
//!
//! ## Layout
//!
//! A message is a 1-byte **variant tag** followed by its fields. Tags are
//! never reused (a retired kind's — 18–20, 22, 23, 33 — is unknown, as is
//! every tag from 49 on), and a `Query`'s [`Start`] and [`Via`] and an
//! `Answer`'s `Via` and flags take one tag per combination, not a flag byte:
//! eager queries and answers cost what they did before those fields. Fields:
//!
//! * Session ids, node ids, rule ids, rounds, counters — varints (zigzag
//!   where negative values are possible).
//! * Booleans — one byte, `0`/`1`.
//! * [`AnswerRows`] — the hot payload — gets a **columnar delta block**,
//!   see below.
//! * Cold, deeply structured fields (rule definitions, change ops, stats
//!   reports, body parts) — length-prefixed generic `binpack` documents;
//!   they are rare enough that self-describing generality beats
//!   special-casing.
//!
//! ## Columnar row blocks
//!
//! `AnswerRows.rows` is a [`p2p_relational::RowSet`]: rows of one width.
//! The codec streams them **column-major** after a layout byte (`0`; no
//! other is defined), the row count and the width: per column, one tag
//! byte per value (`0` int, `1` symbol, `2` labeled null) followed by a
//! payload that is *delta-encoded against the previous value of the same
//! kind in the same column* — sorted ids and clustered constants collapse
//! to 1–2 bytes each. Dictionaries ship sorted `SymId`s, so they delta the
//! same way. A block of no rows declares arity 0, and decoding rejects any
//! other. A block's width need not be its `vars`' count; a peer refuses
//! such rows where they arrive.
//!
//! ## LZ block layer
//!
//! Row blocks and embedded documents carry the protocol's string content
//! — first-use symbol dictionaries full of titles, author names and
//! venues whose words repeat heavily. Each such block passes through
//! [`binpack::lz`] and ships compressed when that is strictly smaller
//! (a 1-byte flag records the choice, raw otherwise). The compressor is
//! deterministic, so the choice is too: re-encoding a decoded message
//! reproduces the exact wire bytes.
//!
//! What it is worth: on `tests/codec.rs`'s DBLP tree (depth 3, 50 records
//! per node, seed 7, eager mode) the binary run ships 80 675 B, and
//! 146 647 B with every block sent raw; the JSON run ships 412 357 B. So
//! that test's 3× bound holds only with LZ. No timed benchmark session
//! compresses anything: `tcp_ring` is the one binary workload, and its
//! first-contact session, the one that ships rows, is warm-up.
//!
//! The JSON codec stays the default and the two are byte-for-byte
//! round-trip equivalent on the same message values — the differential
//! proptests in `tests/proptest_codec.rs` hold both codecs to that.

use crate::messages::{Answer, AnswerRows, Marks, ProtocolMsg, Query, Start, Via};
use crate::rule::RuleId;
use binpack::{Error, Reader, Writer};
use p2p_net::SessionId;
use p2p_relational::value::NullId;
use p2p_relational::{RowSet, SymId, Val};
use p2p_topology::NodeId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Encodes a message under the binary codec. Infallible for protocol
/// messages: the only encoder error is a non-finite float, and no wire
/// type carries floats.
pub fn encode_msg(msg: &ProtocolMsg) -> Vec<u8> {
    p2p_net::codec::note_encode_pass();
    let mut w = Writer::new();
    write_msg(&mut w, msg).expect("protocol messages carry no floats");
    w.into_bytes()
}

/// The binary-encoded byte length of a message — one encode pass.
pub fn encoded_msg_len(msg: &ProtocolMsg) -> usize {
    encode_msg(msg).len()
}

/// Decodes a message, rejecting trailing bytes.
pub fn decode_msg(bytes: &[u8]) -> Result<ProtocolMsg, Error> {
    let mut r = Reader::new(bytes);
    let msg = read_msg(&mut r)?;
    if !r.is_at_end() {
        return Err(Error::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

fn put_session(w: &mut Writer, s: SessionId) {
    w.put_varint(u64::from(s.root.0));
    w.put_varint(s.epoch);
}

fn get_session(r: &mut Reader<'_>) -> Result<SessionId, Error> {
    let root = get_node(r)?;
    let epoch = r.get_varint()?;
    Ok(SessionId::new(root, epoch))
}

fn get_u32(r: &mut Reader<'_>) -> Result<u32, Error> {
    u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)
}

fn get_node(r: &mut Reader<'_>) -> Result<NodeId, Error> {
    Ok(NodeId(get_u32(r)?))
}

fn get_rule(r: &mut Reader<'_>) -> Result<RuleId, Error> {
    Ok(RuleId(get_u32(r)?))
}

fn put_marks(w: &mut Writer, marks: &Marks) {
    w.put_varint(marks.len() as u64);
    for (rel, mark) in marks {
        w.put_str(rel);
        w.put_varint(mark as u64);
    }
}

fn get_marks(r: &mut Reader<'_>) -> Result<Marks, Error> {
    let n = r.get_varint()? as usize;
    let mut marks = Marks::new();
    for _ in 0..n {
        let rel = Arc::<str>::from(r.get_str()?);
        let mark = usize::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?;
        marks.insert(rel, mark);
    }
    Ok(marks)
}

fn put_bool(w: &mut Writer, b: bool) {
    w.put_u8(u8::from(b));
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool, Error> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(Error::BadTag(other)),
    }
}

const BLOCK_RAW: u8 = 0;
const BLOCK_LZ: u8 = 1;

/// Embeds a byte block, LZ-compressed when that is strictly smaller and
/// no smaller than the decoder accepts ([`binpack::lz::within_ratio`]): a
/// flag byte (`0` raw, `1` compressed) then the length-prefixed bytes.
/// The choice is deterministic, so re-encoding a decoded value reproduces
/// the exact wire bytes.
fn put_block(w: &mut Writer, raw: &[u8]) {
    let packed = binpack::lz::compress(raw);
    if packed.len() < raw.len() && binpack::lz::within_ratio(raw.len(), packed.len()) {
        w.put_u8(BLOCK_LZ);
        w.put_bytes(&packed);
    } else {
        w.put_u8(BLOCK_RAW);
        w.put_bytes(raw);
    }
}

fn get_block(r: &mut Reader<'_>) -> Result<Vec<u8>, Error> {
    match r.get_u8()? {
        BLOCK_RAW => Ok(r.get_bytes()?.to_vec()),
        BLOCK_LZ => binpack::lz::decompress(r.get_bytes()?),
        tag => Err(Error::BadTag(tag)),
    }
}

/// Cold structured fields travel as embedded generic documents.
fn put_doc<T: serde::Serialize>(w: &mut Writer, value: &T) -> Result<(), Error> {
    let doc = binpack::to_bytes(value)?;
    put_block(w, &doc);
    Ok(())
}

fn get_doc<T: serde::Deserialize>(r: &mut Reader<'_>) -> Result<T, Error> {
    binpack::from_bytes(&get_block(r)?)
}

// ----------------------------------------------------------- answer rows

const VAL_INT: u8 = 0;
const VAL_SYM: u8 = 1;
const VAL_NULL: u8 = 2;

/// The row block's layout byte: column-major is the one layout. Tag `1`,
/// once a generic document for rows of mixed widths, decodes as unknown
/// and is not reused.
const ROWS_COLUMNAR: u8 = 0;

/// Per-column delta state: each value kind deltas against the previous
/// value of the same kind in the column.
#[derive(Default)]
struct ColDelta {
    prev_int: i64,
    prev_sym: i64,
    prev_null_node: i64,
    prev_null_counter: i64,
}

impl ColDelta {
    fn put(&mut self, w: &mut Writer, v: Val) {
        match v {
            Val::Int(i) => {
                w.put_u8(VAL_INT);
                w.put_zigzag(i.wrapping_sub(self.prev_int));
                self.prev_int = i;
            }
            Val::Sym(s) => {
                w.put_u8(VAL_SYM);
                let id = i64::from(s.0);
                w.put_zigzag(id - self.prev_sym);
                self.prev_sym = id;
            }
            Val::Null(n) => {
                w.put_u8(VAL_NULL);
                let node = i64::from(n.node());
                let counter = n.counter() as i64;
                w.put_zigzag(node - self.prev_null_node);
                w.put_zigzag(counter - self.prev_null_counter);
                self.prev_null_node = node;
                self.prev_null_counter = counter;
            }
        }
    }

    fn get(&mut self, r: &mut Reader<'_>) -> Result<Val, Error> {
        Ok(match r.get_u8()? {
            VAL_INT => {
                let i = self.prev_int.wrapping_add(r.get_zigzag()?);
                self.prev_int = i;
                Val::Int(i)
            }
            VAL_SYM => {
                let id = add_delta(self.prev_sym, r)?;
                self.prev_sym = id;
                Val::Sym(SymId(u32::try_from(id).map_err(|_| Error::BadVarint)?))
            }
            VAL_NULL => {
                let node = add_delta(self.prev_null_node, r)?;
                let counter = add_delta(self.prev_null_counter, r)?;
                self.prev_null_node = node;
                self.prev_null_counter = counter;
                Val::Null(null_id(node, counter)?)
            }
            tag => return Err(Error::BadTag(tag)),
        })
    }
}

/// `prev` plus the next zigzag delta of `r`; a sum past `i64` is malformed.
fn add_delta(prev: i64, r: &mut Reader<'_>) -> Result<i64, Error> {
    prev.checked_add(r.get_zigzag()?).ok_or(Error::BadVarint)
}

/// A labeled null from decoded parts; parts no [`NullId`] holds — a node
/// past its 24 bits, a counter past its 40 — are malformed input.
fn null_id(node: i64, counter: i64) -> Result<NullId, Error> {
    match (u32::try_from(node), u64::try_from(counter)) {
        (Ok(n), Ok(c)) if n < 1 << 24 && c >> NullId::COUNTER_BITS == 0 => Ok(NullId::new(n, c)),
        _ => Err(Error::BadVarint),
    }
}

/// Answer payloads are where the string content lives (first-use symbol
/// dictionaries: titles, names, venues). The whole block goes through
/// [`put_block`], so its internal redundancy is LZ-compressed away on top
/// of the varint/delta packing.
fn put_rows(w: &mut Writer, rows: &AnswerRows) -> Result<(), Error> {
    let mut inner = Writer::new();
    put_rows_inner(&mut inner, rows)?;
    put_block(w, &inner.into_bytes());
    Ok(())
}

fn get_rows(r: &mut Reader<'_>) -> Result<AnswerRows, Error> {
    let raw = get_block(r)?;
    let mut inner = Reader::new(&raw);
    let rows = get_rows_inner(&mut inner)?;
    if !inner.is_at_end() {
        return Err(Error::TrailingBytes(inner.remaining()));
    }
    Ok(rows)
}

fn put_rows_inner(w: &mut Writer, rows: &AnswerRows) -> Result<(), Error> {
    w.put_varint(rows.vars.len() as u64);
    for v in rows.vars.iter() {
        w.put_str(v);
    }
    // A block of no rows declares arity 0, whatever its set's width.
    let arity = if rows.rows.is_empty() {
        0
    } else {
        rows.rows.arity()
    };
    w.put_u8(ROWS_COLUMNAR);
    w.put_varint(rows.rows.len() as u64);
    w.put_varint(arity as u64);
    // Column-major with per-column delta state: down a column, ids and
    // clustered constants change slowly, so most values are 2 bytes.
    for col in 0..arity {
        let mut delta = ColDelta::default();
        for row in rows.rows.iter() {
            delta.put(w, row[col]);
        }
    }
    w.put_varint(rows.null_depths.len() as u64);
    for (null, depth) in &rows.null_depths {
        w.put_varint(u64::from(null.node()));
        w.put_varint(null.counter());
        w.put_varint(u64::from(*depth));
    }
    put_marks(w, &rows.marks);
    w.put_varint(rows.dict.len() as u64);
    let mut prev_sym = 0i64;
    for (sym, text) in &rows.dict {
        // First-use dictionaries ship freshly interned (hence clustered)
        // ids; delta them like a symbol column.
        let id = i64::from(sym.0);
        w.put_zigzag(id - prev_sym);
        prev_sym = id;
        w.put_str(text);
    }
    Ok(())
}

fn get_rows_inner(r: &mut Reader<'_>) -> Result<AnswerRows, Error> {
    let nvars = r.get_varint()? as usize;
    let mut vars = Vec::with_capacity(nvars.min(r.remaining() + 1));
    for _ in 0..nvars {
        vars.push(Arc::<str>::from(r.get_str()?));
    }
    match r.get_u8()? {
        ROWS_COLUMNAR => {}
        tag => return Err(Error::BadTag(tag)),
    }
    let nrows = r.get_varint()? as usize;
    let arity = r.get_varint()? as usize;
    // The encoder writes arity 0 for a block of no rows, so any other arity
    // there is malformed; otherwise every value takes a byte, which bounds
    // the arity by the input.
    if nrows == 0 && arity != 0 {
        return Err(Error::De(format!("no rows of arity {arity}")));
    }
    if nrows
        .checked_mul(arity.max(1))
        .map(|cells| cells > r.remaining() + 1)
        .unwrap_or(true)
    {
        return Err(Error::Truncated);
    }
    let mut flat = vec![Val::Int(0); nrows * arity];
    for col in 0..arity {
        let mut delta = ColDelta::default();
        for row in 0..nrows {
            flat[row * arity + col] = delta.get(r)?;
        }
    }
    let rows = RowSet::from_flat(arity, nrows, flat);
    let ndepths = r.get_varint()? as usize;
    let mut null_depths = Vec::with_capacity(ndepths.min(r.remaining() + 1));
    for _ in 0..ndepths {
        let null = null_id(r.get_varint()? as i64, r.get_varint()? as i64)?;
        null_depths.push((null, get_u32(r)?));
    }
    let marks = get_marks(r)?;
    let ndict = r.get_varint()? as usize;
    let mut dict = Vec::with_capacity(ndict.min(r.remaining() + 1));
    let mut prev_sym = 0i64;
    for _ in 0..ndict {
        let id = add_delta(prev_sym, r)?;
        prev_sym = id;
        let text = Arc::<str>::from(r.get_str()?);
        dict.push((
            SymId(u32::try_from(id).map_err(|_| Error::BadVarint)?),
            text,
        ));
    }
    Ok(AnswerRows {
        vars: vars.into(),
        rows,
        null_depths,
        marks,
        dict,
    })
}

// ------------------------------------------------------------- messages

/// Tags of [`ProtocolMsg::Query`], by `3 × via + start` — via session,
/// round, repair; start fresh, resume, since. After the fields, `since`
/// adds its watermarks and a round its number.
const QUERY_TAGS: [u8; 9] = [11, 28, 34, 35, 36, 37, 38, 39, 40];
/// Tags of [`ProtocolMsg::Answer`], by `4 × via + 2 × acks + pushed`. After
/// the fields, a round adds its number.
const ANSWER_TAGS: [u8; 12] = [12, 30, 31, 32, 41, 42, 43, 44, 45, 46, 47, 48];
const CURSOR_VOID: u8 = 29;

fn via_index(via: Via) -> usize {
    match via {
        Via::Session => 0,
        Via::Round(_) => 1,
        Via::Repair => 2,
    }
}

fn put_round(w: &mut Writer, via: Via) {
    if let Via::Round(round) = via {
        w.put_varint(u64::from(round));
    }
}

fn get_via(r: &mut Reader<'_>, index: usize) -> Result<Via, Error> {
    Ok(match index {
        0 => Via::Session,
        1 => Via::Round(get_u32(r)?),
        _ => Via::Repair,
    })
}

fn read_query(r: &mut Reader<'_>, index: usize) -> Result<Query, Error> {
    let session = get_session(r)?;
    let rule = get_rule(r)?;
    let part = get_doc(r)?;
    let nsn = r.get_varint()? as usize;
    let mut sn = Vec::with_capacity(nsn.min(r.remaining() + 1));
    for _ in 0..nsn {
        sn.push(get_node(r)?);
    }
    let from = match index % 3 {
        0 => Start::Fresh,
        1 => Start::Resume,
        _ => Start::Since(get_marks(r)?),
    };
    let via = get_via(r, index / 3)?;
    Ok(Query {
        session,
        rule,
        part,
        sn: sn.into(),
        from,
        via,
    })
}

fn read_answer(r: &mut Reader<'_>, index: usize) -> Result<Answer, Error> {
    Ok(Answer {
        session: get_session(r)?,
        rule: get_rule(r)?,
        rows: get_rows(r)?,
        complete: get_bool(r)?,
        reopen: get_bool(r)?,
        pushed: index % 2 == 1,
        acks: index % 4 >= 2,
        via: get_via(r, index / 4)?,
    })
}

fn write_msg(w: &mut Writer, msg: &ProtocolMsg) -> Result<(), Error> {
    match msg {
        ProtocolMsg::StartDiscovery => w.put_u8(0),
        ProtocolMsg::StartUpdate { session } => {
            w.put_u8(1);
            put_session(w, *session);
        }
        ProtocolMsg::StartScopedUpdate { session } => {
            w.put_u8(2);
            put_session(w, *session);
        }
        ProtocolMsg::ApplyChange { change } => {
            w.put_u8(3);
            put_doc(w, change)?;
        }
        ProtocolMsg::CollectStats => w.put_u8(4),
        ProtocolMsg::ResetStats => w.put_u8(5),
        ProtocolMsg::BroadcastRules { rules } => {
            w.put_u8(6);
            put_doc(w, rules)?;
        }
        ProtocolMsg::RequestNodes { owner } => {
            w.put_u8(7);
            w.put_varint(u64::from(owner.0));
        }
        ProtocolMsg::DiscoveryAnswer {
            owner,
            edges,
            closed,
            finished,
        } => {
            w.put_u8(8);
            w.put_varint(u64::from(owner.0));
            w.put_varint(edges.len() as u64);
            for (a, b) in edges {
                w.put_varint(u64::from(a.0));
                w.put_varint(u64::from(b.0));
            }
            put_bool(w, *closed);
            put_bool(w, *finished);
        }
        ProtocolMsg::DiscoveryClosed => w.put_u8(9),
        ProtocolMsg::UpdateFlood { session } => {
            w.put_u8(10);
            put_session(w, *session);
        }
        ProtocolMsg::Query(q) => {
            let start = match q.from {
                Start::Fresh => 0,
                Start::Resume => 1,
                Start::Since(_) => 2,
            };
            w.put_u8(QUERY_TAGS[3 * via_index(q.via) + start]);
            put_session(w, q.session);
            w.put_varint(u64::from(q.rule.0));
            put_doc(w, &q.part)?;
            w.put_varint(q.sn.len() as u64);
            for n in q.sn.iter() {
                w.put_varint(u64::from(n.0));
            }
            if let Start::Since(marks) = &q.from {
                put_marks(w, marks);
            }
            put_round(w, q.via);
        }
        ProtocolMsg::Answer(a) => {
            let flags = 2 * usize::from(a.acks) + usize::from(a.pushed);
            w.put_u8(ANSWER_TAGS[4 * via_index(a.via) + flags]);
            put_session(w, a.session);
            w.put_varint(u64::from(a.rule.0));
            put_rows(w, &a.rows)?;
            put_bool(w, a.complete);
            put_bool(w, a.reopen);
            put_round(w, a.via);
        }
        ProtocolMsg::Unsubscribe { session, rule } => {
            w.put_u8(13);
            put_session(w, *session);
            w.put_varint(u64::from(rule.0));
        }
        ProtocolMsg::CursorVoid { session } => {
            w.put_u8(CURSOR_VOID);
            put_session(w, *session);
        }
        ProtocolMsg::Fixpoint {
            session,
            generation,
        } => {
            w.put_u8(14);
            put_session(w, *session);
            w.put_varint(u64::from(*generation));
        }
        ProtocolMsg::Ack { session } => {
            w.put_u8(15);
            put_session(w, *session);
        }
        ProtocolMsg::RoundStart { session, round } => {
            w.put_u8(16);
            put_session(w, *session);
            w.put_varint(u64::from(*round));
        }
        ProtocolMsg::RoundEcho {
            session,
            round,
            dirty,
        } => {
            w.put_u8(17);
            put_session(w, *session);
            w.put_varint(u64::from(*round));
            put_bool(w, *dirty);
        }
        ProtocolMsg::RoundsClosed { session, rounds } => {
            w.put_u8(21);
            put_session(w, *session);
            w.put_varint(u64::from(*rounds));
        }
        ProtocolMsg::ResumeRounds { session, round } => {
            w.put_u8(24);
            put_session(w, *session);
            w.put_varint(u64::from(*round));
        }
        ProtocolMsg::AddRule { session, rule } => {
            w.put_u8(25);
            put_session(w, *session);
            put_doc(w, rule)?;
        }
        ProtocolMsg::DeleteRule { session, rule } => {
            w.put_u8(26);
            put_session(w, *session);
            w.put_varint(u64::from(rule.0));
        }
        ProtocolMsg::StatsReport { stats } => {
            w.put_u8(27);
            put_doc(w, stats)?;
        }
    }
    Ok(())
}

fn read_msg(r: &mut Reader<'_>) -> Result<ProtocolMsg, Error> {
    let tag = r.get_u8()?;
    if let Some(index) = QUERY_TAGS.iter().position(|t| *t == tag) {
        return Ok(ProtocolMsg::Query(read_query(r, index)?));
    }
    if let Some(index) = ANSWER_TAGS.iter().position(|t| *t == tag) {
        return Ok(ProtocolMsg::Answer(read_answer(r, index)?));
    }
    Ok(match tag {
        0 => ProtocolMsg::StartDiscovery,
        1 => ProtocolMsg::StartUpdate {
            session: get_session(r)?,
        },
        2 => ProtocolMsg::StartScopedUpdate {
            session: get_session(r)?,
        },
        3 => ProtocolMsg::ApplyChange {
            change: get_doc(r)?,
        },
        4 => ProtocolMsg::CollectStats,
        5 => ProtocolMsg::ResetStats,
        6 => ProtocolMsg::BroadcastRules { rules: get_doc(r)? },
        7 => ProtocolMsg::RequestNodes {
            owner: get_node(r)?,
        },
        8 => {
            let owner = get_node(r)?;
            let nedges = r.get_varint()? as usize;
            let mut edges = BTreeSet::new();
            for _ in 0..nedges {
                let a = get_node(r)?;
                let b = get_node(r)?;
                edges.insert((a, b));
            }
            ProtocolMsg::DiscoveryAnswer {
                owner,
                edges,
                closed: get_bool(r)?,
                finished: get_bool(r)?,
            }
        }
        9 => ProtocolMsg::DiscoveryClosed,
        10 => ProtocolMsg::UpdateFlood {
            session: get_session(r)?,
        },
        13 => ProtocolMsg::Unsubscribe {
            session: get_session(r)?,
            rule: get_rule(r)?,
        },
        14 => ProtocolMsg::Fixpoint {
            session: get_session(r)?,
            generation: get_u32(r)?,
        },
        15 => ProtocolMsg::Ack {
            session: get_session(r)?,
        },
        16 => ProtocolMsg::RoundStart {
            session: get_session(r)?,
            round: get_u32(r)?,
        },
        17 => ProtocolMsg::RoundEcho {
            session: get_session(r)?,
            round: get_u32(r)?,
            dirty: get_bool(r)?,
        },
        21 => ProtocolMsg::RoundsClosed {
            session: get_session(r)?,
            rounds: get_u32(r)?,
        },
        24 => ProtocolMsg::ResumeRounds {
            session: get_session(r)?,
            round: get_u32(r)?,
        },
        25 => ProtocolMsg::AddRule {
            session: get_session(r)?,
            rule: get_doc(r)?,
        },
        26 => ProtocolMsg::DeleteRule {
            session: get_session(r)?,
            rule: get_rule(r)?,
        },
        27 => ProtocolMsg::StatsReport { stats: get_doc(r)? },
        CURSOR_VOID => ProtocolMsg::CursorVoid {
            session: get_session(r)?,
        },
        tag => return Err(Error::BadTag(tag)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(epoch: u64) -> SessionId {
        SessionId::new(NodeId(3), epoch)
    }

    fn sample_rows() -> AnswerRows {
        AnswerRows {
            vars: [Arc::from("X"), Arc::from("Y")].into(),
            rows: RowSet::from_flat(
                2,
                20,
                (0..20)
                    .flat_map(|i| {
                        [
                            Val::Int(1000 + i),
                            if i % 3 == 0 {
                                Val::Null(NullId::new(2, 40 + i as u64))
                            } else {
                                Val::Sym(SymId(700 + i as u32))
                            },
                        ]
                    })
                    .collect(),
            ),
            null_depths: vec![(NullId::new(2, 40), 1), (NullId::new(2, 43), 2)],
            marks: [(Arc::<str>::from("t1"), 17usize)].into_iter().collect(),
            dict: vec![
                (SymId(700), Arc::from("alpha")),
                (SymId(701), Arc::from("beta")),
                (SymId(702), Arc::from("gamma")),
            ],
        }
    }

    fn roundtrip(msg: &ProtocolMsg) -> ProtocolMsg {
        let bytes = encode_msg(msg);
        assert_eq!(encoded_msg_len(msg), bytes.len());
        decode_msg(&bytes).expect("decode")
    }

    /// `ProtocolMsg` has no `PartialEq`; the JSON text is its canonical
    /// comparable form.
    fn assert_same(a: &ProtocolMsg, b: &ProtocolMsg) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }

    #[test]
    fn answer_with_rows_roundtrips() {
        let msg = ProtocolMsg::Answer(Answer {
            complete: true,
            ..Answer::new(sid(5), RuleId(2), sample_rows(), Via::Session)
        });
        assert_same(&roundtrip(&msg), &msg);
    }

    #[test]
    fn every_unit_and_scalar_variant_roundtrips() {
        let msgs = vec![
            ProtocolMsg::StartDiscovery,
            ProtocolMsg::StartUpdate { session: sid(1) },
            ProtocolMsg::StartScopedUpdate { session: sid(2) },
            ProtocolMsg::CollectStats,
            ProtocolMsg::ResetStats,
            ProtocolMsg::RequestNodes { owner: NodeId(9) },
            ProtocolMsg::DiscoveryAnswer {
                owner: NodeId(1),
                edges: [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]
                    .into_iter()
                    .collect(),
                closed: true,
                finished: false,
            },
            ProtocolMsg::DiscoveryClosed,
            ProtocolMsg::UpdateFlood { session: sid(3) },
            ProtocolMsg::Unsubscribe {
                session: sid(3),
                rule: RuleId(7),
            },
            ProtocolMsg::CursorVoid { session: sid(3) },
            ProtocolMsg::Fixpoint {
                session: sid(3),
                generation: 2,
            },
            ProtocolMsg::Ack { session: sid(3) },
            ProtocolMsg::RoundStart {
                session: sid(4),
                round: 9,
            },
            ProtocolMsg::RoundEcho {
                session: sid(4),
                round: 9,
                dirty: true,
            },
            ProtocolMsg::RoundsClosed {
                session: sid(4),
                rounds: 12,
            },
            ProtocolMsg::ResumeRounds {
                session: sid(4),
                round: 13,
            },
            ProtocolMsg::DeleteRule {
                session: sid(4),
                rule: RuleId(1_000_001),
            },
            ProtocolMsg::StatsReport {
                stats: crate::stats::PeerStats::default(),
            },
        ];
        for msg in &msgs {
            assert_same(&roundtrip(msg), msg);
        }
    }

    /// `resume` costs nothing until it says something: a first-contact
    /// query is the bytes it was before the field existed, in both codecs.
    #[test]
    fn query_resume_rides_in_the_tag_and_is_omitted_when_false() {
        let query = |from| {
            ProtocolMsg::Query(Query {
                session: sid(3),
                rule: RuleId(7),
                part: Arc::new(crate::rule::BodyPart::new(
                    NodeId(1),
                    vec![],
                    vec![],
                    [Arc::from("X")].into(),
                )),
                sn: [NodeId(0), NodeId(2)].into(),
                from,
                via: Via::Session,
            })
        };
        let (first, again) = (query(Start::Fresh), query(Start::Resume));
        for msg in [&first, &again] {
            assert_same(&roundtrip(msg), msg);
            let json = serde_json::to_string(msg).unwrap();
            assert_same(&serde_json::from_str(&json).unwrap(), msg);
        }
        let (plain, resumed) = (encode_msg(&first), encode_msg(&again));
        assert_eq!((plain[0], resumed[0]), (11, 28));
        assert_eq!(plain[1..], resumed[1..]);
        assert!(!serde_json::to_string(&first).unwrap().contains("resume"));
        assert!(serde_json::to_string(&again)
            .unwrap()
            .contains("\"resume\":true"));
    }

    /// `pushed` and `acks` ride like `resume`: an answer with neither is
    /// the bytes it was before the fields existed, in both codecs, and one
    /// with either costs no byte more in binary.
    #[test]
    fn answer_pushed_rides_in_the_tag_and_is_omitted_when_false() {
        let answer = |pushed, acks| {
            let plain = Answer::new(sid(5), RuleId(2), sample_rows(), Via::Session);
            ProtocolMsg::Answer(Answer {
                pushed,
                acks,
                ..plain
            })
        };
        let plain = encode_msg(&answer(false, false));
        for (pushed, acks, tag) in [
            (false, false, 12),
            (true, false, 30),
            (false, true, 31),
            (true, true, 32),
        ] {
            let msg = answer(pushed, acks);
            assert_same(&roundtrip(&msg), &msg);
            let json = serde_json::to_string(&msg).unwrap();
            assert_same(&serde_json::from_str(&json).unwrap(), &msg);
            assert_eq!(json.contains("\"pushed\":true"), pushed);
            assert_eq!(json.contains("\"acks\":true"), acks);
            let bytes = encode_msg(&msg);
            assert_eq!(bytes[0], tag);
            assert_eq!(bytes[1..], plain[1..]);
        }
    }

    /// The exact bytes, in both codecs, of the eager queries and answers a
    /// peer wrote before queries carried a start and answers an exchange:
    /// an eager session does not pay for the fold.
    #[test]
    fn eager_queries_and_answers_keep_their_bytes() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let part = Arc::new(crate::rule::BodyPart::new(
            NodeId(1),
            vec![],
            vec![],
            [Arc::from("X")].into(),
        ));
        let query_json = r#"{"Query":{"session":{"root":3,"epoch":5},"rule":7,"part":{"node":1,"atoms":[],"local_constraints":[],"vars":["X"]},"sn":[0,2]"#;
        let query_bin = "0305070033080400046e6f64650401000561746f6d73070000116c6f63616c5f636f6e73747261696e747307000004766172730701060158020002";
        for (from, tag, tail) in [
            (Start::Fresh, "0b", ""),
            (Start::Resume, "1c", r#","resume":true"#),
        ] {
            let msg = ProtocolMsg::Query(Query {
                session: SessionId::new(NodeId(3), 5),
                rule: RuleId(7),
                part: part.clone(),
                sn: [NodeId(0), NodeId(2)].into(),
                from,
                via: Via::Session,
            });
            let json = serde_json::to_string(&msg).unwrap();
            assert_eq!(json, format!("{query_json}{tail}}}}}"));
            assert_eq!(hex(&encode_msg(&msg)), format!("{tag}{query_bin}"));
        }
        let rows = AnswerRows {
            vars: [Arc::from("X"), Arc::from("Y")].into(),
            rows: RowSet::from_flat(
                2,
                2,
                vec![
                    Val::Int(-4),
                    Val::Sym(SymId(700)),
                    Val::Int(9),
                    Val::Null(NullId::new(2, 41)),
                ],
            ),
            null_depths: vec![(NullId::new(2, 41), 1)],
            marks: [(Arc::<str>::from("b"), 17usize)].into_iter().collect(),
            dict: vec![(SymId(700), Arc::from("alpha"))],
        };
        let answer_json = r#"{"Answer":{"session":{"root":3,"epoch":5},"rule":7,"rows":{"vars":["X","Y"],"rows":[[{"Int":-4},{"Sym":700}],[{"Int":9},{"Null":2199023255593}]],"null_depths":[[2199023255593,1]],"marks":{"b":17},"dict":[[700,"alpha"]]},"complete":true,"reopen":false"#;
        let answer_bin =
            "030507002302015801590002020007001a01f80a020452010229010101621101f80a05616c7068610100";
        for (pushed, acks, tag, tail) in [
            (false, false, "0c", ""),
            (true, false, "1e", r#","pushed":true"#),
            (false, true, "1f", r#","acks":true"#),
            (true, true, "20", r#","pushed":true,"acks":true"#),
        ] {
            let msg = ProtocolMsg::Answer(Answer {
                complete: true,
                pushed,
                acks,
                ..Answer::new(
                    SessionId::new(NodeId(3), 5),
                    RuleId(7),
                    rows.clone(),
                    Via::Session,
                )
            });
            let json = serde_json::to_string(&msg).unwrap();
            assert_eq!(json, format!("{answer_json}{tail}}}}}"));
            assert_eq!(hex(&encode_msg(&msg)), format!("{tag}{answer_bin}"));
        }
    }

    #[test]
    fn binary_is_much_smaller_than_json_on_row_payloads() {
        let msg = ProtocolMsg::Answer(Answer {
            complete: true,
            ..Answer::new(sid(5), RuleId(2), sample_rows(), Via::Session)
        });
        let json = serde_json::to_string(&msg).unwrap().len();
        let binary = encoded_msg_len(&msg);
        assert!(
            binary * 3 <= json,
            "binary {binary} bytes not ≥3× smaller than JSON {json} bytes"
        );
    }

    /// A row block whose rows are of mixed widths is a typed decode error
    /// under both codecs: as JSON, and in binary as the retired layout tag
    /// `1` that once carried it.
    #[test]
    fn a_mixed_width_row_block_is_a_typed_error() {
        let json = r#"{"Answer":{"session":{"root":3,"epoch":1},"rule":0,"rows":{"vars":["X"],"rows":[[{"Int":1}],[{"Int":2},{"Int":3}]]},"complete":false,"reopen":false}}"#;
        let err = serde_json::from_str::<ProtocolMsg>(json).unwrap_err();
        assert!(err.to_string().contains("rows of one width"), "{err}");

        // One var, layout `1`, the rows as a generic document, then no
        // depths, marks or dictionary: the block a ragged answer once was.
        let mut inner = Writer::new();
        inner.put_varint(1);
        inner.put_str("X");
        inner.put_u8(1);
        put_doc(
            &mut inner,
            &vec![vec![Val::Int(1)], vec![Val::Int(2), Val::Int(3)]],
        )
        .unwrap();
        inner.put_varint(0);
        put_marks(&mut inner, &Marks::new());
        inner.put_varint(0);
        let mut w = Writer::new();
        w.put_u8(12);
        put_session(&mut w, sid(1));
        w.put_varint(0);
        put_block(&mut w, &inner.into_bytes());
        w.put_u8(0);
        w.put_u8(0);
        assert!(matches!(decode_msg(&w.into_bytes()), Err(Error::BadTag(1))));
    }

    /// A row block of no rows that declares an arity of 2⁶¹ is a typed
    /// error, not a capacity overflow; so is one whose symbol deltas run
    /// past `i64`, one holding a null no `NullId` can carry, and a few LZ
    /// bytes that would inflate to a mebibyte of rows.
    #[test]
    fn hostile_row_blocks_are_typed_errors() {
        let answer = |flag: u8, inner: &[u8]| {
            let mut w = Writer::new();
            w.put_u8(12);
            put_session(&mut w, sid(1));
            w.put_varint(2);
            w.put_u8(flag);
            w.put_bytes(inner);
            w.into_bytes()
        };
        let block = |inner: &[u8]| answer(BLOCK_RAW, inner);
        let mut huge = vec![0, ROWS_COLUMNAR, 0];
        let mut arity = Writer::new();
        arity.put_varint(1 << 61);
        huge.extend(arity.into_bytes());
        let frame = block(&huge);
        assert_eq!(frame.len(), 18);
        assert!(matches!(decode_msg(&frame), Err(Error::De(_))));
        assert!(decode_msg(&frame[..15]).is_err());

        let mut far = Writer::new();
        far.put_varint(0);
        far.put_u8(ROWS_COLUMNAR);
        far.put_varint(2);
        far.put_varint(1);
        for delta in [i64::from(u32::MAX), i64::MAX] {
            far.put_u8(VAL_SYM);
            far.put_zigzag(delta);
        }
        assert!(decode_msg(&block(&far.into_bytes())).is_err());

        // A null whose counter needs more than its 40 bits.
        let mut wide = Writer::new();
        wide.put_varint(0);
        wide.put_u8(ROWS_COLUMNAR);
        wide.put_varint(1);
        wide.put_varint(1);
        wide.put_u8(VAL_NULL);
        wide.put_zigzag(1);
        wide.put_zigzag(1 << NullId::COUNTER_BITS);
        assert!(matches!(
            decode_msg(&block(&wide.into_bytes())),
            Err(Error::BadVarint)
        ));

        // 2¹⁹ rows of `Int(0)`: no vars, columnar, the row count, arity 1,
        // then zeros to the end (each value, the depths, marks and
        // dictionary). As LZ, the literal head and one match of zeros.
        let rows = 1usize << 19;
        let mut head = Writer::new();
        head.put_varint(0);
        head.put_u8(ROWS_COLUMNAR);
        head.put_varint(rows as u64);
        head.put_varint(1);
        head.put_u8(0);
        let head = head.into_bytes();
        let raw_len = head.len() + 2 * rows + 2;
        let mut lz = Writer::new();
        lz.put_varint(raw_len as u64);
        lz.put_u8(1 << head.len());
        for &b in &head {
            lz.put_u8(b);
        }
        lz.put_varint(1);
        lz.put_varint((raw_len - head.len() - 4) as u64);
        let bomb = answer(BLOCK_LZ, &lz.into_bytes());
        assert!(bomb.len() < 24, "{} bytes", bomb.len());
        assert!(matches!(decode_msg(&bomb), Err(Error::BadMatch)));
    }

    #[test]
    fn truncated_and_garbage_messages_error() {
        let bytes = encode_msg(&ProtocolMsg::Ack { session: sid(3) });
        assert!(decode_msg(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_msg(&[200]).is_err());
        assert!(decode_msg(&[]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_msg(&trailing).is_err());
    }

    #[test]
    fn rows_payload_length_matches_embedded_encoding() {
        let rows = sample_rows();
        let mut w = Writer::new();
        put_rows(&mut w, &rows).unwrap();
        let bytes = w.into_bytes();
        // A repair answer ends with its rows block and two flag bytes: the
        // standalone encoding is exactly the bytes the message embeds.
        let answer = Answer::new(sid(1), RuleId(0), rows.clone(), Via::Repair);
        let msg = encode_msg(&ProtocolMsg::Answer(answer));
        assert!(
            msg[..msg.len() - 2].ends_with(&bytes),
            "rows block not embedded verbatim"
        );
        let mut r = Reader::new(&bytes);
        assert_eq!(get_rows(&mut r).unwrap(), rows);
        assert!(r.is_at_end());
    }
}
