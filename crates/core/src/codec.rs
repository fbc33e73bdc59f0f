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
//! A message is a 1-byte **variant tag** (declaration order of
//! [`ProtocolMsg`]'s variants up to 27, then in order of introduction;
//! `Query` and `WaveQuery` with `resume` set and `Answer` with `pushed`,
//! `acks` or both set take further tags instead of a flag byte) followed by
//! its fields:
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
//! `AnswerRows.rows` is a slice of same-arity tuples (PR 4 made rows
//! columnar in memory). The codec streams them **column-major**: per
//! column, one tag byte per value (`0` int, `1` symbol, `2` labeled null)
//! followed by a payload that is *delta-encoded against the previous value
//! of the same kind in the same column* — sorted ids and clustered
//! constants collapse to 1–2 bytes each. Dictionaries ship sorted
//! `SymId`s, so they delta the same way. Ragged row sets (possible after
//! deserializing foreign input) fall back to a generic document, flagged
//! in the block header; a peer refuses them where they arrive. A block of
//! no rows declares arity 0, and decoding rejects any other.
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
//! The JSON codec stays the default and the two are byte-for-byte
//! round-trip equivalent on the same message values — the differential
//! proptests in `tests/proptest_codec.rs` hold both codecs to that.

use crate::messages::{AnswerRows, ProtocolMsg};
use crate::rule::RuleId;
use binpack::{Error, Reader, Writer};
use p2p_net::SessionId;
use p2p_relational::value::NullId;
use p2p_relational::{SymId, Tuple, Val};
use p2p_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet};
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

fn get_node(r: &mut Reader<'_>) -> Result<NodeId, Error> {
    Ok(NodeId(
        u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
    ))
}

fn get_rule(r: &mut Reader<'_>) -> Result<RuleId, Error> {
    Ok(RuleId(
        u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
    ))
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

/// Embeds a byte block, LZ-compressed when that is strictly smaller: a
/// flag byte (`0` raw, `1` compressed) then the length-prefixed bytes.
/// The choice is deterministic, so re-encoding a decoded value reproduces
/// the exact wire bytes.
fn put_block(w: &mut Writer, raw: &[u8]) {
    let packed = binpack::lz::compress(raw);
    if packed.len() < raw.len() {
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

const ROWS_COLUMNAR: u8 = 0;
const ROWS_GENERIC: u8 = 1;

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
    for v in &rows.vars {
        w.put_str(v);
    }
    let arity = rows.rows.first().map(|t| t.0.len()).unwrap_or(0);
    let uniform = rows.rows.iter().all(|t| t.0.len() == arity);
    if uniform {
        w.put_u8(ROWS_COLUMNAR);
        w.put_varint(rows.rows.len() as u64);
        w.put_varint(arity as u64);
        // Column-major with per-column delta state: down a column, ids and
        // clustered constants change slowly, so most values are 2 bytes.
        for col in 0..arity {
            let mut delta = ColDelta::default();
            for row in &rows.rows {
                delta.put(w, row.0[col]);
            }
        }
    } else {
        // Ragged rows cannot stream column-major; ship the self-describing
        // generic form (rare: only foreign/hand-built payloads are ragged).
        w.put_u8(ROWS_GENERIC);
        put_doc(w, &rows.rows)?;
    }
    w.put_varint(rows.null_depths.len() as u64);
    for (null, depth) in &rows.null_depths {
        w.put_varint(u64::from(null.node()));
        w.put_varint(null.counter());
        w.put_varint(u64::from(*depth));
    }
    w.put_varint(rows.marks.len() as u64);
    for (rel, mark) in &rows.marks {
        w.put_str(rel);
        w.put_varint(*mark as u64);
    }
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
    let rows: Vec<Tuple> = match r.get_u8()? {
        ROWS_COLUMNAR => {
            let nrows = r.get_varint()? as usize;
            let arity = r.get_varint()? as usize;
            // The encoder writes arity 0 for a block of no rows, so any
            // other arity there is malformed; otherwise every value takes a
            // byte, which bounds the arity by the input.
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
            (0..nrows)
                .map(|i| Tuple::from_row(&flat[i * arity..][..arity]))
                .collect()
        }
        ROWS_GENERIC => get_doc(r)?,
        tag => return Err(Error::BadTag(tag)),
    };
    let ndepths = r.get_varint()? as usize;
    let mut null_depths = Vec::with_capacity(ndepths.min(r.remaining() + 1));
    for _ in 0..ndepths {
        let null = null_id(r.get_varint()? as i64, r.get_varint()? as i64)?;
        let depth = u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?;
        null_depths.push((null, depth));
    }
    let nmarks = r.get_varint()? as usize;
    let mut marks = BTreeMap::new();
    for _ in 0..nmarks {
        let rel = Arc::<str>::from(r.get_str()?);
        let mark = usize::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?;
        marks.insert(rel, mark);
    }
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
        vars,
        rows,
        null_depths,
        marks,
        dict,
    })
}

// ------------------------------------------------------------- messages

/// Second tag of [`ProtocolMsg::Query`]: the same fields, `resume` set.
const QUERY_RESUME: u8 = 28;
const CURSOR_VOID: u8 = 29;
/// Further tags of [`ProtocolMsg::Answer`]: the same fields, with `pushed`,
/// `acks` or both set.
const ANSWER_PUSHED: u8 = 30;
const ANSWER_ACKS: u8 = 31;
const ANSWER_PUSHED_ACKS: u8 = 32;
/// Second tag of [`ProtocolMsg::WaveQuery`]: the same fields, `resume` set.
const WAVE_QUERY_RESUME: u8 = 33;

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
        ProtocolMsg::Query {
            session,
            rule,
            part,
            sn,
            resume,
        } => {
            // `resume` rides in the tag, so a first-contact query costs
            // what it always did.
            w.put_u8(if *resume { QUERY_RESUME } else { 11 });
            put_session(w, *session);
            w.put_varint(u64::from(rule.0));
            put_doc(w, part)?;
            w.put_varint(sn.len() as u64);
            for n in sn {
                w.put_varint(u64::from(n.0));
            }
        }
        ProtocolMsg::Answer {
            session,
            rule,
            rows,
            complete,
            reopen,
            pushed,
            acks,
        } => {
            // Like `resume`: an answer costs what it did before either flag
            // existed.
            w.put_u8(match (*pushed, *acks) {
                (false, false) => 12,
                (true, false) => ANSWER_PUSHED,
                (false, true) => ANSWER_ACKS,
                (true, true) => ANSWER_PUSHED_ACKS,
            });
            put_session(w, *session);
            w.put_varint(u64::from(rule.0));
            put_rows(w, rows)?;
            put_bool(w, *complete);
            put_bool(w, *reopen);
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
        ProtocolMsg::WaveQuery {
            session,
            round,
            rule,
            part,
            resume,
        } => {
            w.put_u8(if *resume { WAVE_QUERY_RESUME } else { 18 });
            put_session(w, *session);
            w.put_varint(u64::from(*round));
            w.put_varint(u64::from(rule.0));
            put_doc(w, part)?;
        }
        ProtocolMsg::WaveAnswer {
            session,
            round,
            rule,
            rows,
        } => {
            w.put_u8(19);
            put_session(w, *session);
            w.put_varint(u64::from(*round));
            w.put_varint(u64::from(rule.0));
            put_rows(w, rows)?;
        }
        ProtocolMsg::WaveAnswerDelta {
            session,
            round,
            rule,
            rows,
        } => {
            w.put_u8(20);
            put_session(w, *session);
            w.put_varint(u64::from(*round));
            w.put_varint(u64::from(rule.0));
            put_rows(w, rows)?;
        }
        ProtocolMsg::RoundsClosed { session, rounds } => {
            w.put_u8(21);
            put_session(w, *session);
            w.put_varint(u64::from(*rounds));
        }
        ProtocolMsg::ResyncRequest {
            session,
            rule,
            part,
            since,
        } => {
            w.put_u8(22);
            put_session(w, *session);
            w.put_varint(u64::from(rule.0));
            put_doc(w, part)?;
            w.put_varint(since.len() as u64);
            for (rel, mark) in since {
                w.put_str(rel);
                w.put_varint(*mark as u64);
            }
        }
        ProtocolMsg::ResyncAnswer {
            session,
            rule,
            rows,
        } => {
            w.put_u8(23);
            put_session(w, *session);
            w.put_varint(u64::from(rule.0));
            put_rows(w, rows)?;
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
    Ok(match r.get_u8()? {
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
        tag @ (11 | QUERY_RESUME) => {
            let session = get_session(r)?;
            let rule = get_rule(r)?;
            let part = get_doc(r)?;
            let nsn = r.get_varint()? as usize;
            let mut sn = Vec::with_capacity(nsn.min(r.remaining() + 1));
            for _ in 0..nsn {
                sn.push(get_node(r)?);
            }
            ProtocolMsg::Query {
                session,
                rule,
                part,
                sn,
                resume: tag == QUERY_RESUME,
            }
        }
        tag @ (12 | ANSWER_PUSHED | ANSWER_ACKS | ANSWER_PUSHED_ACKS) => ProtocolMsg::Answer {
            session: get_session(r)?,
            rule: get_rule(r)?,
            rows: get_rows(r)?,
            complete: get_bool(r)?,
            reopen: get_bool(r)?,
            pushed: matches!(tag, ANSWER_PUSHED | ANSWER_PUSHED_ACKS),
            acks: matches!(tag, ANSWER_ACKS | ANSWER_PUSHED_ACKS),
        },
        13 => ProtocolMsg::Unsubscribe {
            session: get_session(r)?,
            rule: get_rule(r)?,
        },
        14 => ProtocolMsg::Fixpoint {
            session: get_session(r)?,
            generation: u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
        },
        15 => ProtocolMsg::Ack {
            session: get_session(r)?,
        },
        16 => ProtocolMsg::RoundStart {
            session: get_session(r)?,
            round: u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
        },
        17 => ProtocolMsg::RoundEcho {
            session: get_session(r)?,
            round: u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
            dirty: get_bool(r)?,
        },
        tag @ (18 | WAVE_QUERY_RESUME) => ProtocolMsg::WaveQuery {
            session: get_session(r)?,
            round: u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
            rule: get_rule(r)?,
            part: get_doc(r)?,
            resume: tag == WAVE_QUERY_RESUME,
        },
        19 => ProtocolMsg::WaveAnswer {
            session: get_session(r)?,
            round: u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
            rule: get_rule(r)?,
            rows: get_rows(r)?,
        },
        20 => ProtocolMsg::WaveAnswerDelta {
            session: get_session(r)?,
            round: u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
            rule: get_rule(r)?,
            rows: get_rows(r)?,
        },
        21 => ProtocolMsg::RoundsClosed {
            session: get_session(r)?,
            rounds: u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
        },
        22 => {
            let session = get_session(r)?;
            let rule = get_rule(r)?;
            let part = get_doc(r)?;
            let nsince = r.get_varint()? as usize;
            let mut since = BTreeMap::new();
            for _ in 0..nsince {
                let rel = Arc::<str>::from(r.get_str()?);
                let mark = usize::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?;
                since.insert(rel, mark);
            }
            ProtocolMsg::ResyncRequest {
                session,
                rule,
                part,
                since,
            }
        }
        23 => ProtocolMsg::ResyncAnswer {
            session: get_session(r)?,
            rule: get_rule(r)?,
            rows: get_rows(r)?,
        },
        24 => ProtocolMsg::ResumeRounds {
            session: get_session(r)?,
            round: u32::try_from(r.get_varint()?).map_err(|_| Error::BadVarint)?,
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
            vars: vec![Arc::from("X"), Arc::from("Y")],
            rows: (0..20)
                .map(|i| {
                    Tuple::new(vec![
                        Val::Int(1000 + i),
                        if i % 3 == 0 {
                            Val::Null(NullId::new(2, 40 + i as u64))
                        } else {
                            Val::Sym(SymId(700 + i as u32))
                        },
                    ])
                })
                .collect(),
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
        let msg = ProtocolMsg::Answer {
            session: sid(5),
            rule: RuleId(2),
            rows: sample_rows(),
            complete: true,
            reopen: false,
            pushed: false,
            acks: false,
        };
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
        let query = |resume| ProtocolMsg::Query {
            session: sid(3),
            rule: RuleId(7),
            part: crate::rule::BodyPart {
                node: NodeId(1),
                atoms: vec![],
                local_constraints: vec![],
                vars: vec![Arc::from("X")],
            },
            sn: vec![NodeId(0), NodeId(2)],
            resume,
        };
        let (first, again) = (query(false), query(true));
        for msg in [&first, &again] {
            assert_same(&roundtrip(msg), msg);
            let json = serde_json::to_string(msg).unwrap();
            assert_same(&serde_json::from_str(&json).unwrap(), msg);
        }
        let (plain, resumed) = (encode_msg(&first), encode_msg(&again));
        assert_eq!((plain[0], resumed[0]), (11, QUERY_RESUME));
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
        let answer = |pushed, acks| ProtocolMsg::Answer {
            session: sid(5),
            rule: RuleId(2),
            rows: sample_rows(),
            complete: false,
            reopen: false,
            pushed,
            acks,
        };
        let plain = encode_msg(&answer(false, false));
        for (pushed, acks, tag) in [
            (false, false, 12),
            (true, false, ANSWER_PUSHED),
            (false, true, ANSWER_ACKS),
            (true, true, ANSWER_PUSHED_ACKS),
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

    #[test]
    fn binary_is_much_smaller_than_json_on_row_payloads() {
        let msg = ProtocolMsg::Answer {
            session: sid(5),
            rule: RuleId(2),
            rows: sample_rows(),
            complete: true,
            reopen: false,
            pushed: false,
            acks: false,
        };
        let json = serde_json::to_string(&msg).unwrap().len();
        let binary = encoded_msg_len(&msg);
        assert!(
            binary * 3 <= json,
            "binary {binary} bytes not ≥3× smaller than JSON {json} bytes"
        );
    }

    #[test]
    fn ragged_rows_fall_back_to_the_generic_form() {
        let rows = AnswerRows {
            vars: vec![Arc::from("X")],
            rows: vec![
                Tuple::new(vec![Val::Int(1)]),
                Tuple::new(vec![Val::Int(2), Val::Int(3)]),
            ],
            ..AnswerRows::default()
        };
        let msg = ProtocolMsg::ResyncAnswer {
            session: sid(1),
            rule: RuleId(0),
            rows,
        };
        assert_same(&roundtrip(&msg), &msg);
    }

    /// A row block of no rows that declares an arity of 2⁶¹ is a typed
    /// error, not a capacity overflow; so is one whose symbol deltas run
    /// past `i64`, and one holding a null no `NullId` can carry.
    #[test]
    fn hostile_row_blocks_are_typed_errors() {
        let block = |inner: &[u8]| {
            let mut w = Writer::new();
            w.put_u8(12);
            put_session(&mut w, sid(1));
            w.put_varint(2);
            w.put_u8(BLOCK_RAW);
            w.put_bytes(inner);
            w.into_bytes()
        };
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
        // A `ResyncAnswer` ends with its rows block: the standalone
        // encoding is exactly the bytes the message embeds.
        let msg = encode_msg(&ProtocolMsg::ResyncAnswer {
            session: sid(1),
            rule: RuleId(0),
            rows: rows.clone(),
        });
        assert!(msg.ends_with(&bytes), "rows block not embedded verbatim");
        let mut r = Reader::new(&bytes);
        assert_eq!(get_rows(&mut r).unwrap(), rows);
        assert!(r.is_at_end());
    }
}
