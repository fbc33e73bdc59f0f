//! Per-message codec timings: encode/decode throughput of the two codecs on
//! representative protocol messages, and the cost of sizing one.
//!
//! These are the only nanosecond-resolution codec numbers; whole-run wire
//! bytes and codec time per session are the benchmark's `codec.*` metrics.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use p2p_core::codec::{decode_msg, encode_msg};
use p2p_core::messages::{Answer, AnswerRows, ProtocolMsg, Query, Start, Via};
use p2p_core::rule::{BodyPart, RuleId};
use p2p_net::{Codec, SessionId, Wire};
use p2p_relational::query::ast::{Atom, Term};
use p2p_relational::{RowSet, SymId, Val};
use p2p_topology::NodeId;
use p2p_workload::DblpGenerator;
use std::sync::Arc;

/// An answer message shaped like the DBLP workload's hot path: `rows` int
/// pairs plus a first-use dictionary of titles/authors/venues.
fn dblp_answer(rows: usize) -> ProtocolMsg {
    let mut gen = DblpGenerator::new(7);
    let mut dict = Vec::new();
    let mut tuples = RowSet::new(3);
    for (i, p) in gen.batch(rows).into_iter().enumerate() {
        let sym = SymId(1000 + i as u32);
        dict.push((sym, Arc::<str>::from(p.title.as_str())));
        tuples.insert(&[Val::Int(p.id), Val::Sym(sym), Val::Int(p.year)]);
    }
    ProtocolMsg::Answer(Answer {
        session: SessionId::new(NodeId(0), 1),
        rule: RuleId(2),
        rows: AnswerRows {
            vars: [Arc::from("I"), Arc::from("T"), Arc::from("Y")].into(),
            rows: tuples,
            null_depths: vec![],
            marks: [(Arc::<str>::from("pub"), 17usize)].into_iter().collect(),
            dict,
        },
        complete: false,
        reopen: false,
        pushed: false,
        acks: false,
        via: Via::Session,
    })
}

/// A first-contact query for a two-atom fragment with one constant.
fn dblp_query() -> ProtocolMsg {
    let var = |names: &[&str]| names.iter().map(Term::var).collect::<Vec<_>>();
    let mut written = var(&["I", "A"]);
    written.push(Term::Const(Val::str("open")));
    ProtocolMsg::Query(Query {
        session: SessionId::new(NodeId(0), 1),
        rule: RuleId(2),
        part: Arc::new(BodyPart::new(
            NodeId(3),
            vec![
                Atom::new("pub", var(&["I", "T", "Y"])),
                Atom::new("wrote", written),
            ],
            vec![],
            ["I", "T", "Y", "A"].map(Arc::from).into(),
        )),
        sn: [NodeId(0), NodeId(1), NodeId(3)].into(),
        from: Start::Fresh,
        via: Via::Session,
    })
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.sample_size(20);
    for rows in [20usize, 200] {
        let msg = dblp_answer(rows);
        let json = serde_json::to_string(&msg).expect("json encode");
        let binary = encode_msg(&msg);
        group.bench_with_input(BenchmarkId::new("encode_json", rows), &rows, |b, _| {
            b.iter(|| black_box(serde_json::to_string(&msg).expect("json encode")))
        });
        group.bench_with_input(BenchmarkId::new("encode_binary", rows), &rows, |b, _| {
            b.iter(|| black_box(encode_msg(&msg)))
        });
        group.bench_with_input(BenchmarkId::new("decode_json", rows), &rows, |b, _| {
            b.iter(|| black_box(serde_json::from_str::<ProtocolMsg>(&json).expect("json decode")))
        });
        group.bench_with_input(BenchmarkId::new("decode_binary", rows), &rows, |b, _| {
            b.iter(|| black_box(decode_msg(&binary).expect("binary decode")))
        });
    }
    group.finish();

    // What every in-process runtime pays per send: sizing, under either
    // codec, without keeping the encoding. One sizing is tens of
    // nanoseconds, so a timed iteration is 10 000 of them.
    let mut group = c.benchmark_group("measure_x10k");
    group.sample_size(20);
    let session = SessionId::new(NodeId(0), 1);
    for (name, msg) in [
        ("ack", ProtocolMsg::Ack { session }),
        ("query", dblp_query()),
        ("answer_20", dblp_answer(20)),
    ] {
        for (codec, label) in [(Codec::Json, "json"), (Codec::Binary, "binary")] {
            group.bench_with_input(BenchmarkId::new(label, name), &msg, |b, msg| {
                b.iter(|| {
                    (0..10_000)
                        .map(|_| black_box(msg).wire_size_with(codec))
                        .sum::<usize>()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
