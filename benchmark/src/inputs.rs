//! Seeded input generation. `--seed` drives everything that varies: the
//! DBLP content, the writer and crash rotations, the join data and the
//! expander topology. The program under test only ever sees what is
//! generated here, and [`Digest`] fingerprints it so a test (and the run
//! log) can tell whether two runs had the same inputs.

use crate::stats::ms_since;
use p2p_core::error::CoreResult;
use p2p_core::system::P2PSystemBuilder;
use p2p_relational::{Val, Value};
use p2p_topology::{NodeId, Topology};
use p2p_workload::distribute::distribute;
use p2p_workload::{DblpGenerator, Distribution, Publication, ScaleConfig, SchemaFamily};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// FNV-1a over the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn int(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
    fn text(&mut self, s: &str) {
        self.int(s.len() as i64);
        self.bytes(s.as_bytes());
    }
    fn publication(&mut self, p: &Publication) {
        self.int(p.id);
        self.text(&p.title);
        self.int(p.year);
        self.text(&p.venue);
        self.int(p.authors.len() as i64);
        for a in &p.authors {
            self.text(a);
        }
    }
    /// The fingerprint.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Ids of publications inserted after build start here, far above anything
/// the base distribution mints.
const FRESH_ID_BASE: i64 = 10_000_000;

/// Inputs of the ring workloads (`writers_ring`, `durable_ring`, `tcp_ring`).
pub struct RingInputs {
    /// Ring size.
    pub nodes: usize,
    /// Base publications per node.
    pub base: Vec<(NodeId, Vec<Publication>)>,
    /// One batch of fresh publications per session (warm-up included), with
    /// the node that receives it.
    pub batches: Vec<(NodeId, Vec<Publication>)>,
    /// The non-root peer crashed before every tenth session of
    /// `durable_ring`, by crash ordinal.
    pub crash_order: Vec<NodeId>,
    /// Fingerprint of all of the above.
    pub digest: u64,
}

/// A rotation over `0..n` whose start and direction come from the seed.
fn rotation(rng: &mut StdRng, n: usize, skip_zero: bool) -> impl Fn(usize) -> NodeId {
    let start = rng.gen_range(0..n);
    let backwards = rng.gen_bool(0.5);
    move |k: usize| {
        let span = if skip_zero { n - 1 } else { n };
        let step = k % span;
        let pos = if backwards {
            (start + span - step) % span
        } else {
            (start + step) % span
        };
        NodeId(if skip_zero { pos + 1 } else { pos } as u32)
    }
}

/// Generates a DBLP ring: `records` disjoint publications per node, and
/// `sessions` batches of `batch` fresh publications at a rotating writer.
pub fn ring_inputs(
    seed: u64,
    nodes: usize,
    records: usize,
    sessions: usize,
    batch: usize,
) -> RingInputs {
    let graph = Topology::Ring { n: nodes as u32 }.generate().graph;
    let base: Vec<(NodeId, Vec<Publication>)> =
        distribute(&graph, records, Distribution::Disjoint, seed)
            .into_iter()
            .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x7772_6974_6572_7321);
    let writer_of = rotation(&mut rng, nodes, false);
    let crashed_at = rotation(&mut rng, nodes, true);
    let mut fresh = DblpGenerator::new(seed ^ 0x6672_6573_685f_7075);
    let batches: Vec<(NodeId, Vec<Publication>)> = (0..sessions)
        .map(|k| {
            let pubs = fresh
                .batch(batch)
                .into_iter()
                .map(|mut p| {
                    p.id += FRESH_ID_BASE;
                    p
                })
                .collect();
            (writer_of(k), pubs)
        })
        .collect();
    let crash_order: Vec<NodeId> = (0..sessions.div_ceil(10)).map(crashed_at).collect();

    let mut d = Digest::default();
    d.int(nodes as i64);
    for (node, pubs) in base.iter().chain(&batches) {
        d.int(i64::from(node.0));
        for p in pubs {
            d.publication(p);
        }
    }
    for n in &crash_order {
        d.int(i64::from(n.0));
    }
    RingInputs {
        nodes,
        base,
        batches,
        crash_order,
        digest: d.value(),
    }
}

/// The tuples one publication becomes at `node` (its schema family decides).
pub fn tuples_at(node: NodeId, p: &Publication) -> Vec<(&'static str, Vec<Val>)> {
    SchemaFamily::for_node(node.0).tuples_for(p)
}

/// JSON-encoded size of `tuples` in boundary form (strings inline): what a
/// user would call the size of the data they stored.
pub fn user_bytes(tuples: &[(&'static str, Vec<Val>)]) -> u64 {
    tuples
        .iter()
        .map(|(_, vals)| {
            let row: Vec<Value> = vals.iter().map(|v| v.to_value()).collect();
            serde_json::encoded_len(&row).expect("tuples hold no floats") as u64
        })
        .sum()
}

/// Builds the ring system: three schema families round-robin, one batch of
/// translation rules per ring edge (cyclic), the base data.
pub fn ring_builder(inputs: &RingInputs) -> CoreResult<P2PSystemBuilder> {
    let generated = Topology::Ring {
        n: inputs.nodes as u32,
    }
    .generate();
    let mut b = P2PSystemBuilder::new();
    for node in generated.graph.nodes() {
        b.add_node_with_schema(node.0, SchemaFamily::for_node(node.0).schema_text())?;
    }
    let mut k = 0usize;
    for (head, body) in generated.graph.edges() {
        let rules = SchemaFamily::for_node(head.0).import_rules(
            SchemaFamily::for_node(body.0),
            &body.letter(),
            &head.letter(),
        );
        for text in rules {
            k += 1;
            b.add_rule(&format!("r{k}"), &text)?;
        }
    }
    for (node, pubs) in &inputs.base {
        for p in pubs {
            for (rel, vals) in tuples_at(*node, p) {
                b.insert(node.0, rel, vals)?;
            }
        }
    }
    Ok(b)
}

/// Inputs of `join_fanin`.
pub struct JoinInputs {
    /// Body nodes (the head is node 0).
    pub body_nodes: usize,
    /// `(r, s, t)` rows per body node.
    pub base: Vec<[Vec<(i64, i64)>; 3]>,
    /// One batch of fresh `r` rows per session, with the receiving body node.
    pub batches: Vec<(NodeId, Vec<(i64, i64)>)>,
    /// Fingerprint of all of the above.
    pub digest: u64,
}

/// Domain of `t.w`: the rule's `W < 50` keeps 1 % of the joined rows. (The
/// join keys range over as many values as there are rows, so each join step
/// keeps the intermediate result at about `rows`.)
const W_DOMAIN: i64 = 5_000;

/// `rows` distinct uniform pairs, in generation order. Every relation must
/// hold exactly `rows` rows: a duplicate would be dropped on insert, and the
/// evaluator's atom order breaks ties on relation size, so an accidental
/// 49 999 would flip the plan for that seed alone.
fn distinct_pairs(rng: &mut StdRng, rows: usize, first: i64, second: i64) -> Vec<(i64, i64)> {
    let mut seen = std::collections::HashSet::with_capacity(rows);
    let mut out = Vec::with_capacity(rows);
    while out.len() < rows {
        let pair = (rng.gen_range(0..first), rng.gen_range(0..second));
        if seen.insert(pair) {
            out.push(pair);
        }
    }
    out
}

/// Generates the three-way join data: `rows` rows in each of `r(x,y)`,
/// `s(y,z)`, `t(z,w)` per body node, uniform keys, and `sessions` batches of
/// `batch` fresh `r` rows at a rotating body node.
pub fn join_inputs(
    seed: u64,
    body_nodes: usize,
    rows: usize,
    sessions: usize,
    batch: usize,
) -> JoinInputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a6f_696e_5f66_616e);
    let keys = rows as i64;
    let base: Vec<[Vec<(i64, i64)>; 3]> = (0..body_nodes)
        .map(|_| {
            let r = (0..keys).map(|x| (x, rng.gen_range(0..keys))).collect();
            let s = distinct_pairs(&mut rng, rows, keys, keys);
            let t = distinct_pairs(&mut rng, rows, keys, W_DOMAIN);
            [r, s, t]
        })
        .collect();
    let node_of = rotation(&mut rng, body_nodes + 1, true);
    let batches: Vec<(NodeId, Vec<(i64, i64)>)> = (0..sessions)
        .map(|k| {
            let first = keys + (k * batch) as i64;
            let rows = (0..batch as i64)
                .map(|i| (first + i, rng.gen_range(0..keys)))
                .collect();
            (node_of(k), rows)
        })
        .collect();

    let mut d = Digest::default();
    for rels in &base {
        for rel in rels {
            for (a, b) in rel {
                d.int(*a);
                d.int(*b);
            }
        }
    }
    for (node, rows) in &batches {
        d.int(i64::from(node.0));
        for (a, b) in rows {
            d.int(*a);
            d.int(*b);
        }
    }
    JoinInputs {
        body_nodes,
        base,
        batches,
        digest: d.value(),
    }
}

/// Builds the fan-in system: head `A` with `out`, body nodes with `r, s, t`
/// and one three-way-join rule each.
pub fn join_builder(inputs: &JoinInputs) -> CoreResult<P2PSystemBuilder> {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "out(x: int, w: int).")?;
    for k in 1..=inputs.body_nodes as u32 {
        b.add_node_with_schema(
            k,
            "r(x: int, y: int). s(y: int, z: int). t(z: int, w: int).",
        )?;
        let name = NodeId(k).letter();
        b.add_rule(
            &format!("j{k}"),
            &format!("{name}:r(X,Y), {name}:s(Y,Z), {name}:t(Z,W), W < 50 => A:out(X,W)"),
        )?;
    }
    for (i, rels) in inputs.base.iter().enumerate() {
        for (name, rows) in ["r", "s", "t"].iter().zip(rels) {
            for (a, bb) in rows {
                b.insert(i as u32 + 1, name, vec![*a, *bb])?;
            }
        }
    }
    Ok(b)
}

/// Base facts inserted at one node before one session.
pub type Batch = (NodeId, Vec<(&'static str, Vec<Val>)>);

/// A generated simulator scenario: the network to build and what the closed
/// loop feeds it.
pub struct Scenario {
    /// The network (nodes, base data, rules), configuration still open.
    pub builder: P2PSystemBuilder,
    /// One batch per session, warm-up sessions first.
    pub batches: Vec<Batch>,
    /// The non-root peer to crash, by crash ordinal (`durable_ring`).
    pub crash_order: Vec<NodeId>,
    /// Fingerprint of the generated inputs.
    pub digest: u64,
    /// Encoded bytes of the base plus all batch tuples.
    pub user_bytes: u64,
    /// Wall time of input generation, milliseconds.
    pub generate_ms: f64,
    /// Wall time of assembling the builder, milliseconds.
    pub build_ms: f64,
}

/// Sizes of a ring scenario.
#[derive(Debug, Clone, Copy)]
pub struct RingSize {
    /// Peers on the ring.
    pub nodes: usize,
    /// Base publications per node.
    pub records: usize,
    /// Fresh publications before each session.
    pub batch: usize,
}

/// The DBLP ring with writers (`writers_ring`, `durable_ring`).
pub fn ring_scenario(seed: u64, size: RingSize, sessions: usize) -> CoreResult<Scenario> {
    let t = Instant::now();
    let inputs = ring_inputs(seed, size.nodes, size.records, sessions, size.batch);
    let generate_ms = ms_since(t);
    let t = Instant::now();
    let builder = ring_builder(&inputs)?;
    let batches: Vec<Batch> = inputs
        .batches
        .iter()
        .map(|(node, pubs)| {
            let tuples = pubs.iter().flat_map(|p| tuples_at(*node, p)).collect();
            (*node, tuples)
        })
        .collect();
    let user_bytes = inputs
        .base
        .iter()
        .map(|(node, pubs)| -> u64 { pubs.iter().map(|p| user_bytes(&tuples_at(*node, p))).sum() })
        .sum::<u64>()
        + batches.iter().map(|(_, t)| user_bytes(t)).sum::<u64>();
    Ok(Scenario {
        builder,
        batches,
        crash_order: inputs.crash_order,
        digest: inputs.digest,
        user_bytes,
        generate_ms,
        build_ms: ms_since(t),
    })
}

/// Sizes of the join scenario.
#[derive(Debug, Clone, Copy)]
pub struct JoinSize {
    /// Body nodes feeding the head.
    pub body_nodes: usize,
    /// Rows in each of `r`, `s`, `t` per body node.
    pub rows: usize,
    /// Fresh `r` rows before each session.
    pub batch: usize,
}

/// The three-way-join fan-in (`join_fanin`).
pub fn join_scenario(seed: u64, size: JoinSize, sessions: usize) -> CoreResult<Scenario> {
    let t = Instant::now();
    let inputs = join_inputs(seed, size.body_nodes, size.rows, sessions, size.batch);
    let generate_ms = ms_since(t);
    let t = Instant::now();
    let builder = join_builder(&inputs)?;
    let batches = inputs
        .batches
        .iter()
        .map(|(node, rows)| {
            let tuples = rows
                .iter()
                .map(|(a, b)| ("r", vec![Val::Int(*a), Val::Int(*b)]))
                .collect();
            (*node, tuples)
        })
        .collect();
    Ok(Scenario {
        builder,
        batches,
        crash_order: Vec::new(),
        digest: inputs.digest,
        user_bytes: 0,
        generate_ms,
        build_ms: ms_since(t),
    })
}

/// Inputs of the flood workloads: the `p2p_workload::scale` scenario on a
/// seeded expander.
pub struct FloodInputs {
    /// The scenario.
    pub config: ScaleConfig,
    /// Fingerprint of the generated edge list.
    pub digest: u64,
    /// `(nodes + edges) × records`: the closed-form fix-point size.
    pub expected_tuples: usize,
}

/// Generates the flood scenario's topology and closed form.
pub fn flood_inputs(seed: u64, peers: usize, degree: usize, records: usize) -> FloodInputs {
    let config = ScaleConfig {
        topology: Topology::Expander {
            n: peers as u32,
            degree: degree as u32,
            seed,
        },
        records_per_node: records,
    };
    let generated = config.topology.generate();
    let mut d = Digest::default();
    let mut edges = 0usize;
    for (head, body) in generated.graph.edges() {
        d.int(i64::from(head.0));
        d.int(i64::from(body.0));
        edges += 1;
    }
    FloodInputs {
        config,
        digest: d.value(),
        expected_tuples: (generated.node_count + edges) * records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_differs() {
        assert_eq!(
            ring_inputs(3, 8, 20, 12, 5).digest,
            ring_inputs(3, 8, 20, 12, 5).digest
        );
        assert_ne!(
            ring_inputs(3, 8, 20, 12, 5).digest,
            ring_inputs(4, 8, 20, 12, 5).digest
        );
        assert_eq!(
            join_inputs(3, 4, 500, 12, 20).digest,
            join_inputs(3, 4, 500, 12, 20).digest
        );
        assert_ne!(
            join_inputs(3, 4, 500, 12, 20).digest,
            join_inputs(4, 4, 500, 12, 20).digest
        );
        assert_eq!(
            flood_inputs(3, 200, 4, 4).digest,
            flood_inputs(3, 200, 4, 4).digest
        );
        assert_ne!(
            flood_inputs(3, 200, 4, 4).digest,
            flood_inputs(4, 200, 4, 4).digest
        );
    }

    #[test]
    fn rotations_visit_every_eligible_node() {
        let inputs = ring_inputs(9, 8, 5, 40, 2);
        let writers: std::collections::BTreeSet<u32> =
            inputs.batches.iter().map(|(n, _)| n.0).collect();
        assert_eq!(writers.len(), 8);
        assert!(
            inputs.crash_order.iter().all(|n| n.0 != 0),
            "root never crashes"
        );
        let j = join_inputs(9, 4, 100, 40, 3);
        let nodes: std::collections::BTreeSet<u32> = j.batches.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, (1..=4).collect());
    }

    #[test]
    fn fresh_publications_never_collide_with_base_ids() {
        let inputs = ring_inputs(1, 8, 100, 220, 5);
        let max_base = inputs
            .base
            .iter()
            .flat_map(|(_, pubs)| pubs.iter().map(|p| p.id))
            .max()
            .unwrap();
        let mut fresh: Vec<i64> = inputs
            .batches
            .iter()
            .flat_map(|(_, pubs)| pubs.iter().map(|p| p.id))
            .collect();
        assert!(fresh.iter().all(|id| *id > max_base));
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
    }
}
