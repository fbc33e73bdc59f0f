//! Topology generators for the paper's experiments (Section 5: "Three types
//! of topologies have been considered: trees, layered acyclic graphs, and
//! cliques") plus auxiliary families used by tests, ablations and the
//! scaling experiments (E19): bounded-degree random regular **expanders**
//! (the overlay family Augustine et al. build dynamic P2P storage on — the
//! degree stays constant while the diameter stays logarithmic) and
//! Watts–Strogatz **small worlds**.
//!
//! Conventions:
//! * Node 0 is the designated **super-peer** (the paper's discovery/update
//!   initiator and statistics collector).
//! * Edges are **dependency edges** `head → body`: the head imports data
//!   from the body, so data flows *against* the arrows toward node 0. With
//!   the super-peer at the root, update execution time grows with the depth
//!   of the structure — the quantity the paper reports as linear.
//! * Degenerate specs (a one-node ring, a zero-degree expander, …) are
//!   **rejected** with a [`TopologyError`], never silently clamped:
//!   [`Topology::try_generate`] returns the error, [`Topology::generate`]
//!   panics with it. An experiment that asks for an impossible network
//!   should fail loudly, not measure a different network.

use crate::fxhash::FxHashSet;
use crate::graph::{DependencyGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A topology family with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Complete `branching`-ary tree of the given depth; the root (node 0)
    /// depends on its children, recursively. `Tree { branching: 2, depth: 3 }`
    /// has 15 nodes.
    Tree {
        /// Children per internal node (≥ 1).
        branching: u32,
        /// Edge-depth of the tree (0 = a single node).
        depth: u32,
    },
    /// Layered acyclic graph: `layers` layers of `width` nodes; every node
    /// of layer *l* depends on `fanout` nodes of layer *l+1* (chosen
    /// round-robin, deterministic). Node 0 sits in layer 0.
    LayeredDag {
        /// Number of layers (≥ 1); depth = layers − 1.
        layers: u32,
        /// Nodes per layer (≥ 1).
        width: u32,
        /// Dependencies per node into the next layer (≥ 1, clamped to width).
        fanout: u32,
    },
    /// Clique: every ordered pair of distinct nodes is a dependency edge
    /// (rules in both directions, maximal cyclicity).
    Clique {
        /// Number of nodes (≥ 1).
        n: u32,
    },
    /// Chain `0 → 1 → … → n−1` (a degenerate tree; depth = n − 1).
    Chain {
        /// Number of nodes (≥ 1).
        n: u32,
    },
    /// Ring: chain plus the closing edge `n−1 → 0`; the smallest fully
    /// cyclic family, exercising the fix-point iteration.
    Ring {
        /// Number of nodes (≥ 2).
        n: u32,
    },
    /// Star: node 0 depends on every other node (depth 1).
    Star {
        /// Number of nodes (≥ 1).
        n: u32,
    },
    /// Erdős–Rényi digraph over `n` nodes with edge probability `p_percent`
    /// (0–100), seeded for reproducibility; node 0's reachability is then
    /// whatever the dice gave.
    Random {
        /// Number of nodes (≥ 1).
        n: u32,
        /// Edge probability in percent (kept integral so the enum stays `Eq`).
        p_percent: u8,
        /// RNG seed.
        seed: u64,
    },
    /// Random `degree`-regular graph (configuration-model pairing with
    /// deterministic self-loop/duplicate repair and a connectivity repair
    /// pass of degree-preserving double-edge swaps). With overwhelming
    /// probability such graphs are expanders: diameter `O(log n / log d)`,
    /// constant spectral gap — the shape that keeps a 100k-peer overlay's
    /// update latency flat while every node talks to `degree` pipes.
    /// Every node has total (in + out) degree exactly `degree`. Near
    /// `degree = n − 1` the pairing does not converge, so above `(n − 1)/2`
    /// an expander is the complement of a random `(n − 1 − degree)`-regular
    /// graph (the clique at `degree = n − 1`), connected by its density.
    Expander {
        /// Number of nodes (≥ 3).
        n: u32,
        /// Pipes per node (≥ 2, < n; `n · degree` must be even).
        degree: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Watts–Strogatz small world: a ring lattice where each node connects
    /// to its `k/2` nearest neighbours on each side, then each lattice edge
    /// is rewired to a uniform random endpoint with probability
    /// `rewire_percent` (the near endpoint stays fixed, so every node keeps
    /// at least `k/2` incident edges). A connectivity repair pass of
    /// degree-preserving swaps guarantees one component. Total edge count
    /// is exactly `n·k/2`.
    SmallWorld {
        /// Number of nodes (≥ 3, > k).
        n: u32,
        /// Lattice degree (even, ≥ 2, < n).
        k: u32,
        /// Rewiring probability in percent (0–100).
        rewire_percent: u8,
        /// RNG seed.
        seed: u64,
    },
}

/// Why a topology spec cannot be materialised. Produced by
/// [`Topology::try_generate`]; [`Topology::generate`] panics with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The family needs at least `min` nodes (a ring of one node is a
    /// self-loop the dependency graph rejects, a one-node "network" has no
    /// edges to measure, …).
    TooFewNodes {
        /// Requested node count.
        n: u32,
        /// Minimum for this family.
        min: u32,
    },
    /// A structural parameter (branching, layer width, fanout, lattice
    /// degree, …) is out of its valid range.
    BadParameter {
        /// Which parameter.
        what: &'static str,
        /// Why it is invalid.
        why: String,
    },
    /// A probability given in percent exceeds 100.
    BadPercent {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: u8,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::TooFewNodes { n, min } => {
                write!(f, "needs at least {min} nodes, got {n}")
            }
            TopologyError::BadParameter { what, why } => write!(f, "invalid {what}: {why}"),
            TopologyError::BadPercent { what, value } => {
                write!(f, "{what} is a percentage, got {value} > 100")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Tree { branching, depth } => write!(f, "tree(b={branching},d={depth})"),
            Topology::LayeredDag {
                layers,
                width,
                fanout,
            } => write!(f, "layered(l={layers},w={width},f={fanout})"),
            Topology::Clique { n } => write!(f, "clique(n={n})"),
            Topology::Chain { n } => write!(f, "chain(n={n})"),
            Topology::Ring { n } => write!(f, "ring(n={n})"),
            Topology::Star { n } => write!(f, "star(n={n})"),
            Topology::Random { n, p_percent, seed } => {
                write!(f, "random(n={n},p={p_percent}%,seed={seed})")
            }
            Topology::Expander { n, degree, seed } => {
                write!(f, "expander(n={n},d={degree},seed={seed})")
            }
            Topology::SmallWorld {
                n,
                k,
                rewire_percent,
                seed,
            } => write!(f, "smallworld(n={n},k={k},p={rewire_percent}%,seed={seed})"),
        }
    }
}

/// A generated topology: the dependency graph plus bookkeeping the
/// experiments report on.
#[derive(Debug, Clone)]
pub struct GeneratedTopology {
    /// The dependency graph.
    pub graph: DependencyGraph,
    /// Number of nodes.
    pub node_count: usize,
    /// The designated super-peer (always node 0).
    pub super_peer: NodeId,
    /// Depth as seen from the super-peer (max BFS distance).
    pub depth: usize,
}

impl Topology {
    /// Checks the spec's parameters without materialising anything.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let need = |n: u32, min: u32| {
            if n < min {
                Err(TopologyError::TooFewNodes { n, min })
            } else {
                Ok(())
            }
        };
        let percent = |what: &'static str, value: u8| {
            if value > 100 {
                Err(TopologyError::BadPercent { what, value })
            } else {
                Ok(())
            }
        };
        match *self {
            Topology::Tree { branching, .. } => {
                if branching == 0 {
                    return Err(TopologyError::BadParameter {
                        what: "branching",
                        why: "must be ≥ 1".into(),
                    });
                }
                Ok(())
            }
            Topology::LayeredDag {
                layers,
                width,
                fanout,
            } => {
                for (what, v) in [("layers", layers), ("width", width), ("fanout", fanout)] {
                    if v == 0 {
                        return Err(TopologyError::BadParameter {
                            what,
                            why: "must be ≥ 1".into(),
                        });
                    }
                }
                Ok(())
            }
            Topology::Clique { n } | Topology::Chain { n } | Topology::Star { n } => need(n, 1),
            Topology::Ring { n } => need(n, 2),
            Topology::Random { n, p_percent, .. } => {
                need(n, 1)?;
                percent("p_percent", p_percent)
            }
            Topology::Expander { n, degree, .. } => {
                need(n, 3)?;
                if degree < 2 || degree >= n {
                    return Err(TopologyError::BadParameter {
                        what: "degree",
                        why: format!("must satisfy 2 ≤ degree < n, got {degree} with n={n}"),
                    });
                }
                if !(n as u64 * degree as u64).is_multiple_of(2) {
                    return Err(TopologyError::BadParameter {
                        what: "degree",
                        why: format!("n·degree must be even, got {n}·{degree}"),
                    });
                }
                Ok(())
            }
            Topology::SmallWorld {
                n,
                k,
                rewire_percent,
                ..
            } => {
                need(n, 3)?;
                if k < 2 || k % 2 != 0 || k >= n {
                    return Err(TopologyError::BadParameter {
                        what: "k",
                        why: format!("must be even and satisfy 2 ≤ k < n, got {k} with n={n}"),
                    });
                }
                percent("rewire_percent", rewire_percent)
            }
        }
    }

    /// Materialises the topology, or explains why the spec is degenerate.
    pub fn try_generate(&self) -> Result<GeneratedTopology, TopologyError> {
        self.validate()?;
        let graph = match *self {
            Topology::Tree { branching, depth } => tree(branching, depth),
            Topology::LayeredDag {
                layers,
                width,
                fanout,
            } => layered(layers, width, fanout),
            Topology::Clique { n } => clique(n),
            Topology::Chain { n } => chain(n),
            Topology::Ring { n } => ring(n),
            Topology::Star { n } => star(n),
            Topology::Random { n, p_percent, seed } => random(n, p_percent, seed),
            Topology::Expander { n, degree, seed } => expander(n, degree, seed),
            Topology::SmallWorld {
                n,
                k,
                rewire_percent,
                seed,
            } => small_world(n, k, rewire_percent, seed),
        };
        let node_count = graph.node_count();
        let depth = graph.depth_from(NodeId(0));
        Ok(GeneratedTopology {
            graph,
            node_count,
            super_peer: NodeId(0),
            depth,
        })
    }

    /// Materialises the topology.
    ///
    /// # Panics
    /// On a degenerate spec (see [`Topology::try_generate`] for the
    /// non-panicking variant).
    pub fn generate(&self) -> GeneratedTopology {
        self.try_generate()
            .unwrap_or_else(|e| panic!("invalid topology spec {self}: {e}"))
    }

    /// Number of nodes the topology will have, without materialising it.
    /// Like [`Topology::generate`], meaningful only for valid specs.
    pub fn node_count(&self) -> usize {
        match *self {
            Topology::Tree { branching, depth } => {
                let b = branching.max(1) as u64;
                if b == 1 {
                    depth as usize + 1
                } else {
                    (((b.pow(depth + 1) - 1) / (b - 1)) as usize).max(1)
                }
            }
            Topology::LayeredDag { layers, width, .. } => (layers * width) as usize,
            Topology::Clique { n }
            | Topology::Chain { n }
            | Topology::Star { n }
            | Topology::Random { n, .. }
            | Topology::Ring { n }
            | Topology::Expander { n, .. }
            | Topology::SmallWorld { n, .. } => n as usize,
        }
    }
}

fn tree(branching: u32, depth: u32) -> DependencyGraph {
    let mut g = DependencyGraph::new();
    g.add_node(NodeId(0));
    // Breadth-first ids: node k's children are fresh ids.
    let mut next = 1u32;
    let mut frontier = vec![(NodeId(0), 0u32)];
    while let Some((node, d)) = frontier.pop() {
        if d == depth {
            continue;
        }
        for _ in 0..branching {
            let child = NodeId(next);
            next += 1;
            g.add_edge(node, child);
            frontier.push((child, d + 1));
        }
    }
    g
}

fn layered(layers: u32, width: u32, fanout: u32) -> DependencyGraph {
    let mut g = DependencyGraph::new();
    let id = |layer: u32, k: u32| NodeId(layer * width + k);
    for l in 0..layers {
        for k in 0..width {
            g.add_node(id(l, k));
        }
    }
    let fanout = fanout.min(width);
    for l in 0..layers.saturating_sub(1) {
        for k in 0..width {
            for f in 0..fanout {
                g.add_edge(id(l, k), id(l + 1, (k + f) % width));
            }
        }
    }
    g
}

fn clique(n: u32) -> DependencyGraph {
    let mut g = DependencyGraph::new();
    g.add_node(NodeId(0));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
    }
    g
}

fn chain(n: u32) -> DependencyGraph {
    let mut g = DependencyGraph::new();
    g.add_node(NodeId(0));
    for i in 0..n.saturating_sub(1) {
        g.add_edge(NodeId(i), NodeId(i + 1));
    }
    g
}

fn ring(n: u32) -> DependencyGraph {
    let mut g = chain(n);
    g.add_edge(NodeId(n - 1), NodeId(0));
    g
}

fn star(n: u32) -> DependencyGraph {
    let mut g = DependencyGraph::new();
    g.add_node(NodeId(0));
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i));
    }
    g
}

fn random(n: u32, p_percent: u8, seed: u64) -> DependencyGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DependencyGraph::new();
    for i in 0..n {
        g.add_node(NodeId(i));
    }
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen_range(0..100u8) < p_percent {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
    }
    g
}

/// Undirected edge set under construction for the expander / small-world
/// generators: normalized `(lo, hi)` pairs with a membership index, so
/// repair passes can test duplicates in O(1) time. Only `edges` is ever
/// iterated, so the index is a hash set and its order does not matter.
struct EdgeSet {
    edges: Vec<(u32, u32)>,
    present: FxHashSet<(u32, u32)>,
}

impl EdgeSet {
    fn new() -> Self {
        EdgeSet {
            edges: Vec::new(),
            present: FxHashSet::default(),
        }
    }

    fn norm(a: u32, b: u32) -> (u32, u32) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn contains(&self, a: u32, b: u32) -> bool {
        self.present.contains(&Self::norm(a, b))
    }

    /// Adds `{a, b}` if it is a fresh non-loop edge.
    fn insert(&mut self, a: u32, b: u32) -> bool {
        if a == b || !self.present.insert(Self::norm(a, b)) {
            return false;
        }
        self.edges.push(Self::norm(a, b));
        true
    }

    /// Replaces edge `idx` with `{a, b}` (caller guarantees validity).
    fn replace(&mut self, idx: usize, a: u32, b: u32) {
        let old = self.edges[idx];
        self.present.remove(&old);
        let new = Self::norm(a, b);
        self.present.insert(new);
        self.edges[idx] = new;
    }

    /// Connected components over the undirected edges, as a node → component
    /// label map (labels are the component's minimum node id).
    fn components(&self, n: u32) -> Vec<u32> {
        // Union-find with path halving.
        let mut parent: Vec<u32> = (0..n).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for &(a, b) in &self.edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi as usize] = lo;
            }
        }
        (0..n).map(|i| find(&mut parent, i)).collect()
    }

    /// Bridge edges (edges whose removal disconnects their component), as a
    /// per-edge-index flag vector: one iterative DFS low-link pass.
    fn bridges(&self, n: u32) -> Vec<bool> {
        let mut adj: Vec<Vec<(u32, usize)>> = vec![Vec::new(); n as usize];
        for (idx, &(a, b)) in self.edges.iter().enumerate() {
            adj[a as usize].push((b, idx));
            adj[b as usize].push((a, idx));
        }
        let mut disc = vec![0u32; n as usize]; // 0 = unvisited, else 1-based time
        let mut low = vec![0u32; n as usize];
        let mut is_bridge = vec![false; self.edges.len()];
        let mut time = 0u32;
        // DFS frames: (node, edge we arrived by, next-neighbour cursor).
        let mut stack: Vec<(u32, usize, usize)> = Vec::new();
        for start in 0..n {
            if disc[start as usize] != 0 {
                continue;
            }
            time += 1;
            disc[start as usize] = time;
            low[start as usize] = time;
            stack.push((start, usize::MAX, 0));
            while let Some(top) = stack.last_mut() {
                let (v, pe) = (top.0, top.1);
                if top.2 < adj[v as usize].len() {
                    let (w, e) = adj[v as usize][top.2];
                    top.2 += 1;
                    if e == pe {
                        continue; // don't walk back over the arrival edge
                    }
                    if disc[w as usize] == 0 {
                        time += 1;
                        disc[w as usize] = time;
                        low[w as usize] = time;
                        stack.push((w, e, 0));
                    } else {
                        low[v as usize] = low[v as usize].min(disc[w as usize]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(u, _, _)) = stack.last() {
                        low[u as usize] = low[u as usize].min(low[v as usize]);
                        if low[v as usize] > disc[u as usize] {
                            is_bridge[pe] = true;
                        }
                    }
                }
            }
        }
        is_bridge
    }

    /// Merges all components into one by degree-preserving double-edge
    /// swaps: a **non-bridge** edge `{a, b}` from one component is crossed
    /// with any edge `{c, d}` of another, yielding `{a, c}` + `{b, d}`.
    /// The crossing edges cannot pre-exist (their endpoints were in
    /// different components), so every swap is valid and keeps all degrees;
    /// because `{a, b}` sits on a cycle its removal leaves its component
    /// whole, so both halves of the other component (whole, or split if
    /// `{c, d}` was a bridge) reattach to it and the component count drops
    /// by exactly one per pass. Picking a bridge on *both* sides instead
    /// can split-and-recross into the same component count forever — the
    /// non-bridge side is what makes this terminate.
    ///
    /// A non-bridge edge always exists here: the expander keeps every
    /// degree ≥ 2 (every component owns a cycle), and the small world keeps
    /// `n·k/2 ≥ n` edges (some component has at least as many edges as
    /// nodes, hence a cycle).
    fn repair_connectivity(&mut self, n: u32) {
        loop {
            let comp = self.components(n);
            let base = comp[0];
            if comp.iter().all(|&c| c == base) {
                return;
            }
            let bridge = self.bridges(n);
            let i = (0..self.edges.len()).find(|&i| !bridge[i]);
            let Some(i) = i else {
                // All-bridge = every component is a tree, impossible for
                // both callers (see above); a degree-preserving repair
                // does not exist for such graphs.
                unreachable!("all-bridge multi-component graph in repair");
            };
            let pc = comp[self.edges[i].0 as usize];
            let j = (0..self.edges.len()).find(|&j| comp[self.edges[j].0 as usize] != pc);
            let Some(j) = j else {
                // Every other component is edgeless, i.e. isolated nodes —
                // impossible: both generators give every node positive
                // degree before repair.
                unreachable!("edgeless component in a positive-degree graph");
            };
            let (a, b) = self.edges[i];
            let (c, d) = self.edges[j];
            self.replace(i, a, c);
            self.replace(j, b, d);
        }
    }

    /// Builds the dependency graph, directing each undirected edge from the
    /// lower to the higher node id (data then flows from high ids toward the
    /// super-peer at node 0).
    fn into_graph(self, n: u32) -> DependencyGraph {
        let mut g = DependencyGraph::new();
        for i in 0..n {
            g.add_node(NodeId(i));
        }
        for (a, b) in self.edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }
}

/// Fisher–Yates shuffle (the vendored `rand` has no `SliceRandom`).
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Random connected `degree`-regular graph (see [`Topology::Expander`]):
/// sparse degrees pair stubs and repair connectivity, dense ones take the
/// complement of a sparse pairing. Two nodes of degree ≥ n/2 that are not
/// adjacent share a neighbour, so the complement needs no repair.
fn expander(n: u32, degree: u32, seed: u64) -> DependencyGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    if 2 * degree < n {
        let mut set = regular(n, degree, &mut rng);
        set.repair_connectivity(n);
        return set.into_graph(n);
    }
    let sparse = regular(n, n - 1 - degree, &mut rng);
    let mut set = EdgeSet::new();
    for a in 0..n {
        for b in a + 1..n {
            if !sparse.contains(a, b) {
                set.insert(a, b);
            }
        }
    }
    set.into_graph(n)
}

/// Random simple `degree`-regular graph via the configuration model, for
/// `degree ≤ (n − 1)/2`: each node contributes `degree` stubs, the stub
/// list is shuffled and paired off. Self-loops and duplicate pairs are
/// repaired by re-drawing swap partners; if a pairing resists repair
/// (likelier for small `n`), the whole pairing is re-drawn — all
/// deterministically from `rng`.
fn regular(n: u32, degree: u32, rng: &mut StdRng) -> EdgeSet {
    'attempt: for _ in 0..1_000 {
        let mut stubs: Vec<u32> = (0..n).flat_map(|i| (0..degree).map(move |_| i)).collect();
        shuffle(&mut stubs, rng);
        let mut set = EdgeSet::new();
        let mut bad: Vec<(u32, u32)> = Vec::new();
        for pair in stubs.chunks_exact(2) {
            if !set.insert(pair[0], pair[1]) {
                bad.push((pair[0], pair[1]));
            }
        }
        // Repair each bad pair by a double swap with a random good edge:
        // {a,b} bad + {c,d} good → {a,c} + {b,d}.
        for (a, b) in bad {
            let mut placed = false;
            for _ in 0..200 {
                if set.edges.is_empty() {
                    break;
                }
                let j = rng.gen_range(0..set.edges.len());
                let (c, d) = set.edges[j];
                let (x, y) = ((a, c), (b, d));
                if x.0 != x.1 && y.0 != y.1 && !set.contains(x.0, x.1) && !set.contains(y.0, y.1) {
                    set.replace(j, x.0, x.1);
                    set.insert(y.0, y.1);
                    placed = true;
                    break;
                }
            }
            if !placed {
                continue 'attempt; // re-draw the whole pairing
            }
        }
        return set;
    }
    unreachable!("regular pairing failed to converge for n={n}, degree={degree}");
}

/// Watts–Strogatz small world: ring lattice of degree `k`, then each
/// lattice edge's far endpoint is rewired with probability
/// `rewire_percent`, keeping the near endpoint fixed.
fn small_world(n: u32, k: u32, rewire_percent: u8, seed: u64) -> DependencyGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = EdgeSet::new();
    // Lattice: i — (i + j) mod n for j in 1..=k/2. k < n keeps these
    // distinct, non-loop edges.
    for i in 0..n {
        for j in 1..=k / 2 {
            set.insert(i, (i + j) % n);
        }
    }
    // Rewire in deterministic lattice order. The edge index inside `set`
    // is found via the normalized pair; a failed re-draw keeps the edge.
    for i in 0..n {
        for j in 1..=k / 2 {
            if rng.gen_range(0..100u8) >= rewire_percent {
                continue;
            }
            let old = EdgeSet::norm(i, (i + j) % n);
            let Some(idx) = set.edges.iter().position(|&e| e == old) else {
                continue; // already rewired away by an earlier draw
            };
            for _ in 0..50 {
                let t = rng.gen_range(0..n);
                if t != i && !set.contains(i, t) {
                    set.replace(idx, i, t);
                    break;
                }
            }
        }
    }
    set.repair_connectivity(n);
    set.into_graph(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::is_acyclic;
    use std::collections::BTreeMap;

    #[test]
    fn tree_counts_and_depth() {
        let t = Topology::Tree {
            branching: 2,
            depth: 3,
        };
        let g = t.generate();
        assert_eq!(g.node_count, 15);
        assert_eq!(g.node_count, t.node_count());
        assert_eq!(g.depth, 3);
        assert!(is_acyclic(&g.graph));
        // Every non-root node has exactly one parent.
        for n in g.graph.nodes() {
            let preds = g.graph.predecessors(n).count();
            assert_eq!(preds, usize::from(n != NodeId(0)));
        }
    }

    #[test]
    fn unary_tree_is_chain() {
        let g = Topology::Tree {
            branching: 1,
            depth: 4,
        }
        .generate();
        assert_eq!(g.node_count, 5);
        assert_eq!(g.depth, 4);
    }

    #[test]
    fn layered_dag_shape() {
        let t = Topology::LayeredDag {
            layers: 4,
            width: 3,
            fanout: 2,
        };
        let g = t.generate();
        assert_eq!(g.node_count, 12);
        assert_eq!(g.depth, 3);
        assert!(is_acyclic(&g.graph));
        // Every non-last-layer node has `fanout` successors.
        for l in 0..3u32 {
            for k in 0..3u32 {
                assert_eq!(g.graph.out_degree(NodeId(l * 3 + k)), 2);
            }
        }
        for k in 0..3u32 {
            assert_eq!(g.graph.out_degree(NodeId(9 + k)), 0);
        }
    }

    #[test]
    fn clique_is_complete_and_cyclic() {
        let g = Topology::Clique { n: 4 }.generate();
        assert_eq!(g.graph.edge_count(), 12);
        assert!(!is_acyclic(&g.graph));
        assert_eq!(g.depth, 1);
    }

    #[test]
    fn ring_is_cyclic_chain_is_not() {
        assert!(!is_acyclic(&Topology::Ring { n: 5 }.generate().graph));
        assert!(is_acyclic(&Topology::Chain { n: 5 }.generate().graph));
        assert_eq!(Topology::Chain { n: 5 }.generate().depth, 4);
    }

    #[test]
    fn star_depth_one() {
        let g = Topology::Star { n: 9 }.generate();
        assert_eq!(g.depth, 1);
        assert_eq!(g.graph.out_degree(NodeId(0)), 8);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Topology::Random {
            n: 12,
            p_percent: 30,
            seed: 7,
        }
        .generate();
        let b = Topology::Random {
            n: 12,
            p_percent: 30,
            seed: 7,
        }
        .generate();
        let c = Topology::Random {
            n: 12,
            p_percent: 30,
            seed: 8,
        }
        .generate();
        assert_eq!(a.graph, b.graph);
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn connectivity_repair_terminates_on_bridge_first_components() {
        // Three lollipops (a bridge tail hanging off a triangle), laid out
        // so the *first* edge of every component is a bridge. The old
        // repair deterministically crossed the first in/out-of-component
        // edges; with bridges on both sides the double swap splits both
        // components and re-merges them crosswise — no progress, and the
        // deterministic pick could cycle forever. The non-bridge-aware
        // repair must terminate, connect everything and keep all degrees.
        let mut set = EdgeSet::new();
        for b in [0u32, 4, 8] {
            set.insert(b, b + 1); // tail: a bridge
            set.insert(b + 1, b + 2);
            set.insert(b + 2, b + 3);
            set.insert(b + 3, b + 1); // triangle
        }
        let before: Vec<usize> = {
            let mut deg = vec![0usize; 12];
            for &(a, b) in &set.edges {
                deg[a as usize] += 1;
                deg[b as usize] += 1;
            }
            deg
        };
        set.repair_connectivity(12);
        let mut deg = vec![0usize; 12];
        for &(a, b) in &set.edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        assert_eq!(deg, before, "repair must preserve every degree");
        let g = set.into_graph(12);
        assert!(connected_ignoring_direction(&g), "repair must connect");
    }

    /// Total (in + out) degree per node, the undirected quantity the new
    /// families guarantee invariants over.
    fn total_degrees(g: &DependencyGraph) -> BTreeMap<NodeId, usize> {
        g.nodes()
            .map(|n| (n, g.successors(n).count() + g.predecessors(n).count()))
            .collect()
    }

    /// Undirected connectivity (direction-blind BFS from node 0).
    fn connected_ignoring_direction(g: &DependencyGraph) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        let mut queue = vec![NodeId(0)];
        while let Some(n) = queue.pop() {
            if !seen.insert(n) {
                continue;
            }
            queue.extend(g.successors(n));
            queue.extend(g.predecessors(n));
        }
        seen.len() == g.node_count()
    }

    #[test]
    fn expander_is_regular_and_connected() {
        for (n, d, seed) in [(10, 3, 1u64), (64, 4, 2), (101, 6, 3), (500, 8, 4)] {
            let t = Topology::Expander { n, degree: d, seed };
            let g = t.generate();
            assert_eq!(g.node_count, n as usize);
            assert_eq!(g.graph.edge_count(), (n as usize * d as usize) / 2, "{t}");
            for (node, deg) in total_degrees(&g.graph) {
                assert_eq!(deg, d as usize, "{t}: node {node} degree");
            }
            assert!(connected_ignoring_direction(&g.graph), "{t}: disconnected");
        }
    }

    /// Every `(n, degree)` that `validate` accepts for n ≤ 24 generates,
    /// on several seeds, a connected graph of exactly that degree — the
    /// dense ones (`degree = n − 1` from n = 7 on, `(24, 22)`) included.
    #[test]
    fn every_valid_expander_up_to_24_nodes_generates() {
        let mut built = 0;
        for n in 0..=24u32 {
            for degree in 0..=n + 1 {
                for seed in [1u64, 2, 3, 17] {
                    let t = Topology::Expander { n, degree, seed };
                    if t.validate().is_err() {
                        continue;
                    }
                    let g = t.generate();
                    assert_eq!(g.graph.edge_count(), (n * degree / 2) as usize, "{t}");
                    for (node, deg) in total_degrees(&g.graph) {
                        assert_eq!(deg, degree as usize, "{t}: node {node} degree");
                    }
                    assert!(connected_ignoring_direction(&g.graph), "{t}: disconnected");
                    built += 1;
                }
            }
        }
        // 198 valid pairs, four seeds each.
        assert_eq!(built, 4 * 198);
    }

    #[test]
    fn expander_is_deterministic_per_seed() {
        let spec = |seed| Topology::Expander {
            n: 40,
            degree: 4,
            seed,
        };
        assert_eq!(spec(9).generate().graph, spec(9).generate().graph);
        assert_ne!(spec(9).generate().graph, spec(10).generate().graph);
    }

    #[test]
    fn small_world_keeps_edge_count_and_connectivity() {
        for (n, k, p, seed) in [(12, 4, 0u8, 1u64), (50, 6, 30, 2), (200, 8, 100, 3)] {
            let t = Topology::SmallWorld {
                n,
                k,
                rewire_percent: p,
                seed,
            };
            let g = t.generate();
            assert_eq!(g.graph.edge_count(), (n as usize * k as usize) / 2, "{t}");
            for (node, deg) in total_degrees(&g.graph) {
                assert!(deg >= k as usize / 2, "{t}: node {node} degree {deg}");
            }
            assert!(connected_ignoring_direction(&g.graph), "{t}: disconnected");
        }
    }

    #[test]
    fn small_world_without_rewiring_is_the_lattice() {
        let g = Topology::SmallWorld {
            n: 10,
            k: 4,
            rewire_percent: 0,
            seed: 5,
        }
        .generate();
        // Pure ring lattice: every node has total degree exactly k.
        for (_, deg) in total_degrees(&g.graph) {
            assert_eq!(deg, 4);
        }
    }

    #[test]
    fn minimal_valid_sizes_still_generate() {
        for t in [
            Topology::Tree {
                branching: 1,
                depth: 0,
            },
            Topology::Clique { n: 1 },
            Topology::Chain { n: 1 },
            Topology::Star { n: 1 },
            Topology::LayeredDag {
                layers: 1,
                width: 1,
                fanout: 1,
            },
        ] {
            let g = t.generate();
            assert_eq!(g.node_count, 1);
            assert_eq!(g.depth, 0);
        }
    }

    #[test]
    fn degenerate_specs_are_rejected_not_clamped() {
        let bad = [
            Topology::Tree {
                branching: 0,
                depth: 2,
            },
            Topology::LayeredDag {
                layers: 0,
                width: 1,
                fanout: 1,
            },
            Topology::LayeredDag {
                layers: 1,
                width: 0,
                fanout: 1,
            },
            Topology::Clique { n: 0 },
            Topology::Chain { n: 0 },
            Topology::Star { n: 0 },
            Topology::Ring { n: 1 }, // used to clamp to 2 while Random clamped to 1
            Topology::Random {
                n: 0,
                p_percent: 10,
                seed: 1,
            },
            Topology::Random {
                n: 5,
                p_percent: 101,
                seed: 1,
            },
            Topology::Expander {
                n: 2,
                degree: 2,
                seed: 1,
            },
            Topology::Expander {
                n: 10,
                degree: 1,
                seed: 1,
            },
            Topology::Expander {
                n: 5,
                degree: 3, // n·degree odd
                seed: 1,
            },
            Topology::SmallWorld {
                n: 10,
                k: 3, // odd lattice degree
                rewire_percent: 10,
                seed: 1,
            },
            Topology::SmallWorld {
                n: 4,
                k: 4, // k must stay below n
                rewire_percent: 10,
                seed: 1,
            },
        ];
        for t in bad {
            assert!(t.try_generate().is_err(), "{t} should be rejected");
        }
        assert!(
            std::panic::catch_unwind(|| Topology::Ring { n: 1 }.generate()).is_err(),
            "generate() must panic, not clamp"
        );
    }

    #[test]
    fn node_count_matches_generation() {
        for t in [
            Topology::Tree {
                branching: 3,
                depth: 2,
            },
            Topology::LayeredDag {
                layers: 5,
                width: 4,
                fanout: 2,
            },
            Topology::Clique { n: 6 },
            Topology::Ring { n: 7 },
            Topology::Expander {
                n: 20,
                degree: 4,
                seed: 1,
            },
            Topology::SmallWorld {
                n: 20,
                k: 4,
                rewire_percent: 25,
                seed: 1,
            },
        ] {
            assert_eq!(t.generate().node_count, t.node_count(), "{t}");
        }
    }

    /// `flood_sim`'s 10 000-node, degree-4, seed-1 expander, its edges in
    /// `edges()` order, folded with FNV-1a: the benchmark's input digest
    /// hashes that order, so a change to how the generator keeps its edge
    /// set must leave it as it is. The constant was taken when membership
    /// was still an ordered set.
    #[test]
    fn the_flood_expanders_edge_list_is_pinned() {
        let g = Topology::Expander {
            n: 10_000,
            degree: 4,
            seed: 1,
        }
        .generate();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (a, b) in g.graph.edges() {
            for byte in [a.0, b.0].iter().flat_map(|id| id.to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(g.graph.edge_count(), 20_000);
        assert_eq!(hash, 0xaf2a_c54b_e917_0101, "{hash:#018x}");
    }
}
