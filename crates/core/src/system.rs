//! Assembling and driving a P2P database system.
//!
//! [`P2PSystemBuilder`] collects node schemas, base data and coordination
//! rules, validates everything (schema conformance, weak acyclicity), and
//! produces a [`P2PSystem`]. [`P2PSystem::run`] drives an update on either
//! in-process runtime: the deterministic simulator, or the shard pool
//! ([`RunSpec::shards`]), which borrows the system's peers for the run and
//! hands them back, so every later call sees one system.

use crate::config::{SystemConfig, UpdateMode};
use crate::dynamic::{ChangeOp, ChangeScript, ScheduledChange};
use crate::error::{CoreError, CoreResult};
use crate::messages::ProtocolMsg;
use crate::netfile::NetworkFile;
use crate::oracle::{global_fixpoint, GlobalDb};
use crate::peer::DbPeer;
use crate::rule::{CoordinationRule, RuleId, RuleSet};
use crate::stats::PeerStats;
use p2p_net::{
    ChurnPlan, ConstantLatency, FaultPlan, LatencyModel, NetStats, RunOutcome, SessionId,
    ShardedNetwork, SimTime, Simulator,
};
use p2p_relational::query::{evaluate_certain, parse_query, Idents, PlanCatalog};
use p2p_relational::{Database, DatabaseSchema, RowSet, Val};
use p2p_storage::{MemoryBackend, PeerStorage};
use p2p_topology::fxhash::FxHashMap;
use p2p_topology::{scc, Csr, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The declared network — each node's id, name and base data (its schema
/// with it) — and the interner its rules' identifiers come from. A builder
/// fills it, and the system it builds keeps it: a link read at run time
/// resolves and validates as a built rule does.
#[derive(Default)]
struct Declared {
    /// Each node's base database, in id order.
    base: BTreeMap<NodeId, Database>,
    /// Each node's id and schema under its interned name, so that a rule's
    /// qualifier resolves to both in one lookup; a name is declared once.
    names: FxHashMap<Arc<str>, (NodeId, DatabaseSchema)>,
    /// Its rules share one `Arc<str>` per distinct name and variable.
    idents: Idents,
}

impl Declared {
    /// Parses a rule over the declared names and validates it against the
    /// declared schemas.
    fn make_rule(&mut self, name: &str, text: &str) -> CoreResult<CoordinationRule> {
        let names = &self.names;
        let resolve = |s: &str| names.get(s).map(|(node, schema)| (*node, schema));
        CoordinationRule::parse_declared(name, text, &resolve, &mut self.idents)
    }
}

/// Builder for a P2P database system.
#[derive(Default)]
pub struct P2PSystemBuilder {
    /// The nodes declared so far, with their base data.
    declared: Declared,
    /// Every distinct schema text parsed so far: nodes declared with the
    /// same text share one [`DatabaseSchema`] (a refcount each).
    parsed: HashMap<String, DatabaseSchema>,
    /// The buffer a base row is converted into on its way to its relation.
    row: Vec<Val>,
    rules: RuleSet,
    config: SystemConfig,
    /// `None`: a constant 1 ms on every link.
    latency: Option<Box<dyn LatencyModel>>,
    fault: Option<FaultPlan>,
    churn: Option<ChurnPlan>,
    super_peer: NodeId,
}

impl P2PSystemBuilder {
    /// An empty builder with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the default name `A`, `B`, … (`N<id>` beyond 26).
    pub fn add_node_with_schema(&mut self, id: u32, schema_text: &str) -> CoreResult<()> {
        let name = NodeId(id).letter();
        self.add_named_node(&name, id, schema_text)
    }

    /// Adds a node with an explicit name used in rule texts. Neither its
    /// id nor its name may be taken.
    pub fn add_named_node(&mut self, name: &str, id: u32, schema_text: &str) -> CoreResult<()> {
        let node = NodeId(id);
        let declared = &mut self.declared;
        if declared.base.contains_key(&node) {
            return Err(CoreError::DuplicateNode(node));
        }
        // A declared name is interned already, so a duplicate adds nothing
        // to the interner; its entry is taken once, and filled last.
        let std::collections::hash_map::Entry::Vacant(entry) =
            declared.names.entry(declared.idents.intern(name))
        else {
            return Err(CoreError::DuplicateName(name.to_string()));
        };
        let schema = match self.parsed.get(schema_text) {
            Some(schema) => schema.clone(),
            None => {
                let schema = DatabaseSchema::parse(schema_text)?;
                self.parsed.insert(schema_text.to_string(), schema.clone());
                schema
            }
        };
        entry.insert((node, schema.clone()));
        declared.base.insert(node, Database::new(schema));
        Ok(())
    }

    /// Inserts one base row at a node. Accepts data-plane [`Val`]s and
    /// boundary [`p2p_relational::Value`]s (network files), owned or
    /// borrowed, interning the latter.
    pub fn insert<V: Into<Val>>(
        &mut self,
        id: u32,
        relation: &str,
        values: impl IntoIterator<Item = V>,
    ) -> CoreResult<()> {
        let node = NodeId(id);
        let db = (self.declared.base.get_mut(&node))
            .ok_or_else(|| CoreError::UnknownNode(node.to_string()))?;
        self.row.clear();
        self.row.extend(values.into_iter().map(Into::into));
        db.insert_row(relation, &self.row)?;
        Ok(())
    }

    /// Parses and registers a coordination rule (paper notation, node names
    /// resolved against the declared nodes).
    pub fn add_rule(&mut self, name: &str, text: &str) -> CoreResult<RuleId> {
        let rule = self.declared.make_rule(name, text)?;
        self.rules.add(rule)
    }

    /// The rule set registered so far.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Mutable run configuration.
    pub fn config_mut(&mut self) -> &mut SystemConfig {
        &mut self.config
    }

    /// Sets the latency model (default: a constant 1 ms on every link).
    pub fn set_latency(&mut self, latency: impl LatencyModel + 'static) {
        self.latency = Some(Box::new(latency));
    }

    /// Installs a fault plan (drops / outages).
    pub fn set_fault(&mut self, fault: FaultPlan) {
        self.fault = Some(fault);
    }

    /// Installs a churn plan (scheduled peer crash/restart events, offsets
    /// relative to the start of the first update session). Usually paired
    /// with `config_mut().durability = true` — without durability a crash
    /// loses the peer's data for good — and driven to closure with a
    /// [`RunSpec::redrives`] budget. Simulator-only: while it is pending,
    /// [`P2PSystem::check_run`] refuses a pooled run.
    pub fn set_churn(&mut self, churn: ChurnPlan) {
        self.churn = Some(churn);
    }

    /// Chooses the super-peer (default: node 0).
    pub(crate) fn set_super_peer(&mut self, id: u32) {
        self.super_peer = NodeId(id);
    }

    /// Validates the configuration and constructs the peers.
    pub fn build_peers(&mut self) -> CoreResult<Vec<(NodeId, DbPeer)>> {
        self.build_peers_of(|_| true)
    }

    /// [`P2PSystemBuilder::build_peers`], constructing only the peers of
    /// the nodes `keep` accepts: a process serving one node of a network
    /// pays for that node alone.
    pub(crate) fn build_peers_of(
        &mut self,
        keep: impl Fn(NodeId) -> bool,
    ) -> CoreResult<Vec<(NodeId, DbPeer)>> {
        let base = &self.declared.base;
        if !base.contains_key(&self.super_peer) {
            return Err(CoreError::UnknownNode(self.super_peer.to_string()));
        }
        // Every rule was validated when it was made, against schemas that
        // cannot change since: a node is declared once.
        if let Err(witness) = self.rules.check_weak_acyclicity() {
            return Err(CoreError::NotWeaklyAcyclic { witness });
        }
        let all_nodes: Arc<[NodeId]> = base.keys().copied().collect();

        // One pass over the rule set takes its dependency edges `head →
        // body node` as positions in the sorted roster; the per-node views
        // are lists over those positions. Each peer gets the rule set's own
        // `Arc` of its rules, not a copy.
        let at = |node: NodeId| {
            (all_nodes.binary_search(&node)).expect("a validated rule's nodes are declared") as u32
        };
        let rules: Vec<&Arc<CoordinationRule>> = self.rules.iter().collect();
        let mut heads: Vec<u32> = Vec::with_capacity(rules.len());
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(rules.len());
        for rule in &rules {
            let head = at(rule.head_node);
            heads.push(head);
            edges.extend(rule.parts.iter().map(|p| (head, at(p.node))));
        }
        let n = all_nodes.len();
        let rules_of = Csr::from_edges(n, heads.iter().zip(0..).map(|(&h, r)| (h, r)));
        let depends_on = Csr::from_edges(n, edges.iter().copied());
        let sourced_by = Csr::from_edges(n, edges.iter().map(|&(h, b)| (b, h)));
        // A node lies on a dependency cycle iff its component has another.
        let mut cyclic = vec![false; n];
        scc::tarjan(&depends_on, |component| {
            if component.len() > 1 {
                for &v in component {
                    cyclic[v as usize] = true;
                }
            }
        });

        // One catalog of compiled plans and heads for the whole system:
        // peers serving fragments or chasing heads of one shape share them.
        let catalog = Arc::new(PlanCatalog::default());
        let nodes: Vec<u32> = (0..n as u32)
            .filter(|&v| keep(all_nodes[v as usize]))
            .collect();
        let mut peers = Vec::with_capacity(nodes.len());
        for v in nodes {
            let node = all_nodes[v as usize];
            let mut peer = DbPeer::new(node, base[&node].clone(), self.config);
            peer.compiled.catalog = Arc::clone(&catalog);
            // Installing a rule opens the pipes to its body nodes; the
            // heads of the rules this node sources are its other pipes.
            for &r in rules_of.successors(v) {
                peer.install_rule(Arc::clone(rules[r as usize]));
            }
            for &head in sourced_by.successors(v) {
                peer.add_pipe(all_nodes[head as usize]);
            }
            peer.set_cycle_hint(cyclic[v as usize]);
            peer.set_roster(Arc::clone(&all_nodes));
            if node == self.super_peer {
                peer.make_super(Arc::clone(&all_nodes));
            }
            if self.config.durability {
                let storage = PeerStorage::with_codec(
                    Box::<MemoryBackend>::default(),
                    self.config.snapshot_every,
                    self.config.codec,
                );
                peer.attach_storage(storage)
                    .map_err(|e| CoreError::Storage(e.to_string()))?;
            }
            peers.push((node, peer));
        }
        Ok(peers)
    }

    /// Builds the simulator-backed system.
    pub fn build(mut self) -> CoreResult<P2PSystem> {
        let peers = self.build_peers()?;
        let latency = (self.latency.take())
            .unwrap_or_else(|| Box::new(ConstantLatency(SimTime::from_millis(1))));
        let mut sim = Simulator::new(latency);
        let fault = self.fault.take().unwrap_or_else(FaultPlan::none);
        let unreliable = !fault.is_reliable();
        sim.set_fault_plan(fault);
        sim.set_max_events(self.config.effective_max_events(peers.len()));
        sim.set_codec(self.config.codec);
        if self.config.trace_capacity > 0 {
            sim.set_trace_capacity(self.config.trace_capacity);
        }
        for (id, peer) in peers {
            sim.add_peer(id, peer);
        }
        Ok(P2PSystem {
            sim,
            super_peer: self.super_peer,
            epoch: 0,
            rules: self.rules,
            declared: self.declared,
            config: self.config,
            dynamic_rule_counter: 0,
            churn: self.churn.take(),
            unreliable,
        })
    }
}

/// One update run: where its sessions start, which update they run, what
/// changes while they run, and how often an unfinished one is re-driven.
/// The default is one global session at the super-peer.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    /// One session per **distinct** root; empty means the super-peer.
    pub roots: Vec<NodeId>,
    /// Run the query-dependent update (Section 5) instead of the global
    /// one: only peers on dependency paths from a root take part,
    /// refreshing exactly the data its local queries depend on. A scoped
    /// report's `all_closed` refers to all peers and is generally false;
    /// check [`P2PSystem::closed`] on the root instead.
    pub scoped: bool,
    /// Dynamic changes (Section 4) applied at the super-peer at their
    /// times after the sessions start.
    pub script: ChangeScript,
    /// How many times a global session still open after a drive is
    /// re-driven. With no churn and no faults the first drive closes every
    /// session, and any budget gives the reports of 0.
    pub redrives: u32,
    /// The runtime each drive runs on: 0 (the default) the simulator, `T`
    /// a shard pool of `T` threads, peers placed round-robin. A pooled run
    /// trades virtual time for real parallelism; what only the simulator
    /// runs, [`P2PSystem::check_run`] refuses.
    pub shards: usize,
}

impl RunSpec {
    /// The command that starts `session` at its root.
    fn start(&self, session: SessionId) -> ProtocolMsg {
        if self.scoped {
            ProtocolMsg::StartScopedUpdate { session }
        } else {
            ProtocolMsg::StartUpdate { session }
        }
    }
}

/// Report of one update session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// The session this report describes.
    pub session: SessionId,
    /// The last drive's outcome (virtual time, deliveries, quiescence),
    /// shared by every session of one run; for a pooled run, the pool's
    /// wall time in place of virtual time.
    pub outcome: RunOutcome,
    /// Messages delivered during the run (whole network, all sessions plus
    /// control traffic — the historical meaning; for the per-session slice
    /// see [`UpdateReport::session_messages`]).
    pub messages: u64,
    /// Bytes delivered during the run (whole network).
    pub bytes: u64,
    /// Messages attributed to this session by the transport layer (every
    /// delivered message tagged with this [`SessionId`]).
    pub session_messages: u64,
    /// Bytes attributed to this session.
    pub session_bytes: u64,
    /// Every peer reached `state_u == closed` for this session.
    pub all_closed: bool,
    /// Rounds executed by this session (rounds mode; 0 in eager mode).
    pub rounds: u32,
    /// Times the driver re-drove a stalled session
    /// ([`RunSpec::redrives`]; 0 on ordinary runs).
    pub redrives: u32,
    /// Errors recorded at peers during the run.
    pub errors: Vec<(NodeId, String)>,
}

/// Report of one discovery run.
#[derive(Debug, Clone)]
pub struct DiscoveryReport {
    /// Simulator outcome.
    pub outcome: RunOutcome,
    /// Messages delivered during discovery.
    pub messages: u64,
    /// All participating peers reached `state_d == closed`.
    pub all_closed: bool,
}

/// A built system running on the deterministic simulator.
pub struct P2PSystem {
    sim: Simulator<ProtocolMsg, DbPeer>,
    super_peer: NodeId,
    epoch: u64,
    rules: RuleSet,
    /// What it was built from; the base data is the oracle's initial state.
    declared: Declared,
    config: SystemConfig,
    dynamic_rule_counter: u32,
    /// Churn plan not yet scheduled onto the simulator (taken by the first
    /// update session, so offsets are relative to that session's start).
    churn: Option<ChurnPlan>,
    /// The simulator's fault plan can drop or cut a link.
    unreliable: bool,
}

impl P2PSystem {
    /// The designated super-peer.
    pub fn super_peer(&self) -> NodeId {
        self.super_peer
    }

    /// The (initial) rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Runs topology discovery (algorithms A1–A3) to quiescence, initiated
    /// by each of `owners` (empty: the super-peer). Initiated by every node,
    /// it leaves each node knowing its own maximal dependency paths, which
    /// is the state the paper assumes before the update phase ("each node
    /// first looks for the set of its maximal dependency paths").
    pub fn run_discovery(&mut self, owners: &[NodeId]) -> DiscoveryReport {
        let before = self.sim.stats().total_messages;
        for &n in or_super_peer(owners, &self.super_peer) {
            self.sim.inject(n, n, ProtocolMsg::StartDiscovery);
        }
        let outcome = self.sim.run();
        // Closure is only meaningful for participants: discovery explores
        // the initiator's dependency-reachable region (paper A1–A3); nodes
        // outside it never see a request.
        let all_closed = self
            .sim
            .peers()
            .filter(|(_, p)| p.discovery_started())
            .all(|(_, p)| p.discovery_closed());
        DiscoveryReport {
            outcome,
            messages: self.sim.stats().total_messages - before,
            all_closed,
        }
    }

    /// Runs a global update session rooted at the super-peer to quiescence:
    /// [`P2PSystem::run`] with the default [`RunSpec`].
    pub fn run_update(&mut self) -> UpdateReport {
        self.run(&RunSpec::default())
            .pop()
            .expect("one root, one report")
    }

    /// Runs one update run to quiescence and reports each of its sessions,
    /// in the order of their roots.
    ///
    /// Every session starts at once, one per **distinct** root, in a single
    /// drive on the spec's runtime ([`RunSpec::shards`]); the script's
    /// changes arrive at the super-peer at their times after the start. The
    /// sessions spread, interleave and terminate independently (each with
    /// its own Dijkstra–Scholten detector or echo waves), and each report is
    /// attributed from the transport layer's session-tagged traffic
    /// counters. Interleaving changes wall-clock, never results: the final
    /// global database is tuple-identical (modulo null renaming) to running
    /// the sessions serially, and to the centralized fix-point oracle.
    ///
    /// Then, as long as some session is still open somewhere (a crash broke
    /// a wave or stranded an epoch) and re-drive budget remains, the driver
    /// re-drives exactly the unfinished sessions — a fresh round of the
    /// *same* session in rounds mode (session-scoped delta state survives,
    /// so the resumed wave ships deltas), a fresh session-tagged epoch from
    /// the same root in eager mode — and runs to quiescence again.
    /// Crashed-and-recovered peers rejoin through the ordinary protocol; the
    /// final clean run re-certifies each fix-point, so a crash mid-run
    /// recovers **all** interleaved sessions. Each report counts whole-run
    /// messages and bytes across all drives, and the re-drives its session
    /// needed.
    ///
    /// # Panics
    ///
    /// If [`P2PSystem::check_run`] refuses `spec`; if `spec` is scoped and
    /// has a re-drive budget (a re-drive re-sends a global start, and a
    /// scoped session is generally not closed at every peer); and, naming
    /// the node, if a peer's handler panics.
    pub fn run(&mut self, spec: &RunSpec) -> Vec<UpdateReport> {
        assert!(
            !(spec.scoped && spec.redrives > 0),
            "a scoped update is not re-driven: a re-drive re-sends a global start"
        );
        if let Err(refused) = self.check_run(spec) {
            panic!("{refused}");
        }
        let before = (
            self.sim.stats().total_messages,
            self.sim.stats().total_bytes,
        );
        // One fresh session per distinct root: a second same-root epoch
        // launched at once would supersede (and thereby kill) the first
        // mid-flight, which is what a re-drive does, not a way to run twice.
        let mut seen = BTreeSet::new();
        let mut sids: Vec<SessionId> = (or_super_peer(&spec.roots, &self.super_peer).iter())
            .filter(|&&root| seen.insert(root))
            .map(|&root| {
                self.epoch += 1;
                SessionId::new(root, self.epoch)
            })
            .collect();
        // A pending churn plan's offsets count from this run's start.
        if let Some(plan) = self.churn.take() {
            self.sim.schedule_churn(&plan, self.sim.now());
        }
        let starts = (sids.iter())
            .map(|&sid| (sid.root, spec.start(sid)))
            .collect();
        let mut outcome = self.drive(spec.shards, starts, spec.script.sorted());

        let mut redrives = vec![0u32; sids.len()];
        for _ in 0..spec.redrives {
            let open: Vec<usize> = (0..sids.len())
                .filter(|&i| !self.sim.peers().all(|(_, p)| p.session_closed(sids[i])))
                .collect();
            if open.is_empty() {
                break;
            }
            let mut starts = Vec::with_capacity(open.len());
            for i in open {
                redrives[i] += 1;
                let sid = sids[i];
                let msg = match self.config.mode {
                    // Resume the same session at a round strictly above
                    // every peer's current one.
                    UpdateMode::Rounds => ProtocolMsg::ResumeRounds {
                        session: sid,
                        round: (self.sim.peers())
                            .map(|(_, p)| p.session_round(sid))
                            .max()
                            .unwrap_or(0)
                            + 1,
                    },
                    // Fresh session from the same root; its first messages
                    // retire the stranded epoch's state.
                    UpdateMode::Eager => {
                        self.epoch += 1;
                        let session = SessionId::new(sid.root, self.epoch);
                        ProtocolMsg::StartUpdate { session }
                    }
                };
                starts.push((sid.root, msg));
            }
            outcome = self.drive(spec.shards, starts, Vec::new());
            // An eager re-drive continues under a fresh session id, so each
            // session is followed to its root's latest one.
            let seen = self.sim.stats().per_session.keys();
            for sid in &mut sids {
                *sid = seen
                    .clone()
                    .filter(|s| s.root == sid.root)
                    .max()
                    .copied()
                    .unwrap_or(*sid);
            }
        }
        (sids.into_iter().zip(redrives))
            .map(|(sid, redrives)| session_report(&self.sim, sid, outcome, before, redrives))
            .collect()
    }

    /// Whether [`P2PSystem::run`] can run `spec`. The simulator runs any
    /// spec. A shard pool runs eager sessions and their re-drives over
    /// reliable pipes, and refuses — as [`CoreError::ShardedUnsupported`] —
    /// rounds mode, a pending churn plan, an unreliable fault plan and a
    /// change script: each needs the simulator's virtual time.
    pub fn check_run(&self, spec: &RunSpec) -> CoreResult<()> {
        let refused = [
            (self.config.mode == UpdateMode::Rounds, "rounds mode"),
            (
                self.churn.as_ref().is_some_and(|c| !c.is_empty()),
                "a churn plan",
            ),
            (self.unreliable, "a fault plan"),
            (!spec.script.is_empty(), "a change script"),
        ];
        match refused.into_iter().find(|&(refuse, _)| refuse) {
            Some((_, what)) if spec.shards > 0 => Err(CoreError::ShardedUnsupported(what)),
            _ => Ok(()),
        }
    }

    /// One drive: each root gets its start (and the super-peer `script`'s
    /// changes, at their times from now), and the network runs to
    /// quiescence — on the simulator, or on a pool of `shards` threads that
    /// takes the peers out of the simulator and hands them back with its
    /// counters.
    fn drive(
        &mut self,
        shards: usize,
        starts: Vec<(NodeId, ProtocolMsg)>,
        script: Vec<ScheduledChange>,
    ) -> RunOutcome {
        if shards == 0 {
            for (root, msg) in starts {
                self.sim.inject(root, root, msg);
            }
            let base = self.sim.now();
            for change in script {
                let msg = ProtocolMsg::ApplyChange { change: change.op };
                (self.sim).inject_at(base + change.at, self.super_peer, self.super_peer, msg);
            }
            return self.sim.run();
        }
        let mut pool = ShardedNetwork::new();
        pool.set_codec(self.config.codec);
        pool.set_shards(shards);
        for (id, peer) in self.sim.take_peers() {
            pool.add_peer(id, peer);
        }
        let initial = (starts.into_iter())
            .map(|(root, msg)| (root, root, msg))
            .collect();
        let (peers, stats) = pool.run(initial).unwrap_or_else(|panic| panic!("{panic}"));
        for (id, peer) in peers {
            self.sim.add_peer(id, peer);
        }
        self.sim.merge_stats(&stats);
        RunOutcome {
            virtual_time: stats.finished_at,
            delivered: stats.total_messages,
            quiescent: true,
        }
    }

    /// Inserts a base tuple at a node **after** build — the concurrent-
    /// writers workloads use this to model fresh data arriving at a root
    /// just before it initiates its session. Durable peers write-ahead-log
    /// the fact like any protocol-applied insertion, so a later crash
    /// recovers it; the oracle's initial state is updated too, so
    /// [`P2PSystem::oracle`] stays the reference for whatever was inserted
    /// before the sessions ran.
    pub fn insert<V: Into<Val>>(
        &mut self,
        node: NodeId,
        relation: &str,
        values: Vec<V>,
    ) -> CoreResult<()> {
        let vals: Vec<Val> = values.into_iter().map(Into::into).collect();
        let peer = self
            .sim
            .peer_mut(node)
            .ok_or_else(|| CoreError::UnknownNode(node.to_string()))?;
        peer.insert_base_fact(relation, vals.clone())?;
        if let Some(db) = self.declared.base.get_mut(&node) {
            db.insert_row(relation, &vals)?;
        }
        Ok(())
    }

    /// Replaces the simulator's fault plan from here on (drops / outages);
    /// [`FaultPlan::none`] restores reliable pipes.
    pub fn set_fault(&mut self, fault: FaultPlan) {
        self.unreliable = !fault.is_reliable();
        self.sim.set_fault_plan(fault);
    }

    /// Installs a churn plan for the **next** update session (offsets are
    /// relative to its start), as [`P2PSystemBuilder::set_churn`] does for
    /// the first one.
    pub fn set_churn(&mut self, churn: ChurnPlan) {
        self.churn = Some(churn);
    }

    /// Builds an `addLink` change op from rule text (assigning a fresh id
    /// outside the static range). The text is read as a built rule is: its
    /// qualifiers name declared nodes, and it is validated against their
    /// schemas.
    pub fn make_add_link(&mut self, name: &str, text: &str) -> CoreResult<ChangeOp> {
        // Dynamic ids live far above builder-assigned ones.
        self.dynamic_rule_counter += 1;
        let mut rule = self.declared.make_rule(name, text)?;
        rule.id = RuleId(1_000_000 + self.dynamic_rule_counter);
        Ok(ChangeOp::AddLink { rule })
    }

    /// Installs `rule` at its head node **outside any session**, under the
    /// id it carries — the head re-reads its rule file, replacing whatever
    /// it had under that id — and opens the pipes. Nobody else is told:
    /// the next session finds out. ([`P2PSystem::rules`] keeps describing
    /// the build-time rule set, as it does under change scripts.)
    pub fn install_rule(&mut self, rule: CoordinationRule) -> CoreResult<()> {
        let head = rule.head_node;
        for part in &rule.parts {
            let body = (self.sim.peer_mut(part.node))
                .ok_or_else(|| CoreError::UnknownNode(part.node.to_string()))?;
            body.add_pipe(head);
        }
        let peer =
            (self.sim.peer_mut(head)).ok_or_else(|| CoreError::UnknownNode(head.to_string()))?;
        peer.install_rule(rule);
        peer.commit()
    }

    /// Seeds `fault` at every peer (tests of the tests: see
    /// [`crate::peer::SeededFault`]).
    #[doc(hidden)]
    pub fn seed_fault(&mut self, fault: crate::peer::SeededFault) {
        for &node in self.declared.base.keys() {
            (self.sim.peer_mut(node).expect("a declared node's peer")).seed_fault(fault);
        }
    }

    /// Checks every peer's subscription state against the rules that keep
    /// a silent peer unambiguous, and the invariant that carries them
    /// across restarts (`DbPeer::check_subscriptions`). Tests of the
    /// protocol call it at quiescent points; with no fault seeded it never
    /// fails.
    #[doc(hidden)]
    pub fn check_subscriptions(&self) -> Result<(), String> {
        for (id, peer) in self.sim.peers() {
            (peer.check_subscriptions(|node| self.sim.peer(node)))
                .map_err(|e| format!("{id}: {e}"))?;
        }
        Ok(())
    }

    /// Builds a `deleteLink` change op for a rule registered at build time.
    pub fn make_delete_link(&self, name: &str) -> CoreResult<ChangeOp> {
        let rule = self
            .rules
            .by_name(name)
            .ok_or_else(|| CoreError::UnknownNode(format!("rule `{name}`")))?;
        Ok(ChangeOp::DeleteLink {
            rule: rule.id,
            head: rule.head_node,
        })
    }

    /// A node's current database.
    pub fn database(&self, node: NodeId) -> Option<&Database> {
        self.sim.peer(node).map(|p| p.database())
    }

    /// Runs a **local** certain-answer query at a node — the whole point of
    /// the update algorithm: after closure, queries need no network. The
    /// answer rows are deduplicated and in a deterministic order.
    pub fn query(&self, node: NodeId, text: &str) -> CoreResult<RowSet> {
        let q = parse_query(text)?;
        let db = self
            .database(node)
            .ok_or_else(|| CoreError::UnknownNode(node.to_string()))?;
        Ok(evaluate_certain(&q, db)?)
    }

    /// The network as it was declared — each node's id, name and schema,
    /// and the rules in the declared names — with each node's database as
    /// it stands now for its base data: loading the file replays the
    /// materialised state.
    pub fn export(&self) -> NetworkFile {
        let names: BTreeMap<NodeId, &str> = (self.declared.names.iter())
            .map(|(name, (node, _))| (*node, &**name))
            .collect();
        let nodes = (self.declared.base.iter())
            .map(|(node, base)| (*node, self.database(*node).unwrap_or(base)));
        // A built rule names declared nodes only.
        NetworkFile::export(self.super_peer, nodes, &self.rules, |node| names[&node])
    }

    /// Snapshot of every node's database.
    pub fn snapshot(&self) -> GlobalDb {
        GlobalDb(
            self.sim
                .peers()
                .map(|(id, p)| (*id, p.database().clone()))
                .collect(),
        )
    }

    /// The centralized fix-point of the *initial* rules over the *initial*
    /// data — the Lemma 1 reference for static runs.
    pub fn oracle(&self) -> CoreResult<GlobalDb> {
        global_fixpoint(&self.declared.base, &self.rules, self.config.max_null_depth)
    }

    /// Fix-point under an alternative rule set (Definition 9 envelopes).
    pub fn oracle_with(&self, rules: &RuleSet) -> CoreResult<GlobalDb> {
        global_fixpoint(&self.declared.base, rules, self.config.max_null_depth)
    }

    /// Whether a node reached `state_u == closed`.
    pub fn closed(&self, node: NodeId) -> bool {
        self.sim
            .peer(node)
            .map(|p| p.update_closed())
            .unwrap_or(false)
    }

    /// Peer accessor (assertions).
    pub fn peer(&self, node: NodeId) -> Option<&DbPeer> {
        self.sim.peer(node)
    }

    #[cfg(test)]
    pub(crate) fn peer_mut(&mut self, node: NodeId) -> Option<&mut DbPeer> {
        self.sim.peer_mut(node)
    }

    /// Iterates peers.
    pub fn peers(&self) -> impl Iterator<Item = (&NodeId, &DbPeer)> {
        self.sim.peers()
    }

    /// Network statistics.
    pub fn net_stats(&self) -> &NetStats {
        self.sim.stats()
    }

    /// Message trace (enable via `SystemConfig::trace_capacity`).
    pub fn trace(&self) -> &p2p_net::Trace {
        self.sim.trace()
    }

    /// Sums every peer's protocol counters by direct inspection (no
    /// messages; the in-protocol alternative is [`P2PSystem::collect_stats`]).
    /// This is what the benches and the delta-wave ablation report:
    /// `rows_shipped`, `delta_answers_sent`, `rows_saved`,
    /// `stale_answers_sent` across the whole network.
    pub fn sum_stats(&self) -> PeerStats {
        let mut total = PeerStats::default();
        for (_, p) in self.sim.peers() {
            total.merge(p.stats());
        }
        total
    }

    /// Collects per-peer statistics *through the protocol* (the super-peer
    /// "commands other peers to send it statistical information").
    pub fn collect_stats(&mut self) -> BTreeMap<NodeId, PeerStats> {
        self.sim
            .inject(self.super_peer, self.super_peer, ProtocolMsg::CollectStats);
        self.sim.run();
        self.sim
            .peer(self.super_peer)
            .map(|p| p.sessions.collected().clone())
            .unwrap_or_default()
    }

    /// Resets every peer's [`PeerStats`] through the protocol (the
    /// super-peer's "reset statistics at all peers" command). The transport
    /// counters of [`P2PSystem::net_stats`] keep counting.
    pub fn reset_stats(&mut self) {
        self.sim
            .inject(self.super_peer, self.super_peer, ProtocolMsg::ResetStats);
        self.sim.run();
    }

    /// Broadcasts a replacement rule file through the protocol and adopts it
    /// as the system's rule set (Section 5's topology-swap feature).
    pub fn broadcast_rules(&mut self, rules: RuleSet) {
        let all = rules.iter().cloned().collect();
        self.sim.inject(
            self.super_peer,
            self.super_peer,
            ProtocolMsg::BroadcastRules { rules: all },
        );
        self.sim.run();
        self.rules = rules;
    }
}

/// `roots`, or the super-peer when there are none.
fn or_super_peer<'a>(roots: &'a [NodeId], super_peer: &'a NodeId) -> &'a [NodeId] {
    if roots.is_empty() {
        std::slice::from_ref(super_peer)
    } else {
        roots
    }
}

/// One session's report from the peers and the transport counters after a
/// run; `before` is the (messages, bytes) baseline the run started from.
fn session_report(
    sim: &Simulator<ProtocolMsg, DbPeer>,
    sid: SessionId,
    outcome: RunOutcome,
    before: (u64, u64),
    redrives: u32,
) -> UpdateReport {
    let mut all_closed = true;
    let mut rounds = 0;
    let mut errors = Vec::new();
    for (id, p) in sim.peers() {
        all_closed &= p.session_closed(sid);
        rounds = rounds.max(p.session_rounds(sid));
        errors.extend(p.errors().iter().map(|e| (*id, e.clone())));
    }
    let stats = sim.stats();
    let per_session = stats.session(sid);
    UpdateReport {
        session: sid,
        outcome,
        messages: stats.total_messages - before.0,
        bytes: stats.total_bytes - before.1,
        session_messages: per_session.messages,
        session_bytes: per_session.bytes,
        all_closed,
        rounds,
        redrives,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpdateMode;
    use p2p_topology::Topology;

    fn two_node_builder() -> P2PSystemBuilder {
        let mut b = P2PSystemBuilder::new();
        b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
        b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
        b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
        b.insert(1, "b", vec![Val::Int(1), Val::Int(2)]).unwrap();
        b.insert(1, "b", vec![Val::Int(3), Val::Int(4)]).unwrap();
        b
    }

    #[test]
    fn eager_copy_rule_end_to_end() {
        let mut sys = two_node_builder().build().unwrap();
        let report = sys.run_update();
        assert!(report.outcome.quiescent, "must quiesce");
        assert!(report.all_closed, "all nodes closed");
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let a = sys.database(NodeId(0)).unwrap();
        assert_eq!(a.relation("a").unwrap().len(), 2);
        // Matches the oracle.
        assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
    }

    #[test]
    fn rounds_copy_rule_end_to_end() {
        let mut b = two_node_builder();
        b.config_mut().mode = UpdateMode::Rounds;
        let mut sys = b.build().unwrap();
        let report = sys.run_update();
        assert!(report.outcome.quiescent);
        assert!(report.all_closed);
        assert!(report.rounds >= 1);
        assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
    }

    #[test]
    fn local_query_after_update() {
        let mut sys = two_node_builder().build().unwrap();
        sys.run_update();
        let ans = sys.query(NodeId(0), "q(X) :- a(X, Y)").unwrap();
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn build_rejects_unknown_node_in_rule() {
        let mut b = P2PSystemBuilder::new();
        b.add_node_with_schema(0, "a(x: int).").unwrap();
        let err = b.add_rule("r", "Z:z(X) => A:a(X)").unwrap_err();
        assert!(matches!(err, CoreError::UnknownNode(_)));
    }

    #[test]
    fn build_rejects_non_weakly_acyclic_by_default() {
        let mut b = P2PSystemBuilder::new();
        b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
        b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
        b.add_rule("f", "A:a(X,Y) => B:b(Y,Z)").unwrap();
        b.add_rule("g", "B:b(X,Y) => A:a(Y,Z)").unwrap();
        assert!(matches!(
            b.build().err(),
            Some(CoreError::NotWeaklyAcyclic { .. })
        ));
    }

    /// Every topology family, its nodes at sparse ids beside two nodes
    /// with no rule: each peer gets the cycle hint the dependency graph's
    /// condensation gives, the rules headed at it and the pipe neighbours
    /// the rule set names. Heads at even ids join all their body nodes in
    /// one rule, the others take one copy rule per body node.
    #[test]
    fn every_family_builds_the_hints_rules_and_pipes_the_rule_set_names() {
        let families = [
            Topology::Tree {
                branching: 2,
                depth: 3,
            },
            Topology::LayeredDag {
                layers: 3,
                width: 4,
                fanout: 2,
            },
            Topology::Clique { n: 5 },
            Topology::Chain { n: 6 },
            Topology::Ring { n: 7 },
            Topology::Star { n: 6 },
            Topology::Random {
                n: 12,
                p_percent: 15,
                seed: 3,
            },
            Topology::Expander {
                n: 16,
                degree: 4,
                seed: 1,
            },
            Topology::SmallWorld {
                n: 14,
                k: 4,
                rewire_percent: 20,
                seed: 2,
            },
        ];
        for family in families {
            let topology = family.generate();
            let id = |n: NodeId| 3 * n.0 + 1;
            let mut b = P2PSystemBuilder::new();
            for n in topology.graph.nodes() {
                b.add_named_node(&format!("n{}", id(n)), id(n), "r(x: int).")
                    .unwrap();
            }
            b.add_named_node("lone0", 0, "r(x: int).").unwrap();
            b.add_named_node("lone2", 1_000, "r(x: int).").unwrap();
            for head in topology.graph.nodes() {
                let bodies: Vec<String> = (topology.graph.successors(head))
                    .map(|body| format!("n{}:r(X)", id(body)))
                    .collect();
                let (h, name) = (id(head), format!("r{}", id(head)));
                if id(head) % 2 == 0 && !bodies.is_empty() {
                    let text = format!("{} => n{h}:r(X)", bodies.join(", "));
                    b.add_rule(&name, &text).unwrap();
                } else {
                    for (k, body) in bodies.iter().enumerate() {
                        b.add_rule(&format!("{name}_{k}"), &format!("{body} => n{h}:r(X)"))
                            .unwrap();
                    }
                }
            }
            let rules = b.rules().clone();
            let cyclic = scc::cyclic_nodes(&rules.dependency_graph());
            assert_eq!(
                cyclic.is_empty(),
                scc::is_acyclic(&topology.graph),
                "{family:?}"
            );
            let peers = b.build_peers().unwrap();
            assert_eq!(peers.len(), topology.node_count + 2, "{family:?}");
            for (node, peer) in &peers {
                assert_eq!(peer.in_cycle, cyclic.contains(node), "{family:?} {node}");
                let headed: Vec<RuleId> = (rules.iter())
                    .filter(|r| r.head_node == *node)
                    .map(|r| r.id)
                    .collect();
                assert!(peer.rules.keys().eq(&headed), "{family:?} {node}");
                assert_eq!(
                    peer.pipes.nodes,
                    rules.pipe_neighbors(*node),
                    "{family:?} {node}"
                );
            }
        }
    }

    /// `carol:c => bob:b => alice:a`, named with no letter anywhere.
    fn named_builder() -> P2PSystemBuilder {
        let mut b = P2PSystemBuilder::new();
        for (id, name, rel) in [(0, "alice", "a"), (1, "bob", "b"), (2, "carol", "c")] {
            (b.add_named_node(name, id, &format!("{rel}(x: int, y: int)."))).unwrap();
        }
        b.add_rule("r0", "bob:b(X,Y) => alice:a(X,Y)").unwrap();
        b.add_rule("r1", "carol:c(X,Y), X < 5 => bob:b(X,Y)")
            .unwrap();
        b.insert(1, "b", [Val::Int(1), Val::Int(2)]).unwrap();
        b.insert(2, "c", [Val::Int(3), Val::Int(4)]).unwrap();
        b.insert(2, "c", [Val::Int(7), Val::Int(8)]).unwrap();
        b
    }

    /// A dynamic link calls nodes by the names the network declared, and
    /// only by those.
    #[test]
    fn a_link_resolves_the_declared_names() {
        let mut sys = named_builder().build().unwrap();
        assert!(matches!(
            sys.make_add_link("ry", "C:c(X,Y) => A:a(X,Y)"),
            Err(CoreError::UnknownNode(_))
        ));
        let op = sys
            .make_add_link("rx", "carol:c(X,Y) => alice:a(X,Y)")
            .unwrap();
        let ChangeOp::AddLink { rule } = &op else {
            panic!("an addLink op")
        };
        let mut rules = sys.rules().clone();
        rules.add(rule.clone()).unwrap();
        let mut script = ChangeScript::new();
        script.push(SimTime::from_millis(2), op);
        let spec = RunSpec {
            script,
            ..RunSpec::default()
        };
        let report = sys.run(&spec).remove(0);
        assert!(report.all_closed && report.errors.is_empty(), "{report:?}");
        let a = sys.database(NodeId(0)).unwrap().relation("a").unwrap();
        assert_eq!(a.len(), 3);
        assert!(sys.snapshot().equivalent(&sys.oracle_with(&rules).unwrap()));
    }

    /// A link over a missing relation or of the wrong arity is refused with
    /// the error a built rule gets.
    #[test]
    fn a_link_is_validated_as_a_built_rule_is() {
        let mut b = named_builder();
        let texts = [
            "carol:nosuch(X,Y) => alice:a(X,Y)",
            "carol:c(X) => alice:a(X,X)",
        ];
        let built: Vec<CoreError> = (texts.iter())
            .map(|text| b.add_rule("rx", text).unwrap_err())
            .collect();
        let mut sys = b.build().unwrap();
        for (text, err) in texts.iter().zip(built) {
            assert!(matches!(err, CoreError::SchemaViolation { .. }), "{err}");
            assert_eq!(sys.make_add_link("rx", text).unwrap_err(), err);
        }
    }

    /// A name, like an id, is declared once; a refused node leaves nothing
    /// behind.
    #[test]
    fn a_taken_name_is_refused() {
        let mut b = P2PSystemBuilder::new();
        b.add_named_node("B", 0, "a(x: int).").unwrap();
        let taken: CoreResult<()> = Err(CoreError::DuplicateName("B".into()));
        assert_eq!(b.add_named_node("B", 1, "b(x: int)."), taken);
        assert_eq!(b.add_node_with_schema(1, "b(x: int)."), taken);
        b.add_named_node("bob", 1, "b(x: int).").unwrap();
        b.add_rule("r", "bob:b(X) => B:a(X)").unwrap();
        let rule = b.rules().by_name("r").unwrap();
        assert_eq!((rule.head_node, rule.parts[0].node), (NodeId(0), NodeId(1)));
    }

    #[test]
    fn discovery_on_two_nodes() {
        let mut sys = two_node_builder().build().unwrap();
        let report = sys.run_discovery(&[]);
        assert!(report.outcome.quiescent);
        assert!(report.all_closed);
        let paths = sys.peer(NodeId(0)).unwrap().paths().unwrap();
        assert_eq!(paths.len(), 1); // A→B
    }
}
