//! A simulator-hosted network driven as a closed loop with one client: the
//! next `StartUpdate` is injected only after the previous session reached
//! fix-point at every peer. Generic over [`Host`], so the timed pass runs
//! bare `DbPeer`s and the traced pass runs [`crate::traced::TracedPeer`]s
//! through the same code.
//!
//! The injected delay is `ConstantLatency(1 ms)` of *virtual* time, so the
//! wall time of a session is CPU time only.

use crate::stats::ms_since;
use crate::trace;
use crate::traced::Host;
use p2p_core::error::{CoreError, CoreResult};
use p2p_core::oracle::{global_fixpoint, GlobalDb};
use p2p_core::system::P2PSystemBuilder;
use p2p_core::{ProtocolMsg, RuleSet};
use p2p_net::{ChurnPlan, ConstantLatency, SessionId, SimTime, Simulator};
use p2p_relational::{Database, Val};
use p2p_storage::PeerStorage;
use p2p_topology::NodeId;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What one session cost and whether it closed.
#[derive(Debug, Clone, Copy)]
pub struct SessionOutcome {
    /// Wall time from injecting `StartUpdate` to the simulator going
    /// quiescent (all peers closed, checked right after).
    pub ms: f64,
    /// Messages delivered.
    pub messages: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Quiescent within the event budget, closed at every peer, and no peer
    /// recorded an error.
    pub ok: bool,
}

/// A built network on the simulator plus what the correctness gate needs:
/// the base data (with every later insert folded in) and the rules.
pub struct SimCluster<P: Host> {
    sim: Simulator<ProtocolMsg, P>,
    root: NodeId,
    epoch: u64,
    errors_seen: usize,
    truth: BTreeMap<NodeId, Database>,
    rules: RuleSet,
    max_null_depth: u32,
}

impl<P: Host> SimCluster<P> {
    /// Builds the peers and puts them on a fresh simulator. With
    /// `state_dir` every peer gets a file-backed store under
    /// `<state_dir>/node-<id>` (JSON frames, the builder's snapshot
    /// cadence); the builder must then have `durability` on.
    pub fn build(builder: &mut P2PSystemBuilder, state_dir: Option<&Path>) -> CoreResult<Self> {
        let config = *builder.config_mut();
        let peers = builder.build_peers()?;
        let mut sim = Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(1))));
        sim.set_max_events(config.effective_max_events(peers.len()));
        sim.set_codec(config.codec);
        let mut truth = BTreeMap::new();
        let root = peers.first().map_or(NodeId(0), |(id, _)| *id);
        for (id, mut peer) in peers {
            truth.insert(id, peer.database().clone());
            if let Some(dir) = state_dir {
                let backend = P::backend(&dir.join(format!("node-{}", id.0)))
                    .map_err(|e| CoreError::Storage(e.to_string()))?;
                let storage = PeerStorage::with_codec(backend, config.snapshot_every, config.codec);
                peer.attach_storage(storage)
                    .map_err(|e| CoreError::Storage(e.to_string()))?;
            }
            sim.add_peer(id, P::host(peer));
        }
        Ok(SimCluster {
            sim,
            root,
            epoch: 0,
            errors_seen: 0,
            truth,
            rules: builder.rules().clone(),
            max_null_depth: config.max_null_depth,
        })
    }

    /// Inserts base facts at `node` (durably where a store is attached) and
    /// folds them into the oracle's input.
    pub fn insert(&mut self, node: NodeId, tuples: &[(&'static str, Vec<Val>)]) -> CoreResult<()> {
        let _span = trace::root_span("insert", 0);
        let unknown = || CoreError::UnknownNode(node.to_string());
        let peer = self.sim.peer_mut(node).ok_or_else(unknown)?;
        let truth = self.truth.get_mut(&node).ok_or_else(unknown)?;
        for (relation, vals) in tuples {
            peer.db_mut().insert_base_fact(relation, vals.clone())?;
            truth.insert_values(relation, vals.clone())?;
        }
        Ok(())
    }

    fn new_errors(&mut self) -> bool {
        let total: usize = self.sim.peers().map(|(_, p)| p.db().errors().len()).sum();
        let fresh = total > self.errors_seen;
        self.errors_seen = total;
        fresh
    }

    /// Runs one global update session rooted at the super-peer to
    /// quiescence.
    pub fn session(&mut self) -> SessionOutcome {
        self.epoch += 1;
        let sid = SessionId::new(self.root, self.epoch);
        let (msgs0, bytes0) = {
            let s = self.sim.stats();
            (s.total_messages, s.total_bytes)
        };
        let started = Instant::now();
        let outcome = {
            let _span = trace::root_span("session", self.epoch);
            self.sim.inject(
                self.root,
                self.root,
                ProtocolMsg::StartUpdate { session: sid },
            );
            self.sim.run()
        };
        let ms = ms_since(started);
        let closed = self.sim.peers().all(|(_, p)| p.db().session_closed(sid));
        let ok = outcome.quiescent && closed && !self.new_errors();
        let s = self.sim.stats();
        SessionOutcome {
            ms,
            messages: s.total_messages - msgs0,
            bytes: s.total_bytes - bytes0,
            ok,
        }
    }

    /// Crashes `node`, restarts it, and runs until the recovered peer has
    /// resynced. Returns the wall time in milliseconds and whether the run
    /// went quiescent without a peer error.
    pub fn crash_and_recover(&mut self, node: NodeId) -> (f64, bool) {
        let plan =
            ChurnPlan::none().with_crash(node, SimTime::from_millis(1), SimTime::from_millis(2));
        let started = Instant::now();
        let outcome = {
            let _span = trace::root_span("recovery", 0);
            self.sim.schedule_churn(&plan, self.sim.now());
            self.sim.run()
        };
        let ms = ms_since(started);
        (ms, outcome.quiescent && !self.new_errors())
    }

    /// Every node's current database.
    pub fn snapshot(&self) -> GlobalDb {
        GlobalDb(
            self.sim
                .peers()
                .map(|(id, p)| (*id, p.db().database().clone()))
                .collect(),
        )
    }

    /// The centralized fix-point over the base data plus every insert.
    pub fn oracle(&self) -> CoreResult<GlobalDb> {
        global_fixpoint(&self.truth, &self.rules, self.max_null_depth)
    }

    /// The hosted peers, in id order.
    pub fn peers(&self) -> impl Iterator<Item = (&NodeId, &P)> {
        self.sim.peers()
    }

    /// The simulator's transport counters.
    pub fn net_stats(&self) -> &p2p_net::NetStats {
        self.sim.stats()
    }

    /// The rules the network was built with.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }
}
