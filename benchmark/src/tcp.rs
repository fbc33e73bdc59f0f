//! `tcp_ring`: a DBLP ring of six peers over real loopback TCP with the
//! binary codec — the only workload where messages are actually encoded,
//! framed, written and decoded. Each node is hosted by
//! `p2p_core::socket::prepare(..).run()` on its own thread and driven by one
//! `Controller`; a session is injected at the super-peer and polled to
//! closure on every node. No delay is injected.
//!
//! `prepare` hosts a bare `DbPeer`, so this workload has no wrapped variant:
//! its traced pass reads `TransportStats` through `Controller::stats`, and
//! takes `peer.*` and `codec.*` from a simulator replay of the same inputs
//! (`crate::layers`).

use crate::calib::Calibrator;
use crate::cluster::SessionOutcome;
use crate::inputs::{ring_builder, ring_inputs, RingSize};
use crate::pass::Pass;
use crate::stats::ms_since;
use p2p_core::error::{CoreError, CoreResult};
use p2p_core::netfile::NetworkFile;
use p2p_core::oracle::{global_fixpoint, GlobalDb};
use p2p_core::socket::{prepare, Controller, ServeConfig, ServeOutcome};
use p2p_core::{ProtocolMsg, RuleSet};
use p2p_net::{Codec, SessionId};
use p2p_relational::Database;
use p2p_topology::NodeId;
use p2p_transport::TransportStats;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizes of one TCP run.
#[derive(Debug, Clone, Copy)]
pub struct TcpSpec {
    /// Ring size and base data.
    pub size: RingSize,
    /// Untimed sessions after each cluster start (part of `setup_s`).
    pub warmup: usize,
    /// Timed sessions.
    pub sessions: usize,
    /// Clusters started (the last one is used; `setup_s` is their median).
    pub setups: usize,
}

/// Pause between two polling sweeps over the nodes that are still open.
const POLL_INTERVAL: Duration = Duration::from_micros(100);
/// A session that has not closed everywhere by then has failed.
const SESSION_DEADLINE: Duration = Duration::from_secs(10);

/// The generated inputs in the form the socket runtime takes them.
pub struct TcpInputs {
    /// The network description every node is prepared from.
    pub netfile: NetworkFile,
    /// Base data, for the oracle.
    pub base: BTreeMap<NodeId, Database>,
    /// The rules, for the oracle.
    pub rules: RuleSet,
    /// `max_null_depth` the peers run with.
    pub max_null_depth: u32,
    /// Fingerprint of the generated inputs.
    pub digest: u64,
}

/// Generates the ring and renders it as a network file.
pub fn tcp_inputs(seed: u64, size: RingSize) -> CoreResult<TcpInputs> {
    let inputs = ring_inputs(seed, size.nodes, size.records, 0, 0);
    let mut builder = ring_builder(&inputs)?;
    let base: BTreeMap<NodeId, Database> = builder
        .build_peers()?
        .into_iter()
        .map(|(id, p)| (id, p.database().clone()))
        .collect();
    let rules = builder.rules().clone();
    Ok(TcpInputs {
        netfile: NetworkFile::from_databases(NodeId(0), &base, &rules),
        base,
        rules,
        max_null_depth: builder.config_mut().max_null_depth,
        digest: inputs.digest,
    })
}

/// A running loopback cluster: one serving thread and one controller per
/// node.
pub struct TcpCluster {
    controllers: Vec<(NodeId, Controller)>,
    servers: Vec<JoinHandle<CoreResult<ServeOutcome>>>,
    root: NodeId,
    epoch: u64,
}

/// Binds `n` listeners on port 0 to learn free loopback ports, then frees
/// them for the nodes (which need every peer's address before they bind).
fn reserve_ports(n: usize) -> CoreResult<Vec<SocketAddr>> {
    let io = |e: std::io::Error| CoreError::Transport(format!("reserve port: {e}"));
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(io)?;
    listeners
        .iter()
        .map(|l| l.local_addr().map_err(io))
        .collect()
}

impl TcpCluster {
    /// Prepares and starts every node, then connects the controllers.
    pub fn start(inputs: &TcpInputs) -> CoreResult<Self> {
        let ids: Vec<u32> = inputs.netfile.nodes.iter().map(|n| n.id).collect();
        let addrs = reserve_ports(ids.len())?;
        let mut servers = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let mut cfg = ServeConfig::new(inputs.netfile.clone(), *id, addrs[i]);
            cfg.codec = Codec::Binary;
            cfg.peers = ids
                .iter()
                .zip(&addrs)
                .filter(|(other, _)| *other != id)
                .map(|(other, addr)| (*other, *addr))
                .collect();
            let server = prepare(&cfg)?;
            servers.push(std::thread::spawn(move || server.run()));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let controllers = ids
            .iter()
            .zip(&addrs)
            .map(|(id, addr)| Ok((NodeId(*id), Controller::connect(*addr, deadline)?)))
            .collect::<CoreResult<_>>()?;
        Ok(TcpCluster {
            controllers,
            servers,
            root: NodeId(inputs.netfile.super_peer),
            epoch: 0,
        })
    }

    fn root_controller(&mut self) -> &mut Controller {
        let root = self.root;
        let (_, c) = self
            .controllers
            .iter_mut()
            .find(|(id, _)| *id == root)
            .expect("the super-peer is a declared node");
        c
    }

    /// Injects `StartUpdate` at the super-peer and polls every node until
    /// the session is closed everywhere (or the deadline passes).
    pub fn session(&mut self) -> CoreResult<SessionOutcome> {
        self.epoch += 1;
        let sid = SessionId::new(self.root, self.epoch);
        let started = Instant::now();
        let root = self.root.0;
        self.root_controller()
            .inject(root, ProtocolMsg::StartUpdate { session: sid })?;
        let mut open: Vec<usize> = (0..self.controllers.len()).collect();
        let mut ok = true;
        while !open.is_empty() {
            let mut still = Vec::with_capacity(open.len());
            for i in open {
                if !self.controllers[i].1.session_closed(sid)? {
                    still.push(i);
                }
            }
            open = still;
            if started.elapsed() > SESSION_DEADLINE {
                ok = false;
                break;
            }
            if !open.is_empty() {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
        Ok(SessionOutcome {
            ms: ms_since(started),
            messages: 0,
            bytes: 0,
            ok,
        })
    }

    /// Cluster-wide socket counters and whether any peer recorded an error.
    pub fn stats(&mut self) -> CoreResult<(TransportStats, bool)> {
        let mut total = TransportStats::default();
        let mut errors = false;
        for (_, c) in &mut self.controllers {
            let (_, transport, errs) = c.stats()?;
            total.merge(&transport);
            errors |= !errs.is_empty();
        }
        Ok((total, errors))
    }

    /// Round-trip times of `n` control `Ping`s to the super-peer, in
    /// microseconds: the polling floor under every `session_ms`.
    pub fn ping_rtts_us(&mut self, n: usize) -> CoreResult<Vec<f64>> {
        use p2p_core::socket::ControlReq;
        let c = self.root_controller();
        (0..n)
            .map(|_| {
                let t = Instant::now();
                c.request(&ControlReq::Ping)?;
                Ok(t.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    }

    /// Every node's database, merged.
    pub fn snapshot(&mut self) -> CoreResult<GlobalDb> {
        let mut dbs = BTreeMap::new();
        for (id, c) in &mut self.controllers {
            dbs.insert(*id, c.snapshot()?);
        }
        Ok(GlobalDb(dbs))
    }

    /// Asks every node to exit and joins its serving thread.
    pub fn shutdown(mut self) -> CoreResult<()> {
        for (_, c) in &mut self.controllers {
            c.shutdown()?;
        }
        for server in self.servers.drain(..) {
            server
                .join()
                .map_err(|_| CoreError::Transport("serving thread panicked".into()))??;
        }
        Ok(())
    }
}

fn minus(after: &TransportStats, before: &TransportStats) -> TransportStats {
    TransportStats {
        frames_sent: after.frames_sent - before.frames_sent,
        bytes_sent: after.bytes_sent - before.bytes_sent,
        frames_received: after.frames_received - before.frames_received,
        bytes_received: after.bytes_received - before.bytes_received,
        connects: after.connects,
        reconnects: after.reconnects,
        ..TransportStats::default()
    }
}

/// What the traced pass additionally reads off the live cluster.
#[derive(Default)]
pub struct TcpExtras {
    /// The first session on a freshly started cluster (cold connects), raw
    /// milliseconds.
    pub first_session_ms: f64,
    /// Control `Ping` round trips, microseconds.
    pub ping_rtts_us: Vec<f64>,
}

/// Runs one pass. `extras` asks for the traced pass's live-cluster reads.
pub fn run_pass(spec: &TcpSpec, seed: u64, extras: Option<&mut TcpExtras>) -> CoreResult<Pass> {
    let mut pass = Pass {
        shards: 1,
        ..Pass::default()
    };
    let mut cal = Calibrator::new();
    let mut first_session_ms = 0.0;

    let mut kept: Option<(TcpInputs, TcpCluster)> = None;
    for _ in 0..spec.setups.max(1) {
        if let Some((_, old)) = kept.take() {
            old.shutdown()?;
        }
        let (built, _, norm_ms) = cal.measure(|| {
            let t = Instant::now();
            let inputs = tcp_inputs(seed, spec.size)?;
            pass.split.generate_ms = ms_since(t);
            let t = Instant::now();
            let mut cluster = TcpCluster::start(&inputs)?;
            pass.split.build_peers_ms = ms_since(t);
            for k in 0..spec.warmup {
                let warm = cluster.session()?;
                if k == 0 {
                    first_session_ms = warm.ms;
                }
                if !warm.ok {
                    return Err(CoreError::Transport("warm-up session did not close".into()));
                }
            }
            Ok((inputs, cluster))
        });
        kept = Some(built?);
        pass.setup_s.push(norm_ms / 1e3);
    }
    let (inputs, mut cluster) = kept.expect("at least one set-up");
    pass.input_digest = inputs.digest;

    let (before, _) = cluster.stats()?;
    for _ in 0..spec.sessions {
        let (outcome, raw_ms, norm_ms) = cal.measure(|| cluster.session());
        pass.raw_wall_s += raw_ms / 1e3;
        pass.timed_wall_s += norm_ms / 1e3;
        pass.record(outcome?, norm_ms, false);
    }
    pass.speed_factor = cal.median_factor();
    let (after, peer_errors) = cluster.stats()?;
    pass.transport = minus(&after, &before);
    pass.wire_bytes = pass.transport.bytes_sent;
    pass.messages = pass.transport.frames_sent;
    if let Some(extras) = extras {
        extras.first_session_ms = first_session_ms;
        extras.ping_rtts_us = cluster.ping_rtts_us(200)?;
    }

    // Correctness gate: the merged snapshots equal the centralized
    // fix-point, and no peer recorded an error.
    let live = cluster.snapshot()?;
    cluster.shutdown()?;
    let oracle = global_fixpoint(&inputs.base, &inputs.rules, inputs.max_null_depth)?;
    if peer_errors || !live.equivalent(&oracle) {
        pass.fail_all();
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cluster_converges_to_the_oracle_over_real_sockets() {
        let spec = TcpSpec {
            size: RingSize {
                nodes: 3,
                records: 6,
                batch: 0,
            },
            warmup: 1,
            sessions: 5,
            setups: 2,
        };
        let mut extras = TcpExtras::default();
        let pass = run_pass(&spec, 3, Some(&mut extras)).unwrap();
        assert!(
            pass.correct(),
            "{} of {} failed",
            pass.failed,
            pass.attempted
        );
        assert_eq!(pass.setup_s.len(), 2);
        assert_eq!(pass.session_ms.len(), 5);
        assert!(pass.transport.frames_sent > 0 && pass.wire_bytes > 0);
        assert_eq!(pass.transport.frames_sent, pass.transport.frames_received);
        assert!(extras.first_session_ms > 0.0);
        assert_eq!(extras.ping_rtts_us.len(), 200);
    }
}
