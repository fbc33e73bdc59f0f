//! # p2pdb — robust data sharing and updates in P2P database networks
//!
//! A full reproduction of *"A distributed algorithm for robust data sharing
//! and updates in P2P database networks"* (Franconi, Kuper, Lopatenko,
//! Zaihrayeu — EDBT P2P&DB'04) as a Rust workspace. This facade crate
//! re-exports the public API of every member crate:
//!
//! * [`relational`] — in-memory relational engine with labeled nulls,
//!   conjunctive queries and the restricted chase;
//! * [`topology`] — dependency graphs, maximal dependency paths, topology
//!   generators and separation analysis;
//! * [`net`] — deterministic discrete-event simulator and sharded runtime
//!   (the JXTA-layer substitute), with fault injection and peer churn;
//! * [`transport`] — real TCP sockets: length-prefixed frames, the
//!   `(node, codec)` handshake, and the socket runtime behind
//!   `p2pdb serve` / `p2pdb launch`;
//! * [`storage`] — durable peer state: write-ahead log, snapshots, crash
//!   recovery;
//! * [`core`] — the paper's algorithms: topology discovery (A1–A3), the
//!   distributed update (A4–A6, eager and rounds modes), dynamic changes,
//!   super-peer driving and the global fix-point oracle;
//! * [`workload`] — DBLP-like workloads in the paper's three schemas and two
//!   distributions;
//! * [`baselines`] — centralized (Calvanese-style) and acyclic
//!   (Halevy-style) comparators.
//!
//! ## Quickstart
//!
//! ```
//! use p2pdb::core::system::P2PSystemBuilder;
//! use p2pdb::relational::Val;
//! use p2pdb::topology::NodeId;
//!
//! // Two peers: A imports B's table through a coordination rule.
//! let mut b = P2PSystemBuilder::new();
//! b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
//! b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
//! b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
//! b.insert(1, "b", vec![Val::Int(1), Val::Int(2)]).unwrap();
//!
//! let mut sys = b.build().unwrap();
//! let report = sys.run_update();
//! assert!(report.all_closed);
//!
//! // After the update, queries are answered locally (zero messages).
//! let ans = sys.query(NodeId(0), "q(X, Y) :- a(X, Y)").unwrap();
//! assert_eq!(ans.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use p2p_baselines as baselines;
pub use p2p_core as core;
pub use p2p_net as net;
pub use p2p_relational as relational;
pub use p2p_storage as storage;
pub use p2p_topology as topology;
pub use p2p_transport as transport;
pub use p2p_workload as workload;
