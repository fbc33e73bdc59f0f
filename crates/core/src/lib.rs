//! # p2p-core
//!
//! The distributed algorithms of *"A distributed algorithm for robust data
//! sharing and updates in P2P database networks"* (Franconi, Kuper,
//! Lopatenko, Zaihrayeu — EDBT P2P&DB'04), implemented on the substrates
//! `p2p-relational` (local databases, conjunctive queries, restricted chase)
//! and `p2p-net` (deterministic simulator / sharded runtime standing in for
//! JXTA).
//!
//! ## What lives here
//!
//! * [`rule`] — coordination rules (Definition 2): conjunctive bodies spread
//!   over acquaintance nodes, conjunctive heads with existential variables;
//!   a parser for the paper's rule notation
//!   (`B:b(X,Y), B:b(X,Z), X != Z => A:a(X,Y)`); validation against node
//!   schemas; **weak-acyclicity** analysis of rule sets (the syntactic
//!   condition under which the update fix-point provably terminates).
//! * [`peer`] — the peer state machine: the **topology-discovery algorithm**
//!   (paper algorithms A1–A3) and the **distributed update algorithm**
//!   (A4–A6) in two modes:
//!   [`config::UpdateMode::Eager`] (asynchronous subscriptions + deltas,
//!   termination by Dijkstra–Scholten rooted at the super-peer) and
//!   [`config::UpdateMode::Rounds`] (the paper's synchronous alternative:
//!   repeated query/echo waves until a clean round).
//! * `termination` — reusable Dijkstra–Scholten diffusing-computation
//!   termination detection.
//! * [`oracle`] — the centralized global fix-point: the semantics reference
//!   every distributed run is checked against (soundness & completeness of
//!   Lemma 1, modulo null renaming).
//! * [`dynamic`] — runtime network changes: `addLink` / `deleteLink`
//!   scripts, the Definition 9 soundness/completeness envelope, Theorem 2/3
//!   machinery.
//! * [`system`] — a builder assembling nodes + rules into a runnable system
//!   on either runtime, with super-peer driving (discovery, update, change
//!   scripts, stats collection/reset, rule-file broadcast — Section 5's
//!   implementation features).
//! * [`stats`] — the per-peer half of the paper's statistical module.
//!
//! ## Quick example
//!
//! ```
//! use p2p_core::system::P2PSystemBuilder;
//! use p2p_relational::Val;
//!
//! let mut b = P2PSystemBuilder::new();
//! b.add_node_with_schema(0, "a(x: int, y: int).").unwrap();
//! b.add_node_with_schema(1, "b(x: int, y: int).").unwrap();
//! b.add_rule("r1", "B:b(X,Y) => A:a(X,Y)").unwrap();
//! b.insert(1, "b", vec![Val::Int(1), Val::Int(2)]).unwrap();
//!
//! let mut sys = b.build().unwrap();
//! let report = sys.run_update();
//! assert!(report.outcome.quiescent);
//! // Node A now answers locally: a(1,2) arrived via r1.
//! let a_db = sys.database(p2p_topology::NodeId(0)).unwrap();
//! assert_eq!(a_db.relation("a").unwrap().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod dynamic;
pub mod error;
pub mod joins;
pub mod messages;
pub mod netfile;
pub mod oracle;
pub mod peer;
pub mod rule;
pub mod socket;
pub mod stats;
pub mod system;
pub(crate) mod termination;

pub use config::{SystemConfig, UpdateMode};
pub use error::{CoreError, CoreResult};
pub use messages::ProtocolMsg;
pub use oracle::{global_fixpoint, GlobalDb};
pub use rule::{CoordinationRule, RuleId, RuleSet};
pub use system::{P2PSystem, P2PSystemBuilder, RunSpec, UpdateReport};
