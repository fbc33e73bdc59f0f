//! # p2p-topology
//!
//! Dependency-graph machinery for P2P database networks, implementing
//! Definitions 5–7 and 10 of Franconi et al. (EDBT P2P&DB'04):
//!
//! * [`NodeId`] — network-unique peer identifiers;
//! * [`DependencyGraph`] — the graph of **dependency edges**: there is an
//!   edge from node *i* to node *j* iff some coordination rule has its head
//!   at *i* and (part of) its body at *j*. Note the direction is the
//!   *opposite* of data flow (Definition 5);
//! * [`paths`] — enumeration of dependency paths and **maximal dependency
//!   paths** (Definitions 6–7), the structures each node learns during
//!   topology discovery;
//! * [`generators`] — the topology families of the paper's experiments
//!   (trees, layered acyclic graphs, cliques) plus chains, rings, stars and
//!   seeded random graphs;
//! * [`separation`] — Definition 10: a node set A is *separated* when no
//!   dependency path from A involves an outside node; with respect to a
//!   change sequence, separation must survive every prefix of the sequence
//!   (the premise of Theorem 3);
//! * [`scc`] — Tarjan strongly-connected components, acyclicity tests and
//!   topological order (needed by the acyclic baseline of Halevy et al.).
//!
//! As the crate every other one builds on, it also carries the workspace's
//! non-cryptographic hasher, [`fxhash`] (the relational data plane and the
//! simulator's pipe table key with it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod generators;
pub mod graph;
pub mod paths;
pub mod scc;
pub mod separation;

pub use generators::{GeneratedTopology, Topology, TopologyError};
pub use graph::{DependencyGraph, NodeId};
pub use paths::{maximal_dependency_paths, PathEnumError};
pub use scc::{condensation, is_acyclic, topological_order, Csr};
pub use separation::{is_separated, is_separated_under_change, GraphChange};
