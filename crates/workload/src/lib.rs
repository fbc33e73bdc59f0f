//! # p2p-workload
//!
//! Synthetic DBLP-like workload generation reproducing the setup of the
//! paper's preliminary experiments (Section 5):
//!
//! > "Up to 31 nodes participated … The local relational databases are based
//! > on DBLP data and contained about 20000 records about publications
//! > (about 1000 per node), organised in 3 different relational schemas. We
//! > considered two different data distributions. In the first one there is
//! > no intersection between initial data in neighbor nodes. In the second,
//! > there is 50% probability of intersection between initial data in nodes
//! > linked by coordination rules … Three types of topologies have been
//! > considered: trees, layered acyclic graphs, and cliques."
//!
//! We cannot redistribute the DBLP dump, so [`dblp::DblpGenerator`]
//! synthesises publications (seeded pools of author names, venues, title
//! words) with the same record counts and the same three-schema
//! organisation. The experiments measure record counts, overlap and the
//! schema mappings between nodes, never the text of a record, so synthetic
//! values preserve what they measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod build;
pub(crate) mod concurrent;
pub(crate) mod dblp;
pub mod distribute;
pub(crate) mod scale;
pub(crate) mod schemas;

pub use build::{build_system, WorkloadConfig};
pub use concurrent::{
    concurrent_scenario, pick_writer_indices, ConcurrentConfig, ConcurrentScenario, WriterDelta,
};
pub use dblp::{DblpGenerator, Publication};
pub use distribute::Distribution;
pub use scale::{expected_total_tuples, scale_system, ScaleConfig};
pub use schemas::SchemaFamily;
