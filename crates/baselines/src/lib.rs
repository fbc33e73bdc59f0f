//! # p2p-baselines
//!
//! The two comparator algorithms from the paper's related-work discussion,
//! implemented over the same substrates so their costs are directly
//! comparable with the distributed update:
//!
//! * `centralized` — the *global* algorithm in the style of Calvanese et
//!   al. 2003 ("describes only a global algorithm, that assumes a central
//!   node where all computation is performed"): every node ships its whole
//!   database to the super-peer, the super-peer computes the fix-point
//!   centrally, then ships every node its result. Correct on any topology,
//!   but concentrates all bytes and all computation at one node.
//! * `acyclic` — a single-pass wave in the style of Halevy et al. 2003
//!   ("an algorithm for acyclic P2P systems … the acyclic case is
//!   relatively simple — a query is propagated through the network until it
//!   reaches the leaves"): process nodes in reverse dependency order,
//!   evaluating each rule exactly once. Only sound-and-complete on acyclic
//!   dependency graphs; it refuses cyclic ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod acyclic;
pub(crate) mod centralized;

pub use acyclic::{acyclic_update, AcyclicError, AcyclicReport};
pub use centralized::{centralized_update, CentralizedReport};
