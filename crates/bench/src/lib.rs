//! # p2p-bench
//!
//! Harness reproducing every table and figure of the paper's evaluation.
//! The [`experiments`] module contains one function per experiment; the
//! `repro` binary prints them all; the Criterion benches under `benches/`
//! time the same functions. End-to-end and per-layer performance is the
//! repo benchmark's job (`BENCHMARK.json`, `benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::{RunPoint, Scale};
pub use table::{linear_fit, Table};
