//! # p2p-bench
//!
//! Harness reproducing every table and figure of the paper's evaluation.
//! The [`experiments`] module holds one module per experiment and the
//! registry both the `repro` binary and the tier-1 golden test render
//! through; `REPRO.txt` at the repo root is the `--quick` report. End-to-end
//! and per-layer performance is the repo benchmark's job (`BENCHMARK.json`,
//! `benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::{report, Scale, EXPERIMENTS};
pub use table::{linear_fit, Table};
