//! # p2p-net
//!
//! The messaging substrate for the P2P database network — our substitute for
//! the JXTA layer the paper's prototype was built on (Section 5). JXTA gave
//! the authors peer naming, reliable pipes, message envelopes and resource
//! discovery; this crate provides the same capabilities as a library, in two
//! interchangeable runtimes on one peer host.
//!
//! `host` owns what the runtimes share: [`Peer`] and its [`Context`], the
//! peer table, the once-per-payload [`PayloadMemo`] (which the socket
//! runtime of `p2p_transport` encodes frames through too), and the send and
//! delivery steps that size and count every message. A runtime adds only
//! how it schedules deliveries:
//!
//! * [`sim::Simulator`] — a **deterministic discrete-event simulator**:
//!   one event heap ordered by `(time, sequence)`, FIFO exactly-once
//!   pipes, seeded latency models, fault injection (drops, link outages),
//!   scheduled peer churn (crash/restart with
//!   [`Peer::on_crash`]/[`Peer::on_restart`] hooks) and quiescence
//!   detection. Virtual time makes the paper's "execution time" metric
//!   reproducible, which the original testbed could not be.
//! * [`sharded::ShardedNetwork`] — the parallel runtime: the simulator's
//!   delivery loop on `T` shard threads. Each owns `n/T` peers and pops
//!   deliveries from one FIFO queue, every send goes to the back of the
//!   receiver's shard queue, and quiescence is an outstanding-message
//!   counter shared as a barrier. It runs the *same* [`Peer`] code, giving
//!   the asynchronous execution model of the paper on actual parallelism,
//!   at 10k+ peers on all cores.
//!
//! Protocol crates implement [`Peer`] and never talk to a runtime directly;
//! everything observable (message counts, bytes, traces) flows through
//! [`stats::NetStats`] and [`trace::Trace`] — the paper's "statistical
//! module".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod churn;
pub mod codec;
pub mod fault;
pub(crate) mod host;
pub(crate) mod latency;
pub(crate) mod message;
pub(crate) mod session;
pub(crate) mod sharded;
pub(crate) mod sim;
pub(crate) mod stats;
pub(crate) mod trace;

pub use churn::{ChurnPlan, CrashEvent};
pub use codec::Codec;
pub use fault::FaultPlan;
pub use host::{Context, Outgoing, PayloadMemo, Peer};
pub use latency::{ConstantLatency, LatencyModel, UniformLatency};
pub use message::{encoded_wire_size, SimTime, Wire};
pub use session::SessionId;
pub use sharded::{ShardPlacement, ShardedNetwork, WorkerPanic};
pub use sim::{RunOutcome, Simulator};
pub use stats::{NetStats, NodeNetStats, SessionNetStats};
pub use trace::{Trace, TraceEntry};
