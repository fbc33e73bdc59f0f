//! Transport counters: the socket-level equivalent of `p2p_net::NetStats`.
//!
//! The live cells are atomics shared across the acceptor, reader and loop
//! threads; `StatCells::snapshot` materialises them into the
//! serializable [`TransportStats`] the control plane ships to the cluster
//! launcher.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of one node's transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Protocol frames written to pipes (excludes handshakes and control).
    pub frames_sent: u64,
    /// Payload bytes written to pipes (excludes the 4-byte headers).
    pub bytes_sent: u64,
    /// Protocol frames received on pipes.
    pub frames_received: u64,
    /// Payload bytes received on pipes.
    pub bytes_received: u64,
    /// Outgoing pipe connections successfully established (first + re-).
    pub connects: u64,
    /// Subset of `connects` that replaced a previously working pipe.
    pub reconnects: u64,
    /// Inbound connections that passed the handshake.
    pub accepts: u64,
    /// Inbound connections refused by the handshake.
    pub rejects: u64,
    /// Inbound pipes that reached clean EOF.
    pub pipes_closed: u64,
}

impl TransportStats {
    /// Accumulates another node's counters (cluster-wide totals).
    pub fn merge(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.bytes_sent += other.bytes_sent;
        self.frames_received += other.frames_received;
        self.bytes_received += other.bytes_received;
        self.connects += other.connects;
        self.reconnects += other.reconnects;
        self.accepts += other.accepts;
        self.rejects += other.rejects;
        self.pipes_closed += other.pipes_closed;
    }
}

/// Shared live counters.
#[derive(Debug, Default)]
pub(crate) struct StatCells {
    pub frames_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub frames_received: AtomicU64,
    pub bytes_received: AtomicU64,
    pub connects: AtomicU64,
    pub reconnects: AtomicU64,
    pub accepts: AtomicU64,
    pub rejects: AtomicU64,
    pub pipes_closed: AtomicU64,
}

impl StatCells {
    pub(crate) fn snapshot(&self) -> TransportStats {
        TransportStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            pipes_closed: self.pipes_closed.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(cell: &AtomicU64, n: u64) {
        cell.fetch_add(n, Ordering::Relaxed);
    }
}
