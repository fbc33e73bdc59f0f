//! # p2p-storage
//!
//! Durable peer state for the P2P database network. Everything a peer
//! derives during an update session lives in memory; this crate is what
//! survives a process crash — a **checkpointed log**:
//!
//! * an append-only **write-ahead log** of four record kinds
//!   ([`WalRecord`]): `Insert`, every fact insertion the update algorithm
//!   applies; `Answer`, a mark for every fragment answer the peer processed
//!   as a rule's head (the answerer's database watermarks — the resync
//!   cursor — and, for rules that join several fragments, the rows);
//!   `ForgetRule`, the rule was replaced or deleted and its marks with it;
//!   `Cursor`, a subscription the peer serves as a body node moved —
//!   started from scratch, advanced by a session that retired, dropped —
//!   with the fragment it serves riding as an opaque document in a key's
//!   first record only (this crate knows `p2p_core`'s rule fragments no
//!   better than its rule ids). The records one delivery made are **one
//!   frame** ([`WalFrame`], written by [`PeerStorage::commit`]) with one
//!   first-use symbol dictionary, so a torn tail loses a whole delivery or
//!   nothing;
//! * **snapshots** ([`DatabaseSnapshot`]) of the database, the chase
//!   bookkeeping, the answer log folded to one mark per fragment
//!   ([`FragmentMark`]: the watermarks the log folds to, and the rows the
//!   owner holds of the fragment, which it hands to
//!   [`PeerStorage::snapshot`] — the running store keeps no copy) and the
//!   cursor log folded to one cursor per subscription served
//!   ([`CursorMark`], with its fragment). Writing one is
//!   a *checkpoint*: the backend then drops the frames it covers, so what a
//!   peer holds and what a recovery replays follow the size of its state,
//!   not the length of its history;
//! * a [`PeerStorage::recover`] path that replays the frames since the
//!   newest snapshot onto it and returns a [`RecoveredState`]
//!   tuple-identical to the pre-crash database, with the null mint, chase
//!   depths, fragment marks and cursors restored — both ends of every
//!   subscription, so a restart resumes them instead of starting over.
//!
//! ## Cadence
//!
//! [`PeerStorage::commit`] reports a checkpoint as due once `snapshot_every`
//! records *and* as many frame bytes as the last snapshot took have been
//! appended; the owner takes it right after the commit, never inside a
//! delivery. Rewriting the state is thus paid for by as much log as it
//! replaces: bytes written stay within ~2× the bytes logged, bytes held
//! within 2× the newest snapshot plus one frame, and a recovery reads at
//! most that — with no setting to tune as the database grows.
//!
//! ## Backends and their contract
//!
//! Two interchangeable [`StorageBackend`]s exist: an fsync-free
//! [`MemoryBackend`] for the deterministic simulator (a crash there is a
//! state wipe inside one process, so an in-memory "disk" is the honest
//! model), and a [`FileBackend`] for runs that must survive a real process
//! exit. A backend stores bytes: the store's codec encodes every frame's and
//! snapshot's payload (JSON text or [`binpack`]), and a store reopened
//! under the other codec fails to decode them, a typed
//! [`StorageError::Corrupt`]. The contract: `write_snapshot_bytes` is a
//! checkpoint (afterwards `read_snapshot_bytes` returns that snapshot, and
//! the backend may drop every earlier frame); `read_wal_bytes` returns at
//! least every frame appended since the newest snapshot, in order.
//!
//! [`FileBackend`]'s on-disk layout — generation-named `snapshot-<g>.bin` /
//! `wal-<g>.bin` files, a length and a CRC-32 before every frame and a
//! checksum trailer after every snapshot, what is deleted when, how a torn
//! tail is cut off at open — is specified in the `backend` module docs.
//! Files of earlier layouts are not read; a log of one-record frames is
//! refused as corrupt.
//!
//! ## Recovery invariant
//!
//! Replay is **idempotent**: re-inserting a tuple that is already present
//! is a no-op at the relation layer, null counters, chase depths and
//! fragment watermarks merge by maximum, fragment rows deduplicate in their
//! mark's row set, and a
//! cursor or a forgotten rule is whatever the newest record says. So
//! frames older than the snapshot — which a backend may hand back, and
//! which a crash between writing a snapshot and dropping its frames leaves
//! behind — change nothing once they are replayed through (a checkpoint
//! drops the frames it covers all at once, so they always are), and no
//! position bookkeeping ties a snapshot to a place in the log. The
//! restarted peer resyncs from the recovered watermarks, so only facts
//! inserted at the answerer *after the last durably-processed answer* ever
//! cross the wire again.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod backend;
pub(crate) mod store;
pub(crate) mod wal;

pub use backend::{FileBackend, MemoryBackend, StorageBackend};
pub use store::{CursorMark, DatabaseSnapshot, FragmentMark, PeerStorage, RecoveredState};
pub use wal::{WalFrame, WalRecord};

use p2p_net::Codec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors of the persistence layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An I/O failure of the file backend.
    Io(String),
    /// A frame or snapshot failed its checksum (other than a torn tail,
    /// which is cut off) or failed to parse back.
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt(e) => write!(f, "corrupt storage: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Result alias for the persistence layer.
pub type StorageResult<T> = Result<T, StorageError>;

/// `value` encoded under `codec`: the payload of a frame or a snapshot.
fn encode<T: Serialize + ?Sized>(codec: Codec, value: &T, what: &str) -> StorageResult<Vec<u8>> {
    let bytes = match codec {
        Codec::Json => serde_json::to_string(value)
            .map(String::into_bytes)
            .map_err(|e| e.to_string()),
        Codec::Binary => binpack::to_bytes(value).map_err(|e| e.to_string()),
    };
    bytes.map_err(|e| StorageError::Corrupt(format!("{what} encode: {e}")))
}

/// A payload [`encode`] wrote under `codec`; one written under the other
/// codec fails.
fn decode<T: Deserialize>(codec: Codec, bytes: &[u8], what: &str) -> StorageResult<T> {
    let value = match codec {
        Codec::Json => std::str::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string())),
        Codec::Binary => binpack::from_bytes(bytes).map_err(|e| e.to_string()),
    };
    value.map_err(|e| StorageError::Corrupt(format!("{what} decode: {e}")))
}
