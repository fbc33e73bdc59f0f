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
//!   ([`FragmentMark`], whose rows are one `p2p_relational::RowSet`: the
//!   fold's only copy, membership included) and the cursor log folded to one cursor per
//!   subscription served ([`CursorMark`], with its fragment). Writing one is
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
//! exit. The contract, as it now stands: `write_snapshot*` is a checkpoint
//! (afterwards `read_snapshot*` returns that snapshot, and the backend may
//! drop every earlier frame); `read_wal*` returns at least every frame
//! appended since the newest snapshot, in order.
//!
//! [`FileBackend`]'s on-disk layout — generation-named `snapshot-<g>` /
//! `wal-<g>` files, a CRC-32 on every frame and a checksum trailer on every
//! snapshot, what is deleted when, how a torn tail is cut off at open — is
//! specified in the [`backend`] module docs. Directories written in the
//! earlier `wal.jsonl`/`snapshot.json` layout are not read; a log of
//! one-record frames is refused as corrupt.
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

pub mod backend;
pub mod store;
pub mod wal;

pub use backend::{FileBackend, MemoryBackend, StorageBackend};
pub use store::{CursorMark, DatabaseSnapshot, FragmentMark, PeerStorage, RecoveredState};
pub use wal::{WalFrame, WalRecord};

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
