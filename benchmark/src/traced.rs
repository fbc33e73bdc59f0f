//! The wrappers of the traced pass: [`TracedPeer`] around `DbPeer` and
//! [`TimedBackend`] around `FileBackend`. Both are pure pass-throughs that
//! open a [`crate::trace`] span around each call into the wrapped layer, so
//! the program under test is measured from outside, through its public
//! functions. The untimed pass hosts bare `DbPeer`s on bare `FileBackend`s
//! ([`Host`] selects which), so end-to-end numbers never pay for a wrapper.

use crate::trace;
use p2p_core::peer::DbPeer;
use p2p_core::ProtocolMsg;
use p2p_net::{Context, Peer, Wire};
use p2p_storage::{FileBackend, StorageBackend, StorageResult};
use p2p_topology::NodeId;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// How a workload hosts its peers: bare (timed pass) or wrapped (traced
/// pass). The drivers are generic over this, so both passes run one code
/// path.
pub trait Host: Peer<ProtocolMsg> + 'static {
    /// Whether this host records spans: the drivers switch the tracer on
    /// around the timed loop only for a traced host.
    const TRACED: bool;
    /// Takes ownership of a freshly built peer.
    fn host(peer: DbPeer) -> Self;
    /// The wrapped peer.
    fn db(&self) -> &DbPeer;
    /// The wrapped peer, mutably (base-fact inserts, storage attachment).
    fn db_mut(&mut self) -> &mut DbPeer;
    /// Opens the on-disk backend of one durable peer.
    fn backend(dir: &Path) -> StorageResult<Box<dyn StorageBackend>>;
}

impl Host for DbPeer {
    const TRACED: bool = false;
    fn host(peer: DbPeer) -> Self {
        peer
    }
    fn db(&self) -> &DbPeer {
        self
    }
    fn db_mut(&mut self) -> &mut DbPeer {
        self
    }
    fn backend(dir: &Path) -> StorageResult<Box<dyn StorageBackend>> {
        Ok(Box::new(FileBackend::open(dir)?))
    }
}

// Relaxed throughout: a flag and counters that publish no other data.
static CAPTURING: AtomicBool = AtomicBool::new(false);
static CAPTURED: Mutex<Vec<ProtocolMsg>> = Mutex::new(Vec::new());

/// Starts or stops copying delivered messages for the codec and transport
/// replays. The drivers switch it on for a sample of sessions only: copying
/// every message of every session would dominate the traced pass.
pub fn set_capturing(on: bool) {
    CAPTURING.store(on, Ordering::Relaxed);
}

/// Takes the messages captured so far.
pub fn take_captured() -> Vec<ProtocolMsg> {
    std::mem::take(&mut *CAPTURED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// `DbPeer` with one span per `on_envelope`, named after `Wire::kind()` and
/// tagged with the node and `Wire::session()`.
pub struct TracedPeer {
    inner: DbPeer,
}

impl Host for TracedPeer {
    const TRACED: bool = true;
    fn host(peer: DbPeer) -> Self {
        TracedPeer { inner: peer }
    }
    fn db(&self) -> &DbPeer {
        &self.inner
    }
    fn db_mut(&mut self) -> &mut DbPeer {
        &mut self.inner
    }
    fn backend(dir: &Path) -> StorageResult<Box<dyn StorageBackend>> {
        Ok(Box::new(TimedBackend {
            inner: FileBackend::open(dir)?,
        }))
    }
}

impl Peer<ProtocolMsg> for TracedPeer {
    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg, ctx: &mut Context<ProtocolMsg>) {
        self.inner.on_message(from, msg, ctx);
    }

    fn on_envelope(
        &mut self,
        from: NodeId,
        msg_id: u64,
        msg: ProtocolMsg,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        if CAPTURING.load(Ordering::Relaxed) {
            CAPTURED
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(msg.clone());
        }
        let session = msg.session().map_or(0, |s| s.epoch);
        let _span = trace::span(msg.kind(), self.inner.id().0, session);
        self.inner.on_envelope(from, msg_id, msg, ctx);
    }

    fn on_crash(&mut self) {
        let _span = trace::span("crash", self.inner.id().0, 0);
        self.inner.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<ProtocolMsg>) {
        let _span = trace::span("restart", self.inner.id().0, 0);
        self.inner.on_restart(ctx);
    }
}

static WAL_BYTES: AtomicU64 = AtomicU64::new(0);
static SNAPSHOT_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes handed to `append_wal*` and `write_snapshot*` since the last call.
pub fn take_storage_bytes() -> (u64, u64) {
    (
        WAL_BYTES.swap(0, Ordering::Relaxed),
        SNAPSHOT_BYTES.swap(0, Ordering::Relaxed),
    )
}

/// `FileBackend` with one span per call and byte counters on the writes.
#[derive(Debug)]
pub struct TimedBackend {
    inner: FileBackend,
}

impl StorageBackend for TimedBackend {
    fn append_wal(&mut self, frame: &str) -> StorageResult<()> {
        let _span = trace::span("wal_append", u32::MAX, 0);
        // +1: the newline `FileBackend` terminates each frame with.
        WAL_BYTES.fetch_add(frame.len() as u64 + 1, Ordering::Relaxed);
        self.inner.append_wal(frame)
    }
    fn read_wal(&self) -> StorageResult<Vec<String>> {
        let _span = trace::span("wal_read", u32::MAX, 0);
        self.inner.read_wal()
    }
    fn write_snapshot(&mut self, snapshot: &str) -> StorageResult<()> {
        let _span = trace::span("snapshot", u32::MAX, 0);
        SNAPSHOT_BYTES.fetch_add(snapshot.len() as u64, Ordering::Relaxed);
        self.inner.write_snapshot(snapshot)
    }
    fn read_snapshot(&self) -> StorageResult<Option<String>> {
        let _span = trace::span("snapshot_read", u32::MAX, 0);
        self.inner.read_snapshot()
    }
    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
        let _span = trace::span("wal_append", u32::MAX, 0);
        // +4: the length prefix `FileBackend` writes before each frame.
        WAL_BYTES.fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
        self.inner.append_wal_bytes(frame)
    }
    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
        let _span = trace::span("wal_read", u32::MAX, 0);
        self.inner.read_wal_bytes()
    }
    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        let _span = trace::span("snapshot", u32::MAX, 0);
        SNAPSHOT_BYTES.fetch_add(snapshot.len() as u64, Ordering::Relaxed);
        self.inner.write_snapshot_bytes(snapshot)
    }
    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
        let _span = trace::span("snapshot_read", u32::MAX, 0);
        self.inner.read_snapshot_bytes()
    }
}
