//! Storage backends: where frames and snapshots physically live.
//!
//! ## On-disk layout of [`FileBackend`]
//!
//! One directory per peer, holding one pair of files named by
//! **generation** `g` (decimal, counted from 1):
//!
//! | snapshot           | log of the frames appended after it |
//! |--------------------|-------------------------------------|
//! | `snapshot-<g>.bin` | `wal-<g>.bin`                       |
//!
//! Frames appended before the first snapshot go to generation 0's log.
//! Frames and snapshots are bytes: whichever codec encoded a payload, the
//! backend frames and checksums it the same way.
//!
//! * **Frame:** `<len: u32 LE> <crc: u32 LE> <frame>` — the CRC-32 covers
//!   the four length bytes and the frame.
//! * **Snapshot trailer:** `<crc: u32 LE>`, the CRC-32 of everything before
//!   it.
//!
//! A **checkpoint** ([`StorageBackend::write_snapshot_bytes`]) writes
//! `snapshot-<g+1>` in full under its fresh name — no rename over a live
//! file — and only then deletes the previous generation's snapshot and log:
//! the frames that log held are covered by the new snapshot. A crash inside
//! the checkpoint leaves either a torn `snapshot-<g+1>` (it fails its
//! trailer, generation `g` still wins) or a complete one next to generation
//! `g`'s files (generation `g+1` wins, the leftovers go at the next
//! checkpoint).
//!
//! [`FileBackend::open`] picks the newest snapshot whose trailer validates
//! and checks that generation's log: a torn or checksum-failing **tail**
//! frame — what a crash mid-append leaves — is cut off, so the log ends at
//! the last acknowledged frame and accepts appends again; a bad frame
//! *followed by more bytes* is damage to acknowledged data and stays a
//! typed [`StorageError::Corrupt`]. Nothing is fsynced: the files survive a
//! process exit, not a power cut.
//!
//! Files of earlier layouts are not read: unnumbered `wal.*`/`snapshot.*`
//! files, and the `.json` snapshots and logs of the retired text family.

use crate::{StorageError, StorageResult};
use std::fmt;
use std::fs::{self, File};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

/// A place to persist WAL frames and snapshots, both opaque bytes.
///
/// The contract recovery relies on:
///
/// * `write_snapshot_bytes` is a **checkpoint**: once it returns,
///   `read_snapshot_bytes` returns that snapshot, and the backend may drop
///   every frame appended before the call (the caller's snapshot covers
///   them);
/// * `read_wal_bytes` returns, in append order, **at least** every frame
///   appended since the newest snapshot — a backend may also return older
///   ones, which recovery replays idempotently.
///
/// A backend returns each frame and snapshot exactly as it was handed in;
/// what encoded them is the [`crate::PeerStorage`]'s business.
pub trait StorageBackend: fmt::Debug + Send {
    /// Appends one WAL frame.
    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()>;
    /// Reads the WAL frames since the newest snapshot, in append order.
    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>>;
    /// Checkpoints: makes `snapshot` the newest one, then drops what it
    /// covers.
    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()>;
    /// Reads the newest snapshot, if one was ever written.
    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>>;

    /// [`StorageBackend::append_wal_bytes`] of the frame's UTF-8 bytes.
    ///
    /// The four text methods are not called by the program: they remain
    /// only because the benchmark harness's `TimedBackend` overrides them
    /// and its `layers.rs` calls `read_wal`, and go together with those
    /// overrides (ROADMAP item 1(b)).
    fn append_wal(&mut self, frame: &str) -> StorageResult<()> {
        self.append_wal_bytes(frame.as_bytes())
    }
    /// [`StorageBackend::read_wal_bytes`], each frame as UTF-8 text.
    fn read_wal(&self) -> StorageResult<Vec<String>> {
        (self.read_wal_bytes()?.into_iter()).map(utf8).collect()
    }
    /// [`StorageBackend::write_snapshot_bytes`] of the snapshot's UTF-8
    /// bytes.
    fn write_snapshot(&mut self, snapshot: &str) -> StorageResult<()> {
        self.write_snapshot_bytes(snapshot.as_bytes())
    }
    /// [`StorageBackend::read_snapshot_bytes`] as UTF-8 text.
    fn read_snapshot(&self) -> StorageResult<Option<String>> {
        self.read_snapshot_bytes()?.map(utf8).transpose()
    }
}

fn utf8(bytes: Vec<u8>) -> StorageResult<String> {
    String::from_utf8(bytes).map_err(|e| StorageError::Corrupt(format!("not UTF-8 text: {e}")))
}

/// Fsync-free in-memory backend — the honest model of durability inside the
/// deterministic simulator, where a "crash" is a state wipe within one
/// process and the disk is whatever survives that wipe.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    wal: Vec<Vec<u8>>,
    snapshot: Option<Vec<u8>>,
}

impl StorageBackend for MemoryBackend {
    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
        self.wal.push(frame.to_vec());
        Ok(())
    }

    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
        Ok(self.wal.clone())
    }

    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        self.snapshot = Some(snapshot.to_vec());
        self.wal.clear();
        Ok(())
    }

    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.snapshot.clone())
    }
}

/// File backend: generation-named, checksummed snapshots and logs inside
/// one directory per peer (layout in the module docs). Keeps one append
/// handle on the log and issues one `write` per frame.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    /// Generation of the newest valid snapshot; 0 before the first one.
    gen: u64,
    /// Highest generation any file name carries, torn snapshots included:
    /// a checkpoint writes `newest + 1`, so a name is never written twice.
    newest: u64,
    /// Append handle on generation `gen`'s log, opened by the first append.
    log: Option<File>,
    /// Bytes of good frames in that log (where a failed append is cut off).
    log_len: u64,
    /// Files of other generations, to delete at the next checkpoint.
    stale: Vec<PathBuf>,
    /// Reused frame buffer.
    buf: Vec<u8>,
}

impl FileBackend {
    /// Opens (creating if needed) the storage directory: finds the newest
    /// snapshot that validates and cuts a torn tail off its log.
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(io)?;
        let mut names = Vec::new();
        for entry in fs::read_dir(&dir).map_err(io)? {
            if let Some(name) = entry.map_err(io)?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        let gens = |stem: &str| -> Vec<u64> {
            let mut gens: Vec<u64> = names.iter().filter_map(|n| generation(n, stem)).collect();
            gens.sort_unstable();
            gens
        };
        let (snapshots, logs) = (gens("snapshot"), gens("wal"));
        let mut backend = FileBackend {
            dir,
            gen: 0,
            newest: snapshots.iter().chain(&logs).copied().max().unwrap_or(0),
            log: None,
            log_len: 0,
            stale: Vec::new(),
            buf: Vec::new(),
        };
        for gen in snapshots.iter().rev() {
            let file = fs::read(backend.snapshot_path(*gen)).map_err(io)?;
            if snapshot_body(&file).is_some() {
                backend.gen = *gen;
                break;
            }
        }
        // A log is created only after its snapshot was written in full, so
        // one without a valid snapshot means the snapshot was damaged later
        // — falling back to an older generation would silently lose data.
        if let Some(orphan) = logs.iter().find(|g| **g > backend.gen) {
            return Err(StorageError::Corrupt(format!(
                "snapshot generation {orphan} does not validate but its log exists"
            )));
        }
        let live = [
            backend.snapshot_path(backend.gen),
            backend.log_path(backend.gen),
        ];
        backend.stale = (snapshots.iter().map(|g| backend.snapshot_path(*g)))
            .chain(logs.iter().map(|g| backend.log_path(*g)))
            .filter(|p| !live.contains(p))
            .collect();

        let [_, path] = live;
        let file = read_or_empty(&path)?;
        let (_, good) = scan(&file)?;
        if good < file.len() {
            let log = fs::OpenOptions::new().write(true).open(&path).map_err(io)?;
            log.set_len(good as u64).map_err(io)?;
        }
        backend.log_len = good as u64;
        Ok(backend)
    }

    fn snapshot_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("snapshot-{gen}.bin"))
    }

    fn log_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("wal-{gen}.bin"))
    }
}

impl StorageBackend for FileBackend {
    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
        self.buf.clear();
        push_frame(frame, &mut self.buf)?;
        let mut log = match self.log.take() {
            Some(log) => log,
            None => (fs::OpenOptions::new().create(true).append(true))
                .open(self.log_path(self.gen))
                .map_err(io)?,
        };
        if let Err(e) = log.write_all(&self.buf) {
            // Cut a partial frame off again (best effort): left in place it
            // would sit in front of every later frame and read as damage.
            // The handle is dropped; the next append opens a fresh one.
            let _ = log.set_len(self.log_len);
            return Err(io(e));
        }
        self.log_len += self.buf.len() as u64;
        self.log = Some(log);
        Ok(())
    }

    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
        let file = read_or_empty(&self.log_path(self.gen))?;
        let (frames, _) = scan(&file)?;
        Ok(frames.into_iter().map(|f| file[f].to_vec()).collect())
    }

    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        let next = self.newest + 1;
        self.newest = next;
        let path = self.snapshot_path(next);
        self.buf.clear();
        self.buf.extend_from_slice(snapshot);
        self.buf
            .extend_from_slice(&crc32(&[snapshot]).to_le_bytes());
        if let Err(e) = fs::write(&path, &self.buf) {
            let _ = fs::remove_file(&path);
            return Err(io(e));
        }
        // The new snapshot is complete: generation `next` is live, and
        // what it covers — the previous snapshot and log — can go. A file
        // that will not delete is retried at the next checkpoint.
        self.stale.push(self.snapshot_path(self.gen));
        self.stale.push(self.log_path(self.gen));
        self.gen = next;
        self.log = None;
        self.log_len = 0;
        self.stale
            .retain(|p| matches!(fs::remove_file(p), Err(e) if e.kind() != ErrorKind::NotFound));
        Ok(())
    }

    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
        if self.gen == 0 {
            return Ok(None);
        }
        let mut file = fs::read(self.snapshot_path(self.gen)).map_err(io)?;
        let Some(body) = snapshot_body(&file) else {
            return Err(StorageError::Corrupt(format!(
                "snapshot generation {} fails its checksum",
                self.gen
            )));
        };
        let len = body.len();
        file.truncate(len);
        Ok(Some(file))
    }
}

fn io(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

/// Reads a whole file; a missing one reads as empty.
fn read_or_empty(path: &Path) -> StorageResult<Vec<u8>> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io(e)),
    }
}

/// The generation in a file name of the form `<stem>-<gen>.bin`.
fn generation(name: &str, stem: &str) -> Option<u64> {
    let digits = name
        .strip_prefix(stem)?
        .strip_prefix('-')?
        .strip_suffix(".bin")?;
    // No sign, no leading zeros: only names this backend writes.
    let canonical = digits.parse::<u64>().ok()?;
    (canonical.to_string() == digits).then_some(canonical)
}

/// Byte range of one frame's payload inside the log file it was read from.
type FrameRange = std::ops::Range<usize>;

/// Appends `<len u32 LE> <crc u32 LE> <payload>` to `out`.
fn push_frame(payload: &[u8], out: &mut Vec<u8>) -> StorageResult<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| StorageError::Io("WAL frame over 4 GiB".to_string()))?
        .to_le_bytes();
    out.extend_from_slice(&len);
    out.extend_from_slice(&crc32(&[&len, payload]).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Walks a log file: the payload ranges of its good frames and the length
/// of the prefix they fill. A bad frame that reaches the end of the file is
/// a torn tail and ends the walk; one with bytes after it is `Corrupt`.
fn scan(file: &[u8]) -> StorageResult<(Vec<FrameRange>, usize)> {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while let Some(header) = file.get(at..at + 8) {
        let (len, crc) = header.split_at(4);
        let size = le_u32(len) as usize;
        let Some(end) = (at + 8).checked_add(size).filter(|e| *e <= file.len()) else {
            break;
        };
        if le_u32(crc) != crc32(&[len, &file[at + 8..end]]) {
            if end < file.len() {
                return Err(StorageError::Corrupt(format!(
                    "WAL frame at byte {at} fails its checksum and is not the last"
                )));
            }
            break;
        }
        frames.push(at + 8..end);
        at = end;
    }
    Ok((frames, at))
}

/// The body of a snapshot file whose trailer validates.
fn snapshot_body(file: &[u8]) -> Option<&[u8]> {
    let (body, trailer) = file.split_at_checked(file.len().checked_sub(4)?)?;
    (le_u32(trailer) == crc32(&[body])).then_some(body)
}

/// CRC-32 (IEEE 802.3, reflected, the zlib/PNG one) over the concatenation
/// of `parts`.
fn crc32(parts: &[&[u8]]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for part in parts {
        for b in *part {
            crc = TABLE[((crc ^ *b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_net::Codec;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "p2p_storage_test_{}_{}_{}",
            tag,
            std::process::id(),
            n
        ))
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// `text` as a store of `codec` would hand it over: a JSON string's
    /// bytes, or its binary encoding.
    fn payload(codec: Codec, text: &str) -> Vec<u8> {
        crate::encode(codec, text, "test payload").unwrap()
    }

    const CODECS: [Codec; 2] = [Codec::Json, Codec::Binary];

    #[test]
    fn crc32_matches_the_reference_check_value() {
        assert_eq!(crc32(&[b"123456789"]), 0xcbf4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xcbf4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn memory_backend_preserves_order_and_snapshot() {
        let mut b = MemoryBackend::default();
        b.append_wal_bytes(b"one").unwrap();
        b.append_wal_bytes(b"two").unwrap();
        assert_eq!(b.read_wal_bytes().unwrap(), [b"one", b"two"]);
        assert_eq!(b.read_snapshot_bytes().unwrap(), None);
        b.write_snapshot_bytes(b"snap1").unwrap();
        assert!(
            b.read_wal_bytes().unwrap().is_empty(),
            "a checkpoint drops the log"
        );
        b.append_wal_bytes(b"three").unwrap();
        b.write_snapshot_bytes(b"snap2").unwrap();
        assert_eq!(b.read_snapshot_bytes().unwrap().unwrap(), b"snap2");
    }

    #[test]
    fn file_backend_roundtrips_across_reopen() {
        for codec in CODECS {
            let dir = temp_dir("reopen");
            let [k0, k1, k2, k3, snap] =
                ["k0", "k1", "k2", "k3", "snap"].map(|t| payload(codec, t));
            {
                let mut b = FileBackend::open(&dir).unwrap();
                b.append_wal_bytes(&k0).unwrap();
                b.write_snapshot_bytes(&snap).unwrap();
                b.append_wal_bytes(&k1).unwrap();
                b.append_wal_bytes(&k2).unwrap();
            }
            // A fresh handle (the "restarted process") sees the snapshot and
            // the frames after it, and keeps appending to the same log.
            let mut b = FileBackend::open(&dir).unwrap();
            assert_eq!(b.read_wal_bytes().unwrap(), [k1, k2], "{codec}");
            assert_eq!(b.read_snapshot_bytes().unwrap(), Some(snap), "{codec}");
            b.append_wal_bytes(&k3).unwrap();
            assert_eq!(b.read_wal_bytes().unwrap().len(), 3, "{codec}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn memory_backend_byte_frames_roundtrip() {
        let mut b = MemoryBackend::default();
        b.append_wal_bytes(&[0x00, 0xff, 0x01]).unwrap();
        b.append_wal_bytes(&[]).unwrap();
        assert_eq!(
            b.read_wal_bytes().unwrap(),
            vec![vec![0x00, 0xff, 0x01], vec![]]
        );
        assert_eq!(b.read_snapshot_bytes().unwrap(), None);
        b.write_snapshot_bytes(&[7, 8]).unwrap();
        assert_eq!(b.read_snapshot_bytes().unwrap(), Some(vec![7, 8]));
        assert!(b.read_wal_bytes().unwrap().is_empty());
    }

    #[test]
    fn file_backend_byte_frames_roundtrip_across_reopen() {
        let dir = temp_dir("bytes");
        {
            let mut b = FileBackend::open(&dir).unwrap();
            b.write_snapshot_bytes(&[1, 2, 3]).unwrap();
            // Frames may contain newlines and NULs — length prefixes, not
            // line delimiters, separate them.
            b.append_wal_bytes(b"alpha\n\x00beta").unwrap();
            b.append_wal_bytes(&[]).unwrap();
            b.append_wal_bytes(&[0xde, 0xad]).unwrap();
        }
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(
            b.read_wal_bytes().unwrap(),
            vec![b"alpha\n\x00beta".to_vec(), Vec::new(), vec![0xde, 0xad]]
        );
        assert_eq!(b.read_snapshot_bytes().unwrap(), Some(vec![1, 2, 3]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint leaves exactly one snapshot and (after the next append)
    /// one log, under the new generation's names, framed the same whichever
    /// codec encoded the payloads.
    #[test]
    fn checkpoint_replaces_the_previous_generation() {
        for codec in CODECS {
            let dir = temp_dir("gens");
            let [before, one, after, two, later] =
                ["before", "one", "after", "two", "later"].map(|t| payload(codec, t));
            let mut b = FileBackend::open(&dir).unwrap();
            b.append_wal_bytes(&before).unwrap();
            assert_eq!(file_names(&dir), ["wal-0.bin"]);
            b.write_snapshot_bytes(&one).unwrap();
            assert_eq!(file_names(&dir), ["snapshot-1.bin"]);
            b.append_wal_bytes(&after).unwrap();
            b.write_snapshot_bytes(&two).unwrap();
            b.append_wal_bytes(&later).unwrap();
            assert_eq!(file_names(&dir), ["snapshot-2.bin", "wal-2.bin"]);
            let len = (later.len() as u32).to_le_bytes();
            let framed = [&len[..], &crc32(&[&len, &later]).to_le_bytes(), &later].concat();
            assert_eq!(fs::read(dir.join("wal-2.bin")).unwrap(), framed, "{codec}");
            let trailed = [&two[..], &crc32(&[&two]).to_le_bytes()].concat();
            assert_eq!(fs::read(dir.join("snapshot-2.bin")).unwrap(), trailed);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The crash window of a checkpoint: the new snapshot is complete, the
    /// previous generation's files are still there. The new generation
    /// wins, the leftovers are ignored and go at the next checkpoint.
    #[test]
    fn complete_new_snapshot_beside_the_old_generation_wins() {
        for codec in CODECS {
            let dir = temp_dir("window");
            let [old, covered, new, fresh, newer] =
                ["old", "covered", "new", "fresh", "newer"].map(|t| payload(codec, t));
            {
                let mut b = FileBackend::open(&dir).unwrap();
                b.write_snapshot_bytes(&old).unwrap();
                b.append_wal_bytes(&covered).unwrap();
            }
            let file = [&new[..], &crc32(&[&new]).to_le_bytes()].concat();
            fs::write(dir.join("snapshot-2.bin"), file).unwrap();

            let mut b = FileBackend::open(&dir).unwrap();
            assert_eq!(b.read_snapshot_bytes().unwrap(), Some(new), "{codec}");
            assert!(b.read_wal_bytes().unwrap().is_empty());
            b.append_wal_bytes(&fresh).unwrap();
            b.write_snapshot_bytes(&newer).unwrap();
            assert_eq!(file_names(&dir), ["snapshot-3.bin"]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A snapshot torn mid-write fails its trailer: the previous generation
    /// still wins, and the torn name is never written again.
    #[test]
    fn torn_snapshot_falls_back_to_the_previous_generation() {
        let dir = temp_dir("torn_snap");
        {
            let mut b = FileBackend::open(&dir).unwrap();
            b.write_snapshot_bytes(b"old state").unwrap();
            b.append_wal_bytes(b"frame").unwrap();
        }
        fs::write(dir.join("snapshot-2.bin"), b"new sta").unwrap();
        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.read_snapshot_bytes().unwrap().unwrap(), b"old state");
        assert_eq!(b.read_wal_bytes().unwrap(), vec![b"frame".to_vec()]);
        b.write_snapshot_bytes(b"newer").unwrap();
        assert_eq!(file_names(&dir), ["snapshot-3.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a crash mid-append leaves — a frame cut short at any byte, or
    /// failing its checksum at the very end — is cut off at open; the same
    /// damage with acknowledged frames behind it is a typed error.
    #[test]
    fn file_backend_cuts_a_torn_tail_and_rejects_interior_damage() {
        for codec in CODECS {
            let dir = temp_dir("tail");
            let log = dir.join("wal-0.bin");
            let (first, second) = (payload(codec, "first"), payload(codec, "second"));
            let mut good = Vec::new();
            push_frame(&first, &mut good).unwrap();
            let first_len = good.len();
            push_frame(&second, &mut good).unwrap();
            fs::create_dir_all(&dir).unwrap();
            let frames = |b: &FileBackend| b.read_wal_bytes().map(|f| f.len());

            // Torn: the second frame cut at every byte short of whole.
            for cut in first_len..good.len() {
                fs::write(&log, &good[..cut]).unwrap();
                let mut b = FileBackend::open(&dir).unwrap();
                assert_eq!(frames(&b).unwrap(), 1, "{codec}, cut at {cut}");
                assert_eq!(fs::metadata(&log).unwrap().len(), first_len as u64);
                b.append_wal_bytes(&payload(codec, "third")).unwrap();
                assert_eq!(frames(&b).unwrap(), 2, "{codec}, cut at {cut}");
            }

            // Checksum failure in the last frame: also a tail.
            let mut flipped = good.clone();
            *flipped.last_mut().unwrap() ^= 0x01;
            fs::write(&log, &flipped).unwrap();
            assert_eq!(frames(&FileBackend::open(&dir).unwrap()).unwrap(), 1);

            // The same flip in the first frame, a good one behind it.
            let mut damaged = good.clone();
            damaged[first_len - 1] ^= 0x01;
            fs::write(&log, &damaged).unwrap();
            assert!(matches!(
                FileBackend::open(&dir),
                Err(StorageError::Corrupt(_))
            ));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A log whose snapshot no longer validates is damage, not a torn
    /// write: falling back to nothing would silently lose the log's facts.
    #[test]
    fn log_without_a_valid_snapshot_is_corrupt() {
        let dir = temp_dir("orphan");
        {
            let mut b = FileBackend::open(&dir).unwrap();
            b.write_snapshot_bytes(b"state").unwrap();
            b.append_wal_bytes(b"frame").unwrap();
        }
        fs::write(dir.join("snapshot-1.bin"), "stat").unwrap();
        assert!(matches!(
            FileBackend::open(&dir),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backend_empty_dir_reads_empty() {
        let dir = temp_dir("empty");
        let b = FileBackend::open(&dir).unwrap();
        assert!(b.read_wal_bytes().unwrap().is_empty());
        assert_eq!(b.read_snapshot_bytes().unwrap(), None);
        assert!(file_names(&dir).is_empty(), "reading creates nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Files in the layouts of earlier releases — unnumbered, or the text
    /// family's generation-named ones with valid checksums — are neither
    /// read nor touched, beside a byte store or in place of one.
    #[test]
    fn earlier_layout_is_ignored() {
        let dir = temp_dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        let earlier = [
            ("wal.jsonl", "{\"old\":1}\n".to_string()),
            ("snapshot.json", "old".to_string()),
            (
                "snapshot-2.json",
                format!("text\n{:08x}\n", crc32(&[b"text"])),
            ),
            ("wal-2.jsonl", format!("{:08x} frame\n", crc32(&[b"frame"]))),
        ];
        for (name, text) in &earlier {
            fs::write(dir.join(name), text).unwrap();
        }
        let mut b = FileBackend::open(&dir).unwrap();
        assert!(b.read_wal_bytes().unwrap().is_empty());
        assert_eq!(b.read_snapshot_bytes().unwrap(), None);
        b.write_snapshot_bytes(b"new").unwrap();
        b.append_wal_bytes(b"logged").unwrap();
        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.read_snapshot_bytes().unwrap().unwrap(), b"new");
        assert_eq!(b.read_wal_bytes().unwrap(), [b"logged"]);
        b.write_snapshot_bytes(b"newer").unwrap();
        assert_eq!(
            file_names(&dir),
            [
                "snapshot-2.bin",
                "snapshot-2.json",
                "snapshot.json",
                "wal-2.jsonl",
                "wal.jsonl"
            ]
        );
        for (name, text) in &earlier {
            assert_eq!(&fs::read_to_string(dir.join(name)).unwrap(), text);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
