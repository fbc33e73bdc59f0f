//! Storage backends: where frames and snapshots physically live.
//!
//! ## On-disk layout of [`FileBackend`]
//!
//! One directory per peer. Each frame family has its own pair of files,
//! named by **generation** `g` (decimal, counted per family from 1):
//!
//! | family | snapshot            | log of the frames appended after it |
//! |--------|---------------------|-------------------------------------|
//! | text   | `snapshot-<g>.json` | `wal-<g>.jsonl`                     |
//! | bytes  | `snapshot-<g>.bin`  | `wal-<g>.bin`                       |
//!
//! Frames appended before the first snapshot go to generation 0's log.
//!
//! * **Text frame:** `<crc> <frame>\n` — eight lowercase hex digits of the
//!   CRC-32 of the frame, a space, the frame, a newline.
//! * **Byte frame:** `<len: u32 LE> <crc: u32 LE> <frame>` — the CRC-32
//!   covers the four length bytes and the frame.
//! * **Snapshot trailer:** text snapshots end in `\n<crc>\n` (eight hex
//!   digits), byte snapshots in `<crc: u32 LE>`; the CRC-32 covers
//!   everything before the trailer.
//!
//! A **checkpoint** (`write_snapshot*`) writes `snapshot-<g+1>` in full under
//! its fresh name — no rename over a live file — and only then deletes the
//! previous generation's snapshot and log: the frames that log held are
//! covered by the new snapshot. A crash inside the checkpoint leaves either
//! a torn `snapshot-<g+1>` (it fails its trailer, generation `g` still
//! wins) or a complete one next to generation `g`'s files (generation
//! `g+1` wins, the leftovers go at the next checkpoint).
//!
//! [`FileBackend::open`] picks the newest snapshot whose trailer validates
//! and checks that generation's log: a torn or checksum-failing **tail**
//! frame — what a crash mid-append leaves — is cut off, so the log ends at
//! the last acknowledged frame and accepts appends again; a bad frame
//! *followed by more bytes* is damage to acknowledged data and stays a
//! typed [`StorageError::Corrupt`]. Nothing is fsynced: the files survive a
//! process exit, not a power cut.
//!
//! Directories in the earlier `wal.jsonl`/`snapshot.json`(`.bin`) layout
//! are not read; their files are ignored.

use crate::{StorageError, StorageResult};
use std::fmt;
use std::fs::{self, File};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

/// A place to persist WAL frames and snapshots.
///
/// The contract recovery relies on:
///
/// * `write_snapshot*` is a **checkpoint**: once it returns, `read_snapshot*`
///   returns that snapshot, and the backend may drop every frame appended
///   before the call (the caller's snapshot covers them);
/// * `read_wal*` returns, in append order, **at least** every frame
///   appended since the newest snapshot — a backend may also return older
///   ones, which recovery replays idempotently.
///
/// Frames come in two shapes, matching the two wire codecs: text frames
/// (JSON, the `*_wal`/`*_snapshot` methods) and byte frames (the binary
/// codec, the `*_bytes` methods). A store uses exactly one family — the
/// codec is fixed when the [`crate::PeerStorage`] is built — so backends
/// keep the two logs physically separate and never mix them.
pub trait StorageBackend: fmt::Debug + Send {
    /// Appends one serialized WAL frame.
    fn append_wal(&mut self, frame: &str) -> StorageResult<()>;
    /// Reads the WAL frames since the newest snapshot, in append order.
    fn read_wal(&self) -> StorageResult<Vec<String>>;
    /// Checkpoints: makes `snapshot` the newest one, then drops what it
    /// covers.
    fn write_snapshot(&mut self, snapshot: &str) -> StorageResult<()>;
    /// Reads the newest snapshot, if one was ever written.
    fn read_snapshot(&self) -> StorageResult<Option<String>>;
    /// Appends one binary WAL frame.
    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()>;
    /// Reads the binary WAL frames since the newest snapshot, in append
    /// order.
    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>>;
    /// Checkpoints the binary family.
    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()>;
    /// Reads the newest binary snapshot, if one was ever written.
    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>>;
}

/// Fsync-free in-memory backend — the honest model of durability inside the
/// deterministic simulator, where a "crash" is a state wipe within one
/// process and the disk is whatever survives that wipe.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    wal: Vec<String>,
    snapshot: Option<String>,
    wal_bin: Vec<Vec<u8>>,
    snapshot_bin: Option<Vec<u8>>,
}

impl StorageBackend for MemoryBackend {
    fn append_wal(&mut self, frame: &str) -> StorageResult<()> {
        self.wal.push(frame.to_string());
        Ok(())
    }

    fn read_wal(&self) -> StorageResult<Vec<String>> {
        Ok(self.wal.clone())
    }

    fn write_snapshot(&mut self, snapshot: &str) -> StorageResult<()> {
        self.snapshot = Some(snapshot.to_string());
        self.wal.clear();
        Ok(())
    }

    fn read_snapshot(&self) -> StorageResult<Option<String>> {
        Ok(self.snapshot.clone())
    }

    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
        self.wal_bin.push(frame.to_vec());
        Ok(())
    }

    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
        Ok(self.wal_bin.clone())
    }

    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        self.snapshot_bin = Some(snapshot.to_vec());
        self.wal_bin.clear();
        Ok(())
    }

    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.snapshot_bin.clone())
    }
}

/// File backend: generation-named, checksummed snapshots and logs inside
/// one directory per peer (layout in the module docs). Keeps one append
/// handle per log and issues one `write` per frame.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    text: Family,
    bytes: Family,
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
        Ok(FileBackend {
            text: Family::open(&dir, Framing::Lines, &names)?,
            bytes: Family::open(&dir, Framing::Prefixed, &names)?,
            dir,
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl StorageBackend for FileBackend {
    fn append_wal(&mut self, frame: &str) -> StorageResult<()> {
        debug_assert!(!frame.contains('\n'), "frames are line-delimited");
        self.text.append(&self.dir, frame.as_bytes())
    }

    fn read_wal(&self) -> StorageResult<Vec<String>> {
        let file = self.text.read_log(&self.dir)?;
        let (frames, _) = self.text.framing.scan(&file)?;
        frames
            .into_iter()
            .map(|f| String::from_utf8(file[f].to_vec()).map_err(not_utf8))
            .collect()
    }

    fn write_snapshot(&mut self, snapshot: &str) -> StorageResult<()> {
        self.text.checkpoint(&self.dir, snapshot.as_bytes())
    }

    fn read_snapshot(&self) -> StorageResult<Option<String>> {
        let body = self.text.read_snapshot(&self.dir)?;
        body.map(|b| String::from_utf8(b).map_err(not_utf8))
            .transpose()
    }

    fn append_wal_bytes(&mut self, frame: &[u8]) -> StorageResult<()> {
        self.bytes.append(&self.dir, frame)
    }

    fn read_wal_bytes(&self) -> StorageResult<Vec<Vec<u8>>> {
        let file = self.bytes.read_log(&self.dir)?;
        let (frames, _) = self.bytes.framing.scan(&file)?;
        Ok(frames.into_iter().map(|f| file[f].to_vec()).collect())
    }

    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        self.bytes.checkpoint(&self.dir, snapshot)
    }

    fn read_snapshot_bytes(&self) -> StorageResult<Option<Vec<u8>>> {
        self.bytes.read_snapshot(&self.dir)
    }
}

fn io(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

fn not_utf8(e: std::string::FromUtf8Error) -> StorageError {
    StorageError::Corrupt(format!("text frame or snapshot is not UTF-8: {e}"))
}

/// Reads a whole file; a missing one reads as empty.
fn read_or_empty(path: &Path) -> StorageResult<Vec<u8>> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io(e)),
    }
}

/// How one family delimits and checksums what it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// `<crc hex> <frame>\n`; snapshot trailer `\n<crc hex>\n`.
    Lines,
    /// `<len u32 LE> <crc u32 LE> <frame>`; snapshot trailer `<crc u32 LE>`.
    Prefixed,
}

/// Byte range of one frame's payload inside the log file it was read from.
type FrameRange = std::ops::Range<usize>;

impl Framing {
    fn snapshot_ext(self) -> &'static str {
        match self {
            Framing::Lines => "json",
            Framing::Prefixed => "bin",
        }
    }

    fn wal_ext(self) -> &'static str {
        match self {
            Framing::Lines => "jsonl",
            Framing::Prefixed => "bin",
        }
    }

    /// Appends one framed, checksummed frame to `out`.
    fn frame(self, payload: &[u8], out: &mut Vec<u8>) -> StorageResult<()> {
        match self {
            Framing::Lines => {
                push_hex_crc(crc32(&[payload]), out);
                out.push(b' ');
                out.extend_from_slice(payload);
                out.push(b'\n');
            }
            Framing::Prefixed => {
                let len = u32::try_from(payload.len())
                    .map_err(|_| StorageError::Io("binary WAL frame over 4 GiB".to_string()))?
                    .to_le_bytes();
                out.extend_from_slice(&len);
                out.extend_from_slice(&crc32(&[&len, payload]).to_le_bytes());
                out.extend_from_slice(payload);
            }
        }
        Ok(())
    }

    /// Walks a log file: the payload ranges of its good frames and the
    /// length of the prefix they fill. A bad frame that reaches the end of
    /// the file is a torn tail and ends the walk; one with bytes after it
    /// is `Corrupt`.
    fn scan(self, file: &[u8]) -> StorageResult<(Vec<FrameRange>, usize)> {
        let mut frames = Vec::new();
        let mut at = 0usize;
        while at < file.len() {
            // `end`: where the frame stops, `None` if it runs past the file.
            let (payload, end) = match self {
                Framing::Lines => {
                    let end = file[at..].iter().position(|b| *b == b'\n');
                    let end = end.map(|i| at + i + 1);
                    let line = &file[at..end.map_or(file.len(), |e| e - 1)];
                    let crc = line
                        .get(..8)
                        .filter(|_| line.get(8) == Some(&b' '))
                        .and_then(parse_hex_crc);
                    let good = crc.is_some_and(|crc| crc == crc32(&[&line[9..]]));
                    (good.then(|| at + 9..at + line.len()), end)
                }
                Framing::Prefixed => match file.get(at..at + 8) {
                    None => (None, None),
                    Some(header) => {
                        let (len, crc) = header.split_at(4);
                        let size = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
                        let crc = u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
                        let end = (at + 8).checked_add(size).filter(|e| *e <= file.len());
                        let good = end.is_some_and(|e| crc == crc32(&[len, &file[at + 8..e]]));
                        (good.then(|| at + 8..at + 8 + size), end)
                    }
                },
            };
            match (payload, end) {
                (Some(payload), Some(end)) => {
                    frames.push(payload);
                    at = end;
                }
                (_, Some(end)) if end < file.len() => {
                    return Err(StorageError::Corrupt(format!(
                        "WAL frame at byte {at} fails its checksum and is not the last"
                    )));
                }
                _ => break,
            }
        }
        Ok((frames, at))
    }

    /// Appends the snapshot trailer for `body` to `out`.
    fn trailer(self, body: &[u8], out: &mut Vec<u8>) {
        match self {
            Framing::Lines => {
                out.push(b'\n');
                push_hex_crc(crc32(&[body]), out);
                out.push(b'\n');
            }
            Framing::Prefixed => out.extend_from_slice(&crc32(&[body]).to_le_bytes()),
        }
    }

    /// The body of a snapshot file whose trailer validates.
    fn snapshot_body(self, file: &[u8]) -> Option<&[u8]> {
        let (body, crc) = match self {
            Framing::Lines => {
                let (body, trailer) = file.split_at_checked(file.len().checked_sub(10)?)?;
                let framed = trailer[0] == b'\n' && trailer[9] == b'\n';
                (body, parse_hex_crc(&trailer[1..9]).filter(|_| framed)?)
            }
            Framing::Prefixed => {
                let (body, t) = file.split_at_checked(file.len().checked_sub(4)?)?;
                (body, u32::from_le_bytes([t[0], t[1], t[2], t[3]]))
            }
        };
        (crc == crc32(&[body])).then_some(body)
    }
}

fn push_hex_crc(crc: u32, out: &mut Vec<u8>) {
    for nibble in (0..8).rev() {
        out.push(b"0123456789abcdef"[(crc >> (nibble * 4) & 0xf) as usize]);
    }
}

fn parse_hex_crc(digits: &[u8]) -> Option<u32> {
    let text = std::str::from_utf8(digits).ok()?;
    // `from_str_radix` alone would also take a sign.
    if !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u32::from_str_radix(text, 16).ok()
}

/// One frame family's files in the directory.
#[derive(Debug)]
struct Family {
    framing: Framing,
    /// Generation of the newest valid snapshot; 0 before the first one.
    gen: u64,
    /// Highest generation any of this family's file names carries, torn
    /// snapshots included: a checkpoint writes `newest + 1`, so a name is
    /// never written twice.
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

impl Family {
    fn snapshot_path(&self, dir: &Path, gen: u64) -> PathBuf {
        dir.join(format!("snapshot-{gen}.{}", self.framing.snapshot_ext()))
    }

    fn log_path(&self, dir: &Path, gen: u64) -> PathBuf {
        dir.join(format!("wal-{gen}.{}", self.framing.wal_ext()))
    }

    /// The generation in a file name of the form `<stem>-<gen>.<ext>`.
    fn generation(name: &str, stem: &str, ext: &str) -> Option<u64> {
        let digits = name
            .strip_prefix(stem)?
            .strip_prefix('-')?
            .strip_suffix(ext)?
            .strip_suffix('.')?;
        // No sign, no leading zeros: only names this backend writes.
        let canonical = digits.parse::<u64>().ok()?;
        (canonical.to_string() == digits).then_some(canonical)
    }

    fn open(dir: &Path, framing: Framing, names: &[String]) -> StorageResult<Family> {
        let gens = |stem: &str, ext: &str| -> Vec<u64> {
            let mut gens: Vec<u64> = names
                .iter()
                .filter_map(|n| Family::generation(n, stem, ext))
                .collect();
            gens.sort_unstable();
            gens
        };
        let snapshots = gens("snapshot", framing.snapshot_ext());
        let logs = gens("wal", framing.wal_ext());
        let mut family = Family {
            framing,
            gen: 0,
            newest: snapshots.iter().chain(&logs).copied().max().unwrap_or(0),
            log: None,
            log_len: 0,
            stale: Vec::new(),
            buf: Vec::new(),
        };
        for gen in snapshots.iter().rev() {
            let file = fs::read(family.snapshot_path(dir, *gen)).map_err(io)?;
            if framing.snapshot_body(&file).is_some() {
                family.gen = *gen;
                break;
            }
        }
        // A log is created only after its snapshot was written in full, so
        // one without a valid snapshot means the snapshot was damaged later
        // — falling back to an older generation would silently lose data.
        if let Some(orphan) = logs.iter().find(|g| **g > family.gen) {
            return Err(StorageError::Corrupt(format!(
                "snapshot generation {orphan} does not validate but its log exists"
            )));
        }
        family.stale = (snapshots.iter().map(|g| family.snapshot_path(dir, *g)))
            .chain(logs.iter().map(|g| family.log_path(dir, *g)))
            .filter(|p| {
                *p != family.snapshot_path(dir, family.gen)
                    && *p != family.log_path(dir, family.gen)
            })
            .collect();

        let path = family.log_path(dir, family.gen);
        let file = read_or_empty(&path)?;
        let (_, good) = framing.scan(&file)?;
        if good < file.len() {
            let log = fs::OpenOptions::new().write(true).open(&path).map_err(io)?;
            log.set_len(good as u64).map_err(io)?;
        }
        family.log_len = good as u64;
        Ok(family)
    }

    fn append(&mut self, dir: &Path, payload: &[u8]) -> StorageResult<()> {
        self.buf.clear();
        self.framing.frame(payload, &mut self.buf)?;
        let mut log = match self.log.take() {
            Some(log) => log,
            None => fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.log_path(dir, self.gen))
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

    fn read_log(&self, dir: &Path) -> StorageResult<Vec<u8>> {
        read_or_empty(&self.log_path(dir, self.gen))
    }

    fn read_snapshot(&self, dir: &Path) -> StorageResult<Option<Vec<u8>>> {
        if self.gen == 0 {
            return Ok(None);
        }
        let mut file = fs::read(self.snapshot_path(dir, self.gen)).map_err(io)?;
        let Some(body) = self.framing.snapshot_body(&file) else {
            return Err(StorageError::Corrupt(format!(
                "snapshot generation {} fails its checksum",
                self.gen
            )));
        };
        let len = body.len();
        file.truncate(len);
        Ok(Some(file))
    }

    fn checkpoint(&mut self, dir: &Path, body: &[u8]) -> StorageResult<()> {
        let next = self.newest + 1;
        self.newest = next;
        let path = self.snapshot_path(dir, next);
        self.buf.clear();
        self.buf.extend_from_slice(body);
        self.framing.trailer(body, &mut self.buf);
        if let Err(e) = fs::write(&path, &self.buf) {
            let _ = fs::remove_file(&path);
            return Err(io(e));
        }
        // The new snapshot is complete: generation `next` is live, and
        // what it covers — the previous snapshot and log — can go. A file
        // that will not delete is retried at the next checkpoint.
        self.stale.push(self.snapshot_path(dir, self.gen));
        self.stale.push(self.log_path(dir, self.gen));
        self.gen = next;
        self.log = None;
        self.log_len = 0;
        self.stale
            .retain(|p| matches!(fs::remove_file(p), Err(e) if e.kind() != ErrorKind::NotFound));
        Ok(())
    }
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

    #[test]
    fn crc32_matches_the_reference_check_value() {
        assert_eq!(crc32(&[b"123456789"]), 0xcbf4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xcbf4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn memory_backend_preserves_order_and_snapshot() {
        let mut b = MemoryBackend::default();
        b.append_wal("one").unwrap();
        b.append_wal("two").unwrap();
        assert_eq!(b.read_wal().unwrap(), vec!["one", "two"]);
        assert_eq!(b.read_snapshot().unwrap(), None);
        b.write_snapshot("snap1").unwrap();
        assert!(
            b.read_wal().unwrap().is_empty(),
            "a checkpoint drops the log"
        );
        b.append_wal("three").unwrap();
        b.write_snapshot("snap2").unwrap();
        assert_eq!(b.read_snapshot().unwrap().as_deref(), Some("snap2"));
    }

    #[test]
    fn file_backend_roundtrips_across_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut b = FileBackend::open(&dir).unwrap();
            b.append_wal(r#"{"k":0}"#).unwrap();
            b.write_snapshot("snapshot-a").unwrap();
            b.append_wal(r#"{"k":1}"#).unwrap();
            b.append_wal(r#"{"k":2}"#).unwrap();
        }
        // A fresh handle (the "restarted process") sees the snapshot and
        // the frames after it, and keeps appending to the same log.
        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.read_wal().unwrap(), vec![r#"{"k":1}"#, r#"{"k":2}"#]);
        assert_eq!(b.read_snapshot().unwrap().as_deref(), Some("snapshot-a"));
        b.append_wal(r#"{"k":3}"#).unwrap();
        assert_eq!(b.read_wal().unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
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
    /// one log per family, under the new generation's names.
    #[test]
    fn checkpoint_replaces_the_previous_generation() {
        let dir = temp_dir("gens");
        let mut b = FileBackend::open(&dir).unwrap();
        b.append_wal("before").unwrap();
        assert_eq!(file_names(&dir), ["wal-0.jsonl"]);
        b.write_snapshot("one").unwrap();
        assert_eq!(file_names(&dir), ["snapshot-1.json"]);
        b.append_wal("after").unwrap();
        b.write_snapshot("two").unwrap();
        b.append_wal("later").unwrap();
        assert_eq!(file_names(&dir), ["snapshot-2.json", "wal-2.jsonl"]);
        assert_eq!(
            fs::read_to_string(dir.join("wal-2.jsonl")).unwrap(),
            format!("{:08x} later\n", crc32(&[b"later"]))
        );
        assert_eq!(
            fs::read_to_string(dir.join("snapshot-2.json")).unwrap(),
            format!("two\n{:08x}\n", crc32(&[b"two"]))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The crash window of a checkpoint: the new snapshot is complete, the
    /// previous generation's files are still there. The new generation
    /// wins, the leftovers are ignored and go at the next checkpoint.
    #[test]
    fn complete_new_snapshot_beside_the_old_generation_wins() {
        let dir = temp_dir("window");
        {
            let mut b = FileBackend::open(&dir).unwrap();
            b.write_snapshot("old").unwrap();
            b.append_wal("covered").unwrap();
        }
        let mut file = b"new".to_vec();
        Framing::Lines.trailer(b"new", &mut file);
        fs::write(dir.join("snapshot-2.json"), file).unwrap();

        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.read_snapshot().unwrap().as_deref(), Some("new"));
        assert!(b.read_wal().unwrap().is_empty());
        b.append_wal("fresh").unwrap();
        b.write_snapshot("newer").unwrap();
        assert_eq!(file_names(&dir), ["snapshot-3.json"]);
        std::fs::remove_dir_all(&dir).ok();
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

    /// What a crash mid-append leaves — a frame cut short or failing its
    /// checksum at the very end — is cut off at open; the same damage with
    /// acknowledged frames behind it is a typed error.
    #[test]
    fn file_backend_cuts_a_torn_tail_and_rejects_interior_damage() {
        for (tag, framing) in [("lines", Framing::Lines), ("prefixed", Framing::Prefixed)] {
            let dir = temp_dir(tag);
            let log = dir.join(format!("wal-0.{}", framing.wal_ext()));
            let mut good = Vec::new();
            framing.frame(b"first", &mut good).unwrap();
            let first_len = good.len();
            framing.frame(b"second", &mut good).unwrap();
            let read = |b: &FileBackend| match framing {
                Framing::Lines => b.read_wal().map(|f| f.len()),
                Framing::Prefixed => b.read_wal_bytes().map(|f| f.len()),
            };

            // Torn: the second frame lacks its last byte.
            fs::create_dir_all(&dir).unwrap();
            fs::write(&log, &good[..good.len() - 1]).unwrap();
            let mut b = FileBackend::open(&dir).unwrap();
            assert_eq!(read(&b).unwrap(), 1);
            assert_eq!(fs::metadata(&log).unwrap().len(), first_len as u64);
            match framing {
                Framing::Lines => b.append_wal("third").unwrap(),
                Framing::Prefixed => b.append_wal_bytes(b"third").unwrap(),
            }
            assert_eq!(read(&b).unwrap(), 2);

            // Checksum failure in the last frame: also a tail.
            let mut flipped = good.clone();
            *flipped.last_mut().unwrap() ^= 0x01;
            if framing == Framing::Lines {
                // Keep the newline; damage the payload instead.
                flipped = good.clone();
                let at = flipped.len() - 2;
                flipped[at] ^= 0x01;
            }
            fs::write(&log, &flipped).unwrap();
            assert_eq!(read(&FileBackend::open(&dir).unwrap()).unwrap(), 1);

            // The same flip in the first frame, a good one behind it.
            let mut damaged = good.clone();
            damaged[first_len - 2] ^= 0x01;
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
            b.write_snapshot("state").unwrap();
            b.append_wal("frame").unwrap();
        }
        fs::write(dir.join("snapshot-1.json"), "stat").unwrap();
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
        assert!(b.read_wal().unwrap().is_empty());
        assert_eq!(b.read_snapshot().unwrap(), None);
        assert!(b.read_wal_bytes().unwrap().is_empty());
        assert_eq!(b.read_snapshot_bytes().unwrap(), None);
        assert!(file_names(&dir).is_empty(), "reading creates nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Files in the layout of earlier releases are neither read nor
    /// touched.
    #[test]
    fn earlier_layout_is_ignored() {
        let dir = temp_dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("wal.jsonl"), "{\"old\":1}\n").unwrap();
        fs::write(dir.join("snapshot.json"), "old").unwrap();
        let mut b = FileBackend::open(&dir).unwrap();
        assert!(b.read_wal().unwrap().is_empty());
        assert_eq!(b.read_snapshot().unwrap(), None);
        b.write_snapshot("new").unwrap();
        assert_eq!(
            file_names(&dir),
            ["snapshot-1.json", "snapshot.json", "wal.jsonl"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
