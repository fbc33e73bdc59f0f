//! Length-prefixed framing: `[u32 LE payload length][payload]`.
//!
//! The reader is written against the raw `Read` contract — `read` may
//! return any prefix of what was asked for, so frames arrive split across
//! arbitrary TCP segment boundaries. Three terminal outcomes are kept
//! distinct:
//!
//! * `Ok(None)` — EOF **exactly at** a frame boundary: the peer closed
//!   cleanly (normal shutdown).
//! * [`TransportError::UnexpectedEof`] — EOF inside a header or payload:
//!   the peer died mid-message.
//! * [`TransportError::FrameTooLarge`] — the header announces more than
//!   the configured cap, which in practice means garbage bytes or a
//!   foreign protocol on the port.
//!
//! No outcome panics; a peer dropping mid-frame is a value.

use crate::error::{TransportError, TransportResult};
use std::io::{ErrorKind, Read, Write};

/// Bytes of the frame header.
pub const LEN_PREFIX: usize = 4;

/// Default cap on a single frame's payload (64 MiB). Far above any real
/// protocol message, far below an `u32::MAX` allocation bomb.
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;

/// Writes one frame in one `write_all`: header and payload are copied into
/// one buffer first, so a frame written to an unbuffered stream costs one
/// syscall — and, under `TCP_NODELAY`, one segment — not two.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidInput, "frame exceeds u32 bytes"))?;
    let mut frame = Vec::with_capacity(LEN_PREFIX + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Fills `buf` as far as the stream allows. Returns the number of bytes
/// actually read: `buf.len()` normally, less if EOF arrived first.
/// `Interrupted` is retried; any other error is surfaced as
/// [`TransportError::Io`].
fn read_full(r: &mut impl Read, buf: &mut [u8], op: &str) -> TransportResult<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(TransportError::io(op, &e)),
        }
    }
    Ok(filled)
}

/// Reads one frame. `Ok(None)` means the stream ended cleanly at a frame
/// boundary; every torn read is a typed error (see module docs).
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> TransportResult<Option<Vec<u8>>> {
    let mut header = [0u8; LEN_PREFIX];
    let got = read_full(r, &mut header, "read frame header")?;
    if got == 0 {
        return Ok(None);
    }
    if got < LEN_PREFIX {
        return Err(TransportError::UnexpectedEof {
            got,
            needed: LEN_PREFIX,
        });
    }
    let len = u32::from_le_bytes(header);
    if len > max_frame {
        return Err(TransportError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    // Grown as the payload arrives, not sized by the header alone: a header
    // that announces more than follows costs what follows.
    let mut payload = Vec::with_capacity((len as usize).min(1 << 16));
    (r.take(u64::from(len)).read_to_end(&mut payload))
        .map_err(|e| TransportError::io("read frame payload", &e))?;
    if payload.len() < len as usize {
        return Err(TransportError::UnexpectedEof {
            got: payload.len(),
            needed: len as usize,
        });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that hands out its bytes in a fixed dribble of chunk sizes
    /// (cycled), exercising every split-read path.
    pub struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        chunks: Vec<usize>,
        next: usize,
    }

    impl<'a> Dribble<'a> {
        pub fn new(data: &'a [u8], chunks: Vec<usize>) -> Self {
            Dribble {
                data,
                pos: 0,
                chunks,
                next: 0,
            }
        }
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let chunk = self.chunks[self.next % self.chunks.len()].max(1);
            self.next += 1;
            let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p).unwrap();
        }
        out
    }

    /// A writer that takes everything it is given and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, [5, 0, 0, 0, b'h', b'e', b'l', b'l', b'o']);
    }

    #[test]
    fn round_trips_through_single_byte_reads() {
        let stream = framed(&[b"hello", b"", b"world!"]);
        let mut r = Dribble::new(&stream, vec![1]);
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"world!");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn clean_eof_at_boundary_is_none() {
        let mut r = Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn eof_inside_header_is_typed() {
        let mut r = Cursor::new(vec![5, 0]);
        match read_frame(&mut r, 1024) {
            Err(TransportError::UnexpectedEof { got: 2, needed: 4 }) => {}
            other => panic!("expected UnexpectedEof in header, got {other:?}"),
        }
    }

    #[test]
    fn eof_inside_payload_is_typed() {
        let mut stream = framed(&[b"hello"]);
        stream.truncate(stream.len() - 2);
        let mut r = Dribble::new(&stream, vec![3, 1]);
        match read_frame(&mut r, 1024) {
            Err(TransportError::UnexpectedEof { got: 3, needed: 5 }) => {}
            other => panic!("expected UnexpectedEof in payload, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocating() {
        let mut r = Cursor::new(u32::MAX.to_le_bytes().to_vec());
        match read_frame(&mut r, 1024) {
            Err(TransportError::FrameTooLarge { len, max: 1024 }) => {
                assert_eq!(len, u32::MAX);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}
