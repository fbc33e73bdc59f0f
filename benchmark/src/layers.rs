//! The per-layer replays of the traced pass. Each layer is exercised from
//! outside through its public functions, over what the traced pass left
//! behind: the final databases (`p2p_relational` through
//! `p2p_core::joins`), the captured messages (`p2p_core::codec`,
//! `serde_json`, `Wire::wire_size_with`, and `p2p_transport`'s framing over
//! one loopback connection) and the durable peers' state directories
//! (`PeerStorage::recover`).

use crate::pass::LayerInputs;
use crate::simloop::recover_dir;
use crate::stats::ms_since;
use p2p_core::codec::{decode_msg, encode_msg};
use p2p_core::error::{CoreError, CoreResult};
use p2p_core::joins::{compile_part, eval_part_delta_planned, eval_part_planned, EvalMetrics};
use p2p_core::ProtocolMsg;
use p2p_net::{Codec, Wire};
use p2p_storage::{FileBackend, StorageBackend};
use p2p_transport::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Cost of evaluating every rule body once on the final databases.
#[derive(Debug, Default)]
pub struct RelationalReplay {
    /// Compiling every body fragment (full plan plus delta plans).
    pub compile_ms: f64,
    /// Evaluating every fragment in full.
    pub eval_full_ms: f64,
    /// Evaluating every fragment's delta since the last session began.
    pub eval_delta_ms: f64,
    /// Rows the two evaluations read per row they produced.
    pub rows_scanned_per_result: f64,
}

/// Replays every rule's body fragments through the planned evaluator.
pub fn relational_replay(layers: &mut LayerInputs) -> CoreResult<RelationalReplay> {
    let mut out = RelationalReplay::default();
    let mut metrics = EvalMetrics::default();
    let mut results = 0usize;
    for rule in layers.rules.iter() {
        for part in &rule.parts {
            let (Some(db), Some(marks)) =
                (layers.dbs.get_mut(&part.node), layers.marks.get(&part.node))
            else {
                continue;
            };
            let t = Instant::now();
            let body = compile_part(part, db)?;
            out.compile_ms += ms_since(t);
            let t = Instant::now();
            results += eval_part_planned(&body, part, db, true, &mut metrics)?.len();
            out.eval_full_ms += ms_since(t);
            let t = Instant::now();
            results += eval_part_delta_planned(&body, part, db, marks, true, &mut metrics)?.len();
            out.eval_delta_ms += ms_since(t);
        }
    }
    out.rows_scanned_per_result = metrics.rows_scanned as f64 / results.max(1) as f64;
    Ok(out)
}

/// Cost of pushing the captured messages through both codecs.
#[derive(Debug, Default)]
pub struct CodecReplay {
    /// Messages replayed.
    pub messages: u64,
    /// `codec::encode_msg` over all of them.
    pub binary_encode_ms: f64,
    /// `codec::decode_msg` over the results.
    pub binary_decode_ms: f64,
    /// `serde_json::to_string` over all of them.
    pub json_encode_ms: f64,
    /// `serde_json::from_str` over the results.
    pub json_decode_ms: f64,
    /// `Wire::wire_size_with(run codec)` over all of them: what the
    /// in-process runtimes pay per send for size accounting.
    pub measure_ms: f64,
    /// Encoded bytes, binary.
    pub binary_bytes: u64,
    /// Encoded bytes, JSON.
    pub json_bytes: u64,
    /// The binary frames, for the transport echo replay.
    pub binary_frames: Vec<Vec<u8>>,
}

/// Replays the captured messages through both codecs.
pub fn codec_replay(captured: &[ProtocolMsg], run_codec: Codec) -> CoreResult<CodecReplay> {
    let bad = |e: String| CoreError::Transport(format!("codec replay: {e}"));
    let mut out = CodecReplay {
        messages: captured.len() as u64,
        ..CodecReplay::default()
    };
    let t = Instant::now();
    out.binary_frames = captured.iter().map(encode_msg).collect();
    out.binary_encode_ms = ms_since(t);
    let t = Instant::now();
    for frame in &out.binary_frames {
        std::hint::black_box(decode_msg(frame).map_err(|e| bad(e.to_string()))?);
    }
    out.binary_decode_ms = ms_since(t);
    let t = Instant::now();
    let texts: Vec<String> = captured
        .iter()
        .map(|m| serde_json::to_string(m).map_err(|e| bad(e.to_string())))
        .collect::<CoreResult<_>>()?;
    out.json_encode_ms = ms_since(t);
    let t = Instant::now();
    for text in &texts {
        let msg: ProtocolMsg = serde_json::from_str(text).map_err(|e| bad(e.to_string()))?;
        std::hint::black_box(msg);
    }
    out.json_decode_ms = ms_since(t);
    let t = Instant::now();
    for msg in captured {
        std::hint::black_box(msg.wire_size_with(run_codec));
    }
    out.measure_ms = ms_since(t);
    out.binary_bytes = out.binary_frames.iter().map(|f| f.len() as u64).sum();
    out.json_bytes = texts.iter().map(|t| t.len() as u64).sum();
    Ok(out)
}

/// Round trips of the captured frames over one loopback connection.
#[derive(Debug, Default)]
pub struct EchoReplay {
    /// Per-frame round-trip times, microseconds.
    pub rtts_us: Vec<f64>,
    /// Payload bytes sent over total time, MB/s.
    pub mb_per_s: f64,
}

/// Sends every frame through `write_frame`/`read_frame` to an echo thread
/// and back.
pub fn echo_replay(frames: &[Vec<u8>]) -> CoreResult<EchoReplay> {
    let io = |e: std::io::Error| CoreError::Transport(format!("echo replay: {e}"));
    let tr = |e: p2p_transport::TransportError| CoreError::Transport(format!("echo replay: {e}"));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        while let Ok(Some(frame)) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            write_frame(&mut stream, &frame)?;
            stream.flush()?;
        }
        Ok(())
    });
    let mut out = EchoReplay::default();
    {
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let started = Instant::now();
        for frame in frames {
            let t = Instant::now();
            write_frame(&mut stream, frame).map_err(io)?;
            stream.flush().map_err(io)?;
            let back = read_frame(&mut stream, DEFAULT_MAX_FRAME).map_err(tr)?;
            out.rtts_us.push(t.elapsed().as_secs_f64() * 1e6);
            if back.as_deref() != Some(frame.as_slice()) {
                return Err(CoreError::Transport("echo replay: frame changed".into()));
            }
        }
        let bytes: usize = frames.iter().map(Vec::len).sum();
        out.mb_per_s = bytes as f64 / 1e6 / started.elapsed().as_secs_f64().max(1e-9);
    }
    echo.join()
        .map_err(|_| CoreError::Transport("echo thread panicked".into()))?
        .map_err(io)?;
    Ok(out)
}

/// Cost of `PeerStorage::recover` on every state directory.
#[derive(Debug, Default)]
pub struct StorageReplay {
    /// One recovery time per directory, milliseconds.
    pub recover_ms: Vec<f64>,
    /// WAL frames read per recovery, mean.
    pub frames_per_recover: f64,
}

/// Reopens every durable peer's directory and times its recovery.
pub fn storage_replay(layers: &LayerInputs) -> CoreResult<StorageReplay> {
    let st = |e: p2p_storage::StorageError| CoreError::Storage(e.to_string());
    let mut out = StorageReplay::default();
    let mut frames = 0usize;
    for (node, dir) in &layers.state_dirs {
        frames += FileBackend::open(dir)
            .and_then(|b| b.read_wal())
            .map_err(st)?
            .len();
        let t = Instant::now();
        std::hint::black_box(recover_dir(*node, dir)?);
        out.recover_ms.push(ms_since(t));
    }
    out.frames_per_recover = frames as f64 / layers.state_dirs.len().max(1) as f64;
    Ok(out)
}
