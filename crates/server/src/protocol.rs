//! The solvedbd wire protocol: framing, frame types and codecs.
//!
//! A connection is a sequence of *frames*, each a length-prefixed blob:
//!
//! ```text
//! frame := len:u32 (LE)  type:u8  payload[len - 1]
//! ```
//!
//! `len` counts the type byte plus the payload, so an empty frame has
//! `len == 1`. Values, schemas and tables inside payloads use the
//! compact binary encoding of [`sqlengine::wire`]. The full protocol —
//! handshake, request/response flow, error semantics — is documented in
//! `crates/server/PROTOCOL.md`.
//!
//! Decoding is defensive to the same standard as `sqlengine::wire`: a
//! malformed or hostile peer gets an error, never a panic or an
//! unbounded allocation.

use sqlengine::diag::Diagnostic;
use sqlengine::error::Error as EngineError;
use sqlengine::{wire, Table};
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol magic sent in the `Hello` frame.
pub const MAGIC: [u8; 4] = *b"SDBP";

/// Current protocol version. Bumped on incompatible changes; the server
/// accepts clients announcing any version in
/// [`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`] and echoes the
/// client's version back.
///
/// History: v1 — initial protocol; v2 — adds the `WARNING` frame
/// carrying pre-solve analyzer diagnostics before a statement's result;
/// v3 — adds the `STATS` frame carrying the statement's execution trace
/// (stage tree + solver telemetry) before its result; v4 — adds the
/// `PROGRESS` frame streaming live solver progress during a long solve,
/// and the `TIMEOUT` error kind for watchdog-killed solves.
pub const PROTOCOL_VERSION: u16 = 4;

/// Oldest protocol version the server still speaks. v3 clients are
/// accepted and simply never receive `PROGRESS` frames.
pub const MIN_PROTOCOL_VERSION: u16 = 3;

/// Upper bound for one frame (64 MiB + framing slack), matching the
/// string limit of the value codec.
pub const MAX_FRAME_LEN: u32 = (64 << 20) + 1024;

mod frame_type {
    pub const HELLO: u8 = 0x01;
    pub const QUERY: u8 = 0x02;
    pub const RESULT_TABLE: u8 = 0x03;
    pub const ROW_COUNT: u8 = 0x04;
    pub const DONE: u8 = 0x05;
    pub const ERROR: u8 = 0x06;
    pub const PING: u8 = 0x07;
    pub const PONG: u8 = 0x08;
    pub const BYE: u8 = 0x09;
    pub const END: u8 = 0x0A;
    pub const WARNING: u8 = 0x0B;
    pub const STATS: u8 = 0x0C;
    pub const PROGRESS: u8 = 0x0D;
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake, sent by the client first and echoed by the server:
    /// magic `"SDBP"` + version.
    Hello { version: u16 },
    /// A SQL batch (one or more `;`-separated statements) to execute.
    Query(String),
    /// A statement produced a result set.
    ResultTable(Table),
    /// A statement reported an affected-row count.
    RowCount(u64),
    /// A statement completed without a result (DDL and friends).
    Done,
    /// A statement (or the protocol layer) failed: error category code
    /// plus human-readable message.
    Error { kind: u8, message: String },
    /// Liveness probe.
    Ping,
    /// Reply to [`Frame::Ping`].
    Pong,
    /// Client is closing the connection.
    Bye,
    /// Terminates the server's response to one `Query` batch.
    End,
    /// Advisory diagnostics from the pre-solve static analyzer,
    /// sent immediately before the result frame of the statement they
    /// belong to (protocol v2, see DIAGNOSTICS.md).
    Warning(Vec<Diagnostic>),
    /// The execution trace of a statement — stage tree with timings
    /// plus solver telemetry — sent immediately before the result frame
    /// of the statement it describes (protocol v3, see PROTOCOL.md).
    Stats(obs::QueryTrace),
    /// A live solver progress snapshot, streamed at bounded intervals
    /// while a solve statement is running (protocol v4). Zero or more
    /// may precede the statement's STATS/result frames; clients may
    /// ignore them freely.
    Progress(obs::ProgressEvent),
}

/// Errors arising while reading/writing frames: transport failures keep
/// the underlying `io::Error`; everything else is a malformed peer.
#[derive(Debug)]
pub enum ProtoError {
    Io(io::Error),
    Malformed(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// Engine-error <-> frame mapping
// ---------------------------------------------------------------------------

/// Error category codes carried in [`Frame::Error`]. Code `0` is
/// reserved for protocol-level errors raised by the server itself.
pub mod error_kind {
    pub const PROTOCOL: u8 = 0;
    pub const LEX: u8 = 1;
    pub const PARSE: u8 = 2;
    pub const BIND: u8 = 3;
    pub const CATALOG: u8 = 4;
    pub const EVAL: u8 = 5;
    pub const SOLVER: u8 = 6;
    pub const UNSUPPORTED: u8 = 7;
    pub const TIMEOUT: u8 = 8;
}

/// Encode an engine error as an error frame.
pub fn error_to_frame(e: &EngineError) -> Frame {
    let (kind, message) = match e {
        EngineError::Lex(m) => (error_kind::LEX, m),
        EngineError::Parse(m) => (error_kind::PARSE, m),
        EngineError::Bind(m) => (error_kind::BIND, m),
        EngineError::Catalog(m) => (error_kind::CATALOG, m),
        EngineError::Eval(m) => (error_kind::EVAL, m),
        EngineError::Solver(m) | EngineError::NonLinear(m) => (error_kind::SOLVER, m),
        EngineError::SolveTimeout(m) => (error_kind::TIMEOUT, m),
        EngineError::Unsupported(m) => (error_kind::UNSUPPORTED, m),
    };
    Frame::Error { kind, message: message.clone() }
}

/// Reconstruct an engine error from an error frame's fields, so remote
/// failures surface to client code with the same category they had on
/// the server. Unknown codes (from a newer server) degrade to `Eval`.
pub fn frame_to_error(kind: u8, message: &str) -> EngineError {
    match kind {
        error_kind::LEX => EngineError::lex(message),
        error_kind::PARSE => EngineError::parse(message),
        error_kind::BIND => EngineError::bind(message),
        error_kind::CATALOG => EngineError::catalog(message),
        error_kind::EVAL => EngineError::eval(message),
        error_kind::SOLVER => EngineError::solver(message),
        error_kind::TIMEOUT => EngineError::solve_timeout(message),
        error_kind::UNSUPPORTED => EngineError::unsupported(message),
        error_kind::PROTOCOL => EngineError::eval(format!("protocol error: {message}")),
        other => EngineError::eval(format!("remote error (kind {other}): {message}")),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encode a frame body (type byte + payload, without the length prefix).
fn encode_body(f: &Frame, out: &mut Vec<u8>) {
    match f {
        Frame::Hello { version } => {
            out.push(frame_type::HELLO);
            out.extend_from_slice(&MAGIC);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Frame::Query(sql) => {
            out.push(frame_type::QUERY);
            out.extend_from_slice(sql.as_bytes());
        }
        Frame::ResultTable(t) => {
            out.push(frame_type::RESULT_TABLE);
            out.extend_from_slice(&wire::encode_table(t));
        }
        Frame::RowCount(n) => {
            out.push(frame_type::ROW_COUNT);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Frame::Done => out.push(frame_type::DONE),
        Frame::Error { kind, message } => {
            out.push(frame_type::ERROR);
            out.push(*kind);
            out.extend_from_slice(message.as_bytes());
        }
        Frame::Ping => out.push(frame_type::PING),
        Frame::Pong => out.push(frame_type::PONG),
        Frame::Bye => out.push(frame_type::BYE),
        Frame::End => out.push(frame_type::END),
        Frame::Warning(diags) => {
            out.push(frame_type::WARNING);
            wire::encode_diagnostics(diags, out);
        }
        Frame::Stats(trace) => {
            out.push(frame_type::STATS);
            wire::encode_trace(trace, out);
        }
        Frame::Progress(ev) => {
            out.push(frame_type::PROGRESS);
            wire::encode_progress(ev, out);
        }
    }
}

/// Encode a complete frame, length prefix included.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut body = Vec::with_capacity(16);
    encode_body(f, &mut body);
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Write a frame to a stream.
pub fn write_frame<W: Write>(w: &mut W, f: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(f))?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode a frame body (type byte + payload, length prefix already
/// stripped).
pub fn decode_body(body: &[u8]) -> Result<Frame, ProtoError> {
    let (&ty, payload) = body.split_first().ok_or_else(|| malformed("empty frame (length 0)"))?;
    let frame = match ty {
        frame_type::HELLO => {
            if payload.len() != 6 {
                return Err(malformed(format!(
                    "HELLO payload must be 6 bytes, got {}",
                    payload.len()
                )));
            }
            if payload[..4] != MAGIC {
                return Err(malformed("HELLO magic mismatch (not a solvedbd peer?)"));
            }
            let version = u16::from_le_bytes([payload[4], payload[5]]);
            Frame::Hello { version }
        }
        frame_type::QUERY => {
            let sql = std::str::from_utf8(payload)
                .map_err(|_| malformed("QUERY payload is not valid UTF-8"))?;
            Frame::Query(sql.to_string())
        }
        frame_type::RESULT_TABLE => {
            let t = wire::decode_table(payload)
                .map_err(|e| malformed(format!("RESULT_TABLE payload: {e}")))?;
            Frame::ResultTable(t)
        }
        frame_type::ROW_COUNT => {
            let bytes: [u8; 8] =
                payload.try_into().map_err(|_| malformed("ROW_COUNT payload must be 8 bytes"))?;
            Frame::RowCount(u64::from_le_bytes(bytes))
        }
        frame_type::DONE => expect_empty(payload, "DONE", Frame::Done)?,
        frame_type::ERROR => {
            let (&kind, msg) = payload
                .split_first()
                .ok_or_else(|| malformed("ERROR payload missing kind byte"))?;
            let message = std::str::from_utf8(msg)
                .map_err(|_| malformed("ERROR message is not valid UTF-8"))?
                .to_string();
            Frame::Error { kind, message }
        }
        frame_type::PING => expect_empty(payload, "PING", Frame::Ping)?,
        frame_type::PONG => expect_empty(payload, "PONG", Frame::Pong)?,
        frame_type::BYE => expect_empty(payload, "BYE", Frame::Bye)?,
        frame_type::END => expect_empty(payload, "END", Frame::End)?,
        frame_type::WARNING => {
            let mut r = wire::Reader::new(payload);
            let diags = wire::decode_diagnostics(&mut r)
                .map_err(|e| malformed(format!("WARNING payload: {e}")))?;
            if !r.is_empty() {
                return Err(malformed("WARNING frame has trailing bytes"));
            }
            Frame::Warning(diags)
        }
        frame_type::STATS => {
            let mut r = wire::Reader::new(payload);
            let trace =
                wire::decode_trace(&mut r).map_err(|e| malformed(format!("STATS payload: {e}")))?;
            if !r.is_empty() {
                return Err(malformed("STATS frame has trailing bytes"));
            }
            Frame::Stats(trace)
        }
        frame_type::PROGRESS => {
            let mut r = wire::Reader::new(payload);
            let ev = wire::decode_progress(&mut r)
                .map_err(|e| malformed(format!("PROGRESS payload: {e}")))?;
            if !r.is_empty() {
                return Err(malformed("PROGRESS frame has trailing bytes"));
            }
            Frame::Progress(ev)
        }
        other => return Err(malformed(format!("unknown frame type 0x{other:02x}"))),
    };
    Ok(frame)
}

fn expect_empty(payload: &[u8], name: &str, frame: Frame) -> Result<Frame, ProtoError> {
    if payload.is_empty() {
        Ok(frame)
    } else {
        Err(malformed(format!("{name} frame must have an empty payload")))
    }
}

/// Read one frame from a blocking stream. Returns `Ok(None)` on clean
/// EOF at a frame boundary; EOF mid-frame is an error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, ProtoError> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf, || false)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Interrupted => unreachable!("stop callback is constant false"),
        ReadOutcome::Full => {}
    }
    read_frame_after_len(r, len_buf, || false)
}

/// Read one frame from a stream configured with a read timeout,
/// checking `stop` on every timeout tick. Returns `Ok(None)` on clean
/// EOF or when `stop` fires.
pub fn read_frame_interruptible<R: Read>(
    r: &mut R,
    stop: impl Fn() -> bool,
) -> Result<Option<Frame>, ProtoError> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf, &stop)? {
        ReadOutcome::Eof | ReadOutcome::Interrupted => return Ok(None),
        ReadOutcome::Full => {}
    }
    read_frame_after_len(r, len_buf, &stop)
}

fn read_frame_after_len<R: Read>(
    r: &mut R,
    len_buf: [u8; 4],
    stop: impl Fn() -> bool,
) -> Result<Option<Frame>, ProtoError> {
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(malformed("empty frame (length 0)"));
    }
    if len > MAX_FRAME_LEN {
        return Err(malformed(format!("frame length {len} exceeds limit {MAX_FRAME_LEN}")));
    }
    let mut body = vec![0u8; len as usize];
    match read_full(r, &mut body, stop)? {
        ReadOutcome::Full => {}
        ReadOutcome::Eof => return Err(malformed("EOF in the middle of a frame")),
        ReadOutcome::Interrupted => return Ok(None),
    }
    decode_body(&body).map(Some)
}

enum ReadOutcome {
    /// Buffer completely filled.
    Full,
    /// EOF before the first byte of the buffer.
    Eof,
    /// `stop` fired while waiting.
    Interrupted,
}

/// `read_exact` that survives read-timeout ticks (`WouldBlock` /
/// `TimedOut`), polling `stop` on each one. Partial data already read
/// is kept across ticks, so timeouts never corrupt the frame stream.
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    stop: impl Fn() -> bool,
) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(ReadOutcome::Eof)
                } else {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-read"))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if stop() {
                    return Ok(ReadOutcome::Interrupted);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::Value;

    fn roundtrip(f: Frame) {
        let enc = encode_frame(&f);
        let mut cursor = io::Cursor::new(enc);
        let got = read_frame(&mut cursor).expect("read").expect("frame");
        assert_eq!(got, f);
    }

    #[test]
    fn all_frame_types_roundtrip() {
        roundtrip(Frame::Hello { version: PROTOCOL_VERSION });
        roundtrip(Frame::Query("SELECT 1; SELECT 2".into()));
        roundtrip(Frame::ResultTable(Table::from_rows(
            &["a", "b"],
            vec![vec![Value::Int(1), Value::Null]],
        )));
        roundtrip(Frame::RowCount(u64::MAX));
        roundtrip(Frame::Done);
        roundtrip(Frame::Error { kind: error_kind::SOLVER, message: "no solution".into() });
        roundtrip(Frame::Ping);
        roundtrip(Frame::Pong);
        roundtrip(Frame::Bye);
        roundtrip(Frame::End);
        roundtrip(Frame::Warning(vec![]));
        roundtrip(Frame::Warning(vec![
            sqlengine::diag::Diagnostic::warning("SD001", "x is unbounded below"),
            sqlengine::diag::Diagnostic::note("SD005", "shadowed bound").with_detail("see x <= 4"),
        ]));
        roundtrip(Frame::Stats(obs::QueryTrace::default()));
        roundtrip(Frame::Stats(obs::QueryTrace {
            label: "SOLVESELECT".into(),
            total_nanos: 5_000_000,
            stages: vec![
                obs::Stage::leaf("parse", 1_000),
                obs::Stage {
                    name: "solve".into(),
                    nanos: 4_000_000,
                    rows: Some(3),
                    meta: vec![("solver".into(), "solverlp".into())],
                    children: vec![obs::Stage::leaf("compile", 2_000)],
                },
            ],
            solvers: vec![obs::SolverStats {
                solver: "solverlp".into(),
                method: "bb".into(),
                iterations: 9,
                nodes_explored: 4,
                nodes_pruned: 1,
                objective: Some(6.5),
                incumbents: vec![(1, 4.0), (3, 6.5)],
                ..obs::SolverStats::default()
            }],
        }));
    }

    #[test]
    fn progress_frame_roundtrips() {
        roundtrip(Frame::Progress(obs::ProgressEvent::default()));
        roundtrip(Frame::Progress(obs::ProgressEvent {
            solver: "solverlp".into(),
            method: "mip".into(),
            elapsed_nanos: 2_500_000_000,
            nodes: 640,
            iterations: 9_000,
            evaluations: 0,
            incumbent: Some(13.0),
            best_bound: Some(17.5),
        }));
    }

    #[test]
    fn progress_frame_rejects_trailing_bytes() {
        let mut enc = Vec::new();
        encode_body(&Frame::Progress(obs::ProgressEvent::default()), &mut enc);
        enc.push(0xFF);
        assert!(decode_body(&enc).is_err());
    }

    #[test]
    fn truncated_progress_frame_is_rejected() {
        let mut enc = Vec::new();
        encode_body(
            &Frame::Progress(obs::ProgressEvent {
                solver: "s".into(),
                method: "m".into(),
                incumbent: Some(1.0),
                ..obs::ProgressEvent::default()
            }),
            &mut enc,
        );
        for cut in 1..enc.len() {
            assert!(decode_body(&enc[..cut]).is_err(), "prefix of {cut} bytes decoded cleanly");
        }
    }

    #[test]
    fn stats_frame_rejects_trailing_bytes() {
        let mut enc = Vec::new();
        encode_body(&Frame::Stats(obs::QueryTrace::default()), &mut enc);
        enc.push(0xFF);
        assert!(decode_body(&enc).is_err());
    }

    #[test]
    fn warning_frame_rejects_trailing_bytes() {
        let mut enc = Vec::new();
        encode_body(&Frame::Warning(vec![]), &mut enc);
        enc.push(0xFF);
        assert!(decode_body(&enc).is_err());
    }

    #[test]
    fn clean_eof_is_none_and_midframe_eof_is_error() {
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty).unwrap().is_none());

        let enc = encode_frame(&Frame::Query("SELECT 1".into()));
        for cut in 1..enc.len() {
            let mut partial = io::Cursor::new(enc[..cut].to_vec());
            assert!(
                read_frame(&mut partial).is_err(),
                "prefix of {cut} bytes unexpectedly decoded"
            );
        }
    }

    #[test]
    fn oversized_and_zero_lengths_are_rejected() {
        let mut buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        buf.push(frame_type::PING);
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());

        let zero = 0u32.to_le_bytes().to_vec();
        assert!(read_frame(&mut io::Cursor::new(zero)).is_err());
    }

    #[test]
    fn hello_magic_and_shape_are_checked() {
        assert!(decode_body(&[frame_type::HELLO, b'X', b'X', b'X', b'X', 1, 0]).is_err());
        assert!(decode_body(&[frame_type::HELLO, b'S', b'D', b'B', b'P', 1]).is_err());
        assert_eq!(
            decode_body(&[frame_type::HELLO, b'S', b'D', b'B', b'P', 3, 0]).unwrap(),
            Frame::Hello { version: 3 }
        );
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        assert!(decode_body(&[0x7F]).is_err());
    }

    #[test]
    fn empty_payload_frames_reject_trailing_bytes() {
        assert!(decode_body(&[frame_type::PING, 0]).is_err());
        assert!(decode_body(&[frame_type::DONE, 0]).is_err());
        assert!(decode_body(&[frame_type::END, 0xAB]).is_err());
    }

    #[test]
    fn engine_errors_roundtrip_through_frames() {
        use sqlengine::error::Error as E;
        for e in [
            E::lex("a"),
            E::parse("b"),
            E::bind("c"),
            E::catalog("d"),
            E::eval("e"),
            E::solver("f"),
            E::solve_timeout("budget exhausted"),
            E::unsupported("g"),
        ] {
            let Frame::Error { kind, message } = error_to_frame(&e) else {
                panic!("not an error frame")
            };
            assert_eq!(frame_to_error(kind, &message), e);
        }
        // Unknown kinds degrade to Eval rather than failing.
        assert!(matches!(frame_to_error(99, "x"), sqlengine::Error::Eval(_)));
    }

    #[test]
    fn interruptible_read_stops_on_flag() {
        // A reader that always times out: stop should yield Ok(None).
        struct AlwaysTimeout;
        impl Read for AlwaysTimeout {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"))
            }
        }
        let got = read_frame_interruptible(&mut AlwaysTimeout, || true).unwrap();
        assert!(got.is_none());
    }
}
