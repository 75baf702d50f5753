//! Compact binary serialization for [`Value`], [`Schema`] and [`Table`].
//!
//! This is the payload format of the `solvedbd` network protocol (see
//! `crates/server/PROTOCOL.md`): result tables produced by the engine
//! must cross a process boundary, so every value variant — including
//! NULLs, timestamps, intervals and bit strings — has a stable,
//! versionless byte encoding. All multi-byte integers are little-endian.
//!
//! Layout summary:
//!
//! ```text
//! value   := tag:u8 payload
//!   0x00 NULL
//!   0x01 BOOL       b:u8 (0|1)
//!   0x02 INT        i64
//!   0x03 FLOAT      f64 bits
//!   0x04 TEXT       len:u32 utf8[len]
//!   0x05 TIMESTAMP  micros:i64
//!   0x06 INTERVAL   micros:i64
//!   0x07 BITS       width:u8 raw:u64
//!   0x08 CUSTOM     type:(len:u32 utf8) rendering:(len:u32 utf8)
//! type    := tag:u8 [len:u32 utf8[len]]      (0x08 = named type)
//! column  := name:(len:u32 utf8) type
//! schema  := ncols:u16 column*
//! table   := schema nrows:u32 (value*ncols)*nrows
//! ```
//!
//! Custom values (symbolic expressions, models) serialize as their type
//! name plus textual rendering and deliberately decode to
//! [`Value::Text`]: solver-internal objects do not round-trip across
//! the wire, only their printable form does.
//!
//! Decoding is defensive: unknown tags, truncated buffers, invalid
//! UTF-8 and absurd length prefixes all return `Err` rather than
//! panicking, so a malicious or corrupt peer cannot crash the server.

use crate::diag::{Diagnostic, Severity};
use crate::error::{Error, Result};
use crate::table::{Column, Row, Schema, Table};
use crate::types::{BitString, DataType, Value};

/// Upper bound for a single length-prefixed string (64 MiB).
const MAX_STR_LEN: u32 = 64 << 20;
/// Upper bound for row count in one table (16M rows).
const MAX_ROWS: u32 = 16 << 20;
/// Upper bound for column count.
const MAX_COLS: u16 = 4096;

mod tag {
    pub const NULL: u8 = 0x00;
    pub const BOOL: u8 = 0x01;
    pub const INT: u8 = 0x02;
    pub const FLOAT: u8 = 0x03;
    pub const TEXT: u8 = 0x04;
    pub const TIMESTAMP: u8 = 0x05;
    pub const INTERVAL: u8 = 0x06;
    pub const BITS: u8 = 0x07;
    pub const CUSTOM: u8 = 0x08;
}

mod type_tag {
    pub const UNKNOWN: u8 = 0x00;
    pub const BOOL: u8 = 0x01;
    pub const INT: u8 = 0x02;
    pub const FLOAT: u8 = 0x03;
    pub const TEXT: u8 = 0x04;
    pub const TIMESTAMP: u8 = 0x05;
    pub const INTERVAL: u8 = 0x06;
    pub const BITS: u8 = 0x07;
    pub const NAMED: u8 = 0x08;
}

fn err(msg: impl Into<String>) -> Error {
    Error::eval(format!("wire: {}", msg.into()))
}

// ---------------------------------------------------------------------------
// Reader over a byte slice
// ---------------------------------------------------------------------------

/// Cursor over an input buffer; every read is bounds-checked.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(err(format!(
                "truncated input: need {n} byte(s) at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()?;
        if len > MAX_STR_LEN {
            return Err(err(format!("string length {len} exceeds limit {MAX_STR_LEN}")));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("invalid UTF-8 in string"))
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Append the encoding of one value.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(tag::NULL),
        Value::Bool(b) => {
            out.push(tag::BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(tag::INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(tag::FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(tag::TEXT);
            put_str(out, s);
        }
        Value::Timestamp(t) => {
            out.push(tag::TIMESTAMP);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Value::Interval(i) => {
            out.push(tag::INTERVAL);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Bits(b) => {
            out.push(tag::BITS);
            out.push(b.len());
            out.extend_from_slice(&b.raw().to_le_bytes());
        }
        Value::Custom(c) => {
            out.push(tag::CUSTOM);
            put_str(out, c.type_name());
            put_str(out, &c.to_text());
        }
    }
}

/// Decode one value.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        tag::NULL => Value::Null,
        tag::BOOL => match r.u8()? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            other => return Err(err(format!("invalid bool byte 0x{other:02x}"))),
        },
        tag::INT => Value::Int(r.i64()?),
        tag::FLOAT => Value::Float(r.f64()?),
        tag::TEXT => Value::text(r.string()?),
        tag::TIMESTAMP => Value::Timestamp(r.i64()?),
        tag::INTERVAL => Value::Interval(r.i64()?),
        tag::BITS => {
            let width = r.u8()?;
            let raw = r.u64()?;
            Value::Bits(BitString::new(width, raw)?)
        }
        tag::CUSTOM => {
            // Solver-internal objects don't round-trip; keep the
            // printable form (documented lossy decode).
            let _type_name = r.string()?;
            Value::text(r.string()?)
        }
        other => return Err(err(format!("unknown value tag 0x{other:02x}"))),
    })
}

fn encode_datatype(ty: &DataType, out: &mut Vec<u8>) {
    match ty {
        DataType::Unknown => out.push(type_tag::UNKNOWN),
        DataType::Bool => out.push(type_tag::BOOL),
        DataType::Int => out.push(type_tag::INT),
        DataType::Float => out.push(type_tag::FLOAT),
        DataType::Text => out.push(type_tag::TEXT),
        DataType::Timestamp => out.push(type_tag::TIMESTAMP),
        DataType::Interval => out.push(type_tag::INTERVAL),
        DataType::Bits => out.push(type_tag::BITS),
        DataType::Named(n) => {
            out.push(type_tag::NAMED);
            put_str(out, n);
        }
    }
}

fn decode_datatype(r: &mut Reader<'_>) -> Result<DataType> {
    Ok(match r.u8()? {
        type_tag::UNKNOWN => DataType::Unknown,
        type_tag::BOOL => DataType::Bool,
        type_tag::INT => DataType::Int,
        type_tag::FLOAT => DataType::Float,
        type_tag::TEXT => DataType::Text,
        type_tag::TIMESTAMP => DataType::Timestamp,
        type_tag::INTERVAL => DataType::Interval,
        type_tag::BITS => DataType::Bits,
        type_tag::NAMED => DataType::Named(r.string()?),
        other => return Err(err(format!("unknown type tag 0x{other:02x}"))),
    })
}

/// Append the encoding of a schema.
pub fn encode_schema(schema: &Schema, out: &mut Vec<u8>) {
    out.extend_from_slice(&(schema.len() as u16).to_le_bytes());
    for col in &schema.columns {
        put_str(out, &col.name);
        encode_datatype(&col.ty, out);
    }
}

/// Decode a schema.
pub fn decode_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let ncols = r.u16()?;
    if ncols > MAX_COLS {
        return Err(err(format!("column count {ncols} exceeds limit {MAX_COLS}")));
    }
    let mut columns = Vec::with_capacity(ncols as usize);
    for _ in 0..ncols {
        let name = r.string()?;
        let ty = decode_datatype(r)?;
        columns.push(Column::new(name, ty));
    }
    Ok(Schema::new(columns))
}

/// Encode a whole table (schema + rows) into a fresh buffer.
pub fn encode_table(table: &Table) -> Vec<u8> {
    encode_rows(&table.schema, table.num_rows(), &table.rows)
}

/// Encode a table given as its schema and its `nrows` rows, in order —
/// the bytes [`encode_table`] writes for the same table.
pub fn encode_rows<'a>(
    schema: &Schema,
    nrows: usize,
    rows: impl IntoIterator<Item = &'a Row>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + nrows * schema.len() * 9);
    encode_schema(schema, &mut out);
    out.extend_from_slice(&(nrows as u32).to_le_bytes());
    for row in rows {
        for v in row {
            encode_value(v, &mut out);
        }
    }
    out
}

/// Decode a table from a buffer, requiring that the buffer is fully
/// consumed (trailing garbage is an error).
pub fn decode_table(buf: &[u8]) -> Result<Table> {
    let mut r = Reader::new(buf);
    let t = decode_table_from(&mut r)?;
    if !r.is_empty() {
        return Err(err(format!("{} trailing byte(s) after table", r.remaining())));
    }
    Ok(t)
}

/// Decode a table from a reader positioned at its start.
pub fn decode_table_from(r: &mut Reader<'_>) -> Result<Table> {
    let schema = decode_schema(r)?;
    let nrows = r.u32()?;
    if nrows > MAX_ROWS {
        return Err(err(format!("row count {nrows} exceeds limit {MAX_ROWS}")));
    }
    let ncols = schema.len();
    // Sanity bound: each value is at least one byte, so a well-formed
    // buffer must hold at least nrows * ncols more bytes.
    if (nrows as usize).saturating_mul(ncols) > r.remaining() {
        return Err(err("row count inconsistent with remaining input"));
    }
    let mut rows = Vec::with_capacity(nrows as usize);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(decode_value(r)?);
        }
        rows.push(row);
    }
    Ok(Table::with_rows(schema, rows))
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// Upper bound on diagnostics in one batch (defensive).
const MAX_DIAGS: u16 = 1024;

/// Encode analyzer diagnostics (the WARNING frame payload):
///
/// ```text
/// diags := count:u16 diag*
/// diag  := code:(len:u32 utf8) severity:u8 message:(len:u32 utf8)
///          has_detail:u8 [detail:(len:u32 utf8)]
/// ```
pub fn encode_diagnostics(diags: &[Diagnostic], out: &mut Vec<u8>) {
    let n = diags.len().min(MAX_DIAGS as usize);
    out.extend_from_slice(&(n as u16).to_le_bytes());
    for d in &diags[..n] {
        put_str(out, &d.code);
        out.push(d.severity.code());
        put_str(out, &d.message);
        match &d.detail {
            Some(detail) => {
                out.push(1);
                put_str(out, detail);
            }
            None => out.push(0),
        }
    }
}

pub fn decode_diagnostics(r: &mut Reader<'_>) -> Result<Vec<Diagnostic>> {
    let n = r.u16()?;
    if n > MAX_DIAGS {
        return Err(err(format!("diagnostic count {n} exceeds limit {MAX_DIAGS}")));
    }
    let mut diags = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let code = r.string()?;
        let severity = Severity::from_code(r.u8()?);
        let message = r.string()?;
        let detail = match r.u8()? {
            0 => None,
            _ => Some(r.string()?),
        };
        diags.push(Diagnostic { code, severity, message, detail });
    }
    Ok(diags)
}

// ---------------------------------------------------------------------------
// Query traces (the STATS frame payload, protocol v3)
// ---------------------------------------------------------------------------

/// Defensive limits on a decoded trace.
const MAX_STAGES: u32 = 4096;
const MAX_STAGE_DEPTH: u32 = 64;
const MAX_SOLVERS: u16 = 256;
const MAX_META: u16 = 256;
const MAX_INCUMBENTS: u32 = 4096;

/// Encode a [`obs::QueryTrace`] (the STATS frame payload):
///
/// ```text
/// trace   := label:str total:u64 nstages:u16 stage* nsolvers:u16 solver*
/// stage   := name:str nanos:u64 has_rows:u8 [rows:u64]
///            nmeta:u16 (key:str value:str)* nchildren:u16 stage*
/// solver  := solver:str method:str iterations:u64 nodes_explored:u64
///            nodes_pruned:u64 evaluations:u64 restarts:u64
///            presolve_cols:u64 presolve_rows:u64 presolve_bounds:u64
///            has_objective:u8 [objective:f64]
///            nincumbents:u32 (at:u64 objective:f64)*
///            matrix_class:str integrality_proof:str blocks:u64
///            warm_starts:u64 cold_starts:u64 dual_pivots:u64
///            refactorizations:u64 distinct_evaluations:u64
/// str     := len:u32 utf8[len]
/// ```
pub fn encode_trace(t: &obs::QueryTrace, out: &mut Vec<u8>) {
    put_str(out, &t.label);
    out.extend_from_slice(&t.total_nanos.to_le_bytes());
    out.extend_from_slice(&(t.stages.len().min(u16::MAX as usize) as u16).to_le_bytes());
    for s in t.stages.iter().take(u16::MAX as usize) {
        encode_stage(s, out);
    }
    let n = t.solvers.len().min(MAX_SOLVERS as usize);
    out.extend_from_slice(&(n as u16).to_le_bytes());
    for st in &t.solvers[..n] {
        put_str(out, &st.solver);
        put_str(out, &st.method);
        for v in [
            st.iterations,
            st.nodes_explored,
            st.nodes_pruned,
            st.evaluations,
            st.restarts,
            st.presolve_cols,
            st.presolve_rows,
            st.presolve_bounds,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match st.objective {
            Some(obj) => {
                out.push(1);
                out.extend_from_slice(&obj.to_bits().to_le_bytes());
            }
            None => out.push(0),
        }
        let ni = st.incumbents.len().min(MAX_INCUMBENTS as usize);
        out.extend_from_slice(&(ni as u32).to_le_bytes());
        for &(at, obj) in &st.incumbents[..ni] {
            out.extend_from_slice(&at.to_le_bytes());
            out.extend_from_slice(&obj.to_bits().to_le_bytes());
        }
        put_str(out, &st.matrix_class);
        put_str(out, &st.integrality_proof);
        for v in [
            st.blocks,
            st.warm_starts,
            st.cold_starts,
            st.dual_pivots,
            st.refactorizations,
            st.distinct_evaluations,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn encode_stage(s: &obs::Stage, out: &mut Vec<u8>) {
    put_str(out, &s.name);
    out.extend_from_slice(&s.nanos.to_le_bytes());
    match s.rows {
        Some(rows) => {
            out.push(1);
            out.extend_from_slice(&rows.to_le_bytes());
        }
        None => out.push(0),
    }
    let nm = s.meta.len().min(MAX_META as usize);
    out.extend_from_slice(&(nm as u16).to_le_bytes());
    for (k, v) in &s.meta[..nm] {
        put_str(out, k);
        put_str(out, v);
    }
    out.extend_from_slice(&(s.children.len().min(u16::MAX as usize) as u16).to_le_bytes());
    for c in s.children.iter().take(u16::MAX as usize) {
        encode_stage(c, out);
    }
}

/// Decode a query trace from a reader positioned at its start.
pub fn decode_trace(r: &mut Reader<'_>) -> Result<obs::QueryTrace> {
    let label = r.string()?;
    let total_nanos = r.u64()?;
    let nstages = r.u16()?;
    let mut budget = MAX_STAGES;
    let mut stages = Vec::with_capacity(nstages.min(64) as usize);
    for _ in 0..nstages {
        stages.push(decode_stage(r, 0, &mut budget)?);
    }
    let nsolvers = r.u16()?;
    if nsolvers > MAX_SOLVERS {
        return Err(err(format!("solver count {nsolvers} exceeds limit {MAX_SOLVERS}")));
    }
    let mut solvers = Vec::with_capacity(nsolvers as usize);
    for _ in 0..nsolvers {
        let solver = r.string()?;
        let method = r.string()?;
        let iterations = r.u64()?;
        let nodes_explored = r.u64()?;
        let nodes_pruned = r.u64()?;
        let evaluations = r.u64()?;
        let restarts = r.u64()?;
        let presolve_cols = r.u64()?;
        let presolve_rows = r.u64()?;
        let presolve_bounds = r.u64()?;
        let objective = match r.u8()? {
            0 => None,
            _ => Some(r.f64()?),
        };
        let ni = r.u32()?;
        if ni > MAX_INCUMBENTS {
            return Err(err(format!("incumbent count {ni} exceeds limit {MAX_INCUMBENTS}")));
        }
        let mut incumbents = Vec::with_capacity(ni.min(64) as usize);
        for _ in 0..ni {
            let at = r.u64()?;
            let obj = r.f64()?;
            incumbents.push((at, obj));
        }
        let matrix_class = r.string()?;
        let integrality_proof = r.string()?;
        let blocks = r.u64()?;
        let warm_starts = r.u64()?;
        let cold_starts = r.u64()?;
        let dual_pivots = r.u64()?;
        let refactorizations = r.u64()?;
        let distinct_evaluations = r.u64()?;
        solvers.push(obs::SolverStats {
            solver,
            method,
            iterations,
            nodes_explored,
            nodes_pruned,
            warm_starts,
            cold_starts,
            dual_pivots,
            refactorizations,
            evaluations,
            distinct_evaluations,
            restarts,
            presolve_cols,
            presolve_rows,
            presolve_bounds,
            objective,
            incumbents,
            matrix_class,
            integrality_proof,
            blocks,
        });
    }
    Ok(obs::QueryTrace { label, total_nanos, stages, solvers })
}

fn decode_stage(r: &mut Reader<'_>, depth: u32, budget: &mut u32) -> Result<obs::Stage> {
    if depth >= MAX_STAGE_DEPTH {
        return Err(err(format!("stage tree deeper than limit {MAX_STAGE_DEPTH}")));
    }
    if *budget == 0 {
        return Err(err(format!("stage count exceeds limit {MAX_STAGES}")));
    }
    *budget -= 1;
    let name = r.string()?;
    let nanos = r.u64()?;
    let rows = match r.u8()? {
        0 => None,
        _ => Some(r.u64()?),
    };
    let nmeta = r.u16()?;
    if nmeta > MAX_META {
        return Err(err(format!("stage meta count {nmeta} exceeds limit {MAX_META}")));
    }
    let mut meta = Vec::with_capacity(nmeta.min(16) as usize);
    for _ in 0..nmeta {
        let k = r.string()?;
        let v = r.string()?;
        meta.push((k, v));
    }
    let nchildren = r.u16()?;
    let mut children = Vec::with_capacity(nchildren.min(16) as usize);
    for _ in 0..nchildren {
        children.push(decode_stage(r, depth + 1, budget)?);
    }
    Ok(obs::Stage { name, nanos, rows, meta, children })
}

// ---------------------------------------------------------------------------
// Progress events (the PROGRESS frame payload, protocol v4)
// ---------------------------------------------------------------------------

/// Encode a live [`obs::ProgressEvent`] (the PROGRESS frame payload):
///
/// ```text
/// progress := solver:str method:str elapsed_nanos:u64
///             nodes:u64 iterations:u64 evaluations:u64
///             has_incumbent:u8 [incumbent:f64]
///             has_bound:u8 [best_bound:f64]
/// ```
pub fn encode_progress(ev: &obs::ProgressEvent, out: &mut Vec<u8>) {
    put_str(out, &ev.solver);
    put_str(out, &ev.method);
    for v in [ev.elapsed_nanos, ev.nodes, ev.iterations, ev.evaluations] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for opt in [ev.incumbent, ev.best_bound] {
        match opt {
            Some(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            None => out.push(0),
        }
    }
}

/// Decode a progress event from a reader positioned at its start.
pub fn decode_progress(r: &mut Reader<'_>) -> Result<obs::ProgressEvent> {
    let solver = r.string()?;
    let method = r.string()?;
    let elapsed_nanos = r.u64()?;
    let nodes = r.u64()?;
    let iterations = r.u64()?;
    let evaluations = r.u64()?;
    let incumbent = match r.u8()? {
        0 => None,
        _ => Some(r.f64()?),
    };
    let best_bound = match r.u8()? {
        0 => None,
        _ => Some(r.f64()?),
    };
    Ok(obs::ProgressEvent {
        solver,
        method,
        elapsed_nanos,
        nodes,
        iterations,
        evaluations,
        incumbent,
        best_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::timeval;

    fn roundtrip_value(v: Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let mut r = Reader::new(&buf);
        let got = decode_value(&mut r).expect("decode");
        assert!(r.is_empty(), "decoder left {} byte(s)", r.remaining());
        got
    }

    #[test]
    fn value_roundtrips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(3.5),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::text(""),
            Value::text("héllo — ünïcode"),
            Value::Timestamp(timeval::parse_timestamp("2021-03-23 12:34:56").unwrap()),
            Value::Interval(timeval::MICROS_PER_HOUR * 36),
            Value::Bits(BitString::parse("10110").unwrap()),
        ] {
            assert_eq!(roundtrip_value(v.clone()), v, "round-trip of {v:?}");
        }
    }

    #[test]
    fn nan_float_roundtrips_bitwise() {
        let mut buf = Vec::new();
        encode_value(&Value::Float(f64::NAN), &mut buf);
        match decode_value(&mut Reader::new(&buf)).unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn table_roundtrips_with_all_types() {
        let t = Table::from_rows(
            &["i", "f", "s", "ts", "iv", "b"],
            vec![
                vec![
                    Value::Int(1),
                    Value::Float(0.5),
                    Value::text("one"),
                    Value::Timestamp(1_000_000),
                    Value::Interval(timeval::MICROS_PER_HOUR),
                    Value::Bits(BitString::parse("01").unwrap()),
                ],
                vec![Value::Null, Value::Null, Value::Null, Value::Null, Value::Null, Value::Null],
            ],
        );
        let got = decode_table(&encode_table(&t)).unwrap();
        assert_eq!(got, t);
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = Table::from_rows(&["a"], vec![]);
        assert_eq!(decode_table(&encode_table(&t)).unwrap(), t);
    }

    #[test]
    fn truncation_at_every_prefix_is_rejected() {
        let t = Table::from_rows(&["x", "y"], vec![vec![Value::Int(7), Value::text("abc")]]);
        let full = encode_table(&t);
        for cut in 0..full.len() {
            assert!(
                decode_table(&full[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly decoded"
            );
        }
        assert!(decode_table(&full).is_ok());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let t = Table::from_rows(&["x"], vec![vec![Value::Int(1)]]);
        let mut buf = encode_table(&t);
        buf.push(0xFF);
        assert!(decode_table(&buf).is_err());
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(decode_value(&mut Reader::new(&[0xEE])).is_err());
        assert!(decode_value(&mut Reader::new(&[super::tag::BOOL, 7])).is_err());
        // Bits wider than 64.
        let mut buf = vec![super::tag::BITS, 80];
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode_value(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn absurd_lengths_are_rejected_without_allocation() {
        // TEXT claiming u32::MAX bytes.
        let mut buf = vec![super::tag::TEXT];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_value(&mut Reader::new(&buf)).is_err());

        // Table claiming 2^31 rows with a 3-byte body.
        let t = Table::from_rows(&["x"], vec![]);
        let mut enc = encode_table(&t);
        let n = enc.len();
        enc[n - 4..].copy_from_slice(&(1u32 << 31).to_le_bytes());
        enc.extend_from_slice(&[0, 0, 0]);
        assert!(decode_table(&enc).is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = vec![super::tag::TEXT];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(decode_value(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn multi_kilobyte_table_roundtrips() {
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Float(i as f64 * 0.25),
                    Value::text(format!("row-{i}-{}", "x".repeat(i as usize % 40))),
                ]
            })
            .collect();
        let t = Table::from_rows(&["id", "v", "s"], rows);
        let enc = encode_table(&t);
        assert!(enc.len() > 4096, "expected a multi-KB payload, got {}", enc.len());
        assert_eq!(decode_table(&enc).unwrap(), t);
    }

    fn sample_trace() -> obs::QueryTrace {
        obs::QueryTrace {
            label: "SOLVESELECT".into(),
            total_nanos: 5_000_000,
            stages: vec![
                obs::Stage::leaf("parse", 100_000),
                obs::Stage {
                    name: "solve".into(),
                    nanos: 4_000_000,
                    rows: Some(2),
                    meta: vec![("solver".into(), "solverlp".into())],
                    children: vec![obs::Stage::leaf("compile", 1_000_000)],
                },
            ],
            solvers: vec![
                obs::SolverStats {
                    solver: "solverlp".into(),
                    method: "mip".into(),
                    iterations: 40,
                    nodes_explored: 7,
                    nodes_pruned: 3,
                    warm_starts: 5,
                    cold_starts: 1,
                    dual_pivots: 9,
                    refactorizations: 6,
                    evaluations: 0,
                    distinct_evaluations: 0,
                    restarts: 0,
                    presolve_cols: 2,
                    presolve_rows: 1,
                    presolve_bounds: 3,
                    objective: Some(6.5),
                    incumbents: vec![(1, 4.0), (5, 6.5)],
                    matrix_class: "setpart:3 knapsack:1".into(),
                    integrality_proof: "implied".into(),
                    blocks: 2,
                },
                obs::SolverStats {
                    solver: "swarmops".into(),
                    method: "pso".into(),
                    iterations: 10,
                    evaluations: 110,
                    distinct_evaluations: 23,
                    objective: Some(1.5),
                    ..obs::SolverStats::default()
                },
            ],
        }
    }

    #[test]
    fn trace_roundtrips() {
        let t = sample_trace();
        let mut buf = Vec::new();
        encode_trace(&t, &mut buf);
        let mut r = Reader::new(&buf);
        let got = decode_trace(&mut r).unwrap();
        assert!(r.is_empty(), "decoder left {} byte(s)", r.remaining());
        assert_eq!(got, t);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = obs::QueryTrace::default();
        let mut buf = Vec::new();
        encode_trace(&t, &mut buf);
        assert_eq!(decode_trace(&mut Reader::new(&buf)).unwrap(), t);
    }

    #[test]
    fn truncated_trace_is_rejected_at_every_prefix() {
        let mut buf = Vec::new();
        encode_trace(&sample_trace(), &mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(
                decode_trace(&mut r).is_err() || !r.is_empty(),
                "prefix of {cut} bytes decoded cleanly"
            );
        }
    }

    #[test]
    fn pathological_stage_depth_is_rejected() {
        // A stage nested beyond MAX_STAGE_DEPTH must error, not recurse
        // unboundedly.
        let mut deep = obs::Stage::leaf("s", 1);
        for _ in 0..80 {
            deep = obs::Stage {
                name: "s".into(),
                nanos: 1,
                rows: None,
                meta: vec![],
                children: vec![deep],
            };
        }
        let t = obs::QueryTrace {
            label: String::new(),
            total_nanos: 1,
            stages: vec![deep],
            solvers: vec![],
        };
        let mut buf = Vec::new();
        encode_trace(&t, &mut buf);
        assert!(decode_trace(&mut Reader::new(&buf)).is_err());
    }

    fn sample_progress() -> obs::ProgressEvent {
        obs::ProgressEvent {
            solver: "solverlp".into(),
            method: "mip".into(),
            elapsed_nanos: 1_500_000_000,
            nodes: 320,
            iterations: 4_100,
            evaluations: 0,
            incumbent: Some(6.5),
            best_bound: Some(9.25),
        }
    }

    #[test]
    fn progress_roundtrips() {
        for ev in [
            sample_progress(),
            obs::ProgressEvent::default(),
            obs::ProgressEvent {
                solver: "swarmops".into(),
                method: "pso".into(),
                elapsed_nanos: 42,
                nodes: 0,
                iterations: 17,
                evaluations: 680,
                incumbent: None,
                best_bound: None,
            },
        ] {
            let mut buf = Vec::new();
            encode_progress(&ev, &mut buf);
            let mut r = Reader::new(&buf);
            let got = decode_progress(&mut r).unwrap();
            assert!(r.is_empty(), "decoder left {} byte(s)", r.remaining());
            assert_eq!(got, ev);
        }
    }

    #[test]
    fn truncated_progress_is_rejected_at_every_prefix() {
        let mut buf = Vec::new();
        encode_progress(&sample_progress(), &mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(
                decode_progress(&mut r).is_err() || !r.is_empty(),
                "prefix of {cut} bytes decoded cleanly"
            );
        }
    }

    #[test]
    fn progress_with_absurd_string_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_progress(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn named_type_schema_roundtrips() {
        let schema = Schema::new(vec![
            Column::new("m", DataType::Named("model".into())),
            Column::new("x", DataType::Float),
        ]);
        let mut buf = Vec::new();
        encode_schema(&schema, &mut buf);
        let got = decode_schema(&mut Reader::new(&buf)).unwrap();
        assert_eq!(got, schema);
    }
}
