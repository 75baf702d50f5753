//! WAL record encoding: logical catalog mutations framed with a length
//! prefix and CRC-32 checksum.
//!
//! ```text
//! frame   := len:u32 crc:u32 body[len]        (crc = CRC-32 of body)
//! body    := lsn:u64 kind:u8 payload
//! payload :=
//!   kind 0x01 CREATE_TABLE  name:str table        (wire table encoding)
//!   kind 0x02 DROP_TABLE    name:str
//!   kind 0x03 PUT_TABLE     name:str table
//!   kind 0x04 APPEND_ROWS   name:str nrows:u32 (ncols:u16 value*)*
//!   kind 0x05 CREATE_VIEW   name:str sql:str
//!   kind 0x06 DROP_VIEW     name:str
//! str     := len:u32 utf8[len]
//! ```
//!
//! All integers are little-endian, matching the `sqlengine::wire`
//! codec the payloads reuse. Decoding is defensive — truncation, bad
//! tags and absurd lengths error rather than panic — because recovery
//! feeds it arbitrary torn file tails.

use crate::crc::crc32;
use sqlengine::catalog::CatalogMutation;
use sqlengine::error::{Error, Result};
use sqlengine::plan::StoredTable;
use sqlengine::table::Row;
use sqlengine::wire::{self, Reader};

/// Upper bound for one record body (64 MiB) — rejects absurd length
/// prefixes before any allocation.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

/// Fixed bytes of framing before the body.
pub const FRAME_HEADER_LEN: usize = 8;

mod kind {
    pub const CREATE_TABLE: u8 = 0x01;
    pub const DROP_TABLE: u8 = 0x02;
    pub const PUT_TABLE: u8 = 0x03;
    pub const APPEND_ROWS: u8 = 0x04;
    pub const CREATE_VIEW: u8 = 0x05;
    pub const DROP_VIEW: u8 = 0x06;
}

fn err(msg: impl Into<String>) -> Error {
    Error::eval(format!("wal: {}", msg.into()))
}

/// One decoded WAL record.
#[derive(Debug, Clone)]
pub struct Record {
    pub lsn: u64,
    pub mutation: CatalogMutation,
}

/// Append the full frame (header + body) for one mutation.
pub fn encode_record(lsn: u64, mutation: &CatalogMutation, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(&lsn.to_le_bytes());
    match mutation {
        CatalogMutation::CreateTable { name, table } => {
            body.push(kind::CREATE_TABLE);
            wire::put_str(&mut body, name);
            body.extend_from_slice(&encode_stored(table));
        }
        CatalogMutation::DropTable { name } => {
            body.push(kind::DROP_TABLE);
            wire::put_str(&mut body, name);
        }
        CatalogMutation::PutTable { name, table } => {
            body.push(kind::PUT_TABLE);
            wire::put_str(&mut body, name);
            body.extend_from_slice(&encode_stored(table));
        }
        CatalogMutation::AppendRows { name, rows } => {
            body.push(kind::APPEND_ROWS);
            wire::put_str(&mut body, name);
            body.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for row in rows {
                body.extend_from_slice(&(row.len() as u16).to_le_bytes());
                for v in row {
                    wire::encode_value(v, &mut body);
                }
            }
        }
        CatalogMutation::CreateView { name, sql } => {
            body.push(kind::CREATE_VIEW);
            wire::put_str(&mut body, name);
            wire::put_str(&mut body, sql);
        }
        CatalogMutation::DropView { name } => {
            body.push(kind::DROP_VIEW);
            wire::put_str(&mut body, name);
        }
    }
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
}

/// A table version in the wire table encoding, read chunk by chunk.
pub(crate) fn encode_stored(table: &StoredTable) -> Vec<u8> {
    wire::encode_rows(table.schema(), table.num_rows(), table.rows())
}

/// Decode one record body (after the frame header was validated).
pub fn decode_body(body: &[u8]) -> Result<Record> {
    let mut r = Reader::new(body);
    let lsn = r.u64()?;
    let kind = r.u8()?;
    let name = r.string()?;
    let mutation = match kind {
        kind::CREATE_TABLE => {
            let table = wire::decode_table_from(&mut r)?;
            CatalogMutation::CreateTable { name, table: StoredTable::chunked(table) }
        }
        kind::DROP_TABLE => CatalogMutation::DropTable { name },
        kind::PUT_TABLE => {
            let table = wire::decode_table_from(&mut r)?;
            CatalogMutation::PutTable { name, table: StoredTable::chunked(table) }
        }
        kind::APPEND_ROWS => {
            let nrows = r.u32()?;
            // Each row carries at least a 2-byte arity prefix.
            if (nrows as usize).saturating_mul(2) > r.remaining() {
                return Err(err("row count inconsistent with record length"));
            }
            let mut rows: Vec<Row> = Vec::with_capacity(nrows as usize);
            for _ in 0..nrows {
                let ncols = r.u16()?;
                let mut row = Vec::with_capacity(ncols as usize);
                for _ in 0..ncols {
                    row.push(wire::decode_value(&mut r)?);
                }
                rows.push(row);
            }
            CatalogMutation::AppendRows { name, rows }
        }
        kind::CREATE_VIEW => {
            let sql = r.string()?;
            CatalogMutation::CreateView { name, sql }
        }
        kind::DROP_VIEW => CatalogMutation::DropView { name },
        other => return Err(err(format!("unknown record kind 0x{other:02x}"))),
    };
    if !r.is_empty() {
        return Err(err(format!("{} trailing byte(s) in record body", r.remaining())));
    }
    Ok(Record { lsn, mutation })
}

/// Outcome of scanning one frame at `buf[offset..]`.
pub enum FrameScan {
    /// A valid record; `next` is the offset of the following frame.
    Valid { record: Record, next: usize },
    /// End of buffer exactly at a frame boundary.
    Clean,
    /// Torn or corrupt frame starting at this offset — everything from
    /// `offset` on must be truncated. The string says why.
    Torn(String),
}

/// Scan the frame starting at `offset`, validating length, checksum and
/// payload structure.
pub fn scan_frame(buf: &[u8], offset: usize) -> FrameScan {
    let rest = &buf[offset..];
    if rest.is_empty() {
        return FrameScan::Clean;
    }
    if rest.len() < FRAME_HEADER_LEN {
        return FrameScan::Torn(format!("short frame header ({} byte(s))", rest.len()));
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    if len > MAX_RECORD_LEN {
        return FrameScan::Torn(format!("record length {len} exceeds limit {MAX_RECORD_LEN}"));
    }
    let body_end = FRAME_HEADER_LEN + len as usize;
    if rest.len() < body_end {
        return FrameScan::Torn(format!(
            "truncated body: need {len} byte(s), have {}",
            rest.len() - FRAME_HEADER_LEN
        ));
    }
    let body = &rest[FRAME_HEADER_LEN..body_end];
    if crc32(body) != crc {
        return FrameScan::Torn("checksum mismatch".to_string());
    }
    match decode_body(body) {
        Ok(record) => FrameScan::Valid { record, next: offset + body_end },
        Err(e) => FrameScan::Torn(format!("undecodable body: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::table::Table;
    use sqlengine::types::Value;

    fn sample_mutations() -> Vec<CatalogMutation> {
        let t = StoredTable::new(Table::from_rows(
            &["a", "b"],
            vec![vec![Value::Int(1), Value::text("x")], vec![Value::Null, Value::Float(0.5)]],
        ));
        vec![
            CatalogMutation::CreateTable { name: "t".into(), table: t.clone() },
            CatalogMutation::AppendRows {
                name: "t".into(),
                rows: vec![vec![Value::Int(2), Value::text("y")]],
            },
            CatalogMutation::PutTable { name: "t".into(), table: t },
            CatalogMutation::CreateView { name: "v".into(), sql: "SELECT a FROM t".into() },
            CatalogMutation::DropView { name: "v".into() },
            CatalogMutation::DropTable { name: "t".into() },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for (i, m) in sample_mutations().into_iter().enumerate() {
            let mut buf = Vec::new();
            encode_record(i as u64 + 1, &m, &mut buf);
            match scan_frame(&buf, 0) {
                FrameScan::Valid { record, next } => {
                    assert_eq!(record.lsn, i as u64 + 1);
                    assert_eq!(next, buf.len());
                    assert_eq!(format!("{:?}", record.mutation), format!("{m:?}"));
                }
                _ => panic!("record {i} did not scan as valid"),
            }
        }
    }

    #[test]
    fn every_truncation_is_torn_not_panic() {
        let mut buf = Vec::new();
        for (i, m) in sample_mutations().into_iter().enumerate() {
            encode_record(i as u64, &m, &mut buf);
        }
        for cut in 0..buf.len() {
            let prefix = &buf[..cut];
            // Walk valid frames; the walk must terminate at Clean or Torn.
            let mut off = 0;
            while let FrameScan::Valid { next, .. } = scan_frame(prefix, off) {
                assert!(next > off, "no progress at offset {off}");
                off = next;
            }
            assert!(off <= cut);
        }
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let mut buf = Vec::new();
        encode_record(7, &sample_mutations()[0], &mut buf);
        for i in FRAME_HEADER_LEN..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(scan_frame(&bad, 0), FrameScan::Torn(_)),
                "corruption at byte {i} undetected"
            );
        }
    }
}
