//! Full-catalog binary snapshots.
//!
//! A snapshot is the complete durable state of a [`Database`] — table
//! schemas and rows, view definitions (canonical SQL), registered UDF
//! names — plus the LSN of the last WAL record it covers. Recovery
//! loads the newest *valid* snapshot and replays only WAL records with
//! a higher LSN.
//!
//! ```text
//! snapshot := magic:"SDBSNP01" crc:u32 body      (crc = CRC-32 of body)
//! body     := last_lsn:u64
//!             ntables:u32 (name:str table)*      (wire table encoding)
//!             nviews:u32  (name:str sql:str)*
//!             nudfs:u32   (name:str)*
//! ```
//!
//! Writes are atomic: encode to `<name>.tmp`, fsync, rename into
//! place. A crash mid-write leaves only a `.tmp` the loader ignores; a
//! corrupt (partially synced) snapshot fails its CRC and the loader
//! falls back to the previous one. UDF names are informational — UDFs
//! are code, re-registered by the session at startup; the snapshot
//! records which ones existed so recovery can report a mismatch.

use crate::crc::crc32;
use sqlengine::catalog::Database;
use sqlengine::error::{Error, Result};
use sqlengine::plan::StoredTable;
use sqlengine::wire::{self, Reader};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"SDBSNP01";

/// Defensive bound on relations in one snapshot.
const MAX_RELATIONS: u32 = 1 << 20;

fn err(msg: impl Into<String>) -> Error {
    Error::eval(format!("snapshot: {}", msg.into()))
}

fn io_err(ctx: &str, e: std::io::Error) -> Error {
    Error::eval(format!("snapshot: {ctx}: {e}"))
}

/// Decoded snapshot contents.
#[derive(Debug)]
pub struct SnapshotData {
    /// LSN of the last WAL record the snapshot covers.
    pub last_lsn: u64,
    pub tables: Vec<(String, StoredTable)>,
    /// Views as `(name, canonical SQL)`.
    pub views: Vec<(String, String)>,
    /// UDF names registered when the snapshot was taken.
    pub udfs: Vec<String>,
    /// File the snapshot was loaded from.
    pub path: PathBuf,
}

/// File name for a snapshot covering `last_lsn` (zero-padded so the
/// lexical order of directory entries is the numeric LSN order).
pub fn snapshot_file_name(last_lsn: u64) -> String {
    format!("snapshot-{last_lsn:020}.sdb")
}

fn encode(
    last_lsn: u64,
    tables: &[(String, StoredTable)],
    views: &[(String, String)],
    udfs: &[String],
) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(&last_lsn.to_le_bytes());
    body.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for (name, table) in tables {
        wire::put_str(&mut body, name);
        body.extend_from_slice(&crate::record::encode_stored(table));
    }
    body.extend_from_slice(&(views.len() as u32).to_le_bytes());
    for (name, sql) in views {
        wire::put_str(&mut body, name);
        wire::put_str(&mut body, sql);
    }
    body.extend_from_slice(&(udfs.len() as u32).to_le_bytes());
    for name in udfs {
        wire::put_str(&mut body, name);
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn decode(bytes: &[u8], path: &Path) -> Result<SnapshotData> {
    if bytes.len() < 12 || &bytes[..8] != MAGIC {
        return Err(err("bad magic"));
    }
    let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let body = &bytes[12..];
    if crc32(body) != crc {
        return Err(err("checksum mismatch"));
    }
    let mut r = Reader::new(body);
    let last_lsn = r.u64()?;
    let ntables = r.u32()?;
    if ntables > MAX_RELATIONS {
        return Err(err(format!("table count {ntables} exceeds limit")));
    }
    let mut tables = Vec::with_capacity(ntables as usize);
    for _ in 0..ntables {
        let name = r.string()?;
        let table = wire::decode_table_from(&mut r)?;
        tables.push((name, StoredTable::chunked(table)));
    }
    let nviews = r.u32()?;
    if nviews > MAX_RELATIONS {
        return Err(err(format!("view count {nviews} exceeds limit")));
    }
    let mut views = Vec::with_capacity(nviews as usize);
    for _ in 0..nviews {
        let name = r.string()?;
        let sql = r.string()?;
        views.push((name, sql));
    }
    let nudfs = r.u32()?;
    if nudfs > MAX_RELATIONS {
        return Err(err(format!("udf count {nudfs} exceeds limit")));
    }
    let mut udfs = Vec::with_capacity(nudfs as usize);
    for _ in 0..nudfs {
        udfs.push(r.string()?);
    }
    if !r.is_empty() {
        return Err(err(format!("{} trailing byte(s)", r.remaining())));
    }
    Ok(SnapshotData { last_lsn, tables, views, udfs, path: path.to_path_buf() })
}

/// Atomically write a snapshot of `db` covering `last_lsn`; returns the
/// final path and the encoded size in bytes.
pub fn write_snapshot(dir: &Path, db: &Database, last_lsn: u64) -> Result<(PathBuf, u64)> {
    write_snapshot_parts(
        dir,
        last_lsn,
        &db.relations().tables_snapshot(),
        &db.relations().views_snapshot(),
        &db.udf_names(),
    )
}

/// Atomically write a snapshot from explicit state lists (the engine's
/// current relations plus the checkpointing session's UDF names).
pub fn write_snapshot_parts(
    dir: &Path,
    last_lsn: u64,
    tables: &[(String, StoredTable)],
    views: &[(String, String)],
    udfs: &[String],
) -> Result<(PathBuf, u64)> {
    let bytes = encode(last_lsn, tables, views, udfs);
    let final_path = dir.join(snapshot_file_name(last_lsn));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(last_lsn)));
    {
        let mut f = File::create(&tmp_path).map_err(|e| io_err("create tmp", e))?;
        f.write_all(&bytes).map_err(|e| io_err("write tmp", e))?;
        f.sync_data().map_err(|e| io_err("fsync tmp", e))?;
    }
    fs::rename(&tmp_path, &final_path).map_err(|e| io_err("rename into place", e))?;
    // Best-effort directory sync so the rename itself is durable.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok((final_path, bytes.len() as u64))
}

/// Delete snapshots older than `keep_lsn` (called after a new snapshot
/// is durably in place) plus any stale `.tmp` leftovers.
pub fn prune_snapshots(dir: &Path, keep_lsn: u64) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") && name.starts_with("snapshot-") {
            let _ = fs::remove_file(entry.path());
            continue;
        }
        if let Some(lsn) = parse_snapshot_name(&name) {
            if lsn < keep_lsn {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snapshot-")?.strip_suffix(".sdb")?;
    rest.parse::<u64>().ok()
}

/// Load the newest valid snapshot in `dir`, falling back to older ones
/// when the newest fails validation (e.g. a partially synced file that
/// survived a crash). Returns `None` when no usable snapshot exists.
/// `rejected` collects `(file name, reason)` for every snapshot that
/// failed to load — surfaced in recovery stats.
pub fn load_latest(dir: &Path, rejected: &mut Vec<(String, String)>) -> Option<SnapshotData> {
    let entries = fs::read_dir(dir).ok()?;
    let mut candidates: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            parse_snapshot_name(&name).map(|lsn| (lsn, e.path()))
        })
        .collect();
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    for (_, path) in candidates {
        match fs::read(&path) {
            Ok(bytes) => match decode(&bytes, &path) {
                Ok(snap) => return Some(snap),
                Err(e) => {
                    rejected.push((path.to_string_lossy().into_owned(), e.to_string()));
                }
            },
            Err(e) => rejected.push((path.to_string_lossy().into_owned(), e.to_string())),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::parser;
    use sqlengine::table::Table;
    use sqlengine::types::Value;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdb-snap-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Table::from_rows(&["a", "b"], vec![vec![Value::Int(1), Value::text("x")]]),
            false,
        )
        .unwrap();
        let q = parser::parse_query("SELECT a FROM t WHERE b = 'x'").unwrap();
        db.create_view("v", q, false).unwrap();
        db
    }

    #[test]
    fn snapshot_roundtrips() {
        let dir = tmpdir("roundtrip");
        let db = sample_db();
        let (path, bytes) = write_snapshot(&dir, &db, 42).unwrap();
        assert!(bytes > 0);
        assert!(path.exists());
        let mut rejected = Vec::new();
        let snap = load_latest(&dir, &mut rejected).unwrap();
        assert!(rejected.is_empty());
        assert_eq!(snap.last_lsn, 42);
        assert_eq!(snap.tables.len(), 1);
        assert_eq!(snap.tables[0].0, "t");
        assert_eq!(snap.tables[0].1.num_rows(), 1);
        // Views round-trip as their *canonical* rendering (which may
        // parenthesize expressions), and must re-parse.
        assert_eq!(snap.views.len(), 1);
        assert_eq!(snap.views[0].0, "v");
        assert!(parser::parse_query(&snap.views[0].1).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmpdir("fallback");
        let db = sample_db();
        write_snapshot(&dir, &db, 10).unwrap();
        let (newest, _) = write_snapshot(&dir, &db, 20).unwrap();
        // Corrupt the newest in the body region.
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let mut rejected = Vec::new();
        let snap = load_latest(&dir, &mut rejected).unwrap();
        assert_eq!(snap.last_lsn, 10, "should fall back to the older snapshot");
        assert_eq!(rejected.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_only_the_latest() {
        let dir = tmpdir("prune");
        let db = sample_db();
        write_snapshot(&dir, &db, 1).unwrap();
        write_snapshot(&dir, &db, 2).unwrap();
        write_snapshot(&dir, &db, 3).unwrap();
        prune_snapshots(&dir, 3);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![snapshot_file_name(3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let dir = tmpdir("trunc");
        let db = sample_db();
        let (path, _) = write_snapshot(&dir, &db, 5).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            assert!(
                decode(&full[..cut], &path).is_err(),
                "prefix of {cut} bytes unexpectedly decoded"
            );
        }
        assert!(decode(&full, &path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
