//! The write-ahead log file: append-only frames, torn-tail recovery.
//!
//! A WAL is a single file (`wal.log`) of back-to-back record frames
//! (see [`crate::record`]). Opening scans the file front to back; the
//! first frame that fails validation — short header, absurd length,
//! truncated body, checksum mismatch, undecodable payload — marks the
//! torn tail, which is physically truncated so the file ends at the
//! last durable record. Everything before it replays.

use crate::record::{encode_record, scan_frame, FrameScan, Record};
use sqlengine::catalog::CatalogMutation;
use sqlengine::error::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

fn io_err(ctx: &str, e: std::io::Error) -> Error {
    Error::eval(format!("storage: {ctx}: {e}"))
}

/// What scanning an existing log produced.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Valid records in log order.
    pub records: Vec<Record>,
    /// Bytes of torn tail removed, 0 for a clean log.
    pub truncated_bytes: u64,
    /// Why the tail was torn (`None` for a clean log).
    pub torn_reason: Option<String>,
}

/// An open, append-positioned write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Current file length (== append offset).
    bytes: u64,
    /// Records currently in the file.
    records: u64,
    /// Highest LSN present in the file (0 when empty).
    last_lsn: u64,
}

impl Wal {
    /// Open (creating if absent) and scan the log, truncating any torn
    /// tail so the file ends at the last valid record.
    pub fn open(path: &Path) -> Result<(Wal, WalScan)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open wal", e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf).map_err(|e| io_err("read wal", e))?;

        let mut scan = WalScan::default();
        let mut valid = 0usize;
        loop {
            match scan_frame(&buf, valid) {
                FrameScan::Valid { record, next } => {
                    scan.records.push(record);
                    valid = next;
                }
                FrameScan::Clean => break,
                FrameScan::Torn(reason) => {
                    scan.truncated_bytes = (buf.len() - valid) as u64;
                    scan.torn_reason = Some(reason);
                    break;
                }
            }
        }
        if scan.truncated_bytes > 0 {
            file.set_len(valid as u64).map_err(|e| io_err("truncate torn tail", e))?;
            file.sync_data().map_err(|e| io_err("fsync after truncate", e))?;
        }
        file.seek(SeekFrom::Start(valid as u64)).map_err(|e| io_err("seek wal end", e))?;
        let last_lsn = scan.records.last().map(|r| r.lsn).unwrap_or(0);
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            bytes: valid as u64,
            records: scan.records.len() as u64,
            last_lsn,
        };
        Ok((wal, scan))
    }

    /// Append a batch of mutations as one contiguous write (group
    /// commit), optionally fsyncing. LSNs must be ascending. Returns
    /// `(bytes written, nanos spent in fsync)` — the fsync time is 0
    /// when no sync was requested, so callers can feed the `wal.fsync`
    /// latency histogram.
    pub fn append(&mut self, batch: &[(u64, CatalogMutation)], fsync: bool) -> Result<(u64, u64)> {
        if batch.is_empty() {
            return Ok((0, 0));
        }
        let mut frames = Vec::new();
        for (lsn, m) in batch {
            encode_record(*lsn, m, &mut frames);
        }
        self.file.write_all(&frames).map_err(|e| io_err("append wal", e))?;
        let fsync_nanos = if fsync {
            let started = std::time::Instant::now();
            self.file.sync_data().map_err(|e| io_err("fsync wal", e))?;
            started.elapsed().as_nanos() as u64
        } else {
            0
        };
        self.bytes += frames.len() as u64;
        self.records += batch.len() as u64;
        if let Some((lsn, _)) = batch.last() {
            self.last_lsn = *lsn;
        }
        Ok((frames.len() as u64, fsync_nanos))
    }

    /// Force an fsync (used by the `interval` policy's deadline).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| io_err("fsync wal", e))
    }

    /// Rotate after a checkpoint: records up to the snapshot's LSN are
    /// covered by the snapshot, so the log restarts empty. Crash-safe
    /// ordering: the snapshot is durably renamed *before* this runs,
    /// and replay skips records with LSN ≤ the snapshot's anyway.
    pub fn rotate(&mut self) -> Result<()> {
        self.file.set_len(0).map_err(|e| io_err("rotate wal", e))?;
        self.file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seek rotated wal", e))?;
        self.file.sync_data().map_err(|e| io_err("fsync rotated wal", e))?;
        self.bytes = 0;
        self.records = 0;
        Ok(())
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::plan::StoredTable;
    use sqlengine::table::Table;
    use sqlengine::types::Value;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdb-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mutations(n: u64) -> Vec<(u64, CatalogMutation)> {
        (1..=n)
            .map(|i| {
                (
                    i,
                    CatalogMutation::AppendRows {
                        name: "t".into(),
                        rows: vec![vec![Value::Int(i as i64), Value::text(format!("r{i}"))]],
                    },
                )
            })
            .collect()
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = tmpdir("reopen");
        let path = dir.join("wal.log");
        {
            let (mut wal, scan) = Wal::open(&path).unwrap();
            assert!(scan.records.is_empty());
            wal.append(&mutations(5), true).unwrap();
        }
        let (wal, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(wal.last_lsn(), 5);
        let lsns: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_byte_boundary() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&mutations(4), true).unwrap();
            let t = StoredTable::new(Table::from_rows(&["x"], vec![vec![Value::Int(9)]]));
            wal.append(&[(5, CatalogMutation::PutTable { name: "t".into(), table: t })], true)
                .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            let torn_path = dir.join(format!("wal-{cut}.log"));
            std::fs::write(&torn_path, &full[..cut]).unwrap();
            let (wal, scan) = Wal::open(&torn_path).unwrap();
            // Replayed records must be a prefix of the committed sequence.
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r.lsn, i as u64 + 1, "cut {cut}: out-of-order replay");
            }
            assert!(scan.records.len() <= 5);
            // The file was physically truncated to the valid prefix:
            // reopening again must be clean.
            assert_eq!(wal.bytes(), std::fs::metadata(&torn_path).unwrap().len());
            let (_, rescan) = Wal::open(&torn_path).unwrap();
            assert_eq!(rescan.truncated_bytes, 0, "cut {cut}: second open not clean");
            assert_eq!(rescan.records.len(), scan.records.len());
            let _ = std::fs::remove_file(&torn_path);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotate_empties_the_log() {
        let dir = tmpdir("rotate");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&mutations(3), true).unwrap();
        assert!(wal.bytes() > 0);
        wal.rotate().unwrap();
        assert_eq!(wal.bytes(), 0);
        let (_, scan) = Wal::open(&path).unwrap();
        assert!(scan.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
