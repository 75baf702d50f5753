//! Stored tables: one version of a table's rows together with what the
//! engine derives from exactly those rows — the *columnar image* scans
//! read, and the planner's statistics.
//!
//! [`Table::rows`] stays the row-major source of truth. The image is the
//! same rows pivoted into the [`BATCH_SIZE`] chunks of `Arc<ColumnVec>`
//! the executor exchanges, built column by column the first time a scan
//! keeps that column, so a scan assembles its batches from `Arc` clones
//! and every later scan of the version — by any plan — pivots nothing.
//!
//! Validity is by construction: the derived half is private to
//! [`StoredTable`], reachable only next to the `TableRef` it was derived
//! from, and the two mutations — [`StoredTable::append`] (INSERT) and
//! [`StoredTable::rewrite`] (DELETE, UPDATE) — move both halves to the
//! next version together, keeping of the image the chunks the write left
//! as they were. Everything else that changes a table's rows makes a
//! fresh `StoredTable`. The derived half holds no
//! `TableRef`, so it never stands in the way of an in-place write.

use super::columnar::{Batch, ColumnVec, BATCH_SIZE};
use super::stats::TableStats;
use crate::table::{Row, Table, TableRef};
use std::sync::{Arc, Mutex, OnceLock};

/// Per source column, the chunks pivoted so far: chunk `i` mirrors rows
/// `i * BATCH_SIZE ..`, and the list is always a prefix of the table's
/// chunks (empty until a scan keeps the column).
type ColumnChunks = Vec<Vec<Arc<ColumnVec>>>;

#[derive(Debug)]
struct Derived {
    columns: Mutex<ColumnChunks>,
    stats: OnceLock<Arc<TableStats>>,
}

/// A table as the engine stores it: the catalog holds one per table, a
/// plan holds a clone of the one it scans (or a private one around the
/// rows of a view or FROM subquery it materialized).
#[derive(Debug, Clone)]
pub struct StoredTable {
    table: TableRef,
    derived: Arc<Derived>,
}

impl StoredTable {
    pub fn new(table: TableRef) -> StoredTable {
        let columns = Mutex::new(vec![Vec::new(); table.schema.len()]);
        StoredTable { table, derived: Arc::new(Derived { columns, stats: OnceLock::new() }) }
    }

    pub fn table(&self) -> &TableRef {
        &self.table
    }

    /// Planner statistics of this version, collected on first use.
    pub fn stats(&self) -> Arc<TableStats> {
        self.derived.stats.get_or_init(|| Arc::new(TableStats::collect(&self.table))).clone()
    }

    /// The table as scan batches of the source columns in `keep` (all of
    /// them when `None`), and how many column chunks had to be pivoted
    /// for it — zero once every kept column is in the image.
    pub(crate) fn scan(&self, keep: Option<&[usize]>) -> (Vec<Batch>, u64) {
        let rows = &self.table.rows;
        let all: Vec<usize>;
        let keep = match keep {
            Some(keep) => keep,
            None => {
                all = (0..self.table.schema.len()).collect();
                &all
            }
        };
        // A scan that panicked mid-pivot left a shorter but still valid
        // prefix behind: chunks are pushed whole, one at a time.
        let mut columns = self.derived.columns.lock().unwrap_or_else(|p| p.into_inner());
        let mut pivoted = 0;
        for &c in keep {
            let have = columns[c].len();
            for chunk in rows.chunks(BATCH_SIZE).skip(have) {
                columns[c].push(Arc::new(ColumnVec::pivot(chunk, c)));
                pivoted += 1;
            }
        }
        let batches = rows
            .chunks(BATCH_SIZE)
            .enumerate()
            .map(|(i, chunk)| Batch {
                cols: keep.iter().map(|&c| columns[c][i].clone()).collect(),
                len: chunk.len(),
            })
            .collect();
        (batches, pivoted)
    }

    /// Append rows, in place when nothing else holds the table. The next
    /// version's image starts from the chunks the new rows leave whole;
    /// the next scan re-pivots the tail chunk onwards.
    pub(crate) fn append(&mut self, rows: impl IntoIterator<Item = Row>) {
        let whole = self.table.rows.len() / BATCH_SIZE;
        Arc::make_mut(&mut self.table).rows.extend(rows);
        self.next_version(|_| whole);
    }

    /// Delete or patch rows through `edit` — in place when nothing else
    /// holds the table, on a copy otherwise — none of them in front of
    /// row `first_touched` (the row count when none is touched at all).
    /// The next version's image starts from the chunks in front of that
    /// row, which still mirror theirs; when `edit` only assigns to the
    /// columns in `assigned` and keeps every row where it is (UPDATE),
    /// the other columns keep all their chunks.
    pub(crate) fn rewrite(
        &mut self,
        first_touched: usize,
        assigned: Option<&[usize]>,
        edit: impl FnOnce(&mut Table),
    ) {
        let touched = first_touched < self.table.rows.len();
        let untouched = if touched { first_touched / BATCH_SIZE } else { usize::MAX };
        edit(Arc::make_mut(&mut self.table));
        self.next_version(|c| match assigned {
            Some(assigned) if !assigned.contains(&c) => usize::MAX,
            _ => untouched,
        });
    }

    /// Start the derived half of the version the rows have just moved
    /// to: of column `c`'s chunks the first `keep(c)` (those the write
    /// left as they were), and no statistics. A derived half shared with
    /// a reader is copied chunk list by chunk list, a unique one taken.
    fn next_version(&mut self, keep: impl Fn(usize) -> usize) {
        let mut columns = match Arc::get_mut(&mut self.derived) {
            Some(d) => std::mem::take(d.columns.get_mut().unwrap_or_else(|p| p.into_inner())),
            None => self.derived.columns.lock().unwrap_or_else(|p| p.into_inner()).clone(),
        };
        for (c, chunks) in columns.iter_mut().enumerate() {
            chunks.truncate(keep(c));
        }
        self.derived = Arc::new(Derived { columns: Mutex::new(columns), stats: OnceLock::new() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn numbered(n: usize) -> StoredTable {
        let rows = (0..n as i64).map(|i| vec![Value::Int(i), Value::Float(i as f64)]).collect();
        StoredTable::new(Arc::new(Table::from_rows(&["a", "b"], rows)))
    }

    fn column(batches: &[Batch], c: usize) -> Vec<Value> {
        batches.iter().flat_map(|b| (0..b.len).map(move |i| b.cols[c].get(i))).collect()
    }

    #[test]
    fn a_column_is_pivoted_once_per_version() {
        let t = numbered(2 * BATCH_SIZE + 10);
        let (batches, pivoted) = t.scan(Some(&[1]));
        assert_eq!((batches.len(), pivoted), (3, 3));
        assert_eq!(batches[2].len, 10);
        assert_eq!(column(&batches, 0)[BATCH_SIZE + 1], Value::Float((BATCH_SIZE + 1) as f64));
        // The same column again — through a clone, as another plan would.
        assert_eq!(t.clone().scan(Some(&[1])).1, 0);
        // Full width pivots only what is missing.
        let (batches, pivoted) = t.scan(None);
        assert_eq!((batches[0].cols.len(), pivoted), (2, 3));
        assert!(Arc::ptr_eq(&batches[1].cols[1], &t.scan(Some(&[1])).0[1].cols[0]));
    }

    #[test]
    fn a_scan_that_keeps_no_column_still_counts_rows() {
        let (batches, pivoted) = numbered(BATCH_SIZE + 1).scan(Some(&[]));
        assert_eq!(batches.iter().map(|b| b.len).collect::<Vec<_>>(), [BATCH_SIZE, 1]);
        assert_eq!(pivoted, 0);
        assert!(numbered(0).scan(None).0.is_empty());
    }

    #[test]
    fn append_keeps_whole_chunks_and_repivots_the_tail() {
        let mut t = numbered(BATCH_SIZE + 5);
        let whole = t.scan(Some(&[0])).0[0].cols[0].clone();
        let reader = t.clone();
        t.append(vec![vec![Value::Int(-1), Value::Null]]);
        // The reader's version is untouched (copy-on-write)…
        assert_eq!(reader.table().num_rows(), BATCH_SIZE + 5);
        assert_eq!(reader.scan(Some(&[0])).1, 0);
        // …and the new one re-pivots only the chunk the row landed in.
        let (batches, pivoted) = t.scan(Some(&[0]));
        assert_eq!(pivoted, 1);
        assert!(Arc::ptr_eq(&batches[0].cols[0], &whole));
        assert_eq!(column(&batches, 0).last(), Some(&Value::Int(-1)));
        assert_eq!(t.stats().row_count, BATCH_SIZE + 6);

        // Alone, the append is in place; crossing a chunk boundary pivots
        // the old tail and the new chunk.
        drop(reader);
        let at = Arc::as_ptr(t.table());
        t.append((0..BATCH_SIZE as i64).map(|i| vec![Value::Int(i), Value::Null]));
        assert_eq!(Arc::as_ptr(t.table()), at);
        assert_eq!(t.scan(Some(&[0])).1, 2);
        assert_eq!(t.scan(Some(&[1])).1, 3, "`b` was never scanned before");
    }

    #[test]
    fn rewrite_keeps_the_chunks_in_front_of_the_first_touched_row() {
        let mut t = numbered(3 * BATCH_SIZE + 5);
        let before = t.scan(None).0;
        let reader = t.clone();
        // DELETE: a row of the third chunk goes, the rows behind it move.
        let gone = 2 * BATCH_SIZE + 1;
        t.rewrite(gone, None, |table| {
            table.rows.remove(gone);
        });
        assert_eq!(reader.table().num_rows(), 3 * BATCH_SIZE + 5, "the reader's version stays");
        let (after, pivoted) = t.scan(None);
        assert_eq!(pivoted, 2 * 2, "chunks 2 and 3 of both columns");
        for chunk in 0..2 {
            assert!(Arc::ptr_eq(&after[chunk].cols[0], &before[chunk].cols[0]));
            assert!(Arc::ptr_eq(&after[chunk].cols[1], &before[chunk].cols[1]));
        }
        assert_eq!(column(&after, 0)[gone], Value::Int(gone as i64 + 1));
        assert_eq!(t.stats().row_count, 3 * BATCH_SIZE + 4, "statistics start over");

        // UPDATE: `b` is assigned in the second chunk; `a` keeps every
        // chunk, `b` the first.
        drop(reader);
        let at = Arc::as_ptr(t.table());
        let patched = BATCH_SIZE + 3;
        t.rewrite(patched, Some(&[1]), |table| table.rows[patched][1] = Value::Float(-1.0));
        assert_eq!(Arc::as_ptr(t.table()), at, "alone, the rewrite is in place");
        let (again, pivoted) = t.scan(None);
        assert_eq!(pivoted, 3, "chunks 1 to 3 of `b`");
        assert!((0..4).all(|chunk| Arc::ptr_eq(&again[chunk].cols[0], &after[chunk].cols[0])));
        assert!(Arc::ptr_eq(&again[0].cols[1], &after[0].cols[1]));
        assert_eq!(column(&again, 1)[patched], Value::Float(-1.0));

        // A write that touches no row keeps the whole image, tail included.
        t.rewrite(usize::MAX, None, |_| {});
        assert_eq!(t.scan(None).1, 0);
    }
}
