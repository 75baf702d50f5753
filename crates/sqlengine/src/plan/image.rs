//! Stored tables: one version of a table's rows together with what the
//! engine derives from exactly those rows — the *columnar image* scans
//! read, and the planner's statistics.
//!
//! A version keeps its rows in shared *chunks* ([`RowChunk`]), aligned
//! with the image's [`BATCH_SIZE`]-row chunks: either one *lone* chunk
//! of any length — a version made by [`StoredTable::new`] keeps its table,
//! and writes to it in place while nobody else holds it — or chunks of
//! `BATCH_SIZE` rows (the last one may be shorter), shared by every
//! version that has not written them. A chunked version never grows a
//! chunk past `BATCH_SIZE`, even written alone. The image is the same rows pivoted into the
//! `Arc<ColumnVec>` columns the executor exchanges, built column by
//! column the first time a scan keeps that column, so a scan assembles
//! its batches from `Arc` clones and every later scan of the version — by
//! any plan — pivots nothing.
//!
//! A write moves the rows and the image to the next version together. A
//! version nobody else holds is written in place — every write of an
//! ephemeral session. Otherwise [`StoredTable::append`] (INSERT) clones
//! the chunk list and copies at most the last chunk, and only when
//! another version holds it; [`StoredTable::rewrite`] copies, of the
//! chunks another version holds, those from a DELETE's first touched
//! chunk on and those an UPDATE patches. A one-chunk version longer than
//! `BATCH_SIZE` that a write finds shared is copied into chunks first,
//! once. The image keeps the chunks the write left as they were, and
//! dropping a superseded version frees only the chunks no other version
//! holds. Each write returns the rows it copied
//! (`ExecCounts::rows_copied`).
//!
//! Statement paths read the chunks, the image or the schema;
//! [`StoredTable::table`] is a contiguous [`Table`] — the one chunk, or
//! assembled once per version — for callers outside a statement.

use super::columnar::{Batch, ColumnVec, BATCH_SIZE};
use super::stats::TableStats;
use crate::table::{Row, Schema, Table, TableRef};
use crate::types::Value;
use std::sync::{Arc, Mutex, OnceLock};

/// Rows of a table version under its schema: all of them, or at most
/// [`BATCH_SIZE`] consecutive ones, shared by every version that has not
/// written them.
pub type RowChunk = TableRef;

/// Per source column, the chunks pivoted so far: chunk `i` mirrors rows
/// `i * BATCH_SIZE ..`, and the list is always a prefix of the table's
/// chunks (empty until a scan keeps the column).
type ColumnChunks = Vec<Vec<Arc<ColumnVec>>>;

struct Version {
    schema: Schema,
    /// One chunk of any length when `lone`, else chunks of `BATCH_SIZE`
    /// rows but the last; none empty but a lone one.
    chunks: Vec<RowChunk>,
    /// The version keeps a table's rows as one chunk, written in place
    /// while nothing else holds it; cleared by the first write that finds
    /// it shared.
    lone: bool,
    len: usize,
    columns: Mutex<ColumnChunks>,
    stats: OnceLock<Arc<TableStats>>,
    /// The rows of several chunks as one table, once a caller outside a
    /// statement asked for it.
    table: OnceLock<TableRef>,
}

/// The start of the next version: the same chunks and image (`Arc`
/// clones), nothing derived from the rows as a whole.
impl Clone for Version {
    fn clone(&self) -> Version {
        Version {
            schema: self.schema.clone(),
            chunks: self.chunks.clone(),
            lone: self.lone,
            len: self.len,
            columns: Mutex::new(self.columns.lock().unwrap_or_else(|p| p.into_inner()).clone()),
            stats: OnceLock::new(),
            table: OnceLock::new(),
        }
    }
}

/// What a DELETE or UPDATE does to a version's rows, decided against it
/// beforehand.
#[derive(Debug)]
pub enum Rewrite {
    /// Remove the rows whose flag is set (one flag per row).
    Delete(Vec<bool>),
    /// Set, per `(row, values)` patch in ascending row order, column
    /// `columns[j]` of the row to `values[j]`.
    Update { columns: Vec<usize>, patches: Vec<(usize, Vec<Value>)> },
}

/// A table as the engine stores it: the catalog holds one per table, a
/// plan holds a clone of the one it scans (or a private one around the
/// rows of a view or FROM subquery it materialized). A clone is the same
/// version; a write to one clone starts a version of its own.
#[derive(Clone)]
pub struct StoredTable {
    version: Arc<Version>,
}

impl std::fmt::Debug for StoredTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Rows<'a>(&'a StoredTable);
        impl std::fmt::Debug for Rows<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.rows()).finish()
            }
        }
        f.debug_struct("StoredTable")
            .field("schema", &self.version.schema)
            .field("rows", &Rows(self))
            .finish()
    }
}

impl StoredTable {
    /// `table` as a version of one lone chunk.
    pub fn new(table: Table) -> StoredTable {
        let (schema, len) = (table.schema.clone(), table.num_rows());
        StoredTable::of_chunks(schema, len, vec![Arc::new(table)], true)
    }

    /// `table`'s rows moved into chunks of `BATCH_SIZE` rows — for a
    /// version other versions will share from the start (what recovery
    /// reads).
    pub fn chunked(table: Table) -> StoredTable {
        let Table { schema, rows } = table;
        let len = rows.len();
        let chunks = into_chunks(&schema, rows);
        StoredTable::of_chunks(schema, len, chunks, false)
    }

    fn of_chunks(schema: Schema, len: usize, chunks: Vec<RowChunk>, lone: bool) -> StoredTable {
        let columns = Mutex::new(vec![Vec::new(); schema.len()]);
        let (stats, table) = (OnceLock::new(), OnceLock::new());
        let version = Version { schema, chunks, lone, len, columns, stats, table };
        StoredTable { version: Arc::new(version) }
    }

    pub fn schema(&self) -> &Schema {
        &self.version.schema
    }

    pub fn num_rows(&self) -> usize {
        self.version.len
    }

    /// The tables holding the rows, in order: one of any length, or one
    /// per `BATCH_SIZE` rows.
    pub fn chunks(&self) -> &[RowChunk] {
        &self.version.chunks
    }

    /// The rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.version.chunks.iter().flat_map(|c| c.rows.iter())
    }

    /// True when `self` and `other` are the same version: nothing was
    /// written to either since one was cloned from the other.
    pub fn same_version(&self, other: &StoredTable) -> bool {
        Arc::ptr_eq(&self.version, &other.version)
    }

    /// [`Self::same_version`] of two optional tables: true also when
    /// neither is there.
    pub fn same_versions(a: Option<&StoredTable>, b: Option<&StoredTable>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => a.same_version(b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// The version as one contiguous table: its one chunk, or the rows of
    /// its chunks copied into one table the first time it is asked for —
    /// for callers outside a statement (tests, tools, `Database::table`).
    pub fn table(&self) -> &TableRef {
        let v = &*self.version;
        match v.chunks.as_slice() {
            [one] => one,
            _ => v.table.get_or_init(|| {
                Arc::new(Table::with_rows(v.schema.clone(), self.rows().cloned().collect()))
            }),
        }
    }

    /// Planner statistics of this version, made on first use (see
    /// [`TableStats`]: a column's distinct count waits for its first
    /// reader).
    pub fn stats(&self) -> Arc<TableStats> {
        let v = &self.version;
        v.stats.get_or_init(|| Arc::new(TableStats::new(v.len, v.schema.len()))).clone()
    }

    /// The table as scan batches of the source columns in `keep` (all of
    /// them when `None`), and how many column chunks had to be pivoted
    /// for it — zero once every kept column is in the image.
    pub fn scan(&self, keep: Option<&[usize]>) -> (Vec<Batch>, u64) {
        let v = &*self.version;
        let all: Vec<usize>;
        let keep = match keep {
            Some(keep) => keep,
            None => {
                all = (0..v.schema.len()).collect();
                &all
            }
        };
        let n = v.len.div_ceil(BATCH_SIZE);
        // A scan that panicked mid-pivot left a shorter but still valid
        // prefix behind: chunks are pushed whole, one at a time.
        let mut columns = v.columns.lock().unwrap_or_else(|p| p.into_inner());
        let mut pivoted = 0;
        for &c in keep {
            for i in columns[c].len()..n {
                columns[c].push(Arc::new(ColumnVec::pivot(v.rows_of(i), c)));
                pivoted += 1;
            }
        }
        let batches = (0..n)
            .map(|i| Batch {
                cols: keep.iter().map(|&c| columns[c][i].clone()).collect(),
                len: BATCH_SIZE.min(v.len - i * BATCH_SIZE),
            })
            .collect();
        (batches, pivoted)
    }

    /// Append rows; returns how many rows were copied because another
    /// version held the last chunk (at most `BATCH_SIZE - 1`, or the
    /// whole of a longer lone chunk). The next version's image keeps the
    /// chunks that were full; the next scan pivots the last chunk onwards.
    pub fn append(&mut self, rows: impl IntoIterator<Item = Row>) -> u64 {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return 0;
        }
        let v = self.next_version();
        let full = v.len / BATCH_SIZE;
        v.keep_image(|_| full);
        if let Some(table) = v.alone() {
            table.rows.extend(rows);
            let len = table.rows.len();
            v.len = len;
            return 0;
        }
        let mut copied = v.split();
        while rows.peek().is_some() {
            if v.chunks.last().is_none_or(|last| last.rows.len() == BATCH_SIZE) {
                v.chunks.push(Arc::new(Table::new(v.schema.clone())));
            }
            let Some(last) = v.chunks.last_mut() else { break };
            let chunk = unshare(last, &mut copied);
            let before = chunk.len();
            chunk.extend(rows.by_ref().take(BATCH_SIZE - before));
            v.len += chunk.len() - before;
        }
        copied
    }

    /// Delete or patch rows; returns how many rows were copied because
    /// another version held their chunk. A DELETE re-chunks the rows from
    /// its first touched chunk on; an UPDATE patches the chunks it
    /// touches. The next version's image keeps the chunks in front of
    /// the first touched row, which still mirror theirs, and — UPDATE —
    /// every chunk of a column it does not assign. A rewrite that touches
    /// no row leaves the version as it is.
    pub fn rewrite(&mut self, edit: Rewrite) -> u64 {
        match edit {
            Rewrite::Delete(hits) => {
                let Some(first) = hits.iter().position(|hit| *hit) else { return 0 };
                let v = self.next_version();
                let from = first / BATCH_SIZE;
                v.keep_image(|_| from);
                if let Some(table) = v.alone() {
                    let mut hit = hits.iter();
                    table.rows.retain(|_| hit.next() == Some(&false));
                    let len = table.rows.len();
                    v.len = len;
                    return 0;
                }
                let mut copied = v.split();
                let mut hit = hits[from * BATCH_SIZE..].iter();
                let mut stays = |_: &Row| hit.next() == Some(&false);
                let mut kept: Vec<Row> = Vec::new();
                for chunk in v.chunks.split_off(from) {
                    match Arc::try_unwrap(chunk) {
                        Ok(t) => kept.extend(t.rows.into_iter().filter(|r| stays(r))),
                        Err(shared) => {
                            let before = kept.len();
                            kept.extend(shared.rows.iter().filter(|r| stays(r)).cloned());
                            copied += (kept.len() - before) as u64;
                        }
                    }
                }
                v.len = from * BATCH_SIZE + kept.len();
                v.chunks.extend(into_chunks(&v.schema, kept));
                copied
            }
            Rewrite::Update { columns, patches } => {
                let Some(&(first, _)) = patches.first() else { return 0 };
                let v = self.next_version();
                let kept = first / BATCH_SIZE;
                v.keep_image(|c| if columns.contains(&c) { kept } else { usize::MAX });
                if let Some(table) = v.alone() {
                    for (row, values) in patches {
                        for (&c, value) in columns.iter().zip(values) {
                            table.rows[row][c] = value;
                        }
                    }
                    return 0;
                }
                let mut copied = v.split();
                for (row, values) in patches {
                    let chunk = unshare(&mut v.chunks[row / BATCH_SIZE], &mut copied);
                    for (&c, value) in columns.iter().zip(values) {
                        chunk[row % BATCH_SIZE][c] = value;
                    }
                }
                copied
            }
        }
    }

    /// The version a write is about to make: this one, when nothing else
    /// holds it, or a fresh one sharing its chunks and image; either way
    /// with nothing derived from the rows as a whole.
    fn next_version(&mut self) -> &mut Version {
        let v = Arc::make_mut(&mut self.version);
        v.stats = OnceLock::new();
        v.table = OnceLock::new();
        v
    }
}

impl Version {
    /// Rows `i * BATCH_SIZE ..` of the version, at most `BATCH_SIZE`.
    fn rows_of(&self, i: usize) -> &[Row] {
        match self.chunks.as_slice() {
            [one] => &one.rows[i * BATCH_SIZE..self.len.min((i + 1) * BATCH_SIZE)],
            chunks => &chunks[i].rows,
        }
    }

    /// The lone chunk to write in place, when the version has one and
    /// nothing else holds it.
    fn alone(&mut self) -> Option<&mut Table> {
        match self.chunks.as_mut_slice() {
            [one] if self.lone && Arc::strong_count(one) == 1 => Some(Arc::make_mut(one)),
            _ => None,
        }
    }

    /// The version in chunks of `BATCH_SIZE` from here on: a shared lone
    /// chunk of more than `BATCH_SIZE` rows is copied into them (an empty
    /// one goes); returns the rows copied.
    fn split(&mut self) -> u64 {
        if !std::mem::take(&mut self.lone) {
            return 0;
        }
        match self.chunks.as_slice() {
            [one] if one.rows.len() > BATCH_SIZE => {
                let rows = one.rows.clone();
                self.chunks = into_chunks(&self.schema, rows);
                self.len as u64
            }
            [one] if one.rows.is_empty() => {
                self.chunks.clear();
                0
            }
            _ => 0,
        }
    }

    /// Of column `c`'s image, keep the first `keep(c)` chunks: those the
    /// write leaves as they are.
    fn keep_image(&mut self, keep: impl Fn(usize) -> usize) {
        let columns = self.columns.get_mut().unwrap_or_else(|p| p.into_inner());
        for (c, chunks) in columns.iter_mut().enumerate() {
            chunks.truncate(keep(c));
        }
    }
}

/// `rows` moved into chunks of `BATCH_SIZE` rows under `schema` (none
/// for no rows).
fn into_chunks(schema: &Schema, rows: Vec<Row>) -> Vec<RowChunk> {
    let chunk = |rows: Vec<Row>| Arc::new(Table::with_rows(schema.clone(), rows));
    if rows.len() <= BATCH_SIZE {
        return (!rows.is_empty()).then(|| chunk(rows)).into_iter().collect();
    }
    let n = rows.len().div_ceil(BATCH_SIZE);
    let mut rows = rows.into_iter();
    (0..n).map(|_| chunk(rows.by_ref().take(BATCH_SIZE).collect())).collect()
}

/// `chunk`'s rows to write, copied first (and counted in `copied`) when
/// another version holds them.
fn unshare<'a>(chunk: &'a mut RowChunk, copied: &mut u64) -> &'a mut Vec<Row> {
    if Arc::strong_count(chunk) > 1 {
        *copied += chunk.rows.len() as u64;
        let mut rows = Vec::with_capacity(BATCH_SIZE);
        rows.extend(chunk.rows.iter().cloned());
        *chunk = Arc::new(Table::with_rows(chunk.schema.clone(), rows));
    }
    &mut Arc::make_mut(chunk).rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn rows(n: usize) -> Table {
        let rows = (0..n as i64).map(|i| vec![Value::Int(i), Value::Float(i as f64)]).collect();
        Table::from_rows(&["a", "b"], rows)
    }

    fn numbered(n: usize) -> StoredTable {
        StoredTable::chunked(rows(n))
    }

    fn column(batches: &[Batch], c: usize) -> Vec<Value> {
        batches.iter().flat_map(|b| (0..b.len).map(move |i| b.cols[c].get(i))).collect()
    }

    fn lens(t: &StoredTable) -> Vec<usize> {
        t.chunks().iter().map(|c| c.num_rows()).collect()
    }

    #[test]
    fn a_column_is_pivoted_once_per_version() {
        for t in [numbered(2 * BATCH_SIZE + 10), StoredTable::new(rows(2 * BATCH_SIZE + 10))] {
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
    }

    #[test]
    fn a_scan_that_keeps_no_column_still_counts_rows() {
        let (batches, pivoted) = numbered(BATCH_SIZE + 1).scan(Some(&[]));
        assert_eq!(batches.iter().map(|b| b.len).collect::<Vec<_>>(), [BATCH_SIZE, 1]);
        assert_eq!(pivoted, 0);
        assert!(numbered(0).scan(None).0.is_empty());
        assert!(numbered(0).chunks().is_empty());
        assert_eq!(lens(&StoredTable::new(rows(0))), [0]);
        assert_eq!(numbered(0).table().schema.len(), 2);
    }

    #[test]
    fn append_keeps_full_chunks_and_repivots_the_last() {
        let mut t = numbered(BATCH_SIZE + 5);
        let full = t.scan(Some(&[0])).0[0].cols[0].clone();
        let reader = t.clone();
        assert_eq!(t.append(vec![vec![Value::Int(-1), Value::Null]]), 5, "the shared last chunk");
        // The reader's version is untouched (copy-on-write)…
        assert_eq!(reader.num_rows(), BATCH_SIZE + 5);
        assert_eq!(reader.scan(Some(&[0])).1, 0);
        assert!(Arc::ptr_eq(&reader.chunks()[0], &t.chunks()[0]), "the full chunk is shared");
        // …and the new one re-pivots only the chunk the row landed in.
        let (batches, pivoted) = t.scan(Some(&[0]));
        assert_eq!(pivoted, 1);
        assert!(Arc::ptr_eq(&batches[0].cols[0], &full));
        assert_eq!(column(&batches, 0).last(), Some(&Value::Int(-1)));
        assert_eq!(t.stats().row_count, BATCH_SIZE + 6);

        // Alone, the append is in place; crossing a chunk boundary pivots
        // the old last chunk and the new one.
        drop(reader);
        let last = Arc::as_ptr(&t.chunks()[1]);
        let more = (0..BATCH_SIZE as i64).map(|i| vec![Value::Int(i), Value::Null]);
        assert_eq!(t.append(more), 0);
        assert_eq!(Arc::as_ptr(&t.chunks()[1]), last);
        assert_eq!(lens(&t), [BATCH_SIZE, BATCH_SIZE, 6]);
        assert_eq!(t.scan(Some(&[0])).1, 2);
        assert_eq!(t.scan(Some(&[1])).1, 3, "`b` was never scanned before");
        assert_eq!(t.table().num_rows(), 2 * BATCH_SIZE + 6);
    }

    /// A version made from a table keeps it as its one chunk: written in
    /// place while alone, copied into chunks once by a write that finds
    /// it shared.
    #[test]
    fn a_lone_chunk_is_written_in_place_until_it_is_shared() {
        let mut t = StoredTable::new(rows(2 * BATCH_SIZE + 3));
        let at = Arc::as_ptr(t.table());
        assert_eq!(t.append(vec![vec![Value::Int(-1), Value::Null]]), 0);
        let mut hits = vec![false; t.num_rows()];
        hits[BATCH_SIZE] = true;
        assert_eq!(t.rewrite(Rewrite::Delete(hits)), 0);
        let patch = Rewrite::Update { columns: vec![1], patches: vec![(3, vec![Value::Null])] };
        assert_eq!(t.rewrite(patch), 0);
        assert_eq!((Arc::as_ptr(t.table()), lens(&t)), (at, vec![2 * BATCH_SIZE + 3]));
        assert_eq!(t.scan(None).0.iter().map(|b| b.len).collect::<Vec<_>>(), [1024, 1024, 3]);

        let reader = t.clone();
        assert_eq!(t.append(vec![vec![Value::Int(-2), Value::Null]]), 2 * BATCH_SIZE as u64 + 3);
        assert_eq!(lens(&t), [BATCH_SIZE, BATCH_SIZE, 4]);
        assert_eq!(Arc::as_ptr(reader.table()), at, "the reader keeps the table");
        assert_eq!(t.table().rows[..t.num_rows() - 1], reader.table().rows[..]);
        assert_eq!(t.table().rows[3][1], Value::Null);
    }

    /// A chunked version of one short chunk — what recovery reads — and
    /// a lone one a shared write split stay chunked written alone: no
    /// chunk grows past `BATCH_SIZE`, so no later shared write copies
    /// more than one.
    #[test]
    fn a_chunked_version_stays_chunked_when_written_alone() {
        let more = || (0..2 * BATCH_SIZE as i64).map(|i| vec![Value::Int(i), Value::Null]);
        let mut t = numbered(5);
        let first = Arc::as_ptr(&t.chunks()[0]);
        assert_eq!(t.append(more()), 0);
        assert_eq!(lens(&t), [BATCH_SIZE, BATCH_SIZE, 5]);
        assert_eq!(Arc::as_ptr(&t.chunks()[0]), first, "filled in place");

        let mut t = StoredTable::new(rows(5));
        let reader = t.clone();
        assert_eq!(t.append(vec![vec![Value::Int(-1), Value::Null]]), 5);
        drop(reader);
        assert_eq!(t.append(more()), 0);
        assert_eq!(lens(&t), [BATCH_SIZE, BATCH_SIZE, 6]);
        let reader = t.clone();
        assert_eq!(t.append(vec![vec![Value::Int(-2), Value::Null]]), 6);
        drop(reader);

        let mut t = StoredTable::new(rows(0));
        let reader = t.clone();
        assert_eq!(t.append(more()), 0);
        assert_eq!((lens(&t), lens(&reader)), (vec![BATCH_SIZE, BATCH_SIZE], vec![0]));
    }

    #[test]
    fn rewrite_keeps_the_chunks_in_front_of_the_first_touched_row() {
        let mut t = numbered(3 * BATCH_SIZE + 5);
        let before = t.scan(None).0;
        let reader = t.clone();
        // DELETE: a row of the third chunk goes, the rows behind it move.
        let gone = 2 * BATCH_SIZE + 1;
        let mut hits = vec![false; t.num_rows()];
        hits[gone] = true;
        assert_eq!(t.rewrite(Rewrite::Delete(hits)), (BATCH_SIZE + 4) as u64);
        assert_eq!(reader.num_rows(), 3 * BATCH_SIZE + 5, "the reader's version stays");
        assert!((0..2).all(|c| Arc::ptr_eq(&reader.chunks()[c], &t.chunks()[c])));
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
        let at = Arc::as_ptr(&t.chunks()[1]);
        let patched = BATCH_SIZE + 3;
        let patch = vec![(patched, vec![Value::Float(-1.0)])];
        assert_eq!(t.rewrite(Rewrite::Update { columns: vec![1], patches: patch }), 0);
        assert_eq!(Arc::as_ptr(&t.chunks()[1]), at, "alone, the rewrite is in place");
        let (again, pivoted) = t.scan(None);
        assert_eq!(pivoted, 3, "chunks 1 to 3 of `b`");
        assert!((0..4).all(|chunk| Arc::ptr_eq(&again[chunk].cols[0], &after[chunk].cols[0])));
        assert!(Arc::ptr_eq(&again[0].cols[1], &after[0].cols[1]));
        assert_eq!(column(&again, 1)[patched], Value::Float(-1.0));

        // A write that touches no row keeps the version, image included.
        let reader = t.clone();
        assert_eq!(t.rewrite(Rewrite::Delete(vec![false; t.num_rows()])), 0);
        let nothing = Rewrite::Update { columns: vec![0], patches: Vec::new() };
        assert_eq!(t.rewrite(nothing), 0);
        assert!(t.same_version(&reader));
        assert_eq!(t.scan(None).1, 0);
    }
}
