//! Program counts for the per-version columnar image and the plan cache:
//! what a read pivots, what a write keeps, and what stale plans may pin.

use sqlengine::plan::StoredTable;
use sqlengine::{execute_script, execute_sql, Database, Row, Table, Value};
use std::sync::{Arc, Weak};

/// Rows per scan chunk (`plan::columnar::BATCH_SIZE`).
const CHUNK: u64 = 1024;

/// `t (k INT, v FLOAT8, note TEXT)` with `rows` rows.
fn db_with(rows: i64) -> Database {
    let mut db = Database::new();
    execute_sql(&mut db, "CREATE TABLE t (k INT, v FLOAT8, note TEXT)").unwrap();
    db.append_rows("t", made(rows)).unwrap();
    db
}

/// [`db_with`], filled while another version of `t` was held: its rows
/// are in chunks of `CHUNK` rows, as those of a table on a data
/// directory are (a table written alone keeps one chunk of any length).
fn chunked_db_with(rows: i64) -> Database {
    let mut db = Database::new();
    execute_sql(&mut db, "CREATE TABLE t (k INT, v FLOAT8, note TEXT)").unwrap();
    let reader = db.stored_table("t").unwrap().clone();
    db.append_rows("t", made(rows)).unwrap();
    drop(reader);
    assert_eq!(
        db.stored_table("t").unwrap().chunks().len(),
        (rows as u64).div_ceil(CHUNK) as usize
    );
    db
}

/// Column chunks pivoted while running `sql`.
fn pivoted_by(db: &mut Database, sql: &str) -> u64 {
    let before = db.exec_counts();
    execute_sql(db, sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
    db.exec_counts().since(&before).columns_pivoted
}

#[test]
fn a_repeated_read_pivots_nothing() {
    let mut db = db_with(3 * CHUNK as i64 + 10);
    let sum = "SELECT sum(v) FROM t WHERE k < 100";
    assert_eq!(pivoted_by(&mut db, sum), 2 * 4, "k and v, four chunks each");
    assert_eq!(pivoted_by(&mut db, sum), 0, "same plan, same image");
    // Another plan over the same columns finds them in the image; one
    // that needs a third column pivots that column only.
    assert_eq!(pivoted_by(&mut db, "SELECT max(v), min(k) FROM t"), 0);
    assert_eq!(pivoted_by(&mut db, "SELECT k FROM t WHERE v > 3 ORDER BY k LIMIT 3"), 0);
    assert_eq!(pivoted_by(&mut db, "SELECT * FROM t WHERE k = 7"), 4, "`note` was missing");
    assert_eq!(pivoted_by(&mut db, "SELECT count(*) FROM t"), 0, "keeps no column");
    // The row interpreter reads `Table::rows` and leaves the image alone.
    let prev = db.set_force_row_interpreter(true);
    assert_eq!(pivoted_by(&mut db, sum), 0);
    db.set_force_row_interpreter(prev);
}

#[test]
fn a_read_after_an_insert_pivots_the_tail_chunk_only() {
    let mut db = db_with(2 * CHUNK as i64 + 10);
    let sum = "SELECT sum(v) FROM t WHERE k < 100";
    pivoted_by(&mut db, sum);
    execute_sql(&mut db, "INSERT INTO t VALUES (-1, 0.5, 'a'), (-2, 1.5, 'b')").unwrap();
    assert_eq!(pivoted_by(&mut db, sum), 2, "one chunk per scanned column");
    assert_eq!(pivoted_by(&mut db, sum), 0);
    // DELETE and UPDATE read through the image too, and the version they
    // start keeps the chunks in front of the first row they touch — for a
    // column UPDATE does not assign, every chunk.
    assert_eq!(pivoted_by(&mut db, "DELETE FROM t WHERE k = -1"), 0, "`k` is in the image");
    assert_eq!(pivoted_by(&mut db, sum), 2, "the tail chunk of `k` and of `v`");
    assert_eq!(pivoted_by(&mut db, "UPDATE t SET note = 'x' WHERE note = 'b'"), 3);
    assert_eq!(pivoted_by(&mut db, sum), 0, "`k` and `v` were not assigned");
    let noted = "SELECT count(*) FROM t WHERE note = 'x'";
    assert_eq!(pivoted_by(&mut db, noted), 1, "`note` changed in the tail chunk");
    // A write that touches no row keeps the whole image.
    assert_eq!(pivoted_by(&mut db, "DELETE FROM t WHERE k = -7"), 0);
    assert_eq!(pivoted_by(&mut db, "UPDATE t SET v = 0.0 WHERE k = -7"), 0);
    assert_eq!(pivoted_by(&mut db, sum) + pivoted_by(&mut db, noted), 0);
}

/// A view or FROM subquery is materialized into the plan, with an image
/// of its own: the cached plan re-executes without pivoting it again.
#[test]
fn captured_relations_are_pivoted_once_per_plan() {
    let mut db = db_with(CHUNK as i64 + 5);
    execute_sql(&mut db, "CREATE VIEW big AS SELECT k, v FROM t WHERE k >= 5").unwrap();
    for sql in [
        "SELECT count(*), sum(v) FROM big WHERE k < 500",
        "SELECT max(s.v) FROM (SELECT k, v FROM t WHERE v > 1) s WHERE s.k > 3",
    ] {
        assert!(pivoted_by(&mut db, sql) > 0, "{sql}");
        let again = execute_sql(&mut db, sql).unwrap();
        assert_eq!(again.plan_cache_hit, Some(true), "{sql}");
        assert_eq!(pivoted_by(&mut db, sql), 0, "{sql}");
    }
}

#[test]
fn explain_analyze_notes_what_each_scan_pivoted() {
    let mut db = db_with(CHUNK as i64 + 5);
    let scan_line = |db: &mut Database| -> String {
        let t = execute_sql(db, "EXPLAIN ANALYZE SELECT sum(v) FROM t").unwrap().into_table();
        let lines: Vec<String> = t.unwrap().rows.iter().map(|r| r[0].to_string()).collect();
        lines.into_iter().find(|l| l.contains("Scan t")).expect("a Scan line")
    };
    assert!(scan_line(&mut db).ends_with("pivoted=2"), "{}", scan_line(&mut db));
    assert!(scan_line(&mut db).ends_with("pivoted=0"));
}

/// 100 rounds of INSERT + DELETE + 8 reads that differ in a literal. A
/// write drops the plans that read the table it writes: were they kept,
/// the map would grow to its size bound and every stale plan would keep
/// the table version it had scanned alive.
#[test]
fn stale_plans_pin_neither_the_map_nor_dead_table_versions() {
    let mut db = db_with(2 * CHUNK as i64 + 100);
    let mut versions: Vec<Weak<Table>> = Vec::new();
    for round in 0..100i64 {
        execute_script(
            &mut db,
            &format!(
                "INSERT INTO t VALUES ({}, 1.0, 'round');
                 DELETE FROM t WHERE k = {}",
                10_000 + round,
                10_000 + round - 1
            ),
        )
        .unwrap();
        versions.push(Arc::downgrade(db.table("t").unwrap()));
        for i in 0..8 {
            let lit = round * 8 + i;
            let sql = match i % 3 {
                0 => format!("SELECT count(*), sum(v) FROM t WHERE k = {lit}"),
                1 => format!("SELECT k, v FROM t WHERE k IN ({lit}, 3) ORDER BY k"),
                _ => format!("SELECT a.k FROM t a JOIN t b ON a.k = b.k WHERE a.k = {lit}"),
            };
            let r = execute_sql(&mut db, &sql).unwrap();
            assert_eq!(r.plan_cache_hit, Some(false), "{sql}");
        }
        assert!(db.plan_cache_len() <= 8, "round {round}: {} plans cached", db.plan_cache_len());
        // The catalog, and each scan of the plans cached since the write.
        let holders = Arc::strong_count(db.table("t").unwrap());
        assert!(holders <= 1 + 8 + 3, "round {round}: {holders} holders");
    }
    let alive = versions.iter().filter(|v| v.upgrade().is_some()).count();
    assert_eq!(alive, 1, "only the current version of `t` is alive");
    assert_eq!(db.table("t").unwrap().num_rows(), 2 * CHUNK as usize + 101);
}

/// Rows the catalog writes of `sql` copied because another version
/// shared them.
fn copied_by(db: &mut Database, sql: &str) -> u64 {
    let before = db.exec_counts();
    execute_sql(db, sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
    db.exec_counts().since(&before).rows_copied
}

/// The addresses of `t`'s row chunks.
fn chunk_ptrs(db: &Database) -> Vec<*const Table> {
    db.stored_table("t").unwrap().chunks().iter().map(Arc::as_ptr).collect()
}

#[test]
fn a_write_after_reads_is_in_place() {
    let mut db = db_with(CHUNK as i64);
    for lit in 0..4 {
        execute_sql(&mut db, &format!("SELECT sum(v) FROM t WHERE k > {lit}")).unwrap();
    }
    let before = chunk_ptrs(&db);
    assert_eq!(copied_by(&mut db, "INSERT INTO t VALUES (-1, 0.0, NULL)"), 0);
    let inserted = chunk_ptrs(&db);
    assert_eq!(inserted, before, "INSERT copied the table");
    let first_row = |db: &Database| db.stored_table("t").unwrap().chunks()[0].rows.as_ptr();
    let row_buffer = first_row(&db);
    // DELETE and UPDATE rewrite the same chunks and the same row storage.
    execute_sql(&mut db, "SELECT count(*) FROM t WHERE k < 0").unwrap();
    assert_eq!(copied_by(&mut db, "UPDATE t SET note = 'neg' WHERE k < 0"), 0);
    assert_eq!(chunk_ptrs(&db), inserted, "UPDATE copied a chunk");
    assert_eq!(first_row(&db), row_buffer, "UPDATE copied the rows");
    execute_sql(&mut db, "SELECT count(*) FROM t WHERE note = 'neg'").unwrap();
    assert_eq!(copied_by(&mut db, "DELETE FROM t WHERE note = 'neg'"), 0);
    assert_eq!(chunk_ptrs(&db), before, "DELETE copied the table");
    assert_eq!(first_row(&db), row_buffer, "DELETE copied the rows");
    assert_eq!(db.stored_table("t").unwrap().num_rows(), CHUNK as usize);
}

/// `t`'s rows `0..n` as [`db_with`] made them.
fn made(n: i64) -> Vec<Row> {
    (0..n).map(|i| vec![Value::Int(i), Value::Float(i as f64 / 4.0), Value::Null]).collect()
}

/// `t`'s rows through its columnar image.
fn imaged(t: &StoredTable) -> Vec<Row> {
    let (batches, _) = t.scan(None);
    batches
        .iter()
        .flat_map(|b| (0..b.len).map(move |i| b.cols.iter().map(|c| c.get(i)).collect()))
        .collect()
}

/// An INSERT into a table another version holds copies at most the
/// chunk it lands in, never the table; the other version reads as it
/// was, and consecutive versions share every whole chunk.
#[test]
fn appends_to_a_shared_table_copy_one_chunk() {
    const ROWS: i64 = 100_000;
    let mut db = chunked_db_with(ROWS);
    let first = db.stored_table("t").unwrap().clone();
    let mut readers = vec![first.clone()];
    for i in 0..100 {
        let copied = copied_by(&mut db, &format!("INSERT INTO t VALUES ({}, 0.5, 'new')", -i));
        let tail = (ROWS + i) as u64 % CHUNK;
        assert_eq!(copied, tail, "insert {i} copied the shared tail chunk and nothing else");
        assert!(copied <= CHUNK);
        let now = db.stored_table("t").unwrap().clone();
        let prev = readers.last().unwrap();
        let full = prev.num_rows() / CHUNK as usize;
        assert_eq!(now.chunks().len(), full + 1);
        for (a, b) in prev.chunks()[..full].iter().zip(now.chunks()) {
            assert!(Arc::ptr_eq(a, b), "insert {i} copied a whole chunk");
        }
        readers.push(now);
    }
    assert_eq!(first.rows().cloned().collect::<Vec<_>>(), made(ROWS));
    assert_eq!(imaged(&first), made(ROWS));
    for (i, reader) in readers.iter().enumerate() {
        assert_eq!(reader.num_rows(), ROWS as usize + i);
    }
    assert_eq!(db.stored_table("t").unwrap().rows().last().unwrap()[0], Value::Int(-99));
}

/// A DELETE copies the shared chunks from its first touched one on, an
/// UPDATE the shared chunks it patches; the chunks in front stay shared.
#[test]
fn a_rewrite_of_a_shared_table_copies_from_its_first_touched_chunk() {
    let n = 5 * CHUNK as i64;
    let mut db = chunked_db_with(n);
    let reader = db.stored_table("t").unwrap().clone();
    let gone = 2 * CHUNK as i64 + 7;
    let copied = copied_by(&mut db, &format!("DELETE FROM t WHERE k = {gone}"));
    assert_eq!(copied, 3 * CHUNK - 1, "chunks 2, 3 and 4 but the deleted row");
    let t = db.stored_table("t").unwrap().clone();
    assert!((0..2).all(|c| Arc::ptr_eq(&reader.chunks()[c], &t.chunks()[c])));
    assert!((2..5).all(|c| !Arc::ptr_eq(&reader.chunks()[c], &t.chunks()[c])));
    assert_eq!(t.chunks().iter().map(|c| c.num_rows() as u64).sum::<u64>(), 5 * CHUNK - 1);

    let patched = 3 * CHUNK as i64 + 1;
    let copied = copied_by(&mut db, &format!("UPDATE t SET note = 'x' WHERE k = {patched}"));
    assert_eq!(copied, CHUNK, "the one chunk the row is in");
    let u = db.stored_table("t").unwrap();
    let shared: Vec<bool> = (0..5).map(|c| Arc::ptr_eq(&t.chunks()[c], &u.chunks()[c])).collect();
    assert_eq!(shared, [true, true, true, false, true]);
    assert_eq!(reader.rows().cloned().collect::<Vec<_>>(), made(n), "the reader's version");
    let mut want = made(n);
    want.remove(gone as usize);
    want[patched as usize - 1][2] = Value::text("x");
    assert_eq!(u.rows().cloned().collect::<Vec<_>>(), want);
    assert_eq!(imaged(u), want);
}

/// Dropping a superseded version frees the chunks it alone held and
/// nothing another version still holds.
#[test]
fn a_superseded_version_frees_only_its_own_chunks() {
    let mut db = chunked_db_with(3 * CHUNK as i64 + 10);
    let old = db.stored_table("t").unwrap().clone();
    let weak: Vec<Weak<Table>> = old.chunks().iter().map(Arc::downgrade).collect();
    execute_sql(&mut db, "INSERT INTO t VALUES (-1, 0.0, NULL)").unwrap();
    drop(old);
    let alive: Vec<bool> = weak.iter().map(|w| w.upgrade().is_some()).collect();
    assert_eq!(alive, [true, true, true, false], "the copied tail went with its version");

    let old = db.stored_table("t").unwrap().clone();
    let weak: Vec<Weak<Table>> = old.chunks().iter().map(Arc::downgrade).collect();
    execute_sql(&mut db, &format!("DELETE FROM t WHERE k = {}", CHUNK + 2)).unwrap();
    drop(old);
    let alive: Vec<bool> = weak.iter().map(|w| w.upgrade().is_some()).collect();
    assert_eq!(alive, [true, false, false, false], "chunks 1 on were re-chunked");
}

/// `CREATE OR REPLACE VIEW` over a table is refused: otherwise reads of
/// the name would see the view while INSERTs wrote the hidden table.
#[test]
fn a_view_never_replaces_a_table() {
    let mut db = Database::new();
    execute_script(&mut db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1)").unwrap();
    let err = execute_sql(&mut db, "CREATE OR REPLACE VIEW t AS SELECT 42 AS b").unwrap_err();
    assert_eq!(err.to_string(), "catalog error: relation 't' is not a view");
    assert!(db.view("t").is_none());
    execute_sql(&mut db, "INSERT INTO t VALUES (5)").unwrap();
    let t = execute_sql(&mut db, "SELECT a FROM t ORDER BY a").unwrap().into_table().unwrap();
    assert_eq!(t.rows, [vec![Value::Int(1)], vec![Value::Int(5)]]);
    // A view still replaces a view.
    execute_sql(&mut db, "CREATE VIEW v AS SELECT 1 AS b").unwrap();
    execute_sql(&mut db, "CREATE OR REPLACE VIEW v AS SELECT 2 AS b").unwrap();
}
