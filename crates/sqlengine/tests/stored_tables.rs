//! Program counts for the per-version columnar image and the plan cache:
//! what a read pivots, what a write keeps, and what stale plans may pin.

use sqlengine::{execute_script, execute_sql, Database, Table, Value};
use std::sync::{Arc, Weak};

/// Rows per scan chunk (`plan::columnar::BATCH_SIZE`).
const CHUNK: u64 = 1024;

/// `t (k INT, v FLOAT8, note TEXT)` with `rows` rows.
fn db_with(rows: i64) -> Database {
    let mut db = Database::new();
    execute_sql(&mut db, "CREATE TABLE t (k INT, v FLOAT8, note TEXT)").unwrap();
    let data = (0..rows).map(|i| vec![Value::Int(i), Value::Float(i as f64 / 4.0), Value::Null]);
    db.append_rows("t", data.collect()).unwrap();
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

/// 100 rounds of INSERT + DELETE + 8 reads that differ in a literal.
/// Before plans were dropped with the epoch that keyed them, the map grew
/// to its size bound and every stale plan kept the table version it had
/// scanned alive.
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

#[test]
fn a_write_after_reads_is_in_place() {
    let mut db = db_with(CHUNK as i64);
    for lit in 0..4 {
        execute_sql(&mut db, &format!("SELECT sum(v) FROM t WHERE k > {lit}")).unwrap();
    }
    let at = Arc::as_ptr(db.table("t").unwrap());
    execute_sql(&mut db, "INSERT INTO t VALUES (-1, 0.0, NULL)").unwrap();
    assert_eq!(Arc::as_ptr(db.table("t").unwrap()), at, "INSERT copied the table");
    let first_row = db.table("t").unwrap().rows.as_ptr();
    // DELETE and UPDATE rewrite the same row storage.
    execute_sql(&mut db, "SELECT count(*) FROM t WHERE k < 0").unwrap();
    execute_sql(&mut db, "UPDATE t SET note = 'neg' WHERE k < 0").unwrap();
    assert_eq!(db.table("t").unwrap().rows.as_ptr(), first_row, "UPDATE copied the rows");
    execute_sql(&mut db, "SELECT count(*) FROM t WHERE note = 'neg'").unwrap();
    execute_sql(&mut db, "DELETE FROM t WHERE note = 'neg'").unwrap();
    assert_eq!(db.table("t").unwrap().rows.as_ptr(), first_row, "DELETE copied the rows");
    assert_eq!(db.table("t").unwrap().num_rows(), CHUNK as usize);
}
