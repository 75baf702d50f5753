//! Focused SQL-semantics tests: three-valued logic, NULL handling in
//! clauses, coercion, and edge cases that production engines get right.

use sqlengine::{execute_script, execute_sql, Database, Table, Value};

fn db_with(setup: &str) -> Database {
    let mut db = Database::new();
    execute_script(&mut db, setup).unwrap();
    db
}

fn q(db: &mut Database, sql: &str) -> Table {
    execute_sql(db, sql).unwrap().into_table().unwrap()
}

fn scalar(db: &mut Database, sql: &str) -> Value {
    q(db, sql).scalar().unwrap()
}

#[test]
fn where_treats_null_as_false() {
    let mut db = db_with("CREATE TABLE t (x int); INSERT INTO t VALUES (1), (NULL), (3)");
    assert_eq!(scalar(&mut db, "SELECT count(*) FROM t WHERE x > 0"), Value::Int(2));
    assert_eq!(scalar(&mut db, "SELECT count(*) FROM t WHERE NOT (x > 0)"), Value::Int(0));
    assert_eq!(scalar(&mut db, "SELECT count(*) FROM t WHERE x > 0 OR x IS NULL"), Value::Int(3));
}

#[test]
fn comparisons_with_null_are_null() {
    let mut db = Database::new();
    assert!(scalar(&mut db, "SELECT NULL = NULL").is_null());
    assert!(scalar(&mut db, "SELECT 1 < NULL").is_null());
    assert_eq!(scalar(&mut db, "SELECT not_distinct(NULL, NULL)"), Value::Bool(true));
}

#[test]
fn aggregates_ignore_nulls_but_count_star_does_not() {
    let mut db = db_with("CREATE TABLE t (x int); INSERT INTO t VALUES (NULL), (NULL)");
    assert_eq!(scalar(&mut db, "SELECT count(*) FROM t"), Value::Int(2));
    assert_eq!(scalar(&mut db, "SELECT count(x) FROM t"), Value::Int(0));
    assert!(scalar(&mut db, "SELECT sum(x) FROM t").is_null());
    assert!(scalar(&mut db, "SELECT avg(x) FROM t").is_null());
    assert!(scalar(&mut db, "SELECT min(x) FROM t").is_null());
}

#[test]
fn empty_table_aggregates() {
    let mut db = db_with("CREATE TABLE t (x int)");
    assert_eq!(scalar(&mut db, "SELECT count(*) FROM t"), Value::Int(0));
    assert!(scalar(&mut db, "SELECT sum(x) FROM t").is_null());
    // Grouped aggregation over an empty table yields no rows.
    assert_eq!(q(&mut db, "SELECT x, count(*) FROM t GROUP BY x").num_rows(), 0);
}

#[test]
fn division_and_modulo_semantics() {
    let mut db = Database::new();
    assert_eq!(scalar(&mut db, "SELECT 7 / 2"), Value::Int(3)); // int division
    assert_eq!(scalar(&mut db, "SELECT 7.0 / 2"), Value::Float(3.5));
    assert_eq!(scalar(&mut db, "SELECT -7 % 3"), Value::Int(-1)); // truncated, like PG
    assert!(execute_sql(&mut db, "SELECT 1 / 0").is_err());
}

#[test]
fn distinct_on_nulls() {
    let mut db = db_with("CREATE TABLE t (x int); INSERT INTO t VALUES (NULL), (NULL), (1)");
    assert_eq!(q(&mut db, "SELECT DISTINCT x FROM t").num_rows(), 2);
}

#[test]
fn group_by_null_forms_one_group() {
    let mut db =
        db_with("CREATE TABLE t (g int, x int); INSERT INTO t VALUES (NULL, 1), (NULL, 2), (1, 3)");
    let t = q(&mut db, "SELECT g, sum(x) FROM t GROUP BY g ORDER BY g");
    assert_eq!(t.num_rows(), 2);
    // NULL group sorts last and sums to 3.
    assert!(t.value(1, 0).is_null());
    assert_eq!(t.value(1, 1), &Value::Int(3));
}

#[test]
fn insert_column_subset_fills_nulls() {
    let mut db = db_with("CREATE TABLE t (a int, b text, c float8)");
    execute_sql(&mut db, "INSERT INTO t (c, a) VALUES (1.5, 7)").unwrap();
    let t = q(&mut db, "SELECT a, b, c FROM t");
    assert_eq!(t.value(0, 0), &Value::Int(7));
    assert!(t.value(0, 1).is_null());
    assert_eq!(t.value(0, 2), &Value::Float(1.5));
}

#[test]
fn coercion_on_insert_and_errors() {
    let mut db = db_with("CREATE TABLE t (a int)");
    execute_sql(&mut db, "INSERT INTO t VALUES ('42')").unwrap();
    assert_eq!(scalar(&mut db, "SELECT a FROM t"), Value::Int(42));
    assert!(execute_sql(&mut db, "INSERT INTO t VALUES ('nope')").is_err());
    assert!(execute_sql(&mut db, "INSERT INTO t VALUES (1, 2)").is_err());
}

#[test]
fn case_returns_null_without_else() {
    let mut db = Database::new();
    assert!(scalar(&mut db, "SELECT CASE WHEN 1 = 2 THEN 'x' END").is_null());
}

#[test]
fn limit_offset_edge_cases() {
    let mut db = db_with("CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2), (3)");
    assert_eq!(q(&mut db, "SELECT x FROM t LIMIT 0").num_rows(), 0);
    assert_eq!(q(&mut db, "SELECT x FROM t OFFSET 5").num_rows(), 0);
    assert_eq!(q(&mut db, "SELECT x FROM t ORDER BY x LIMIT 10 OFFSET 2").num_rows(), 1);
    assert_eq!(q(&mut db, "SELECT x FROM t LIMIT ALL").num_rows(), 3);
}

#[test]
fn cross_type_numeric_grouping() {
    let mut db = db_with(
        "CREATE TABLE a (x int); INSERT INTO a VALUES (1);
         CREATE TABLE b (x float8); INSERT INTO b VALUES (1.0)",
    );
    // 1 and 1.0 group together after a union.
    let t = q(
        &mut db,
        "SELECT x, count(*) FROM (SELECT x FROM a UNION ALL SELECT x FROM b) u GROUP BY x",
    );
    assert_eq!(t.num_rows(), 1);
    assert_eq!(t.value(0, 1), &Value::Int(2));
}

/// Two integers above 2^53 that round to one `f64`: `=` compares `i64`s
/// exactly, and so must everything that keys a value — DISTINCT, UNION,
/// count(DISTINCT), the hash join and GROUP BY — on the planner and on
/// the reference, which share the grouping key. The expected values are
/// written out because the two executors once shared the bug too.
///
/// An integer against a *float* still compares as two `f64`s, as it did
/// before: both rows equal `9007199254740992.0`.
#[test]
fn integers_beyond_2_pow_53_key_as_themselves() {
    let mut db = db_with(
        "CREATE TABLE a (k int8); INSERT INTO a VALUES (9007199254740992), (9007199254740993)",
    );
    for reference in [false, true] {
        let was = db.set_force_row_interpreter(reference);
        let rows = |db: &mut Database, sql: &str| q(db, sql).num_rows();
        let count = |db: &mut Database, sql: &str| scalar(db, sql);
        assert_eq!(
            count(&mut db, "SELECT count(*) FROM a WHERE k = 9007199254740993"),
            Value::Int(1)
        );
        assert_eq!(rows(&mut db, "SELECT DISTINCT k FROM a"), 2);
        assert_eq!(rows(&mut db, "SELECT k FROM a UNION SELECT k FROM a"), 2);
        assert_eq!(count(&mut db, "SELECT count(DISTINCT k) FROM a"), Value::Int(2));
        assert_eq!(count(&mut db, "SELECT count(*) FROM a x JOIN a y ON x.k = y.k"), Value::Int(2));
        assert_eq!(rows(&mut db, "SELECT k, count(*) FROM a GROUP BY k"), 2);
        assert_eq!(
            count(&mut db, "SELECT count(*) FROM a WHERE k = 9007199254740992.0"),
            Value::Int(2)
        );
        db.set_force_row_interpreter(was);
    }
}

#[test]
fn self_join_aliases() {
    let mut db = db_with("CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2), (3)");
    let t = q(&mut db, "SELECT a.x, b.x FROM t a JOIN t b ON b.x = a.x + 1 ORDER BY a.x");
    assert_eq!(t.num_rows(), 2);
    assert_eq!(t.value(0, 1), &Value::Int(2));
}

#[test]
fn subquery_in_from_with_aggregates() {
    let mut db = db_with(
        "CREATE TABLE t (g int, x int);
         INSERT INTO t VALUES (1, 10), (1, 20), (2, 30)",
    );
    let v =
        scalar(&mut db, "SELECT max(total) FROM (SELECT g, sum(x) AS total FROM t GROUP BY g) s");
    assert_eq!(v, Value::Int(30));
}

#[test]
fn update_with_subquery_assignment() {
    let mut db = db_with(
        "CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2);
         CREATE TABLE m (v int); INSERT INTO m VALUES (100)",
    );
    execute_sql(&mut db, "UPDATE t SET x = x + (SELECT v FROM m)").unwrap();
    assert_eq!(scalar(&mut db, "SELECT sum(x) FROM t"), Value::Int(203));
}

#[test]
fn delete_everything_and_reinsert() {
    let mut db = db_with("CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2)");
    let n = execute_sql(&mut db, "DELETE FROM t").unwrap().row_count();
    assert_eq!(n, Some(2));
    execute_sql(&mut db, "INSERT INTO t VALUES (9)").unwrap();
    assert_eq!(scalar(&mut db, "SELECT sum(x) FROM t"), Value::Int(9));
}

#[test]
fn chained_comparison_in_where() {
    let mut db = db_with("CREATE TABLE t (x int); INSERT INTO t VALUES (1), (5), (9)");
    assert_eq!(scalar(&mut db, "SELECT count(*) FROM t WHERE 2 <= x <= 8"), Value::Int(1));
}

#[test]
fn between_is_inclusive_and_symmetric_in_types() {
    let mut db = Database::new();
    assert_eq!(scalar(&mut db, "SELECT 5 BETWEEN 5 AND 5"), Value::Bool(true));
    assert_eq!(scalar(&mut db, "SELECT 5.0 BETWEEN 4 AND 6"), Value::Bool(true));
    assert_eq!(
        scalar(
            &mut db,
            "SELECT '2020-06-15'::timestamp BETWEEN '2020-01-01'::timestamp \
             AND '2020-12-31'::timestamp"
        ),
        Value::Bool(true)
    );
}

#[test]
fn exists_with_empty_subquery() {
    let mut db = db_with("CREATE TABLE t (x int)");
    assert_eq!(scalar(&mut db, "SELECT EXISTS (SELECT 1 FROM t)"), Value::Bool(false));
    assert_eq!(scalar(&mut db, "SELECT NOT EXISTS (SELECT 1 FROM t)"), Value::Bool(true));
}

#[test]
fn in_subquery_with_all_nulls() {
    let mut db = db_with("CREATE TABLE t (x int); INSERT INTO t VALUES (NULL)");
    assert!(scalar(&mut db, "SELECT 1 IN (SELECT x FROM t)").is_null());
    assert!(scalar(&mut db, "SELECT 1 NOT IN (SELECT x FROM t)").is_null());
}

/// A group key or an aggregate is an operand like any other, `IN
/// (subquery)` included: in HAVING and in the select list, on both
/// executors.
#[test]
fn grouped_operands_of_in_subquery() {
    let mut db = db_with(
        "CREATE TABLE t (g int, k int, x int);
         INSERT INTO t VALUES (1, 1, 1), (1, 2, 2), (2, 2, 4), (2, 3, NULL)",
    );
    let cases: [(&str, &[&str]); 5] = [
        ("SELECT k FROM t GROUP BY k HAVING k IN (SELECT 2)", &["2"]),
        ("SELECT k FROM t GROUP BY k HAVING k NOT IN (SELECT 2) ORDER BY k", &["1", "3"]),
        ("SELECT g FROM t GROUP BY g HAVING sum(x) IN (SELECT 3)", &["1"]),
        ("SELECT g, sum(x) IN (SELECT 3) FROM t GROUP BY g ORDER BY g", &["1 true", "2 false"]),
        (
            "SELECT g, max(k) NOT IN (SELECT k FROM t WHERE x IS NULL) FROM t GROUP BY g ORDER BY g",
            &["1 true", "2 false"],
        ),
    ];
    for reference in [false, true] {
        let was = db.set_force_row_interpreter(reference);
        for (sql, expected) in cases {
            let t = q(&mut db, sql);
            let rows: Vec<String> = t
                .rows
                .iter()
                .map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" "))
                .collect();
            assert_eq!(rows, expected, "{sql} (reference: {reference})");
        }
        db.set_force_row_interpreter(was);
    }
}

#[test]
fn recursive_cte_iteration_cap_errors_cleanly() {
    let mut db = Database::new();
    let err = execute_sql(
        &mut db,
        "WITH RECURSIVE t(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM t) \
         SELECT count(*) FROM t",
    )
    .unwrap_err();
    assert!(err.to_string().contains("limit"));
}

#[test]
fn view_over_view() {
    let mut db = db_with(
        "CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2), (3), (4);
         CREATE VIEW evens AS SELECT x FROM t WHERE x % 2 = 0;
         CREATE VIEW big_evens AS SELECT x FROM evens WHERE x > 2",
    );
    assert_eq!(scalar(&mut db, "SELECT sum(x) FROM big_evens"), Value::Int(4));
}

#[test]
fn create_view_or_replace() {
    let mut db = db_with("CREATE TABLE t (x int); INSERT INTO t VALUES (1)");
    execute_sql(&mut db, "CREATE VIEW v AS SELECT x FROM t").unwrap();
    assert!(execute_sql(&mut db, "CREATE VIEW v AS SELECT 2 AS x").is_err());
    execute_sql(&mut db, "CREATE OR REPLACE VIEW v AS SELECT 2 AS x").unwrap();
    assert_eq!(scalar(&mut db, "SELECT x FROM v"), Value::Int(2));
}

#[test]
fn text_escaping_round_trips() {
    let mut db = db_with("CREATE TABLE t (s text)");
    execute_sql(&mut db, "INSERT INTO t VALUES ('it''s ''quoted''')").unwrap();
    assert_eq!(scalar(&mut db, "SELECT s FROM t"), Value::text("it's 'quoted'"));
}

#[test]
fn quoted_identifiers_keep_non_ascii_characters() {
    let mut db = db_with(r#"CREATE TABLE "naïve"(x int)"#);
    let t = q(&mut db, r#"SELECT 1 AS "café" FROM "naïve""#);
    assert_eq!(t.schema.names(), ["café"]);
    assert!(db.table("naïve").is_ok());
}

// ---------------------------------------------------------------------------
// Recursive CTEs: the recursive term is planned once and re-executed per
// step; every shape must agree with the reference row interpreter.
// ---------------------------------------------------------------------------

/// Run `sql` on the planner path and on the forced row interpreter and
/// check both give `expected` (as a sorted single-column result). Returns
/// how many join build sides the planner path reused.
fn recursion_agrees(db: &mut Database, sql: &str, expected: &[i64]) -> u64 {
    let run = |db: &mut Database| {
        let mut got: Vec<i64> = q(db, sql).rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        got
    };
    let before = db.exec_counts();
    assert_eq!(run(db), expected, "planned: {sql}");
    let reused = db.exec_counts().since(&before).builds_reused;
    let was = db.set_force_row_interpreter(true);
    let rows = run(db);
    db.set_force_row_interpreter(was);
    assert_eq!(rows, expected, "row interpreter: {sql}");
    reused
}

fn graph() -> Database {
    // 1 → {2, 3}, 2 → 4, 3 → 4, 4 → {1, 5}: diamonds and a cycle.
    db_with(
        "CREATE TABLE edges (src int, dst int);
         INSERT INTO edges VALUES (1,2),(1,3),(2,4),(3,4),(4,1),(4,5)",
    )
}

#[test]
fn recursive_union_dedupes_multi_row_working_tables() {
    let mut db = graph();
    let reused = recursion_agrees(
        &mut db,
        "WITH RECURSIVE reach(n) AS (SELECT 1 UNION SELECT e.dst FROM reach r \
         JOIN edges e ON e.src = r.n) SELECT n FROM reach",
        &[1, 2, 3, 4, 5],
    );
    // `edges` is the build side of every step after the first.
    assert!(reused > 0);
    // UNION ALL over the same acyclic part keeps the duplicate path to 4.
    recursion_agrees(
        &mut db,
        "WITH RECURSIVE reach(n) AS (SELECT 1 UNION ALL SELECT e.dst FROM reach r \
         JOIN edges e ON e.src = r.n WHERE e.src < 4) SELECT n FROM reach",
        &[1, 2, 3, 4, 4],
    );
}

#[test]
fn recursive_name_on_both_join_sides_is_never_a_kept_build() {
    let mut db = Database::new();
    let reused = recursion_agrees(
        &mut db,
        "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL \
         SELECT a.n + b.n FROM r a JOIN r b ON a.n = b.n WHERE a.n < 20) SELECT n FROM r",
        &[1, 2, 4, 8, 16, 32],
    );
    assert_eq!(reused, 0, "both join inputs are the working table");
}

#[test]
fn recursive_name_on_the_syntactic_right_rebuilds_every_step() {
    // A LEFT JOIN keeps its syntactic order, so the working table is the
    // hash join's build side: reusing the first step's build would stop
    // the walk at node 3.
    let mut db = graph();
    let reused = recursion_agrees(
        &mut db,
        "WITH RECURSIVE reach(n) AS (SELECT 1 UNION SELECT e.dst FROM edges e \
         LEFT JOIN reach r ON e.src = r.n WHERE r.n IS NOT NULL) SELECT n FROM reach",
        &[1, 2, 3, 4, 5],
    );
    assert_eq!(reused, 0);
}

#[test]
fn recursive_name_inside_a_scalar_subquery_sees_the_working_table() {
    let mut db = db_with("CREATE TABLE one (k int); INSERT INTO one VALUES (1)");
    recursion_agrees(
        &mut db,
        "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL \
         SELECT (SELECT max(n) FROM r) + 1 FROM one WHERE (SELECT max(n) FROM r) < 5) \
         SELECT n FROM r",
        &[1, 2, 3, 4, 5],
    );
    // Joined to a catalog table whose rows are filtered by the subquery:
    // the subquery reads the working table, so nothing below it is kept.
    let mut db = graph();
    recursion_agrees(
        &mut db,
        "WITH RECURSIVE r(n) AS (SELECT 1 UNION \
         SELECT e.dst FROM edges e WHERE e.src = (SELECT max(n) FROM r)) SELECT n FROM r",
        &[1, 2, 3, 4, 5],
    );
}

#[test]
fn recursive_name_inside_a_from_subquery_is_planned_again_every_step() {
    let mut db = graph();
    let sql = "WITH RECURSIVE reach(n) AS (SELECT 1 UNION SELECT e.dst FROM edges e \
               JOIN (SELECT n FROM reach) r ON e.src = r.n) SELECT n FROM reach";
    recursion_agrees(&mut db, sql, &[1, 2, 3, 4, 5]);
    let plan = q(&mut db, &format!("EXPLAIN {sql}"));
    assert_eq!(
        plan.rows[0][0].to_string(),
        "recursive CTE reach: a query of its own per step \
         (a FROM subquery or view reads the recursive relation)"
    );
    let plan = q(
        &mut db,
        "EXPLAIN WITH RECURSIVE reach(n) AS (SELECT 1 UNION SELECT e.dst FROM reach r \
         JOIN edges e ON e.src = r.n) SELECT n FROM reach",
    );
    // 1 builds `edges`; {2, 3} is two rows; 4 meets two edges; 5 meets none.
    assert_eq!(
        plan.rows[0][0].to_string(),
        "recursive CTE reach: planned once, build side reused, 1 of 4 steps on one row"
    );
    // EXPLAIN ANALYZE says the same on the recursion's span.
    let traced = q(
        &mut db,
        "EXPLAIN ANALYZE WITH RECURSIVE reach(n) AS (SELECT 1 UNION SELECT e.dst FROM reach r \
         JOIN edges e ON e.src = r.n) SELECT n FROM reach",
    );
    let span = traced.rows.iter().map(|r| r[0].to_string()).find(|l| l.contains("recursive CTE"));
    let span = span.expect("a span for the recursion");
    assert!(
        span.contains("rows=5  term=planned once, build side reused, 1 of 4 steps on one row"),
        "{span}"
    );
}

#[test]
fn recursive_cte_with_an_empty_anchor_is_empty() {
    let mut db = graph();
    recursion_agrees(
        &mut db,
        "WITH RECURSIVE reach(n) AS (SELECT src FROM edges WHERE src > 9 UNION ALL \
         SELECT e.dst FROM reach r JOIN edges e ON e.src = r.n) SELECT n FROM reach",
        &[],
    );
}

/// A term wider or narrower than its anchor is the same typed error on
/// both executors, whatever the first step would have run on — one row,
/// batches (a join to build, a two-row anchor), `UNION`'s dedup — and an
/// error the first step raises itself comes first.
#[test]
fn recursive_term_column_count_mismatch_errors_on_both_paths() {
    let mut db = graph();
    let cases = [
        (
            "WITH RECURSIVE t(n) AS (SELECT 1 UNION ALL SELECT n + 1, n FROM t WHERE n < 3) \
             SELECT count(*) FROM t",
            "returns 2 columns, expected 1",
        ),
        (
            "WITH RECURSIVE r(a, b) AS (SELECT 1, 2 UNION SELECT r.a + 1 FROM r \
             JOIN edges e ON e.src = r.a) SELECT a FROM r",
            "returns 1 columns, expected 2",
        ),
        (
            "WITH RECURSIVE r(a, b) AS (SELECT src, dst FROM edges UNION SELECT a + 1 FROM r \
             WHERE a < 3) SELECT a FROM r",
            "returns 1 columns, expected 2",
        ),
        (
            "WITH RECURSIVE r(a, b) AS (SELECT 1, 2 UNION ALL SELECT a + 1 FROM r WHERE a < 3) \
             SELECT a FROM r",
            "returns 1 columns, expected 2",
        ),
        (
            "WITH RECURSIVE r(a, b) AS (SELECT 1, 2 UNION SELECT 1 / (a - 1) FROM r) \
             SELECT a FROM r",
            "division by zero",
        ),
    ];
    for (sql, want) in cases {
        let planned = execute_sql(&mut db, sql).unwrap_err().to_string();
        assert!(planned.contains(want), "{sql}: {planned}");
        let was = db.set_force_row_interpreter(true);
        let rows = execute_sql(&mut db, sql).unwrap_err().to_string();
        db.set_force_row_interpreter(was);
        assert_eq!(planned, rows, "{sql}");
    }
}

/// Run `sql` on the planner path and on the forced row interpreter; the
/// rows (rendered, sorted) must be the same, and are returned.
fn on_both_paths(db: &mut Database, sql: &str) -> Vec<String> {
    let run = |db: &mut Database| {
        let mut rows: Vec<String> = q(db, sql)
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","))
            .collect();
        rows.sort();
        rows
    };
    let planned = run(db);
    let was = db.set_force_row_interpreter(true);
    let rows = run(db);
    db.set_force_row_interpreter(was);
    assert_eq!(planned, rows, "planner vs row interpreter: {sql}");
    planned
}

#[test]
fn recursive_working_table_grows_past_one_row_and_one_batch() {
    // Every step doubles the working table: 1, 2, 4, … 2048 rows, so the
    // steps hand on one row, several rows, and (past 1024) several
    // batches — through a cross join, a hash join and a nested loop with
    // a condition.
    let mut db = db_with(
        "CREATE TABLE two (b int); INSERT INTO two VALUES (0), (1);
         CREATE TABLE pairs (k int, b int); INSERT INTO pairs VALUES (0,0), (0,1), (1,0), (1,1)",
    );
    for from in [
        "r, two WHERE r.d < 11",
        "r JOIN pairs two ON two.k = r.n % 2 WHERE r.d < 11",
        "r LEFT JOIN two ON two.b <= r.d + 1 WHERE r.d < 11",
    ] {
        let sql = format!(
            "WITH RECURSIVE r(d, n) AS (SELECT 0, 0 UNION ALL \
             SELECT r.d + 1, r.n * 2 + two.b FROM {from}) \
             SELECT count(*), count(DISTINCT n), sum(n), max(d) FROM r WHERE d = 11 \
             UNION ALL SELECT count(*), count(DISTINCT n), sum(n), max(d) FROM r"
        );
        let got = on_both_paths(&mut db, &sql);
        // Level 11 holds every 11-bit number once: 0..2048.
        assert_eq!(got, ["2048,2048,2096128,11", "4095,2048,2794155,11"], "{from}");
    }
    // UNION: the working table is what the step found *new*, which also
    // passes 1024 rows before the residues mod 3001 run out.
    let got = on_both_paths(
        &mut db,
        "WITH RECURSIVE r(n) AS (SELECT 0 UNION SELECT (r.n * 2 + two.b) % 3001 FROM r, two) \
         SELECT count(*), count(DISTINCT n), min(n), max(n) FROM r",
    );
    assert_eq!(got, ["3001,3001,0,3000"]);
}

#[test]
fn recursive_step_with_a_null_join_key_matches_nothing() {
    // 2 → NULL: the NULL joins the relation but its key never matches,
    // on a hash join and on the nested loop alike.
    let mut db = db_with(
        "CREATE TABLE edges (src int, dst int);
         INSERT INTO edges VALUES (1,2), (2,NULL), (2,3), (NULL,9), (3,4)",
    );
    for on in ["e.src = r.n", "e.src <= r.n AND e.src >= r.n"] {
        let got = on_both_paths(
            &mut db,
            &format!(
                "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT e.dst FROM r \
                 JOIN edges e ON {on}) SELECT n FROM r"
            ),
        );
        assert_eq!(got, ["1", "2", "3", "4", "NULL"], "{on}");
    }
}

#[test]
fn recursive_term_runs_what_the_working_table_does_not_feed_once() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut db = db_with("CREATE TABLE ks (k int); INSERT INTO ks VALUES (1), (2), (3)");
    let calls = Arc::new(AtomicU64::new(0));
    let counter = calls.clone();
    db.register_udf(sqlengine::ScalarUdf {
        name: "probe".into(),
        param_names: vec!["k".into()],
        defaults: Default::default(),
        func: Arc::new(move |args| {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(args[0].clone())
        }),
    });
    // `probe(k) = 2` filters `ks` below the cross join: a subtree that is
    // not a join's build side and does not read `r`.
    let sql = "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL \
               SELECT r.n + ks.k - 1 FROM r, ks WHERE probe(ks.k) = 2 AND r.n < 5) SELECT n FROM r";
    assert_eq!(q(&mut db, sql).num_rows(), 5);
    assert_eq!(calls.swap(0, Ordering::Relaxed), 3, "the filter over ks ran once, not per step");
    let was = db.set_force_row_interpreter(true);
    assert_eq!(q(&mut db, sql).num_rows(), 5);
    db.set_force_row_interpreter(was);
    assert_eq!(calls.load(Ordering::Relaxed), 15, "the row interpreter runs it in all 5 steps");
}

#[test]
fn recursive_term_never_keeps_a_subtree_that_evaluates_a_subquery() {
    // `e LEFT JOIN ks` scans no working table, but its ON condition asks
    // a subquery for the working table's maximum: kept from the first
    // step it would offer k = 2 forever, and the walk would stop at 2.
    let mut db = db_with(
        "CREATE TABLE ks (k int); INSERT INTO ks VALUES (1), (2), (3), (4), (5);
         CREATE TABLE e (x int); INSERT INTO e VALUES (0)",
    );
    let got = on_both_paths(
        &mut db,
        "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL \
         SELECT ks.k FROM r, e LEFT JOIN ks ON ks.k = (SELECT max(n) FROM r) + 1 \
         WHERE ks.k > r.n AND r.n < 4) SELECT n FROM r",
    );
    assert_eq!(got, ["1", "2", "3", "4"]);
}

#[test]
fn runaway_recursion_stops_at_the_cap_with_the_same_error_on_both_paths() {
    // Doubling passes a million rows after 20 steps.
    let mut db = db_with("CREATE TABLE two (b int); INSERT INTO two VALUES (0), (1)");
    let sql = "WITH RECURSIVE r(n) AS (SELECT 0 UNION ALL SELECT r.n FROM r, two) \
               SELECT count(*) FROM r";
    let planned = execute_sql(&mut db, sql).unwrap_err().to_string();
    assert_eq!(planned, "evaluation error: recursive CTE 'r' exceeded the iteration limit");
    let was = db.set_force_row_interpreter(true);
    let rows = execute_sql(&mut db, sql).unwrap_err().to_string();
    db.set_force_row_interpreter(was);
    assert_eq!(planned, rows);
    // The session is still usable.
    assert_eq!(scalar(&mut db, "SELECT count(*) FROM two"), Value::Int(2));
}
