//! Differential tests for the planned (columnar) executor.
//!
//! Every query here runs twice — once through the default path, which
//! plans every SELECT block and runs it on the columnar batch executor,
//! and once with `db.set_force_row_interpreter(true)`, which pins the
//! reference row-at-a-time interpreter. The two executions must
//! agree on column names and types and on the multiset of result rows (the
//! optimizer may legally reorder joins, so row order is only compared
//! when the query carries an ORDER BY).
//!
//! A deterministic xorshift generator fuzzes several hundred SELECT
//! shapes — projections, predicates, multi-way joins, grouping,
//! HAVING, a group key or an aggregate as the operand of `IN
//! (subquery)`, DISTINCT, ORDER BY, LIMIT/OFFSET, correlated subqueries,
//! LATERAL items — on top of a bank of hand-written queries covering the
//! planner's edge shapes (ROLLUP/CUBE/GROUPING SETS, outer joins,
//! subqueries under every kind of outer scope, LATERAL, FROM-less blocks,
//! NULL keys).

use sqlengine::types::{custom, downcast, CustomValue};
use sqlengine::{
    execute_script, execute_sql, Column, Ctes, DataType, Database, ExecCounts, Schema, StepCell,
    StepHook, Table, Value,
};

fn setup() -> Database {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE t1 (a INT, b INT, c TEXT, d FLOAT8);
         CREATE TABLE t2 (a INT, e TEXT, f INT);
         CREATE TABLE t3 (k INT, v INT);",
    )
    .unwrap();
    // Deterministic data with duplicates and NULLs in every column.
    let mut rng = Rng::new(0xC0FFEE);
    let mut rows = Vec::new();
    for i in 0..60 {
        let a = if rng.below(10) == 0 { "NULL".into() } else { format!("{}", rng.below(8)) };
        let b = if rng.below(12) == 0 { "NULL".into() } else { format!("{}", rng.below(50)) };
        let c = match rng.below(5) {
            0 => "NULL".into(),
            1 => "'red'".into(),
            2 => "'green'".into(),
            3 => "'blue'".into(),
            _ => format!("'c{}'", i % 4),
        };
        let d = if rng.below(8) == 0 {
            "NULL".into()
        } else {
            format!("{}.{}", rng.below(20), rng.below(10))
        };
        rows.push(format!("({a},{b},{c},{d})"));
    }
    execute_sql(&mut db, &format!("INSERT INTO t1 VALUES {}", rows.join(","))).unwrap();
    let mut rows = Vec::new();
    for _ in 0..25 {
        let a = if rng.below(10) == 0 { "NULL".into() } else { format!("{}", rng.below(8)) };
        let e: String = match rng.below(4) {
            0 => "NULL".into(),
            1 => "'x'".into(),
            2 => "'y'".into(),
            _ => "'z'".into(),
        };
        let f = format!("{}", rng.below(100));
        rows.push(format!("({a},{e},{f})"));
    }
    execute_sql(&mut db, &format!("INSERT INTO t2 VALUES {}", rows.join(","))).unwrap();
    let mut rows = Vec::new();
    for _ in 0..15 {
        rows.push(format!("({},{})", rng.below(8), rng.below(30)));
    }
    execute_sql(&mut db, &format!("INSERT INTO t3 VALUES {}", rows.join(","))).unwrap();
    db
}

/// Minimal xorshift64* PRNG so the fuzz corpus is reproducible without
/// pulling in a dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, opts: &[&'a str]) -> &'a str {
        opts[self.below(opts.len() as u64) as usize]
    }
}

/// Render a value so that NULL, ints, floats and text all key
/// distinctly, and Float(2.0)/Int(2) stay distinguishable.
fn key(v: &Value) -> String {
    match v {
        Value::Null => "∅".to_string(),
        Value::Int(i) => format!("i{i}"),
        Value::Float(f) => format!("f{f}"),
        other => format!("v{other}"),
    }
}

fn row_keys(t: &Table) -> Vec<String> {
    t.rows.iter().map(|r| r.iter().map(key).collect::<Vec<_>>().join("\u{1f}")).collect()
}

/// Run `sql` through both executors and compare. `ordered` compares
/// exact row sequence; otherwise the sorted multiset.
fn check(db: &mut Database, sql: &str, ordered: bool) {
    let planned = execute_sql(db, sql).map(|r| r.into_table().unwrap());
    let prev = db.set_force_row_interpreter(true);
    let row = execute_sql(db, sql).map(|r| r.into_table().unwrap());
    db.set_force_row_interpreter(prev);
    match (planned, row) {
        (Ok(p), Ok(r)) => {
            assert_eq!(p.schema.names(), r.schema.names(), "column names differ for: {sql}");
            let types =
                |t: &Table| t.schema.columns.iter().map(|c| c.ty.clone()).collect::<Vec<_>>();
            assert_eq!(types(&p), types(&r), "column types differ for: {sql}");
            let mut pk = row_keys(&p);
            let mut rk = row_keys(&r);
            if !ordered {
                pk.sort();
                rk.sort();
            }
            assert_eq!(pk, rk, "rows differ for: {sql}");
        }
        (Err(pe), Err(re)) => {
            assert_eq!(pe.to_string(), re.to_string(), "errors differ for: {sql}");
        }
        (Ok(_), Err(re)) => panic!("columnar succeeded, row interpreter failed ({re}): {sql}"),
        (Err(pe), Ok(_)) => panic!("columnar failed ({pe}), row interpreter succeeded: {sql}"),
    }
}

#[test]
fn differential_handwritten_corpus() {
    let mut db = setup();
    execute_sql(&mut db, "CREATE TABLE e (a INT)").unwrap();
    // (sql, has total order) — the bank covers planner edge shapes.
    let corpus: &[(&str, bool)] = &[
        ("SELECT * FROM t1", false),
        ("SELECT a, b FROM t1 WHERE a > 3", false),
        ("SELECT c, d FROM t1 WHERE c IS NULL", false),
        ("SELECT a FROM t1 WHERE c IS NOT NULL AND b < 30", false),
        ("SELECT a + b AS s, d * 2 FROM t1 WHERE a IS NOT NULL", false),
        ("SELECT CASE WHEN a > 4 THEN 'hi' ELSE 'lo' END AS lvl, b FROM t1", false),
        ("SELECT * FROM t1 WHERE c LIKE 'c%'", false),
        ("SELECT * FROM t1 WHERE c IN ('red', 'blue')", false),
        ("SELECT * FROM t1 WHERE b BETWEEN 10 AND 30", false),
        ("SELECT DISTINCT c FROM t1", false),
        ("SELECT DISTINCT a, c FROM t1 WHERE b > 5", false),
        ("SELECT a, b FROM t1 ORDER BY a, b, d", true),
        ("SELECT a, b FROM t1 ORDER BY b DESC NULLS FIRST, a, c", true),
        ("SELECT a FROM t1 ORDER BY a LIMIT 7", true),
        ("SELECT a FROM t1 ORDER BY a LIMIT 5 OFFSET 3", true),
        // Sort under Limit keeps what Limit takes: rows of equal keys stay
        // in input order, whichever of them the cut falls between.
        ("SELECT a, b, c FROM t1 ORDER BY a LIMIT 7", true),
        ("SELECT a, b FROM t1 ORDER BY a DESC LIMIT 9 OFFSET 2", true),
        ("SELECT a, c FROM t1 ORDER BY c NULLS FIRST, a DESC NULLS LAST LIMIT 11", true),
        ("SELECT a, c FROM t1 ORDER BY c DESC NULLS LAST, a NULLS FIRST LIMIT 11 OFFSET 40", true),
        ("SELECT a, b, d FROM t1 ORDER BY a, d DESC LIMIT 13 OFFSET 5", true),
        ("SELECT a, b FROM t1 ORDER BY a % 3, b DESC LIMIT 8", true),
        ("SELECT a, b FROM t1 ORDER BY CASE WHEN b > 25 THEN a ELSE d END, c LIMIT 10", true),
        ("SELECT a, d FROM t1 ORDER BY d LIMIT 1", true),
        ("SELECT a, d FROM t1 ORDER BY d DESC LIMIT 1 OFFSET 1", true),
        ("SELECT a, b FROM t1 ORDER BY a LIMIT 0", true),
        ("SELECT a, b FROM t1 ORDER BY a LIMIT 60", true),
        ("SELECT a, b FROM t1 ORDER BY a LIMIT 100 OFFSET 59", true),
        ("SELECT a, b FROM t1 ORDER BY a LIMIT 3 OFFSET 60", true),
        ("SELECT a, b FROM t1 ORDER BY a OFFSET 100", true),
        ("SELECT a, b FROM t1 ORDER BY a OFFSET 55", true),
        ("SELECT a, b FROM t1 LIMIT 4 OFFSET 58", true),
        ("SELECT a, b FROM t1 WHERE a > 99 ORDER BY a LIMIT 2", true),
        ("SELECT count(*) FROM t1", true),
        ("SELECT count(a), count(*), sum(b), min(d), max(d) FROM t1", true),
        ("SELECT avg(b), avg(d) FROM t1", true),
        ("SELECT c, count(*) FROM t1 GROUP BY c", false),
        ("SELECT c, sum(b), avg(d) FROM t1 GROUP BY c ORDER BY c NULLS LAST", true),
        ("SELECT a, c, count(*) FROM t1 GROUP BY a, c HAVING count(*) > 1", false),
        ("SELECT c, count(DISTINCT a) FROM t1 GROUP BY c", false),
        (
            "SELECT c, string_agg(cast(a AS TEXT), ',') FROM t1 WHERE a IS NOT NULL GROUP BY c",
            false,
        ),
        ("SELECT c, stddev(b), variance(b) FROM t1 GROUP BY c", false),
        ("SELECT count(*) FROM t1 GROUP BY a HAVING sum(b) > 100", false),
        // Joins: comma, inner, outer, non-equi, three-way.
        ("SELECT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.a", false),
        ("SELECT t1.a, t2.e FROM t1 JOIN t2 ON t1.a = t2.a WHERE t2.f > 50", false),
        ("SELECT t1.a, t2.e FROM t1 LEFT JOIN t2 ON t1.a = t2.a", false),
        ("SELECT t1.a, t2.e FROM t1 RIGHT JOIN t2 ON t1.a = t2.a", false),
        ("SELECT t1.a, t2.e FROM t1 FULL JOIN t2 ON t1.a = t2.a", false),
        ("SELECT x.a, y.a FROM t1 x JOIN t1 y ON x.a = y.b", false),
        ("SELECT t1.a, t3.v FROM t1 JOIN t3 ON t1.a < t3.k", false),
        ("SELECT t1.a, t2.e, t3.v FROM t1, t2, t3 WHERE t1.a = t2.a AND t2.a = t3.k", false),
        ("SELECT t1.c, sum(t3.v) FROM t1 JOIN t3 ON t1.a = t3.k GROUP BY t1.c", false),
        (
            "SELECT t2.e, count(*) FROM t1 LEFT JOIN t2 ON t1.a = t2.a AND t2.f > 30 \
             GROUP BY t2.e ORDER BY t2.e NULLS LAST",
            true,
        ),
        // Subqueries (residual predicates, pruning disabled).
        ("SELECT a FROM t1 WHERE a IN (SELECT k FROM t3)", false),
        ("SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.a = t1.a)", false),
        ("SELECT a, (SELECT max(v) FROM t3) AS mv FROM t1 WHERE b > 20", false),
        (
            "SELECT s.a, s.n FROM (SELECT a, count(*) AS n FROM t1 GROUP BY a) s WHERE s.n > 2",
            false,
        ),
        // Correlated subqueries: NULL keys on both sides, an empty inner
        // relation, an inner aggregate over zero rows.
        ("SELECT a, (SELECT sum(f) FROM t2 WHERE t2.a = t1.a) FROM t1", false),
        ("SELECT a, (SELECT count(*) FROM t2 WHERE t2.a = t1.a AND t2.f > t1.b) FROM t1", false),
        ("SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t3 WHERE t3.k = t1.a AND t3.v > t1.b)", false),
        ("SELECT a, c FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 WHERE t2.a = t1.a)", false),
        ("SELECT a, b FROM t1 WHERE b IN (SELECT f FROM t2 WHERE t2.a = t1.a)", false),
        ("SELECT a, b FROM t1 WHERE a NOT IN (SELECT a FROM t2 WHERE t2.f > t1.b)", false),
        ("SELECT a, a IN (SELECT a FROM t2 WHERE t2.f < t1.b) FROM t1", false),
        ("SELECT a, b IN (SELECT v FROM t3 WHERE t3.k = -1), (SELECT v FROM t3 WHERE k < 0) FROM t1", false),
        ("SELECT a, (SELECT t2.e FROM t2 WHERE t2.a = t1.a) FROM t1", false), // more than one row
        // Two levels out, through a FROM-less block and through one with rows.
        ("SELECT (SELECT (SELECT t1.a)) FROM t1", false),
        (
            "SELECT a, (SELECT max((SELECT count(*) FROM t3 WHERE t3.k = t1.a AND t3.v > t2.f)) \
             FROM t2 WHERE t2.a = t1.a) FROM t1",
            false,
        ),
        // A closed subquery under a block with columns.
        ("SELECT a FROM t1 WHERE b > (SELECT avg(f) FROM t2 WHERE e = 'x')", false),
        ("SELECT a, b <= 0.4 * (SELECT sum(f) FROM t2 WHERE a = 3) FROM t1", false),
        // Correlated in HAVING (two levels up), in a join's ON — pooled
        // with WHERE, kept by an outer join, and the outer row as a
        // constant of an inner join — and in and around an aggregate.
        (
            "SELECT a, (SELECT count(*) FROM t2 GROUP BY e \
             HAVING count(*) > (SELECT count(*) FROM t3 WHERE t3.k = t1.a) ORDER BY 1 LIMIT 1) FROM t1",
            false,
        ),
        (
            "SELECT t1.a, t3.v FROM t1 JOIN t3 ON t3.k = t1.a \
             AND t3.v > (SELECT avg(f) FROM t2 WHERE t2.a = t1.a)",
            false,
        ),
        (
            "SELECT t1.a, t3.v FROM t1 LEFT JOIN t3 ON t3.k = t1.a \
             AND EXISTS (SELECT 1 FROM t2 WHERE t2.a = t3.k AND t2.f > t1.b)",
            false,
        ),
        ("SELECT a, (SELECT count(*) FROM t2 JOIN t3 ON t3.k = t2.a AND t3.v > t1.b) FROM t1", false),
        (
            "SELECT a, (SELECT count(t3.k) FROM t2 LEFT JOIN t3 ON t3.k = t2.a AND t3.v > t1.b \
             WHERE t2.a = t1.a) FROM t1",
            false,
        ),
        ("SELECT a, (SELECT sum(f * t1.b) FROM t2 WHERE t2.a = t1.a) FROM t1", false),
        ("SELECT c, sum((SELECT count(*) FROM t3 WHERE t3.k = t1.a)) FROM t1 GROUP BY c", false),
        ("SELECT a, (SELECT sum(t1.b) FROM t3) FROM t1", false),
        // A derived relation that reads the outer row runs per outer row.
        (
            "SELECT a, (SELECT sum(s.f) FROM (SELECT f FROM t2 WHERE t2.a = t1.a) s) FROM t1",
            false,
        ),
        // LATERAL: inner, LEFT, comma list, no left rows, a correlated
        // aggregate, over a CTE, bodies that are not one SELECT block,
        // and under an outer row of its own.
        (
            "SELECT t3.k, x.m FROM t3 JOIN LATERAL (SELECT max(f) AS m FROM t2 WHERE t2.a = t3.k) x \
             ON x.m > t3.v",
            false,
        ),
        (
            "SELECT t3.k, t3.v, x.f FROM t3 LEFT JOIN LATERAL \
             (SELECT f FROM t2 WHERE t2.a = t3.k AND f > 50) x ON x.f <> t3.v",
            false,
        ),
        (
            "SELECT t3.k, x.f FROM t3, LATERAL \
             (SELECT f FROM t2 WHERE t2.a = t3.k ORDER BY f DESC, e LIMIT 2) x",
            false,
        ),
        (
            "SELECT s.k, x.f FROM (SELECT * FROM t3 WHERE k > 100) s, \
             LATERAL (SELECT f FROM t2 WHERE t2.a = s.k) x",
            false,
        ),
        (
            "SELECT s.k, x.f FROM (SELECT * FROM t3 WHERE k > 100) s LEFT JOIN \
             LATERAL (SELECT f FROM t2 WHERE t2.a = s.k) x ON x.f > 0",
            false,
        ),
        (
            "SELECT t3.k, x.n, x.s FROM t3, \
             LATERAL (SELECT count(*) AS n, sum(f) AS s FROM t2 WHERE t2.a = t3.k) x",
            false,
        ),
        (
            "WITH c AS (SELECT a, f FROM t2 WHERE f > 20) \
             SELECT t3.k, x.f FROM t3, LATERAL (SELECT f FROM c WHERE c.a = t3.k) x",
            false,
        ),
        (
            "SELECT t3.k, x.v FROM t3, LATERAL \
             (SELECT f AS v FROM t2 WHERE t2.a = t3.k UNION ALL SELECT t3.v) x",
            false,
        ),
        (
            "SELECT t3.k, x.n FROM t3, LATERAL \
             (WITH m AS (SELECT t3.k * 2 AS n) SELECT n FROM m WHERE n > 6) x",
            false,
        ),
        ("SELECT t3.k, x.n, y.m FROM t3, LATERAL (VALUES (t3.k + 1)) x(n), LATERAL (SELECT x.n * 2 AS m) y", false),
        ("SELECT x.n FROM LATERAL (SELECT count(*) AS n FROM t3) x", false),
        // A body's schema is learned without running it: over an empty
        // left side the body never runs, and no row the body does not
        // meet can make it fail. The two types of `l.v` agree.
        (LATERAL_COALESCE, false),
        (LATERAL_DIVIDE, false),
        (LATERAL_DIVIDE_DERIVED, false),
        (
            "SELECT t1.a, l.v FROM t1 LEFT JOIN LATERAL \
             (SELECT max(v) AS v FROM t3 WHERE t3.k < t1.b) l ON l.v > 100",
            false,
        ),
        ("SELECT e.a, l.v FROM e LEFT JOIN LATERAL (SELECT max(v) AS v FROM t3) l ON true", false),
        (
            "SELECT a, (SELECT sum(x.f) FROM t3, LATERAL \
             (SELECT f FROM t2 WHERE t2.a = t3.k AND t2.f > t1.b) x WHERE t3.k = t1.a) FROM t1",
            false,
        ),
        // USING keeps both columns and never joins NULL keys.
        ("SELECT * FROM t1 JOIN t2 USING (a)", false),
        ("SELECT t1.a, t2.a, t2.f FROM t1 LEFT JOIN t2 USING (a)", false),
        ("SELECT t1.b, t2.f FROM t1 RIGHT JOIN t2 USING (a)", false),
        ("SELECT t1.b, t2.f FROM t1 FULL JOIN t2 USING (a) WHERE t1.b IS NULL OR t2.f > 50", false),
        ("SELECT t1.b FROM t1 JOIN t2 USING (e)", false),
        // No FROM: one row, unless WHERE drops it; aggregates see it.
        ("SELECT 1 AS one, 'x' || 'y', NULL", true),
        ("SELECT 1 WHERE false", true),
        ("SELECT count(*), sum(2)", true),
        ("SELECT count(*) WHERE 1 > 2", true),
        ("SELECT DISTINCT 7 AS n ORDER BY n LIMIT 3", true),
        ("SELECT (SELECT count(*) FROM t1), 2 + 3 AS five, EXISTS (SELECT 1 FROM t3 WHERE k > 5)", true),
        ("SELECT *", true),
        // CTEs materialize before planning.
        (
            "WITH big AS (SELECT * FROM t1 WHERE b > 25) SELECT c, count(*) FROM big GROUP BY c",
            false,
        ),
        // A recursive term that reads its working table through a FROM
        // subquery is planned again for every step.
        (
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL \
             SELECT s.n + 1 FROM (SELECT n FROM r) s WHERE s.n < 5) SELECT n FROM r",
            false,
        ),
        // A recursion under an outer row.
        (
            "SELECT k, (WITH RECURSIVE r(n) AS (SELECT t3.k UNION ALL SELECT n + 1 FROM r WHERE n < 4) \
             SELECT count(*) FROM r) FROM t3",
            false,
        ),
        // Grouping sets family.
        ("SELECT c, sum(b) FROM t1 GROUP BY ROLLUP (c)", false),
        ("SELECT a, c, sum(b) FROM t1 GROUP BY ROLLUP (a, c)", false),
        ("SELECT a, c, count(*) FROM t1 GROUP BY CUBE (a, c)", false),
        ("SELECT a, c, sum(b) FROM t1 GROUP BY GROUPING SETS ((a), (c), ())", false),
        ("SELECT c, grouping(c), sum(b) FROM t1 GROUP BY ROLLUP (c)", false),
        // Expressions in GROUP BY and ORDER BY positions.
        ("SELECT a % 3 AS g, count(*) FROM t1 WHERE a IS NOT NULL GROUP BY a % 3", false),
        ("SELECT a, b FROM t1 WHERE a IS NOT NULL ORDER BY 2 DESC, 1", true),
        ("SELECT upper(c) AS u, length(c) FROM t1 WHERE c IS NOT NULL", false),
        ("SELECT coalesce(a, -1), coalesce(c, 'none') FROM t1", false),
        ("SELECT abs(b - 25), round(d) FROM t1", false),
        // The SELECT head: positions and output names in GROUP BY / ORDER BY.
        ("SELECT c, count(*) AS n FROM t1 GROUP BY 1 ORDER BY 2 DESC, 1", true),
        ("SELECT a % 3 AS g, sum(b) AS s FROM t1 GROUP BY g ORDER BY g", true),
        ("SELECT a, b + 1 AS nxt FROM t1 ORDER BY nxt, 1, c, d", true),
        // An output name that collides with an input column: ORDER BY
        // takes the output, GROUP BY the input.
        ("SELECT b AS a, a AS b FROM t1 ORDER BY a, b", true),
        ("SELECT a + 100 AS a, count(*) FROM t1 GROUP BY a ORDER BY 1", true),
        // `*` over a join that repeats a column name binds by position.
        ("SELECT * FROM t1 JOIN t2 ON t1.a = t2.a", false),
        ("SELECT y.*, x.a FROM t1 x JOIN t1 y ON x.a = y.b WHERE x.b < 20", false),
        ("SELECT DISTINCT * FROM t1 x, t3 WHERE x.a = t3.k AND t3.v > 25", false),
        // HAVING without GROUP BY is one global group.
        ("SELECT count(*) FROM t1 HAVING count(*) > 1", true),
        ("SELECT sum(b) FROM t1 HAVING sum(b) < 0", true),
        ("SELECT c, sum(b) AS s FROM t1 GROUP BY ROLLUP (c) ORDER BY sum(b) DESC, c", true),
        // LIMIT / OFFSET are constants: a scalar subquery, NULL (= absent).
        (
            "SELECT a, b FROM t1 ORDER BY a, b, c, d \
             LIMIT (SELECT 3) OFFSET (SELECT count(*) FROM t3) - 13",
            true,
        ),
        ("SELECT a, b FROM t1 ORDER BY a, b, c, d LIMIT NULL OFFSET NULL", true),
        ("SELECT a, b FROM t1 ORDER BY a, b, c, d LIMIT -1", true),
        // Errors must match exactly.
        ("SELECT nope FROM t1", true),
        ("SELECT a FROM t1 GROUP BY c", true),
        ("SELECT sum(b) + a FROM t1", true),
        ("SELECT b AS a, count(*) FROM t1 GROUP BY a", true),
        ("SELECT a, count(*) FROM t1 GROUP BY a ORDER BY 0", true),
        ("SELECT a FROM t1 LIMIT 'many'", true),
        ("SELECT a FROM t1 ORDER BY nope LIMIT nope", true),
    ];
    for (sql, ordered) in corpus {
        check(&mut db, sql, *ordered);
    }
    assert_eq!(rows_of(&mut db, LATERAL_COALESCE).len(), 15, "no row of t3 divides by zero");
    for sql in [LATERAL_DIVIDE, LATERAL_DIVIDE_DERIVED] {
        assert!(rows_of(&mut db, sql).is_empty(), "the body never runs: {sql}");
    }
}

const LATERAL_COALESCE: &str = "SELECT t3.k, x.* FROM t3, \
     LATERAL (SELECT * FROM (SELECT 10 / coalesce(t3.k + 1, 0) AS z) s) x";
const LATERAL_DIVIDE: &str = "SELECT e.a, x.* FROM e, LATERAL (SELECT 1 / 0 AS z) x";
const LATERAL_DIVIDE_DERIVED: &str =
    "SELECT e.a, x.* FROM e, LATERAL (SELECT * FROM (SELECT 1 / 0 AS z) s) x";

/// `IN (constants)` and `BETWEEN constants` evaluate a batch at a time;
/// everything about them the interpreter defines — NULL operands, a NULL
/// in the list, NOT, Int against Float, the error for an incomparable
/// item and the match that hides it — comes out the same, as a filter
/// and as a projected three-valued result.
#[test]
fn in_lists_and_between_agree_with_the_row_interpreter() {
    let mut db = setup();
    execute_script(
        &mut db,
        "CREATE TABLE nulls (x INT, y TEXT);
         INSERT INTO nulls VALUES (NULL, NULL), (NULL, NULL);
         CREATE TABLE stamps (at TIMESTAMP, n INT);
         INSERT INTO stamps VALUES (timestamp '2030-01-01', 1), (timestamp '2030-01-02', 2),
                                   (NULL, 3)",
    )
    .unwrap();
    let predicates = [
        "a IN (1, 3, 5)",
        "a NOT IN (1, 3)",
        "a IN (1, NULL)",
        "a NOT IN (1, NULL)",
        "a IN (NULL)",
        "a NOT IN (NULL, NULL)",
        "a IN (1.0, 2.5, 7)",
        "d IN (1, 2.5, 12.3, 7)",
        "d NOT IN (3, NULL, 0.1)",
        "c IN ('red', 'blue')",
        "c NOT IN ('red', NULL)",
        "a + 1 IN (2, 4)",
        "a IN (b, 3)",
        "a IN (1, 2) AND c NOT IN ('red')",
        "NOT (a IN (1, 2) OR b IN (7, NULL))",
        "(a > 2) IN (true)",
        "b BETWEEN 10 AND 30",
        "b NOT BETWEEN 10 AND 30",
        "b BETWEEN 10.5 AND 29.5",
        "d BETWEEN 2 AND 7.5",
        "d NOT BETWEEN 2 AND 7",
        "b BETWEEN NULL AND 30",
        "b NOT BETWEEN 10 AND NULL",
        "b BETWEEN 30 AND 10",
        "b BETWEEN a AND 30",
        "a * 2 BETWEEN 4 AND 9",
        "c BETWEEN 'b' AND 'h'",
        "c NOT BETWEEN 'blue' AND 'green' AND a IN (0, 1, 2, 3)",
        // An item that cannot be compared: an error, unless every row
        // matched an earlier item first.
        "a IN (1, 'x')",
        "c IN ('red', 1)",
        "a NOT IN ('x')",
        "b BETWEEN 'x' AND 30",
        "b BETWEEN 0 AND 'y'",
        "c BETWEEN 1 AND 2",
    ];
    for p in predicates {
        check(&mut db, &format!("SELECT a, b, c, d FROM t1 WHERE {p}"), false);
        check(&mut db, &format!("SELECT a, b, c, d, {p} AS p FROM t1"), false);
    }
    for sql in [
        // Every row matches before the incomparable item is reached.
        "SELECT k FROM t3 WHERE k < 100 AND k IN (0, 1, 2, 3, 4, 5, 6, 7, 'x')",
        // All-NULL columns have no typed representation.
        "SELECT x IN (1, 2), x NOT IN (1), y IN ('a'), x BETWEEN 1 AND 2 FROM nulls",
        "SELECT count(*) FROM nulls WHERE x IN (1, NULL) OR y NOT BETWEEN 'a' AND 'b'",
        // Boxed values keep the interpreter's evaluation.
        "SELECT n FROM stamps WHERE at IN (timestamp '2030-01-02', timestamp '2031-01-01')",
        "SELECT n, at BETWEEN timestamp '2030-01-01' AND timestamp '2030-01-01' FROM stamps",
        "SELECT n FROM stamps WHERE at IN (1, 2)",
        // In a join's pushed-down filter and in HAVING.
        "SELECT t1.a, t2.f FROM t1 JOIN t2 ON t1.a = t2.a \
         WHERE t1.a IN (1, 2, 3) AND t2.f NOT BETWEEN 20 AND 60",
        "SELECT c, sum(b) FROM t1 GROUP BY c HAVING sum(b) BETWEEN 100 AND 400 OR c IN ('red')",
    ] {
        check(&mut db, sql, false);
    }
}

/// The `Filter … [derived]` lines of `EXPLAIN sql`, trimmed.
fn derived_filters(db: &mut Database, sql: &str) -> Vec<String> {
    let is_derived = |l: &String| l.contains("[derived]");
    let trimmed = |l: String| {
        let from = l.find("Filter").expect("a Filter line");
        l[from..l.find(" [derived]").unwrap()].to_string()
    };
    explain_lines(db, &format!("EXPLAIN {sql}"))
        .into_iter()
        .filter(is_derived)
        .map(trimmed)
        .collect()
}

/// A constant comparison on one side of an equi-edge is copied to the
/// other side: the rows agree with the row interpreter (which derives
/// nothing), and EXPLAIN shows exactly the copies that are safe.
#[test]
fn predicates_derived_across_equi_edges_agree_with_the_row_interpreter() {
    let mut db = setup();
    execute_script(
        &mut db,
        "CREATE TABLE keyed (id INT, w FLOAT8, tag TEXT);
         INSERT INTO keyed VALUES (1, 1.0, 'red'), (2, 2.0, 'x'), (NULL, 3.0, NULL), (3, 3.5, 'y'),
                                  (4, NULL, 'red'), (7, 7.0, 'z'), (NULL, NULL, 'x'), (5, 5.0, 'c1')",
    )
    .unwrap();
    // (query, the derived filters EXPLAIN must show)
    let corpus: &[(&str, &[&str])] = &[
        // NULL keys on both sides never join, derived or not.
        (
            "SELECT t1.a, t1.b, keyed.w FROM t1 JOIN keyed ON keyed.id = t1.a WHERE t1.a < 3",
            &["Filter (keyed.id < 3)"],
        ),
        (
            "SELECT t1.a, keyed.w FROM t1, keyed WHERE t1.a = keyed.id AND keyed.id BETWEEN 2 AND 4",
            &["Filter (t1.a BETWEEN 2 AND 4)"],
        ),
        (
            "SELECT t1.a, keyed.tag FROM t1 JOIN keyed ON t1.a = keyed.id \
             WHERE t1.a IN (1, NULL, 5) AND 4 >= keyed.id",
            &["Filter (4 >= t1.a)", "Filter (keyed.id IN (1, NULL, 5))"],
        ),
        (
            "SELECT t1.a, keyed.tag FROM t1 JOIN keyed ON t1.a = keyed.id WHERE t1.a NOT IN (1, 2)",
            &["Filter (keyed.id NOT IN (1, 2))"],
        ),
        // Text keys, and a numeric constant of the other numeric type.
        (
            "SELECT t1.b, keyed.id FROM t1 JOIN keyed ON t1.c = keyed.tag WHERE keyed.tag >= 'red'",
            &["Filter (t1.c >= 'red')"],
        ),
        (
            "SELECT t1.a, keyed.w FROM t1 JOIN keyed ON t1.a = keyed.id WHERE keyed.id > 1.5",
            &["Filter (t1.a > 1.5)"],
        ),
        // Written on both sides already: nothing to add.
        (
            "SELECT t1.a FROM t1 JOIN keyed ON t1.a = keyed.id WHERE t1.a < 3 AND keyed.id < 3",
            &[],
        ),
        // An Int = Float edge joins 1 with 1.0 but is not derived across.
        (
            "SELECT t1.a, keyed.id FROM t1 JOIN keyed ON t1.a = keyed.w WHERE t1.a < 3",
            &[],
        ),
        // A text constant on an Int column fails on the first row it
        // meets; its copy would fail on rows the statement never compares.
        ("SELECT t1.a FROM t1 JOIN keyed ON t1.a = keyed.id WHERE t1.a < 'x'", &[]),
        (
            "SELECT t1.a FROM t3 JOIN t1 ON t1.a = t3.k WHERE t3.k IN (1, 'x') AND t3.k < 0",
            &["Filter (t1.a < 0)"],
        ),
        // Not a bare column against constants only.
        ("SELECT t1.a FROM t1 JOIN keyed ON t1.a = keyed.id WHERE t1.a + 0 < 3", &[]),
        ("SELECT t1.a FROM t1 JOIN keyed ON t1.a = keyed.id WHERE t1.a < t1.b", &[]),
        ("SELECT t1.a FROM t1 JOIN keyed ON t1.a + 1 = keyed.id WHERE t1.a < 3", &[]),
        // A chain of edges is one class: both other tables are filtered.
        (
            "SELECT t1.a, t2.f, t3.v FROM t1, t2, t3 WHERE t1.a = t2.a AND t2.a = t3.k AND t1.a < 5",
            &["Filter (t2.a < 5)", "Filter (t3.k < 5)"],
        ),
        // Two columns of one table in the class.
        (
            "SELECT x.a, x.b, t3.v FROM t1 x JOIN t3 ON x.a = t3.k AND x.b = t3.k WHERE x.a >= 2",
            &["Filter (x.b >= 2)", "Filter (t3.k >= 2)"],
        ),
        // Outer joins keep their syntactic shape: no predicate moves.
        ("SELECT t1.a, keyed.w FROM t1 LEFT JOIN keyed ON t1.a = keyed.id WHERE t1.a < 3", &[]),
        ("SELECT t1.a, keyed.w FROM t1 RIGHT JOIN keyed ON t1.a = keyed.id WHERE keyed.id < 3", &[]),
        ("SELECT t1.a, keyed.w FROM t1 FULL JOIN keyed ON t1.a = keyed.id WHERE t1.a IS NULL", &[]),
    ];
    for (sql, derived) in corpus {
        check(&mut db, sql, false);
        let mut want: Vec<String> = derived.iter().map(|d| d.to_string()).collect();
        let mut got = derived_filters(&mut db, sql);
        want.sort();
        got.sort();
        assert_eq!(got, want, "{sql}");
    }

    // A stored value outside its column's declared type (CREATE TABLE AS
    // keeps what the query returned): the copy cannot be evaluated, so it
    // filters nothing, and the statement answers as it always did.
    execute_script(
        &mut db,
        "CREATE TABLE loose AS SELECT k, v FROM t3 WHERE k < 0;
         INSERT INTO loose VALUES (1, 1), (2, 2);
         UPDATE loose SET v = 0;
         CREATE TABLE odd AS SELECT CASE WHEN id = 3 THEN 'three' ELSE id END AS k FROM keyed",
    )
    .unwrap();
    check(&mut db, "SELECT loose.k, odd.k FROM loose JOIN odd ON loose.k = odd.k", false);
    let sql = "SELECT loose.k FROM loose JOIN odd ON loose.k = odd.k WHERE loose.k < 2";
    assert_eq!(derived_filters(&mut db, sql), ["Filter (odd.k < 2)"]);
    let alone = execute_sql(&mut db, "SELECT k FROM odd WHERE k < 2").expect_err("'three' < 2");
    assert!(alone.to_string().contains("cannot compare"), "{alone}");
    check(&mut db, sql, false);
    assert_eq!(rows_of(&mut db, sql), [["1"]]);
}

#[test]
fn differential_fuzzed_selects() {
    let mut db = setup();
    let mut rng = Rng::new(0xDEADBEEF);
    let mut grouped_in = 0;
    for _ in 0..220 {
        let sql = gen_select(&mut rng);
        // Generated queries never carry a total order: compare multisets.
        check(&mut db, &sql, false);
        // Both executors failing alike would pass `check`: a grouped
        // operand of IN (subquery) must also run.
        if sql.contains("GROUP BY") && sql.contains("IN (SELECT") {
            execute_sql(&mut db, &sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
            grouped_in += 1;
        }
    }
    assert!(grouped_in >= 20, "{grouped_in} grouped queries with IN (subquery)");
}

fn gen_select(rng: &mut Rng) -> String {
    let agg = rng.below(3) == 0;
    let join = rng.below(3) == 0;
    let mut from = if join {
        let kind = rng.pick(&["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"]);
        format!("t1 {kind} t2 ON t1.a = t2.a")
    } else {
        "t1".to_string()
    };
    // A LATERAL item over the rows so far; its columns are not selected
    // by name, but it multiplies (or, as an inner join, drops) rows.
    match rng.below(8) {
        0 => from.push_str(", LATERAL (SELECT v FROM t3 WHERE t3.k = t1.a ORDER BY v LIMIT 2) l"),
        1 => from.push_str(
            " LEFT JOIN LATERAL (SELECT max(v) AS v FROM t3 WHERE t3.k < t1.b) l ON l.v > 10",
        ),
        2 => from.push_str(
            ", LATERAL (SELECT s.v FROM (SELECT v FROM t3 WHERE t3.k = t1.a) s WHERE s.v > t1.b) l",
        ),
        3 => from.push_str(
            ", LATERAL (SELECT v FROM t3 WHERE t3.k = t1.a UNION SELECT t1.b WHERE t1.b > 40) l",
        ),
        _ => {}
    }
    let qual = |c: &str| {
        if join && c == "a" {
            format!("t1.{c}")
        } else {
            c.to_string()
        }
    };
    let mut sql = String::from("SELECT ");
    if agg {
        let g = qual(rng.pick(&["a", "c"]));
        let call = match rng.below(5) {
            0 => "count(*)".to_string(),
            1 => format!("sum({})", qual("b")),
            2 => format!("avg({})", qual("d")),
            3 => format!("min({})", qual("b")),
            _ => format!("count(DISTINCT {})", qual("b")),
        };
        // The group key or the aggregate as the operand of [NOT] IN
        // (subquery), in the select list or in HAVING.
        let keys = if g == "c" { "SELECT e FROM t2" } else { "SELECT k FROM t3 WHERE v < 20" };
        let in_subquery = |rng: &mut Rng, operand: &str, list: &str| {
            format!("{operand} {}IN ({list})", rng.pick(&["", "NOT "]))
        };
        let item = match rng.below(4) {
            0 => format!(", {}", in_subquery(rng, &g, keys)),
            1 => format!(", {}", in_subquery(rng, &call, "SELECT v FROM t3")),
            _ => String::new(),
        };
        let having = match rng.below(6) {
            0 | 1 => " HAVING count(*) > 1".to_string(),
            2 => format!(" HAVING {}", in_subquery(rng, &g, keys)),
            3 => format!(" HAVING {}", in_subquery(rng, &call, "SELECT v FROM t3")),
            _ => String::new(),
        };
        sql.push_str(&format!("{g}, {call}{item} FROM {from}"));
        add_where(&mut sql, rng, &qual);
        match rng.below(4) {
            0 => sql.push_str(&format!(" GROUP BY ROLLUP ({g})")),
            1 => sql.push_str(&format!(" GROUP BY CUBE ({g})")),
            _ => sql.push_str(&format!(" GROUP BY {g}")),
        }
        sql.push_str(&having);
    } else {
        let distinct = rng.below(4) == 0;
        if distinct {
            sql.push_str("DISTINCT ");
        }
        let cols: Vec<String> = match rng.below(4) {
            0 => vec![qual("a"), qual("b")],
            1 => vec![qual("c"), format!("{} + 1", qual("b"))],
            2 => vec!["*".to_string()],
            _ => vec![qual("a"), qual("c"), qual("d")],
        };
        sql.push_str(&cols.join(", "));
        sql.push_str(&format!(" FROM {from}"));
        add_where(&mut sql, rng, &qual);
        // Which duplicate a DISTINCT keeps, and with it the sort key of a
        // column that is not selected, depends on the join order.
        if !distinct && rng.below(3) == 0 {
            // ORDER BY alone is not a total order over duplicate rows;
            // keep it to exercise Sort, but still compare multisets.
            let order = rng.pick(&["", " DESC", " NULLS FIRST", " DESC NULLS LAST"]);
            sql.push_str(&format!(" ORDER BY {}{order}", qual("b")));
            // A cut among rows of equal `b` takes the first of them in
            // input order — a join's output order included.
            match rng.below(4) {
                0 => sql.push_str(&format!(" LIMIT {} OFFSET {}", rng.below(30), rng.below(6))),
                1 => {
                    sql.push_str(&format!(" LIMIT {} OFFSET {}", 40 + rng.below(60), rng.below(4)))
                }
                _ => {}
            }
        }
    }
    sql
}

fn add_where(sql: &mut String, rng: &mut Rng, qual: &dyn Fn(&str) -> String) {
    if rng.below(4) == 0 {
        return;
    }
    let mut preds = Vec::new();
    for _ in 0..=rng.below(2) {
        let p = match rng.below(8) {
            // Correlated subqueries: a scalar aggregate, EXISTS, IN.
            6 => format!(
                "{} {} (SELECT count(*) FROM t3 WHERE t3.k = {})",
                qual("b"),
                rng.pick(&["<", ">="]),
                qual("a")
            ),
            7 => match rng.below(2) {
                0 => format!(
                    "{}EXISTS (SELECT 1 FROM t3 WHERE t3.k = {} AND t3.v > {})",
                    rng.pick(&["", "NOT "]),
                    qual("a"),
                    qual("b")
                ),
                _ => format!(
                    "{} {}IN (SELECT v FROM t3 WHERE t3.k <> {})",
                    qual("b"),
                    rng.pick(&["", "NOT "]),
                    qual("a")
                ),
            },
            0 => format!("{} {} {}", qual("a"), rng.pick(&["<", ">", "=", "<>"]), rng.below(8)),
            1 => format!("{} {} {}", qual("b"), rng.pick(&["<=", ">="]), rng.below(50)),
            2 => format!("{} IS NOT NULL", qual("c")),
            3 => format!("{} IS NULL", qual("d")),
            4 => format!("{} IN ('red', 'green')", qual("c")),
            _ => format!("{} BETWEEN 5 AND 40", qual("b")),
        };
        preds.push(p);
    }
    sql.push_str(&format!(" WHERE {}", preds.join(rng.pick(&[" AND ", " OR "]))));
}

/// `Limit` slices batches and `Sort` selects among all of them: cuts at,
/// across and past the 1024-row batch boundary of a stored table.
#[test]
fn sort_and_limit_cut_across_batches() {
    let mut db = Database::new();
    execute_sql(
        &mut db,
        "CREATE TABLE big AS WITH RECURSIVE g(i) AS (SELECT 0 UNION ALL SELECT i + 1 FROM g \
         WHERE i < 2499) SELECT i, i % 7 AS k, CASE WHEN i % 5 = 0 THEN NULL ELSE i % 3 END AS z FROM g",
    )
    .unwrap();
    for tail in [
        "LIMIT 5 OFFSET 1020",
        "LIMIT 1024",
        "LIMIT 1500 OFFSET 1000",
        "LIMIT 10 OFFSET 2495",
        "OFFSET 2048",
        "ORDER BY k LIMIT 10 OFFSET 1100",
        "ORDER BY k DESC, i LIMIT 3",
        "ORDER BY z NULLS FIRST, k DESC LIMIT 600 OFFSET 450",
        "ORDER BY z DESC LIMIT 1",
        "ORDER BY z, k LIMIT 2600",
        "ORDER BY k",
    ] {
        check(&mut db, &format!("SELECT i, k, z FROM big {tail}"), true);
    }
}

/// A statement's error is one error whichever executor meets it — the
/// planner's is not a hint to try the other one — with the kind and the
/// text the front end gives it: the position, the GROUP BY hint, the
/// name that does not resolve. At the top level, in a subquery and in a
/// LATERAL item alike.
#[test]
fn errors_are_the_same_kind_and_text_on_both_paths() {
    let mut db = setup();
    for (sql, needle) in [
        ("SELECT a, count(*) FROM t1", "must appear in GROUP BY or be used in an aggregate"),
        ("SELECT a FROM t1 ORDER BY 9", "binder error: ORDER BY position 9 out of range"),
        ("SELECT a, count(*) FROM t1 GROUP BY 9", "binder error: GROUP BY position 9 out of range"),
        ("SELECT a FROM nowhere", "catalog error: relation 'nowhere' does not exist"),
        ("SELECT a FROM t1 JOIN nowhere n ON n.a = t1.a", "relation 'nowhere' does not exist"),
        ("SELECT nope FROM t1", "binder error: column 'nope' does not exist"),
        ("SELECT t1.a FROM t1 JOIN t2 ON t2.a = t3.k, t3", "column 't3.k' does not exist"),
        ("SELECT a FROM t1 LIMIT 'many'", "evaluation error: "),
        ("SELECT a, grouping(a) FROM t1 GROUP BY a", "grouping"),
        ("SELECT a FROM t1, t2", "column reference 'a' is ambiguous"),
        ("SELECT 1 FROM t1 WHERE (SELECT nope FROM t2) > 0", "column 'nope' does not exist"),
        ("SELECT (SELECT count(*) FROM nowhere WHERE k = t1.a) FROM t1", "relation 'nowhere'"),
        ("SELECT (SELECT sum(f) FROM t2 GROUP BY 9) FROM t1", "GROUP BY position 9 out of range"),
        ("SELECT x.f FROM t3, LATERAL (SELECT f FROM t2 WHERE t2.a = t3.nope) x", "t3.nope"),
        ("SELECT 1 ORDER BY 2", "ORDER BY position 2 out of range"),
    ] {
        check(&mut db, sql, true);
        let err = execute_sql(&mut db, sql).expect_err(sql).to_string();
        assert!(err.contains(needle), "{sql}: {err}");
        // EXPLAIN plans the statement's own block and reports what it finds.
        let explained = execute_sql(&mut db, &format!("EXPLAIN {sql}"));
        if !sql.contains("(SELECT") {
            assert_eq!(explained.expect_err(sql).to_string(), err, "EXPLAIN {sql}");
        }
    }
}

/// `JOIN LATERAL (…) USING (cols)` joins on the named columns, like any
/// other join (it used to return the unfiltered cross apply).
#[test]
fn lateral_join_using_filters_on_the_named_columns() {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE a (id INT, g INT, x TEXT);
         CREATE TABLE b (id INT, g INT, w INT);
         INSERT INTO a VALUES (1, 1, 'p'), (2, 1, 'q'), (NULL, 2, 'r'), (3, 9, 's');
         INSERT INTO b VALUES (1, 1, 10), (2, 2, 20), (2, 1, 21), (NULL, 2, 30), (3, 9, 40), (3, 9, 41)",
    )
    .unwrap();
    let count = |db: &mut Database, sql: &str| {
        check(db, sql, false);
        rows_of(db, sql).len()
    };
    let on_id = "SELECT a.x, s.w FROM a JOIN LATERAL (SELECT id, w FROM b) s USING (id)";
    assert_eq!(count(&mut db, on_id), 5, "1, 2 twice, 3 twice — not 4 × 6");
    assert_eq!(count(&mut db, &on_id.replace("JOIN", "LEFT JOIN")), 6, "and the NULL id, padded");
    let on_both = "SELECT a.x, s.w FROM a JOIN LATERAL (SELECT id, g, w FROM b) s USING (id, g)";
    assert_eq!(count(&mut db, on_both), 4);
    assert_eq!(count(&mut db, &on_both.replace("JOIN", "LEFT JOIN")), 5);
    // The subquery may read the left row as well.
    let narrowed = "SELECT a.x, s.w FROM a LEFT JOIN LATERAL \
                    (SELECT id, w FROM b WHERE b.g = a.g) s USING (id)";
    assert_eq!(count(&mut db, narrowed), 5);
    // A name one side lacks is the bind error of a plain USING join.
    for (sql, side) in [
        ("SELECT 1 FROM a JOIN LATERAL (SELECT w FROM b) s USING (id)", "right"),
        ("SELECT 1 FROM a JOIN LATERAL (SELECT id, w FROM b) s USING (w)", "left"),
        ("SELECT 1 FROM a JOIN b USING (x)", "right"),
    ] {
        check(&mut db, sql, false);
        let err = execute_sql(&mut db, sql).expect_err(sql).to_string();
        assert!(err.starts_with("binder error: USING column "), "{sql}: {err}");
        assert!(err.ends_with(&format!("not in {side} side")), "{sql}: {err}");
    }
    // RIGHT / FULL are refused before a row is produced: the subquery,
    // which would divide by zero, never runs.
    for kind in ["RIGHT", "FULL"] {
        let sql = format!(
            "SELECT 1 FROM a {kind} JOIN LATERAL (SELECT 1 / (a.id - a.id) AS id) s USING (id)"
        );
        check(&mut db, &sql, false);
        let err = execute_sql(&mut db, &sql).expect_err(&sql).to_string();
        assert_eq!(err, "unsupported: RIGHT/FULL JOIN LATERAL");
    }
}

/// `SOLVESELECT` / `SOLVEMODEL` inside a block do not take the block off
/// the planner: the solve runs through the handler wherever it sits, on
/// both executors, and a plan that *captured* a solve's answer (a FROM
/// subquery, a view) is not kept — every execution solves again.
#[test]
fn solve_bearing_blocks_are_planned_and_captured_answers_are_not_cached() {
    use std::sync::atomic::{AtomicU64, Ordering};
    /// "Solves" by returning the decision relation as it is.
    struct Echo(AtomicU64);
    impl sqlengine::SolveHandler for Echo {
        fn solve_select(
            &self,
            db: &Database,
            stmt: &sqlengine::ast::SolveStmt,
            ctes: &sqlengine::Ctes,
            _trace: Option<&obs::Trace>,
        ) -> sqlengine::Result<Table> {
            self.0.fetch_add(1, Ordering::Relaxed);
            sqlengine::run_query(db, ctes, &stmt.input.query, None)
        }
        fn solve_model(
            &self,
            _db: &Database,
            _stmt: &sqlengine::ast::SolveStmt,
            _ctes: &sqlengine::Ctes,
        ) -> sqlengine::Result<Value> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Int(42))
        }
        fn model_eval(
            &self,
            _db: &Database,
            _select: &sqlengine::ast::Query,
            _model: &sqlengine::ast::Query,
            _ctes: &sqlengine::Ctes,
        ) -> sqlengine::Result<Table> {
            Err(sqlengine::Error::unsupported("MODELEVAL"))
        }
    }
    let mut db = setup();
    let solver = std::sync::Arc::new(Echo(AtomicU64::new(0)));
    db.set_solve_handler(solver.clone());
    let solves = || solver.0.swap(0, Ordering::Relaxed);
    let solve = "SOLVESELECT r(v) AS (SELECT k, v FROM t3 WHERE k < 3) USING echo()";

    // In a FROM subquery: captured by the plan, so the plan is dropped.
    let from = format!("SELECT s.k, sum(s.v) FROM ({solve}) s GROUP BY s.k");
    check(&mut db, &from, false);
    assert_eq!(solves(), 2, "once per executor");
    let r = execute_sql(&mut db, &from).unwrap();
    assert!(r.plan_fingerprint.is_some(), "planned");
    execute_sql(&mut db, &from).unwrap();
    assert_eq!(solves(), 2, "every execution solves again");
    let explained = explain_lines(&mut db, &format!("EXPLAIN {from}")).join("\n");
    assert!(explained.contains("Scan s") && !explained.contains("row interpreter"), "{explained}");
    assert_eq!(solves(), 1, "planning runs what the plan captures");
    // Behind a view, and as a LIMIT.
    execute_sql(&mut db, &format!("CREATE VIEW solved AS {solve}")).unwrap();
    execute_sql(&mut db, "SELECT count(*) FROM solved").unwrap();
    execute_sql(&mut db, "SELECT count(*) FROM solved").unwrap();
    assert_eq!(solves(), 2);
    let limited = "SELECT a FROM t1 ORDER BY a, b, c, d LIMIT (SOLVEMODEL m(x) AS (SELECT 1 AS x))";
    check(&mut db, limited, true);
    solves();

    // In subquery position the solve runs when the expression does: per
    // row here, with the plan of the block around it cached like any other.
    let scalar = format!("SELECT k, (SELECT sum(v) FROM ({solve}) s WHERE s.k = t3.k) FROM t3");
    check(&mut db, &scalar, false);
    assert_eq!(solves(), 30, "15 rows on each executor");
    assert_eq!(execute_sql(&mut db, &scalar).unwrap().plan_cache_hit, Some(true));
    assert_eq!(solves(), 15);
    // In a FROM subquery of a LATERAL body: once per left row.
    let lateral = format!(
        "SELECT t3.k, x.n FROM t3, LATERAL (SELECT count(*) AS n FROM ({solve}) s WHERE s.k = t3.k) x"
    );
    check(&mut db, &lateral, false);
    assert_eq!(solves(), 30, "15 rows on each executor");
    let model = "SELECT k, (SOLVEMODEL m(x) AS (SELECT 1 AS x)) FROM t3 WHERE k = 1";
    check(&mut db, model, false);
    let exists = format!(
        "SELECT a FROM t1 WHERE EXISTS ({solve}) AND a IN ({})",
        solve.replace("k, v", "k")
    );
    check(&mut db, &exists, false);
}

/// A block that runs once per outer row is planned once per statement:
/// the plan cache answers for every row after the first.
#[test]
fn blocks_under_an_outer_row_are_planned_once() {
    let mut db = Database::new();
    execute_script(&mut db, "CREATE TABLE a (id INT); CREATE TABLE b (id INT, w INT)").unwrap();
    let ids = |n: usize| (0..n).map(|i| format!("({i})")).collect::<Vec<_>>().join(",");
    execute_sql(&mut db, &format!("INSERT INTO a VALUES {}", ids(500))).unwrap();
    let pairs: Vec<String> = (0..8000).map(|i| format!("({}, {i})", i % 500)).collect();
    execute_sql(&mut db, &format!("INSERT INTO b VALUES {}", pairs.join(","))).unwrap();
    for (sql, plans) in [
        ("SELECT a.id, (SELECT sum(w) FROM b WHERE b.id = a.id) FROM a", 2),
        ("SELECT a.id, (SELECT sum(w) FROM b WHERE b.id = 7) FROM a", 2),
        ("SELECT a.id, x.s FROM a, LATERAL (SELECT sum(w) AS s FROM b WHERE b.id = a.id) x", 2),
        // The inner block of the LATERAL item is one more, not 500 more.
        (
            "SELECT a.id, x.s FROM a, LATERAL \
             (SELECT (SELECT sum(w) FROM b WHERE b.id = a.id) AS s) x",
            3,
        ),
    ] {
        let before = db.exec_counts();
        let t = execute_sql(&mut db, sql).unwrap().into_table().unwrap();
        assert_eq!(t.num_rows(), 500, "{sql}");
        assert_eq!(db.exec_counts().since(&before).plans_built, plans, "{sql}");
        let before = db.exec_counts();
        execute_sql(&mut db, sql).unwrap();
        assert_eq!(db.exec_counts().since(&before).plans_built, 0, "second run: {sql}");
    }
    // The outer scope is part of what a block was planned against: the
    // same text under another scope is another plan, not a wrong column.
    let under = |from: &str| format!("SELECT (SELECT count(*) FROM b WHERE b.w = k) FROM {from}");
    execute_script(&mut db, "CREATE TABLE c (j INT, k INT); INSERT INTO c VALUES (1, 2)").unwrap();
    for from in ["(SELECT 3 AS k) s", "c", "(SELECT 3 AS j, 4 AS k) s", "c"] {
        check(&mut db, &under(from), true);
        assert_eq!(rows_of(&mut db, &under(from)), [["1"]]);
    }
}

/// `i64::MIN / -1` has no `i64` answer: between two columns it is the
/// typed overflow error the constant form gives, on both executors and
/// through a `Fallback` expression — never a panic.
#[test]
fn min_divided_by_minus_one_is_an_overflow_error_on_both_paths() {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE edge (a int8, b int8);
         INSERT INTO edge VALUES (7, 2), (-9223372036854775808, -1)",
    )
    .unwrap();
    for sql in [
        "SELECT a / b FROM edge",
        "SELECT a % b FROM edge",
        "SELECT (SELECT a / b) FROM edge",
        "SELECT a / -1 FROM edge",
        "SELECT abs(a) FROM edge",
        "SELECT abs(-9223372036854775807 - 1)",
    ] {
        check(&mut db, sql, false);
        let err = execute_sql(&mut db, sql).expect_err(sql).to_string();
        assert_eq!(err, "evaluation error: integer overflow", "{sql}");
    }
    check(&mut db, "SELECT a / b, a % b FROM edge WHERE a > 0", false);
    let err = execute_sql(&mut db, "SELECT a % (b - b) FROM edge").unwrap_err().to_string();
    assert_eq!(err, "evaluation error: division by zero");
}

/// `round(x, digits)` takes `digits` as a 32-bit integer: a wider one is
/// an error, not a round to its low 32 bits.
#[test]
fn round_refuses_digits_beyond_32_bits_on_both_paths() {
    let mut db = setup();
    check(&mut db, "SELECT round(d, 1), round(d, -1) FROM t1", false);
    for sql in ["SELECT round(1.55, 4294967297)", "SELECT round(d, -2147483649) FROM t1"] {
        check(&mut db, sql, false);
        let err = execute_sql(&mut db, sql).expect_err(sql).to_string();
        assert_eq!(err, "evaluation error: round: number of digits out of range", "{sql}");
    }
}

/// A column whose every value is NULL keeps its declared type on both
/// paths — decision columns of a SOLVESELECT are such columns, and the
/// integrality of the solver's variables is read off this type.
#[test]
fn all_null_columns_keep_their_static_type_on_both_paths() {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE v (id INT, x FLOAT8, n INT);
         INSERT INTO v VALUES (1, NULL, NULL), (2, NULL, NULL);",
    )
    .unwrap();
    for sql in [
        "SELECT x, n, cast(NULL AS INT) AS k FROM v",
        "SELECT * FROM v WHERE id > 0 ORDER BY id",
        "SELECT p.x, q.n FROM v p JOIN v q ON p.id = q.id",
        "SELECT cast(max(x) AS FLOAT8) AS m, cast(NULL AS INT) AS k FROM v GROUP BY id",
    ] {
        // `check` holds the two paths to the same types; this pins which.
        check(&mut db, sql, false);
        let t = execute_sql(&mut db, sql).unwrap().into_table().unwrap();
        for c in t.schema.columns.iter().filter(|c| c.name != "id") {
            let want = if c.name == "n" || c.name == "k" { DataType::Int } else { DataType::Float };
            assert_eq!(c.ty, want, "column {}: {sql}", c.name);
        }
    }
}

/// CTEs shadow views shadow tables shadow virtual tables, whichever
/// executor scans the name.
#[test]
fn relation_names_resolve_in_one_order_on_both_paths() {
    struct Fake;
    impl sqlengine::VirtualTableProvider for Fake {
        fn names(&self) -> Vec<String> {
            vec!["sdb_fake".to_string()]
        }
        fn table(&self, name: &str) -> Option<Table> {
            (name == "sdb_fake")
                .then(|| Table::from_rows(&["z"], vec![vec![Value::text("virtual")]]))
        }
    }
    let mut db = Database::new();
    db.set_virtual_tables(std::sync::Arc::new(Fake));
    let z = |db: &mut Database, sql: &str| {
        check(db, sql, true);
        rows_of(db, sql)
    };
    let scan = "SELECT z FROM sdb_fake WHERE z IS NOT NULL";
    assert_eq!(z(&mut db, scan), [["virtual"]]);
    let under_cte = format!("WITH sdb_fake AS (SELECT 'cte' AS z) {scan}");
    assert_eq!(z(&mut db, &under_cte), [["cte"]]);
    execute_sql(&mut db, "CREATE TABLE sdb_fake AS SELECT 'table' AS z").unwrap();
    assert_eq!(z(&mut db, scan), [["table"]]);
    // SQL refuses a view over a table; replaying a log, last writer wins,
    // can still leave both under one name.
    let view = "CREATE OR REPLACE VIEW sdb_fake AS SELECT 'view' AS z";
    assert!(execute_sql(&mut db, view).is_err());
    let sql = "SELECT 'view' AS z".to_string();
    sqlengine::catalog::CatalogMutation::CreateView { name: "sdb_fake".into(), sql }
        .apply(&mut db)
        .unwrap();
    assert_eq!(z(&mut db, scan), [["view"]]);
    assert_eq!(z(&mut db, &under_cte), [["cte"]]);
}

// ---------------------------------------------------------------------------
// Grouping sets: exact expected outputs (both executors).

fn grouping_db() -> Database {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE sales (region TEXT, product TEXT, amount INT);
         INSERT INTO sales VALUES
           ('east', 'ink', 10), ('east', 'pen', 20), ('east', 'ink', 30),
           ('west', 'pen', 40), ('west', 'ink', 50);",
    )
    .unwrap();
    db
}

fn rows_of(db: &mut Database, sql: &str) -> Vec<Vec<String>> {
    let t = execute_sql(db, sql).unwrap().into_table().unwrap();
    t.rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect()
}

fn assert_both_executors(db: &mut Database, sql: &str, expected: &[&[&str]]) {
    for force_row in [false, true] {
        let prev = db.set_force_row_interpreter(force_row);
        let mut got = rows_of(db, sql);
        db.set_force_row_interpreter(prev);
        let mut want: Vec<Vec<String>> =
            expected.iter().map(|r| r.iter().map(|s| s.to_string()).collect()).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "force_row={force_row}: {sql}");
    }
}

#[test]
fn rollup_produces_subtotals_and_grand_total() {
    let mut db = grouping_db();
    assert_both_executors(
        &mut db,
        "SELECT region, product, sum(amount) FROM sales GROUP BY ROLLUP (region, product)",
        &[
            &["east", "ink", "40"],
            &["east", "pen", "20"],
            &["west", "pen", "40"],
            &["west", "ink", "50"],
            &["east", "NULL", "60"],
            &["west", "NULL", "90"],
            &["NULL", "NULL", "150"],
        ],
    );
}

#[test]
fn cube_produces_all_marginals() {
    let mut db = grouping_db();
    assert_both_executors(
        &mut db,
        "SELECT region, product, sum(amount) FROM sales GROUP BY CUBE (region, product)",
        &[
            &["east", "ink", "40"],
            &["east", "pen", "20"],
            &["west", "pen", "40"],
            &["west", "ink", "50"],
            &["east", "NULL", "60"],
            &["west", "NULL", "90"],
            &["NULL", "ink", "90"],
            &["NULL", "pen", "60"],
            &["NULL", "NULL", "150"],
        ],
    );
}

#[test]
fn grouping_sets_listed_explicitly() {
    let mut db = grouping_db();
    assert_both_executors(
        &mut db,
        "SELECT region, product, count(*) FROM sales \
         GROUP BY GROUPING SETS ((region), (product), ())",
        &[
            &["east", "NULL", "3"],
            &["west", "NULL", "2"],
            &["NULL", "ink", "3"],
            &["NULL", "pen", "2"],
            &["NULL", "NULL", "5"],
        ],
    );
}

#[test]
fn rollup_keeps_null_source_groups_distinct_from_totals() {
    let mut db = grouping_db();
    execute_sql(&mut db, "INSERT INTO sales VALUES (NULL, 'ink', 7)").unwrap();
    // A NULL region group and the grand-total row both render region as
    // NULL; the multiset must contain both, with distinct sums.
    assert_both_executors(
        &mut db,
        "SELECT region, sum(amount) FROM sales GROUP BY ROLLUP (region)",
        &[&["east", "60"], &["west", "90"], &["NULL", "7"], &["NULL", "157"]],
    );
}

#[test]
fn rollup_respects_having_and_order() {
    let mut db = grouping_db();
    let sql = "SELECT region, sum(amount) AS s FROM sales GROUP BY ROLLUP (region) \
               HAVING sum(amount) > 70 ORDER BY s";
    for force_row in [false, true] {
        let prev = db.set_force_row_interpreter(force_row);
        let got = rows_of(&mut db, sql);
        db.set_force_row_interpreter(prev);
        assert_eq!(
            got,
            vec![
                vec!["west".to_string(), "90".to_string()],
                vec!["NULL".to_string(), "150".to_string()]
            ]
        );
    }
}

/// A key column may change representation from one batch to the next:
/// `m`'s 3000 rows span three batches, and its key columns hold integers
/// in the first 1500 rows and floats after them (the batch in between is
/// of both). `k` is `g % 3`; `x` is too, except for `2^53 + 1` (an
/// integer, row 0), `2^53` (a float, row 2500), `-0.0` (row 2501) and
/// NULL (rows 1 and 2502) — which leaves keys 0, 1, 2 with 999, 998 and
/// 999 rows. `d` keys `x` by an integer and by a float column. Every
/// operator that keys a row counts `1` and `1.0`, and `-0.0` and `0.0`,
/// as one key, and `2^53 + 1` as no float's, on both executors.
#[test]
fn keys_that_change_kind_across_batches_count_once() {
    let (two_53, mut db) = (1i64 << 53, Database::new());
    let value = |g: i64, v: i64| if g < 1500 { Value::Int(v) } else { Value::Float(v as f64) };
    let x = |g: i64| match g {
        0 => Value::Int(two_53 + 1),
        2500 => Value::Float(two_53 as f64),
        2501 => Value::Float(-0.0),
        1 | 2502 => Value::Null,
        _ => value(g, g % 3),
    };
    let rows = (0..3000).map(|g| vec![Value::Int(g), value(g, g % 3), x(g)]).collect();
    let cols = [("g", DataType::Int), ("k", DataType::Unknown), ("x", DataType::Unknown)];
    let schema = Schema::new(cols.iter().map(|(n, ty)| Column::new(*n, ty.clone())).collect());
    db.create_table("m", Table::with_rows(schema, rows), false).unwrap();
    execute_script(
        &mut db,
        "CREATE TABLE d (i INT8, f FLOAT8);
         INSERT INTO d VALUES (0, -0.0), (1, 1.0), (2, 2.0),
           (9007199254740992, 9007199254740992.0), (9007199254740993, NULL);",
    )
    .unwrap();
    assert_both_executors(
        &mut db,
        "SELECT count(*) FROM m GROUP BY k",
        &[&["1000"], &["1000"], &["1000"]],
    );
    assert_both_executors(
        &mut db,
        "SELECT count(*) FROM m GROUP BY x",
        &[&["999"], &["998"], &["999"], &["1"], &["1"], &["2"]],
    );
    for (sql, count) in [
        ("SELECT count(*) FROM (SELECT DISTINCT x FROM m) s", "6"),
        ("SELECT count(*) FROM m JOIN d ON m.x = d.i", "2998"),
        ("SELECT count(*) FROM m JOIN d ON m.x = d.f", "2997"),
        ("SELECT count(*) FROM (SELECT x FROM m UNION SELECT f FROM d) s", "6"),
        ("SELECT count(*) FROM (SELECT x FROM m INTERSECT SELECT i FROM d) s", "5"),
        ("SELECT count(*) FROM (SELECT x FROM m INTERSECT ALL SELECT f FROM d) s", "5"),
        ("SELECT count(*) FROM (SELECT x FROM m EXCEPT SELECT i FROM d) s", "1"),
        ("SELECT count(*) FROM (SELECT x FROM m EXCEPT ALL SELECT i FROM d) s", "2995"),
        (
            "WITH RECURSIVE r(v) AS (SELECT x FROM m UNION \
             SELECT m.x FROM m JOIN r ON m.x = r.v) SELECT count(*) FROM r",
            "6",
        ),
        (
            "WITH RECURSIVE r(v) AS (SELECT 0.0 UNION \
             SELECT m.x FROM r JOIN m ON m.x = r.v + 1) SELECT count(*) FROM r",
            "3",
        ),
    ] {
        assert_both_executors(&mut db, sql, &[&[count]]);
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN SELECT snapshots.

fn explain_lines(db: &mut Database, sql: &str) -> Vec<String> {
    let t = execute_sql(db, sql).unwrap().into_table().unwrap();
    t.rows.iter().map(|r| r[0].to_string()).collect()
}

#[test]
fn explain_select_shows_optimized_plan() {
    let mut db = setup();
    let lines = explain_lines(
        &mut db,
        "EXPLAIN SELECT t1.c, sum(t2.f) FROM t1 JOIN t2 ON t1.a = t2.a \
         WHERE t1.b > 10 AND t2.f < 90 GROUP BY t1.c",
    );
    let plan = lines.join("\n");
    assert!(plan.contains("Project"), "missing Project:\n{plan}");
    assert!(plan.contains("Aggregate"), "missing Aggregate:\n{plan}");
    assert!(plan.contains("HashJoin"), "missing HashJoin:\n{plan}");
    // Both single-table predicates must be pushed below the join: the
    // Filter lines appear after (deeper than) the HashJoin line.
    let join_at = lines.iter().position(|l| l.contains("HashJoin")).unwrap();
    let filters: Vec<usize> =
        lines.iter().enumerate().filter(|(_, l)| l.contains("Filter")).map(|(i, _)| i).collect();
    assert_eq!(filters.len(), 2, "expected two pushed filters:\n{plan}");
    assert!(filters.iter().all(|&i| i > join_at), "filters not below join:\n{plan}");
    // Column pruning: t1 has 4 columns but only a, b, c are used.
    assert!(plan.contains("cols=3/4"), "t1 not pruned to 3/4 cols:\n{plan}");
    // Estimates and fingerprint render.
    assert!(plan.contains("rows≈"), "missing row estimates:\n{plan}");
    assert!(lines.last().unwrap().starts_with("plan fingerprint: "), "no fingerprint:\n{plan}");
}

/// Every block has a plan to show: FROM-less, correlated, LATERAL and
/// `USING` ones too. No line of an `EXPLAIN SELECT` names another executor.
#[test]
fn explain_select_shows_a_plan_for_every_block_shape() {
    let mut db = setup();
    let lines = explain_lines(&mut db, "EXPLAIN SELECT 1 AS one");
    assert_eq!(lines[..2], ["Project 1 (rows≈1, cost≈2)", "└─ OneRow (rows≈1, cost≈1)"]);
    for (sql, needle) in [
        ("SELECT a, (SELECT sum(f) FROM t2 WHERE t2.a = t1.a) FROM t1", "Project a, (SELECT sum(f)"),
        (
            "SELECT t3.k, x.f FROM t3 LEFT JOIN LATERAL (SELECT f FROM t2 WHERE t2.a = t3.k) x ON x.f > 9",
            "Apply Left on (x.f > 9)",
        ),
        ("SELECT t3.k, x.f FROM t3, LATERAL (SELECT f FROM t2 WHERE t2.a = t3.k) x", "Filter (t2.a = t3.k)"),
        ("SELECT t1.b, t2.f FROM t1 LEFT JOIN t2 USING (a)", "HashJoin Left on USING (a)"),
        ("SELECT a FROM t1 UNION SELECT 1 ORDER BY 1", "OneRow"),
    ] {
        let text = explain_lines(&mut db, &format!("EXPLAIN {sql}")).join("\n");
        assert!(text.contains(needle), "{sql}:\n{text}");
        assert!(!text.contains("row interpreter"), "{sql}:\n{text}");
    }
}

#[test]
fn explain_fingerprint_is_stable_and_structural() {
    let mut db = setup();
    let fp = |db: &mut Database, sql: &str| {
        explain_lines(db, sql).last().unwrap().trim_start_matches("plan fingerprint: ").to_string()
    };
    let a1 = fp(&mut db, "EXPLAIN SELECT a, b FROM t1 WHERE a > 3");
    let a2 = fp(&mut db, "EXPLAIN SELECT a, b FROM t1 WHERE a > 3");
    assert_eq!(a1, a2, "fingerprint not deterministic");
    let b = fp(&mut db, "EXPLAIN SELECT a, b FROM t1 WHERE a > 4");
    assert_ne!(a1, b, "different predicates should fingerprint differently");
    // Inserting rows changes estimates but not the structural fingerprint.
    execute_sql(&mut db, "INSERT INTO t1 VALUES (1, 2, 'red', 0.5)").unwrap();
    let a3 = fp(&mut db, "EXPLAIN SELECT a, b FROM t1 WHERE a > 3");
    assert_eq!(a1, a3, "fingerprint must ignore cardinality estimates");
}

#[test]
fn explain_analyze_select_traces_operators() {
    let mut db = setup();
    let t = execute_sql(&mut db, "EXPLAIN ANALYZE SELECT c, count(*) FROM t1 GROUP BY c")
        .unwrap()
        .into_table()
        .unwrap();
    let text = t.rows.iter().map(|r| r[0].to_string()).collect::<Vec<_>>().join("\n");
    assert!(text.contains("columnar executor"), "missing executor span:\n{text}");
    assert!(text.contains("Aggregate"), "missing Aggregate span:\n{text}");
    assert!(text.contains("Scan t1"), "missing Scan span:\n{text}");
    assert!(text.contains("rows out:"), "missing row count:\n{text}");
    assert!(text.contains("plan fingerprint:"), "missing fingerprint:\n{text}");
    // Grouping and DISTINCT name their key index as the join does; a
    // ROLLUP one per grouping set, the grand total's of no columns.
    let line = |db: &mut Database, sql: &str, op: &str| {
        let lines = explain_lines(db, &format!("EXPLAIN ANALYZE {sql}"));
        lines.into_iter().find(|l| l.contains(op)).expect("the operator's span")
    };
    assert!(text.lines().any(|l| l.contains("Aggregate") && l.ends_with("  keys=generic")));
    let distinct = line(&mut db, "SELECT DISTINCT a FROM t1", "Distinct");
    assert!(distinct.ends_with("  keys=num"), "{distinct}");
    let rollup = line(&mut db, "SELECT a, c, count(*) FROM t1 GROUP BY ROLLUP (a, c)", "Aggregate");
    assert!(rollup.ends_with("  keys=multi,num,none"), "{rollup}");
}

/// The HashJoin span says which input the table was built over and how
/// many rows went in on each side; a derived filter is marked in both
/// EXPLAIN forms.
#[test]
fn explain_analyze_notes_the_join_build_side_and_derived_filters() {
    let mut db = setup();
    let analyze = |db: &mut Database, sql: &str| {
        explain_lines(db, &format!("EXPLAIN ANALYZE {sql}")).join("\n")
    };
    // The planner puts the smaller input (t3, 15 rows) on the left.
    let text = analyze(&mut db, "SELECT t3.v, t1.b FROM t1 JOIN t3 ON t1.a = t3.k");
    assert!(text.contains("  build=left  keys=num  build_rows=15  probe_rows=60"), "{text}");
    // An outer join builds its right input whatever the sizes.
    let text = analyze(&mut db, "SELECT t3.v, t1.b FROM t3 LEFT JOIN t1 ON t1.a = t3.k");
    assert!(text.contains("  build=right  keys=num  build_rows=60  probe_rows=15"), "{text}");
    // Which key table: several columns, or one of text.
    let text = analyze(&mut db, "SELECT t1.b FROM t1 JOIN t2 ON t1.a = t2.a AND t1.c = t2.e");
    assert!(text.contains("  keys=multi  "), "{text}");
    let text = analyze(&mut db, "SELECT t1.b FROM t1 JOIN t2 ON t1.c = t2.e");
    assert!(text.contains("  keys=generic  "), "{text}");
    let text = analyze(&mut db, "SELECT t3.v FROM t1 JOIN t3 ON t1.a = t3.k WHERE t3.k = 2");
    assert!(text.contains("-> Filter (t1.a = 2) [derived]: "), "{text}");
}

/// `IN` over `k` constants keeps `k` values' share of the rows, by the
/// column's distinct count — not the generic third.
#[test]
fn in_list_estimates_use_the_distinct_count() {
    let mut db = setup();
    // `a` holds 0..8 and NULL: nine distinct keys in 60 rows.
    let filter_line = |db: &mut Database, pred: &str| {
        let lines = explain_lines(db, &format!("EXPLAIN SELECT b FROM t1 WHERE {pred}"));
        lines.into_iter().find(|l| l.contains("Filter")).expect("a Filter line")
    };
    assert!(filter_line(&mut db, "a IN (1, 2)").contains("(rows≈13.3, "));
    assert!(filter_line(&mut db, "a IN (1, NULL)").contains("(rows≈6.7, "));
    assert!(filter_line(&mut db, "a IN (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)").contains("(rows≈60, "));
    assert!(filter_line(&mut db, "a NOT IN (1, 2)").contains("(rows≈20, "), "the generic third");
}

#[test]
fn stat_statements_fingerprint_matches_explain() {
    // The plan fingerprint recorded in sdb_stat_statements equals the
    // one EXPLAIN prints for the same statement (session-level test
    // lives in core; here we check the ExecResult plumbing).
    let mut db = setup();
    let r = execute_sql(&mut db, "SELECT a, b FROM t1 WHERE a > 3").unwrap();
    let fp = r.plan_fingerprint.expect("plannable SELECT should carry a fingerprint");
    let lines = explain_lines(&mut db, "EXPLAIN SELECT a, b FROM t1 WHERE a > 3");
    assert_eq!(
        lines.last().unwrap(),
        &format!("plan fingerprint: {fp:016x}"),
        "ExecResult fingerprint disagrees with EXPLAIN"
    );
    // A FROM-less block is planned like any other; a set operation is
    // assembled from its arms' results and has no plan of its own.
    let r = execute_sql(&mut db, "SELECT 1").unwrap();
    assert!(r.plan_fingerprint.is_some());
    let r = execute_sql(&mut db, "SELECT 1 UNION SELECT 2").unwrap();
    assert!(r.plan_fingerprint.is_none());
}

// ---------------------------------------------------------------------------
// Nested blocks: set-operation arms and closed subqueries are planned
// ---------------------------------------------------------------------------

const SET_OPS: [&str; 6] =
    ["UNION", "UNION ALL", "INTERSECT", "INTERSECT ALL", "EXCEPT", "EXCEPT ALL"];

#[test]
fn set_operations_agree_with_planned_from_less_and_correlated_arms() {
    let mut db = setup();
    for op in SET_OPS {
        // Both arms planned; one arm FROM-less; three arms; an arm that
        // is itself a parenthesized query.
        check(&mut db, &format!("SELECT a FROM t1 WHERE b > 10 {op} SELECT a FROM t2"), false);
        check(&mut db, &format!("SELECT a, c FROM t1 {op} SELECT 3, 'red'"), false);
        check(&mut db, &format!("SELECT 3 {op} SELECT a FROM t1"), false);
        check(
            &mut db,
            &format!("SELECT a FROM t1 {op} SELECT a FROM t2 {op} SELECT k FROM t3"),
            false,
        );
        check(
            &mut db,
            &format!("SELECT a FROM t1 {op} (SELECT a FROM t2 ORDER BY f LIMIT 7) ORDER BY 1"),
            true,
        );
        // ORDER BY + LIMIT over the set operation's output.
        check(
            &mut db,
            &format!(
                "SELECT a, b FROM t1 {op} SELECT a, f FROM t2 ORDER BY 1 DESC, 2 LIMIT 9 OFFSET 2"
            ),
            true,
        );
        // Arms inside a correlated subquery still see the outer row.
        check(
            &mut db,
            &format!(
                "SELECT a, (SELECT count(*) FROM (SELECT f FROM t2 WHERE t2.a = t1.a {op} \
                 SELECT v FROM t3 WHERE t3.k = t1.a) u) FROM t1"
            ),
            false,
        );
        // An arm's error is the statement's error.
        check(&mut db, &format!("SELECT a FROM t1 {op} SELECT nope FROM t2"), false);
        check(&mut db, &format!("SELECT a FROM t1 {op} SELECT a, f FROM t2"), false);
        check(&mut db, &format!("SELECT a FROM t1 {op} SELECT 1 / (a - a) FROM t2"), false);
    }
}

#[test]
fn set_operation_arms_go_through_the_planner() {
    let mut db = setup();
    let sql = "SELECT a FROM t1 UNION ALL SELECT a FROM t2 WHERE f > 50";
    let before = db.exec_counts();
    let r = execute_sql(&mut db, sql).unwrap();
    assert_eq!(db.exec_counts().since(&before).plans_built, 2, "one plan per arm");
    // The set operation itself is assembled from what its arms return.
    assert!(r.plan_fingerprint.is_none());
    assert_eq!(r.plan_cache_hit, Some(false), "the last arm planned is what the event reports");
    let before = db.exec_counts();
    let r = execute_sql(&mut db, sql).unwrap();
    assert_eq!(db.exec_counts().since(&before).plans_built, 0, "both arms hit the plan cache");
    assert_eq!(r.plan_cache_hit, Some(true));

    let lines = explain_lines(&mut db, &format!("EXPLAIN {sql} EXCEPT SELECT 1 ORDER BY 1"));
    let text = lines.join("\n");
    assert_eq!(lines[0], "assembled from the arms below, then ORDER BY", "{text}");
    assert_eq!(lines[1], "EXCEPT", "{text}");
    assert_eq!(lines[2], "  UNION ALL", "{text}");
    assert_eq!(lines.iter().filter(|l| l.trim() == "arm:").count(), 3, "{text}");
    assert!(text.contains("Scan t1") && text.contains("Scan t2"), "{text}");
    assert!(text.contains("    └─ OneRow"), "{text}");
    assert_eq!(lines.iter().filter(|l| l.contains("plan fingerprint: ")).count(), 3, "{text}");
}

#[test]
fn closed_subqueries_replan_only_the_block_a_write_reaches() {
    let mut db = setup();
    let closed = "SELECT (SELECT count(*) FROM t1 WHERE a > 2) AS n, \
                  (SELECT max(v) FROM t3 JOIN t2 ON t2.a = t3.k) AS m";
    check(&mut db, closed, true);
    let before = db.exec_counts();
    execute_sql(&mut db, closed).unwrap();
    execute_sql(&mut db, closed).unwrap();
    // `check` planned the block and both subqueries already; they are
    // served from the session's plan cache now.
    assert_eq!(db.exec_counts().since(&before).plans_built, 0);
    // A write re-plans the blocks that read what it wrote, and only them:
    // the FROM-less outer block reads no table, the first subquery `t1`,
    // the second `t3` and `t2`.
    for (writes, replanned) in [
        (&["INSERT INTO t3 VALUES (1, 1)"][..], 1),
        (&["INSERT INTO t2 VALUES (1, 'x', 5)"][..], 1),
        (&["INSERT INTO t1 VALUES (9, 9, 'x', 1.0)"][..], 1),
        (&["DELETE FROM t1 WHERE a = 9", "DELETE FROM t3 WHERE k = 1"][..], 2),
        (&["CREATE TABLE t4 (x INT)", "INSERT INTO t4 VALUES (1)"][..], 0),
    ] {
        for w in writes {
            execute_sql(&mut db, w).unwrap();
        }
        let before = db.exec_counts();
        check(&mut db, closed, true);
        assert_eq!(db.exec_counts().since(&before).plans_built, replanned, "after {writes:?}");
    }

    // The whole chain is walked: two FROM-less levels down, `t1.a` is
    // still the outer row's.
    check(&mut db, "SELECT a, (SELECT (SELECT t1.a + 1)) FROM t1", false);
    check(&mut db, "SELECT a, (SELECT (SELECT max(f) FROM t2 WHERE t2.a = t1.a)) FROM t1", false);
    // Closed subqueries under a CTE environment scan the CTE as a slot,
    // set-operation arms included.
    check(
        &mut db,
        "WITH c AS (SELECT a, b FROM t1 WHERE a > 2) \
         SELECT (SELECT count(*) FROM c), (SELECT max(b) FROM c JOIN t3 ON t3.k = c.a), \
                (SELECT sum(x) FROM (SELECT b AS x FROM c UNION ALL SELECT v FROM t3) u)",
        true,
    );
    check(
        &mut db,
        "WITH c AS (SELECT a FROM t1) SELECT a FROM c INTERSECT SELECT k FROM t3 ORDER BY a",
        true,
    );
    // IN / EXISTS forms, and a closed subquery with a USING join.
    check(&mut db, "SELECT 3 IN (SELECT a FROM t1), EXISTS (SELECT 1 FROM t2 WHERE f > 98)", true);
    check(&mut db, "SELECT (SELECT count(*) FROM t1 JOIN t2 USING (a))", true);
    check(&mut db, "SELECT (SELECT a FROM t1)", true); // more than one row: the same error
}

// ---------------------------------------------------------------------------
// Recursion: the row pipeline, the batch operators and the reference
// ---------------------------------------------------------------------------

/// The result of `sql` on the planner (rows sorted, or the error's text),
/// checked against the reference interpreter by [`check`], and the
/// executor's work counters for it.
fn recursion(db: &mut Database, sql: &str) -> (Result<Vec<String>, String>, ExecCounts) {
    check(db, sql, false);
    let before = db.exec_counts();
    let got = execute_sql(db, sql).map(|r| {
        let mut rows = row_keys(&r.into_table().unwrap());
        rows.sort();
        rows
    });
    (got.map_err(|e| e.to_string()), db.exec_counts().since(&before))
}

/// A recursive step over a one-row working table runs on scalars where
/// the term's plan has a spine; it is the same function as the batch
/// operators and as the reference interpreter. Every recursion below
/// takes its anchor from `{a}` and runs three ways: over `one` (a single
/// row — the row pipeline wherever the plan allows it), over `two` (the
/// same row twice — under UNION ALL the working table never is one row,
/// so every step runs on batches and every row comes out twice), and
/// both of them on the reference, with equal rows or the same error.
#[test]
fn one_row_steps_are_the_same_function_three_ways() {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE one (v INT); INSERT INTO one VALUES (1);
         CREATE TABLE two (v INT); INSERT INTO two VALUES (1), (1);
         -- A chain k -> n: 3 has two edges (to the same node), 5 leads to
         -- NULL, a NULL key matches nothing, 6 is absent.
         CREATE TABLE e (k INT, n INT, w FLOAT8);
         INSERT INTO e VALUES (1,2,0.5), (2,3,1.5), (3,4,2.5), (3,4,2.5), (4,5,3.5),
                              (5,NULL,4.5), (NULL,9,9.5);
         -- The chain keyed by a FLOAT8 column, without the double edge; it ends at 4.
         CREATE TABLE ef (k FLOAT8, n INT);
         INSERT INTO ef VALUES (1.0,2), (2.0,3), (3.0,4), (4.5,5);
         -- And by two columns, one of them text.
         CREATE TABLE et (k TEXT, g INT, n TEXT);
         INSERT INTO et VALUES ('1',0,'2'), ('2',0,'3'), ('3',0,NULL), ('2',1,'9');
         CREATE TABLE lim (hi INT); INSERT INTO lim VALUES (4);",
    )
    .unwrap();
    // (recursion, how many of its steps over `one` run on one row:
    // `Some(n)` exactly, `None` for none — the plan has no spine.)
    let cases: &[(&str, Option<u64>)] = &[
        // Inner probe with 1, 2 and 0 matches. 1 builds `e`, 2 runs on
        // one row, 3 meets two edges: from there on two rows per step.
        (
            "WITH RECURSIVE r(k, acc) AS (SELECT v, 0.0 FROM {a} UNION ALL \
             SELECT e.n, r.acc + e.w FROM r JOIN e ON e.k = r.k) SELECT k, acc FROM r",
            Some(1),
        ),
        // UNION folds the two 4s into one: the step over 3 falls back to
        // the batch operators and 4, 5 and NULL run on one row again.
        (
            "WITH RECURSIVE r(k) AS (SELECT v FROM {a} UNION \
             SELECT e.n FROM r JOIN e ON e.k = r.k) SELECT k FROM r",
            Some(4),
        ),
        // LEFT probe: Int keys against a Float column (`4` meets no
        // `4.5`), then the padded NULL key, until the filter ends it.
        (
            "WITH RECURSIVE r(k, acc) AS (SELECT v, 0 FROM {a} UNION ALL \
             SELECT ef.n, r.acc + coalesce(ef.n, 100) FROM r LEFT JOIN ef ON ef.k = r.k \
             WHERE r.acc < 250) SELECT k, acc FROM r",
            Some(6),
        ),
        // LEFT probe with two matches, folded by UNION.
        (
            "WITH RECURSIVE r(k) AS (SELECT v FROM {a} UNION \
             SELECT e.n FROM r LEFT JOIN e ON e.k = r.k WHERE r.k IS NOT NULL) SELECT k FROM r",
            Some(4),
        ),
        // Float keys against an Int column: `2.0` meets `2`.
        (
            "WITH RECURSIVE r(k) AS (SELECT v FROM {a} UNION \
             SELECT e.n * 1.0 FROM r JOIN e ON e.k = r.k) SELECT k FROM r",
            Some(4),
        ),
        // A two-column key with text in it, and a NULL that ends the walk.
        (
            "WITH RECURSIVE r(k) AS (SELECT cast(v AS TEXT) FROM {a} UNION ALL \
             SELECT et.n FROM r JOIN et ON et.k = r.k AND et.g = length(r.k) - 1) SELECT k FROM r",
            Some(3),
        ),
        // No join at all: every step runs on one row, the filter ends it.
        (
            "WITH RECURSIVE r(n) AS (SELECT v FROM {a} UNION ALL \
             SELECT n + 1 FROM r WHERE n < 5) SELECT n FROM r",
            Some(5),
        ),
        // … with what the kernels replay or re-enter the reference for.
        (
            "WITH RECURSIVE r(n, s) AS (SELECT v, 'x' FROM {a} UNION ALL \
             SELECT n + 1, CASE WHEN n % 2 = 0 THEN s || 'e' ELSE upper(s) END FROM r \
             WHERE n < 9 AND n IN (1, 2, 3, 4) AND NOT n BETWEEN 7 AND 8) SELECT n, s FROM r",
            Some(5),
        ),
        // UNION reaches its fixpoint through the rows seen: 1 2 3 0 (1).
        (
            "WITH RECURSIVE r(n) AS (SELECT v FROM {a} UNION SELECT (n + 1) % 4 FROM r) \
             SELECT n FROM r",
            Some(4),
        ),
        // A predicate the planner derives for the working table's side.
        (
            "WITH RECURSIVE r(k) AS (SELECT v FROM {a} UNION ALL \
             SELECT ef.n FROM r JOIN ef ON ef.k = r.k WHERE ef.k < 3) SELECT k FROM r",
            Some(2),
        ),
        // A keyless join with a condition over a one-row kept output.
        (
            "WITH RECURSIVE r(n) AS (SELECT v FROM {a} UNION ALL \
             SELECT r.n + 1 FROM r JOIN lim ON lim.hi > r.n) SELECT n FROM r",
            Some(3),
        ),
        // … and over one of two rows: fan-out, so batches throughout.
        (
            "WITH RECURSIVE r(n) AS (SELECT v FROM {a} UNION ALL \
             SELECT r.n + 1 FROM r, two t WHERE t.v + r.n < 4) SELECT n FROM r",
            Some(0),
        ),
        // Under an outer row, which the filter reads.
        (
            "SELECT hi, (WITH RECURSIVE r(n) AS (SELECT v FROM {a} UNION ALL \
             SELECT ef.n FROM r JOIN ef ON ef.k = r.n WHERE r.n < lim.hi - 1) \
             SELECT sum(n) FROM r) FROM lim",
            Some(2),
        ),
        // A step that fails at step 3, on one row (a recursion that
        // does not finish counts nothing): division by zero …
        (
            "WITH RECURSIVE r(n, q) AS (SELECT v, 0 FROM {a} UNION ALL \
             SELECT ef.n, 100 / (ef.n - 4) FROM r JOIN ef ON ef.k = r.n) SELECT n, q FROM r",
            Some(0),
        ),
        // … and integer overflow.
        (
            "WITH RECURSIVE r(n) AS (SELECT v FROM {a} UNION ALL \
             SELECT n * 3037000500 FROM r WHERE n < 4000000000) SELECT n FROM r",
            Some(0),
        ),
        // A subquery in the term: no spine.
        (
            "WITH RECURSIVE r(n) AS (SELECT v FROM {a} UNION ALL \
             SELECT n + 1 FROM r WHERE n < (SELECT max(hi) FROM lim)) SELECT n FROM r",
            None,
        ),
        // The working table on both sides of a join: no spine.
        (
            "WITH RECURSIVE r(n) AS (SELECT v FROM {a} UNION \
             SELECT x.n + y.n FROM r x JOIN r y ON x.n = y.n WHERE x.n < 20) SELECT n FROM r",
            None,
        ),
    ];
    let mut unused_pipelines = 0;
    for (sql, on_one_row) in cases {
        let (one, work) = recursion(&mut db, &sql.replace("{a}", "one"));
        assert_eq!(work.row_steps, on_one_row.unwrap_or(0), "{sql}");
        // Steps of a plan with a row pipeline are counted as such, whether
        // or not they ran on it.
        match on_one_row {
            None => assert_eq!(work.spine_steps, 0, "{sql}"),
            Some(0) => {}
            Some(_) => assert_eq!(work.spine_steps, work.recursive_steps, "{sql}"),
        }
        let (two, work) = recursion(&mut db, &sql.replace("{a}", "two"));
        match (&one, &two) {
            // The recursion's rows aggregated: each checked on its own.
            _ if sql.starts_with("SELECT") => {}
            (Ok(one), Ok(two)) if sql.contains("UNION ALL") => {
                assert_eq!(work.row_steps, 0, "two rows are batches: {sql}");
                assert!(work.spine_steps == 0 || on_one_row.is_some(), "{sql}");
                unused_pipelines += usize::from(work.spine_steps > 0);
                let twice: Vec<String> = one.iter().flat_map(|r| [r.clone(), r.clone()]).collect();
                assert_eq!(*two, twice, "{sql}");
            }
            // UNION folds the anchor into one row; an error is the same error.
            _ => assert_eq!(one, two, "{sql}"),
        }
        // The session answers whatever the recursion came to.
        assert_eq!(recursion(&mut db, "SELECT v FROM one").0, Ok(vec!["i1".to_string()]));
    }
    assert!(unused_pipelines > 0, "no recursion had a pipeline and a two-row working table");
    let failed =
        |db: &mut Database, sql: &str| recursion(db, &sql.replace("{a}", "one")).0.unwrap_err();
    assert_eq!(failed(&mut db, cases[13].0), "evaluation error: division by zero");
    assert_eq!(failed(&mut db, cases[14].0), "evaluation error: integer overflow");
}

/// The step counter caps a recursion that runs on one row, with the
/// error `sql_semantics.rs` pins for both executors on the row cap.
#[test]
fn the_iteration_cap_holds_on_the_row_pipeline() {
    let mut db = Database::new();
    let sql =
        "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) SELECT count(*) FROM r";
    let err = execute_sql(&mut db, sql).unwrap_err().to_string();
    assert_eq!(err, "evaluation error: recursive CTE 'r' exceeded the iteration limit");
    assert_eq!(row_keys(&execute_sql(&mut db, "SELECT 1").unwrap().into_table().unwrap()), ["i1"]);
}

/// A custom value for [`a_step_hook_rewrites_what_each_step_emits_on_every_path`].
#[derive(Debug)]
struct Tag(i64);

impl CustomValue for Tag {
    fn type_name(&self) -> &str {
        "tag"
    }
    fn to_text(&self) -> String {
        self.0.to_string()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// An environment's step hook sees every custom cell each step of a
/// recursion emits, at its row of the relation, and the next step reads
/// what it returned — on the row pipeline (one working row), on the
/// batch operators (two) and on the reference interpreter. Here the
/// hook adds 1000 × the row to the tag `x`, which the term passes on.
#[test]
fn a_step_hook_rewrites_what_each_step_emits_on_every_path() {
    let mut db = Database::new();
    for (name, rows) in [("one", 1), ("two", 2)] {
        let table = Table::from_rows(&["n", "x"], vec![vec![Value::Int(1), custom(Tag(1))]; rows]);
        db.create_table(name, table, false).unwrap();
    }
    let hook: StepHook = std::sync::Arc::new(|at: &StepCell<'_>, v: &Value| {
        assert_eq!((at.cte, at.column), ("r", "x"), "only custom cells");
        let tag = downcast::<Tag>(v).unwrap();
        Some(custom(Tag(tag.0 + 1000 * at.row as i64)))
    });
    let ctes = Ctes::new().with_step_hook(hook);
    let run = |db: &Database, t: &str| {
        let sql = format!(
            "WITH RECURSIVE r(n, x) AS (SELECT n, x FROM {t} UNION ALL \
             SELECT n + 1, x FROM r WHERE n < 3) SELECT n, x FROM r"
        );
        let q = sqlengine::parser::parse_query(&sql).unwrap();
        let t = sqlengine::run_query(db, &ctes, &q, None).unwrap();
        let mut rows: Vec<String> = t.rows.iter().map(|r| format!("{}|{}", r[0], r[1])).collect();
        rows.sort();
        rows
    };
    for reference in [false, true] {
        let prev = db.set_force_row_interpreter(reference);
        assert_eq!(run(&db, "one"), ["1|1", "2|1001", "3|3001"], "reference: {reference}");
        assert_eq!(
            run(&db, "two"),
            ["1|1", "1|1", "2|2001", "2|3001", "3|6001", "3|8001"],
            "reference: {reference}"
        );
        db.set_force_row_interpreter(prev);
    }
}

/// A recursive term is recursive wherever it names itself: in a JOIN …
/// ON, in HAVING, under a WITH of its own — not only in FROM, WHERE or
/// the select list. A catalog table of the same name is never read.
#[test]
fn a_recursive_term_names_itself_in_any_clause() {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE t (k INT); INSERT INTO t VALUES (1), (2), (3), (11);
         CREATE TABLE r (n INT); INSERT INTO r VALUES (2);",
    )
    .unwrap();
    let term = |rest: &str| {
        format!(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT t.k + 10 FROM t {rest}) \
             SELECT n FROM r ORDER BY n"
        )
    };
    let where_form = term("WHERE t.k IN (SELECT n FROM r)");
    assert_eq!(rows_of(&mut db, &where_form), [["1"], ["11"], ["21"]]);
    for rest in [
        "JOIN (SELECT 1 AS one) o ON t.k IN (SELECT n FROM r)",
        "GROUP BY t.k HAVING t.k IN (SELECT n FROM r)",
        "WHERE t.k IN (WITH w AS (SELECT n FROM r) SELECT n FROM w)",
    ] {
        let sql = term(rest);
        check(&mut db, &sql, true);
        assert_eq!(rows_of(&mut db, &sql), rows_of(&mut db, &where_form), "{sql}");
    }
}
