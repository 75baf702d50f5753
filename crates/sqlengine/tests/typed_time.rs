//! Timestamps and intervals on the planned executor against the reference
//! row interpreter (`set_force_row_interpreter`), over random tables.
//!
//! A planned scan reads a timestamp or interval column as a typed `i64`
//! column, so comparisons, arithmetic, joins, grouping, sorting and
//! `min` / `max` over one run their own kernels and key indexes; the
//! reference evaluates every value through `Value`. Each case draws two
//! tables from a seed — values on an hourly grid (so joins and recursive
//! steps meet), values next to `i64::MIN` / `MAX` (so arithmetic
//! overflows), NULLs, a float column and a column of mixed kinds — and
//! runs every query below on both executors: the same columns, types and
//! rows, or the same error text.
//!
//! The workspace run takes a sample of seeds; `PROPTEST_CASES` sets how
//! many (the `analyze` CI job runs 20 000).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sqlengine::{execute_sql, Column, DataType, Database, Schema, Table, Value};

const HOUR: i64 = 3_600_000_000;
/// 2017-07-02 00:00, in microseconds since the Unix epoch.
const BASE: i64 = 1_498_953_600_000_000;

/// xorshift64*, so a seed names its case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D) % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// An `i64` of a time column: on the grid around `grid` most of the time,
/// next to an end of `i64` now and then.
fn word(rng: &mut Rng, grid: i64) -> i64 {
    match rng.below(8) {
        0 => rng.pick(&[i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1]),
        _ => grid + rng.below(6) as i64 * HOUR,
    }
}

/// NULL one time in six, otherwise what `make` draws.
fn maybe(rng: &mut Rng, make: impl FnOnce(&mut Rng) -> Value) -> Value {
    if rng.below(6) == 0 {
        Value::Null
    } else {
        make(rng)
    }
}

/// `t(id, a, b, x, y, n, m, f)` or `u(…)`: two timestamp columns, two
/// interval columns, an integer, a column whose kind varies by row and a
/// float (`-0.0` and `0.0` among its values).
fn table(rng: &mut Rng, rows: usize) -> Table {
    use DataType::*;
    let columns = [
        ("id", Int),
        ("a", Timestamp),
        ("b", Timestamp),
        ("x", Interval),
        ("y", Interval),
        ("n", Int),
        ("m", Unknown),
        ("f", Float),
    ];
    let schema = Schema::new(columns.iter().map(|(n, ty)| Column::new(*n, ty.clone())).collect());
    let rows = (0..rows as i64)
        .map(|id| {
            vec![
                Value::Int(id),
                maybe(rng, |r| Value::Timestamp(word(r, BASE))),
                maybe(rng, |r| Value::Timestamp(word(r, BASE))),
                maybe(rng, |r| Value::Interval(word(r, 0))),
                maybe(rng, |r| Value::Interval(word(r, 0))),
                maybe(rng, |r| Value::Int(r.below(6) as i64)),
                maybe(rng, |r| match r.below(4) {
                    0 => Value::Int(r.below(3) as i64),
                    1 => Value::Float(r.below(5) as f64 / 2.0),
                    2 => Value::Timestamp(BASE + r.below(3) as i64 * HOUR),
                    _ => Value::Interval(r.below(3) as i64 * HOUR),
                }),
                maybe(rng, |r| Value::Float(r.pick(&[-0.0, 0.0, 0.5, 1.0, 2.0, 2.5]))),
            ]
        })
        .collect();
    Table::with_rows(schema, rows)
}

fn database(seed: u64) -> Database {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut db = Database::new();
    for name in ["t", "u"] {
        let rows = rng.below(14) as usize;
        db.create_table(name, table(&mut rng, rows), false).expect("a fresh name");
    }
    db
}

/// The relation, or the error text, `sql` gives on one executor.
fn run(
    db: &mut Database,
    sql: &str,
    reference: bool,
) -> Result<(Vec<String>, Vec<String>), String> {
    let was = db.set_force_row_interpreter(reference);
    let out = execute_sql(db, sql).map(|r| r.into_table().expect("a query"));
    db.set_force_row_interpreter(was);
    let t = out.map_err(|e| e.to_string())?;
    let head = t.schema.columns.iter().map(|c| format!("{} {:?}", c.name, c.ty)).collect();
    let rows = t.rows.iter().map(|r| format!("{r:?}")).collect();
    Ok((head, rows))
}

/// Both executors give `sql` one answer; `ordered` compares the row
/// sequence, otherwise the multiset of rows.
fn agree(db: &mut Database, sql: &str, ordered: bool) -> Result<(), TestCaseError> {
    let mut planned = run(db, sql, false);
    let mut reference = run(db, sql, true);
    if !ordered {
        for (_, rows) in [&mut planned, &mut reference].into_iter().flatten() {
            rows.sort();
        }
    }
    prop_assert_eq!(planned, reference, "{}", sql);
    Ok(())
}

const COMPARISONS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// The statements of one case: every comparison column against column
/// and against a constant on either side; each arithmetic form on its
/// own (an executor may evaluate expressions of a row in another order,
/// so which of two overflows it meets first is not part of the answer);
/// joins on a lone key of each kind, on mismatched kinds and on a key
/// with a timestamp among its columns; grouping, sorting, DISTINCT, the
/// set operations and `min` / `max`; and a recursion that steps a
/// timestamp through a join.
fn queries() -> Vec<(String, bool)> {
    let ts = "timestamp '2017-07-02 02:00'";
    let iv = "interval '2 hours'";
    let mut out: Vec<(String, bool)> = Vec::new();
    let mut add = |sql: String| out.push((sql, false));
    for op in COMPARISONS {
        add(format!("SELECT id, a {op} b, x {op} y FROM t"));
        add(format!("SELECT id, a {op} {ts}, {ts} {op} a, x {op} {iv}, {iv} {op} x FROM t"));
        add(format!("SELECT id FROM t WHERE a {op} {ts} OR x {op} {iv}"));
    }
    // Kinds that do not compare: the same error on both.
    add(format!("SELECT id FROM t WHERE a = {iv}"));
    add("SELECT id FROM t WHERE x < n".into());
    for e in [
        "a + x",
        "x + a",
        "a - x",
        "a - b",
        "x + y",
        "x - y",
        "-x",
        "a + interval '1 hour'",
        "interval '1 hour' + a",
        "a - interval '1 hour'",
        "timestamp '2017-07-02' - a",
        "a - timestamp '2017-07-02'",
        "x + interval '1 hour'",
        "interval '1 hour' - x",
        "x * 2",
        "x / 2",
        "a + interval '106751991 days'",
        "a - interval '106751991 days'",
        "a + n",
        "a || x",
    ] {
        add(format!("SELECT id, {e} FROM t"));
    }
    for on in [
        "t.a = u.a",
        "t.x = u.x",
        "t.n = u.n",
        "t.a = u.b",
        "t.a = u.x",
        "t.a = u.n",
        "t.x = u.n",
        "t.n = u.m",
        "t.a = u.m",
        "t.x = u.m",
        "t.m = u.m",
        "t.f = u.f",
        "t.n = u.f",
        "t.f = u.m",
        "t.a = u.a AND t.n = u.n",
        "t.x = u.y AND t.a = u.b",
    ] {
        add(format!("SELECT t.id, u.id FROM t JOIN u ON {on}"));
        add(format!("SELECT t.id, u.id FROM t LEFT JOIN u ON {on}"));
    }
    add("SELECT t.id, u.id FROM t, u WHERE t.a = u.a AND u.a = timestamp '2017-07-02 01:00'".into());
    for agg in [
        "min(a), max(a), min(x), max(x)",
        "count(DISTINCT a), count(DISTINCT x)",
        "sum(x)",
        "avg(x)",
        "min(m), max(m)",
    ] {
        add(format!("SELECT {agg} FROM t"));
        add(format!("SELECT n, {agg} FROM t GROUP BY n"));
    }
    for group in ["a", "x", "m", "f", "a, x", "ROLLUP (a, n)"] {
        add(format!("SELECT count(*), min(b), max(y) FROM t GROUP BY {group}"));
    }
    add("SELECT a, x, count(*) FROM t GROUP BY a, x".into());
    for cols in ["a", "x", "a, x", "m", "f", "a, n"] {
        add(format!("SELECT DISTINCT {cols} FROM t"));
    }
    for op in ["UNION", "INTERSECT", "INTERSECT ALL", "EXCEPT", "EXCEPT ALL"] {
        for (l, r) in [("a", "b"), ("x", "a"), ("f", "n"), ("m", "f")] {
            add(format!("SELECT {l} FROM t {op} SELECT {r} FROM u"));
        }
    }
    for order in ["a, id", "x DESC, id", "b DESC, a, id", "m, id"] {
        out.push((format!("SELECT id, a, x FROM t ORDER BY {order}"), true));
        out.push((format!("SELECT id, a FROM t ORDER BY {order} LIMIT 3"), true));
    }
    out.push((
        "WITH RECURSIVE s(at, k) AS (SELECT timestamp '2017-07-02', 0 UNION ALL \
         SELECT s.at + interval '1 hour', s.k + 1 FROM s JOIN u ON u.a = s.at WHERE s.k < 8) \
         SELECT at, k FROM s ORDER BY k"
            .into(),
        true,
    ));
    out.push((
        "WITH RECURSIVE s(at) AS (SELECT timestamp '2017-07-02' UNION \
         SELECT u.b FROM s JOIN u ON u.a = s.at) SELECT at FROM s"
            .into(),
        false,
    ));
    out
}

/// Cases of the property: 24 in the workspace run, what
/// `PROPTEST_CASES` says where it is set (the vendored proptest does not
/// read it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every query, and a DELETE by a timestamp, answers the same on the
    /// planned executor and on the reference.
    #[test]
    fn time_columns_answer_as_the_reference_does(seed in 0u64..u64::MAX) {
        let mut db = database(seed);
        for (sql, ordered) in queries() {
            agree(&mut db, &sql, ordered)?;
        }
        let mut rng = Rng(seed | 1);
        let op = rng.pick(&COMPARISONS);
        let delete = format!(
            "DELETE FROM t WHERE a {op} timestamp '2017-07-02 02:00' OR x {op} interval '1 hour'"
        );
        let after = |reference: bool| {
            let mut db = database(seed);
            db.set_force_row_interpreter(reference);
            let deleted = execute_sql(&mut db, &delete).map(|_| ()).map_err(|e| e.to_string());
            (deleted, run(&mut db, "SELECT * FROM t", false))
        };
        prop_assert_eq!(after(false), after(true), "{}", delete);
    }
}
