//! Property-based tests for the engine: pretty-printer round-trips,
//! evaluator algebra, LIKE matching, set-operation laws, table versions
//! that share row chunks, and the plans and subquery results two sessions
//! over one catalog keep across each other's writes.

use proptest::prelude::*;
use sqlengine::ast::{Expr, Literal};
use sqlengine::exec::eval::like_match;
use sqlengine::parser::{parse_expr, parse_query};
use sqlengine::plan::{Rewrite, StoredTable};
use sqlengine::types::BinOp;
use sqlengine::{execute_script, execute_sql, Database, Row, Table, Value};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Expression generation
// ---------------------------------------------------------------------------

/// A strategy for small scalar expressions built from integer literals,
/// arithmetic, comparisons and CASE — the printable/parsable core.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100i64..100).prop_map(|i| Expr::Literal(Literal::Int(i))),
        Just(Expr::Literal(Literal::Null)),
        Just(Expr::Literal(Literal::Bool(true))),
        Just(Expr::Literal(Literal::Bool(false))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul),]
            )
                .prop_map(|(a, b, op)| Expr::BinOp {
                    op,
                    lhs: Box::new(a),
                    rhs: Box::new(b)
                }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::BinOp {
                op: BinOp::Le,
                lhs: Box::new(a),
                rhs: Box::new(b)
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::Case {
                operand: None,
                branches: vec![(
                    Expr::BinOp { op: BinOp::Gt, lhs: Box::new(c), rhs: Box::new(Expr::int(0)) },
                    t
                )],
                else_: Some(Box::new(e)),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Printing an expression and re-parsing it yields the same AST.
    #[test]
    fn expr_display_roundtrip(e in arb_expr()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        prop_assert_eq!(e, reparsed);
    }

    /// Integer arithmetic in SQL matches a checked i128 oracle (when no
    /// NULL or overflow is involved).
    #[test]
    fn integer_arithmetic_matches_oracle(a in -1000i64..1000, b in -1000i64..1000) {
        let mut db = Database::new();
        let sum = execute_sql(&mut db, &format!("SELECT {a} + {b}"))
            .unwrap().into_table().unwrap().scalar().unwrap();
        prop_assert_eq!(sum, Value::Int(a + b));
        let prod = execute_sql(&mut db, &format!("SELECT {a} * {b}"))
            .unwrap().into_table().unwrap().scalar().unwrap();
        prop_assert_eq!(prod, Value::Int(a * b));
    }

    /// Chain semantics equal pairwise AND.
    #[test]
    fn chain_equals_pairwise(a in -10i64..10, b in -10i64..10, c in -10i64..10) {
        let mut db = Database::new();
        let chained = execute_sql(&mut db, &format!("SELECT {a} <= {b} <= {c}"))
            .unwrap().into_table().unwrap().scalar().unwrap();
        let pairwise = execute_sql(&mut db, &format!("SELECT {a} <= {b} AND {b} <= {c}"))
            .unwrap().into_table().unwrap().scalar().unwrap();
        prop_assert_eq!(chained, pairwise);
    }

    /// LIKE agrees with a straightforward recursive reference matcher.
    #[test]
    fn like_matches_reference(
        s in "[ab]{0,8}",
        p in "[ab%_]{0,6}",
    ) {
        fn reference(s: &[u8], p: &[u8]) -> bool {
            match (p.first(), s.first()) {
                (None, None) => true,
                (None, Some(_)) => false,
                (Some(b'%'), _) => {
                    reference(s, &p[1..]) || (!s.is_empty() && reference(&s[1..], p))
                }
                (Some(b'_'), Some(_)) => reference(&s[1..], &p[1..]),
                (Some(pc), Some(sc)) if pc == sc => reference(&s[1..], &p[1..]),
                _ => false,
            }
        }
        prop_assert_eq!(
            like_match(&s, &p),
            reference(s.as_bytes(), p.as_bytes()),
            "s={:?} p={:?}", s, p
        );
    }

    /// ORDER BY is a permutation: sorting never gains or loses rows, and
    /// the result is ordered.
    #[test]
    fn order_by_is_sorted_permutation(mut xs in prop::collection::vec(-50i64..50, 1..20)) {
        let mut db = Database::new();
        execute_script(&mut db, "CREATE TABLE t (x int)").unwrap();
        for x in &xs {
            execute_sql(&mut db, &format!("INSERT INTO t VALUES ({x})")).unwrap();
        }
        let t = execute_sql(&mut db, "SELECT x FROM t ORDER BY x")
            .unwrap().into_table().unwrap();
        let got: Vec<i64> = t.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        xs.sort_unstable();
        prop_assert_eq!(got, xs);
    }

    /// UNION is idempotent and UNION ALL counts duplicates.
    #[test]
    fn union_laws(xs in prop::collection::vec(0i64..10, 1..12)) {
        let mut db = Database::new();
        execute_script(&mut db, "CREATE TABLE t (x int)").unwrap();
        for x in &xs {
            execute_sql(&mut db, &format!("INSERT INTO t VALUES ({x})")).unwrap();
        }
        let distinct = execute_sql(&mut db,
            "SELECT count(*) FROM (SELECT x FROM t UNION SELECT x FROM t) u")
            .unwrap().into_table().unwrap().scalar().unwrap().as_i64().unwrap();
        let mut uniq = xs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(distinct as usize, uniq.len());
        let all = execute_sql(&mut db,
            "SELECT count(*) FROM (SELECT x FROM t UNION ALL SELECT x FROM t) u")
            .unwrap().into_table().unwrap().scalar().unwrap().as_i64().unwrap();
        prop_assert_eq!(all as usize, xs.len() * 2);
    }

    /// sum() over a group equals the oracle sum of its members.
    #[test]
    fn group_by_sums(pairs in prop::collection::vec((0i64..4, -20i64..20), 1..24)) {
        let mut db = Database::new();
        execute_script(&mut db, "CREATE TABLE t (g int, x int)").unwrap();
        for (g, x) in &pairs {
            execute_sql(&mut db, &format!("INSERT INTO t VALUES ({g}, {x})")).unwrap();
        }
        let t = execute_sql(&mut db, "SELECT g, sum(x) FROM t GROUP BY g ORDER BY g")
            .unwrap().into_table().unwrap();
        use std::collections::BTreeMap;
        let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
        for (g, x) in &pairs {
            *oracle.entry(*g).or_insert(0) += x;
        }
        prop_assert_eq!(t.num_rows(), oracle.len());
        for (row, (g, total)) in t.rows.iter().zip(oracle) {
            prop_assert_eq!(row[0].as_i64().unwrap(), g);
            prop_assert_eq!(row[1].as_i64().unwrap(), total);
        }
    }

    /// Queries printed by the pretty-printer re-parse to the same AST.
    #[test]
    fn query_display_roundtrip(
        cols in prop::collection::vec("[a-d]", 1..3),
        n in 1i64..5,
        desc in any::<bool>(),
    ) {
        let proj = cols.join(", ");
        let sql = format!(
            "SELECT {proj} FROM t WHERE a < {n} ORDER BY a {} LIMIT {n}",
            if desc { "DESC" } else { "ASC" }
        );
        let q1 = parse_query(&sql).unwrap();
        let q2 = parse_query(&q1.to_string()).unwrap();
        prop_assert_eq!(q1, q2);
    }
}

// ---------------------------------------------------------------------------
// Chunked table versions
// ---------------------------------------------------------------------------

/// One write to a stored table, or a reader taking its version.
#[derive(Debug, Clone)]
enum TableOp {
    /// Append this many rows.
    Append(usize),
    /// Delete the rows whose key is `r` modulo `m`.
    DeleteWhere(i64, i64),
    /// Set column `c` of the rows whose key is `r` modulo `m` to `v`.
    UpdateWhere(i64, i64, usize, i64),
    /// Pivot column `c` into the image.
    Scan(usize),
    /// Keep a clone of the current version.
    Read,
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0usize..4).prop_map(TableOp::Append),
        (1000usize..1100).prop_map(TableOp::Append),
        (0usize..2600).prop_map(TableOp::Append),
        (1i64..40, 0i64..40).prop_map(|(m, r)| TableOp::DeleteWhere(m, r % m)),
        (1i64..40, 0i64..40, 1usize..3, -9i64..9).prop_map(|(m, r, c, v)| TableOp::UpdateWhere(
            m,
            r % m,
            c,
            v
        )),
        (0usize..3).prop_map(TableOp::Scan),
        Just(TableOp::Read),
        Just(TableOp::Read),
    ]
}

/// `StoredTable`'s rows through its columnar image.
fn imaged(t: &StoredTable) -> Vec<Row> {
    let (batches, _) = t.scan(None);
    batches
        .iter()
        .flat_map(|b| (0..b.len).map(move |i| b.cols.iter().map(|c| c.get(i)).collect()))
        .collect()
}

/// True when `row`'s key is `r` modulo `m`.
fn hit(row: &Row, m: i64, r: i64) -> bool {
    row[0].as_i64().is_ok_and(|k| k.rem_euclid(m) == r)
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random appends, deletes and updates, with readers keeping the
    /// version of the moment: every kept version reads back as the plain
    /// rows it had — through its chunks and through its columnar image —
    /// whatever was written after it, and the chunks stay aligned.
    #[test]
    fn every_kept_version_reads_as_its_model(
        ops in prop::collection::vec(arb_table_op(), 1..14),
        chunked in any::<bool>(),
    ) {
        let empty = Table::from_rows(&["k", "v", "w"], Vec::new());
        let mut t = if chunked { StoredTable::chunked(empty) } else { StoredTable::new(empty) };
        let mut model: Vec<Row> = Vec::new();
        let mut readers: Vec<(StoredTable, Vec<Row>)> = Vec::new();
        let mut next_key = 0i64;
        for op in &ops {
            match *op {
                TableOp::Append(n) => {
                    let rows: Vec<Row> = (next_key..next_key + n as i64)
                        .map(|k| vec![Value::Int(k), Value::Float(k as f64 / 2.0), Value::Null])
                        .collect();
                    next_key += n as i64;
                    let lone = t.chunks().len() == 1 && t.num_rows() > 1024;
                    let before = t.num_rows() as u64;
                    let copied = t.append(rows.clone());
                    // Only a shared lone chunk longer than one chunk is
                    // copied whole; otherwise at most the last chunk.
                    prop_assert!(
                        copied < 1024 || (lone && copied == before),
                        "an append copied {} of {} rows", copied, before
                    );
                    model.extend(rows);
                }
                TableOp::DeleteWhere(m, r) => {
                    let hits = model.iter().map(|row| hit(row, m, r)).collect();
                    t.rewrite(Rewrite::Delete(hits));
                    model.retain(|row| !hit(row, m, r));
                }
                TableOp::UpdateWhere(m, r, c, v) => {
                    let patches: Vec<(usize, Vec<Value>)> = model
                        .iter()
                        .enumerate()
                        .filter(|(_, row)| hit(row, m, r))
                        .map(|(i, _)| (i, vec![Value::Int(v)]))
                        .collect();
                    for (i, _) in &patches {
                        model[*i][c] = Value::Int(v);
                    }
                    t.rewrite(Rewrite::Update { columns: vec![c], patches });
                }
                TableOp::Scan(c) => {
                    t.scan(Some(&[c]));
                }
                TableOp::Read => readers.push((t.clone(), model.clone())),
            }
        }
        readers.push((t, model));
        for (i, (version, model)) in readers.iter().enumerate() {
            prop_assert_eq!(version.num_rows(), model.len(), "reader {}", i);
            let lens: Vec<usize> = version.chunks().iter().map(|c| c.num_rows()).collect();
            if lens.len() > 1 {
                let (last, full) = lens.split_last().unwrap();
                prop_assert!(full.iter().all(|n| *n == 1024), "reader {}: {:?}", i, lens);
                prop_assert!(*last > 0, "reader {}: an empty last chunk", i);
            }
            prop_assert!(version.rows().eq(model.iter()), "reader {}: rows differ", i);
            prop_assert!(&imaged(version) == model, "reader {}: image differs", i);
        }
    }

    /// Two sessions read and write one catalog, each adopting the other's
    /// writes before its next statement: every read returns what the same
    /// query returns on a fresh database over the same relations, and no
    /// session keeps a cached plan its relations no longer hold (a write
    /// drops the plans that read what it writes before it writes).
    #[test]
    fn cached_reads_agree_with_a_fresh_database(
        steps in prop::collection::vec((0..2usize, arb_session_statement()), 1..24),
    ) {
        let mut dbs = [Database::new(), Database::new()];
        execute_script(&mut dbs[0], SESSIONS_SETUP).unwrap();
        let mut latest = dbs[0].relations().clone();
        for (i, (who, (sql, write))) in steps.iter().enumerate() {
            let db = &mut dbs[*who];
            if !Arc::ptr_eq(db.relations(), &latest) {
                db.adopt(latest.clone());
            }
            let got = outcome(db, sql);
            if *write {
                latest = db.relations().clone();
            } else {
                let mut fresh = Database::new();
                fresh.adopt(latest.clone());
                prop_assert_eq!(&got, &outcome(&mut fresh, sql), "step {}: {}", i, sql);
            }
            let cached = db.plan_cache_len();
            let relations = db.relations().clone();
            db.adopt(relations);
            let stale = "a stale plan outlived";
            prop_assert_eq!(db.plan_cache_len(), cached, "step {}: {} {}", i, stale, sql);
        }
    }
}

/// Three tables and a view over them, for two sessions to share.
const SESSIONS_SETUP: &str = "
    CREATE TABLE t0 (k int8, x int8); INSERT INTO t0 VALUES (1, 1), (2, 5), (3, 2);
    CREATE TABLE t1 (k int8, x int8); INSERT INTO t1 VALUES (1, 3), (3, 3);
    CREATE TABLE t2 (k int8, x int8); INSERT INTO t2 VALUES (2, 2);
    CREATE VIEW v AS SELECT k, x FROM t1";

/// The reads the sessions repeat (`{i}` and `{j}` name tables): plain,
/// through the view, FROM subqueries captured and re-run per outer row,
/// closed scalar subqueries (kept across the outer rows) and correlated
/// ones, and a CTE.
const SESSION_READS: &[&str] = &[
    "SELECT * FROM t{i} ORDER BY 1, 2",
    "SELECT * FROM v ORDER BY 1, 2",
    "SELECT s.k, s.n FROM (SELECT k, count(*) AS n FROM t{i} GROUP BY k) s ORDER BY 1",
    "SELECT count(*) FROM (SELECT * FROM v WHERE x > 1) s",
    "SELECT a.k, (SELECT count(*) FROM t{j}), (SELECT max(x) FROM v) FROM t{i} a \
     ORDER BY 1, 2, 3",
    "SELECT count(*), sum(x) FROM t{i} WHERE k IN (SELECT k FROM t{j})",
    "SELECT a.k, (SELECT count(*) FROM t{j} b WHERE b.k = a.k) FROM t{i} a ORDER BY 1, 2",
    "SELECT a.k, s.n FROM t{i} a, LATERAL (SELECT count(*) AS n FROM v WHERE v.k = a.k) s \
     ORDER BY 1, 2",
    "SELECT a.k, s.n FROM t{i} a, \
     LATERAL (SELECT count(*) AS n FROM (SELECT * FROM t{j}) b WHERE b.k = a.k) s ORDER BY 1, 2",
    "WITH c AS (SELECT k FROM t{i}) SELECT count(*) FROM c JOIN t{j} ON c.k = t{j}.k",
];

/// A statement of one session, and whether it writes: DDL (a table may
/// come back with its columns swapped) or DML, or one of
/// [`SESSION_READS`].
fn arb_session_statement() -> impl Strategy<Value = (String, bool)> {
    let t = || 0..3usize;
    let write = prop_oneof![
        (t(), any::<bool>()).prop_map(|(i, swapped)| match swapped {
            true => format!("CREATE TABLE t{i} (x int8, k int8)"),
            false => format!("CREATE TABLE t{i} (k int8, x int8)"),
        }),
        t().prop_map(|i| format!("DROP TABLE t{i}")),
        (t(), t(), 0..3usize).prop_map(|(i, j, shape)| match shape {
            0 => format!("CREATE OR REPLACE VIEW v AS SELECT * FROM t{i}"),
            1 => format!("CREATE OR REPLACE VIEW v AS SELECT k, x + k AS x, 1 AS y FROM t{i}"),
            _ => format!(
                "CREATE OR REPLACE VIEW v AS SELECT a.k, b.x FROM t{i} a JOIN t{j} b ON a.k = b.k"
            ),
        }),
        (t(), 0..4i64, 0..4i64)
            .prop_map(|(i, k, x)| format!("INSERT INTO t{i} VALUES ({k}, {x}), ({k}, {x} + 1)")),
        (t(), 0..4i64, 1..3i64)
            .prop_map(|(i, k, d)| format!("UPDATE t{i} SET x = x + {d} WHERE k = {k}")),
        (t(), 0..4i64).prop_map(|(i, k)| format!("DELETE FROM t{i} WHERE k = {k}")),
    ];
    let read = (0..SESSION_READS.len(), t(), t()).prop_map(|(r, i, j)| {
        SESSION_READS[r].replace("{i}", &i.to_string()).replace("{j}", &j.to_string())
    });
    // Two writes to three reads.
    (0..5, write, read).prop_map(|(pick, write, read)| match pick < 2 {
        true => (write, true),
        false => (read, false),
    })
}

/// What `sql` returns on `db`: its column names and rows, or its error.
fn outcome(db: &mut Database, sql: &str) -> String {
    match execute_sql(db, sql).and_then(|r| r.into_table()) {
        Ok(t) => format!("{:?} {:?}", t.schema.names(), t.rows),
        Err(e) => format!("error: {e}"),
    }
}
