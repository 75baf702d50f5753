//! Property-based tests for the whole-script analyzer
//! (`sqlengine::script`): the dependency graph is acyclic by
//! construction, and statements the read/write analysis declares
//! independent really commute under execution.

use proptest::prelude::*;
use sqlengine::ast::Statement;
use sqlengine::parser;
use sqlengine::script::rwset::statement_rwset;
use sqlengine::script::{analyze_script, CatalogSnapshot};
use sqlengine::{execute_sql, Database, Value};

// ---------------------------------------------------------------------------
// Script generation
// ---------------------------------------------------------------------------

/// One statement over a small fixed pool of table names (`t0`..`t4`).
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    CreateAs(u8, u8),
    Insert(u8, i64),
    Delete(u8),
    Drop(u8),
}

impl Op {
    fn sql(&self) -> String {
        match self {
            Op::Create(i) => format!("CREATE TABLE t{i} (a int, b int)"),
            Op::CreateAs(i, j) => format!("CREATE TABLE t{i} AS SELECT * FROM t{j}"),
            Op::Insert(i, v) => format!("INSERT INTO t{i} VALUES ({v}, {})", v + 1),
            Op::Delete(i) => format!("DELETE FROM t{i} WHERE a > 1"),
            Op::Drop(i) => format!("DROP TABLE t{i}"),
        }
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    let tbl = 0u8..5;
    prop_oneof![
        tbl.clone().prop_map(Op::Create),
        (tbl.clone(), 0u8..5).prop_map(|(i, j)| Op::CreateAs(i, j)),
        (tbl.clone(), -5i64..5).prop_map(|(i, v)| Op::Insert(i, v)),
        tbl.clone().prop_map(Op::Delete),
        tbl.prop_map(Op::Drop),
    ]
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(arb_op(), 2..9)
}

fn parse_all(ops: &[Op]) -> Vec<Statement> {
    ops.iter()
        .map(|op| parser::parse_statement(&op.sql()).expect("generated statement parses"))
        .collect()
}

/// A comparable image of the full catalog: every table's name, schema
/// and rows. Views are not generated, so tables are the whole state.
fn snapshot(db: &Database) -> Vec<(String, Vec<String>, Vec<Vec<Value>>)> {
    let mut out: Vec<_> = db
        .relations()
        .tables_snapshot()
        .into_iter()
        .map(|(name, t)| {
            let cols = t
                .schema()
                .columns
                .iter()
                .map(|c| format!("{} {}", c.name, c.ty.sql_name()))
                .collect();
            (name, cols, t.rows().cloned().collect())
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn run_in_order(ops: &[Op], order: &[usize]) -> Vec<(String, Vec<String>, Vec<Vec<Value>>)> {
    let mut db = Database::new();
    for &k in order {
        // Failures (inserting into a dropped table, re-creating an
        // existing one, ...) are legitimate script outcomes: the final
        // catalog, not per-statement success, is what must commute.
        let _ = execute_sql(&mut db, &ops[k].sql());
    }
    snapshot(&db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every dependency edge points forward (`from < to`), so the
    /// statement graph is acyclic by construction, and the component
    /// count stays within [1, n].
    #[test]
    fn dependency_graph_is_acyclic(ops in arb_script()) {
        let stmts = parse_all(&ops);
        let analysis = analyze_script(&stmts, &CatalogSnapshot::empty());
        for e in &analysis.edges {
            prop_assert!(e.from < e.to, "edge {} -> {} not forward", e.from, e.to);
            prop_assert!(e.to < stmts.len());
        }
        prop_assert!(analysis.groups >= 1);
        prop_assert!(analysis.groups <= stmts.len());
    }

    /// Adjacent statements with disjoint read/write footprints commute:
    /// executing the script with the pair swapped yields an identical
    /// catalog (same tables, schemas and rows).
    #[test]
    fn independent_adjacent_statements_commute(ops in arb_script()) {
        let stmts = parse_all(&ops);
        let baseline: Vec<usize> = (0..ops.len()).collect();
        let reference = run_in_order(&ops, &baseline);
        for i in 0..stmts.len() - 1 {
            let a = statement_rwset(&stmts[i]);
            let b = statement_rwset(&stmts[i + 1]);
            if !a.independent(&b) {
                continue;
            }
            let mut swapped = baseline.clone();
            swapped.swap(i, i + 1);
            let alt = run_in_order(&ops, &swapped);
            prop_assert_eq!(
                &reference,
                &alt,
                "swapping independent statements {} and {} changed the catalog",
                i,
                i + 1
            );
        }
    }
}
