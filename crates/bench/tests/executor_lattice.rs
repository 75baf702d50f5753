//! The executor axis of the configuration lattice, standing: every
//! script the `analyze` sweep visits runs once with the planner and once
//! under `set_force_row_interpreter(true)`, and statement by statement
//! the two runs must agree — the same result relation, the same rows
//! affected, the same error text, the same set of SD codes on the
//! warnings channel — and so must every table a script leaves behind
//! (most solves here are `CREATE TABLE … AS SOLVESELECT`).
//!
//! What "the same relation" means here: the same schema names and the
//! same rows — in order where the statement's own ORDER BY fixes one,
//! as a multiset otherwise. Until a script has run a solve, values must
//! be bit-identical; from its first solve on, floats may differ by 1e-9
//! (relative), since a search is free to end on another last digit.
//! (Today both executors hand the solvers bit-identical fitness values
//! and models — `fitness_differential.rs` — so even those agree exactly;
//! the tolerance is the contract, not an observed difference.)

use bench::sweep::{for_each_script, solves_in_statement};
use solvedbplus_core::Session;
use sqlengine::ast::Statement;
use sqlengine::exec::Outcome;
use sqlengine::{set_force_row_interpreter, Row, Table, Value};
use std::collections::BTreeSet;

/// What one statement did, as far as a client can tell.
struct Observed {
    /// `script#index`, for messages.
    at: String,
    /// The statement's ORDER BY fixes the row order of its result.
    ordered: bool,
    /// A solve has run in this script (this statement's included).
    solved: bool,
    outcome: Result<(Outcome, BTreeSet<String>), String>,
}

fn run_sweep(force_rows: bool) -> Vec<Observed> {
    let was = set_force_row_interpreter(force_rows);
    let mut seen = Vec::new();
    for_each_script(&mut |_, _| {}, &mut |s: &mut Session, name, sql| {
        let stmts = sqlengine::parser::parse_statements(sql).expect(name);
        let mut solved = false;
        for (i, stmt) in stmts.iter().enumerate() {
            solved |= !solves_in_statement(stmt).is_empty();
            let outcome = match s.execute_statement(stmt) {
                Ok(r) => {
                    let codes = r.warnings.iter().map(|d| d.code.clone()).collect();
                    Ok((r.outcome, codes))
                }
                Err(e) => Err(e.to_string()),
            };
            let failed = outcome.is_err();
            seen.push(Observed {
                at: format!("{name}#{}", i + 1),
                ordered: matches!(stmt, Statement::Query(q) if !q.order_by.is_empty()),
                solved,
                outcome,
            });
            if failed {
                break; // as the sweep does: the rest of the script is skipped
            }
        }
        for (table, t) in s.db().tables_snapshot() {
            seen.push(Observed {
                at: format!("{name}: table {table}"),
                ordered: false,
                solved,
                outcome: Ok((Outcome::Table(t.as_ref().clone()), BTreeSet::new())),
            });
        }
    })
    .expect("sweep sessions");
    set_force_row_interpreter(was);
    seen
}

fn same_value(a: &Value, b: &Value, exact: bool) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) if exact => x.to_bits() == y.to_bits(),
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a.to_string() == b.to_string() && a.data_type() == b.data_type(),
    }
}

fn assert_same_table(at: &str, planned: &Table, rows: &Table, ordered: bool, exact: bool) {
    let names = |t: &Table| t.schema.columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(planned), names(rows), "{at}: column names");
    assert_eq!(planned.num_rows(), rows.num_rows(), "{at}: row count");
    // Floats that differ in a last digit render alike at this precision,
    // so both sides sort the same way.
    fn cell(v: &Value) -> String {
        match v {
            Value::Float(f) => format!("{f:.6e}"),
            other => other.to_string(),
        }
    }
    fn in_order(t: &Table, ordered: bool) -> Vec<&Row> {
        let mut r: Vec<&Row> = t.rows.iter().collect();
        if !ordered {
            r.sort_by_cached_key(|row| row.iter().map(cell).collect::<Vec<_>>());
        }
        r
    }
    let (p_rows, r_rows) = (in_order(planned, ordered), in_order(rows, ordered));
    for (k, (p, r)) in p_rows.into_iter().zip(r_rows).enumerate() {
        let same = p.len() == r.len() && p.iter().zip(r).all(|(a, b)| same_value(a, b, exact));
        assert!(same, "{at}: row {k} differs: planner {p:?} vs row interpreter {r:?}");
    }
}

#[test]
fn every_swept_script_agrees_between_the_planner_and_the_row_interpreter() {
    let planned = run_sweep(false);
    let rows = run_sweep(true);
    assert_eq!(planned.len(), rows.len(), "statements executed");
    let mut tables = 0;
    for (p, r) in planned.iter().zip(&rows) {
        assert_eq!(p.at, r.at);
        match (&p.outcome, &r.outcome) {
            (Err(a), Err(b)) => assert_eq!(a, b, "{}: error text", p.at),
            (Ok((a, a_codes)), Ok((b, b_codes))) => {
                assert_eq!(a_codes, b_codes, "{}: SD codes", p.at);
                match (a, b) {
                    (Outcome::Table(a), Outcome::Table(b)) => {
                        tables += 1;
                        assert_same_table(&p.at, a, b, p.ordered, !p.solved);
                    }
                    (Outcome::Count(a), Outcome::Count(b)) => assert_eq!(a, b, "{}", p.at),
                    (Outcome::Done, Outcome::Done) => {}
                    _ => panic!("{}: the two executors returned different outcome kinds", p.at),
                }
            }
            (a, b) => panic!(
                "{}: planner {:?} vs row interpreter {:?}",
                p.at,
                a.as_ref().map(|_| "ok"),
                b.as_ref().map(|_| "ok")
            ),
        }
    }
    // The sweep is not vacuous: it compared result relations, and the
    // scripts did solve.
    assert!(tables >= 50, "{tables} relations compared");
    assert!(planned.iter().filter(|o| o.solved).count() >= 22);
}
