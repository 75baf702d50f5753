//! Golden model reports: `EXPLAIN`, `EXPLAIN CHECK` and `EXPLAIN
//! PRESOLVE` of every `SOLVESELECT` the `analyze` sweep visits, rendered
//! as text and compared byte for byte with `golden/model_reports.txt`.
//! The three reports read the one compiled model, so any drift in its
//! atoms, its lowering to an LP, its presolve log or its diagnostics
//! shows up here as a diff rather than as an unchanged finding count.
//!
//! After an intended change to a report, the test leaves the new
//! rendering in `$CARGO_TARGET_TMPDIR/model_reports.txt`; review the
//! diff and copy it over the golden file.

use bench::sweep::for_each_script;
use solvedbplus_core::Session;
use sqlengine::ast::{ExplainMode, Statement};
use sqlengine::script::rwset::solves;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/model_reports.txt");

/// Render the three reports of every solve in the script, executing
/// each statement after its solves are explained (as the sweep does).
fn render_script(s: &mut Session, name: &str, sql: &str, out: &mut String) {
    let stmts = sqlengine::parser::parse_statements(sql).expect(name);
    let mut k = 0;
    for stmt in &stmts {
        for solve in solves(stmt) {
            k += 1;
            for (label, mode) in [
                ("EXPLAIN", ExplainMode::Plan),
                ("EXPLAIN CHECK", ExplainMode::Check),
                ("EXPLAIN PRESOLVE", ExplainMode::Presolve),
            ] {
                let _ = writeln!(out, "== {name} solve {k}: {label}");
                let wrapped = Statement::Explain { mode, stmt: Box::new(solve.clone()) };
                match s.execute_statement(&wrapped).and_then(|r| r.into_table()) {
                    Ok(t) => {
                        for row in &t.rows {
                            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                            let _ = writeln!(out, "{}", cells.join(" | "));
                        }
                    }
                    Err(e) => {
                        let _ = writeln!(out, "error: {e}");
                    }
                }
            }
        }
        if s.execute_statement(stmt).is_err() {
            return; // the sweep tolerates this and skips the rest of the script
        }
    }
}

#[test]
fn model_reports_match_the_golden_file() {
    let mut out = String::new();
    for_each_script(&mut |_, _| {}, &mut |s, name, sql| render_script(s, name, sql, &mut out))
        .expect("sweep sessions");
    assert_eq!(out.matches(": EXPLAIN CHECK\n").count(), 22, "solves visited by the sweep");
    // The sweep tolerates a failing statement, so a solve that stopped
    // converging would otherwise only shorten the report.
    assert_eq!(lp::simplex::not_converged_total(), 0, "a shipped model did not converge");
    if out != GOLDEN {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("model_reports.txt");
        std::fs::write(&actual, &out).expect("write the actual rendering");
        let line = out.lines().zip(GOLDEN.lines()).position(|(a, b)| a != b);
        panic!(
            "model reports differ from the golden file (first differing line: {:?}); \
             the actual rendering is in {}",
            line.map(|i| i + 1),
            actual.display()
        );
    }
}
