//! Two axes of the configuration lattice, standing: executor (planner
//! vs `set_force_row_interpreter(true)`) × durability (ephemeral vs a
//! session attached to a storage engine over a throwaway data dir,
//! `FsyncPolicy::Never`). Every script the `analyze` sweep visits runs on
//! the reference point (planner, ephemeral) and on another point, and
//! statement by statement the two runs must agree — the same result
//! relation, the same rows affected, the same error text, the same set
//! of SD codes on the warnings channel — and so must every table a script
//! leaves behind (most solves here are `CREATE TABLE … AS SOLVESELECT`).
//! The workspace run gives each script group one of the three other
//! points, dealt round-robin from a fixed seed so that each point gets
//! two groups; the `#[ignore]`d test (run by the `analyze` CI job)
//! compares all three over the whole sweep.
//!
//! What "the same relation" means here: the same schema names and the
//! same rows — in order where the statement's own ORDER BY fixes one,
//! as a multiset otherwise. Until a script has run a solve, values must
//! be bit-identical; from its first solve on, floats may differ by 1e-9
//! (relative), since a search is free to end on another last digit.
//! (Today both executors hand the solvers bit-identical fitness values
//! and models — `fitness_differential.rs` — so even those agree exactly;
//! the tolerance is the contract, not an observed difference.)

use bench::sweep::for_each_script;
use solvedbplus_core::Session;
use sqlengine::ast::Statement;
use sqlengine::exec::Outcome;
use sqlengine::script::rwset::solves;
use sqlengine::{Row, Table, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use storage::{FsyncPolicy, StorageEngine};

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

/// One point of the lattice.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Point {
    force_rows: bool,
    durable: bool,
}

const REFERENCE: Point = Point { force_rows: false, durable: false };
const OTHERS: [Point; 3] = [
    Point { force_rows: true, durable: false },
    Point { force_rows: false, durable: true },
    Point { force_rows: true, durable: true },
];

/// Run the sweep with each script group (numbered in sweep order) on the
/// point `point_of` gives it.
fn run_sweep(point_of: &dyn Fn(usize) -> Point) -> Vec<Observed> {
    static SWEEPS: AtomicUsize = AtomicUsize::new(0);
    let sweep = format!("sdb-lattice-{}-{}", std::process::id(), SWEEPS.fetch_add(1, Relaxed));
    let mut seen = Vec::new();
    let mut dirs = Vec::new();
    let mut prepare = |s: &mut Session, tag: &str| {
        let point = point_of(dirs.len());
        s.db_mut().set_force_row_interpreter(point.force_rows);
        let dir = std::env::temp_dir().join(format!("{sweep}-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        if point.durable {
            let engine = StorageEngine::open(&dir, FsyncPolicy::Never).expect("open data dir");
            s.attach_storage(Arc::new(engine)).expect("attach the prepared session");
        }
        dirs.push(dir);
    };
    for_each_script(&mut prepare, &mut |s: &mut Session, name, sql| {
        let stmts = sqlengine::parser::parse_statements(sql).expect(name);
        let mut solved = false;
        for (i, stmt) in stmts.iter().enumerate() {
            solved |= !solves(stmt).is_empty();
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
        for (table, t) in s.db().relations().tables_snapshot() {
            seen.push(Observed {
                at: format!("{name}: table {table}"),
                ordered: false,
                solved,
                outcome: Ok((Outcome::Table(Table::clone(t.table())), BTreeSet::new())),
            });
        }
    })
    .expect("sweep sessions");
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
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
        assert!(same, "{at}: row {k} differs: reference {p:?} vs other {r:?}");
    }
}

/// Compare a sweep against the reference sweep, statement by statement.
fn assert_agrees(reference: &[Observed], other: &[Observed], what: &str) {
    assert_eq!(reference.len(), other.len(), "{what}: statements executed");
    let mut tables = 0;
    for (p, r) in reference.iter().zip(other) {
        assert_eq!(p.at, r.at);
        let at = format!("{what}: {}", p.at);
        match (&p.outcome, &r.outcome) {
            (Err(a), Err(b)) => assert_eq!(a, b, "{at}: error text"),
            (Ok((a, a_codes)), Ok((b, b_codes))) => {
                assert_eq!(a_codes, b_codes, "{at}: SD codes");
                match (a, b) {
                    (Outcome::Table(a), Outcome::Table(b)) => {
                        tables += 1;
                        assert_same_table(&at, a, b, p.ordered, !p.solved);
                    }
                    (Outcome::Count(a), Outcome::Count(b)) => assert_eq!(a, b, "{at}"),
                    (Outcome::Done, Outcome::Done) => {}
                    _ => panic!("{at}: the two runs returned different outcome kinds"),
                }
            }
            (a, b) => panic!(
                "{at}: reference {:?} vs other {:?}",
                a.as_ref().map(|_| "ok"),
                b.as_ref().map(|_| "ok")
            ),
        }
    }
    // The sweep is not vacuous: it compared result relations, and the
    // scripts did solve.
    assert!(tables >= 50, "{tables} relations compared");
    assert!(reference.iter().filter(|o| o.solved).count() >= 22);
}

#[test]
fn every_swept_script_agrees_with_the_reference_on_a_sampled_point() {
    const SEED: usize = 21;
    let reference = run_sweep(&|_| REFERENCE);
    let sampled = run_sweep(&|group| OTHERS[(group + SEED) % OTHERS.len()]);
    assert_agrees(&reference, &sampled, "sampled");
}

#[test]
#[ignore = "the full product, 4 sweeps: run by the analyze CI job"]
fn every_swept_script_agrees_on_every_point() {
    let reference = run_sweep(&|_| REFERENCE);
    for point in OTHERS {
        assert_agrees(&reference, &run_sweep(&|_| point), &format!("{point:?}"));
    }
}
