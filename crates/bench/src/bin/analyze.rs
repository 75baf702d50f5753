//! Static-analysis sweep over the checked-in benchmark scripts.
//!
//! Every `SOLVESELECT` in every script — top level, inside CTAS/INSERT,
//! or nested anywhere in a query (`rwset::solves`) — is run through
//! `EXPLAIN CHECK` and `EXPLAIN PRESOLVE` in a session prepared the same
//! way the benchmarks prepare it (each script executes after being
//! analyzed, so later scripts see the tables earlier ones create). Every
//! query a statement carries (`Statement::queries`; not an EXPLAIN's or
//! MODELEVAL's) is additionally run through `EXPLAIN SELECT`, exercising
//! the logical planner over the shipped scripts.
//!
//! Exit status is the CI contract:
//! - an analyzer **panic** fails the sweep,
//! - a solve statement whose recursive simulation has a row pipeline
//!   and ran **no step on it** fails the sweep (every shipped recursion
//!   inside a solve — the P3 and P4 CDTEs, inline or from a stored model
//!   — steps a one-row working table over kept join sides; a term that
//!   evaluates a subquery or joins the working table to itself has no
//!   pipeline and is not held to it; the counts are the ones `EXPLAIN
//!   SELECT` prints for a recursive CTE, read from `exec_counts()`
//!   because a CDTE is not a statement of its own),
//! - an **error-severity** finding on a shipped script fails the sweep
//!   (the examples are expected to stay clean),
//! - a top-level `SOLVESELECT` that runs must carry as its warnings the
//!   `Warning`/`Note` findings `check_stmt` made on it beforehand, the
//!   same (code, severity, message) entries in the same order,
//! - execution errors in the scripts themselves are tolerated and
//!   reported (some solves only compile mid-pipeline).
//!
//! Every script is additionally run through the whole-script dataflow
//! analyzer (`sqlengine::script`, SD013–SD018) against the session's
//! catalog at that point; error-severity findings fail the sweep.
//!
//! With `--persistent`, every sweep session runs durably (a throwaway
//! data directory per session, fsync `never`), so the whole script
//! corpus additionally exercises the WAL commit path.
//!
//! Positional arguments are script paths: `analyze a.sql b.sql` lints,
//! analyzes and executes just those files, in order, on one fresh
//! session — the same contract, scoped to the given scripts.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bench::sweep::for_each_script;
use bench::OrDie;
use solvedbplus_core::{check_stmt, Session};
use sqlengine::ast::{ExplainMode, Query, SolveStmt, Statement};
use sqlengine::diag::{Diagnostic, Severity};
use sqlengine::parser;
use sqlengine::script::{analyze_script, rwset, CatalogSnapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use storage::{FsyncPolicy, StorageEngine};

#[derive(Default)]
struct Sweep {
    scripts: usize,
    solves: usize,
    explains: usize,
    selects: usize,
    /// `SELECT` blocks the `EXPLAIN SELECT` runs showed, and how many of
    /// them with a plan.
    blocks: usize,
    planned: usize,
    /// Solve statements that stepped a recursion with a row pipeline.
    recursions: usize,
    /// Top-level solves that ran, their warnings held to `check_stmt`.
    cross_checked: usize,
    script_findings: usize,
    matrix_findings: usize,
    /// The solves whose `EXPLAIN PRESOLVE` substitutes columns out, with
    /// its line.
    substituting: Vec<String>,
    tolerated: Vec<String>,
    failures: Vec<String>,
}

impl Sweep {
    /// Run one EXPLAIN mode over a solve statement. Analyzer panics and
    /// error-severity findings are sweep failures; execution errors
    /// (e.g. a solve that only compiles mid-pipeline) are tolerated.
    fn explain(&mut self, s: &mut Session, name: &str, solve: &SolveStmt, mode: ExplainMode) {
        let label = match mode {
            ExplainMode::Check => "EXPLAIN CHECK",
            ExplainMode::Presolve => "EXPLAIN PRESOLVE",
            _ => "EXPLAIN",
        };
        let wrapped = Statement::Explain { mode, stmt: Box::new(solve.clone()) };
        let run = catch_unwind(AssertUnwindSafe(|| s.execute_statement(&wrapped)));
        self.explains += 1;
        match run {
            Err(_) => self.failures.push(format!("{name}: {label} PANICKED")),
            Ok(Err(e)) => self.tolerated.push(format!("{name}: {label}: {e}")),
            Ok(Ok(res)) => {
                let t = match res.into_table() {
                    Ok(t) => t,
                    Err(e) => {
                        self.tolerated.push(format!("{name}: {label} output: {e}"));
                        return;
                    }
                };
                if mode != ExplainMode::Check {
                    let lines = t.rows.iter().filter_map(|row| row[0].as_str().ok());
                    let substituted = lines.filter(|l| l.starts_with("columns substituted: "));
                    self.substituting.extend(substituted.map(|l| format!("{name}: {l}")));
                    return;
                }
                for row in &t.rows {
                    let (code, sev, msg) = (&row[0], &row[1], &row[2]);
                    if code.as_str().is_ok_and(|c| ("SD020".."SD026").contains(&c)) {
                        self.matrix_findings += 1;
                    }
                    if sev.as_str() == Ok("error") {
                        self.failures.push(format!("{name}: {label}: {code} ({msg})"));
                    }
                }
            }
        }
    }

    /// `EXPLAIN SELECT` over a plain query statement: the planner must
    /// not panic, and every `SELECT` block of the statement must show a
    /// plan (each ends in its fingerprint line) — a line that names the
    /// row interpreter is a block some other executor would run, and
    /// fails the sweep.
    fn explain_select(&mut self, s: &mut Session, name: &str, q: &Query) {
        let wrapped = Statement::ExplainQuery { analyze: false, query: Box::new(q.clone()) };
        let run = catch_unwind(AssertUnwindSafe(|| s.execute_statement(&wrapped)));
        self.selects += 1;
        match run {
            Err(_) => self.failures.push(format!("{name}: EXPLAIN SELECT PANICKED")),
            Ok(Err(e)) => self.tolerated.push(format!("{name}: EXPLAIN SELECT: {e}")),
            Ok(Ok(res)) => match res.into_table() {
                Ok(t) if t.rows.is_empty() => {
                    self.failures.push(format!("{name}: EXPLAIN SELECT produced no output"));
                }
                Ok(t) => {
                    let lines = || t.rows.iter().filter_map(|row| row[0].as_str().ok());
                    let planned = lines().filter(|l| l.contains("plan fingerprint: ")).count();
                    let refused: Vec<&str> =
                        lines().filter(|l| l.contains("row interpreter")).collect();
                    self.planned += planned;
                    self.blocks += planned + refused.len();
                    for line in refused {
                        self.failures.push(format!("{name}: EXPLAIN SELECT: {}", line.trim()));
                    }
                }
                Err(e) => self.tolerated.push(format!("{name}: EXPLAIN SELECT output: {e}")),
            },
        }
    }

    /// Whole-script dataflow lint (SD013–SD018) against the session's
    /// current catalog. Error-severity findings fail the sweep — the
    /// shipped scripts are expected to lint clean; warnings are printed
    /// as tolerated lines, notes (dead-table etc.) stay silent.
    fn scriptcheck(&mut self, s: &Session, name: &str, stmts: &[Statement]) {
        let snapshot = CatalogSnapshot::from_db(s.db());
        let analysis = analyze_script(stmts, &snapshot);
        self.script_findings += analysis.diagnostics.len();
        for f in &analysis.diagnostics {
            let line = format!(
                "{name}: statement {}: scriptcheck {}: {}",
                f.stmt + 1,
                f.diag.code,
                f.diag.message
            );
            match f.diag.severity {
                Severity::Error => self.failures.push(line),
                Severity::Warning => self.tolerated.push(line),
                Severity::Note => {}
            }
        }
    }

    /// Analyze then execute every statement of a script in order.
    fn script(&mut self, s: &mut Session, name: &str, sql: &str) {
        self.scripts += 1;
        let stmts = match parser::parse_statements(sql) {
            Ok(v) => v,
            Err(e) => {
                self.failures.push(format!("{name}: parse error: {e}"));
                return;
            }
        };
        self.scriptcheck(s, name, &stmts);
        for (i, stmt) in stmts.iter().enumerate() {
            let solves = rwset::solves(stmt);
            for solve in &solves {
                self.solves += 1;
                self.explain(s, name, solve, ExplainMode::Check);
                self.explain(s, name, solve, ExplainMode::Presolve);
            }
            // An EXPLAIN explains its query itself, and MODELEVAL's select
            // reads the relations of a model.
            if !matches!(stmt, Statement::ExplainQuery { .. } | Statement::ModelEval { .. }) {
                for q in stmt.queries() {
                    self.explain_select(s, name, q);
                }
            }
            let checked = match stmt {
                Statement::Solve(solve) => Some(check_stmt(s.db(), &Default::default(), solve)),
                _ => None,
            };
            let before = s.db().exec_counts();
            let ran = match s.execute_statement(stmt) {
                Ok(ran) => ran,
                Err(e) => {
                    self.tolerated
                        .push(format!("{name}: statement {} failed ({e}); skipping rest", i + 1));
                    return;
                }
            };
            let work = s.db().exec_counts().since(&before);
            // A top-level solve that ran reports what `check_stmt` found
            // in it beforehand: its Warning/Note findings, in order.
            if let Some(checked) = checked {
                self.cross_checked += 1;
                let key = |d: &Diagnostic| (d.code.clone(), d.severity, d.message.clone());
                let advisory = checked.map(|diags| {
                    diags.iter().filter(|d| d.severity <= Severity::Warning).map(key).collect()
                });
                let reported: Vec<_> = ran.warnings.iter().map(key).collect();
                if advisory.as_ref().ok() != Some(&reported) {
                    self.failures.push(format!(
                        "{name}: statement {}: check_stmt {advisory:?}, the solve {reported:?}",
                        i + 1
                    ));
                }
            }
            if !solves.is_empty() && work.spine_steps > 0 {
                self.recursions += 1;
                if work.row_steps == 0 {
                    self.failures.push(format!(
                        "{name}: statement {}: 0 of {} recursive steps on one row",
                        i + 1,
                        work.spine_steps
                    ));
                }
            }
        }
    }
}

/// Sweep sessions running durably (`--persistent`): each gets its own
/// throwaway data dir so the script corpus exercises the WAL path.
struct Persist {
    on: bool,
    dirs: Vec<PathBuf>,
}

impl Persist {
    fn attach(&mut self, s: &mut Session, tag: &str) {
        if !self.on {
            return;
        }
        let dir = std::env::temp_dir().join(format!("sdb-analyze-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, FsyncPolicy::Never).or_die("analyze: open storage");
        s.attach_storage(Arc::new(engine)).or_die("analyze: attach storage");
        self.dirs.push(dir);
    }
}

impl Drop for Persist {
    fn drop(&mut self) {
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn main() {
    let mut persistent = false;
    let mut paths: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        if a == "--persistent" {
            persistent = true;
        } else {
            paths.push(a);
        }
    }
    let mut persist = Persist { on: persistent, dirs: Vec::new() };
    let mut sweep = Sweep::default();

    // Explicit script paths: lint + analyze + execute just those, in
    // order, on one fresh session (so a multi-file pipeline sees the
    // tables earlier files create). With no paths, the full built-in
    // sweep over the checked-in benchmark corpus runs instead.
    if !paths.is_empty() {
        let mut s = Session::new();
        persist.attach(&mut s, "explicit");
        for path in &paths {
            match std::fs::read_to_string(path) {
                Ok(sql) => sweep.script(&mut s, path, &sql),
                Err(e) => sweep.failures.push(format!("{path}: cannot read: {e}")),
            }
        }
        let code = verdict(&mut sweep, persistent);
        drop(persist);
        std::process::exit(code);
    }

    let walked = for_each_script(&mut |s, tag| persist.attach(s, tag), &mut |s, name, sql| {
        sweep.script(s, name, sql)
    });
    if let Err(e) = walked {
        sweep.failures.push(e);
    }
    if sweep.matrix_findings == 0 {
        sweep.failures.push(
            "matrix classification pass silent: no SD020+ finding on any shipped script \
             (the crew set-partitioning script alone should fire SD020)"
                .into(),
        );
    }
    let code = verdict(&mut sweep, persistent);
    drop(persist);
    std::process::exit(code);
}

/// Print the sweep summary and return the process exit code.
fn verdict(sweep: &mut Sweep, persistent: bool) -> i32 {
    // A failing statement is tolerated above; a simplex that gave up is not.
    let unconverged = lp::simplex::not_converged_total();
    if unconverged > 0 {
        sweep.failures.push(format!("{unconverged} LP solve(s) did not converge"));
    }
    println!(
        "analyze: {} script(s), {} solve statement(s), {} EXPLAIN run(s), \
         {} EXPLAIN SELECT run(s) ({}/{} block(s) planned), \
         {} solve(s) stepping a recursion on one row, \
         {} solve(s) reporting what check_stmt finds, {} scriptcheck finding(s), \
         {} matrix finding(s), {} solve(s) substituting columns in presolve{}",
        sweep.scripts,
        sweep.solves,
        sweep.explains,
        sweep.selects,
        sweep.planned,
        sweep.blocks,
        sweep.recursions,
        sweep.cross_checked,
        sweep.script_findings,
        sweep.matrix_findings,
        sweep.substituting.len(),
        if persistent { " [persistent mode: sessions WAL-committed]" } else { "" }
    );
    for s in &sweep.substituting {
        println!("  substitutes: {s}");
    }
    for t in &sweep.tolerated {
        println!("  tolerated: {t}");
    }
    if sweep.failures.is_empty() {
        println!("analyze: clean — no analyzer panics, no error-severity findings");
        0
    } else {
        for f in &sweep.failures {
            eprintln!("  FAILURE: {f}");
        }
        eprintln!("analyze: {} failure(s)", sweep.failures.len());
        1
    }
}
