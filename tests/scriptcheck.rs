//! End-to-end contract of the whole-script analyzer over the checked-in
//! corpora: every `tests/scripts/bad/*.sql` file declares the SD codes
//! it must trigger in a leading `-- expect:` line, must carry at least
//! one error-level finding, and fails when run at a statement carrying
//! a finding; `tests/scripts/good/*.sql` must lint clean and run to
//! the end; and the decomposable model fires SD019 with provably
//! disjoint blocks.

use solvedbplus::core::{check, prepare};
use solvedbplus::sqlengine::ast::Statement;
use solvedbplus::sqlengine::catalog::Ctes;
use solvedbplus::sqlengine::parser;
use solvedbplus::Session;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn corpus_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scripts").join(kind)
}

fn sql_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no .sql files in {}", dir.display());
    out
}

/// The `-- expect: SDxxx SDyyy` header of a bad-corpus script.
fn expected_codes(sql: &str) -> BTreeSet<String> {
    let header = sql
        .lines()
        .find_map(|l| l.trim().strip_prefix("-- expect:"))
        .expect("bad-corpus scripts must declare `-- expect: SDxxx ...`");
    let codes: BTreeSet<String> = header.split_whitespace().map(str::to_string).collect();
    assert!(!codes.is_empty());
    codes
}

/// Runs `sql` statement by statement in a fresh session: the index of
/// the first statement that fails, with its error.
fn first_failure(sql: &str) -> Option<(usize, String)> {
    let mut session = Session::new();
    let stmts = parser::parse_statements(sql).expect("corpus scripts parse");
    stmts
        .iter()
        .enumerate()
        .find_map(|(i, stmt)| session.execute_statement(stmt).err().map(|e| (i, e.to_string())))
}

#[test]
fn bad_corpus_flags_every_expected_code() {
    for path in sql_files(&corpus_dir("bad")) {
        let sql = std::fs::read_to_string(&path).unwrap();
        let expected = expected_codes(&sql);
        let session = Session::new();
        let analysis = session
            .check_script(&sql)
            .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        let found: BTreeSet<String> =
            analysis.diagnostics.iter().map(|d| d.diag.code.clone()).collect();
        for code in &expected {
            assert!(found.contains(code), "{}: expected {code}, found {found:?}", path.display());
        }
        assert!(
            analysis.has_errors(),
            "{}: bad-corpus scripts must carry an error-level finding, got {found:?}",
            path.display()
        );
        // The analyzer agrees with the engine: the run stops at a
        // statement the analyzer flagged.
        let (stmt, err) = first_failure(&sql)
            .unwrap_or_else(|| panic!("{}: flagged, but runs to the end", path.display()));
        assert!(
            analysis.diagnostics.iter().any(|d| d.stmt == stmt),
            "{}: statement {} fails ({err}) without a finding: {:?}",
            path.display(),
            stmt + 1,
            analysis.diagnostics
        );
    }
}

#[test]
fn good_corpus_lints_clean() {
    for path in sql_files(&corpus_dir("good")) {
        let sql = std::fs::read_to_string(&path).unwrap();
        let session = Session::new();
        let analysis = session
            .check_script(&sql)
            .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        assert_eq!(analysis.error_count(), 0, "{}: {:?}", path.display(), analysis.diagnostics);
        assert_eq!(analysis.warning_count(), 0, "{}: {:?}", path.display(), analysis.diagnostics);
        if let Some((stmt, err)) = first_failure(&sql) {
            panic!("{}: lints clean, but statement {} fails: {err}", path.display(), stmt + 1);
        }
    }
}

#[test]
fn sd019_fires_when_executing_the_decomposable_model() {
    let path = corpus_dir("good").join("decomposable.sql");
    let sql = std::fs::read_to_string(&path).unwrap();
    let mut session = Session::new();
    let mut sd019 = None;
    for piece in parser::split_statements(&sql) {
        let r = session.execute(&piece).unwrap_or_else(|e| panic!("{piece}: {e}"));
        if let Some(d) = r.warnings.iter().find(|d| d.code == "SD019") {
            sd019 = Some(d.clone());
        }
    }
    let d = sd019.expect("the solve must report SD019");
    assert!(d.message.contains("2 independent blocks"), "message: {}", d.message);
}

#[test]
fn decomposable_blocks_are_variable_disjoint() {
    let path = corpus_dir("good").join("decomposable.sql");
    let sql = std::fs::read_to_string(&path).unwrap();
    let stmts = parser::parse_statements(&sql).unwrap();
    let mut session = Session::new();
    let mut solve = None;
    for stmt in &stmts {
        if let Statement::Solve(s) = stmt {
            solve = Some(s.clone());
        } else {
            session.execute_statement(stmt).unwrap();
        }
    }
    let solve = solve.expect("decomposable.sql contains a SOLVESELECT");
    let model = prepare(session.db(), &Ctes::new(), &solve, None).unwrap();
    let blocks = check::structure::problem_blocks(&model);
    assert!(blocks.len() >= 2, "expected >= 2 blocks, got {blocks:?}");
    for (i, a) in blocks.iter().enumerate() {
        assert!(!a.vars.is_empty(), "block {i} has no variables");
        assert!(a.rows > 0, "block {i} has no constraint rows");
        for b in blocks.iter().skip(i + 1) {
            assert!(
                a.vars.iter().all(|v| !b.vars.contains(v)),
                "blocks share variables: {blocks:?}"
            );
        }
    }
}

#[test]
fn explain_script_runs_end_to_end() {
    let path = corpus_dir("bad").join("use_before_create.sql");
    let mut session = Session::new();
    let r = session
        .execute(&format!("EXPLAIN SCRIPT '{}'", path.display()))
        .expect("EXPLAIN SCRIPT succeeds even on defective scripts");
    let t = r.into_table().expect("EXPLAIN SCRIPT yields a table");
    // Row 0 is the summary; the SD013 finding appears with its severity.
    assert!(t.num_rows() >= 2, "{t}");
    let has_sd013 =
        t.rows.iter().any(|row| row[1].as_str() == Ok("SD013") && row[2].as_str() == Ok("error"));
    assert!(has_sd013, "expected an SD013 error row in {t}");
}

/// SD018 sees a solve wherever the statement runs it: directly, in a FROM
/// subquery, in a CTE, and as the source of an INSERT. A `SOLVEMODEL`
/// value over the same empty input is packaged, not run: it stays silent.
#[test]
fn sd018_fires_for_a_solve_at_any_depth() {
    let model = "q(x) AS (SELECT * FROM v) MINIMIZE (SELECT sum(x) FROM q) USING solverlp()";
    let sql = format!(
        "CREATE TABLE v (x float8);
         CREATE TABLE a AS SOLVESELECT {model};
         CREATE TABLE b AS SELECT * FROM (SOLVESELECT {model}) s;
         CREATE TABLE c AS WITH w AS (SOLVESELECT {model}) SELECT * FROM w;
         INSERT INTO a SELECT * FROM (SOLVESELECT {model}) s;
         CREATE TABLE m AS SELECT (SOLVEMODEL {model}) AS model"
    );
    let analysis = Session::new().check_script(&sql).unwrap();
    let sd018: Vec<usize> =
        analysis.diagnostics.iter().filter(|d| d.diag.code == "SD018").map(|d| d.stmt).collect();
    assert_eq!(sd018, [1, 2, 3, 4], "{:?}", analysis.diagnostics);
}
