//! Integration tests for `solvecheck`, the pre-solve static analyzer:
//! one positive and one negative case per SD code, agreement with the
//! runtime error wording (SD002), warning delivery on `Session::execute`
//! results, the `EXPLAIN CHECK` surface, and no-false-positive checks
//! over the repository's example workloads.

use solvedbplus_core::Session;
use sqlengine::diag::{Diagnostic, Severity};
use sqlengine::Outcome;

/// A session with one NULL-filled decision table `v (x, y)`.
fn lp_session() -> Session {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8, y float8); INSERT INTO v VALUES (NULL, NULL)")
        .unwrap();
    s
}

fn codes(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.code.as_str()).collect()
}

fn find<'a>(diags: &'a [Diagnostic], code: &str) -> Option<&'a Diagnostic> {
    diags.iter().find(|d| d.code == code)
}

// ---------------------------------------------------------------------------
// SD001 — decision variable unbounded in the objective direction
// ---------------------------------------------------------------------------

#[test]
fn sd001_fires_when_the_objective_direction_is_unbounded() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x >= 0 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let d = find(&diags, "SD001").expect("SD001 expected");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("unbounded"), "message: {}", d.message);
}

#[test]
fn sd001_stays_silent_when_the_needed_bound_exists() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x >= 0, x <= 10 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(find(&diags, "SD001").is_none(), "got {:?}", codes(&diags));
}

#[test]
fn sd001_stays_silent_for_coupled_variables() {
    // x appears in a multi-variable constraint: the coupling may bound
    // it indirectly, so the check must not guess.
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT * FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x + y <= 10 FROM q), (SELECT y >= 0 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(find(&diags, "SD001").is_none(), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD002 — nonlinear rule but the linear solver is named
// ---------------------------------------------------------------------------

#[test]
fn sd002_fires_for_nonlinear_objective_under_solverlp() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MINIMIZE (SELECT x * x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 10 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let d = find(&diags, "SD002").expect("SD002 expected");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.detail.as_deref().unwrap_or("").contains("swarmops"),
        "fix-it should point at swarmops: {:?}",
        d.detail
    );
}

#[test]
fn sd002_message_matches_the_runtime_error() {
    // Satellite guarantee: every error-level finding of the analyzer and
    // the solver's run-time failure agree on clause, rule and reason —
    // both read the same compiled rule failure.
    for (case, code, objective, rule) in [
        (
            "non-linear objective",
            "SD002",
            "MINIMIZE (SELECT x * x FROM q)",
            "SELECT x <= 10 FROM q",
        ),
        ("non-linear rule", "SD002", "MINIMIZE (SELECT x FROM q)", "SELECT x * y <= 10 FROM q"),
        ("<> rule", "SD002", "MINIMIZE (SELECT x FROM q)", "SELECT x <> 3 FROM q"),
        ("trivially false rule", "SD004", "MINIMIZE (SELECT x FROM q)", "SELECT 1 = 2"),
        (
            "both objectives",
            "SD007",
            "MINIMIZE (SELECT x FROM q) MAXIMIZE (SELECT y FROM q)",
            "SELECT x <= 10 FROM q",
        ),
    ] {
        let sql = |using: &str| {
            format!(
                "SOLVESELECT q(x, y) AS (SELECT * FROM v) {objective} \
                 SUBJECTTO (SELECT 0 <= x, 0 <= y <= 5 FROM q), ({rule}) USING {using}"
            )
        };
        let mut s = lp_session();
        let diags = s.check(&sql("solverlp()")).unwrap();
        let errors: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.severity == Severity::Error).collect();
        assert_eq!(errors.iter().map(|d| d.code.as_str()).collect::<Vec<_>>(), [code], "{case}");
        let runtime = s.execute(&sql("solverlp()")).expect_err(case).to_string();
        assert!(
            runtime.contains(&errors[0].message),
            "{case}: runtime error {runtime:?} should contain the diagnostic message {:?}",
            errors[0].message
        );
        // Non-linearity is no defect under a black-box solver.
        let blackbox = s.check(&sql("swarmops.pso()")).unwrap();
        assert!(find(&blackbox, "SD002").is_none(), "{case}: got {:?}", codes(&blackbox));
    }
}

#[test]
fn sd002_stays_silent_for_blackbox_solvers() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MINIMIZE (SELECT x * x FROM q) \
             SUBJECTTO (SELECT -10 <= x <= 10 FROM q) \
             USING swarmops.pso()",
        )
        .unwrap();
    assert!(find(&diags, "SD002").is_none(), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD003 — decision columns never referenced by any rule
// ---------------------------------------------------------------------------

#[test]
fn sd003_fires_for_an_unreferenced_decision_column() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT * FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let d = find(&diags, "SD003").expect("SD003 expected");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains('y'), "message should name the column: {}", d.message);
    assert!(
        d.detail.as_deref().unwrap_or("").contains("pruned"),
        "detail should mention pruning: {:?}",
        d.detail
    );
}

#[test]
fn sd003_stays_silent_when_every_column_is_referenced() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT * FROM v) \
             MAXIMIZE (SELECT x + y FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5, 0 <= y <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(find(&diags, "SD003").is_none(), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD004 — trivially infeasible constant constraints
// ---------------------------------------------------------------------------

#[test]
fn sd004_fires_for_a_constant_false_constraint() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5 FROM q), (SELECT 1 <= 0 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let d = find(&diags, "SD004").expect("SD004 expected");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn sd004_fires_when_decision_variables_cancel() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5 FROM q), (SELECT x - x <= -1 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(find(&diags, "SD004").is_some(), "got {:?}", codes(&diags));
}

#[test]
fn sd004_stays_silent_for_satisfiable_constraints() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(find(&diags, "SD004").is_none(), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD005 — duplicate / shadowed constraints
// ---------------------------------------------------------------------------

#[test]
fn sd005_fires_for_exact_duplicates() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x <= 5 FROM q), (SELECT x <= 5 FROM q), \
                       (SELECT x >= 0 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let d = find(&diags, "SD005").expect("SD005 expected");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("2 times"), "message: {}", d.message);
}

#[test]
fn sd005_notes_a_shadowed_bound() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x <= 10, x <= 20, x >= 0 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let d = find(&diags, "SD005").expect("SD005 expected");
    assert_eq!(d.severity, Severity::Note);
    assert!(d.message.contains("shadowed"), "message: {}", d.message);
}

#[test]
fn sd005_notes_a_repeated_loose_bound_once() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x <= 5, x <= 7, x <= 5, x <= 1 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let notes: Vec<&str> = diags
        .iter()
        .filter(|d| d.code == "SD005" && d.severity == Severity::Note)
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(
        notes,
        [
            "bound 'q[0].x <= 5' is shadowed by the tighter 'q[0].x <= 1'",
            "bound 'q[0].x <= 7' is shadowed by the tighter 'q[0].x <= 1'"
        ]
    );
    // The repeat itself is the duplicate warning's.
    let d = find(&diags, "SD005").expect("SD005 expected");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("2 times"), "message: {}", d.message);
}

#[test]
fn sd005_stays_silent_for_distinct_constraints() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT * FROM v) \
             MAXIMIZE (SELECT x + y FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5, 0 <= y <= 7 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(find(&diags, "SD005").is_none(), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD006 — objective contains no decision variables
// ---------------------------------------------------------------------------

#[test]
fn sd006_fires_for_a_constant_objective() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT 42 FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let d = find(&diags, "SD006").expect("SD006 expected");
    assert_eq!(d.severity, Severity::Warning);
    assert!(
        d.detail.as_deref().unwrap_or("").contains("42"),
        "detail should show the constant: {:?}",
        d.detail
    );
}

#[test]
fn sd006_stays_silent_when_the_objective_uses_variables() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(find(&diags, "SD006").is_none(), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD007 — multiple objectives for a single-objective solver
// ---------------------------------------------------------------------------

#[test]
fn sd007_fires_for_two_objectives_under_solverlp() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT * FROM v) \
             MINIMIZE (SELECT x FROM q) \
             MAXIMIZE (SELECT y FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5, 0 <= y <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let d = find(&diags, "SD007").expect("SD007 expected");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.detail.as_deref().unwrap_or("").contains("weighted sum"),
        "detail should suggest a weighted sum: {:?}",
        d.detail
    );
}

#[test]
fn sd007_stays_silent_with_a_single_objective() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MINIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(find(&diags, "SD007").is_none(), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// Delivery: warnings on execute results, EXPLAIN CHECK, severity order
// ---------------------------------------------------------------------------

#[test]
fn warnings_are_attached_to_successful_execute_results() {
    let mut s = lp_session();
    let r = s
        .execute(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x <= 10, x <= 20, x >= 0 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(matches!(r.outcome, Outcome::Table(_)));
    let d = find(&r.warnings, "SD005").expect("shadowed-bound note expected");
    assert_eq!(d.severity, Severity::Note);
    // The warnings channel is advisory only.
    assert!(r.warnings.iter().all(|d| d.severity <= Severity::Warning));
}

#[test]
fn plain_sql_results_carry_no_warnings() {
    let mut s = lp_session();
    let r = s.execute("SELECT 1").unwrap();
    assert!(r.warnings.is_empty());
}

#[test]
fn nested_solve_warnings_reach_the_outer_result() {
    // A SOLVESELECT in FROM position has no warnings channel of its
    // own; its advisory findings must surface on the enclosing
    // statement's result instead of being dropped.
    let mut s = lp_session();
    let r = s
        .execute(
            "SELECT count(*) FROM ( \
               SOLVESELECT q(x) AS (SELECT x FROM v) \
               MAXIMIZE (SELECT x FROM q) \
               SUBJECTTO (SELECT x <= 10, x <= 20, x >= 0 FROM q) \
               USING solverlp()) sub",
        )
        .unwrap();
    assert!(matches!(r.outcome, Outcome::Table(_)));
    let d = find(&r.warnings, "SD005").expect("nested solve's SD005 should propagate");
    assert!(d.severity <= Severity::Warning);
    // The drain is per statement: the next statement starts clean.
    let r = s.execute("SELECT 1").unwrap();
    assert!(r.warnings.is_empty());
}

#[test]
fn explain_check_returns_the_diagnostics_table() {
    let mut s = lp_session();
    let t = s
        .query(
            "EXPLAIN CHECK SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x >= 0 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let names: Vec<&str> = t.schema.columns.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["code", "severity", "message", "detail"]);
    assert!(
        t.rows.iter().any(|r| r[0] == sqlengine::Value::text("SD001")),
        "EXPLAIN CHECK should list SD001, got {t}"
    );
}

#[test]
fn explain_without_check_renders_the_plan() {
    let mut s = lp_session();
    let t = s
        .query(
            "EXPLAIN SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let names: Vec<&str> = t.schema.columns.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["plan"]);
    assert!(!t.rows.is_empty());
}

#[test]
fn diagnostics_are_ordered_most_severe_first() {
    let s = lp_session();
    let diags = s
        .check(
            // SD004 (error) + SD005 (note) in one model.
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x <= 10, x <= 20, x >= 0 FROM q), (SELECT 1 <= 0 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(diags.len() >= 2);
    for w in diags.windows(2) {
        assert!(w[0].severity >= w[1].severity, "not sorted: {:?}", codes(&diags));
    }
}

// ---------------------------------------------------------------------------
// No false positives on the repository's example workloads
// ---------------------------------------------------------------------------

#[test]
fn quickstart_lp_and_knapsack_are_clean() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE products (name text, profit float8, hours float8, qty float8);
         INSERT INTO products VALUES
           ('chair', 45, 2.0, NULL), ('table', 80, 4.0, NULL), ('shelf', 25, 1.0, NULL);
         CREATE TABLE cargo (item text, value float8, weight float8, take int);
         INSERT INTO cargo VALUES
           ('laptop', 60, 10, NULL), ('camera', 100, 20, NULL),
           ('drone', 120, 30, NULL), ('books', 40, 25, NULL);",
    )
    .unwrap();
    let lp = s
        .check(
            "SOLVESELECT p(qty) AS (SELECT * FROM products) \
             MAXIMIZE (SELECT sum(profit * qty) FROM p) \
             SUBJECTTO (SELECT sum(hours * qty) <= 120 FROM p), \
                       (SELECT 0 <= qty <= 40 FROM p) \
             USING solverlp()",
        )
        .unwrap();
    assert!(lp.is_empty(), "quickstart LP should be clean, got {:?}", codes(&lp));
    let mip = s
        .check(
            "SOLVESELECT c(take) AS (SELECT * FROM cargo) \
             MAXIMIZE (SELECT sum(value * take) FROM c) \
             SUBJECTTO (SELECT sum(weight * take) <= 50 FROM c), \
                       (SELECT 0 <= take <= 1 FROM c) \
             USING solverlp.cbc()",
        )
        .unwrap();
    // The only findings allowed on the knapsack are the informational
    // matrix-classification notes (SD020+) — no SD001–SD019 smells.
    assert!(
        mip.iter().all(|d| d.severity == Severity::Note && d.code.as_str() >= "SD020"),
        "knapsack should have no smells, got {:?}",
        codes(&mip)
    );
    assert!(mip.iter().any(|d| d.code == "SD020"), "knapsack row should be classified");
}

#[test]
fn production_planning_example_is_clean() {
    let mut s = Session::new();
    s.execute(
        "CREATE TABLE months (m int, demand float8, capacity float8,
                              unit_profit float8, hold_cost float8,
                              produce float8, stock float8)",
    )
    .unwrap();
    for (m, (d, cap)) in
        [(120.0, 150.0), (160.0, 180.0), (220.0, 200.0), (140.0, 150.0)].iter().enumerate()
    {
        s.execute(&format!(
            "INSERT INTO months VALUES ({}, {d}, {cap}, 9.0, 1.5, NULL, NULL)",
            m + 1
        ))
        .unwrap();
    }
    let diags = s
        .check(
            "SOLVESELECT t(produce, stock) AS (SELECT * FROM months) \
             MAXIMIZE (SELECT sum(demand * unit_profit - hold_cost * stock) FROM t) \
             SUBJECTTO \
               (SELECT cur.stock = prv.stock + cur.produce - cur.demand \
                FROM t cur JOIN t prv ON cur.m = prv.m + 1), \
               (SELECT stock = produce - demand FROM t WHERE m = 1), \
               (SELECT 0 <= produce <= capacity, stock >= 0 FROM t) \
             USING solverlp()",
        )
        .unwrap();
    assert!(diags.is_empty(), "production planning should be clean, got {:?}", codes(&diags));
}

#[test]
fn sudoku_example_is_clean() {
    // The most constraint-heavy solverlp example: one-hot encoding with
    // grouped aggregate constraints. No duplicate/shadow/unbounded
    // findings may fire here.
    let mut s = Session::new();
    s.execute("CREATE TABLE cells (r int, c int, v int, box int, pick int)").unwrap();
    for r in 1..=4 {
        for c in 1..=4 {
            let b = ((r - 1) / 2) * 2 + (c - 1) / 2 + 1;
            for v in 1..=4 {
                s.execute(&format!("INSERT INTO cells VALUES ({r}, {c}, {v}, {b}, NULL)")).unwrap();
            }
        }
    }
    s.execute_script(
        "CREATE TABLE clues (r int, c int, v int);
         INSERT INTO clues VALUES (1,1,1), (1,2,2), (2,1,3), (2,3,1), (3,2,1), (4,4,1)",
    )
    .unwrap();
    let diags = s
        .check(
            "SOLVESELECT g(pick) AS (SELECT * FROM cells) \
             MAXIMIZE (SELECT sum(pick) FROM g) \
             SUBJECTTO \
               (SELECT sum(pick) = 1 FROM g GROUP BY r, c), \
               (SELECT sum(pick) = 1 FROM g GROUP BY r, v), \
               (SELECT sum(pick) = 1 FROM g GROUP BY c, v), \
               (SELECT sum(pick) = 1 FROM g GROUP BY box, v), \
               (SELECT pick = 1 FROM g JOIN clues ON g.r = clues.r \
                  AND g.c = clues.c AND g.v = clues.v), \
               (SELECT 0 <= pick <= 1 FROM g) \
             USING solverlp.cbc()",
        )
        .unwrap();
    // Matrix classification legitimately reports the one-hot structure
    // (SD020 census, SD023 implied integrality); anything else — any
    // warning, any SD001–SD019 finding — is a false positive.
    assert!(
        diags.iter().all(|d| d.severity == Severity::Note && d.code.as_str() >= "SD020"),
        "sudoku should have no smells, got {:?}",
        codes(&diags)
    );
    assert!(diags.iter().any(|d| d.code == "SD020"), "sudoku rows should be classified");
}

#[test]
fn predictive_statements_are_clean() {
    // No rules at all: the analyzer must stay completely silent rather
    // than flag every decision column as unreferenced.
    let mut s = Session::new();
    s.execute("CREATE TABLE sales (day timestamp, units float8)").unwrap();
    for i in 0..30 {
        let v = if i < 25 { format!("{}", 100.0 + 3.0 * i as f64) } else { "NULL".to_string() };
        s.execute(&format!(
            "INSERT INTO sales VALUES ('2026-06-01'::timestamp + interval '{i} days', {v})"
        ))
        .unwrap();
    }
    let diags =
        s.check("SOLVESELECT f(units) AS (SELECT * FROM sales) USING predictive_solver()").unwrap();
    assert!(diags.is_empty(), "predictive statement should be clean, got {:?}", codes(&diags));
    let r = s
        .execute("SOLVESELECT f(units) AS (SELECT * FROM sales) USING predictive_solver()")
        .unwrap();
    assert!(r.warnings.is_empty(), "got {:?}", codes(&r.warnings));
}
