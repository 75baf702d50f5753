//! End-to-end tests for the abstract-interpretation presolve: the
//! `EXPLAIN PRESOLVE` surface, the SD008–SD012 diagnostics, the solver
//! integration (`presolve := off`), and the telemetry plumbing down to
//! `sdb_solver_stats`.

use solvedbplus_core::check::presolve::reduce::reduce;
use solvedbplus_core::Session;
use sqlengine::diag::{Diagnostic, Severity};

fn lp_session() -> Session {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8, y float8); INSERT INTO v VALUES (NULL, NULL)")
        .unwrap();
    s
}

fn codes(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.code.as_str()).collect()
}

// ---------------------------------------------------------------------------
// EXPLAIN PRESOLVE
// ---------------------------------------------------------------------------

/// `x[n] = 0.9·x[n-1] + 0.5·u[n-1]` over eight steps, stated as a
/// recursive CDTE and equated to the decision column `x`: the symbolic
/// pass gives each step's `x` a column of its own, defined by the step.
fn recurrence_session() -> Session {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE steps (n int, u float8, x float8);
         INSERT INTO steps WITH RECURSIVE g(n) AS (SELECT 0 UNION ALL SELECT n + 1 FROM g WHERE n < 8)
                           SELECT n, NULL, NULL FROM g",
    )
    .unwrap();
    s
}

const RECURRENCE: &str = "SOLVESELECT t(u, x) AS (SELECT * FROM steps) \
     WITH sim AS ( \
       WITH RECURSIVE s(n, x) AS ( \
         SELECT 0, 20.0 \
         UNION ALL \
         SELECT s.n + 1, 0.9 * s.x + 0.5 * t.u FROM s JOIN t ON t.n = s.n WHERE s.n < 8) \
       SELECT n, x FROM s) \
     MINIMIZE (SELECT sum(u) FROM t) \
     SUBJECTTO (SELECT t.x = sim.x FROM sim, t WHERE t.n = sim.n), \
               (SELECT 19 <= x <= 24, 0 <= u <= 10 FROM t) \
     USING solverlp()";

#[test]
fn a_recurrence_reaches_the_kernel_as_a_staircase() {
    let mut s = recurrence_session();
    let lines =
        |t: sqlengine::Table| -> Vec<String> { t.rows.iter().map(|r| r[0].to_string()).collect() };
    // 18 decision columns and 8 step columns; 9 `x = sim.x` rows and 8
    // definitions. `x[0] = 20` is fixed, and each step column goes out
    // through its `x` row: one row per step is left.
    let report = lines(s.query(&format!("EXPLAIN PRESOLVE {RECURRENCE}")).unwrap());
    assert_eq!(report[0], "presolve: 26 vars, 17 rows -> 17 vars, 8 rows", "{report:#?}");
    assert!(report.contains(&"columns substituted: 8".to_string()), "{report:#?}");

    // The same plan either way.
    let off = RECURRENCE.replace("solverlp()", "solverlp(presolve := off)");
    let (on, off) = (s.query(RECURRENCE).unwrap(), s.query(&off).unwrap());
    for col in ["u", "x"] {
        let floats = |t: &sqlengine::Table| -> Vec<f64> {
            t.column_values(col).unwrap().iter().map(|v| v.as_f64().unwrap()).collect()
        };
        for (a, b) in floats(&on).into_iter().zip(floats(&off)) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{col}: {a} vs {b}");
        }
    }
}

#[test]
fn a_model_without_free_columns_substitutes_none() {
    let mut s = lp_session();
    let t = s
        .query(
            "EXPLAIN PRESOLVE SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MAXIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 4, 0 <= y <= 10, x + y <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(t.rows.iter().all(|r| !r[0].to_string().contains("substituted")), "{t:?}");
}

/// Nonzeros of each constraint row `solverlp` hands the kernel for a
/// solve statement, with presolve on and with `presolve := off`.
fn kernel_rows(s: &Session, sql: &str) -> [Vec<usize>; 2] {
    let sqlengine::ast::Statement::Solve(stmt) = sqlengine::parser::parse_statement(sql).unwrap()
    else {
        panic!("not a solve statement: {sql}");
    };
    let ctes = sqlengine::Ctes::new();
    let model = solvedbplus_core::prepare(s.db(), &ctes, &stmt, None).unwrap();
    let lowered = &model.lowered().problem;
    let rows = |p: &lp::Problem| p.constraints.iter().map(|c| c.coeffs().len()).collect();
    [rows(&reduce(lowered).reduced), rows(lowered)]
}

/// The objective of a solve, with presolve on or off.
fn objective(s: &mut Session, sql: &str, presolve: bool) -> f64 {
    let sql = if presolve {
        sql.to_string()
    } else {
        sql.replace("solverlp()", "solverlp(presolve := off)")
    };
    let r = s.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let stats = r.trace.and_then(|t| t.solvers.first().cloned()).expect("solver stats");
    stats.objective.expect("an optimum")
}

/// A recurrence stated as a recursive CDTE and the same one stated by
/// hand as a staircase over its state columns: the CDTE reaches the
/// kernel at three nonzeros per row at most, presolve on and off, and
/// both reach the same optimum.
fn agrees_with_its_staircase(setup: &str, cdte: &str, staircase: &str) {
    let mut s = Session::new();
    s.execute_script(setup).unwrap();
    for rows in kernel_rows(&s, cdte) {
        assert!(rows.iter().all(|&n| n <= 3), "{rows:?}");
    }
    let want = objective(&mut s, staircase, true);
    for presolve in [true, false] {
        let got = objective(&mut s, cdte, presolve);
        assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0), "{got} vs {want} ({presolve})");
    }
}

/// An integer control: the model is a MIP.
#[test]
fn a_recurrence_over_an_integer_control_is_a_staircase() {
    agrees_with_its_staircase(
        "CREATE TABLE steps (n int, u int, x float8);
         INSERT INTO steps WITH RECURSIVE g(n) AS (SELECT 0 UNION ALL SELECT n + 1 FROM g WHERE n < 8)
                           SELECT n, NULL, NULL FROM g",
        "SOLVESELECT t(u, x) AS (SELECT * FROM steps) \
         WITH sim AS ( \
           WITH RECURSIVE s(n, x) AS ( \
             SELECT 0, 12.0 \
             UNION ALL \
             SELECT s.n + 1, 0.8 * s.x + 2 * t.u FROM s JOIN t ON t.n = s.n WHERE s.n < 8) \
           SELECT n, x FROM s) \
         MINIMIZE (SELECT sum(u) + 0.01 * sum(x) FROM t) \
         SUBJECTTO (SELECT t.x = sim.x FROM sim, t WHERE t.n = sim.n), \
                   (SELECT 10 <= x <= 20, 0 <= u <= 3 FROM t) \
         USING solverlp()",
        "SOLVESELECT t(u, x) AS (SELECT * FROM steps) \
         MINIMIZE (SELECT sum(u) + 0.01 * sum(x) FROM t) \
         SUBJECTTO (SELECT b.x = 0.8 * a.x + 2 * a.u FROM t a, t b WHERE b.n = a.n + 1), \
                   (SELECT x = 12.0 FROM t WHERE n = 0), \
                   (SELECT 10 <= x <= 20, 0 <= u <= 3 FROM t) \
         USING solverlp()",
    );
}

/// Two states stepping together: each step is two rows over both
/// states.
#[test]
fn a_recurrence_of_two_states_is_a_staircase() {
    agrees_with_its_staircase(
        "CREATE TABLE steps (n int, u float8, x float8, y float8);
         INSERT INTO steps WITH RECURSIVE g(n) AS (SELECT 0 UNION ALL SELECT n + 1 FROM g WHERE n < 10)
                           SELECT n, NULL, NULL, NULL FROM g",
        "SOLVESELECT t(u, x, y) AS (SELECT * FROM steps) \
         WITH sim AS ( \
           WITH RECURSIVE s(n, x, y) AS ( \
             SELECT 0, 20.0, 5.0 \
             UNION ALL \
             SELECT s.n + 1, 0.9 * s.x + 0.3 * s.y, 0.7 * s.y + 0.5 * t.u \
             FROM s JOIN t ON t.n = s.n WHERE s.n < 10) \
           SELECT n, x, y FROM s) \
         MINIMIZE (SELECT sum(u) FROM t) \
         SUBJECTTO (SELECT t.x = sim.x, t.y = sim.y FROM sim, t WHERE t.n = sim.n), \
                   (SELECT 15 <= x <= 25, 0 <= y <= 10, 0 <= u <= 8 FROM t) \
         USING solverlp()",
        "SOLVESELECT t(u, x, y) AS (SELECT * FROM steps) \
         MINIMIZE (SELECT sum(u) FROM t) \
         SUBJECTTO (SELECT b.x = 0.9 * a.x + 0.3 * a.y, b.y = 0.7 * a.y + 0.5 * a.u \
                    FROM t a, t b WHERE b.n = a.n + 1), \
                   (SELECT x = 20.0, y = 5.0 FROM t WHERE n = 0), \
                   (SELECT 15 <= x <= 25, 0 <= y <= 10, 0 <= u <= 8 FROM t) \
         USING solverlp()",
    );
}

/// A step that emits `1 − b` over a binary control: the cell's column
/// is defined by `aux + b = 1`, an all-ones row with right-hand side 1
/// over a column that is not binary. It is a definition, not a
/// set-partitioning row: `EXPLAIN CHECK` raises no SD024 over it (the
/// covering row `sum(b) >= 1` over two steps shows the matrix pass
/// ran), and the MIP solves to its staircase's optimum.
#[test]
fn a_toggle_over_a_binary_control_is_not_a_set_row() {
    let setup = "CREATE TABLE steps (n int, b int, c float8);
         INSERT INTO steps WITH RECURSIVE g(n) AS (SELECT 0 UNION ALL SELECT n + 1 FROM g WHERE n < 6)
                           SELECT n, NULL, NULL FROM g";
    let cdte = "SOLVESELECT t(b, c) AS (SELECT * FROM steps) \
         WITH sim AS ( \
           WITH RECURSIVE s(n, c) AS ( \
             SELECT 0, 0.0 \
             UNION ALL \
             SELECT s.n + 1, 1 - t.b FROM s JOIN t ON t.n = s.n WHERE s.n < 6) \
           SELECT n, c FROM s) \
         MINIMIZE (SELECT sum(c) + 0.5 * sum(b) FROM t) \
         SUBJECTTO (SELECT t.c = sim.c FROM sim, t WHERE t.n = sim.n), \
                   (SELECT 0 <= b <= 1 FROM t), (SELECT sum(b) >= 1 FROM t WHERE n < 2) \
         USING solverlp()";
    agrees_with_its_staircase(
        setup,
        cdte,
        "SOLVESELECT t(b, c) AS (SELECT * FROM steps) \
         MINIMIZE (SELECT sum(c) + 0.5 * sum(b) FROM t) \
         SUBJECTTO (SELECT b.c = 1 - a.b FROM t a, t b WHERE b.n = a.n + 1), \
                   (SELECT c = 0.0 FROM t WHERE n = 0), \
                   (SELECT 0 <= b <= 1 FROM t), (SELECT sum(b) >= 1 FROM t WHERE n < 2) \
         USING solverlp()",
    );
    let mut s = Session::new();
    s.execute_script(setup).unwrap();
    let diags = s.check(cdte).unwrap();
    assert!(!codes(&diags).contains(&"SD024"), "{diags:#?}");
    assert!(codes(&diags).contains(&"SD020"), "the matrix pass ran: {diags:#?}");
    let report = s.query(&format!("EXPLAIN CHECK {cdte}")).unwrap();
    assert!(!report.rows.is_empty());
}

#[test]
fn explain_presolve_renders_a_reduction_log() {
    let mut s = lp_session();
    let t = s
        .query(
            "EXPLAIN PRESOLVE SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MAXIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT x = 3, 0 <= y <= 10, x + y <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let text: Vec<String> = t.rows.iter().map(|r| r[0].to_string()).collect();
    let text = text.join("\n");
    // Header with before/after shape, the singleton fix, the residual
    // tightening of y, and the counts footer.
    assert!(text.contains("presolve: 2 vars"), "got:\n{text}");
    assert!(text.contains("fixed q[0].x = 3"), "got:\n{text}");
    assert!(text.contains("tightened q[0].y"), "got:\n{text}");
    assert!(text.contains("variables fixed: 1"), "got:\n{text}");
}

#[test]
fn explain_presolve_reports_proven_infeasibility() {
    let mut s = lp_session();
    let t = s
        .query(
            "EXPLAIN PRESOLVE SOLVESELECT q(x) AS (SELECT x FROM v) \
             SUBJECTTO (SELECT 0 <= x <= 1, x >= 2 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let text: Vec<String> = t.rows.iter().map(|r| r[0].to_string()).collect();
    let text = text.join("\n");
    assert!(text.contains("proves the model infeasible"), "got:\n{text}");
}

#[test]
fn explain_presolve_on_a_nonlinear_model_explains_itself() {
    let mut s = lp_session();
    let t = s
        .query(
            "EXPLAIN PRESOLVE SOLVESELECT q(x) AS (SELECT x FROM v) \
             MINIMIZE (SELECT x * x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 1 FROM q) \
             USING swarmops.pso()",
        )
        .unwrap();
    let text = t.rows[0][0].to_string();
    assert!(text.contains("do not compile to a linear program"), "got: {text}");
}

#[test]
fn explain_presolve_without_reductions_shows_identity_shape() {
    let mut s = lp_session();
    let t = s
        .query(
            "EXPLAIN PRESOLVE SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MINIMIZE (SELECT sum(x + 2 * y) FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 10, 0 <= y <= 10, x + y >= 4 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let text: Vec<String> = t.rows.iter().map(|r| r[0].to_string()).collect();
    let text = text.join("\n");
    assert!(text.contains("presolve: 2 vars, 1 rows -> 2 vars, 1 rows"), "got:\n{text}");
}

// ---------------------------------------------------------------------------
// SD008 — propagation proves infeasibility
// ---------------------------------------------------------------------------

#[test]
fn sd008_fires_on_propagation_proven_infeasibility() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             SUBJECTTO (SELECT 0 <= x <= 1, 0 <= y <= 1, x + y >= 3 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let sd008 = diags.iter().find(|d| d.code == "SD008").expect("SD008 should fire");
    assert_eq!(sd008.severity, Severity::Error);
    assert!(sd008.detail.as_deref().unwrap_or("").contains("activity"), "{sd008:?}");
}

#[test]
fn sd008_fires_on_contradictory_chained_bounds() {
    let s = lp_session();
    // No single constraint is contradictory; only propagation through
    // the equality chain exposes the conflict.
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             SUBJECTTO (SELECT x = y, x >= 2, y <= 1 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(codes(&diags).contains(&"SD008"), "got {:?}", codes(&diags));
}

#[test]
fn sd008_stays_silent_on_feasible_models() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MINIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 1, 0 <= y <= 1, x + y >= 1 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(!codes(&diags).contains(&"SD008"), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD009 — constraints fix every decision variable
// ---------------------------------------------------------------------------

#[test]
fn sd009_fires_when_nothing_is_left_to_optimize() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MAXIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT x = 2, x + y = 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let sd009 = diags.iter().find(|d| d.code == "SD009").expect("SD009 should fire");
    assert_eq!(sd009.severity, Severity::Warning);
    assert!(sd009.detail.as_deref().unwrap_or("").contains("q[0].y = 3"), "{sd009:?}");
}

#[test]
fn sd009_stays_silent_when_free_variables_remain() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MAXIMIZE (SELECT sum(y) FROM q) \
             SUBJECTTO (SELECT x = 2, 0 <= y <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(!codes(&diags).contains(&"SD009"), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD010 — redundant / forcing constraints
// ---------------------------------------------------------------------------

#[test]
fn sd010_flags_constraints_implied_by_declared_bounds() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MINIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 2, 0 <= y <= 2, x + y <= 100 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let sd010 = diags.iter().find(|d| d.code == "SD010").expect("SD010 should fire");
    assert_eq!(sd010.severity, Severity::Note);
    assert!(sd010.message.contains("redundant"), "{sd010:?}");
}

#[test]
fn sd010_flags_forcing_constraints_as_warnings() {
    let s = lp_session();
    // With x, y >= 0, requiring x + y <= 0 pins both at zero.
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MAXIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT x >= 0, y >= 0, x + y <= 0 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let forcing = diags
        .iter()
        .find(|d| d.code == "SD010" && d.severity == Severity::Warning)
        .expect("forcing SD010 should fire");
    assert!(forcing.message.contains("forcing"), "{forcing:?}");
}

#[test]
fn sd010_stays_silent_on_binding_constraints() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MINIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 2, 0 <= y <= 2, x + y >= 1 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(!codes(&diags).contains(&"SD010"), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD011 — trivially satisfied / no-op constraints
// ---------------------------------------------------------------------------

#[test]
fn sd011_flags_noop_singleton_equalities() {
    let s = lp_session();
    // The range already pins x at 3; the equality adds nothing.
    let diags = s
        .check(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             MINIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT 3 <= x <= 3, x = 3 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let sd011 = diags.iter().find(|d| d.code == "SD011").expect("SD011 should fire");
    assert_eq!(sd011.severity, Severity::Note);
    assert!(sd011.message.contains("no-op"), "{sd011:?}");
}

#[test]
fn sd011_stays_silent_for_informative_singletons() {
    let s = lp_session();
    // A clue-style pin that genuinely tightens the declared range.
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MAXIMIZE (SELECT sum(y) FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 9, x = 3, 0 <= y <= 1 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert!(!codes(&diags).contains(&"SD011"), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// SD012 — pathological coefficient range
// ---------------------------------------------------------------------------

#[test]
fn sd012_fires_on_wide_coefficient_ranges() {
    let s = lp_session();
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MINIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT 1000000000.0 * x + 0.001 * y <= 5, \
                        0 <= x <= 1, 0 <= y <= 1 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let sd012 = diags.iter().find(|d| d.code == "SD012").expect("SD012 should fire");
    assert_eq!(sd012.severity, Severity::Warning);
    assert!(sd012.message.contains("orders of magnitude"), "{sd012:?}");
}

#[test]
fn sd012_is_gated_on_linear_solvers() {
    let s = lp_session();
    // Same coefficients, but a derivative-free solver: no factorization,
    // no warning.
    let diags = s
        .check(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MINIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT 1000000000.0 * x + 0.001 * y <= 5, \
                        0 <= x <= 1, 0 <= y <= 1 FROM q) \
             USING swarmops.pso()",
        )
        .unwrap();
    assert!(!codes(&diags).contains(&"SD012"), "got {:?}", codes(&diags));
}

// ---------------------------------------------------------------------------
// Solver integration: presolve on/off
// ---------------------------------------------------------------------------

/// A small knapsack whose LP relaxation is fractional, so branch and
/// bound has real work that presolve's integer bound snapping shrinks.
fn knapsack_session() -> Session {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE items (id int, weight float8, value float8, pick int);
         INSERT INTO items VALUES
           (1, 4, 10, NULL), (2, 5, 11, NULL), (3, 7, 13, NULL),
           (4, 3, 7, NULL), (5, 6, 12, NULL)",
    )
    .unwrap();
    s
}

const KNAPSACK: &str = "SOLVESELECT k(pick) AS (SELECT * FROM items) \
     MAXIMIZE (SELECT sum(value * pick) FROM k) \
     SUBJECTTO (SELECT sum(weight * pick) <= 13 FROM k), \
               (SELECT 0 <= pick <= 1 FROM k) \
     USING solverlp.cbc()";

#[test]
fn presolve_on_and_off_agree_on_the_objective() {
    let mut on = knapsack_session();
    let t_on = on.query(KNAPSACK).unwrap();
    let mut off = knapsack_session();
    let t_off = off.query(&KNAPSACK.replace("cbc()", "cbc(presolve := off)")).unwrap();
    let total = |t: &sqlengine::table::Table| -> f64 {
        t.rows.iter().map(|r| r[2].as_f64().unwrap() * r[3].as_f64().unwrap()).sum()
    };
    assert!((total(&t_on) - total(&t_off)).abs() < 1e-6);
}

#[test]
fn presolve_reduces_branch_and_bound_nodes_on_a_tightened_mip() {
    // max x (integer), 2x <= 7: snapping the propagated bound to x <= 3
    // makes the root relaxation integral, so no branching at all.
    let run = |using: &str| {
        let mut s = Session::new();
        s.execute_script("CREATE TABLE t (x int); INSERT INTO t VALUES (NULL)").unwrap();
        let r = s
            .execute(&format!(
                "SOLVESELECT q(x) AS (SELECT x FROM t) \
                 MAXIMIZE (SELECT x FROM q) \
                 SUBJECTTO (SELECT x >= 0, 2 * x <= 7 FROM q) \
                 USING {using}"
            ))
            .unwrap();
        let trace = r.trace.expect("solve should be traced");
        let st = trace.solvers.first().expect("solver stats").clone();
        let x = match &r.outcome {
            sqlengine::Outcome::Table(t) => t.rows[0][0].as_f64().unwrap(),
            other => panic!("expected rows, got {other:?}"),
        };
        (x, st)
    };
    let (x_on, st_on) = run("solverlp.cbc()");
    let (x_off, st_off) = run("solverlp.cbc(presolve := off)");
    assert_eq!(x_on, 3.0);
    assert_eq!(x_off, 3.0);
    assert!(
        st_on.nodes_explored < st_off.nodes_explored,
        "presolve should shrink the search: {} vs {}",
        st_on.nodes_explored,
        st_off.nodes_explored
    );
    assert!(st_on.presolve_bounds > 0, "tightened bound should be counted: {st_on:?}");
    assert_eq!(st_off.presolve_cols + st_off.presolve_rows + st_off.presolve_bounds, 0);
}

#[test]
fn presolve_handles_fully_fixed_models() {
    let mut s = lp_session();
    let t = s
        .query(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MAXIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT x = 2, x + y = 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert_eq!(t.rows[0][0].as_f64().unwrap(), 2.0);
    assert_eq!(t.rows[0][1].as_f64().unwrap(), 3.0);
}

#[test]
fn presolve_infeasibility_reports_like_the_solver() {
    let mut s = lp_session();
    let err = s
        .query(
            "SOLVESELECT q(x) AS (SELECT x FROM v) \
             SUBJECTTO (SELECT 0 <= x <= 1, x >= 2 FROM q) \
             USING solverlp()",
        )
        .unwrap_err();
    assert!(err.to_string().contains("infeasible"), "got: {err}");
}

#[test]
fn presolve_stage_and_counters_surface_in_observability() {
    let mut s = lp_session();
    let r = s
        .execute(
            "SOLVESELECT q(x, y) AS (SELECT x, y FROM v) \
             MAXIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT x = 3, 0 <= y <= 10, x + y <= 5 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    let trace = r.trace.expect("trace");
    let rendered = trace.render().join("\n");
    assert!(rendered.contains("presolve"), "stage missing:\n{rendered}");
    assert!(rendered.contains("presolve(cols="), "counters missing:\n{rendered}");

    let stats = s.query("SELECT presolve_cols, presolve_bounds FROM sdb_solver_stats").unwrap();
    assert_eq!(stats.num_rows(), 1);
    assert!(stats.rows[0][0].as_i64().unwrap() >= 1, "{stats:?}");
}
