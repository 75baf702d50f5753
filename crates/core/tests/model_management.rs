//! Model management and failure-path tests: storage round-trips,
//! instantiation chains, MODELEVAL edge cases, and solver errors.

use solvedbplus_core::Session;
use sqlengine::Value;

#[test]
fn models_survive_text_storage_roundtrip() {
    let mut s = Session::new();
    s.execute("CREATE TABLE m1 (m model)").unwrap();
    s.execute(
        "INSERT INTO m1 SELECT (SOLVEMODEL pars AS (SELECT 1.5 AS k) \
         WITH out AS (SELECT (SELECT k FROM pars) * 2.0 AS v))",
    )
    .unwrap();
    // Cast to text and back into a text-typed table.
    s.execute("CREATE TABLE m2 AS SELECT m::text AS mt FROM m1").unwrap();
    let text = s.query_scalar("SELECT mt FROM m2").unwrap();
    assert!(text.as_str().unwrap().starts_with("SOLVEMODEL"));
    // A text-stored model still works in MODELEVAL (expect_model reparses).
    let v = s.query_scalar("MODELEVAL (SELECT v FROM out) IN (SELECT mt FROM m2)").unwrap();
    assert_eq!(v.as_f64().unwrap(), 3.0);
}

#[test]
fn chained_instantiation_applies_left_to_right() {
    let mut s = Session::new();
    s.execute("CREATE TABLE model (m model)").unwrap();
    s.execute("INSERT INTO model SELECT (SOLVEMODEL pars AS (SELECT 1.0 AS k))").unwrap();
    // ((m << Δ1) << Δ2): the last instantiation wins.
    let v = s
        .query_scalar(
            "MODELEVAL (SELECT k FROM pars) IN \
             (SELECT m << (SOLVEMODEL pars AS (SELECT 2.0 AS k)) \
                     << (SOLVEMODEL pars AS (SELECT 3.0 AS k)) FROM model)",
        )
        .unwrap();
    assert_eq!(v.as_f64().unwrap(), 3.0);
}

#[test]
fn modeleval_sees_relations_in_scope_order() {
    let mut s = Session::new();
    s.execute("CREATE TABLE model (m model)").unwrap();
    s.execute(
        "INSERT INTO model SELECT (SOLVEMODEL a AS (SELECT 10.0 AS x) \
         WITH b AS (SELECT x + 1.0 AS y FROM a), \
              c AS (SELECT y * 2.0 AS z FROM b))",
    )
    .unwrap();
    let v = s.query_scalar("MODELEVAL (SELECT z FROM c) IN (SELECT m FROM model)").unwrap();
    assert_eq!(v.as_f64().unwrap(), 22.0);
}

#[test]
fn modeleval_rejects_non_models() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE t (x int); INSERT INTO t VALUES (1)").unwrap();
    let err = s.query("MODELEVAL (SELECT 1) IN (SELECT x FROM t)").unwrap_err();
    assert!(err.to_string().contains("model"));
}

#[test]
fn instantiate_requires_model_operands() {
    let mut s = Session::new();
    s.execute("CREATE TABLE model (m model)").unwrap();
    s.execute("INSERT INTO model SELECT (SOLVEMODEL p AS (SELECT 1 AS x))").unwrap();
    let err = s.query("SELECT m << 5 FROM model").unwrap_err();
    assert!(err.to_string().contains("model"));
}

#[test]
fn method_validation_through_sql() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    let err =
        s.query("SOLVESELECT q(x) AS (SELECT * FROM v) USING solverlp.warp_drive()").unwrap_err();
    assert!(err.to_string().contains("warp_drive"));
    assert!(err.to_string().contains("cbc"));
}

#[test]
fn missing_using_clause_is_reported() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    let err = s.query("SOLVESELECT q(x) AS (SELECT * FROM v)").unwrap_err();
    assert!(err.to_string().contains("USING"));
}

#[test]
fn unbounded_problem_is_reported() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    let err = s
        .query(
            "SOLVESELECT q(x) AS (SELECT * FROM v) \
             MINIMIZE (SELECT x FROM q) USING solverlp()",
        )
        .unwrap_err();
    assert!(err.to_string().contains("unbounded"));
}

#[test]
fn nonlinear_rules_reject_lp_but_accept_blackbox() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    let err = s
        .query(
            "SOLVESELECT q(x) AS (SELECT * FROM v) \
             MINIMIZE (SELECT x * x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 4 FROM q) USING solverlp()",
        )
        .unwrap_err();
    assert!(err.to_string().contains("linear"), "{err}");
    let t = s
        .query(
            "SOLVESELECT q(x) AS (SELECT * FROM v) \
             MINIMIZE (SELECT x * x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 4 FROM q) \
             USING swarmops.pso(particles := 15, iterations := 40)",
        )
        .unwrap();
    assert!(t.value(0, 0).as_f64().unwrap().abs() < 0.05);
}

#[test]
fn explain_through_public_api() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8, y float8); INSERT INTO v VALUES (NULL, NULL)")
        .unwrap();
    let sqlengine::ast::Statement::Solve(stmt) = sqlengine::parser::parse_statement(
        "SOLVESELECT q(x, y) AS (SELECT * FROM v) \
         MINIMIZE (SELECT x + 2*y FROM q) \
         SUBJECTTO (SELECT x + y = 10, x >= 0, y >= 0 FROM q) \
         USING solverlp()",
    )
    .unwrap() else {
        panic!("not a solve statement");
    };
    let ctes = sqlengine::Ctes::new();
    let model = solvedbplus_core::prepare(s.db(), &ctes, &stmt, None).unwrap();
    let text = solvedbplus_core::explain::explain(s.db(), &ctes, &model).unwrap();
    assert!(text.contains("variables: 2 (2 referenced by rules)\n"), "{text}");
    assert!(text.contains("constraints: 3 (linear)\n"), "{text}");
}

#[test]
fn decision_columns_of_int_type_produce_int_output() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (n int); INSERT INTO v VALUES (NULL)").unwrap();
    let t = s
        .query(
            "SOLVESELECT q(n) AS (SELECT * FROM v) \
             MAXIMIZE (SELECT n FROM q) SUBJECTTO (SELECT 0 <= n <= 7.5 FROM q) \
             USING solverlp.cbc()",
        )
        .unwrap();
    assert_eq!(t.value(0, 0), &Value::Int(7));
}

#[test]
fn output_is_a_view_over_the_input() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    s.query(
        "SOLVESELECT q(x) AS (SELECT * FROM v) \
         MINIMIZE (SELECT x FROM q) SUBJECTTO (SELECT x >= 1 FROM q) USING solverlp()",
    )
    .unwrap();
    // The base table keeps its NULL.
    assert!(s.query_scalar("SELECT x FROM v").unwrap().is_null());
}
