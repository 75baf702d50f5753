//! End-to-end `SOLVESELECT` tests through a full [`Session`] — including
//! the paper's listings (§3.1, §3.2, §4.1, §4.4) adapted to this
//! engine's schema conventions.

use solvedbplus_core::Session;
use sqlengine::{Table, Value};

fn floats(t: &Table, col: &str) -> Vec<f64> {
    t.column_values(col).unwrap().iter().map(|v| v.as_f64().unwrap()).collect()
}

// ---------------------------------------------------------------------------
// LP / MIP through SQL
// ---------------------------------------------------------------------------

#[test]
fn lp_minimize_simple() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE vars (x float8, y float8); INSERT INTO vars VALUES (NULL, NULL)",
    )
    .unwrap();
    let t = s
        .query(
            "SOLVESELECT v(x, y) AS (SELECT * FROM vars) \
             MINIMIZE (SELECT 2*x + 3*y FROM v) \
             SUBJECTTO (SELECT x + y >= 10, x >= 0, y >= 0 FROM v) \
             USING solverlp()",
        )
        .unwrap();
    assert_eq!(t.value_by_name(0, "x").unwrap(), &Value::Float(10.0));
    assert_eq!(t.value_by_name(0, "y").unwrap(), &Value::Float(0.0));
}

#[test]
fn mip_knapsack_via_solveselect() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE items (id int, value float8, weight float8, pick int);
         INSERT INTO items VALUES
           (1, 60, 10, NULL), (2, 100, 20, NULL), (3, 120, 30, NULL)",
    )
    .unwrap();
    let t = s
        .query(
            "SOLVESELECT it(pick) AS (SELECT * FROM items) \
             MAXIMIZE (SELECT sum(value * pick) FROM it) \
             SUBJECTTO (SELECT sum(weight * pick) <= 50 FROM it), \
                       (SELECT 0 <= pick <= 1 FROM it) \
             USING solverlp.cbc()",
        )
        .unwrap();
    let picks: Vec<i64> =
        t.column_values("pick").unwrap().iter().map(|v| v.as_i64().unwrap()).collect();
    assert_eq!(picks, vec![0, 1, 1]);
}

#[test]
fn maximize_with_equality_binding() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (a float8, b float8); INSERT INTO v VALUES (NULL, NULL)")
        .unwrap();
    let t = s
        .query(
            "SOLVESELECT q(a, b) AS (SELECT * FROM v) \
             MAXIMIZE (SELECT a FROM q) \
             SUBJECTTO (SELECT a = 2 * b, 0 <= b <= 3 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    assert_eq!(t.value_by_name(0, "a").unwrap(), &Value::Float(6.0));
}

#[test]
fn infeasible_problem_reports_error() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    let err = s
        .query(
            "SOLVESELECT q(x) AS (SELECT * FROM v) \
             SUBJECTTO (SELECT x >= 5, x <= 3 FROM q) USING solverlp()",
        )
        .unwrap_err();
    assert!(err.to_string().contains("infeasible"));
}

/// An empty input relation leaves no decision variables: every solver
/// returns it, empty, as SD018 says ("the solve is a no-op").
#[test]
fn a_solve_over_an_empty_input_returns_no_rows() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE e (x float8)").unwrap();
    for (objective, using) in [
        ("MINIMIZE (SELECT sum(x) FROM s)", "solverlp()"),
        ("", "solverlp()"),
        ("MINIMIZE (SELECT sum(x) FROM s)", "swarmops.pso(particles := 4, iterations := 2)"),
    ] {
        let sql = format!(
            "SOLVESELECT s(x) AS (SELECT * FROM e) {objective} \
             SUBJECTTO (SELECT 0 <= x <= 1 FROM s) USING {using}"
        );
        let t = s.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!((t.num_rows(), t.schema.names()), (0, vec!["x"]), "{sql}");
    }
}

#[test]
fn unknown_solver_lists_available() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    let err = s.query("SOLVESELECT q(x) AS (SELECT * FROM v) USING made_up()").unwrap_err();
    assert!(err.to_string().contains("solverlp"));
}

// ---------------------------------------------------------------------------
// Paper §4.1: LR parameter estimation as an L1 regression (CDTE usage)
// ---------------------------------------------------------------------------

#[test]
fn paper_lr_fitting_with_cdte() {
    let mut s = Session::new();
    // pvsupply = 3*outtemp + 2*month + 5, exactly.
    s.execute_script(
        "CREATE TABLE input (time timestamp, outtemp float8, pvsupply float8);
         CREATE TABLE pars (potemp float8, pmonth float8, peps float8);
         INSERT INTO pars VALUES (NULL, NULL, NULL);",
    )
    .unwrap();
    for (i, (mo, da)) in
        [(1, 5), (2, 9), (3, 13), (5, 2), (7, 8), (9, 11), (11, 3), (12, 21)].iter().enumerate()
    {
        let out = 5.0 + 3.0 * i as f64;
        let pv = 3.0 * out + 2.0 * *mo as f64 + 5.0;
        s.execute(&format!("INSERT INTO input VALUES ('2017-{mo:02}-{da:02} 12:00', {out}, {pv})"))
            .unwrap();
    }
    let t = s
        .query(
            "SOLVESELECT p(potemp, pmonth, peps) AS (SELECT * FROM pars) \
             WITH e(error) AS (SELECT *, NULL::float8 AS error FROM input) \
             MINIMIZE (SELECT sum(error) FROM e) \
             SUBJECTTO (SELECT -1*error <= \
                 (potemp*outtemp + pmonth*month(time) + peps - pvsupply) <= error \
                 FROM e, p) \
             USING solverlp.cbc()",
        )
        .unwrap();
    // The output relation is `p` filled with fitted coefficients.
    assert!((t.value_by_name(0, "potemp").unwrap().as_f64().unwrap() - 3.0).abs() < 1e-5);
    assert!((t.value_by_name(0, "pmonth").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-5);
    assert!((t.value_by_name(0, "peps").unwrap().as_f64().unwrap() - 5.0).abs() < 1e-4);
}

#[test]
fn asterisk_notation_matches_explicit_list() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE pars (a float8, b float8); INSERT INTO pars VALUES (NULL, NULL)",
    )
    .unwrap();
    for sql in [
        "SOLVESELECT p(*) AS (SELECT * FROM pars) \
         MINIMIZE (SELECT a + b FROM p) SUBJECTTO (SELECT a >= 1, b >= 2 FROM p) \
         USING solverlp()",
        "SOLVESELECT p(a, b) AS (SELECT * FROM pars) \
         MINIMIZE (SELECT a + b FROM p) SUBJECTTO (SELECT a >= 1, b >= 2 FROM p) \
         USING solverlp()",
    ] {
        let t = s.query(sql).unwrap();
        assert_eq!(t.value_by_name(0, "a").unwrap(), &Value::Float(1.0));
        assert_eq!(t.value_by_name(0, "b").unwrap(), &Value::Float(2.0));
    }
}

// ---------------------------------------------------------------------------
// Black-box solving (swarmops) — §3.2 ARIMA order search
// ---------------------------------------------------------------------------

#[test]
fn swarmops_quadratic_bowl() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    let t = s
        .query(
            "SOLVESELECT q(x) AS (SELECT * FROM v) \
             MINIMIZE (SELECT (x - 4.0)^2 FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 10 FROM q) \
             USING swarmops.pso(particles := 20, iterations := 60)",
        )
        .unwrap();
    let x = t.value_by_name(0, "x").unwrap().as_f64().unwrap();
    assert!((x - 4.0).abs() < 0.05, "x = {x}");
}

#[test]
fn paper_arima_order_search_query() {
    // §3.2: the parameter-estimation SOLVESELECT generated by the
    // predictive framework, run verbatim through swarmops.pso.
    let mut s = Session::new();
    // AR(1)-ish series for the fitness UDF.
    let y: Vec<f64> = {
        let mut v = vec![10.0];
        for i in 1..200 {
            let prev = v[i - 1];
            v.push(2.0 + 0.8 * prev + ((i * 37 % 11) as f64 - 5.0) * 0.05);
        }
        v
    };
    s.set_arima_training(y);
    let t = s
        .query(
            "SOLVESELECT p(ar, i, ma) AS \
               (SELECT NULL::int AS ar, NULL::int AS i, NULL::int AS ma) \
             MINIMIZE (SELECT arima_rmse( \
                 ar := SELECT ar FROM p, \
                 i := SELECT i FROM p, \
                 ma := SELECT ma FROM p)) \
             SUBJECTTO (SELECT 0 <= ar <= 5, 0 <= i <= 5, 0 <= ma <= 5 FROM p) \
             USING swarmops.pso()",
        )
        .unwrap();
    let ar = t.value_by_name(0, "ar").unwrap().as_i64().unwrap();
    let i = t.value_by_name(0, "i").unwrap().as_i64().unwrap();
    let ma = t.value_by_name(0, "ma").unwrap().as_i64().unwrap();
    // Orders stay in the searched box and are integral.
    for v in [ar, i, ma] {
        assert!((0..=5).contains(&v));
    }
}

#[test]
fn swarmops_sa_and_de_methods() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (0.5)").unwrap();
    for method in ["sa", "de"] {
        let t = s
            .query(&format!(
                "SOLVESELECT q(x) AS (SELECT * FROM v) \
                 MINIMIZE (SELECT abs(x - 1.5) FROM q) \
                 SUBJECTTO (SELECT 0 <= x <= 3 FROM q) \
                 USING swarmops.{method}(iterations := 3000)"
            ))
            .unwrap();
        let x = t.value_by_name(0, "x").unwrap().as_f64().unwrap();
        assert!((x - 1.5).abs() < 0.1, "{method}: x = {x}");
    }
}

// ---------------------------------------------------------------------------
// Predictive framework — §3.1
// ---------------------------------------------------------------------------

fn install_table1(s: &mut Session) {
    s.execute_script(
        "CREATE TABLE input (time timestamp, outtemp float8, intemp float8, \
                             hload float8, pvsupply float8);
         INSERT INTO input VALUES
           ('2017-07-02 07:00', 5, 21, 100, 0),
           ('2017-07-02 08:00', 6, 20.5, 250, 0),
           ('2017-07-02 09:00', 6, 21, 150, 200),
           ('2017-07-02 10:00', 7, 23, 120, 254),
           ('2017-07-02 11:00', 8, 23, 80, 320),
           ('2017-07-02 12:00', 9, NULL, NULL, NULL),
           ('2017-07-02 13:00', 11, NULL, NULL, NULL),
           ('2017-07-02 14:00', 12, NULL, NULL, NULL),
           ('2017-07-02 15:00', 11, NULL, NULL, NULL),
           ('2017-07-02 16:00', 11, NULL, NULL, NULL);",
    )
    .unwrap();
}

#[test]
fn paper_table1_predictive_solver() {
    // §3.1: SOLVESELECT t(pvSupply) AS (SELECT * FROM input)
    //        USING predictive_solver()
    let mut s = Session::new();
    install_table1(&mut s);
    let t = s
        .query("SOLVESELECT t(pvsupply) AS (SELECT * FROM input) USING predictive_solver()")
        .unwrap();
    assert_eq!(t.num_rows(), 10);
    // All pvSupply cells are now filled (Table 4 shape)...
    assert!(t.column_values("pvsupply").unwrap().iter().all(|v| !v.is_null()));
    // ...while the other unknown columns stay unknown.
    assert!(t.value_by_name(5, "intemp").unwrap().is_null());
    assert!(t.value_by_name(5, "hload").unwrap().is_null());
    // Historical rows are untouched.
    assert_eq!(t.value_by_name(4, "pvsupply").unwrap(), &Value::Float(320.0));
    // The base table is NOT modified (SOLVESELECT is a view).
    let base = s.query("SELECT pvsupply FROM input ORDER BY time").unwrap();
    assert!(base.rows[9][0].is_null());
}

#[test]
fn arima_solver_with_params_from_paper() {
    let mut s = Session::new();
    install_table1(&mut s);
    let t = s
        .query(
            "SOLVESELECT t(pvsupply) AS (SELECT * FROM input) \
             USING arima_solver(predictions := 5, time_window := 5, features := outtemp)",
        )
        .unwrap();
    let pv = floats(&t, "pvsupply");
    assert_eq!(pv.len(), 10);
    assert!(pv.iter().all(|v| v.is_finite()));
}

#[test]
fn lr_solver_learns_feature_relation() {
    let mut s = Session::new();
    s.execute("CREATE TABLE series (time timestamp, feat float8, y float8)").unwrap();
    for i in 0..40 {
        let feat = (i % 9) as f64;
        let y: String = if i < 30 { format!("{}", 2.0 * feat + 1.0) } else { "NULL".into() };
        s.execute(&format!(
            "INSERT INTO series VALUES ('2020-01-01 00:00'::timestamp + interval '{i} hours', {feat}, {y})"
        ))
        .unwrap();
    }
    let t = s
        .query("SOLVESELECT t(y) AS (SELECT * FROM series) USING lr_solver(features := feat)")
        .unwrap();
    let feats = floats(&t, "feat");
    let ys = floats(&t, "y");
    for i in 30..40 {
        assert!((ys[i] - (2.0 * feats[i] + 1.0)).abs() < 1e-6, "row {i}");
    }
}

#[test]
fn predictive_advisor_caches_selection() {
    let mut s = Session::new();
    install_table1(&mut s);
    let q = "SOLVESELECT t(pvsupply) AS (SELECT * FROM input) USING predictive_solver()";
    s.query(q).unwrap();
    assert_eq!(s.advisor().cache_hits(), 0);
    s.query(q).unwrap();
    assert_eq!(s.advisor().cache_hits(), 1);
}

// ---------------------------------------------------------------------------
// Shared models: SOLVEMODEL, <<, MODELEVAL, INLINE — §4.4
// ---------------------------------------------------------------------------

const LTI_MODEL: &str = "SOLVEMODEL \
    pars AS (SELECT 0.0::float8 AS a1, 0.0::float8 AS b1, 0.0::float8 AS b2) \
    WITH data0 AS (SELECT 21.0::float8 AS intemp), \
         data AS (SELECT time, outtemp, intemp, hload FROM input), \
         simul AS ( \
           WITH RECURSIVE sim(time, x) AS ( \
             SELECT (SELECT min(time) FROM data), (SELECT intemp FROM data0) \
             UNION ALL \
             SELECT sim.time + interval '1 hour', \
                    (SELECT a1 FROM pars) * sim.x \
                    + (SELECT b1 FROM pars) * n.outtemp \
                    + (SELECT b2 FROM pars) * n.hload \
             FROM sim JOIN data n ON n.time = sim.time) \
           SELECT time, x FROM sim)";

#[test]
fn solvemodel_stored_and_evaluated() {
    let mut s = Session::new();
    install_table1(&mut s);
    s.execute("CREATE TABLE model (m model)").unwrap();
    s.execute(&format!("INSERT INTO model SELECT ({LTI_MODEL})")).unwrap();
    assert_eq!(s.query("SELECT count(*) FROM model").unwrap().scalar().unwrap(), Value::Int(1));

    // §4.4 model instantiation with <<.
    let t = s
        .query(
            "SELECT m << (SOLVEMODEL pars(b2) AS \
             (SELECT 0.995 AS a1, 0.001 AS b1, 0.2::float8 AS b2)) FROM model",
        )
        .unwrap();
    let text = t.value(0, 0).to_string();
    assert!(text.contains("0.995"));

    // §4.4 MODELEVAL: inspect model data.
    let t = s.query("MODELEVAL (SELECT a1, b1, b2 FROM pars) IN (SELECT m FROM model)").unwrap();
    assert_eq!(t.value(0, 0), &Value::Float(0.0));

    // MODELEVAL over the simulated relation (recursive CTE inside model).
    let t = s
        .query(
            "MODELEVAL (SELECT count(*) FROM simul) IN (SELECT m << (SOLVEMODEL \
               pars AS (SELECT 0.9::float8 AS a1, 0.08::float8 AS b1, 0.00045::float8 AS b2)) \
             FROM model)",
        )
        .unwrap();
    // 5 historical rows have hload: anchor + 5 steps... data covers rows
    // with NULL hload too; the join stops where hload is NULL because the
    // arithmetic yields NULL which still produces rows. Count is ≥ 6.
    assert!(t.value(0, 0).as_i64().unwrap() >= 6);
}

#[test]
fn paper_p3_model_fitting_with_inline() {
    // §4.4: least-squares fit of LTI parameters via INLINE + swarmops.sa.
    let mut s = Session::new();

    // Build training data from the ground-truth model so the fit target
    // is exact: x' = 0.9x + 0.08*out + 0.00045*h.
    s.execute("CREATE TABLE input (time timestamp, outtemp float8, intemp float8, hload float8)")
        .unwrap();
    let (mut x, a1, b1, b2) = (21.0, 0.9, 0.08, 0.00045);
    for i in 0..30 {
        let out = 8.0 + (i % 7) as f64;
        let h = 500.0 + 130.0 * (i % 5) as f64;
        s.execute(&format!(
            "INSERT INTO input VALUES ('2017-07-01 00:00'::timestamp + interval '{i} hours', \
             {out}, {x}, {h})"
        ))
        .unwrap();
        x = a1 * x + b1 * out + b2 * h;
    }
    s.execute("CREATE TABLE model (m model)").unwrap();
    s.execute(&format!("INSERT INTO model SELECT ({LTI_MODEL})")).unwrap();

    let t = s
        .query(
            "SOLVESELECT t(a1, b1, b2) AS \
               (SELECT 0.5::float8 AS a1, 0.05::float8 AS b1, 0.0005::float8 AS b2) \
             INLINE m AS (SELECT m << \
               (SOLVEMODEL pars AS (SELECT a1, b1, b2 FROM t) \
                WITH data0 AS (SELECT 21.0::float8 AS intemp)) FROM model) \
             MINIMIZE (SELECT sum((m_simul.x - i.intemp)^2) \
                       FROM m_simul, input i WHERE m_simul.time = i.time) \
             SUBJECTTO (SELECT 0 <= a1 <= 1, 0 <= b1 <= 1, 0 <= b2 <= 0.001 FROM t) \
             USING swarmops.sa(iterations := 8000, seed := 11)",
        )
        .unwrap();
    let got_a1 = t.value_by_name(0, "a1").unwrap().as_f64().unwrap();
    // Simulated annealing should land near the generating parameters.
    assert!((got_a1 - 0.9).abs() < 0.12, "a1 = {got_a1}");
}

#[test]
fn paper_p4_cost_optimization_with_inline() {
    // §4.4: HVAC cost minimization — LP over the inlined LTI model.
    let mut s = Session::new();
    s.execute(
        "CREATE TABLE input (time timestamp, outtemp float8, intemp float8, \
                             hload float8, pvsupply float8)",
    )
    .unwrap();
    // 5 future hours: outtemp known, pvsupply forecasted, hload/intemp free.
    for (i, (out, pv)) in
        [(9.0, 200.0), (11.0, 220.0), (12.0, 260.0), (11.0, 140.0), (11.0, 0.0)].iter().enumerate()
    {
        s.execute(&format!(
            "INSERT INTO input VALUES ('2017-07-02 12:00'::timestamp + interval '{i} hours', \
             {out}, NULL, NULL, {pv})"
        ))
        .unwrap();
    }
    s.execute("CREATE TABLE model (m model)").unwrap();
    s.execute(&format!("INSERT INTO model SELECT ({LTI_MODEL})")).unwrap();

    let t = s
        .query(
            "SOLVESELECT t(hload, intemp) AS \
               (SELECT time, outtemp, intemp, hload, pvsupply FROM input WHERE hload IS NULL) \
             INLINE m AS (SELECT m << (SOLVEMODEL \
                 pars AS (SELECT 0.9::float8 AS a1, 0.08::float8 AS b1, 0.00045::float8 AS b2) \
                 WITH data0(intemp) AS (SELECT NULL::float8 AS intemp), \
                      data AS (SELECT time, outtemp, 0.0 AS intemp, hload FROM t)) \
               FROM model) \
             MINIMIZE (SELECT sum((hload - pvsupply) * 0.12) FROM t) \
             SUBJECTTO \
               (SELECT t.intemp = m_simul.x FROM m_simul, t WHERE t.time = m_simul.time), \
               (SELECT intemp = 20 FROM m_data0), \
               (SELECT 20 <= intemp <= 25, 0 <= t.hload <= 17000 FROM t) \
             USING solverlp.cbc()",
        )
        .unwrap();

    let hloads = floats(&t, "hload");
    let intemps = floats(&t, "intemp");
    let outs = floats(&t, "outtemp");
    assert_eq!(hloads.len(), 5);
    // Comfort band respected.
    for &x in &intemps {
        assert!((20.0 - 1e-6..=25.0 + 1e-6).contains(&x), "intemp {x}");
    }
    for &h in &hloads {
        assert!((0.0 - 1e-6..=17000.0 + 1e-6).contains(&h), "hload {h}");
    }
    // Cost-minimal heating keeps the temperature pinned at the lower
    // comfort bound: h_t = (20 - 0.9*20 - 0.08*out_t) / 0.00045 for every
    // step whose *successor* state is still constrained. The final hour's
    // load only affects the state beyond the horizon, so the optimizer
    // sets it to zero (the classic MPC horizon-end effect).
    for (i, &h) in hloads.iter().enumerate() {
        if i + 1 < hloads.len() {
            let expect = ((20.0 - 0.9 * 20.0 - 0.08 * outs[i]) / 0.00045).max(0.0);
            assert!((h - expect).abs() < 1.0, "step {i}: {h} vs {expect}");
        } else {
            assert!(h.abs() < 1e-6, "final step should be unheated, got {h}");
        }
        assert!((intemps[i] - 20.0).abs() < 1e-5);
    }
}

// ---------------------------------------------------------------------------
// Custom solver installation (RC3 extensibility)
// ---------------------------------------------------------------------------

#[test]
fn user_installed_solver_is_callable() {
    use solvedbplus_core::{ProblemInstance, SolveContext, Solver};
    use sqlengine::error::Result as SqlResult;
    use std::sync::Arc;

    struct FillWithAnswer;
    impl Solver for FillWithAnswer {
        fn name(&self) -> &str {
            "answer42"
        }
        fn solve(&self, _ctx: &SolveContext<'_>, prob: &ProblemInstance) -> SqlResult<Table> {
            solvedbplus_core::problem::apply_solution(prob, &|_| Some(42.0))
        }
    }

    let mut s = Session::new();
    s.install_solver(Arc::new(FillWithAnswer));
    s.execute_script("CREATE TABLE t (x float8); INSERT INTO t VALUES (NULL), (NULL)").unwrap();
    let t = s.query("SOLVESELECT q(x) AS (SELECT * FROM t) USING answer42()").unwrap();
    assert_eq!(floats(&t, "x"), vec![42.0, 42.0]);
}

#[test]
fn solveselect_composes_with_outer_sql() {
    // The output relation is a relation: usable in FROM via a subquery.
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    // Note: SOLVESELECT as a derived table is exercised through
    // INSERT ... SELECT over its result via a temp table instead, since
    // the grammar nests SOLVESELECT only at statement level and in
    // expressions.
    let t = s
        .query(
            "SOLVESELECT q(x) AS (SELECT * FROM v) \
             MINIMIZE (SELECT x FROM q) SUBJECTTO (SELECT x >= 7 FROM q) \
             USING solverlp()",
        )
        .unwrap();
    s.execute("CREATE TABLE result (x float8)").unwrap();
    let x = t.value(0, 0).as_f64().unwrap();
    s.execute(&format!("INSERT INTO result VALUES ({x})")).unwrap();
    assert_eq!(s.query_scalar("SELECT x FROM result").unwrap(), Value::Float(7.0));
}

#[test]
fn solveselect_composes_as_query_body() {
    // CREATE TABLE AS SOLVESELECT, INSERT ... SOLVESELECT, and
    // SOLVESELECT in a FROM subquery.
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
    s.execute(
        "CREATE TABLE solved AS SOLVESELECT q(x) AS (SELECT * FROM v) \
         MINIMIZE (SELECT x FROM q) SUBJECTTO (SELECT x >= 3 FROM q) USING solverlp()",
    )
    .unwrap();
    assert_eq!(s.query_scalar("SELECT x FROM solved").unwrap(), Value::Float(3.0));

    s.execute(
        "INSERT INTO solved SOLVESELECT q(x) AS (SELECT * FROM v) \
         MAXIMIZE (SELECT x FROM q) SUBJECTTO (SELECT x <= 9 FROM q) USING solverlp()",
    )
    .unwrap();
    assert_eq!(s.query_scalar("SELECT sum(x) FROM solved").unwrap(), Value::Float(12.0));

    let t = s
        .query(
            "SELECT d.x * 10 AS big FROM (SOLVESELECT q(x) AS (SELECT * FROM v) \
             MINIMIZE (SELECT x FROM q) SUBJECTTO (SELECT x >= 1 FROM q) \
             USING solverlp()) AS d",
        )
        .unwrap();
    assert_eq!(t.value(0, 0), &Value::Float(10.0));
}

// ---------------------------------------------------------------------------
// Black-box solving: an objective that cannot be evaluated fails the solve
// ---------------------------------------------------------------------------

/// The start point is evaluated before the search. An objective that can
/// never evaluate used to score every candidate ∞ and "succeed" with the
/// start point; it must fail with a solver error naming the rule.
#[test]
fn swarmops_unevaluable_objective_is_a_typed_error() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (0.5)").unwrap();
    for (objective, reason) in [
        // Bind error.
        ("SELECT nosuch FROM q", "nosuch"),
        // Non-numeric scalar.
        ("SELECT 'high' FROM q", "high"),
        // Not a scalar at all.
        ("SELECT x, x FROM q", "single column"),
        // NULL at the start point (an aggregate over no rows).
        ("SELECT sum(x) FROM q WHERE x > 0.7", "NULL"),
    ] {
        let err = s
            .query(&format!(
                "SOLVESELECT q(x) AS (SELECT * FROM v) \
                 MINIMIZE ({objective}) \
                 SUBJECTTO (SELECT 0 <= x <= 1 FROM q) \
                 USING swarmops.sa(iterations := 20)"
            ))
            .unwrap_err();
        assert!(matches!(err, sqlengine::Error::Solver(_)), "{objective}: {err:?}");
        let msg = err.to_string();
        assert!(msg.contains("MINIMIZE rule"), "{objective}: {msg}");
        assert!(msg.contains(reason), "{objective}: {msg}");
    }
}

/// Candidates other than the start point may still fail to evaluate;
/// they score ∞ and the search moves on.
#[test]
fn swarmops_later_candidates_may_score_infinity() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (0.5)").unwrap();
    let t = s
        .query(
            "SOLVESELECT q(x) AS (SELECT * FROM v) \
             MINIMIZE (SELECT (x - 0.1)^2 + 1 / (CASE WHEN x < 0.3 THEN 0 ELSE 1 END) FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 1 FROM q) \
             USING swarmops.sa(iterations := 400, seed := 3)",
        )
        .unwrap();
    // Integer division by zero makes every x < 0.3 unevaluable, so the
    // search settles at the edge of the evaluable region.
    let x = t.value_by_name(0, "x").unwrap().as_f64().unwrap();
    assert!((0.3..0.4).contains(&x), "x = {x}");
}

// ---------------------------------------------------------------------------
// Solver parameters: a bad value is a typed error, never a panic
// ---------------------------------------------------------------------------

/// A node limit the search reaches before any incumbent, a negative or a
/// malformed one, and a misspelt switch each end the statement in a
/// solver error naming the parameter; the session answers the next
/// statement.
#[test]
fn bad_solver_parameters_are_typed_errors() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE items (id int, value float8, weight float8, pick int);
         INSERT INTO items VALUES (1, 60, 10, NULL), (2, 100, 20, NULL),
                                  (3, 120, 30, NULL), (4, 70, 15, NULL)",
    )
    .unwrap();
    let knapsack = |params: &str| {
        format!(
            "SOLVESELECT it(pick) AS (SELECT * FROM items) \
             MAXIMIZE (SELECT sum(value * pick) FROM it) \
             SUBJECTTO (SELECT sum(weight * pick) <= 50 FROM it), \
                       (SELECT 0 <= pick <= 1 FROM it) \
             USING solverlp({params})"
        )
    };
    for (params, says) in [
        ("node_limit := 0, presolve := off, matrixclass := off", "node limit of 0 reached"),
        ("node_limit := -3", "parameter 'node_limit' must be a non-negative integer, got -3"),
        ("node_limit := 'ten'", "parameter 'node_limit' must be a non-negative integer, got ten"),
        ("presolve := offf", "parameter 'presolve' must be on or off, got 'offf'"),
        ("matrixclass := maybe", "parameter 'matrixclass' must be on or off, got 'maybe'"),
    ] {
        let err = s.query(&knapsack(params)).unwrap_err();
        assert!(matches!(err, sqlengine::Error::Solver(_)), "{params}: {err:?}");
        assert!(err.to_string().contains(says), "{params}: {err}");
        assert_eq!(s.query_scalar("SELECT count(*) FROM items").unwrap(), Value::Int(4));
    }
    // The switches take on/off, true/false and 1/0 in any case.
    for params in ["presolve := OFF", "presolve := true", "matrixclass := 0", "presolve := 'On'"] {
        let t = s.query(&knapsack(params)).unwrap();
        assert_eq!(floats(&t, "pick"), [1.0, 1.0, 0.0, 1.0], "{params}");
    }
}

// ---------------------------------------------------------------------------
// One binding: how often each decision relation's query runs
// ---------------------------------------------------------------------------

/// A session with `one (k)` holding one row, `vars (x)` and `ivars (x, z)`
/// (integers) one NULL row each, and `probe(v)`, the identity, counting its
/// calls: over the one row of `one`, a call is a run of the query that
/// applies it.
fn probed() -> (Session, std::sync::Arc<std::sync::atomic::AtomicU64>) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE one (k float8); INSERT INTO one VALUES (2);
         CREATE TABLE vars (x float8); INSERT INTO vars VALUES (NULL);
         CREATE TABLE ivars (x int, z int); INSERT INTO ivars VALUES (NULL, NULL)",
    )
    .unwrap();
    let calls = Arc::new(AtomicU64::new(0));
    let counter = calls.clone();
    s.db_mut().register_udf(sqlengine::ScalarUdf {
        name: "probe".into(),
        param_names: vec!["v".into()],
        defaults: Default::default(),
        func: Arc::new(move |args| {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(args[0].clone())
        }),
    });
    (s, calls)
}

/// A note of the first stage named `name` in a statement's trace.
fn stage_note(stages: &[obs::Stage], name: &str, key: &str) -> Option<String> {
    stages.iter().find_map(|st| {
        let here = (st.name == name)
            .then(|| st.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()))
            .flatten();
        here.or_else(|| stage_note(&st.children, name, key))
    })
}

#[test]
fn a_relation_no_assignment_reaches_runs_once() {
    use std::sync::atomic::Ordering;
    let (mut s, calls) = probed();
    // `c` reads no decision relation: instantiated once, and the symbolic
    // pass takes its rows as they are.
    let t = s
        .query(
            "SOLVESELECT v(x) AS (SELECT * FROM vars) \
             WITH c AS (SELECT probe(k) AS k FROM one) \
             MINIMIZE (SELECT x FROM v) \
             SUBJECTTO (SELECT x >= k FROM v, c) USING solverlp()",
        )
        .unwrap();
    assert_eq!(floats(&t, "x"), [2.0]);
    assert_eq!(calls.swap(0, Ordering::Relaxed), 1);
    // A MODELEVAL binds nothing: every relation runs once.
    s.execute_script(
        "CREATE TABLE model (m model);
         INSERT INTO model SELECT (SOLVEMODEL v(x) AS (SELECT probe(k) AS x FROM one) \
           WITH d AS (SELECT probe(x) + 1.0 AS y FROM v))",
    )
    .unwrap();
    let y = s.query_scalar("MODELEVAL (SELECT y FROM d) IN (SELECT m FROM model)").unwrap();
    assert_eq!(y, Value::Float(3.0));
    assert_eq!(calls.load(Ordering::Relaxed), 2);
}

#[test]
fn a_relation_an_assignment_reaches_runs_once_per_binding() {
    use std::sync::atomic::Ordering;
    let (mut s, calls) = probed();
    let sql = |using: &str| {
        format!(
            "SOLVESELECT v(x) AS (SELECT * FROM vars) \
             WITH d AS (SELECT probe(x) AS y FROM v) \
             MINIMIZE (SELECT y FROM d) \
             SUBJECTTO (SELECT 1 <= x <= 3 FROM v) USING {using}"
        )
    };
    // `d` has no decision column and every binding re-runs it: it is
    // deferred, and nothing reads it as instantiated. The symbolic pass
    // is its one run.
    let t = s.query(&sql("solverlp()")).unwrap();
    assert_eq!(floats(&t, "x"), [1.0]);
    assert_eq!(calls.swap(0, Ordering::Relaxed), 1);
    // The symbolic pass, the start point the black-box formulation
    // checks, then every evaluation of the search.
    let r = s.execute(&sql("swarmops.sa(iterations := 25, seed := 7)")).unwrap();
    let trace = r.trace.expect("a solve is traced");
    let evaluations: u64 =
        stage_note(&trace.stages, "search", "evaluations").unwrap().parse().unwrap();
    assert!(evaluations >= 25, "{evaluations}");
    assert_eq!(calls.load(Ordering::Relaxed), 2 + evaluations);
}

/// The same over an integer decision column under PSO: the search asks
/// for the three points of the box over and over, but a fitness that
/// calls a registered UDF may answer differently each time, so every
/// evaluation runs it.
#[test]
fn a_search_that_reaches_a_udf_scores_every_request() {
    use std::sync::atomic::Ordering;
    let (mut s, calls) = probed();
    let mut r = s
        .execute(
            "SOLVESELECT v(x) AS (SELECT x FROM ivars) \
             WITH d AS (SELECT probe(x) AS y FROM v) \
             MINIMIZE (SELECT y FROM d) \
             SUBJECTTO (SELECT 1 <= x <= 3 FROM v) USING swarmops.pso(seed := 7)",
        )
        .unwrap();
    let trace = r.trace.take().expect("a solve is traced");
    let note = |key| -> u64 { stage_note(&trace.stages, "search", key).unwrap().parse().unwrap() };
    let evaluations = note("evaluations");
    assert_eq!(evaluations, 110);
    assert_eq!(note("distinct"), evaluations);
    assert_eq!(calls.load(Ordering::Relaxed), 2 + evaluations);
    assert_eq!(r.into_table().unwrap().rows[0][0], Value::Int(1));

    // The objective reaches the UDF through a view.
    s.execute_script("CREATE VIEW pk AS SELECT probe(k) AS k FROM one").unwrap();
    let r = s
        .execute(
            "SOLVESELECT v(x) AS (SELECT x FROM ivars) MINIMIZE (SELECT x * k FROM v, pk) \
             SUBJECTTO (SELECT 1 <= x <= 3 FROM v) USING swarmops.pso(seed := 7)",
        )
        .unwrap();
    let st = &r.trace.expect("a solve is traced").solvers[0];
    assert_eq!((st.evaluations, st.distinct_evaluations), (110, 110));
}

/// A pure fitness over integer decision columns is scored once per point:
/// fewer calls than requests, and the answer of the search that scores
/// every request (the same objective through the counting UDF).
#[test]
fn an_integer_search_scores_each_point_once() {
    let (mut s, _) = probed();
    let sql = |objective: &str| {
        format!(
            "SOLVESELECT v(x, z) AS (SELECT * FROM ivars) \
             MINIMIZE (SELECT {objective} FROM v) \
             SUBJECTTO (SELECT 0 <= x <= 5, 0 <= z <= 5 FROM v) USING swarmops.pso(seed := 7)"
        )
    };
    let run = |s: &mut Session, objective: &str| {
        let mut r = s.execute(&sql(objective)).unwrap();
        let st = r.trace.take().expect("a solve is traced").solvers[0].clone();
        let row = r.into_table().unwrap().rows[0].clone();
        (row, st.objective.map(f64::to_bits), st.evaluations, st.distinct_evaluations)
    };
    let objective = "(x - 2) * (x - 2) + abs(z - 4) * 1.5 + x * z * 0.01";
    let (row, value, evaluations, distinct) = run(&mut s, objective);
    let every = run(&mut s, &format!("probe({objective})"));
    assert_eq!(evaluations, 110);
    assert!(distinct < evaluations, "{distinct} of {evaluations}");
    assert_eq!(every.3, every.2);
    assert_eq!((row, value, evaluations), (every.0, every.1, every.2));
}

// ---------------------------------------------------------------------------
// Deferred relations: run as instantiated only when something reads them
// ---------------------------------------------------------------------------

/// A decision relation reads `d`, which is deferred: `d` runs as
/// instantiated for it, once, and once more in the symbolic pass.
#[test]
fn a_later_decision_relation_reads_a_deferred_one() {
    use std::sync::atomic::Ordering;
    let (mut s, calls) = probed();
    let t = s
        .query(
            "SOLVESELECT v(x) AS (SELECT * FROM vars) \
             WITH d AS (SELECT probe(x) AS y, k FROM v, one), \
                  w(z) AS (SELECT y, k, NULL::float8 AS z FROM d) \
             MINIMIZE (SELECT sum(z) FROM w) \
             SUBJECTTO (SELECT z >= k FROM w), (SELECT 1 <= x <= 3 FROM v) USING solverlp()",
        )
        .unwrap();
    assert_eq!(t.num_rows(), 1);
    assert_eq!(calls.load(Ordering::Relaxed), 2);
}

/// `MODELEVAL` reads every relation as instantiated, a deferred one (a
/// recursion over the decision relation, and an aggregate over that)
/// included: the values every relation run up front gave.
#[test]
fn modeleval_reads_a_deferred_relation_as_instantiated() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE one (k float8); INSERT INTO one VALUES (2);
         CREATE TABLE model (m model);
         INSERT INTO model SELECT (SOLVEMODEL v(x) AS (SELECT k AS x FROM one) \
           WITH s AS (WITH RECURSIVE r(i, acc) AS (SELECT 0, 0.5 UNION ALL \
             SELECT i + 1, acc * 1.5 + x FROM r, v WHERE i < 4) SELECT i, acc FROM r), \
           w AS (SELECT sum(acc) AS total, count(*) AS n FROM s))",
    )
    .unwrap();
    let t =
        s.query("MODELEVAL (SELECT i, acc FROM s ORDER BY i) IN (SELECT m FROM model)").unwrap();
    assert_eq!(floats(&t, "acc"), [0.5, 2.75, 6.125, 11.1875, 18.78125]);
    let t = s.query("MODELEVAL (SELECT total, n FROM w) IN (SELECT m FROM model)").unwrap();
    assert_eq!(t.rows, [[Value::Float(39.34375), Value::Int(5)]]);
}

/// A statement that fails runs its deferred relations as instantiated
/// before it reports, so a relation that cannot run fails it with the
/// text it failed with when every relation ran up front: read by a rule
/// or not, under `solverlp` and under a black-box solver, before a later
/// relation that fails too, in `EXPLAIN`, `EXPLAIN CHECK`, `EXPLAIN
/// PRESOLVE` and `MODELEVAL`.
#[test]
fn a_deferred_relation_that_cannot_run_fails_the_statement_as_before() {
    let (mut s, _) = probed();
    s.execute_script(
        "CREATE TABLE model (m model);
         INSERT INTO model SELECT (SOLVEMODEL v(x) AS (SELECT k AS x FROM one) \
           WITH d AS (SELECT nosuch AS y FROM v))",
    )
    .unwrap();
    let solve = |with: &str, objective: &str, using: &str| {
        format!(
            "SOLVESELECT v(x) AS (SELECT * FROM vars) WITH d AS (SELECT nosuch AS y FROM v){with} \
             MINIMIZE ({objective}) SUBJECTTO (SELECT 1 <= x <= 3 FROM v) USING {using}"
        )
    };
    let sa = "swarmops.sa(iterations := 25, seed := 7)";
    let read = "SELECT sum(y) FROM d";
    let unread = "SELECT x FROM v";
    for sql in [
        solve("", read, "solverlp()"),
        solve("", unread, "solverlp()"),
        solve("", read, sa),
        solve("", unread, sa),
        solve(", e(z) AS (SELECT nothere, NULL::float8 AS z FROM one)", unread, "solverlp()"),
        solve(", e AS (SELECT nothere FROM one)", unread, sa),
        solve(", e(z) AS (SELECT y, NULL::float8 AS z FROM d)", unread, "solverlp()"),
        format!("EXPLAIN {}", solve("", read, "solverlp()")),
        format!("EXPLAIN CHECK {}", solve("", unread, "solverlp()")),
        format!("EXPLAIN PRESOLVE {}", solve("", unread, "solverlp()")),
        "MODELEVAL (SELECT x FROM v) IN (SELECT m FROM model)".to_string(),
    ] {
        let err = s.query(&sql).unwrap_err();
        assert_eq!(err.to_string(), "binder error: column 'nosuch' does not exist", "{sql}");
    }
}

/// A deferred relation runs as instantiated only when something reads
/// it: one whose run over the NULL decision cells fails, but whose every
/// binding runs, no longer fails a solve that does not fail on its own.
/// `EXPLAIN` lists it, so it runs there and fails.
#[test]
fn a_deferred_relation_no_one_reads_is_not_run_as_instantiated() {
    let (mut s, _) = probed();
    let sql = "SOLVESELECT v(x) AS (SELECT * FROM vars) \
               WITH d AS (SELECT CASE WHEN x IS NULL THEN 1 / 0 ELSE x END AS y FROM v) \
               MINIMIZE (SELECT sum(y) FROM d) SUBJECTTO (SELECT 1 <= x <= 3 FROM v) \
               USING solverlp()";
    assert_eq!(floats(&s.query(sql).unwrap(), "x"), [1.0]);
    let err = s.query(&format!("EXPLAIN {sql}")).unwrap_err();
    assert_eq!(err.to_string(), "evaluation error: division by zero");
}

/// A deferred relation whose row count follows the candidate: its first
/// run fixes the count (here the start point's, the count it was
/// instantiated with), later candidates that change it score ∞, and the
/// search ends where it did when the relation ran up front.
#[test]
fn a_deferred_relation_keeps_the_row_count_of_its_first_run() {
    let mut s = Session::new();
    let t = s
        .query(
            "SOLVESELECT v(x) AS (SELECT 1.0::float8 AS x) \
             WITH d AS (SELECT x FROM v WHERE x > 0) \
             MINIMIZE (SELECT sum(x) FROM d) SUBJECTTO (SELECT -1 <= x <= 1 FROM v) \
             USING swarmops.sa(iterations := 25, seed := 7)",
        )
        .unwrap();
    assert_eq!(floats(&t, "x"), [0.5244605609467498]);
}

// ---------------------------------------------------------------------------
// Subqueries that read no outer row: re-run only when what they read changes
// ---------------------------------------------------------------------------

/// A solve's `search` note `key`, and its result.
fn searched(s: &mut Session, sql: &str, key: &str) -> (u64, Table) {
    let mut r = s.execute(sql).unwrap();
    let trace = r.trace.take().expect("a solve is traced");
    let note = stage_note(&trace.stages, "search", key).unwrap().parse().unwrap();
    (note, r.into_table().unwrap())
}

/// A closed subquery in a recursive term reads the decision relation,
/// which every evaluation rebinds: it runs in the first step of each
/// recursion and is kept for the other eight. The anchor's reads only the
/// catalog: it runs in the start-point evaluation, before the search, and
/// is kept from then on. The answer is the one the reference interpreter,
/// which keeps nothing, gives.
#[test]
fn a_closed_subquery_in_a_recursive_term_runs_once_per_recursion() {
    let (mut s, _) = probed();
    let sql = "SOLVESELECT v(x) AS (SELECT * FROM vars) \
         WITH sim AS (WITH RECURSIVE r(k, y) AS ( \
             SELECT 1, (SELECT k FROM one) \
             UNION ALL SELECT k + 1, y + (SELECT x FROM v) FROM r WHERE k < 10) \
           SELECT k, y FROM r) \
         MINIMIZE (SELECT sum((y - 11.0) * (y - 11.0)) FROM sim) \
         SUBJECTTO (SELECT 0 <= x <= 3 FROM v) \
         USING swarmops.sa(iterations := 30, seed := 7)";
    let (reused, planned) = searched(&mut s, sql, "subqueries_reused");
    let (evaluations, _) = searched(&mut s, sql, "evaluations");
    assert_eq!(reused, evaluations * (8 + 1));
    s.db_mut().set_force_row_interpreter(true);
    let (none, reference) = searched(&mut s, sql, "subqueries_reused");
    assert_eq!(none, 0);
    assert_eq!(floats(&planned, "x"), floats(&reference, "x"));
}

/// These re-run in every evaluation: a subquery that reads the outer row,
/// one over a relation the evaluation rebinds, one over a virtual `sdb_*`
/// table and one that calls a registered UDF — that one as often as the
/// reference interpreter, which keeps nothing, calls it. Each answer is
/// the reference interpreter's.
#[test]
fn subqueries_whose_answer_can_change_rerun_every_time() {
    use std::sync::atomic::Ordering;
    let (mut s, calls) = probed();
    let sql = |objective: &str| {
        format!(
            "SOLVESELECT v(x) AS (SELECT * FROM vars) \
             WITH d AS (SELECT x * 2 AS y FROM v) \
             MINIMIZE (SELECT {objective} FROM v) \
             SUBJECTTO (SELECT 1 <= x <= 3 FROM v) \
             USING swarmops.sa(iterations := 30, seed := 7)"
        )
    };
    for objective in [
        "x + (SELECT count(*) FROM one WHERE k <= v.x)",
        "x + (SELECT y FROM d)",
        "x + (SELECT count(*) * 0 FROM sdb_metrics)",
        "x + (SELECT probe(k) FROM one)",
    ] {
        calls.store(0, Ordering::Relaxed);
        let (reused, planned) = searched(&mut s, &sql(objective), "subqueries_reused");
        let planned_calls = calls.swap(0, Ordering::Relaxed);
        assert_eq!(reused, 0, "{objective}");
        s.db_mut().set_force_row_interpreter(true);
        let (_, reference) = searched(&mut s, &sql(objective), "subqueries_reused");
        s.db_mut().set_force_row_interpreter(false);
        assert_eq!(planned, reference, "{objective}");
        assert_eq!(planned_calls, calls.load(Ordering::Relaxed), "{objective}");
    }
}

/// A kept result belongs to its statement: an INSERT between two
/// statements is seen by the second, through the same text.
#[test]
fn a_write_between_two_statements_is_seen_by_the_second() {
    let (mut s, _) = probed();
    let sql = "SOLVESELECT v(x) AS (SELECT * FROM vars) \
         MINIMIZE (SELECT abs(x - (SELECT max(k) FROM one)) FROM v) \
         SUBJECTTO (SELECT 0 <= x <= 9 FROM v) \
         USING swarmops.sa(iterations := 400, seed := 7)";
    let (reused, before) = searched(&mut s, sql, "subqueries_reused");
    assert!(reused > 0);
    s.execute("INSERT INTO one VALUES (5)").unwrap();
    let (_, after) = searched(&mut s, sql, "subqueries_reused");
    let (before, after) = (floats(&before, "x")[0], floats(&after, "x")[0]);
    assert!((before - 2.0).abs() < 0.5 && (after - 5.0).abs() < 0.5, "{before} then {after}");
    let t = s.query("SELECT (SELECT max(k) FROM one) AS m FROM vars").unwrap();
    assert_eq!(floats(&t, "m"), [5.0]);
}

/// Nothing is kept under the symbolic pass's step hook: a closed subquery
/// that steps a recursion over decision cells gives each cell its steps
/// emit an auxiliary column of its own, once per rule row, as on the
/// reference interpreter (nine columns, not five).
#[test]
fn a_symbolic_pass_keeps_no_subquery_result() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE vars3 (x float8); INSERT INTO vars3 VALUES (NULL), (NULL), (NULL)",
    )
    .unwrap();
    let sql = "EXPLAIN PRESOLVE SOLVESELECT v(x) AS (SELECT * FROM vars3) \
         WITH w AS (SELECT x AS z FROM v) \
         MINIMIZE (SELECT sum(x) FROM v) \
         SUBJECTTO (SELECT x >= (WITH RECURSIVE r(k, y) AS (SELECT 1, 1.0 UNION ALL \
             SELECT k + 1, y + 0.01 * (SELECT sum(z) FROM w) FROM r WHERE k < 3) \
           SELECT y FROM r WHERE k = 3) FROM v), (SELECT 0 <= x <= 5 FROM v) \
         USING solverlp()";
    let planned = s.query(sql).unwrap();
    assert_eq!(planned.rows[0][0], Value::text("presolve: 9 vars, 9 rows -> 9 vars, 9 rows"));
    s.db_mut().set_force_row_interpreter(true);
    assert_eq!(planned, s.query(sql).unwrap());
}
