//! Cross-crate integration tests: the complete PA workflows of the
//! paper's evaluation, run through the public facade.

use solvedbplus::{baselines, datagen, Session};

/// UC1 end-to-end through SQL, validated against the ground-truth
/// generator and the directly-constructed LP baseline.
#[test]
fn uc1_full_pipeline_agrees_with_direct_lp() {
    const HISTORY: usize = 120;
    const HORIZON: usize = 16;
    let mut s = Session::new();
    let rows = datagen::energy_series(HISTORY + HORIZON, 99);
    s.db_mut().put_table("input", datagen::energy_planning_table(HISTORY, HORIZON, 99));
    s.execute("CREATE TABLE hist AS SELECT * FROM input WHERE pvsupply IS NOT NULL").unwrap();
    s.execute("CREATE TABLE horizon AS SELECT * FROM input WHERE pvsupply IS NULL").unwrap();

    // P2 via the specialized solver; P4 via the symbolic LP with the
    // generator's true thermal parameters (so the LP is checkable).
    s.execute(
        "CREATE TABLE pred AS SOLVESELECT t(pvsupply) AS (SELECT * FROM input) \
         USING lr_solver(features := outtemp)",
    )
    .unwrap();
    s.execute(
        "CREATE TABLE pv_forecast AS SELECT time, greatest(0.0, pvsupply) AS pvsupply \
         FROM pred WHERE time > (SELECT max(time) FROM hist)",
    )
    .unwrap();
    s.execute(&format!(
        "CREATE TABLE hvac_pars AS SELECT {} AS a1, {} AS b1, {} AS b2",
        datagen::TRUE_A1,
        datagen::TRUE_B1,
        datagen::TRUE_B2
    ))
    .unwrap();
    s.execute(
        "CREATE TABLE plan AS \
         SOLVESELECT t(hload, intemp) AS \
           (SELECT h.time, h.outtemp, h.intemp, h.hload, f.pvsupply \
            FROM horizon h JOIN pv_forecast f ON f.time = h.time) \
         WITH sim AS ( \
           WITH RECURSIVE s(time, x) AS ( \
             SELECT (SELECT min(time) FROM t) AS time, \
                    (SELECT intemp FROM hist ORDER BY time DESC LIMIT 1) AS x \
             UNION ALL \
             SELECT s.time + interval '1 hour', \
                    (SELECT a1 FROM hvac_pars) * s.x \
                    + (SELECT b1 FROM hvac_pars) * n.outtemp \
                    + (SELECT b2 FROM hvac_pars) * n.hload \
             FROM s JOIN t n ON n.time = s.time \
             WHERE s.time <= (SELECT max(time) FROM t)) \
           SELECT time, x FROM s) \
         MINIMIZE (SELECT sum((hload - pvsupply) * 0.12) FROM t) \
         SUBJECTTO (SELECT t.intemp = sim.x FROM sim, t WHERE t.time = sim.time), \
                   (SELECT 20 <= intemp <= 25, 0 <= hload <= 17000 FROM t) \
         USING solverlp.cbc()",
    )
    .unwrap();

    let plan = s.query("SELECT hload, pvsupply, outtemp FROM plan ORDER BY time").unwrap();
    let sql_loads: Vec<f64> = plan.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
    let pv: Vec<f64> = plan.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();

    // The same LP built directly in Rust must agree.
    let mut task = baselines::uc1::Uc1Task::new(
        rows[..HISTORY].to_vec(),
        rows[HISTORY..].iter().map(|r| r.out_temp).collect(),
    );
    task.comfort = (20.0, 25.0);
    let x0 = rows[HISTORY - 1].in_temp;
    let (direct, _) = baselines::uc1::p4_direct(
        &task,
        (datagen::TRUE_A1, datagen::TRUE_B1, datagen::TRUE_B2),
        &pv,
        x0,
    );
    assert_eq!(sql_loads.len(), direct.len());
    let sql_cost: f64 = sql_loads.iter().zip(&pv).map(|(h, p)| (h - p) * 0.12).sum();
    let direct_cost: f64 = direct.iter().zip(&pv).map(|(h, p)| (h - p) * 0.12).sum();
    assert!((sql_cost - direct_cost).abs() < 1e-3, "SQL {sql_cost} vs direct {direct_cost}");
}

/// UC2 end-to-end: SolveDB+ picks a feasible, profitable production set
/// and the baselines agree on the problem's scale.
#[test]
fn uc2_full_pipeline() {
    let items = datagen::supply_chain(8, 36, 21);
    let mut s = Session::new();
    datagen::install_supply_chain(s.db_mut(), &items);

    s.execute("CREATE TABLE demand_forecast (item_id int, qty float8)").unwrap();
    for it in &items {
        let id = it.item_id;
        s.execute(&format!(
            "INSERT INTO demand_forecast \
             SELECT item_id, qty FROM ( \
               SOLVESELECT t(qty) AS ( \
                 SELECT item_id, month, quantity AS qty FROM orders WHERE item_id = {id} \
                 UNION ALL \
                 SELECT {id}, (SELECT max(month) FROM orders WHERE item_id = {id}) \
                              + interval '31 days', NULL::float8 \
                 ORDER BY month) \
               USING arima_solver(seed := 3) \
             ) f WHERE NOT EXISTS (SELECT 1 FROM orders o \
                                   WHERE o.item_id = f.item_id AND o.month = f.month)"
        ))
        .unwrap();
    }
    s.execute(
        "CREATE TABLE profit AS \
         SELECT i.item_id, (i.price - i.cost) * greatest(0.0, f.qty) AS v, \
                i.size * greatest(0.0, f.qty) AS volume \
         FROM items i JOIN demand_forecast f ON f.item_id = i.item_id",
    )
    .unwrap();
    s.execute(
        "CREATE TABLE production_plan AS \
         SOLVESELECT p(pick) AS (SELECT item_id, v, volume, NULL::int AS pick FROM profit) \
         MAXIMIZE (SELECT sum(v * pick) FROM p) \
         SUBJECTTO (SELECT sum(volume * pick) <= 0.4 * (SELECT sum(volume) FROM profit) FROM p), \
                   (SELECT 0 <= pick <= 1 FROM p) \
         USING solverlp.cbc()",
    )
    .unwrap();

    let picked = s
        .query_scalar("SELECT count(*) FROM production_plan WHERE pick = 1")
        .unwrap()
        .as_i64()
        .unwrap();
    assert!(picked >= 1, "nothing picked");
    let used =
        s.query_scalar("SELECT sum(volume * pick) FROM production_plan").unwrap().as_f64().unwrap();
    let cap = s.query_scalar("SELECT 0.4 * sum(volume) FROM profit").unwrap().as_f64().unwrap();
    assert!(used <= cap + 1e-6);

    // The R-style baseline solves the same shape of problem.
    let r = baselines::uc2::r_cplex(&items);
    assert_eq!(r.picks.len(), items.len());
    assert_eq!(lp::simplex::not_converged_total(), 0, "a pipeline LP did not converge");
}

/// The paper's headline claim: an entire PA workflow — prediction and
/// optimization — inside ONE extended SQL query, by composing
/// SOLVESELECTs as subqueries.
#[test]
fn single_query_pa_workflow() {
    let mut s = Session::new();
    datagen::install_table1(s.db_mut());
    // Predict pvSupply, then choose hload to track the forecasted supply
    // under a power cap — one statement, two nested solver invocations.
    let t = s
        .query(
            "SOLVESELECT sched(hload) AS ( \
               SELECT time, pvsupply, NULL::float8 AS hload \
               FROM (SOLVESELECT t(pvsupply) AS (SELECT * FROM input) \
                     USING predictive_solver()) predicted \
               WHERE intemp IS NULL) \
             MINIMIZE (SELECT sum(pvsupply - hload) FROM sched) \
             SUBJECTTO (SELECT 0 <= hload <= pvsupply FROM sched) \
             USING solverlp()",
        )
        .unwrap();
    assert_eq!(t.num_rows(), 5);
    // Optimal tracking uses all available PV.
    for row in &t.rows {
        let pv = row[1].as_f64().unwrap();
        let h = row[2].as_f64().unwrap();
        assert!((h - pv.max(0.0)).abs() < 1e-6, "h {h} pv {pv}");
    }
}

/// The explainability path: MODELEVAL inspects a stored model's data
/// and simulation without solving anything.
#[test]
fn modeleval_inspection() {
    let mut s = Session::new();
    s.execute("CREATE TABLE model (m model)").unwrap();
    s.execute(
        "INSERT INTO model SELECT (SOLVEMODEL pars AS (SELECT 0.5 AS k) \
         WITH curve AS (SELECT (SELECT k FROM pars) * 10.0 AS v))",
    )
    .unwrap();
    let v = s.query_scalar("MODELEVAL (SELECT v FROM curve) IN (SELECT m FROM model)").unwrap();
    assert_eq!(v.as_f64().unwrap(), 5.0);
    // Instantiated evaluation sees the new parameters.
    let v = s
        .query_scalar(
            "MODELEVAL (SELECT v FROM curve) IN \
             (SELECT m << (SOLVEMODEL pars AS (SELECT 2.0 AS k)) FROM model)",
        )
        .unwrap();
    assert_eq!(v.as_f64().unwrap(), 20.0);
}

/// `examples/energy_planning.rs`, included for the SQL it runs.
#[allow(dead_code)]
#[path = "../examples/energy_planning.rs"]
mod energy_planning;

/// A session holding `history` measured hours as `hist` and the example's
/// shared thermal model.
fn fitting_session(history: usize) -> Session {
    let mut s = Session::new();
    s.db_mut().put_table("hist", datagen::energy_planning_table(history, 0, 42));
    s.execute("CREATE TABLE model (m model)").unwrap();
    s.execute(energy_planning::MODEL_SQL).unwrap();
    s
}

/// The example's black-box fit evaluates to the same bits whether the
/// planner (recursive term planned once, build sides kept, plans cached)
/// or the row interpreter runs the simulation.
#[test]
fn example_fitness_is_bit_identical_to_the_row_interpreter() {
    use solvedbplus::core::problem::build_blackbox;
    use solvedbplus::sqlengine::{self, ast::Statement};

    let mut s = fitting_session(48);
    let Statement::Solve(stmt) =
        sqlengine::parser::parse_statement(energy_planning::FIT_SQL).unwrap()
    else {
        panic!("FIT_SQL is not a SOLVESELECT");
    };
    let ctes = solvedbplus::Ctes::new();
    let prob = solvedbplus::build_problem(s.db(), &ctes, &stmt).unwrap();
    let model = solvedbplus::core::compile_model(s.db(), &ctes, &prob);
    let bb = build_blackbox(s.db(), &ctes, &model).unwrap();
    // 24 candidates on a lattice through the box.
    let xs: Vec<Vec<f64>> = (0..24)
        .map(|k| {
            let at = |i: usize| ((k * (3 + 2 * i) + i) % 24) as f64 / 23.0;
            (0..3)
                .map(|i| bb.space.lower[i] + (bb.space.upper[i] - bb.space.lower[i]) * at(i))
                .collect()
        })
        .collect();
    let planned: Vec<u64> = xs.iter().map(|x| bb.fitness(s.db(), x).to_bits()).collect();
    s.db_mut().set_force_row_interpreter(true);
    let rows: Vec<u64> = xs.iter().map(|x| bb.fitness(s.db(), x).to_bits()).collect();
    assert_eq!(planned, rows);
    assert!(planned.iter().all(|b| f64::from_bits(*b).is_finite()));
}

/// Scaling of the SQL-evaluated fitness, by the executor's own counts
/// (no timing): per evaluation the simulation takes one recursive step
/// per history row on a kept join build, and builds no plan at all —
/// the statement as a whole builds the same number of plans at 100 and
/// at 400 history rows, and at 10 and at 40 iterations. The example's
/// model reads its parameters through scalar subqueries in the recursive
/// term, and a term that evaluates a subquery is stepped on batches; each
/// of those subqueries runs once per recursion, not once per step.
#[test]
fn fitness_plans_do_not_grow_with_history() {
    let counts_at = |history: usize, iterations: usize| {
        let mut s = fitting_session(history);
        let sql = energy_planning::FIT_SQL
            .replace("iterations := 2500", &format!("iterations := {iterations}"));
        let before = s.db().exec_counts();
        let result = s.execute(&sql).unwrap();
        let work = s.db().exec_counts().since(&before);
        // No row pipeline to hold the statement to (`analyze`'s gate).
        assert_eq!((work.spine_steps, work.row_steps), (0, 0));
        let statement_plans = work.plans_built;
        let trace = result.trace.expect("solve statements are traced");
        let search = find_stage(&trace.stages, "search").expect("search stage");
        let note = |key: &str| -> u64 {
            let (_, v) = search.meta.iter().find(|(k, _)| k == key).expect(key);
            v.parse().unwrap()
        };
        let evaluations = note("evaluations");
        assert_eq!(evaluations, trace.solvers[0].evaluations);
        assert_eq!(note("plans_built"), 0, "history {history}");
        assert_eq!(note("recursive_steps"), evaluations * (history as u64 + 1));
        assert_eq!(note("builds_reused"), evaluations * history as u64);
        assert_eq!(note("row_steps"), 0);
        // The term's three parameter subqueries read `pars`, which each
        // evaluation binds anew: they run in the first step that reaches
        // them and are kept for the other `history - 1`.
        assert_eq!(note("subqueries_reused"), evaluations * 3 * (history as u64 - 1));
        statement_plans
    };
    assert_eq!(counts_at(100, 10), counts_at(400, 10));
    assert_eq!(counts_at(100, 10), counts_at(100, 40));
}

/// The first stage of that name anywhere in a stage tree.
fn find_stage<'a>(
    stages: &'a [solvedbplus::obs::Stage],
    name: &str,
) -> Option<&'a solvedbplus::obs::Stage> {
    stages.iter().find_map(|s| if s.name == name { Some(s) } else { find_stage(&s.children, name) })
}

fn count_stages(stages: &[solvedbplus::obs::Stage], name: &str) -> usize {
    stages.iter().map(|s| (s.name == name) as usize + count_stages(&s.children, name)).sum()
}

/// The children of the `check` stage, every one of them a leaf named
/// `check.<pass>`.
fn check_passes(stages: &[solvedbplus::obs::Stage]) -> usize {
    let check = find_stage(stages, "check").expect("check stage");
    assert!(check.children.iter().all(|c| c.name.starts_with("check.") && c.children.is_empty()));
    check.children.len()
}

/// One `SOLVESELECT` runs the symbolic evaluation of its rules once, by
/// the executor's own counts (no timing). The example's P4 plan steps
/// its simulation CDTE once per horizon row, in the single symbolic pass
/// that the analyzer and `solverlp` both read: the simulation is
/// deferred, never run over the NULL cells. Its black-box fit, whose
/// simulation is not linear in the parameters, gives the symbolic pass
/// up before its first step. Either
/// way the trace has one `compile` stage, and `check` is pure analysis:
/// under it are its own seven passes and nothing that evaluates.
#[test]
fn a_solve_statement_compiles_its_rules_once() {
    use solvedbplus::core::{check, compile_model};
    use solvedbplus::sqlengine::{self, ast::Statement};
    const HISTORY: u64 = 48;
    const HORIZON: u64 = 12;

    let mut s = Session::new();
    let input = datagen::energy_planning_table(HISTORY as usize, HORIZON as usize, 42);
    s.db_mut().put_table("input", input);
    s.execute_script(&format!(
        "CREATE TABLE hist AS SELECT * FROM input WHERE pvsupply IS NOT NULL;
         CREATE TABLE horizon AS SELECT * FROM input WHERE pvsupply IS NULL;
         CREATE TABLE pv_forecast AS SELECT time, 500.0 AS pvsupply FROM horizon;
         CREATE TABLE hvac_pars AS SELECT {} AS a1, {} AS b1, {} AS b2;
         CREATE TABLE model (m model)",
        datagen::TRUE_A1,
        datagen::TRUE_B1,
        datagen::TRUE_B2
    ))
    .unwrap();
    s.execute(energy_planning::MODEL_SQL).unwrap();

    // P4 under solverlp: one symbolic pass. The simulation has no
    // decision column and nothing reads it as instantiated: deferred, it
    // never runs over the NULL cells.
    let before = s.db().exec_counts();
    let result = s.execute(energy_planning::PLAN_SQL).unwrap();
    let steps = s.db().exec_counts().since(&before).recursive_steps;
    assert_eq!(steps, HORIZON + 1);
    let trace = result.trace.expect("solve statements are traced");
    assert_eq!(count_stages(&trace.stages, "compile"), 1);
    assert_eq!(check_passes(&trace.stages), 7);

    // P3 under swarmops: the start point and every search evaluation run
    // the whole simulation; the symbolic pass stops at the first product
    // of two decision expressions, before a step.
    let sql = energy_planning::FIT_SQL.replace("iterations := 2500", "iterations := 10");
    let before = s.db().exec_counts();
    let result = s.execute(&sql).unwrap();
    let steps = s.db().exec_counts().since(&before).recursive_steps;
    let trace = result.trace.expect("solve statements are traced");
    let evaluations = trace.solvers[0].evaluations;
    assert_eq!(steps, (1 + evaluations) * (HISTORY + 1));
    assert_eq!(count_stages(&trace.stages, "compile"), 1);
    assert_eq!(check_passes(&trace.stages), 7);

    // The analyzer, the lowering and the propagation execute nothing.
    let Statement::Solve(stmt) =
        sqlengine::parser::parse_statement(energy_planning::PLAN_SQL).unwrap()
    else {
        panic!("PLAN_SQL is not a SOLVESELECT");
    };
    let ctes = solvedbplus::Ctes::new();
    let prob = solvedbplus::build_problem(s.db(), &ctes, &stmt).unwrap();
    let model = compile_model(s.db(), &ctes, &prob);
    let compiled = s.db().exec_counts();
    assert!(check::check_problem(&model, None).iter().all(|d| d.code == "SD019"));
    assert!(model.propagated().infeasible.is_none());
    assert_eq!(s.db().exec_counts(), compiled);
}
