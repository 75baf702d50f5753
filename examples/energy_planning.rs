//! UC1 — the paper's running example (renewable energy planning),
//! end-to-end: forecast PV supply (P2), fit the building's thermal model
//! with a *shared optimization model* (P3), and schedule HVAC load to
//! minimize electricity cost (P4) — every step a SQL statement.
//!
//! Run with: `cargo run --release --example energy_planning`

use solvedbplus::{datagen, Session};

const HISTORY: usize = 168; // one week of hourly measurements
const HORIZON: usize = 24; // plan one day ahead

/// P3, first statement: the generic LTI thermal model, stored once.
/// (`pub` so the differential test in `tests/pa_workflows.rs` evaluates
/// exactly the statements this example runs.)
pub const MODEL_SQL: &str = "INSERT INTO model SELECT (SOLVEMODEL \
       pars AS (SELECT 0.0::float8 AS a1, 0.0::float8 AS b1, 0.0::float8 AS b2) \
       WITH data0 AS (SELECT 21.0::float8 AS intemp), \
            data AS (SELECT time, outtemp, intemp, hload FROM hist), \
            simul AS ( \
              WITH RECURSIVE sim(time, x) AS ( \
                SELECT (SELECT min(time) FROM data), (SELECT intemp FROM data0) \
                UNION ALL \
                SELECT sim.time + interval '1 hour', \
                       (SELECT a1 FROM pars) * sim.x \
                       + (SELECT b1 FROM pars) * n.outtemp \
                       + (SELECT b2 FROM pars) * n.hload \
                FROM sim JOIN data n ON n.time = sim.time) \
              SELECT time, x FROM sim))";

/// P3, second statement: fit the model's parameters to this building by
/// simulated annealing over the SQL-evaluated simulation error.
pub const FIT_SQL: &str = "SOLVESELECT t(a1, b1, b2) AS \
       (SELECT 0.5::float8 AS a1, 0.05::float8 AS b1, 0.0005::float8 AS b2) \
     INLINE m AS (SELECT m << (SOLVEMODEL \
         pars AS (SELECT a1, b1, b2 FROM t) \
         WITH data0 AS (SELECT intemp FROM hist ORDER BY time LIMIT 1)) \
       FROM model) \
     MINIMIZE (SELECT sum((m_simul.x - h.intemp)^2) FROM m_simul, hist h \
               WHERE m_simul.time = h.time) \
     SUBJECTTO (SELECT 0 <= a1 <= 1, 0 <= b1 <= 1, 0 <= b2 <= 0.001 FROM t) \
     USING swarmops.sa(iterations := 2500, seed := 11)";

/// P4: the cost-minimal HVAC schedule over `horizon`, under the fitted
/// dynamics in `hvac_pars` and the PV forecast in `pv_forecast`.
pub const PLAN_SQL: &str = "SOLVESELECT t(hload, intemp) AS \
       (SELECT h.time, h.outtemp, h.intemp, h.hload, f.pvsupply \
        FROM horizon h JOIN pv_forecast f ON f.time = h.time) \
     INLINE m AS (SELECT m << (SOLVEMODEL \
         pars AS (SELECT a1, b1, b2 FROM hvac_pars) \
         WITH data0 AS (SELECT intemp FROM hist ORDER BY time DESC LIMIT 1), \
              data AS (SELECT time, outtemp, 0.0 AS intemp, hload FROM t)) \
       FROM model) \
     MINIMIZE (SELECT sum((hload - pvsupply) * 0.12) FROM t) \
     SUBJECTTO \
       (SELECT t.intemp = m_simul.x FROM m_simul, t WHERE t.time = m_simul.time), \
       (SELECT 20 <= intemp <= 25, 0 <= hload <= 17000 FROM t) \
     USING solverlp.cbc()";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut s = Session::new();

    // P1: load the NIST-like dataset. The planning horizon's rows carry
    // forecasted outdoor temperature and NULL decision cells (Table 1).
    let table = datagen::energy_planning_table(HISTORY, HORIZON, 42);
    s.db_mut().put_table("input", table);
    s.execute("CREATE TABLE hist AS SELECT * FROM input WHERE pvsupply IS NOT NULL")?;
    s.execute("CREATE TABLE horizon AS SELECT * FROM input WHERE pvsupply IS NULL")?;
    println!("Loaded {HISTORY} history rows + {HORIZON} planning rows.");

    // P2: forecast PV supply over the horizon with the specialized LR
    // solver (outdoor temperature as the feature).
    s.execute(
        "CREATE TABLE predicted AS \
         SOLVESELECT t(pvsupply) AS (SELECT * FROM input) \
         USING lr_solver(features := outtemp)",
    )?;
    s.execute(
        "CREATE TABLE pv_forecast AS \
         SELECT time, greatest(0.0, pvsupply) AS pvsupply FROM predicted \
         WHERE time > (SELECT max(time) FROM hist)",
    )?;
    println!("P2: PV forecast ready ({HORIZON} hours).");

    // P3: store the generic LTI thermal model once, then fit its
    // parameters to this building by simulated annealing.
    s.execute("CREATE TABLE model (m model)")?;
    s.execute(MODEL_SQL)?;
    let fitted = s.query(FIT_SQL)?;
    let a1 = fitted.value_by_name(0, "a1")?.as_f64()?;
    let b1 = fitted.value_by_name(0, "b1")?.as_f64()?;
    let b2 = fitted.value_by_name(0, "b2")?.as_f64()?;
    println!(
        "P3: fitted thermal model a1={a1:.3} b1={b1:.3} b2={b2:.5} \
         (generator truth: {:.2} {:.2} {:.5})",
        datagen::TRUE_A1,
        datagen::TRUE_B1,
        datagen::TRUE_B2
    );
    s.execute(&format!("CREATE TABLE hvac_pars AS SELECT {a1} AS a1, {b1} AS b1, {b2} AS b2"))?;

    // P4: schedule HVAC loads — minimize electricity cost subject to the
    // thermal dynamics (the same shared model) and comfort limits.
    s.execute(&format!("CREATE TABLE plan AS {PLAN_SQL}"))?;

    // P5: analyze the result.
    let out = s.query(
        "SELECT time, round(hload) AS hload, round(intemp * 10) / 10 AS intemp, \
                round(pvsupply) AS pv FROM plan ORDER BY time",
    )?;
    println!("\nP4/P5: optimized HVAC schedule:");
    println!("{out}");
    let cost = s.query_scalar("SELECT sum((hload - pvsupply) * 0.12) FROM plan")?;
    println!("Net electricity cost over the horizon: {cost}");
    Ok(())
}
