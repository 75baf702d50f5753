//! UC1 (energy planning) baseline pipelines — the competitor stacks of
//! paper §5.3, each solving the same task: forecast PV supply (P2), fit
//! the HVAC thermal model (P3), and schedule HVAC load to minimize
//! electricity cost (P4), with data living in a database (P1 = I/O).

use crate::csvio::{export_csv, import_csv_numeric, insert_rows_individually, TempDir};
use crate::modelgen::{SymExpr, SymbolicModel};
use crate::neldermead::{nelder_mead, NmOptions};
use crate::{OptBreakdown, PhaseTimes};
use datagen::EnergyRow;
use forecast::{Forecaster, LinearRegression};
use globalopt::{differential_evolution, DeOptions, SearchSpace};
use lp::Rel;
use sqlengine::types::timeval;
use sqlengine::{execute_script, execute_sql, Database, Value};
use ssmodel::fit_hvac;
use std::time::{Duration, Instant};

/// The UC1 task shared by all stacks.
#[derive(Debug, Clone)]
pub struct Uc1Task {
    /// Historical rows (complete measurements).
    pub history: Vec<EnergyRow>,
    /// Forecasted outdoor temperature over the planning horizon.
    pub horizon_outtemp: Vec<f64>,
    /// Electricity price per unit load.
    pub price: f64,
    /// Comfort band.
    pub comfort: (f64, f64),
    /// HVAC power limits.
    pub power: (f64, f64),
    /// P3 fitness-evaluation budget.
    pub p3_evaluations: usize,
}

impl Uc1Task {
    pub fn new(history: Vec<EnergyRow>, horizon_outtemp: Vec<f64>) -> Uc1Task {
        Uc1Task {
            history,
            horizon_outtemp,
            price: 0.12,
            comfort: (20.0, 25.0),
            power: (0.0, 17_000.0),
            p3_evaluations: 300,
        }
    }
}

/// Solution of a UC1 run, with per-phase timings.
#[derive(Debug, Clone)]
pub struct Uc1Result {
    pub pv_forecast: Vec<f64>,
    pub hvac: (f64, f64, f64),
    pub hload: Vec<f64>,
    pub times: PhaseTimes,
    pub p4: OptBreakdown,
}

/// Feature extraction shared by the P2 implementations: outdoor
/// temperature and hour-of-day.
fn p2_features(rows: &[EnergyRow]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let y: Vec<f64> = rows.iter().map(|r| r.pv_supply).collect();
    let out: Vec<f64> = rows.iter().map(|r| r.out_temp).collect();
    let hour: Vec<f64> = rows.iter().map(|r| timeval::decompose(r.time).hour as f64).collect();
    (y, vec![out, hour])
}

fn horizon_features(task: &Uc1Task) -> Vec<Vec<f64>> {
    let start_hour =
        task.history.last().map(|r| timeval::decompose(r.time).hour as f64 + 1.0).unwrap_or(0.0);
    let hours: Vec<f64> =
        (0..task.horizon_outtemp.len()).map(|k| (start_hour + k as f64) % 24.0).collect();
    vec![task.horizon_outtemp.clone(), hours]
}

/// Direct (efficient) P4 LP construction — what SolveDB+'s symbolic
/// layer compiles to. Returns (hloads, breakdown-without-io).
pub fn p4_direct(
    task: &Uc1Task,
    hvac: (f64, f64, f64),
    pv: &[f64],
    x0: f64,
) -> (Vec<f64>, OptBreakdown) {
    let t_gen = Instant::now();
    let h = task.horizon_outtemp.len();
    let (a1, b1, b2) = hvac;
    // Variables: h_0..h_{H-1}, x_1..x_H.
    let mut p = lp::Problem::minimize(2 * h);
    for t in 0..h {
        p.set_bounds(t, task.power.0, task.power.1);
        // The state after the final input is unconstrained (beyond horizon)
        // except the comfort band for in-horizon states.
        let (lo, hi) = if t + 1 < h { task.comfort } else { (f64::NEG_INFINITY, f64::INFINITY) };
        p.set_bounds(h + t, lo, hi);
    }
    p.set_objective((0..h).map(|t| (t, task.price)).collect());
    p.objective_constant = -task.price * pv.iter().sum::<f64>();
    for t in 0..h {
        // x_{t+1} - a1 x_t - b2 h_t = b1 out_t  (x_0 constant).
        let mut coeffs = vec![(h + t, 1.0), (t, -b2)];
        let mut rhs = b1 * task.horizon_outtemp[t];
        if t == 0 {
            rhs += a1 * x0;
        } else {
            coeffs.push((h + t - 1, -a1));
        }
        p.add_constraint(coeffs, Rel::Eq, rhs);
    }
    let model_generation = t_gen.elapsed();
    let t_solve = Instant::now();
    let sol = lp::solve(&p);
    let solving = t_solve.elapsed();
    let hload = if sol.is_optimal() { sol.x[..h].to_vec() } else { vec![0.0; h] };
    (hload, OptBreakdown { data_io: Duration::ZERO, model_generation, solving })
}

/// P4 through the toolbox-style symbolic builder (YALMIP analogue).
pub fn p4_symbolic(
    task: &Uc1Task,
    hvac: (f64, f64, f64),
    pv: &[f64],
    x0: f64,
) -> (Vec<f64>, OptBreakdown) {
    let t_gen = Instant::now();
    let h = task.horizon_outtemp.len();
    let (a1, b1, b2) = hvac;
    let mut m = SymbolicModel::new();
    let cost_terms: Vec<SymExpr> = (0..h)
        .map(|t| SymExpr::var(format!("h{t}")).sub(SymExpr::constant(pv[t])).scale(task.price))
        .collect();
    m.minimize(SymExpr::sum(cost_terms));
    for t in 0..h {
        let prev_x = if t == 0 { SymExpr::constant(x0) } else { SymExpr::var(format!("x{t}")) };
        m.constrain(
            SymExpr::var(format!("x{}", t + 1)),
            Rel::Eq,
            prev_x
                .scale(a1)
                .add(SymExpr::constant(b1 * task.horizon_outtemp[t]))
                .add(SymExpr::var(format!("h{t}")).scale(b2)),
        );
        m.bound(format!("h{t}"), task.power.0, task.power.1);
        if t + 1 < h {
            m.bound(format!("x{}", t + 1), task.comfort.0, task.comfort.1);
        }
    }
    let (p, order) = m.generate();
    let model_generation = t_gen.elapsed();
    let t_solve = Instant::now();
    let sol = lp::solve(&p);
    let solving = t_solve.elapsed();
    let mut hload = vec![0.0; h];
    if sol.is_optimal() {
        for (i, name) in order.iter().enumerate() {
            if let Some(t) = name.strip_prefix('h').and_then(|s| s.parse::<usize>().ok()) {
                if t < h {
                    hload[t] = sol.x[i];
                }
            }
        }
    }
    (hload, OptBreakdown { data_io: Duration::ZERO, model_generation, solving })
}

/// MPT analogue: the problem is first translated into a *second*
/// symbolic model (MPT → YALMIP), which is then generated — the paper's
/// Fig. 5 attributes MPT's cost to exactly this double translation.
pub fn p4_symbolic_mpt(
    task: &Uc1Task,
    hvac: (f64, f64, f64),
    pv: &[f64],
    x0: f64,
) -> (Vec<f64>, OptBreakdown) {
    let t_gen = Instant::now();
    let h = task.horizon_outtemp.len();
    let (a1, b1, b2) = hvac;
    // First-layer model built constraint-element-by-element, then walked
    // to build the second-layer model.
    let mut inner = SymbolicModel::new();
    for t in 0..h {
        let prev_x = if t == 0 { SymExpr::constant(x0) } else { SymExpr::var(format!("x{t}")) };
        // MPT builds A·x + B·u elementwise with one object per term.
        let rhs = SymExpr::sum(vec![
            prev_x.scale(a1),
            SymExpr::constant(b1 * task.horizon_outtemp[t]),
            SymExpr::var(format!("h{t}")).scale(b2),
        ]);
        inner.constrain(SymExpr::var(format!("x{}", t + 1)), Rel::Eq, rhs);
        inner.bound(format!("h{t}"), task.power.0, task.power.1);
        if t + 1 < h {
            inner.bound(format!("x{}", t + 1), task.comfort.0, task.comfort.1);
        }
    }
    let cost: Vec<SymExpr> = (0..h)
        .map(|t| SymExpr::var(format!("h{t}")).sub(SymExpr::constant(pv[t])).scale(task.price))
        .collect();
    inner.minimize(SymExpr::sum(cost));
    // Translate: generate the inner model, then *rebuild* it as a fresh
    // symbolic model from the generated matrix (the MPT→YALMIP handoff).
    let (p1, order1) = inner.generate();
    let mut outer = SymbolicModel::new();
    let obj: Vec<SymExpr> =
        p1.objective.iter().map(|&(j, c)| SymExpr::var(order1[j].clone()).scale(c)).collect();
    outer.minimize(SymExpr::sum(obj).add(SymExpr::constant(p1.objective_constant)));
    for c in &p1.constraints {
        let lhs = SymExpr::sum(
            c.coeffs().iter().map(|&(j, v)| SymExpr::var(order1[j].clone()).scale(v)).collect(),
        );
        outer.constrain(lhs, c.rel, SymExpr::constant(c.rhs));
    }
    for (j, name) in order1.iter().enumerate() {
        outer.bound(name.clone(), p1.lower[j], p1.upper[j]);
    }
    let (p2, order2) = outer.generate();
    let model_generation = t_gen.elapsed();
    let t_solve = Instant::now();
    let sol = lp::solve(&p2);
    let solving = t_solve.elapsed();
    let mut hload = vec![0.0; h];
    if sol.is_optimal() {
        for (i, name) in order2.iter().enumerate() {
            if let Some(t) = name.strip_prefix('h').and_then(|s| s.parse::<usize>().ok()) {
                if t < h {
                    hload[t] = sol.x[i];
                }
            }
        }
    }
    (hload, OptBreakdown { data_io: Duration::ZERO, model_generation, solving })
}

/// P2 as an L1-regression LP through the symbolic builder (the
/// Matlab/YALMIP configuration models LR fitting as an explicit LP,
/// §5.3).
pub fn p2_symbolic_lr(y: &[f64], features: &[Vec<f64>], fut: &[Vec<f64>]) -> Vec<f64> {
    let k = features.len();
    let mut m = SymbolicModel::new();
    let errs: Vec<SymExpr> = (0..y.len()).map(|i| SymExpr::var(format!("e{i}"))).collect();
    m.minimize(SymExpr::sum(errs));
    for (i, &yi) in y.iter().enumerate() {
        let mut pred = SymExpr::var("b0");
        for (j, col) in features.iter().enumerate() {
            pred = pred.add(SymExpr::var(format!("b{}", j + 1)).scale(col[i]));
        }
        // -e_i <= pred - y_i <= e_i
        m.constrain(pred.sub(SymExpr::constant(yi)), Rel::Le, SymExpr::var(format!("e{i}")));
        let mut pred2 = SymExpr::var("b0");
        for (j, col) in features.iter().enumerate() {
            pred2 = pred2.add(SymExpr::var(format!("b{}", j + 1)).scale(col[i]));
        }
        m.constrain(
            SymExpr::var(format!("e{i}")).scale(-1.0),
            Rel::Le,
            pred2.sub(SymExpr::constant(yi)),
        );
        m.bound(format!("e{i}"), 0.0, f64::INFINITY);
    }
    let (sol, order) = m.solve();
    let mut beta = vec![0.0; k + 1];
    if sol.is_optimal() {
        for (i, name) in order.iter().enumerate() {
            if let Some(j) = name.strip_prefix('b').and_then(|s| s.parse::<usize>().ok()) {
                if j <= k {
                    beta[j] = sol.x[i];
                }
            }
        }
    }
    (0..fut[0].len())
        .map(|r| beta[0] + (0..k).map(|j| beta[j + 1] * fut[j][r]).sum::<f64>())
        .collect()
}

/// "Matlab native" stack: specialized library calls, data shipped
/// through CSV files, results written back row by row.
pub fn matlab_native(task: &Uc1Task) -> Uc1Result {
    let dir = TempDir::new("matlab-native").expect("temp dir");

    // P1: export from the "database", parse in the "tool".
    let t1 = Instant::now();
    let table = datagen::energy_table(&task.history);
    let csv = dir.file("history.csv");
    export_csv(&table, &csv).expect("export");
    let (_, cols) = import_csv_numeric(&csv).expect("import");
    let p1_export = t1.elapsed();

    // P2: fitlm analogue — native least squares.
    let t2 = Instant::now();
    let (y, feats) = p2_features(&task.history);
    let _ = &cols;
    let mut lr = LinearRegression::new();
    lr.fit(&y, &feats).expect("lr fit");
    let pv_forecast = lr
        .forecast(task.horizon_outtemp.len(), &horizon_features(task))
        .expect("lr forecast")
        .into_iter()
        .map(|v| v.max(0.0))
        .collect::<Vec<f64>>();
    let p2 = t2.elapsed();

    // P3: ssest analogue — native simulated-annealing fit.
    let t3 = Instant::now();
    let u: Vec<Vec<f64>> = task.history.iter().map(|r| vec![r.out_temp, r.h_load]).collect();
    let measured: Vec<f64> = task.history.iter().map(|r| r.in_temp).collect();
    let fit =
        fit_hvac(&u, &measured, ((0.0, 1.0), (0.0, 1.0), (0.0, 0.01)), task.p3_evaluations, 7);
    let p3 = t3.elapsed();

    // P4: MPT analogue.
    let x0 = measured.last().copied().unwrap_or(21.0);
    let t4 = Instant::now();
    let (hload, mut p4b) = p4_symbolic_mpt(task, (fit.a1, fit.b1, fit.b2), &pv_forecast, x0);
    let p4 = t4.elapsed();

    // P1 (continued): write results back through per-row inserts.
    let t1b = Instant::now();
    let mut db = Database::new();
    execute_script(&mut db, "CREATE TABLE plan (h float8)").unwrap();
    insert_rows_individually(
        &mut db,
        "plan",
        &hload.iter().map(|&h| vec![Value::Float(h)]).collect::<Vec<_>>(),
    )
    .unwrap();
    let p1 = p1_export + t1b.elapsed();
    p4b.data_io = Duration::ZERO;

    Uc1Result {
        pv_forecast,
        hvac: (fit.a1, fit.b1, fit.b2),
        hload,
        times: PhaseTimes { p1, p2, p3, p4 },
        p4: p4b,
    }
}

/// "Matlab + YALMIP" stack: every sub-problem modelled explicitly
/// through the symbolic builder; P3 via Nelder–Mead (fminsearch).
pub fn matlab_yalmip(task: &Uc1Task) -> Uc1Result {
    let dir = TempDir::new("matlab-yalmip").expect("temp dir");

    let t1 = Instant::now();
    let table = datagen::energy_table(&task.history);
    let csv = dir.file("history.csv");
    export_csv(&table, &csv).expect("export");
    let (_, _cols) = import_csv_numeric(&csv).expect("import");
    let p1_export = t1.elapsed();

    // P2 as an explicit LP.
    let t2 = Instant::now();
    let (y, feats) = p2_features(&task.history);
    let pv_forecast: Vec<f64> = p2_symbolic_lr(&y, &feats, &horizon_features(task))
        .into_iter()
        .map(|v| v.max(0.0))
        .collect();
    let p2 = t2.elapsed();

    // P3 via fminsearch (Nelder–Mead) over the simulation SSE.
    let t3 = Instant::now();
    let u: Vec<Vec<f64>> = task.history.iter().map(|r| vec![r.out_temp, r.h_load]).collect();
    let measured: Vec<f64> = task.history.iter().map(|r| r.in_temp).collect();
    let evals_budget = task.p3_evaluations;
    // Matlab evaluates this fitness in its interpreter; so do we.
    let fit = nelder_mead(
        |p| {
            crate::interp::interpreted_hvac_sse(
                p[0].clamp(0.0, 1.0),
                p[1].clamp(0.0, 1.0),
                p[2].clamp(0.0, 0.01),
                &u,
                &measured,
            )
        },
        &[0.5, 0.05, 0.0005],
        NmOptions { max_iterations: evals_budget, ..Default::default() },
    );
    let hvac = (fit.x[0].clamp(0.0, 1.0), fit.x[1].clamp(0.0, 1.0), fit.x[2].clamp(0.0, 0.01));
    let p3 = t3.elapsed();

    // P4 through the symbolic builder.
    let x0 = measured.last().copied().unwrap_or(21.0);
    let t4 = Instant::now();
    let (hload, p4b) = p4_symbolic(task, hvac, &pv_forecast, x0);
    let p4 = t4.elapsed();

    let t1b = Instant::now();
    let mut db = Database::new();
    execute_script(&mut db, "CREATE TABLE plan (h float8)").unwrap();
    insert_rows_individually(
        &mut db,
        "plan",
        &hload.iter().map(|&h| vec![Value::Float(h)]).collect::<Vec<_>>(),
    )
    .unwrap();
    let p1 = p1_export + t1b.elapsed();

    Uc1Result { pv_forecast, hvac, hload, times: PhaseTimes { p1, p2, p3, p4 }, p4: p4b }
}

/// "MADlib + PL/Python" stack: everything in-DBMS, but every step
/// materializes intermediate tables, and the P3 fitness re-parses its
/// SQL from scratch each iteration (the interpreted-pipeline analogue).
pub fn madlib_python(task: &Uc1Task) -> Uc1Result {
    let mut db = Database::new();

    // P1: load data (in-DBMS stack: data is inserted once, in bulk).
    let t1 = Instant::now();
    db.put_table("input", datagen::energy_table(&task.history));
    let p1 = t1.elapsed();

    // P2: linregr_train analogue — X'X and X'y computed via SQL
    // aggregates, params materialized into a table, predictions
    // materialized into another table.
    let t2 = Instant::now();
    let sums = execute_sql(
        &mut db,
        "SELECT count(*), sum(outtemp), sum(hour(time)), \
                sum(outtemp*outtemp), sum(outtemp*hour(time)), sum(hour(time)*hour(time)), \
                sum(pvsupply), sum(outtemp*pvsupply), sum(hour(time)*pvsupply) \
         FROM input",
    )
    .unwrap()
    .into_table()
    .unwrap();
    let g = |i: usize| sums.value(0, i).as_f64().unwrap();
    let mut xtx = vec![g(0), g(1), g(2), g(1), g(3), g(4), g(2), g(4), g(5)];
    let mut xty = vec![g(6), g(7), g(8)];
    forecast::ols::solve_dense(&mut xtx, &mut xty, 3).expect("normal equations");
    let beta = xty;
    // Materialize the "model table" + prediction table (MADlib style).
    execute_script(
        &mut db,
        "DROP TABLE IF EXISTS lr_model; CREATE TABLE lr_model (b0 float8, b1 float8, b2 float8)",
    )
    .unwrap();
    execute_sql(
        &mut db,
        &format!("INSERT INTO lr_model VALUES ({}, {}, {})", beta[0], beta[1], beta[2]),
    )
    .unwrap();
    let fut = horizon_features(task);
    let pv_forecast: Vec<f64> = (0..task.horizon_outtemp.len())
        .map(|r| (beta[0] + beta[1] * fut[0][r] + beta[2] * fut[1][r]).max(0.0))
        .collect();
    execute_script(&mut db, "DROP TABLE IF EXISTS pv_pred; CREATE TABLE pv_pred (v float8)")
        .unwrap();
    insert_rows_individually(
        &mut db,
        "pv_pred",
        &pv_forecast.iter().map(|&v| vec![Value::Float(v)]).collect::<Vec<_>>(),
    )
    .unwrap();
    let p2 = t2.elapsed();

    // P3: differential evolution with a fitness that re-parses and
    // re-plans the simulation query every evaluation (one more
    // intermediate table for the numbered history, MADlib style).
    let t3 = Instant::now();
    let measured: Vec<f64> = task.history.iter().map(|r| r.in_temp).collect();
    let x0v = measured[0];
    let n_hist = task.history.len();
    execute_script(
        &mut db,
        "DROP TABLE IF EXISTS hist; CREATE TABLE hist (rn int, outtemp float8, hload float8, intemp float8)",
    )
    .unwrap();
    insert_rows_individually(
        &mut db,
        "hist",
        &task
            .history
            .iter()
            .enumerate()
            .map(|(i, r)| {
                vec![
                    Value::Int(i as i64),
                    Value::Float(r.out_temp),
                    Value::Float(r.h_load),
                    Value::Float(r.in_temp),
                ]
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let space = SearchSpace::continuous(vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 0.01]);
    let evals = task.p3_evaluations.max(20);
    let pop = 10.min(evals / 2).max(4);
    let iters = (evals / pop).max(1);
    execute_script(
        &mut db,
        "DROP TABLE IF EXISTS cand; CREATE TABLE cand (a1 float8, b1 float8, b2 float8)",
    )
    .unwrap();
    let fitness = |p: &[f64]| -> f64 {
        // The PL/Python pipeline materializes the candidate parameters
        // (MADlib-style intermediate tables), then builds the SQL string
        // and runs it from scratch — parse, bind, plan, execute.
        let _ = execute_sql(&mut db, "DELETE FROM cand");
        let _ = execute_sql(
            &mut db,
            &format!("INSERT INTO cand VALUES ({}, {}, {})", p[0], p[1], p[2]),
        );
        let sql = format!(
            "WITH RECURSIVE sim(step, x) AS ( \
               SELECT 0, {x0}::float8 \
               UNION ALL \
               SELECT s.step + 1, {a}*s.x + {b}*n.outtemp + {c}*n.hload \
               FROM sim s JOIN hist n ON n.rn = s.step \
               WHERE s.step < {n}) \
             SELECT sum((sim.x - h.intemp)^2) FROM sim JOIN hist h ON h.rn = sim.step",
            x0 = x0v,
            a = p[0],
            b = p[1],
            c = p[2],
            n = n_hist
        );
        match execute_sql(&mut db, &sql) {
            Ok(r) => r
                .into_table()
                .ok()
                .and_then(|t| t.scalar().ok())
                .and_then(|v| v.as_f64().ok())
                .unwrap_or(f64::INFINITY),
            Err(_) => f64::INFINITY,
        }
    };
    let fit = differential_evolution(
        fitness,
        &space,
        DeOptions { population: pop, iterations: iters, seed: 3, ..Default::default() },
    );
    let hvac = (fit.x[0], fit.x[1], fit.x[2]);
    let p3 = t3.elapsed();

    // P4: PyMathProg analogue — symbolic model builder + GLPK-class solver.
    let x0 = measured.last().copied().unwrap_or(21.0);
    let t4 = Instant::now();
    let (hload, p4b) = p4_symbolic(task, hvac, &pv_forecast, x0);
    // Results land in another intermediate table.
    execute_script(&mut db, "DROP TABLE IF EXISTS plan; CREATE TABLE plan (h float8)").unwrap();
    insert_rows_individually(
        &mut db,
        "plan",
        &hload.iter().map(|&h| vec![Value::Float(h)]).collect::<Vec<_>>(),
    )
    .unwrap();
    let p4 = t4.elapsed();

    Uc1Result { pv_forecast, hvac, hload, times: PhaseTimes { p1, p2, p3, p4 }, p4: p4b }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_task() -> Uc1Task {
        let rows = datagen::energy_series(24 * 6, 99);
        let horizon: Vec<f64> = (0..12).map(|i| 8.0 + (i % 5) as f64).collect();
        let mut t = Uc1Task::new(rows, horizon);
        t.p3_evaluations = 60;
        t
    }

    #[test]
    fn all_stacks_produce_feasible_plans() {
        let task = small_task();
        for (name, result) in [
            ("native", matlab_native(&task)),
            ("yalmip", matlab_yalmip(&task)),
            ("madlib", madlib_python(&task)),
        ] {
            assert_eq!(result.hload.len(), 12, "{name}");
            for &h in &result.hload {
                assert!(
                    (task.power.0 - 1e-6..=task.power.1 + 1e-6).contains(&h),
                    "{name}: load {h} out of bounds"
                );
            }
            assert_eq!(result.pv_forecast.len(), 12, "{name}");
            assert!(result.pv_forecast.iter().all(|v| v.is_finite() && *v >= 0.0));
            let (a1, ..) = result.hvac;
            assert!((0.0..=1.0).contains(&a1), "{name}: a1 {a1}");
            assert!(result.times.total() > Duration::ZERO);
        }
    }

    #[test]
    fn direct_and_symbolic_p4_agree() {
        let task = small_task();
        let pv: Vec<f64> = vec![100.0; 12];
        let hvac = (datagen::TRUE_A1, datagen::TRUE_B1, datagen::TRUE_B2);
        let (direct, bd) = p4_direct(&task, hvac, &pv, 21.0);
        let (symbolic, bs) = p4_symbolic(&task, hvac, &pv, 21.0);
        let (mpt, _) = p4_symbolic_mpt(&task, hvac, &pv, 21.0);
        for i in 0..12 {
            assert!((direct[i] - symbolic[i]).abs() < 1e-4, "step {i}");
            assert!((direct[i] - mpt[i]).abs() < 1e-4, "step {i} (mpt)");
        }
        // The symbolic path spends more time generating the model.
        assert!(bs.model_generation >= bd.model_generation);
    }

    #[test]
    fn symbolic_lr_matches_ols_on_exact_data() {
        // y = 1 + 2*f.
        let f: Vec<f64> = (0..30).map(|i| (i % 7) as f64).collect();
        let y: Vec<f64> = f.iter().map(|v| 1.0 + 2.0 * v).collect();
        let fut = vec![vec![3.0, 5.0]];
        let pred = p2_symbolic_lr(&y, &[f], &fut);
        assert!((pred[0] - 7.0).abs() < 1e-5);
        assert!((pred[1] - 11.0).abs() < 1e-5);
    }
}
