//! Experiment setup: sessions with the datasets installed and the
//! composite solvers of the "S-solvers" configuration (paper §5.3).

use crate::OrDie;
use baselines::uc1::{p4_direct, Uc1Task};
use datagen::EnergyRow;
use forecast::{Forecaster, LinearRegression};
use solvedbplus_core::{Session, SolveContext, Solver};
use sqlengine::error::{Error, Result};
use sqlengine::types::timeval;
use sqlengine::{Table, Value};
use ssmodel::fit_hvac;
use std::sync::Arc;

/// Build a session with the UC1 planning table `input` installed
/// (history rows complete, horizon rows with forecast `outtemp` and NULL
/// decision cells) and the composite scheduler solver registered.
pub fn uc1_session(history: usize, horizon: usize, seed: u64) -> (Session, Vec<EnergyRow>) {
    let rows = datagen::energy_series(history + horizon, seed);
    let mut s = Session::new();
    s.db_mut().put_table("input", planning_table(&rows, history));
    s.install_solver(Arc::new(HvacScheduler::default()));
    // The hvac_sse UDF mirrors the P3 fitness for UDF-based variants.
    let u: Vec<Vec<f64>> = rows[..history].iter().map(|r| vec![r.out_temp, r.h_load]).collect();
    let measured: Vec<f64> = rows[..history].iter().map(|r| r.in_temp).collect();
    s.set_hvac_training(u, measured);
    (s, rows)
}

/// The UC1 planning table: first `history` rows complete, the rest with
/// NULL `intemp`/`hload`/`pvsupply` (Table 1's shape).
pub fn planning_table(rows: &[EnergyRow], history: usize) -> Table {
    let data: Vec<Vec<Value>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i < history {
                vec![
                    Value::Timestamp(r.time),
                    Value::Float(r.out_temp),
                    Value::Float(r.in_temp),
                    Value::Float(r.h_load),
                    Value::Float(r.pv_supply),
                ]
            } else {
                vec![
                    Value::Timestamp(r.time),
                    Value::Float(r.out_temp),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ]
            }
        })
        .collect();
    let mut t = Table::from_rows(&["time", "outtemp", "intemp", "hload", "pvsupply"], data);
    for c in t.schema.columns.iter_mut() {
        c.ty = if c.name == "time" {
            sqlengine::DataType::Timestamp
        } else {
            sqlengine::DataType::Float
        };
    }
    t
}

/// The composite solver behind the `S-solvers` configuration: a single
/// `SOLVESELECT ... USING hvac_scheduler(...)` runs P2 (LR forecast),
/// P3 (LTI fit) and P4 (cost LP) internally and fills all decision
/// columns of the planning table.
#[derive(Debug, Default)]
pub struct HvacScheduler;

impl Solver for HvacScheduler {
    fn name(&self) -> &str {
        "hvac_scheduler"
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<Table> {
        let prob = &ctx.model.prob;
        let rel = &prob.relations[0];
        let t = rel.table()?;
        let col = |n: &str| -> Result<usize> {
            t.schema
                .index_of(n)
                .ok_or_else(|| Error::solver(format!("hvac_scheduler: missing column '{n}'")))
        };
        let (c_time, c_out, c_in, c_load, c_pv) =
            (col("time")?, col("outtemp")?, col("intemp")?, col("hload")?, col("pvsupply")?);
        let comfort = (
            prob.param_f64("comfort_low").transpose()?.unwrap_or(20.0),
            prob.param_f64("comfort_high").transpose()?.unwrap_or(25.0),
        );
        let power_max = prob.param_f64("power_max").transpose()?.unwrap_or(17_000.0);
        let price = prob.param_f64("price").transpose()?.unwrap_or(0.12);

        // Time-ordered split into history (pvsupply known) and horizon.
        let mut order: Vec<usize> = (0..t.num_rows()).collect();
        order.sort_by(|&a, &b| t.rows[a][c_time].cmp_total(&t.rows[b][c_time]));
        let (mut hist, mut plan) = (Vec::new(), Vec::new());
        for &r in &order {
            if t.rows[r][c_pv].is_null() {
                plan.push(r);
            } else {
                hist.push(r);
            }
        }
        if hist.is_empty() || plan.is_empty() {
            return Err(Error::solver(
                "hvac_scheduler: need both history rows and NULL planning rows",
            ));
        }
        let f = |r: usize, c: usize| t.rows[r][c].as_f64();

        // P2: LR forecast of PV supply from outtemp + hour-of-day.
        let y: Vec<f64> = hist.iter().map(|&r| f(r, c_pv)).collect::<Result<_>>()?;
        let hour_of = |r: usize| -> Result<f64> {
            match &t.rows[r][c_time] {
                Value::Timestamp(ts) => Ok(timeval::decompose(*ts).hour as f64),
                _ => Err(Error::solver("hvac_scheduler: time column must be timestamp")),
            }
        };
        let feats = vec![
            hist.iter().map(|&r| f(r, c_out)).collect::<Result<Vec<_>>>()?,
            hist.iter().map(|&r| hour_of(r)).collect::<Result<Vec<_>>>()?,
        ];
        let fut = vec![
            plan.iter().map(|&r| f(r, c_out)).collect::<Result<Vec<_>>>()?,
            plan.iter().map(|&r| hour_of(r)).collect::<Result<Vec<_>>>()?,
        ];
        let mut lr = LinearRegression::new();
        lr.fit(&y, &feats).map_err(Error::solver)?;
        let pv: Vec<f64> = lr
            .forecast(plan.len(), &fut)
            .map_err(Error::solver)?
            .into_iter()
            .map(|v| v.max(0.0))
            .collect();

        // P3: LTI fit on the history.
        let u: Vec<Vec<f64>> =
            hist.iter().map(|&r| Ok(vec![f(r, c_out)?, f(r, c_load)?])).collect::<Result<_>>()?;
        let measured: Vec<f64> = hist.iter().map(|&r| f(r, c_in)).collect::<Result<_>>()?;
        let iterations = prob.param_usize("fit_iterations").transpose()?.unwrap_or(400);
        let fit = fit_hvac(&u, &measured, ((0.0, 1.0), (0.0, 1.0), (0.0, 0.01)), iterations, 5);

        // P4: cost LP.
        let mut task = Uc1Task::new(vec![], fut[0].clone());
        task.comfort = comfort;
        task.power = (0.0, power_max);
        task.price = price;
        let x0 = *measured.last().or_die("non-empty history");
        let (hload, _) = p4_direct(&task, (fit.a1, fit.b1, fit.b2), &pv, x0);

        // Output: fill the horizon cells; simulate intemp for reporting.
        let mut out = Table::clone(t);
        let model = ssmodel::Lti::hvac(fit.a1, fit.b1, fit.b2);
        let mut x = x0;
        for (k, &r) in plan.iter().enumerate() {
            out.rows[r][c_pv] = Value::Float(pv[k]);
            out.rows[r][c_load] = Value::Float(hload[k]);
            out.rows[r][c_in] = Value::Float(x);
            x = model.step(&[x], &[fut[0][k], hload[k]])[0];
        }
        for c in [c_pv, c_load, c_in] {
            if out.schema.columns[c].ty == sqlengine::DataType::Unknown {
                out.schema.columns[c].ty = sqlengine::DataType::Float;
            }
        }
        Ok(out)
    }
}

/// A session prepared for the feature scripts under `scripts/features`:
/// the UC1 pipeline through P3 plus the shared LTI model, and the
/// `lrdata`/`lrseries` tables the P2 variants train on.
pub fn feature_session() -> Result<Session> {
    let (mut s, data) = uc1_session(96, 12, 33);
    s.execute_script(crate::uc1::S_3SS_P1)?; // hist + horizon
    s.execute_script(crate::uc1::S_3SS_P2)?; // lr_pars + pv_forecast
    s.execute_script(&crate::uc1::S_3SS_P3.replace("iterations := 400", "iterations := 40"))?; // hvac_pars
    s.execute_script(crate::uc1::S_SHARED_MODEL)?; // model
                                                   // lrdata / lrseries for the P2 feature scripts.
    let lrdata: Vec<Vec<Value>> = data[..40]
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                Value::Int(i as i64 + 1),
                Value::Float(r.out_temp),
                Value::Float(timeval::decompose(r.time).hour as f64),
                Value::Float(r.pv_supply),
            ]
        })
        .collect();
    s.db_mut().put_table("lrdata", Table::from_rows(&["rid", "outtemp", "hr", "pvsupply"], lrdata));
    let mut series = planning_table(&data[..52], 40);
    // lr_solver fills the single `y` decision column: rename pvsupply.
    let idx = series.schema.index_of("pvsupply").or_die("pvsupply column");
    series.schema.columns[idx].name = "y".into();
    s.db_mut().put_table("lrseries", series);
    Ok(s)
}

/// A session with the UC2 supply-chain tables installed.
pub fn uc2_session(n_items: usize, months: usize, seed: u64) -> (Session, Vec<datagen::ScItem>) {
    let items = datagen::supply_chain(n_items, months, seed);
    let mut s = Session::new();
    datagen::install_supply_chain(s.db_mut(), &items);
    (s, items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_scheduler_fills_all_decision_columns() {
        let (mut s, _) = uc1_session(24 * 5, 12, 42);
        let t = s
            .query(
                "SOLVESELECT t(intemp, hload, pvsupply) AS (SELECT * FROM input) \
                 USING hvac_scheduler(comfort_low := 20, comfort_high := 25, \
                                      power_max := 17000, price := 0.12, \
                                      fit_iterations := 200)",
            )
            .unwrap();
        assert_eq!(t.num_rows(), 24 * 5 + 12);
        for col in ["intemp", "hload", "pvsupply"] {
            assert!(
                t.column_values(col).unwrap().iter().all(|v| !v.is_null()),
                "column {col} still has NULLs"
            );
        }
        // Loads respect the power limit.
        for v in t.column_values("hload").unwrap() {
            let h = v.as_f64().unwrap();
            assert!((0.0..=17_000.0 + 1e-6).contains(&h));
        }
    }

    #[test]
    fn uc2_session_has_tables() {
        let (mut s, items) = uc2_session(5, 24, 1);
        assert_eq!(items.len(), 5);
        assert_eq!(s.query_scalar("SELECT count(*) FROM orders").unwrap(), Value::Int(5 * 24));
    }
}
