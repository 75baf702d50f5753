//! UC2 (supply chain management) baseline pipelines — paper §5.4.
//!
//! Task: forecast next-month demand per item (P2), model expected profit
//! (P3), and choose which items to produce ahead under a warehouse
//! volume constraint (P4, a knapsack MIP).

use crate::csvio::{export_csv, import_csv_numeric, TempDir};
use crate::PhaseTimes;
use datagen::ScItem;
use forecast::{arima::arima_rmse, Arima, Forecaster};
use lp::Rel;
use sqlengine::{execute_script, execute_sql, Database, Table, Value};
use std::time::Instant;

/// Result of a UC2 run.
#[derive(Debug, Clone)]
pub struct Uc2Result {
    pub forecasts: Vec<f64>,
    pub expected_profit: Vec<f64>,
    pub picks: Vec<f64>,
    pub times: PhaseTimes,
}

/// Warehouse capacity as a fraction of the total demanded volume.
pub const CAPACITY_FRACTION: f64 = 0.4;

/// ARIMA order grid used by the R-style baseline (the paper trains about
/// 100 models per item in R).
pub fn order_grid() -> Vec<(usize, usize, usize)> {
    let mut g = Vec::new();
    for p in 0..=4 {
        for d in 0..=3 {
            for q in 0..=4 {
                g.push((p, d, q));
            }
        }
    }
    g
}

/// The shared P4 knapsack (direct matrix construction — both baselines
/// call a CPLEX-class MIP solver with prebuilt matrices).
pub fn p4_knapsack(items: &[ScItem], forecasts: &[f64], profits: &[f64]) -> Vec<f64> {
    let n = items.len();
    let total_volume: f64 = items.iter().zip(forecasts).map(|(it, &f)| it.size * f.max(0.0)).sum();
    let cap = total_volume * CAPACITY_FRACTION;
    let mut p = lp::Problem::maximize(n);
    for j in 0..n {
        p.set_bounds(j, 0.0, 1.0);
        p.integer[j] = true;
    }
    p.set_objective(profits.iter().copied().enumerate().collect());
    p.add_constraint(
        items.iter().zip(forecasts).map(|(it, &f)| it.size * f.max(0.0)).enumerate().collect(),
        Rel::Le,
        cap,
    );
    let sol = lp::solve(&p);
    if sol.x.is_empty() {
        vec![0.0; n]
    } else {
        sol.x
    }
}

/// Fit the best grid order on a series and forecast one step.
fn grid_fit_forecast(y: &[f64]) -> f64 {
    let mut best: Option<((usize, usize, usize), f64)> = None;
    for (p, d, q) in order_grid() {
        let e = arima_rmse(y, p, d, q);
        if e.is_finite() && best.map_or(true, |(_, b)| e < b) {
            best = Some(((p, d, q), e));
        }
    }
    let (p, d, q) = best.map(|(o, _)| o).unwrap_or((0, 0, 0));
    let mut m = Arima::new(p, d, q);
    if m.fit(y, &[]).is_err() {
        return y.iter().sum::<f64>() / y.len().max(1) as f64;
    }
    m.forecast(1, &[]).map(|f| f[0]).unwrap_or(0.0)
}

/// "R + CPLEX" stack: per-item CSV shipping, grid-search ARIMA in the
/// external tool, knapsack through CPLEX-style direct matrices.
pub fn r_cplex(items: &[ScItem]) -> Uc2Result {
    let dir = TempDir::new("r-cplex").expect("temp dir");

    // P1: export every item's history for the external tool.
    let t1 = Instant::now();
    let mut shipped: Vec<Vec<f64>> = Vec::with_capacity(items.len());
    for it in items {
        let t = Table::from_rows(
            &["m", "q"],
            it.orders
                .iter()
                .enumerate()
                .map(|(m, &q)| vec![Value::Int(m as i64), Value::Float(q)])
                .collect(),
        );
        let path = dir.file(&format!("item{}.csv", it.item_id));
        export_csv(&t, &path).expect("export");
        let (_, cols) = import_csv_numeric(&path).expect("import");
        shipped.push(cols.into_iter().nth(1).unwrap_or_default());
    }
    let p1 = t1.elapsed();

    // P2: grid-search ARIMA per item.
    let t2 = Instant::now();
    let forecasts: Vec<f64> = shipped.iter().map(|y| grid_fit_forecast(y)).collect();
    let p2 = t2.elapsed();

    // P3: expected profit per item.
    let t3 = Instant::now();
    let expected_profit: Vec<f64> =
        items.iter().zip(&forecasts).map(|(it, &f)| (it.price - it.cost) * f.max(0.0)).collect();
    let p3 = t3.elapsed();

    // P4: knapsack MIP.
    let t4 = Instant::now();
    let picks = p4_knapsack(items, &forecasts, &expected_profit);
    let p4 = t4.elapsed();

    Uc2Result { forecasts, expected_profit, picks, times: PhaseTimes { p1, p2, p3, p4 } }
}

/// "MADlib + CPLEX" stack: in-DBMS forecasting, but each candidate
/// model's evaluation writes and reads intermediate tables — the paper
/// measures those write/read operations at ~60 % of total time (§5.4).
pub fn madlib_cplex(items: &[ScItem]) -> Uc2Result {
    let mut db = Database::new();

    // P1: load orders in-DBMS.
    let t1 = Instant::now();
    datagen::install_supply_chain(&mut db, items);
    let p1 = t1.elapsed();

    // P2: per item, evaluate the order grid; every evaluation
    // materializes a training table and a results table.
    let t2 = Instant::now();
    let mut forecasts = Vec::with_capacity(items.len());
    for it in items {
        let y = it.orders.clone();
        execute_script(
            &mut db,
            "DROP TABLE IF EXISTS train; CREATE TABLE train (rn int, q float8)",
        )
        .unwrap();
        for (m, &q) in y.iter().enumerate() {
            execute_sql(&mut db, &format!("INSERT INTO train VALUES ({m}, {q})")).unwrap();
        }
        let mut best: Option<((usize, usize, usize), f64)> = None;
        for (p, d, q) in order_grid() {
            // Read training data back (MADlib UDFs scan their input
            // table per call).
            let tt = execute_sql(&mut db, "SELECT q FROM train ORDER BY rn")
                .unwrap()
                .into_table()
                .unwrap();
            let series: Vec<f64> = tt.rows.iter().map(|r| r[0].as_f64().unwrap_or(0.0)).collect();
            let e = arima_rmse(&series, p, d, q);
            // ...and write the candidate's score to a results table.
            execute_script(
                &mut db,
                "DROP TABLE IF EXISTS cv_result; CREATE TABLE cv_result (p int, d int, q int, e float8)",
            )
            .unwrap();
            let e_stored = if e.is_finite() { e } else { 1e18 };
            execute_sql(
                &mut db,
                &format!("INSERT INTO cv_result VALUES ({p}, {d}, {q}, {e_stored})"),
            )
            .unwrap();
            let back = execute_sql(&mut db, "SELECT e FROM cv_result")
                .unwrap()
                .into_table()
                .unwrap()
                .scalar()
                .unwrap()
                .as_f64()
                .unwrap();
            if back < 1e17 && best.map_or(true, |(_, b)| back < b) {
                best = Some(((p, d, q), back));
            }
        }
        let (p, d, q) = best.map(|(o, _)| o).unwrap_or((0, 0, 0));
        let mut m = Arima::new(p, d, q);
        let f = if m.fit(&y, &[]).is_ok() {
            m.forecast(1, &[]).map(|f| f[0]).unwrap_or(0.0)
        } else {
            y.iter().sum::<f64>() / y.len().max(1) as f64
        };
        forecasts.push(f);
    }
    let p2 = t2.elapsed();

    // P3: expected profit, materialized in-DBMS.
    let t3 = Instant::now();
    execute_script(
        &mut db,
        "DROP TABLE IF EXISTS profit; CREATE TABLE profit (item_id int, v float8)",
    )
    .unwrap();
    let mut expected_profit = Vec::with_capacity(items.len());
    for (it, &f) in items.iter().zip(&forecasts) {
        let v = (it.price - it.cost) * f.max(0.0);
        execute_sql(&mut db, &format!("INSERT INTO profit VALUES ({}, {v})", it.item_id)).unwrap();
        expected_profit.push(v);
    }
    let p3 = t3.elapsed();

    // P4: CPLEX-style knapsack.
    let t4 = Instant::now();
    let picks = p4_knapsack(items, &forecasts, &expected_profit);
    let p4 = t4.elapsed();

    Uc2Result { forecasts, expected_profit, picks, times: PhaseTimes { p1, p2, p3, p4 } }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_respects_capacity() {
        let items = datagen::supply_chain(8, 24, 3);
        let forecasts: Vec<f64> = items.iter().map(|i| i.orders.last().copied().unwrap()).collect();
        let profits: Vec<f64> =
            items.iter().zip(&forecasts).map(|(it, &f)| (it.price - it.cost) * f).collect();
        let picks = p4_knapsack(&items, &forecasts, &profits);
        let used: f64 =
            items.iter().zip(&forecasts).zip(&picks).map(|((it, &f), &p)| it.size * f * p).sum();
        let cap: f64 = items.iter().zip(&forecasts).map(|(it, &f)| it.size * f).sum::<f64>()
            * CAPACITY_FRACTION;
        assert!(used <= cap + 1e-6);
        assert!(picks.iter().any(|&p| p > 0.5)); // something gets picked
        assert!(picks.iter().all(|&p| p == 0.0 || p == 1.0));
    }

    #[test]
    fn both_stacks_forecast_and_pick() {
        let items = datagen::supply_chain(4, 30, 9);
        let r = r_cplex(&items);
        let m = madlib_cplex(&items);
        assert_eq!(r.forecasts.len(), 4);
        assert_eq!(m.forecasts.len(), 4);
        assert!(r.forecasts.iter().all(|f| f.is_finite()));
        assert!(m.forecasts.iter().all(|f| f.is_finite()));
        // Same grid, same data → identical model choices and forecasts.
        for (a, b) in r.forecasts.iter().zip(&m.forecasts) {
            assert!((a - b).abs() < 1e-9);
        }
        // MADlib-style write/read overhead slows P2 down.
        assert!(m.times.p2 >= r.times.p2);
    }
}
