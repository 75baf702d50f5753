//! The in-DBMS Predictive Framework (paper §3): `lr_solver`,
//! `arima_solver` and the Predictive Advisor `predictive_solver`.
//!
//! All three are exposed as ordinary solvers: the decision columns of
//! the input relation are the series to forecast, rows with NULL
//! decision cells form the horizon, and the output relation is the
//! input with those cells filled (Table 4 of the paper). The framework
//! standardizes the four steps of Fig. 2 — prepare, train, validate,
//! predict — and caches calibrated models for reuse (P2.3).

use crate::problem::ProblemInstance;
use crate::solver::{SolveContext, Solver};
use forecast::{
    arima::arima_rmse, cross_validate, Arima, Forecaster, LinearRegression, MeanForecaster,
    SeasonalNaive,
};
use globalopt::{pso, PsoOptions, SearchSpace};
use parking_lot::RwLock;
use sqlengine::error::{Error, Result};
use sqlengine::hash::FastMap;
use sqlengine::table::Table;
use sqlengine::types::{DataType, Value};
use std::sync::atomic::{AtomicUsize, Ordering};

/// P2.1 Preparing: the analyzed input relation.
pub struct PredictTask {
    /// Row indexes in time order.
    pub order: Vec<usize>,
    /// Feature column indexes (from `features := col` or `features := 'a,b'`).
    pub feat_cols: Vec<usize>,
    /// Per decision column: (column index, training positions, horizon positions).
    pub targets: Vec<TargetSeries>,
}

/// One decision column's training data and horizon.
pub struct TargetSeries {
    pub col: usize,
    pub name: String,
    pub y: Vec<f64>,
    pub features: Vec<Vec<f64>>,
    pub future_features: Vec<Vec<f64>>,
    /// Row indexes (into the table) to fill with forecasts, time-ordered.
    pub fill_rows: Vec<usize>,
}

/// Analyze the input relation: detect the time column, order rows, split
/// decision columns into training history and horizon (step P2.1).
pub fn prepare(prob: &ProblemInstance) -> Result<PredictTask> {
    let rel = &prob.relations[0];
    let table = rel.table()?;
    if rel.dec_cols.is_empty() {
        return Err(Error::solver("predictive solvers need at least one decision column"));
    }
    // Time ordering: use the first timestamp column if present.
    let time_col = table.schema.columns.iter().position(|c| c.ty == DataType::Timestamp);
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    if let Some(tc) = time_col {
        order.sort_by(|&a, &b| table.rows[a][tc].cmp_total(&table.rows[b][tc]));
    }

    // Feature columns.
    let mut feat_cols = Vec::new();
    if let Some(spec) = prob.param_text("features") {
        for name in spec.split(',').map(|s| s.trim().to_ascii_lowercase()) {
            if name.is_empty() {
                continue;
            }
            let idx = table
                .schema
                .index_of(&name)
                .ok_or_else(|| Error::solver(format!("feature column '{name}' not found")))?;
            feat_cols.push(idx);
        }
    }

    let time_window = prob.param_usize("time_window").transpose()?;

    let mut targets = Vec::new();
    for &col in &rel.dec_cols {
        if feat_cols.contains(&col) {
            return Err(Error::solver("a column cannot be both a feature and a decision column"));
        }
        let mut y = Vec::new();
        let mut features: Vec<Vec<f64>> = vec![Vec::new(); feat_cols.len()];
        let mut future_features: Vec<Vec<f64>> = vec![Vec::new(); feat_cols.len()];
        let mut fill_rows = Vec::new();
        for &r in &order {
            let cell = &table.rows[r][col];
            if cell.is_null() {
                fill_rows.push(r);
                for (k, &fc) in feat_cols.iter().enumerate() {
                    future_features[k].push(table.rows[r][fc].as_f64().unwrap_or(0.0));
                }
            } else {
                y.push(cell.as_f64()?);
                for (k, &fc) in feat_cols.iter().enumerate() {
                    features[k].push(table.rows[r][fc].as_f64().unwrap_or(0.0));
                }
            }
        }
        // Optional training window: keep only the trailing W points.
        if let Some(w) = time_window {
            if w > 0 && y.len() > w {
                let skip = y.len() - w;
                y.drain(..skip);
                for f in features.iter_mut() {
                    f.drain(..skip);
                }
            }
        }
        if y.is_empty() {
            return Err(Error::solver(format!(
                "decision column '{}' has no training data (all values are NULL)",
                table.schema.columns[col].name
            )));
        }
        targets.push(TargetSeries {
            col,
            name: table.schema.columns[col].name.clone(),
            y,
            features,
            future_features,
            fill_rows,
        });
    }
    Ok(PredictTask { order, feat_cols, targets })
}

/// P2.4 Predicting: fill horizon cells with forecasts and return the
/// output relation (a view over the input — no user tables change).
fn fill_output(
    prob: &ProblemInstance,
    task: &PredictTask,
    forecasts: &[Vec<f64>],
) -> Result<Table> {
    let mut out = Table::clone(prob.relations[0].table()?);
    for (t, f) in task.targets.iter().zip(forecasts) {
        for (k, &row) in t.fill_rows.iter().enumerate() {
            if let Some(&v) = f.get(k) {
                out.rows[row][t.col] = Value::Float(v);
                if out.schema.columns[t.col].ty == DataType::Unknown {
                    out.schema.columns[t.col].ty = DataType::Float;
                }
            }
        }
    }
    Ok(out)
}

fn forecast_each(
    prob: &ProblemInstance,
    task: &PredictTask,
    mut make: impl FnMut(&TargetSeries) -> Result<Box<dyn Forecaster>>,
) -> Result<Table> {
    let mut all = Vec::new();
    for t in &task.targets {
        let mut model = make(t)?;
        model.fit(&t.y, &t.features).map_err(|e| {
            Error::solver(format!("fitting {} for '{}': {e}", model.name(), t.name))
        })?;
        let f = model
            .forecast(t.fill_rows.len(), &t.future_features)
            .map_err(|e| Error::solver(format!("forecasting '{}': {e}", t.name)))?;
        all.push(f);
    }
    fill_output(prob, task, &all)
}

// ---------------------------------------------------------------------------
// lr_solver
// ---------------------------------------------------------------------------

/// Linear-regression predictive solver (`USING lr_solver(features := x)`).
#[derive(Debug, Default)]
pub struct LrSolver;

impl Solver for LrSolver {
    fn name(&self) -> &str {
        "lr_solver"
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<Table> {
        let prob = &ctx.model.prob;
        let task = ctx.stage("prepare", || prepare(prob))?;
        let out = ctx.stage("fit-predict", || {
            forecast_each(prob, &task, |t| {
                Ok(Box::new(if t.features.is_empty() {
                    LinearRegression::with_trend()
                } else {
                    LinearRegression::new()
                }))
            })
        });
        ctx.report(obs::SolverStats {
            solver: "lr_solver".into(),
            method: "lr".into(),
            evaluations: task.targets.len() as u64,
            distinct_evaluations: task.targets.len() as u64,
            ..obs::SolverStats::default()
        });
        out
    }
}

// ---------------------------------------------------------------------------
// arima_solver
// ---------------------------------------------------------------------------

/// ARIMA predictive solver. Orders can be fixed (`ar := 2, i := 1,
/// ma := 1`) or searched with PSO over `[0,5]³` minimizing the in-sample
/// RMSE — the parameter-estimation `SOLVESELECT` of §3.2, run natively.
#[derive(Debug, Default)]
pub struct ArimaSolver;

/// What an order search found and what it spent.
#[derive(Debug, Clone, Copy)]
pub struct OrderSearch {
    pub order: (usize, usize, usize),
    /// The in-sample RMSE of `order`; infinite when no order searched fits.
    pub rmse: f64,
    /// RMSE evaluations requested, repeats of an order included.
    pub evaluations: usize,
    /// Orders actually fitted: the search scores each order once.
    pub distinct: usize,
}

/// PSO order search matching the paper's setting (10 particles × 10
/// iterations over integer orders in \[0,5\]), with the order's RMSE and
/// the evaluations it spent — the telemetry the solver reports.
pub fn search_arima_order(y: &[f64], seed: u64) -> OrderSearch {
    let space =
        SearchSpace::continuous(vec![0.0; 3], vec![5.0, 2.0, 5.0]).with_integrality(vec![true; 3]);
    let r = pso(
        |x| arima_rmse(y, x[0] as usize, x[1] as usize, x[2] as usize),
        &space,
        PsoOptions { particles: 10, iterations: 10, seed, ..Default::default() },
    );
    OrderSearch {
        order: (r.x[0] as usize, r.x[1] as usize, r.x[2] as usize),
        rmse: r.value,
        evaluations: r.evaluations,
        distinct: r.distinct,
    }
}

impl Solver for ArimaSolver {
    fn name(&self) -> &str {
        "arima_solver"
    }

    fn methods(&self) -> Vec<&str> {
        vec!["auto", "fixed"]
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<Table> {
        let prob = &ctx.model.prob;
        let task = ctx.stage("prepare", || prepare(prob))?;
        let fixed = match (
            prob.param_usize("ar").transpose()?,
            prob.param_usize("i").transpose()?,
            prob.param_usize("ma").transpose()?,
        ) {
            (Some(p), d, q) => Some((p, d.unwrap_or(0), q.unwrap_or(0))),
            (None, Some(d), q) => Some((0, d, q.unwrap_or(0))),
            (None, None, Some(q)) => Some((0, 0, q)),
            (None, None, None) => None,
        };
        let seed = prob.param_usize("seed").transpose()?.unwrap_or(0xA41A) as u64;
        let (mut evaluations, mut distinct) = (0, 0);
        let out = ctx.stage("fit-predict", || {
            forecast_each(prob, &task, |t| {
                // The searched order comes with its RMSE; a fixed one is
                // fitted here.
                let (first, rmse) = match fixed {
                    Some((p, d, q)) => ((p, d, q), arima_rmse(&t.y, p, d, q)),
                    None => {
                        let s = search_arima_order(&t.y, seed);
                        evaluations += s.evaluations as u64;
                        distinct += s.distinct as u64;
                        (s.order, s.rmse)
                    }
                };
                // Fall back to simpler orders when the series is too short
                // for the requested/search-selected one.
                let order = if rmse.is_finite() {
                    Some(first)
                } else {
                    [(1, 0, 0), (0, 1, 0), (0, 0, 0)]
                        .into_iter()
                        .find(|&(p, d, q)| arima_rmse(&t.y, p, d, q).is_finite())
                };
                match order {
                    Some((p, d, q)) => Ok(Box::new(Arima::new(p, d, q)) as Box<dyn Forecaster>),
                    None => Err(Error::solver(format!(
                        "series '{}' is too short for any ARIMA order ({} points)",
                        t.name,
                        t.y.len()
                    ))),
                }
            })
        });
        ctx.report(obs::SolverStats {
            solver: "arima_solver".into(),
            method: if fixed.is_some() { "fixed".into() } else { "auto".into() },
            evaluations,
            distinct_evaluations: distinct,
            ..obs::SolverStats::default()
        });
        out
    }
}

// ---------------------------------------------------------------------------
// predictive_solver — the Predictive Advisor
// ---------------------------------------------------------------------------

/// The Predictive Advisor (paper §3.1): candidate models are scored by
/// rolling-origin cross validation (P2.2–P2.3), the winner is refitted on
/// the full history and used to predict (P2.4). Selections are cached so
/// repeated invocations on the same series skip validation — the "model
/// instances stored for fast reuse" of P2.3.
pub struct PredictiveAdvisor {
    cache: RwLock<FastMap<String, String>>,
    cache_hits: AtomicUsize,
}

impl Default for PredictiveAdvisor {
    fn default() -> Self {
        PredictiveAdvisor {
            cache: RwLock::new(FastMap::default()),
            cache_hits: AtomicUsize::new(0),
        }
    }
}

impl PredictiveAdvisor {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn cache_hits(&self) -> usize {
        self.cache_hits.load(Ordering::Relaxed)
    }

    fn cache_key(t: &TargetSeries) -> String {
        format!(
            "{}:{}:{:.6}:{:.6}:{}",
            t.name,
            t.y.len(),
            t.y.first().copied().unwrap_or(0.0),
            t.y.last().copied().unwrap_or(0.0),
            t.features.len()
        )
    }

    fn candidates(
        has_features: bool,
        n: usize,
    ) -> Vec<(String, Box<dyn Fn() -> Box<dyn Forecaster>>)> {
        let mut c: Vec<(String, Box<dyn Fn() -> Box<dyn Forecaster>>)> = vec![(
            "mean".into(),
            Box::new(|| Box::new(MeanForecaster::default()) as Box<dyn Forecaster>),
        )];
        if n >= 48 {
            c.push((
                "seasonal24".into(),
                Box::new(|| Box::new(SeasonalNaive::new(24)) as Box<dyn Forecaster>),
            ));
        }
        if n >= 24 {
            c.push((
                "seasonal12".into(),
                Box::new(|| Box::new(SeasonalNaive::new(12)) as Box<dyn Forecaster>),
            ));
        }
        if has_features {
            c.push((
                "lr".into(),
                Box::new(|| Box::new(LinearRegression::new()) as Box<dyn Forecaster>),
            ));
        } else {
            c.push((
                "lr_trend".into(),
                Box::new(|| Box::new(LinearRegression::with_trend()) as Box<dyn Forecaster>),
            ));
        }
        c.push((
            "arima(1,0,0)".into(),
            Box::new(|| Box::new(Arima::new(1, 0, 0)) as Box<dyn Forecaster>),
        ));
        c.push((
            "arima(2,1,1)".into(),
            Box::new(|| Box::new(Arima::new(2, 1, 1)) as Box<dyn Forecaster>),
        ));
        c
    }

    fn make_named(name: &str, has_features: bool) -> Box<dyn Forecaster> {
        match name {
            "mean" => Box::new(MeanForecaster::default()),
            "seasonal24" => Box::new(SeasonalNaive::new(24)),
            "seasonal12" => Box::new(SeasonalNaive::new(12)),
            "lr" => Box::new(LinearRegression::new()),
            "lr_trend" => Box::new(LinearRegression::with_trend()),
            "arima(1,0,0)" => Box::new(Arima::new(1, 0, 0)),
            "arima(2,1,1)" => Box::new(Arima::new(2, 1, 1)),
            _ => {
                if has_features {
                    Box::new(LinearRegression::new())
                } else {
                    Box::new(LinearRegression::with_trend())
                }
            }
        }
    }
}

impl Solver for PredictiveAdvisor {
    fn name(&self) -> &str {
        "predictive_solver"
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<Table> {
        let prob = &ctx.model.prob;
        let task = ctx.stage("prepare", || prepare(prob))?;
        let validations = std::cell::Cell::new(0u64);
        let hits_before = self.cache_hits();
        let out = ctx.stage("fit-predict", || {
            forecast_each(prob, &task, |t| {
                let has_features = !t.features.is_empty();
                let key = Self::cache_key(t);
                if let Some(name) = self.cache.read().get(&key).cloned() {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Self::make_named(&name, has_features));
                }
                // P2.2–P2.3: training + validation over the candidate pool.
                let horizon = t.fill_rows.len().max(1).min(t.y.len() / 3).max(1);
                let candidates = Self::candidates(has_features, t.y.len());
                let names: Vec<String> = candidates.iter().map(|(n, _)| n.clone()).collect();
                let mut best: Option<(String, f64)> = None;
                for (name, make) in &candidates {
                    let score = cross_validate(make.as_ref(), &t.y, &t.features, horizon, 3);
                    validations.set(validations.get() + 1);
                    if score.is_finite() && best.as_ref().map_or(true, |(_, s)| score < *s) {
                        best = Some((name.clone(), score));
                    }
                }
                let chosen = best.map(|(n, _)| n).ok_or_else(|| {
                    Error::solver(format!(
                        "no candidate model fits series '{}' (candidates: {})",
                        t.name,
                        names.join(", ")
                    ))
                })?;
                self.cache.write().insert(key, chosen.clone());
                Ok(Self::make_named(&chosen, has_features))
            })
        });
        ctx.report(obs::SolverStats {
            solver: "predictive_solver".into(),
            method: "advisor".into(),
            evaluations: validations.get(),
            distinct_evaluations: validations.get(),
            // Cache hits this invocation, reported as avoided restarts.
            restarts: (self.cache_hits() - hits_before) as u64,
            ..obs::SolverStats::default()
        });
        out
    }
}
