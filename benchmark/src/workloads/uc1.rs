//! The three UC1 (energy planning) workloads: `uc1_regress` (P1+P2, the
//! L1-regression LP), `uc1_fit` (P3, SQL-evaluated black-box fitness)
//! and `uc1_plan` (P4, the cost LP over the planning horizon).
//!
//! Every ring entry is a session of its own holding a differently
//! seeded `input` table; an op runs the phase's script in it.

use crate::harness::{
    derive_seed, timed_ms, Built, Digest, Metrics, Recorder, RunOptions, Workload,
};
use crate::spans::Tracer;
use crate::sqlutil::{self, close, floats, query, run_script, text, StageSums};
use datagen::EnergyRow;
use solvedbplus_core::Session;
use sqlengine::types::timeval;
use sqlengine::{DataType, Table, Value};
use std::time::Instant;

pub const P1: &str = include_str!("../../sql/s_3ss_p1.sql");
pub const P2: &str = include_str!("../../sql/s_3ss_p2.sql");
pub const P3: &str = include_str!("../../sql/s_3ss_p3.sql");
pub const P4: &str = include_str!("../../sql/s_3ss_p4.sql");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Regress,
    Fit,
    Plan,
}

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub history: usize,
    pub horizon: usize,
    pub ring: usize,
    /// Ring entries whose answer is compared with a reference solve.
    pub referenced: usize,
}

impl Phase {
    pub fn size(self, quick: bool) -> Size {
        match (self, quick) {
            (Phase::Regress, false) => Size { history: 120, horizon: 24, ring: 100, referenced: 8 },
            (Phase::Regress, true) => Size { history: 48, horizon: 12, ring: 2, referenced: 2 },
            (Phase::Fit, false) => Size { history: 336, horizon: 24, ring: 7, referenced: 0 },
            (Phase::Fit, true) => Size { history: 48, horizon: 12, ring: 2, referenced: 0 },
            (Phase::Plan, false) => Size { history: 96, horizon: 288, ring: 12, referenced: 0 },
            (Phase::Plan, true) => Size { history: 48, horizon: 24, ring: 2, referenced: 0 },
        }
    }

    /// The script an op runs. P3 anneals for 10 iterations, not the
    /// script's 400: eleven evaluations already put 91 % of the op into
    /// SQL-evaluated fitness, and an op short enough to sit between two
    /// calibration samples is worth more than a longer search.
    fn script(self) -> String {
        match self {
            Phase::Regress => format!("{P1}\n{P2}"),
            Phase::Fit => P3.replace("iterations := 400", "iterations := 10"),
            Phase::Plan => P4.to_string(),
        }
    }
}

/// The op's bare `SOLVESELECT`, without the `CREATE TABLE … AS` around
/// it, so that executing it returns the program's stage tree.
fn bare_solve(script: &str) -> Result<&str, String> {
    // At the start of a line: the scripts' comments mention the word too.
    let start = script.find("\nSOLVESELECT").ok_or("script has no SOLVESELECT")? + 1;
    let end = script[start..].find(';').ok_or("SOLVESELECT is not terminated")?;
    Ok(&script[start..start + end])
}

/// The UC1 planning table (paper Table 1): `history` measured rows, then
/// rows whose `intemp`, `hload` and `pvsupply` are NULL decision cells.
pub fn planning_table(rows: &[EnergyRow], history: usize) -> Table {
    let data = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let cell = |v: f64| if i < history { Value::Float(v) } else { Value::Null };
            vec![
                Value::Timestamp(r.time),
                Value::Float(r.out_temp),
                cell(r.in_temp),
                cell(r.h_load),
                cell(r.pv_supply),
            ]
        })
        .collect();
    let mut t = Table::from_rows(&["time", "outtemp", "intemp", "hload", "pvsupply"], data);
    for c in t.schema.columns.iter_mut() {
        c.ty = if c.name == "time" { DataType::Timestamp } else { DataType::Float };
    }
    t
}

fn hour_of(r: &EnergyRow) -> f64 {
    f64::from(timeval::decompose(r.time).hour)
}

/// The L1-regression LP of P2 over `rows`, built by the benchmark:
/// minimise Σ errᵢ with −errᵢ ≤ b0 + b1·outtempᵢ + b2·hourᵢ − pvᵢ ≤ errᵢ.
pub fn l1_problem(rows: &[EnergyRow]) -> lp::Problem {
    let mut p = lp::Problem::minimize(3 + rows.len());
    p.set_objective((0..rows.len()).map(|i| (3 + i, 1.0)).collect());
    for (i, r) in rows.iter().enumerate() {
        let fit = |sign: f64| vec![(0, 1.0), (1, r.out_temp), (2, hour_of(r)), (3 + i, sign)];
        p.add_constraint(fit(-1.0), lp::Rel::Le, r.pv_supply);
        p.add_constraint(fit(1.0), lp::Rel::Ge, r.pv_supply);
    }
    p
}

fn l1_loss(rows: &[EnergyRow], b: [f64; 3]) -> f64 {
    rows.iter().map(|r| (b[0] + b[1] * r.out_temp + b[2] * hour_of(r) - r.pv_supply).abs()).sum()
}

/// Σ (xₖ − intempₖ)² of the LTI simulation P3 spells out in SQL.
fn sim_sse(hist: &[EnergyRow], a1: f64, b1: f64, b2: f64) -> f64 {
    let mut x = hist[0].in_temp;
    let mut sse = 0.0;
    for r in hist {
        sse += (x - r.in_temp).powi(2);
        x = a1 * x + b1 * r.out_temp + b2 * r.h_load;
    }
    sse
}

struct Entry {
    session: Session,
    rows: Vec<EnergyRow>,
    /// The answer of the entry's first op; later passes must repeat it.
    first_answer: Option<Vec<f64>>,
}

pub struct Uc1 {
    phase: Phase,
    size: Size,
    script: String,
    ring: Vec<Entry>,
    seed: u64,
}

pub fn build(phase: Phase, opts: &RunOptions) -> Result<Built, String> {
    let size = phase.size(opts.quick);
    let script = phase.script();
    let mut digest = Digest::default();
    digest.str(&script);
    let mut gen_ms = 0.0;
    let mut ring = Vec::with_capacity(size.ring);
    for k in 0..size.ring {
        let (table, ms) = timed_ms(|| {
            let rows = datagen::energy_series(
                size.history + size.horizon,
                derive_seed(opts.seed, k as u64),
            );
            (planning_table(&rows, size.history), rows)
        });
        gen_ms += ms;
        let (table, rows) = table;
        sqlutil::digest_table(&mut digest, &table);
        let mut session = Session::new();
        session.db_mut().put_table("input", table);
        // Earlier phases are set-up for the later ones.
        let quiet = Tracer::new(Instant::now());
        if phase != Phase::Regress {
            run_script(&mut session, P1, &quiet)?;
        }
        if phase == Phase::Plan {
            run_script(&mut session, P2, &quiet)?;
            let pars = format!(
                "DROP TABLE IF EXISTS hvac_pars; CREATE TABLE hvac_pars AS \
                 SELECT {}::float8 AS a1, {}::float8 AS b1, {}::float8 AS b2",
                datagen::TRUE_A1,
                datagen::TRUE_B1,
                datagen::TRUE_B2
            );
            run_script(&mut session, &pars, &quiet)?;
        }
        ring.push(Entry { session, rows, first_answer: None });
    }
    let workload = Uc1 { phase, size, script, ring, seed: opts.seed };
    Ok(Built { workload: Box::new(workload), digest: digest.finish(), gen_ms })
}

impl Uc1 {
    /// Read the op's answer back and check it. Runs outside the op's
    /// timer. Returns the numbers later passes must reproduce.
    fn check(&mut self, i: usize) -> Result<Vec<f64>, String> {
        let Size { history, horizon, referenced, .. } = self.size;
        let e = &mut self.ring[i];
        let hist = &e.rows[..history];
        match self.phase {
            Phase::Regress => {
                let t = query(&mut e.session, "SELECT b0, b1, b2 FROM lr_pars")?;
                if t.num_rows() != 1 {
                    return Err(format!("lr_pars has {} rows", t.num_rows()));
                }
                let b = [floats(&t, 0)?[0], floats(&t, 1)?[0], floats(&t, 2)?[0]];
                let loss = l1_loss(hist, b);
                if i < referenced && e.first_answer.is_none() {
                    let reference = lp::solve(&l1_problem(hist));
                    if !reference.is_optimal() || !close(loss, reference.objective, 1e-6) {
                        return Err(format!(
                            "L1 loss {loss} differs from the reference optimum {}",
                            reference.objective
                        ));
                    }
                }
                // No fit may lose to the constant-zero forecast.
                if loss > l1_loss(hist, [0.0; 3]) * (1.0 + 1e-9) {
                    return Err(format!("L1 loss {loss} is worse than predicting zero"));
                }
                let f = query(&mut e.session, "SELECT pvsupply FROM pv_forecast ORDER BY time")?;
                let got = floats(&f, 0)?;
                if got.len() != horizon {
                    return Err(format!("pv_forecast has {} rows, not {horizon}", got.len()));
                }
                for (r, g) in e.rows[history..].iter().zip(&got) {
                    let want = (b[0] + b[1] * r.out_temp + b[2] * hour_of(r)).max(0.0);
                    if !close(*g, want, 1e-9) {
                        return Err(format!("forecast {g} differs from {want}"));
                    }
                }
                Ok(vec![b[0], b[1], b[2], loss])
            }
            Phase::Fit => {
                let t = query(&mut e.session, "SELECT a1, b1, b2 FROM hvac_pars")?;
                if t.num_rows() != 1 {
                    return Err(format!("hvac_pars has {} rows", t.num_rows()));
                }
                let (a1, b1, b2) = (floats(&t, 0)?[0], floats(&t, 1)?[0], floats(&t, 2)?[0]);
                let in_bounds = (0.0..=1.0).contains(&a1)
                    && (0.0..=1.0).contains(&b1)
                    && (0.0..=0.001).contains(&b2);
                if !in_bounds {
                    return Err(format!("fit ({a1}, {b1}, {b2}) leaves its bounds"));
                }
                let (sse, start) = (sim_sse(hist, a1, b1, b2), sim_sse(hist, 0.5, 0.05, 0.0005));
                if sse > start * (1.0 + 1e-9) {
                    return Err(format!("fit SSE {sse} is worse than the start point's {start}"));
                }
                Ok(vec![a1, b1, b2])
            }
            Phase::Plan => {
                let t = query(
                    &mut e.session,
                    "SELECT hload, intemp, pvsupply FROM plan ORDER BY time",
                )?;
                let (load, temp, pv) = (floats(&t, 0)?, floats(&t, 1)?, floats(&t, 2)?);
                if load.len() != horizon {
                    return Err(format!("plan has {} rows, not {horizon}", load.len()));
                }
                let tol = 1e-6;
                if load.iter().any(|h| !(-tol..=17_000.0 + tol).contains(h)) {
                    return Err("a planned load leaves [0, 17000]".into());
                }
                if temp.iter().any(|x| !(20.0 - tol..=25.0 + tol).contains(x)) {
                    return Err("a planned indoor temperature leaves [20, 25]".into());
                }
                // The plan must follow the LTI dynamics it was given.
                let mut x = hist[history - 1].in_temp;
                for (k, r) in e.rows[history..].iter().enumerate() {
                    if !close(temp[k], x, 1e-6) {
                        return Err(format!(
                            "step {k}: intemp {} breaks the dynamics ({x})",
                            temp[k]
                        ));
                    }
                    x = datagen::TRUE_A1 * temp[k]
                        + datagen::TRUE_B1 * r.out_temp
                        + datagen::TRUE_B2 * load[k];
                }
                let cost: f64 = load.iter().zip(&pv).map(|(h, p)| (h - p) * 0.12).sum();
                Ok(vec![cost])
            }
        }
    }

    fn op(&mut self, i: usize, pass: usize, tracer: &Tracer, rec: &mut Recorder) {
        let e = &mut self.ring[i];
        let t = Instant::now();
        let ran = tracer.span("op", || run_script(&mut e.session, &self.script, tracer));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let verdict = ran.and_then(|_| self.check(i)).and_then(|answer| {
            let e = &mut self.ring[i];
            match &e.first_answer {
                Some(first) if !first.iter().zip(&answer).all(|(a, b)| close(*a, *b, 1e-9)) => Err(
                    format!("entry {i}: answer {answer:?} differs from the first pass {first:?}"),
                ),
                Some(_) => Ok(()),
                None => {
                    e.first_answer = Some(answer);
                    Ok(())
                }
            }
        });
        rec.op(i, pass, ms, verdict);
    }

    /// Execute the bare `SOLVESELECT` of the first `n` ring entries and
    /// sum the stage trees the program returns.
    fn stage_probe(&mut self, n: usize, tracer: &Tracer) -> Result<StageSums, String> {
        let solve = bare_solve(&self.script)?.to_string();
        let mut sums = StageSums::default();
        for e in self.ring.iter_mut().take(n) {
            let r = tracer.span("probe.solve", || e.session.execute(&solve)).map_err(text)?;
            sums.add_result(&r);
        }
        Ok(sums)
    }
}

impl Workload for Uc1 {
    fn warm_up(&mut self) -> Result<(), String> {
        let quiet = Tracer::new(Instant::now());
        run_script(&mut self.ring[0].session, &self.script, &quiet).map(|_| ())
    }

    fn pass(&mut self, pass: usize, tracer: &Tracer, rec: &mut Recorder) {
        for i in 0..self.ring.len() {
            tracer.set_op((pass * self.ring.len() + i) as u64);
            self.op(i, pass, tracer, rec);
        }
    }

    fn finish(&mut self, _rec: &mut Recorder, _m: &mut Metrics) {}

    fn probes(&mut self, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
        let history = self.size.history;
        sqlutil::parser_probe(&[&self.script], tracer, m)?;

        // The program's own stage tree, over a fixed prefix of the ring.
        let probed = match self.phase {
            Phase::Regress => 16,
            Phase::Fit => 2,
            Phase::Plan => 4,
        };
        self.stage_probe(probed, tracer)?.metrics(m);

        // The annealing solver has nothing to explain or presolve.
        let solve = bare_solve(&self.script)?.to_string();
        let explain = self.phase != Phase::Fit;
        sqlutil::core_probe(&mut self.ring[0].session, &solve, explain, tracer, m)?;

        match self.phase {
            Phase::Fit => {
                // The same fitness at half the history: the growth
                // exponent of SQL-evaluated fitness, and the search loop
                // alone over a constant-cost closure.
                let half = history / 2;
                let rows = datagen::energy_series(half + 1, 1);
                let mut s = Session::new();
                s.db_mut().put_table("input", planning_table(&rows, half));
                let quiet = Tracer::new(Instant::now());
                run_script(&mut s, P1, &quiet)?;
                let r = tracer.span("probe.solve", || s.execute(&solve)).map_err(text)?;
                let mut sums = StageSums::default();
                sums.add_result(&r);
                m.insert("fitness.eval_half_ms", sums.eval_ms());
                m.insert("globalopt.sa_iter_us", sa_iter_us(tracer));
            }
            Phase::Regress => {
                let hours = if history < 96 { history } else { 336 };
                lp_probe(&datagen::energy_series(hours, self.seed), tracer, m);
            }
            Phase::Plan => {}
        }
        Ok(())
    }
}

/// `lp` on problems the benchmark builds itself: the L1 LP over two
/// weeks of history (the size the dense-inverse simplex already
/// struggles with) and over half of it, for the growth exponent.
fn lp_probe(hist: &[EnergyRow], tracer: &Tracer, m: &mut Metrics) {
    let full = l1_problem(hist);
    let (sol, ms) = timed_ms(|| tracer.span("probe.lp.solve", || lp::solve(&full)));
    m.insert("lp.solve_ms", ms);
    m.insert("lp.pivots", sol.iterations as f64);
    m.insert("lp.pivot_us", ms * 1e3 / (sol.iterations.max(1)) as f64);
    let half = l1_problem(&hist[..hist.len() / 2]);
    let (_, ms) = timed_ms(|| tracer.span("probe.lp.solve", || lp::solve(&half)));
    m.insert("lp.solve_half_ms", ms);
    let (_, ms) = timed_ms(|| tracer.span("probe.lp.analyze", || lp::matrix::analyze(&full)));
    m.insert("lp.analyze_us", ms * 1e3);
}

/// One simulated-annealing iteration over a closure of constant cost.
fn sa_iter_us(tracer: &Tracer) -> f64 {
    let space = globalopt::SearchSpace::continuous(vec![0.0; 3], vec![1.0; 3]);
    let opts = globalopt::SaOptions { iterations: 20_000, seed: 5, ..Default::default() };
    let (r, ms) = timed_ms(|| {
        tracer.span("probe.globalopt", || {
            globalopt::sa_from(
                |x| x.iter().map(|v| (v - 0.3).powi(2)).sum::<f64>(),
                &space,
                opts,
                vec![0.5; 3],
            )
        })
    });
    std::hint::black_box(r);
    ms * 1e3 / 20_000.0
}
