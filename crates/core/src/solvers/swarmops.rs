//! `swarmops` — black-box global optimization solver (paper §3.2's
//! `swarmops.pso()` and §4.4's `swarmops.sa()`), backed by the
//! `globalopt` crate's PSO / SA / DE.
//!
//! The fitness function re-runs the decision relations downstream of the
//! candidate's values and re-evaluates the `MINIMIZE`/`MAXIMIZE` query —
//! exactly the per-iteration cost the paper measures in Fig. 4(b).

use crate::problem::{apply_solution, build_blackbox, BlackboxProblem};
use crate::solver::{SolveContext, Solver};
use globalopt::{
    differential_evolution_with, pso_with, sa_from_with, DeOptions, Fitness, PsoOptions, SaOptions,
    SearchProgress,
};
use sqlengine::catalog::{Database, WorkTally};
use sqlengine::error::Result;
use sqlengine::table::Table;
use std::sync::Arc;

#[derive(Debug, Default)]
pub struct SwarmOps;

/// The statement's fitness as a search scores it. It is deterministic
/// within the statement's snapshot, so an all-integer search scores each
/// point once, unless an evaluation can call a registered UDF.
struct StatementFitness<'a> {
    bb: &'a BlackboxProblem<'a>,
    db: &'a Database,
}

impl Fitness for StatementFitness<'_> {
    fn score(&mut self, x: &[f64]) -> f64 {
        self.bb.fitness(self.db, x)
    }

    fn is_pure(&self) -> bool {
        self.bb.pure
    }
}

impl Solver for SwarmOps {
    fn name(&self) -> &str {
        "swarmops"
    }

    fn methods(&self) -> Vec<&str> {
        vec!["pso", "sa", "de"]
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<Table> {
        let prob = &ctx.model.prob;
        // The solve's own work, whatever else runs on the database.
        let tally = Arc::new(WorkTally::default());
        let ctes = ctx.ctes.with_tally(tally.clone());
        let bb = ctx.stage("build", || build_blackbox(ctx.db, &ctes, ctx.model))?;
        let fitness = StatementFitness { bb: &bb, db: ctx.db };
        let seed = prob.param_usize("seed").transpose()?.unwrap_or(0x5001_7EDB) as u64;
        let method = prob.method.as_deref().unwrap_or("pso");
        let search = ctx.trace.map(|t| t.span("search"));
        let work_before = tally.read();
        // One watchdog/progress callback shared by the three methods;
        // `interrupted` records whether it asked the search to stop.
        let mut interrupted = false;
        let mut on_progress = |sp: &SearchProgress| {
            let go = ctx.progress(obs::ProgressEvent {
                solver: "swarmops".into(),
                method: method.into(),
                iterations: sp.iteration as u64,
                evaluations: sp.evaluations as u64,
                incumbent: sp.best.is_finite().then_some(sp.best),
                ..obs::ProgressEvent::default()
            });
            if !go {
                interrupted = true;
            }
            go
        };
        let result = match method {
            "sa" => {
                let iterations = prob.param_usize("iterations").transpose()?.unwrap_or(2000);
                sa_from_with(
                    fitness,
                    &bb.space,
                    SaOptions { iterations, seed, ..Default::default() },
                    bb.start.clone(),
                    &mut on_progress,
                )
            }
            "de" => {
                let iterations = prob.param_usize("iterations").transpose()?.unwrap_or(60);
                let population = prob.param_usize("population").transpose()?.unwrap_or(20);
                differential_evolution_with(
                    fitness,
                    &bb.space,
                    DeOptions { iterations, population, seed, ..Default::default() },
                    &mut on_progress,
                )
            }
            _ => {
                // The paper's UC2 setting: 10 particles × 10 iterations.
                let iterations = prob.param_usize("iterations").transpose()?.unwrap_or(10);
                let particles = prob.param_usize("particles").transpose()?.unwrap_or(10);
                pso_with(
                    fitness,
                    &bb.space,
                    PsoOptions { particles, iterations, seed, ..Default::default() },
                    &mut on_progress,
                )
            }
        };
        if let Some(span) = search {
            let work = tally.read().since(&work_before);
            span.note("evaluations", result.evaluations);
            span.note("distinct", result.distinct);
            span.note("recursive_steps", work.recursive_steps);
            span.note("plans_built", work.plans_built);
            span.note("builds_reused", work.builds_reused);
            span.note("builds_kept", work.builds_kept);
            span.note("row_steps", work.row_steps);
            span.note("typed_steps", work.typed_steps);
            span.note("subqueries_reused", work.subqueries_reused);
        }
        ctx.report(obs::SolverStats {
            solver: "swarmops".into(),
            method: method.into(),
            iterations: result.iterations as u64,
            evaluations: result.evaluations as u64,
            distinct_evaluations: result.distinct as u64,
            objective: Some(result.value),
            ..obs::SolverStats::default()
        });
        if interrupted {
            let trajectory =
                result.value.is_finite().then_some((result.iterations as u64, result.value));
            return Err(ctx.abort_error(trajectory.as_slice()));
        }
        let x = result.x;
        ctx.stage("post-process", || apply_solution(prob, &|v| Some(x[v as usize])))
    }
}
