//! `solverlp` — the LP/MIP solver of SolveDB+ (paper §4.1, `USING
//! solverlp.cbc()`), backed by this repository's simplex and
//! branch-and-bound instead of CBC/GLPK.

use crate::check::presolve::reduce::{read_out, reduce, reduce_with, Presolved};
use crate::check::presolve::Counts;
use crate::problem::{apply_solution, ProblemInstance};
use crate::solver::{SolveContext, Solver};
use sqlengine::error::{Error, Result};
use sqlengine::table::Table;
use std::borrow::Cow;
use std::collections::HashMap;

#[derive(Debug, Default)]
pub struct LpSolver;

impl Solver for LpSolver {
    fn name(&self) -> &str {
        "solverlp"
    }

    fn methods(&self) -> Vec<&str> {
        // cbc/glpk are accepted for compatibility with the paper's
        // listings; both route to the built-in simplex/branch-and-bound.
        vec!["cbc", "glpk", "simplex", "bb", "auto"]
    }

    fn solve(&self, ctx: &SolveContext<'_>, prob: &ProblemInstance) -> Result<Table> {
        if let Some(failure) = ctx.model.first_failure() {
            return Err(failure.error.clone());
        }
        let lowered = ctx.model.lowered();
        // Copied only by the one path that changes it: the relaxation below.
        let mut lp_prob = Cow::Borrowed(&lowered.problem);
        // Method `simplex` forces the LP relaxation even with integers.
        if prob.method.as_deref() == Some("simplex") && lp_prob.has_integers() {
            lp_prob.to_mut().integer.iter_mut().for_each(|b| *b = false);
        }
        let node_limit = prob.param_usize("node_limit").transpose()?;
        // Interval-propagation presolve (on by default; `presolve := off`
        // disables it). Shrinks the problem the simplex/B&B actually
        // sees; the solution is un-crushed back to the full variable
        // space before post-processing. The fixpoint over the model's
        // own LP is the one the analyzer already read.
        let presolve_on = prob.param_switch("presolve", true)?;
        let pre: Option<Presolved> = presolve_on.then(|| {
            let _span = ctx.trace.map(|t| t.span("presolve"));
            match &lp_prob {
                Cow::Borrowed(p) => reduce_with(p, ctx.model.propagated().clone()),
                Cow::Owned(relaxed) => reduce(relaxed),
            }
        });
        let counts = pre.as_ref().map(|p| p.outcome.counts()).unwrap_or_default();
        // The problem the solver sees.
        let target: &lp::Problem = pre.as_ref().map_or(&lp_prob, |p| &p.reduced);
        // Matrix classification (on by default; `matrixclass := off`
        // disables it): classify rows and look for an integrality proof.
        let matrixclass_on = prob.param_switch("matrixclass", true)?;
        // When nothing relaxed, reduced, substituted in or refuted the
        // model's own LP, `target` is that LP (presolve only rewrites
        // `>=` rows as `<=`, which the classification sees through) and
        // the analyzer's pass is reused — unless it left the rows through
        // auxiliary columns unclassified.
        let unchanged = matches!(lp_prob, Cow::Borrowed(_))
            && counts == Counts::default()
            && lowered.decisions == lowered.used.len()
            && !pre.as_ref().is_some_and(|p| p.infeasible() || !p.substituted.is_empty());
        let analysis: Option<Cow<'_, lp::matrix::MatrixAnalysis>> = matrixclass_on.then(|| {
            ctx.stage("matrixclass", || {
                if unchanged {
                    Cow::Borrowed(ctx.model.matrix_analysis())
                } else {
                    Cow::Owned(lp::matrix::analyze(target))
                }
            })
        });
        debug_assert!(
            !unchanged || analysis.as_deref().map_or(true, |a| *a == lp::matrix::analyze(target)),
            "presolve without reductions changed the matrix classification"
        );
        // `method` is what ran: branch-and-bound (shortcuts included) or
        // the simplex alone.
        let span = ctx.trace.map(|t| t.span("solve-lp"));
        let (sol, stats, method) = (|| {
            if pre.as_ref().is_some_and(|p| p.infeasible()) {
                return (lp::Solution::infeasible(), lp::mip::MipStats::default(), "simplex");
            }
            if target.num_vars == 0 {
                // Propagation fixed every variable; the objective is
                // the folded constant and there is nothing to solve.
                let sol = lp::Solution {
                    status: lp::Status::Optimal,
                    x: vec![],
                    objective: target.objective_constant,
                    iterations: 0,
                    nodes: 0,
                };
                return (sol, lp::mip::MipStats::default(), "simplex");
            }
            if target.has_integers() {
                let (sol, stats) = solve_mip(ctx, target, analysis.as_deref(), node_limit);
                (sol, stats, "bb")
            } else {
                let (sol, stats) = solve_relaxation(target);
                (sol, stats, "simplex")
            }
        })();
        // How the (root) LP's cold solve started, when the kernel ran, and
        // what the incumbent bought, when the search branched. The span
        // closes with this block.
        if let Some(span) = span {
            if stats.refactorizations > 0 {
                span.note("start", stats.start);
                span.note("phase1_pivots", stats.start.phase1_pivots);
            }
            if stats.nodes_explored > 0 {
                span.note("fixed", stats.fixed);
                span.note("rounded_incumbents", stats.rounded_incumbents);
            }
        }
        let (matrix_class, integrality_proof, blocks) = match analysis.as_deref() {
            Some(a) => {
                (a.census_label(), a.proof_label(target), lp::matrix::block_count(target) as u64)
            }
            None => (String::new(), String::new(), 0),
        };
        let sol = match &pre {
            Some(p) => p.uncrush_solution(&lp_prob, sol),
            None => read_out(&lp_prob, sol),
        };
        let mut tele = telemetry(&sol, &stats, method, counts);
        tele.matrix_class = matrix_class;
        tele.integrality_proof = integrality_proof;
        tele.blocks = blocks;
        let incumbents = tele.incumbents.clone();
        ctx.report(tele);
        if sol.status == lp::Status::Interrupted {
            // Watchdog fired: surface the trajectory collected so far
            // instead of a result table.
            return Err(ctx.abort_error(&incumbents));
        }
        let decisions = &lowered.used[..lowered.decisions];
        ctx.stage("post-process", || finish(prob, sol, decisions, node_limit))
    }
}

/// Integer-feasibility tolerance for accepting a shortcut solution;
/// matches the branch-and-bound's own tolerance.
const SHORTCUT_INT_TOL: f64 = 1e-6;

/// Solve the integer problem, acting on the matrix-classification
/// proof when available: relax the integer declarations it proves
/// implied (all of them under a TU certificate over integral data), so
/// branch-and-bound never branches on them — with none left it stops at
/// its root, one LP. The solution's integrality is *verified* before
/// acceptance — the proof decides when to try the shortcut, never
/// whether to trust its result — so an unsound claim falls back to full
/// branch-and-bound instead of producing a wrong answer.
fn solve_mip(
    ctx: &SolveContext<'_>,
    target: &lp::Problem,
    analysis: Option<&lp::matrix::MatrixAnalysis>,
    node_limit: Option<usize>,
) -> (lp::Solution, lp::mip::MipStats) {
    if let Some(a) = analysis.filter(|a| !a.relaxable.is_empty()) {
        let declared: Vec<usize> = (0..target.num_vars).filter(|&j| target.integer[j]).collect();
        let mut relaxed = target.clone();
        for &j in &a.relaxable {
            relaxed.integer[j] = false;
        }
        let (mut sol, mut stats) = branch_and_bound(ctx, &relaxed, node_limit);
        if sol.status != lp::Status::Optimal || accept_integral(target, &mut sol, &declared) {
            if !relaxed.has_integers() && sol.status == lp::Status::Optimal {
                // The one LP's solution, snapped, is the incumbent.
                stats.incumbents = vec![(0, sol.objective)];
            }
            return (sol, stats);
        }
    }
    branch_and_bound(ctx, target, node_limit)
}

/// Solve the LP relaxation of `target` (the simplex ignores integrality
/// flags), reporting the kernel's counters in the branch-and-bound
/// shape with no nodes.
fn solve_relaxation(target: &lp::Problem) -> (lp::Solution, lp::mip::MipStats) {
    let mut tableau = lp::simplex::Simplex::new(target);
    let sol = tableau.solve();
    let mut stats = lp::mip::MipStats { simplex_iterations: sol.iterations, ..Default::default() };
    stats.record_kernel(tableau.counters());
    (sol, stats)
}

/// Verify that `sol` is integral on `declared` within tolerance; on
/// success snap those entries to integers and recompute the objective.
fn accept_integral(target: &lp::Problem, sol: &mut lp::Solution, declared: &[usize]) -> bool {
    if sol.status != lp::Status::Optimal {
        return false;
    }
    let ok = declared.iter().all(|&j| (sol.x[j] - sol.x[j].round()).abs() <= SHORTCUT_INT_TOL);
    if ok {
        for &j in declared {
            sol.x[j] = sol.x[j].round();
        }
        sol.objective = target.objective_value(&sol.x);
    }
    ok
}

fn branch_and_bound(
    ctx: &SolveContext<'_>,
    target: &lp::Problem,
    node_limit: Option<usize>,
) -> (lp::Solution, lp::mip::MipStats) {
    let opts = match node_limit {
        Some(limit) => lp::mip::MipOptions { node_limit: limit, ..Default::default() },
        None => lp::mip::MipOptions::default(),
    };
    // Progress points double as the watchdog's cooperative cancellation
    // checks (every PROGRESS_NODE_INTERVAL nodes plus every new
    // incumbent).
    lp::mip::branch_and_bound_with(target, opts, &mut |p| {
        ctx.progress(obs::ProgressEvent {
            solver: "solverlp".into(),
            method: "mip".into(),
            nodes: p.nodes as u64,
            iterations: p.pivots as u64,
            incumbent: p.incumbent,
            best_bound: p.best_bound,
            ..obs::ProgressEvent::default()
        })
    })
}

/// Map an LP/MIP outcome onto the shared solver-telemetry shape.
fn telemetry(
    sol: &lp::Solution,
    stats: &lp::mip::MipStats,
    method: &str,
    counts: Counts,
) -> obs::SolverStats {
    // Node-limited and interrupted solves carry an objective only when
    // an incumbent was found before the search stopped.
    let objective = (sol.status == lp::Status::Optimal
        || (matches!(sol.status, lp::Status::NodeLimit | lp::Status::Interrupted)
            && !sol.x.is_empty()))
    .then_some(sol.objective);
    obs::SolverStats {
        solver: "solverlp".into(),
        method: method.into(),
        iterations: stats.simplex_iterations as u64,
        nodes_explored: stats.nodes_explored as u64,
        nodes_pruned: stats.nodes_pruned as u64,
        warm_starts: stats.warm_starts as u64,
        cold_starts: stats.cold_starts as u64,
        dual_pivots: stats.dual_pivots as u64,
        refactorizations: stats.refactorizations as u64,
        objective,
        incumbents: stats.incumbents.iter().map(|&(n, v)| (n as u64, v)).collect(),
        presolve_cols: counts.cols_removed,
        presolve_rows: counts.rows_removed,
        presolve_bounds: counts.bounds_tightened,
        ..obs::SolverStats::default()
    }
}

fn finish(
    prob: &ProblemInstance,
    sol: lp::Solution,
    used: &[crate::symbolic::VarId],
    node_limit: Option<usize>,
) -> Result<Table> {
    match sol.status {
        lp::Status::NodeLimit if sol.x.is_empty() => Err(Error::solver(format!(
            "node limit of {} reached before a feasible point was found",
            node_limit.unwrap_or(lp::mip::MipOptions::default().node_limit)
        ))),
        lp::Status::Optimal | lp::Status::NodeLimit => {
            let assignment: HashMap<u32, f64> =
                used.iter().enumerate().map(|(i, &v)| (v, sol.x[i])).collect();
            apply_solution(prob, &|v| assignment.get(&v).copied())
        }
        lp::Status::Infeasible => Err(Error::solver("the problem is infeasible")),
        lp::Status::Unbounded => Err(Error::solver("the problem is unbounded")),
        // Interrupted solves are turned into SolveTimeout before
        // post-processing; reaching here would be a solver bug.
        lp::Status::Interrupted => {
            Err(Error::solver("internal: interrupted solve was not aborted"))
        }
        lp::Status::NotConverged => Err(Error::solver(
            "simplex did not converge: iteration cap or singular basis \
             (EXPLAIN CHECK reports badly scaled rows as SD012)",
        )),
    }
}
