//! Model reduction for `lp::Problem`: run the interval fixpoint, build
//! a smaller problem (fixed variables substituted out, redundant and
//! singleton rows removed, bounds tightened), cancel nonzeros among its
//! rows ([`cancel`](super::cancel)), and un-crush solutions of the
//! reduced problem back into the original variable space.

use super::cancel::cancel_nonzeros;
use super::{
    propagate, sort_and_merge, Counts, DropCause, FixCause, Infeasibility, Interval, Model,
    Outcome, Reduction, Row, RowRel,
};
use crate::compile::CompiledModel;
use crate::explain::{render_row, var_name};

/// The result of presolving an [`lp::Problem`].
#[derive(Debug, Clone)]
pub struct Presolved {
    /// Variable count of the original problem.
    pub original_vars: usize,
    /// Row count of the original problem (after coefficient merging).
    pub original_rows: usize,
    /// The fixpoint outcome: intervals, fixings, reduction log.
    pub outcome: Outcome,
    /// The reduced problem (empty when the model is proven infeasible).
    pub reduced: lp::Problem,
    /// Reduced-space index → original variable index.
    pub kept: Vec<usize>,
    /// Nonzeros of the reduced problem's rows before and after nonzero
    /// cancellation.
    pub nonzeros: (usize, usize),
}

impl Presolved {
    pub fn infeasible(&self) -> bool {
        self.outcome.infeasible.is_some()
    }

    pub fn counts(&self) -> Counts {
        self.outcome.counts()
    }

    /// Nonzeros the cancellation step removed from the reduced rows.
    pub fn nonzeros_cancelled(&self) -> usize {
        self.nonzeros.0 - self.nonzeros.1
    }

    /// Map a reduced-space point back onto the original variables:
    /// kept variables take the solved value, fixed variables their
    /// propagated value.
    pub fn uncrush(&self, x: &[f64]) -> Vec<f64> {
        let mut full = vec![0.0; self.original_vars];
        for (j, f) in self.outcome.fixed.iter().enumerate() {
            if let Some(v) = f {
                full[j] = *v;
            }
        }
        for (new, &old) in self.kept.iter().enumerate() {
            full[old] = x[new];
        }
        full
    }

    /// Un-crush a whole solution. The objective needs no adjustment:
    /// fixed variables' objective contributions were folded into the
    /// reduced problem's `objective_constant`.
    pub fn uncrush_solution(&self, sol: lp::Solution) -> lp::Solution {
        if sol.x.len() != self.kept.len() {
            // Infeasible/unbounded outcomes (and node-limited runs with
            // no incumbent) carry no point to map back.
            return sol;
        }
        let x = self.uncrush(&sol.x);
        lp::Solution { x, ..sol }
    }
}

/// Normalize an `lp::Problem` into the abstract [`Model`]: bounds
/// become intervals, `>=` rows are negated into `<=`, duplicate
/// coefficients are merged and zeros dropped. Rows keep their original
/// index so the reduction log stays renderable against the input.
pub fn model_of(p: &lp::Problem) -> Model {
    let intervals =
        (0..p.num_vars).map(|j| Interval::new(p.lower[j], p.upper[j])).collect::<Vec<_>>();
    let rows = p.constraints.iter().map(row_of).collect();
    Model { intervals, integer: p.integer.clone(), rows }
}

fn row_of(c: &lp::Constraint) -> Row {
    let (mut coeffs, mut rhs) = (c.coeffs.clone(), c.rhs);
    sort_and_merge(&mut coeffs);
    let rel = match c.rel {
        lp::Rel::Le => RowRel::Le,
        lp::Rel::Eq => RowRel::Eq,
        lp::Rel::Ge => {
            for t in &mut coeffs {
                t.1 = -t.1;
            }
            rhs = -rhs;
            RowRel::Le
        }
    };
    Row { coeffs, rel, rhs }
}

/// Presolve an LP/MIP: propagate intervals to a fixpoint, build the
/// reduced problem, cancel nonzeros among its rows. Sound by
/// construction — the feasible set is preserved (bounds only shrink to
/// implied bounds; removed rows are implied by the surviving box; a row
/// changes only by a multiple of an equality row), so optimal objective
/// values match.
pub fn reduce(p: &lp::Problem) -> Presolved {
    let model = model_of(p);
    let outcome = propagate(&model);
    reduce_with(p, &model, outcome)
}

/// [`reduce`], given `model_of(p)` and the fixpoint already reached
/// over it.
pub fn reduce_with(p: &lp::Problem, model: &Model, outcome: Outcome) -> Presolved {
    let original_rows = model.rows.len();

    if outcome.infeasible.is_some() {
        return Presolved {
            original_vars: p.num_vars,
            original_rows,
            outcome,
            reduced: if p.minimize { lp::Problem::minimize(0) } else { lp::Problem::maximize(0) },
            kept: vec![],
            nonzeros: (0, 0),
        };
    }

    let kept: Vec<usize> = (0..p.num_vars).filter(|&j| outcome.fixed[j].is_none()).collect();
    let mut remap = vec![usize::MAX; p.num_vars];
    for (new, &old) in kept.iter().enumerate() {
        remap[old] = new;
    }

    let mut r = if p.minimize {
        lp::Problem::minimize(kept.len())
    } else {
        lp::Problem::maximize(kept.len())
    };
    for (new, &old) in kept.iter().enumerate() {
        r.lower[new] = outcome.intervals[old].lo;
        r.upper[new] = outcome.intervals[old].hi;
        r.integer[new] = p.integer[old];
    }

    // Objective: fixed variables contribute constants.
    let mut constant = p.objective_constant;
    let mut objective = Vec::new();
    for &(j, c) in &p.objective {
        match outcome.fixed[j] {
            Some(v) => constant += c * v,
            None => objective.push((remap[j], c)),
        }
    }
    r.objective_constant = constant;
    r.set_objective(objective);

    // Surviving rows with fixed variables substituted out.
    for (ri, row) in model.rows.iter().enumerate() {
        if !outcome.live[ri] {
            continue;
        }
        let mut coeffs = Vec::with_capacity(row.coeffs.len());
        let mut rhs = row.rhs;
        for &(j, c) in &row.coeffs {
            match outcome.fixed[j] {
                Some(v) => rhs -= c * v,
                None => coeffs.push((remap[j], c)),
            }
        }
        if coeffs.is_empty() {
            continue; // fully substituted; propagation proved it holds
        }
        let rel = match row.rel {
            RowRel::Le => lp::Rel::Le,
            RowRel::Eq => lp::Rel::Eq,
        };
        r.add_constraint(coeffs, rel, rhs);
    }

    let nonzeros = cancel_nonzeros(&mut r);
    Presolved { original_vars: p.num_vars, original_rows, outcome, reduced: r, kept, nonzeros }
}

// ---------------------------------------------------------------------------
// EXPLAIN PRESOLVE rendering
// ---------------------------------------------------------------------------

/// How many reduction-log lines render before eliding the rest.
const MAX_LOG_LINES: usize = 40;

/// Presolve the compiled model's LP and render the reduction log — the
/// body of `EXPLAIN PRESOLVE SOLVESELECT`. Models that do not compile
/// to a linear program get a one-line explanation instead of an error:
/// presolve simply does not apply to them.
pub fn explain_presolve(m: &CompiledModel<'_>) -> Vec<String> {
    if let Some(failure) = m.first_failure() {
        return vec![format!(
            "presolve: rules do not compile to a linear program; no reductions apply ({})",
            failure.error
        )];
    }
    let low = m.lowered();
    let propagated = m.propagated();
    let pre = reduce_with(&low.problem, &propagated.model, propagated.outcome.clone());
    let name = |j: usize| var_name(m.prob, low.used[j]);
    // A normalized engine row back in `alias[row].col` terms.
    let row = |i: usize| {
        let r = &propagated.model.rows[i];
        let op = match r.rel {
            RowRel::Le => "<=",
            RowRel::Eq => "=",
        };
        render_row(m.prob, r.coeffs.iter().map(|&(j, c)| (low.used[j], c)), op, r.rhs)
    };

    let mut lines = Vec::new();
    if let Some(inf) = &pre.outcome.infeasible {
        lines.push("presolve: interval propagation proves the model infeasible".to_string());
        lines.push(match inf {
            Infeasibility::RowActivity { row: i, minact, maxact } => format!(
                "  row '{}' cannot hold: activity stays within [{minact}, {maxact}]",
                row(*i),
            ),
            Infeasibility::EmptyBounds { var } => {
                format!("  the constraints imply contradictory bounds on {}", name(*var))
            }
        });
        return lines;
    }

    lines.push(format!(
        "presolve: {} vars, {} rows -> {} vars, {} rows",
        pre.original_vars,
        pre.original_rows,
        pre.reduced.num_vars,
        pre.reduced.constraints.len()
    ));
    let mut entries = Vec::new();
    for r in &pre.outcome.log {
        entries.push(match r {
            Reduction::Tightened { var, upper, old, new } => {
                let side = if *upper { "upper" } else { "lower" };
                format!("  tightened {}: {side} {old} -> {new}", name(*var))
            }
            Reduction::Fixed { var, value, cause } => {
                let why = match cause {
                    FixCause::Propagation => "bound propagation",
                    FixCause::Forcing => "forcing row",
                    FixCause::SingletonRow => "singleton equality",
                };
                format!("  fixed {} = {value} ({why})", name(*var))
            }
            Reduction::RowDropped { row: i, cause } => {
                let why = match cause {
                    DropCause::Redundant => "redundant",
                    DropCause::Forcing => "forcing",
                    DropCause::Singleton => "singleton",
                    DropCause::Empty => "empty",
                };
                format!("  removed row '{}' ({why})", row(*i))
            }
        });
    }
    let extra = entries.len().saturating_sub(MAX_LOG_LINES);
    lines.extend(entries.into_iter().take(MAX_LOG_LINES));
    if extra > 0 {
        lines.push(format!("  ... and {extra} more reductions"));
    }
    let c = pre.counts();
    lines.push(format!(
        "variables fixed: {}, bounds tightened: {}, rows removed: {}",
        c.cols_removed, c.bounds_tightened, c.rows_removed
    ));
    if pre.nonzeros_cancelled() > 0 {
        let (before, after) = pre.nonzeros;
        lines.push(format!(
            "nonzeros cancelled: {} ({before} -> {after})",
            pre.nonzeros_cancelled()
        ));
    }
    if pre.reduced.num_vars == 0 {
        lines.push("all variables fixed by propagation; no solver call needed".to_string());
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_preserves_the_optimum() {
        // min x + y  s.t.  x = 2, x + y >= 5, y <= 100 (redundant),
        // 0 <= x,y <= 50. Optimum: x=2, y=3, obj 5.
        let mut p = lp::Problem::minimize(2);
        p.set_objective(vec![(0, 1.0), (1, 1.0)]);
        p.tighten(0, 0.0, 50.0);
        p.tighten(1, 0.0, 50.0);
        p.add_constraint(vec![(0, 1.0)], lp::Rel::Eq, 2.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], lp::Rel::Ge, 5.0);
        p.add_constraint(vec![(1, 1.0)], lp::Rel::Le, 100.0);

        let pre = reduce(&p);
        assert!(!pre.infeasible());
        assert_eq!(pre.reduced.num_vars, 1); // x fixed at 2
        let reduced_sol = lp::solve(&pre.reduced);
        assert_eq!(reduced_sol.status, lp::Status::Optimal);
        let full = pre.uncrush_solution(reduced_sol.clone());
        assert!((full.objective - 5.0).abs() < 1e-6);
        assert!((full.x[0] - 2.0).abs() < 1e-6);
        assert!((full.x[1] - 3.0).abs() < 1e-6);

        let direct = lp::solve(&p);
        assert!((direct.objective - full.objective).abs() < 1e-6);
    }

    #[test]
    fn fully_fixed_model_reduces_to_zero_variables() {
        let mut p = lp::Problem::maximize(1);
        p.set_objective(vec![(0, 3.0)]);
        p.add_constraint(vec![(0, 1.0)], lp::Rel::Eq, 4.0);
        let pre = reduce(&p);
        assert_eq!(pre.reduced.num_vars, 0);
        assert_eq!(pre.reduced.constraints.len(), 0);
        assert!((pre.reduced.objective_constant - 12.0).abs() < 1e-9);
        assert_eq!(pre.uncrush(&[]), vec![4.0]);
    }

    #[test]
    fn infeasible_models_are_caught_before_the_solver() {
        let mut p = lp::Problem::minimize(1);
        p.tighten(0, 0.0, 1.0);
        p.add_constraint(vec![(0, 1.0)], lp::Rel::Ge, 2.0);
        let pre = reduce(&p);
        assert!(pre.infeasible());
    }

    #[test]
    fn integer_rounding_makes_relaxation_integral() {
        // max x, x integer, 2x <= 7 → presolve gives x <= 3; the LP
        // relaxation of the reduced problem is already integral.
        let mut p = lp::Problem::maximize(1);
        p.set_objective(vec![(0, 1.0)]);
        p.integer[0] = true;
        p.tighten(0, 0.0, f64::INFINITY);
        p.add_constraint(vec![(0, 2.0)], lp::Rel::Le, 7.0);
        let pre = reduce(&p);
        assert_eq!(pre.reduced.upper[0], 3.0);
        let (sol, stats) = lp::mip::branch_and_bound_stats(&pre.reduced, Default::default());
        assert_eq!(sol.status, lp::Status::Optimal);
        assert!((sol.objective - 3.0).abs() < 1e-6);
        // An integral root relaxation means no branching at all.
        assert_eq!(stats.nodes_explored, 0, "root relaxation should be integral");

        // Without presolve the relaxation tops out at x = 3.5 and the
        // search has to branch.
        let (off_sol, off_stats) = lp::mip::branch_and_bound_stats(&p, Default::default());
        assert!((off_sol.objective - 3.0).abs() < 1e-6);
        assert!(off_stats.nodes_explored > stats.nodes_explored);
    }

    #[test]
    fn counts_report_removed_structure() {
        let mut p = lp::Problem::minimize(2);
        p.tighten(0, 0.0, 1.0);
        p.tighten(1, 0.0, 1.0);
        p.add_constraint(vec![(0, 1.0)], lp::Rel::Eq, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], lp::Rel::Le, 10.0);
        let pre = reduce(&p);
        let c = pre.counts();
        assert_eq!(c.cols_removed, 1);
        assert_eq!(c.rows_removed, 2);
    }

    #[test]
    fn ge_rows_normalize_and_duplicate_coefficients_merge() {
        let c = lp::Constraint::new(vec![(0, 1.0), (0, 1.0), (1, 0.0)], lp::Rel::Ge, 4.0);
        let row = row_of(&c);
        assert_eq!(row.rel, RowRel::Le);
        assert_eq!(row.coeffs, vec![(0, -2.0)]);
        assert_eq!(row.rhs, -4.0);
    }
}
