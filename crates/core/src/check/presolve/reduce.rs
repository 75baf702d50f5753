//! Model reduction for `lp::Problem`: run the interval fixpoint over the
//! problem's own rows, build a smaller problem from its outcome (fixed
//! variables substituted out, redundant and singleton rows removed,
//! bounds tightened, free columns substituted out of two-entry
//! equalities), and un-crush solutions of the reduced problem back into
//! the original variable space. The only rows this module copies are the
//! live ones it rewrites (`Working`), which become the reduced
//! problem's.

use super::{
    contrib, propagate, DropCause, FixCause, Infeasibility, Interval, Outcome, Reduction, Row,
};
use crate::compile::CompiledModel;
use crate::explain::{render_row, var_name};

/// A column substituted out of the reduced problem through the equality
/// `a·col + b·other = rhs` (original column indices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Substitution {
    pub col: usize,
    pub a: f64,
    pub other: usize,
    pub b: f64,
    pub rhs: f64,
}

/// The result of presolving an [`lp::Problem`].
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The fixpoint outcome over the original problem: intervals and
    /// fixings per variable, liveness per row, the reduction log.
    pub outcome: Outcome,
    /// The reduced problem (empty when the model is proven infeasible).
    pub reduced: lp::Problem,
    /// Reduced-space index → original variable index.
    pub kept: Vec<usize>,
    /// The columns substituted out, in the order they were.
    pub substituted: Vec<Substitution>,
}

impl Presolved {
    pub fn infeasible(&self) -> bool {
        self.outcome.infeasible.is_some()
    }

    /// Map a reduced-space point back onto the original variables:
    /// kept variables take the solved value, fixed variables their
    /// propagated value, substituted ones their equality's, last first.
    pub fn uncrush(&self, x: &[f64]) -> Vec<f64> {
        let mut full = vec![0.0; self.outcome.fixed.len()];
        for (j, f) in self.outcome.fixed.iter().enumerate() {
            if let Some(v) = f {
                full[j] = *v;
            }
        }
        for (new, &old) in self.kept.iter().enumerate() {
            full[old] = x[new];
        }
        for s in self.substituted.iter().rev() {
            full[s.col] = (s.rhs - s.b * full[s.other]) / s.a;
        }
        full
    }

    /// Un-crush a whole solution and [read it out](read_out) against
    /// `stated`, the problem presolved. The objective needs no
    /// adjustment: removed variables' contributions were folded in.
    pub fn uncrush_solution(&self, stated: &lp::Problem, sol: lp::Solution) -> lp::Solution {
        if sol.x.len() != self.kept.len() {
            // Infeasible/unbounded outcomes (and node-limited runs with
            // no incumbent) carry no point to map back.
            return sol;
        }
        let x = self.uncrush(&sol.x);
        read_out(stated, lp::Solution { x, ..sol })
    }
}

/// The last check before an `Optimal` solution leaves the solver: a
/// point that misses a row or bound of `stated` (the problem as
/// lowered) by more than 1e-6 is no optimum, whatever the kernel says,
/// and reads out as `NotConverged`. Integrality is branch-and-bound's.
pub fn read_out(stated: &lp::Problem, mut sol: lp::Solution) -> lp::Solution {
    if sol.status == lp::Status::Optimal && !stated.holds(&sol.x, 1e-6) {
        sol.status = lp::Status::NotConverged;
    }
    sol
}

/// A live row as the reducer rewrites it: fixed columns substituted
/// out, then doubletons; a `>=` row as the `<=` row [`Row`] reads it as.
/// Canonical throughout, as the reduced problem's rows are.
#[derive(Debug)]
struct Working {
    coeffs: Vec<(usize, f64)>,
    rel: lp::Rel,
    rhs: f64,
}

/// Presolve an LP/MIP: propagate intervals to a fixpoint, build the
/// reduced problem, substitute free columns out of two-entry
/// equalities. Sound by construction — the feasible set is preserved
/// (bounds only shrink to implied bounds; removed rows are implied by
/// the surviving box; a row changes only by a multiple of an equality
/// row), so optimal objective values match.
pub fn reduce(p: &lp::Problem) -> Presolved {
    reduce_with(p, propagate(p))
}

/// [`reduce`], given the fixpoint [`propagate`] already reached over `p`.
pub fn reduce_with(p: &lp::Problem, outcome: Outcome) -> Presolved {
    if outcome.infeasible.is_some() {
        return Presolved {
            outcome,
            reduced: if p.minimize { lp::Problem::minimize(0) } else { lp::Problem::maximize(0) },
            kept: vec![],
            substituted: vec![],
        };
    }

    // Fixed variables substituted out, over the original columns.
    let mut constant = p.objective_constant;
    let mut objective = Vec::new();
    for &(j, c) in &p.objective {
        match outcome.fixed[j] {
            Some(v) => constant += c * v,
            None => objective.push((j, c)),
        }
    }
    let mut rows: Vec<Option<Working>> = Vec::new();
    for (ri, row) in p.constraints.iter().map(Row::of).enumerate() {
        if !outcome.live[ri] {
            continue;
        }
        let mut coeffs = Vec::new();
        let mut rhs = row.rhs;
        for (j, c) in row.terms() {
            match outcome.fixed[j] {
                Some(v) => rhs -= c * v,
                None => coeffs.push((j, c)),
            }
        }
        // Fully substituted rows are gone: propagation proved they hold.
        if !coeffs.is_empty() {
            let rel = if row.eq { lp::Rel::Eq } else { lp::Rel::Le };
            rows.push(Some(Working { coeffs, rel, rhs }));
        }
    }
    let mut intervals = outcome.intervals.clone();
    let substituted =
        substitute_doubletons(p, &mut rows, &mut objective, &mut constant, &mut intervals);

    let mut gone = vec![false; p.num_vars];
    substituted.iter().for_each(|s| gone[s.col] = true);
    let kept: Vec<usize> =
        (0..p.num_vars).filter(|&j| outcome.fixed[j].is_none() && !gone[j]).collect();
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
        r.lower[new] = intervals[old].lo;
        r.upper[new] = intervals[old].hi;
        r.integer[new] = p.integer[old];
    }
    r.objective_constant = constant;
    r.set_objective(objective.into_iter().map(|(j, c)| (remap[j], c)).collect());
    for Working { mut coeffs, rel, rhs } in rows.into_iter().flatten() {
        coeffs.iter_mut().for_each(|t| t.0 = remap[t.0]);
        r.add_constraint(coeffs, rel, rhs);
    }
    Presolved { outcome, reduced: r, kept, substituted }
}

/// Largest `|b/a|` a substitution may scale another row's entry by.
const MAX_SCALE: f64 = 1e3;

/// Doubleton-equality aggregation, one pass over the rows in order: an
/// equality `a·x + b·y = rhs` whose column x is continuous with no
/// finite bound in `stated` (a recursion's auxiliary column, typically;
/// the larger `|a|` when both qualify) substitutes `x = (rhs − b·y)/a`
/// into every other row and the objective, and goes, with x. x's
/// interval moves onto y: rows propagation dropped as implied may have
/// read it.
fn substitute_doubletons(
    stated: &lp::Problem,
    rows: &mut [Option<Working>],
    objective: &mut Vec<(usize, f64)>,
    constant: &mut f64,
    intervals: &mut [Interval],
) -> Vec<Substitution> {
    let free = |j: usize| {
        !stated.integer[j] && stated.lower[j].is_infinite() && stated.upper[j].is_infinite()
    };
    let doubleton = |row: &Option<Working>| match row {
        Some(Working { coeffs, rel: lp::Rel::Eq, rhs }) if coeffs.len() == 2 => {
            Some((coeffs[0].0, coeffs[0].1, coeffs[1].0, coeffs[1].1, *rhs))
        }
        _ => None,
    };
    if !rows.iter().filter_map(doubleton).any(|(j0, _, j1, _, _)| free(j0) || free(j1)) {
        return Vec::new();
    }
    // The rows each column is in; a list may keep rows the column has
    // since left, skipped when met.
    let mut holding: Vec<Vec<usize>> = vec![Vec::new(); stated.num_vars];
    for (i, row) in rows.iter().enumerate() {
        row.iter().flat_map(|r| &r.coeffs).for_each(|&(j, _)| holding[j].push(i));
    }
    let mut out = Vec::new();
    for i in 0..rows.len() {
        let Some((j0, c0, j1, c1, rhs)) = doubleton(&rows[i]) else { continue };
        let Some((x, a, y, b)) = [(j0, c0, j1, c1), (j1, c1, j0, c0)]
            .into_iter()
            .filter(|&(x, a, _, b)| free(x) && (b / a).abs() <= MAX_SCALE)
            .max_by(|p, q| p.1.abs().total_cmp(&q.1.abs()))
        else {
            continue;
        };
        rows[i] = None;
        // y = rhs/b − (a/b)·x over x's interval.
        let (lo, hi) = contrib(-a / b, intervals[x]);
        let y_iv = &mut intervals[y];
        (y_iv.lo, y_iv.hi) = (y_iv.lo.max(rhs / b + lo), y_iv.hi.min(rhs / b + hi));
        // Every other row holding x: row − (e/a)·(a·x + b·y = rhs).
        for k in std::mem::take(&mut holding[x]) {
            let Some(row) = &mut rows[k] else { continue };
            let Ok(at) = row.coeffs.binary_search_by_key(&x, |&(j, _)| j) else { continue };
            let e = row.coeffs.remove(at).1;
            row.rhs -= e * rhs / a;
            match row.coeffs.binary_search_by_key(&y, |&(j, _)| j) {
                // An entry the fill cancels to rounding is zero: no
                // 1e-17 entry reaches the kernel.
                Ok(at) => {
                    let (old, new) = (row.coeffs[at].1, row.coeffs[at].1 - e * b / a);
                    row.coeffs[at].1 = if new.abs() <= 1e-12 * old.abs() { 0.0 } else { new };
                }
                Err(at) => {
                    row.coeffs.insert(at, (y, -e * b / a));
                    holding[y].push(k);
                }
            }
            row.coeffs.retain(|&(_, c)| c != 0.0);
        }
        let e: f64 = objective.iter().filter(|&&(j, _)| j == x).map(|&(_, c)| c).sum();
        objective.retain(|&(j, _)| j != x);
        if e != 0.0 {
            *constant += e * rhs / a;
            objective.push((y, -e * b / a));
        }
        out.push(Substitution { col: x, a, other: y, b, rhs });
    }
    out
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
pub fn explain_presolve(m: &CompiledModel) -> Vec<String> {
    if let Some(failure) = m.first_failure() {
        return vec![format!(
            "presolve: rules do not compile to a linear program; no reductions apply ({})",
            failure.error
        )];
    }
    let low = m.lowered();
    let pre = reduce_with(&low.problem, m.propagated().clone());
    let name = |j: usize| var_name(m, low.used[j]);
    // A row as the engine reads it, back in `alias[row].col` terms.
    let row = |i: usize| {
        let r = Row::of(&low.problem.constraints[i]);
        let op = if r.eq { "=" } else { "<=" };
        render_row(m, r.terms().map(|(j, c)| (low.used[j], c)), op, r.rhs)
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
        pre.outcome.fixed.len(),
        pre.outcome.live.len(),
        pre.reduced.num_vars,
        pre.reduced.constraints.len()
    ));
    let log = &pre.outcome.log;
    lines.extend(log.iter().take(MAX_LOG_LINES).map(|r| match r {
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
    }));
    let extra = log.len().saturating_sub(MAX_LOG_LINES);
    if extra > 0 {
        lines.push(format!("  ... and {extra} more reductions"));
    }
    let c = pre.outcome.counts();
    lines.push(format!(
        "variables fixed: {}, bounds tightened: {}, rows removed: {}",
        c.cols_removed, c.bounds_tightened, c.rows_removed
    ));
    if !pre.substituted.is_empty() {
        lines.push(format!("columns substituted: {}", pre.substituted.len()));
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
        let full = pre.uncrush_solution(&p, reduced_sol.clone());
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
        let c = pre.outcome.counts();
        assert_eq!(c.cols_removed, 1);
        assert_eq!(c.rows_removed, 2);
    }

    /// `min x + y` over `y − 2·s = 1`, `s + x >= 3` and `x − y <= 4`,
    /// with `x, y` in [0, 10] and `s` as `column` declares it. The LP
    /// optimum is x = 3.5, y = 0, s = −0.5.
    fn doubleton(column: impl FnOnce(&mut lp::Problem)) -> lp::Problem {
        let mut p = lp::Problem::minimize(3);
        p.set_objective(vec![(0, 1.0), (1, 1.0)]);
        p.tighten(0, 0.0, 10.0);
        p.tighten(1, 0.0, 10.0);
        p.lower[2] = f64::NEG_INFINITY;
        column(&mut p);
        p.add_constraint(vec![(1, 1.0), (2, -2.0)], lp::Rel::Eq, 1.0);
        p.add_constraint(vec![(2, 1.0), (0, 1.0)], lp::Rel::Ge, 3.0);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], lp::Rel::Le, 4.0);
        p
    }

    #[test]
    fn a_free_column_is_substituted_out_and_uncrushed() {
        let p = doubleton(|_| {});
        let pre = reduce(&p);
        assert_eq!(pre.substituted, [Substitution { col: 2, a: -2.0, other: 1, b: 1.0, rhs: 1.0 }]);
        // s = (y − 1)/2 in `−x − s <= −3`: `−x − 0.5·y <= −3.5`.
        assert_eq!((pre.kept.as_slice(), pre.reduced.constraints.len()), (&[0, 1][..], 2));
        let row = &pre.reduced.constraints[0];
        assert_eq!(row.coeffs(), [(0, -1.0), (1, -0.5)]);
        assert_eq!((row.rel, row.rhs), (lp::Rel::Le, -3.5));
        let sol = pre.uncrush_solution(&p, lp::solve(&pre.reduced));
        assert_eq!(sol.status, lp::Status::Optimal);
        assert!((sol.objective - 3.5).abs() < 1e-9, "{sol:?}");
        assert!((sol.x[2] + 0.5).abs() < 1e-9, "s un-crushed from its row: {:?}", sol.x);
    }

    /// Presolved, solved (by branch-and-bound) and un-crushed, with no
    /// column substituted out.
    fn solved_as_stated(p: &lp::Problem) -> lp::Solution {
        let pre = reduce(p);
        assert!(pre.substituted.is_empty(), "{:?}", pre.substituted);
        assert_eq!(pre.reduced.num_vars, 3);
        let (sol, _) = lp::mip::branch_and_bound_stats(&pre.reduced, Default::default());
        pre.uncrush_solution(p, sol)
    }

    #[test]
    fn a_bounded_column_is_not_substituted() {
        let sol = solved_as_stated(&doubleton(|p| p.upper[2] = 100.0));
        assert!((sol.objective - 3.5).abs() < 1e-9, "{sol:?}");
    }

    #[test]
    fn an_integer_column_is_not_substituted() {
        // The integer s is 0 at best: x = 3, y = 1.
        let sol = solved_as_stated(&doubleton(|p| p.integer[2] = true));
        assert!((sol.objective - 4.0).abs() < 1e-9, "{sol:?}");
    }

    /// `max w` over `w` in [0, 10] and a chain `z_k = z_{k−1} + 1`
    /// (`z_0 = w`) of free columns, rows in chain order, with `z_20 <=
    /// 25` stated first: propagation carries that bound back one link a
    /// pass and stops short of `w`, so only the intervals the
    /// substituted columns leave on `w` hold it at 5.
    #[test]
    fn a_substituted_column_leaves_its_interval_on_the_other() {
        let mut p = lp::Problem::maximize(21);
        p.set_objective(vec![(0, 1.0)]);
        p.tighten(0, 0.0, 10.0);
        for k in 1..=20 {
            p.lower[k] = f64::NEG_INFINITY;
        }
        p.add_constraint(vec![(20, 1.0)], lp::Rel::Le, 25.0);
        for k in 1..=20 {
            p.add_constraint(vec![(k, 1.0), (k - 1, -1.0)], lp::Rel::Eq, 1.0);
        }
        let pre = reduce(&p);
        assert!(pre.outcome.intervals[0].hi > 5.0, "propagation reached w");
        assert_eq!(pre.substituted.len(), 20);
        assert_eq!(pre.reduced.upper, [5.0]);
        let sol = pre.uncrush_solution(&p, lp::solve(&pre.reduced));
        assert_eq!(sol.status, lp::Status::Optimal);
        assert!((sol.objective - 5.0).abs() < 1e-9, "{sol:?}");
        assert!((sol.x[20] - 25.0).abs() < 1e-9, "{:?}", sol.x);
    }

    /// `3·z − 3·0.1·w = 3` substituted into `z − 0.1·w + v <= 5`: the
    /// fill on `w` cancels its entry up to a rounding of 1.4e-17, which
    /// does not reach the kernel.
    #[test]
    fn a_fill_that_cancels_to_rounding_leaves_no_entry() {
        let mut p = lp::Problem::maximize(3);
        p.set_objective(vec![(1, 1.0), (2, 1.0)]);
        p.tighten(1, 0.0, 10.0);
        p.tighten(2, 0.0, 10.0);
        p.lower[0] = f64::NEG_INFINITY;
        p.add_constraint(vec![(0, 3.0), (1, -3.0 * 0.1)], lp::Rel::Eq, 3.0);
        p.add_constraint(vec![(0, 1.0), (1, -0.1), (2, 1.0)], lp::Rel::Le, 5.0);
        assert_ne!(3.0 * 0.1 / 3.0, 0.1, "the fill is not exact");
        let pre = reduce(&p);
        assert_eq!(pre.substituted.len(), 1);
        let row = &pre.reduced.constraints[0];
        assert_eq!((row.coeffs(), row.rhs), (&[(1, 1.0)][..], 4.0));
    }

    #[test]
    fn a_point_off_the_stated_rows_reads_out_as_not_converged() {
        let p = doubleton(|_| {});
        let at = |x: Vec<f64>| lp::Solution {
            status: lp::Status::Optimal,
            x,
            objective: 3.5,
            iterations: 0,
            nodes: 0,
        };
        assert_eq!(read_out(&p, at(vec![3.5, 0.0, -0.5])).status, lp::Status::Optimal);
        assert_eq!(read_out(&p, at(vec![3.5, 0.0, -0.5 + 1e-5])).status, lp::Status::NotConverged);
        assert_eq!(read_out(&p, at(vec![3.5, -1e-5, -0.5])).status, lp::Status::NotConverged);
        let infeasible = lp::Solution { status: lp::Status::Infeasible, ..at(vec![]) };
        assert_eq!(read_out(&p, infeasible).status, lp::Status::Infeasible);
    }
}
