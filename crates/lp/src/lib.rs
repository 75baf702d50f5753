//! # lp — linear and mixed-integer programming
//!
//! From-scratch solvers standing in for the CBC/GLPK solvers the paper's
//! `solverlp` wraps: a bounded-variable revised simplex ([`simplex`]) and
//! a branch-and-bound MIP solver ([`mip`]) on top of it.
//!
//! Problems are expressed in the natural SolveDB+ shape: variables with
//! (possibly infinite) bounds and optional integrality, linear
//! constraints `a'x ⋈ b`, and a linear objective.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod factor;
pub mod matrix;
pub mod mip;
pub mod simplex;

use std::fmt;

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    Le,
    Eq,
    Ge,
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rel::Le => "<=",
            Rel::Eq => "=",
            Rel::Ge => ">=",
        })
    }
}

/// A linear constraint `sum(coeffs) rel rhs`, its coefficients sparse
/// `(variable, coefficient)` pairs in one canonical form: column indices
/// strictly ascending, one entry per column (duplicates summed in the
/// order they were given), no zero entries. [`Constraint::new`] puts
/// them in that form and nothing else can write them, so every pass —
/// presolve, the matrix classification, the simplex tableau, the
/// search's rounding — reads a row as it is.
#[derive(Debug, Clone)]
pub struct Constraint {
    coeffs: Vec<(usize, f64)>,
    pub rel: Rel,
    pub rhs: f64,
}

impl Constraint {
    /// A list already in canonical form — every row the SQL compiler
    /// lowers — costs one scan.
    pub fn new(mut coeffs: Vec<(usize, f64)>, rel: Rel, rhs: f64) -> Constraint {
        if !coeffs.windows(2).all(|w| w[0].0 < w[1].0) {
            coeffs.sort_by_key(|&(j, _)| j);
            coeffs.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
        }
        coeffs.retain(|&(_, a)| a != 0.0);
        Constraint { coeffs, rel, rhs }
    }

    /// The coefficients, in canonical form.
    pub fn coeffs(&self) -> &[(usize, f64)] {
        &self.coeffs
    }
}

/// A linear (or mixed-integer) program.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    /// Number of structural variables.
    pub num_vars: usize,
    /// Sparse objective coefficients (duplicates summed).
    pub objective: Vec<(usize, f64)>,
    /// Constant term of the objective (reported, not optimized).
    pub objective_constant: f64,
    /// Minimize (true) or maximize (false).
    pub minimize: bool,
    pub constraints: Vec<Constraint>,
    /// Per-variable bounds; use `f64::NEG_INFINITY`/`f64::INFINITY` for free.
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    /// Per-variable integrality flags.
    pub integer: Vec<bool>,
}

impl Problem {
    /// A minimization problem with `n` variables, free by default.
    pub fn minimize(n: usize) -> Problem {
        Problem {
            num_vars: n,
            objective: vec![],
            objective_constant: 0.0,
            minimize: true,
            constraints: vec![],
            lower: vec![f64::NEG_INFINITY; n],
            upper: vec![f64::INFINITY; n],
            integer: vec![false; n],
        }
    }

    pub fn maximize(n: usize) -> Problem {
        let mut p = Problem::minimize(n);
        p.minimize = false;
        p
    }

    /// Add a variable, returning its index.
    pub fn add_var(&mut self, lower: f64, upper: f64, integer: bool) -> usize {
        self.num_vars += 1;
        self.lower.push(lower);
        self.upper.push(upper);
        self.integer.push(integer);
        self.num_vars - 1
    }

    /// Every index must name an existing variable: a problem with a
    /// coefficient on a column it does not have is not solved
    /// ([`Status::NotConverged`]).
    pub fn set_objective(&mut self, coeffs: Vec<(usize, f64)>) {
        debug_assert!(
            coeffs.iter().all(|&(j, _)| j < self.num_vars),
            "objective names column >= {}",
            self.num_vars
        );
        self.objective = coeffs;
    }

    /// Every index must name an existing variable, as for
    /// [`Problem::set_objective`]; the row is stored in canonical form
    /// ([`Constraint::new`]).
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, rel: Rel, rhs: f64) {
        debug_assert!(
            coeffs.iter().all(|&(j, _)| j < self.num_vars),
            "constraint names column >= {}",
            self.num_vars
        );
        self.constraints.push(Constraint::new(coeffs, rel, rhs));
    }

    pub fn set_bounds(&mut self, var: usize, lower: f64, upper: f64) {
        self.lower[var] = lower;
        self.upper[var] = upper;
    }

    /// Tighten bounds (intersect with existing).
    pub fn tighten(&mut self, var: usize, lower: f64, upper: f64) {
        self.lower[var] = self.lower[var].max(lower);
        self.upper[var] = self.upper[var].min(upper);
    }

    pub fn has_integers(&self) -> bool {
        self.integer.iter().any(|&b| b)
    }

    /// Objective value of a candidate point (including the constant term).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective_constant + self.objective.iter().map(|&(j, c)| c * x[j]).sum::<f64>()
    }

    /// Check feasibility of a point within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        let integral = |j: usize| !self.integer[j] || (x[j] - x[j].round()).abs() <= tol;
        (0..self.num_vars).all(integral) && self.holds(x, tol)
    }

    /// Whether a point satisfies the bounds and rows within `tol`,
    /// integrality aside.
    pub fn holds(&self, x: &[f64], tol: f64) -> bool {
        for j in 0..self.num_vars {
            if x[j] < self.lower[j] - tol || x[j] > self.upper[j] + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.coeffs().iter().map(|&(j, a)| a * x[j]).sum();
            let ok = match c.rel {
                Rel::Le => lhs <= c.rhs + tol,
                Rel::Ge => lhs >= c.rhs - tol,
                Rel::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Outcome status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Optimal,
    Infeasible,
    Unbounded,
    /// Branch-and-bound hit its node limit before proving optimality.
    NodeLimit,
    /// The caller's progress callback asked the search to stop (solver
    /// watchdog: timeout or kill). The best incumbent found so far — if
    /// any — is in the solution.
    Interrupted,
    /// The simplex hit its iteration cap or a singular basis it could
    /// not recover from, or the problem names a column it does not
    /// have; there is no solution to report.
    NotConverged,
}

/// A solve result.
#[derive(Debug, Clone)]
pub struct Solution {
    pub status: Status,
    /// Variable values (meaningful when status is Optimal/NodeLimit).
    pub x: Vec<f64>,
    /// Objective value including the constant term.
    pub objective: f64,
    /// Simplex iterations (pivots). For a MIP this is the sum over all
    /// LP relaxations solved during branch-and-bound.
    pub iterations: usize,
    /// Branch-and-bound nodes explored. Zero for a pure LP solve.
    pub nodes: usize,
}

impl Solution {
    pub fn infeasible() -> Solution {
        Solution {
            status: Status::Infeasible,
            x: vec![],
            objective: f64::NAN,
            iterations: 0,
            nodes: 0,
        }
    }

    pub fn unbounded() -> Solution {
        Solution {
            status: Status::Unbounded,
            x: vec![],
            objective: f64::NAN,
            iterations: 0,
            nodes: 0,
        }
    }

    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }
}

/// Solve a problem: LP via simplex, MIP via branch-and-bound.
pub fn solve(p: &Problem) -> Solution {
    if p.has_integers() {
        mip::branch_and_bound(p, mip::MipOptions::default())
    } else {
        simplex::solve_lp(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_builders() {
        let mut p = Problem::maximize(0);
        let x = p.add_var(0.0, 10.0, false);
        let y = p.add_var(0.0, f64::INFINITY, true);
        assert_eq!((x, y), (0, 1));
        p.set_objective(vec![(x, 1.0), (y, 2.0)]);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Rel::Le, 5.0);
        assert!(p.has_integers());
        assert_eq!(p.objective_value(&[1.0, 2.0]), 5.0);
        assert!(p.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!p.is_feasible(&[4.0, 2.0], 1e-9));
        assert!(!p.is_feasible(&[1.0, 1.5], 1e-9)); // y integral
    }

    #[test]
    fn tighten_intersects() {
        let mut p = Problem::minimize(1);
        p.set_bounds(0, 0.0, 10.0);
        p.tighten(0, 2.0, 20.0);
        assert_eq!((p.lower[0], p.upper[0]), (2.0, 10.0));
    }
}
