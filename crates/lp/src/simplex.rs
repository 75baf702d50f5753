//! Bounded-variable revised simplex as one persistent, re-solvable
//! kernel: [`Simplex`] builds the columns of a [`Problem`] once, solves
//! it cold (two-phase artificial start, Dantzig pricing with a Bland
//! anti-cycling fallback) and re-solves it after bound changes from a
//! saved [`Basis`] with a bounded dual simplex. The basis inverse is an
//! explicit dense matrix with periodic refactorization; `ftran`, row
//! `r` of B⁻¹, the elementary update in `pivot` and `refactorize` are
//! the only operations that know that.
//!
//! The bounded-variable formulation keeps the basis dimension equal to
//! the number of *constraints* (not variables), which is what makes the
//! knapsack-style problems of the paper's UC2 (thousands of variables,
//! one capacity row) cheap.

use crate::{Problem, Rel, Solution, Status};
use std::sync::atomic::{AtomicU64, Ordering};

const TOL: f64 = 1e-9;
const PIVOT_TOL: f64 = 1e-10;
/// A sum of infeasibilities above this proves the problem infeasible;
/// phase 1 and the dual simplex share it so both give the same verdict.
const INFEASIBLE_TOL: f64 = 1e-6;
/// Refactorize the basis inverse after this many pivots.
const REFACTOR_EVERY: usize = 128;
/// Switch to Bland's rule after this many consecutive degenerate pivots.
const DEGENERATE_LIMIT: usize = 64;

/// Cold solves that ended [`Status::NotConverged`], process-wide.
static NOT_CONVERGED: AtomicU64 = AtomicU64::new(0);

/// How many cold solves in this process ended [`Status::NotConverged`]
/// (iteration cap or a singular basis). Test suites assert it stays 0
/// over everything the repository ships.
pub fn not_converged_total() -> u64 {
    NOT_CONVERGED.load(Ordering::Relaxed)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarStatus {
    Basic,
    AtLower,
    AtUpper,
    /// Nonbasic free variable (value 0).
    FreeZero,
}

/// Where a nonbasic column rests: at a finite bound, the lower one
/// preferred, or at zero when it has none.
fn rest_status(lower: f64, upper: f64) -> VarStatus {
    if lower.is_finite() {
        VarStatus::AtLower
    } else if upper.is_finite() {
        VarStatus::AtUpper
    } else {
        VarStatus::FreeZero
    }
}

/// A snapshot of a simplex basis, taken with [`Simplex::basis`] and
/// handed back to [`Simplex::resolve_from`]: one byte per column
/// (structural, slack, artificial) plus the basic columns in row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    status: Vec<VarStatus>,
    basic: Vec<usize>,
}

/// What a [`Simplex`] has done since it was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// [`Simplex::resolve_from`] calls answered from the given basis.
    pub warm_starts: usize,
    /// [`Simplex::resolve_from`] calls that fell back to a cold solve:
    /// the basis was singular or the warm run did not converge.
    pub cold_starts: usize,
    /// Dual simplex pivots (a subset of the iterations solves report).
    pub dual_pivots: usize,
    /// Times B⁻¹ was recomputed from the basis columns.
    pub refactorizations: usize,
}

/// The simplex tableau of one [`Problem`], kept between solves. Between
/// calls it is in phase-2 form: real costs, artificials fixed at zero.
pub struct Simplex<'a> {
    p: &'a Problem,
    m: usize,
    /// Structural column count.
    n: usize,
    /// Total column count: structural + slacks + artificials.
    n_total: usize,
    /// Sparse columns (row, coefficient); artificial `i` is `+e_i`.
    cols: Vec<Vec<(usize, f64)>>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    b: Vec<f64>,
    status: Vec<VarStatus>,
    basis: Vec<usize>,
    /// Dense row-major m×m basis inverse.
    binv: Vec<f64>,
    /// Basic variable values, aligned with `basis`.
    xb: Vec<f64>,
    since_refactor: usize,
    /// Iteration cap of one primal phase or one dual run.
    max_iter: usize,
    counters: Counters,
}

impl<'a> Simplex<'a> {
    /// Build the tableau of `p` (integrality flags ignored).
    pub fn new(p: &'a Problem) -> Simplex<'a> {
        let m = p.constraints.len();
        let n = p.num_vars;
        let n_total = n + m + m;
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_total];
        let mut b = vec![0.0; m];
        for (i, c) in p.constraints.iter().enumerate() {
            b[i] = c.rhs;
            for &(j, a) in &c.coeffs {
                if j >= n {
                    // Malformed constraint; treat defensively.
                    continue;
                }
                cols[j].push((i, a));
            }
        }
        // Merge duplicate entries per column.
        for col in cols.iter_mut().take(n) {
            col.sort_by_key(|&(r, _)| r);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(col.len());
            for &(r, a) in col.iter() {
                if let Some(last) = merged.last_mut() {
                    if last.0 == r {
                        last.1 += a;
                        continue;
                    }
                }
                merged.push((r, a));
            }
            *col = merged;
        }

        let mut lower = vec![0.0; n_total];
        let mut upper = vec![0.0; n_total];
        lower[..n].copy_from_slice(&p.lower);
        upper[..n].copy_from_slice(&p.upper);
        // Slack s_i: row coefficient +1; bounds encode the relation.
        for i in 0..m {
            let j = n + i;
            cols[j].push((i, 1.0));
            (lower[j], upper[j]) = match p.constraints[i].rel {
                Rel::Le => (0.0, f64::INFINITY),
                Rel::Ge => (f64::NEG_INFINITY, 0.0),
                Rel::Eq => (0.0, 0.0),
            };
            cols[n + m + i].push((i, 1.0));
        }

        // Until the first solve: the artificial basis, the rest nonbasic.
        let mut status: Vec<VarStatus> =
            (0..n + m).map(|j| rest_status(lower[j], upper[j])).collect();
        status.resize(n_total, VarStatus::Basic);
        let mut t = Simplex {
            p,
            m,
            n,
            n_total,
            cols,
            lower,
            upper,
            cost: vec![0.0; n_total],
            b,
            status,
            basis: (n + m..n_total).collect(),
            // Filled by the first solve, cold or warm.
            binv: vec![0.0; m * m],
            xb: vec![0.0; m],
            since_refactor: 0,
            max_iter: 20_000 + 50 * (n + m),
            counters: Counters::default(),
        };
        t.install_phase2();
        t
    }

    /// Current bounds of structural column `j`.
    pub fn bounds(&self, j: usize) -> (f64, f64) {
        (self.lower[j], self.upper[j])
    }

    /// Replace the bounds of structural column `j`; the next solve sees
    /// them.
    pub fn set_bounds(&mut self, j: usize, lower: f64, upper: f64) {
        assert!(j < self.n, "column {j} is not structural");
        self.lower[j] = lower;
        self.upper[j] = upper;
    }

    /// The basis the last solve ended on.
    pub fn basis(&self) -> Basis {
        Basis { status: self.status.clone(), basic: self.basis.clone() }
    }

    /// What this tableau has done so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Solve under the current bounds from the all-artificial basis:
    /// phase 1 drives the artificials to zero, phase 2 optimizes.
    pub fn solve(&mut self) -> Solution {
        let sol = self.solve_cold();
        if sol.status == Status::NotConverged {
            NOT_CONVERGED.fetch_add(1, Ordering::Relaxed);
        }
        sol
    }

    /// Solve under the current bounds starting from `from`, a basis of
    /// this tableau: a bounded dual simplex repairs the bounds `from`
    /// violates, the primal simplex cleans up. A singular `from` or a
    /// run that does not converge is answered by [`Simplex::solve`]
    /// instead, so the result is the cold one either way.
    pub fn resolve_from(&mut self, from: &Basis) -> Solution {
        let (status, iterations) = self.solve_warm(from);
        if status == Status::NotConverged {
            self.counters.cold_starts += 1;
            let mut sol = self.solve();
            sol.iterations += iterations;
            return sol;
        }
        self.counters.warm_starts += 1;
        self.solution(status, iterations)
    }

    /// Crossed bounds are trivially infeasible (branch-and-bound
    /// produces these routinely).
    fn bounds_crossed(&self) -> bool {
        (0..self.n).any(|j| self.lower[j] > self.upper[j] + TOL)
    }

    /// Phase-2 form: real costs, artificials fixed at zero.
    fn install_phase2(&mut self) {
        let (n, m) = (self.n, self.m);
        for j in n + m..self.n_total {
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
            if self.status[j] != VarStatus::Basic {
                self.status[j] = VarStatus::AtLower;
            }
        }
        self.cost.fill(0.0);
        let sign = if self.p.minimize { 1.0 } else { -1.0 };
        for &(j, cj) in &self.p.objective {
            if j < n {
                self.cost[j] += sign * cj;
            }
        }
    }

    fn solve_cold(&mut self) -> Solution {
        if self.bounds_crossed() {
            return Solution::infeasible();
        }
        let (n, m) = (self.n, self.m);
        // Structurals and slacks start nonbasic; the residual
        // r = b − A x0 is what the artificials have to carry.
        let mut resid = self.b.clone();
        for j in 0..n + m {
            self.status[j] = rest_status(self.lower[j], self.upper[j]);
            let v = self.nb_value(j);
            if v != 0.0 {
                for &(r, a) in &self.cols[j] {
                    resid[r] -= a * v;
                }
            }
        }
        // Phase-1 form: minimize Σ|artificial| from the artificial basis.
        self.cost.fill(0.0);
        for i in 0..m {
            let j = n + m + i;
            (self.lower[j], self.upper[j], self.cost[j]) = if resid[i] >= 0.0 {
                (0.0, f64::INFINITY, 1.0)
            } else {
                (f64::NEG_INFINITY, 0.0, -1.0)
            };
            self.status[j] = VarStatus::Basic;
            self.basis[i] = j;
        }
        self.binv.fill(0.0);
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
        }
        let needs_phase1 = resid.iter().any(|v| v.abs() > TOL);
        self.xb = resid;

        let mut iterations = 0usize;
        let mut status = Status::Optimal;
        if needs_phase1 {
            let (st, it) = self.optimize();
            iterations += it;
            let infeasibility: f64 =
                self.basis.iter().zip(&self.xb).map(|(&j, &v)| self.cost[j] * v).sum();
            status = match st {
                // The phase-1 objective is bounded below by 0; this is
                // numeric noise.
                Status::Unbounded => Status::Infeasible,
                Status::Optimal if infeasibility > INFEASIBLE_TOL => Status::Infeasible,
                st => st,
            };
        }
        self.install_phase2();
        if status == Status::Optimal {
            self.recompute_xb();
            let (st, it) = self.optimize();
            iterations += it;
            status = st;
        }
        self.solution(status, iterations)
    }

    fn solve_warm(&mut self, from: &Basis) -> (Status, usize) {
        assert_eq!(from.status.len(), self.n_total, "basis of another problem");
        if self.bounds_crossed() {
            return (Status::Infeasible, 0);
        }
        self.status.copy_from_slice(&from.status);
        self.basis.copy_from_slice(&from.basic);
        // A bound change may have taken away the bound a nonbasic
        // column rested on, or given a free one a bound to rest on.
        for j in 0..self.n_total {
            let keep = match self.status[j] {
                VarStatus::Basic => true,
                VarStatus::AtLower => self.lower[j].is_finite(),
                VarStatus::AtUpper => self.upper[j].is_finite(),
                VarStatus::FreeZero => false,
            };
            if !keep {
                self.status[j] = rest_status(self.lower[j], self.upper[j]);
            }
        }
        if !self.refactorize() {
            return (Status::NotConverged, 0);
        }
        let (status, dual_pivots) = self.dual();
        if status != Status::Optimal {
            return (status, dual_pivots);
        }
        let (status, iterations) = self.optimize();
        (status, dual_pivots + iterations)
    }

    /// The outcome of a solve that ended with `status`: the structural
    /// values of the current basis when that is optimal, no point
    /// otherwise.
    fn solution(&self, status: Status, iterations: usize) -> Solution {
        if status != Status::Optimal {
            return Solution { status, iterations, ..Solution::infeasible() };
        }
        let mut x: Vec<f64> = (0..self.n).map(|j| self.nb_value(j)).collect();
        for (&j, &v) in self.basis.iter().zip(&self.xb) {
            if j < self.n {
                x[j] = v;
            }
        }
        for v in x.iter_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        let objective = self.p.objective_value(&x);
        Solution { status, x, objective, iterations, nodes: 0 }
    }

    /// Value of a nonbasic column (0 for a basic one: read `xb`).
    fn nb_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.lower[j],
            VarStatus::AtUpper => self.upper[j],
            VarStatus::FreeZero | VarStatus::Basic => 0.0,
        }
    }

    /// w = B⁻¹ · A_j for a sparse column.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        for &(r, a) in &self.cols[j] {
            for i in 0..self.m {
                w[i] += self.binv[i * self.m + r] * a;
            }
        }
        w
    }

    /// y' = c_B' · B⁻¹.
    fn btran_costs(&self) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        for (k, &bv) in self.basis.iter().enumerate() {
            let c = self.cost[bv];
            if c != 0.0 {
                for i in 0..self.m {
                    y[i] += c * self.binv[k * self.m + i];
                }
            }
        }
        y
    }

    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        let mut d = self.cost[j];
        for &(r, a) in &self.cols[j] {
            d -= y[r] * a;
        }
        d
    }

    /// Recompute B⁻¹ by Gaussian elimination and x_B from scratch.
    /// Returns false if the basis matrix is singular.
    fn refactorize(&mut self) -> bool {
        self.counters.refactorizations += 1;
        self.since_refactor = 0;
        let m = self.m;
        // Build the dense basis matrix augmented with identity.
        let mut mat = vec![0.0; m * m];
        for (k, &j) in self.basis.iter().enumerate() {
            for &(r, a) in &self.cols[j] {
                mat[r * m + k] = a;
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        // Gauss-Jordan with partial pivoting.
        for col in 0..m {
            let mut piv = col;
            let mut best = mat[col * m + col].abs();
            for r in (col + 1)..m {
                let v = mat[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-12 {
                return false;
            }
            if piv != col {
                for c in 0..m {
                    mat.swap(col * m + c, piv * m + c);
                    inv.swap(col * m + c, piv * m + c);
                }
            }
            let d = mat[col * m + col];
            for c in 0..m {
                mat[col * m + c] /= d;
                inv[col * m + c] /= d;
            }
            for r in 0..m {
                if r != col {
                    let f = mat[r * m + col];
                    if f != 0.0 {
                        for c in 0..m {
                            mat[r * m + c] -= f * mat[col * m + c];
                            inv[r * m + c] -= f * inv[col * m + c];
                        }
                    }
                }
            }
        }
        self.binv = inv;
        self.recompute_xb();
        true
    }

    /// x_B = B⁻¹ (b − A_N x_N).
    fn recompute_xb(&mut self) {
        let mut rhs = self.b.clone();
        for j in 0..self.n_total {
            let v = self.nb_value(j);
            if v != 0.0 {
                for &(r, a) in &self.cols[j] {
                    rhs[r] -= a * v;
                }
            }
        }
        let m = self.m;
        for i in 0..m {
            self.xb[i] = (0..m).map(|r| self.binv[i * m + r] * rhs[r]).sum();
        }
    }

    /// Column `q` enters the basis at row `r` after moving by `step`
    /// (`w` = B⁻¹·A_q); the column it replaces rests at its lower or
    /// upper bound. Returns false if the periodic refactorization finds
    /// the new basis singular.
    fn pivot(&mut self, r: usize, q: usize, w: &[f64], step: f64, leaves_at_lower: bool) -> bool {
        let m = self.m;
        let enter_val = self.nb_value(q) + step;
        for i in 0..m {
            if i != r {
                self.xb[i] -= step * w[i];
            }
        }
        self.xb[r] = enter_val;
        self.status[self.basis[r]] =
            if leaves_at_lower { VarStatus::AtLower } else { VarStatus::AtUpper };
        self.status[q] = VarStatus::Basic;
        self.basis[r] = q;
        // Elementary update of B⁻¹.
        let pivot_row: Vec<f64> = (0..m).map(|c| self.binv[r * m + c] / w[r]).collect();
        for i in 0..m {
            if i != r {
                let f = w[i];
                if f != 0.0 {
                    for c in 0..m {
                        self.binv[i * m + c] -= f * pivot_row[c];
                    }
                }
            }
        }
        self.binv[r * m..(r + 1) * m].copy_from_slice(&pivot_row);
        self.since_refactor += 1;
        self.since_refactor < REFACTOR_EVERY || self.refactorize()
    }

    /// One primal simplex phase (min c'x) from a primal-feasible basis.
    /// Returns Optimal, Unbounded or NotConverged, and its iterations.
    fn optimize(&mut self) -> (Status, usize) {
        let mut iterations = 0usize;
        let mut degenerate_run = 0usize;
        // Each phase refactorizes on its own schedule, so a cold solve's
        // arithmetic does not depend on what the tableau did before.
        self.since_refactor = 0;
        loop {
            iterations += 1;
            if iterations > self.max_iter {
                return (Status::NotConverged, iterations);
            }
            let y = self.btran_costs();
            let bland = degenerate_run > DEGENERATE_LIMIT;

            // Pricing. A column with lower == upper cannot move, so it
            // never enters (the artificials in phase 2, branched
            // binaries).
            let mut entering: Option<(usize, bool)> = None; // (var, increasing)
            let mut best = TOL;
            for j in 0..self.n_total {
                if self.status[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                    continue;
                }
                let d = self.reduced_cost(j, &y);
                let (eligible, increasing) = match self.status[j] {
                    VarStatus::AtLower => (d < -TOL, true),
                    VarStatus::AtUpper => (d > TOL, false),
                    _ => (d.abs() > TOL, d < 0.0),
                };
                if eligible {
                    if bland {
                        entering = Some((j, increasing));
                        break;
                    }
                    if d.abs() > best {
                        best = d.abs();
                        entering = Some((j, increasing));
                    }
                }
            }
            let Some((j, increasing)) = entering else {
                return (Status::Optimal, iterations);
            };
            let sigma = if increasing { 1.0 } else { -1.0 };
            let w = self.ftran(j);

            // Ratio test: how far can x_j move?
            // x_B changes by -sigma * t * w.
            let mut t_max = f64::INFINITY;
            let mut leave: Option<(usize, bool)> = None; // (row, leaves-at-lower)
            for i in 0..self.m {
                let delta = -sigma * w[i];
                if delta < -PIVOT_TOL {
                    // Basic value decreases toward its lower bound.
                    let lb = self.lower[self.basis[i]];
                    if lb > f64::NEG_INFINITY {
                        let t = (self.xb[i] - lb) / (-delta);
                        if t < t_max - TOL || (t < t_max + TOL && leave.is_none()) {
                            t_max = t.max(0.0);
                            leave = Some((i, true));
                        }
                    }
                } else if delta > PIVOT_TOL {
                    // Basic value increases toward its upper bound.
                    let ub = self.upper[self.basis[i]];
                    if ub < f64::INFINITY {
                        let t = (ub - self.xb[i]) / delta;
                        if t < t_max - TOL || (t < t_max + TOL && leave.is_none()) {
                            t_max = t.max(0.0);
                            leave = Some((i, false));
                        }
                    }
                }
            }
            // Bound flip of the entering variable itself.
            let span = self.upper[j] - self.lower[j];
            if span.is_finite() && span < t_max {
                t_max = span;
                leave = None;
            }

            if t_max.is_infinite() {
                return (Status::Unbounded, iterations);
            }
            if t_max < TOL {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }

            match leave {
                None => {
                    // Bound flip.
                    self.status[j] = match self.status[j] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        other => other,
                    };
                    for i in 0..self.m {
                        self.xb[i] -= sigma * t_max * w[i];
                    }
                }
                Some((r, at_lower)) => {
                    if w[r].abs() < PIVOT_TOL {
                        // Numerically unusable pivot: refactorize and retry.
                        if !self.refactorize() {
                            return (Status::NotConverged, iterations);
                        }
                        continue;
                    }
                    if !self.pivot(r, j, &w, sigma * t_max, at_lower) {
                        return (Status::NotConverged, iterations);
                    }
                }
            }
        }
    }

    /// Bounded dual simplex from a basis that is dual feasible (a
    /// parent's optimum after a bound change): pivots until no basic
    /// column violates a bound. Returns Optimal (primal feasible; the
    /// primal simplex finishes), Infeasible or NotConverged, and its
    /// pivots.
    fn dual(&mut self) -> (Status, usize) {
        let m = self.m;
        let mut pivots = 0usize;
        loop {
            // Leaving row: the largest bound violation.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below-lower)
            for i in 0..m {
                let j = self.basis[i];
                let below = self.lower[j] - self.xb[i];
                let above = self.xb[i] - self.upper[j];
                let violation = below.max(above);
                if violation > TOL && leave.map_or(true, |(_, worst, _)| violation > worst) {
                    leave = Some((i, violation, below > above));
                }
            }
            let Some((r, violation, below)) = leave else {
                return (Status::Optimal, pivots);
            };
            if pivots >= self.max_iter {
                return (Status::NotConverged, pivots);
            }
            pivots += 1;

            // Entering column: the dual ratio test over row r of B⁻¹N.
            // With a = ∓α_rj, x_B[r] moves toward its violated bound
            // when a column at its lower bound has a > 0 or one at its
            // upper bound has a < 0; the smallest |d_j / a| keeps every
            // reduced cost on its side. Fixed columns cannot move.
            let y = self.btran_costs();
            let rho = &self.binv[r * m..(r + 1) * m];
            let mut entering: Option<(usize, f64, f64)> = None; // (var, ratio, |a|)
            for j in 0..self.n_total {
                if self.status[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                    continue;
                }
                let alpha: f64 = self.cols[j].iter().map(|&(i, a)| rho[i] * a).sum();
                let a = if below { -alpha } else { alpha };
                let eligible = match self.status[j] {
                    VarStatus::AtLower => a > PIVOT_TOL,
                    VarStatus::AtUpper => a < -PIVOT_TOL,
                    _ => a.abs() > PIVOT_TOL,
                };
                if !eligible {
                    continue;
                }
                // A reduced cost on the wrong side (the start was not
                // quite dual feasible) counts as zero; the primal
                // clean-up prices it again.
                let ratio = self.reduced_cost(j, &y) / a;
                let ratio = if self.status[j] == VarStatus::FreeZero {
                    ratio.abs()
                } else {
                    ratio.max(0.0)
                };
                let better = entering.map_or(true, |(_, best, size)| {
                    ratio < best - TOL || (ratio < best + TOL && a.abs() > size)
                });
                if better {
                    entering = Some((j, ratio, a.abs()));
                }
            }
            let Some((q, _, _)) = entering else {
                // No column can move x_B[r] toward its bound: the row
                // proves infeasibility, unless the violation is within
                // what phase 1 would accept — then the cold solve decides.
                let verdict = if violation > INFEASIBLE_TOL {
                    Status::Infeasible
                } else {
                    Status::NotConverged
                };
                return (verdict, pivots);
            };
            let w = self.ftran(q);
            if w[r].abs() < PIVOT_TOL {
                // B⁻¹ has drifted (row r and column q disagree):
                // refactorize and retry.
                if !self.refactorize() {
                    return (Status::NotConverged, pivots);
                }
                continue;
            }
            let leaving = self.basis[r];
            let bound = if below { self.lower[leaving] } else { self.upper[leaving] };
            self.counters.dual_pivots += 1;
            if !self.pivot(r, q, &w, (self.xb[r] - bound) / w[r], below) {
                return (Status::NotConverged, pivots);
            }
        }
    }
}

/// Solve an LP (integrality flags ignored).
pub fn solve_lp(p: &Problem) -> Solution {
    Simplex::new(p).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic)
        let mut p = Problem::maximize(2);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, f64::INFINITY);
        p.set_objective(vec![(0, 3.0), (1, 5.0)]);
        p.add_constraint(vec![(0, 1.0)], Rel::Le, 4.0);
        p.add_constraint(vec![(1, 2.0)], Rel::Le, 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], Rel::Le, 18.0);
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y s.t. x + y >= 10, x >= 0, y >= 0.
        let mut p = Problem::minimize(2);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, f64::INFINITY);
        p.set_objective(vec![(0, 2.0), (1, 3.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Ge, 10.0);
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.objective, 20.0);
        assert_close(s.x[0], 10.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1.
        let mut p = Problem::minimize(2);
        p.set_objective(vec![(0, 1.0), (1, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 2.0)], Rel::Eq, 4.0);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Rel::Eq, 1.0);
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 1.0);
    }

    #[test]
    fn free_variables() {
        // min x s.t. x + y = 3, y <= 1, y >= 0; x free → x = 2.
        let mut p = Problem::minimize(2);
        p.set_bounds(1, 0.0, 1.0);
        p.set_objective(vec![(0, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Eq, 3.0);
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 1.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::minimize(1);
        p.set_bounds(0, 0.0, 1.0);
        p.add_constraint(vec![(0, 1.0)], Rel::Ge, 2.0);
        assert_eq!(solve_lp(&p).status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::minimize(1);
        p.set_objective(vec![(0, 1.0)]); // min x, x free, no constraints... need m>=1
        p.add_constraint(vec![(0, 0.0)], Rel::Le, 1.0);
        assert_eq!(solve_lp(&p).status, Status::Unbounded);
    }

    #[test]
    fn bound_flips() {
        // max x + y with box bounds only (one trivial constraint).
        let mut p = Problem::maximize(2);
        p.set_bounds(0, -1.0, 2.0);
        p.set_bounds(1, -1.0, 3.0);
        p.set_objective(vec![(0, 1.0), (1, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Le, 100.0);
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.objective, 5.0);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x <= -5  (i.e. x >= 5).
        let mut p = Problem::minimize(1);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_objective(vec![(0, 1.0)]);
        p.add_constraint(vec![(0, -1.0)], Rel::Le, -5.0);
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.x[0], 5.0);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        // x + x <= 4 → x <= 2.
        let mut p = Problem::maximize(1);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_objective(vec![(0, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (0, 1.0)], Rel::Le, 4.0);
        let s = solve_lp(&p);
        assert_close(s.x[0], 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the same vertex.
        let mut p = Problem::maximize(2);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, f64::INFINITY);
        p.set_objective(vec![(0, 1.0), (1, 1.0)]);
        for k in 1..=10 {
            p.add_constraint(vec![(0, k as f64), (1, k as f64)], Rel::Le, 2.0 * k as f64);
        }
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn fixed_columns_never_enter() {
        // max x + y, x fixed at 2, y in [0, 3]. Phase 1 brings the slack
        // in, phase 2 flips y to its upper bound; each phase ends with
        // the pass that finds nothing to enter. No zero-length flip of x.
        let mut p = Problem::maximize(2);
        p.set_bounds(0, 2.0, 2.0);
        p.set_bounds(1, 0.0, 3.0);
        p.set_objective(vec![(0, 1.0), (1, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Le, 10.0);
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.objective, 5.0);
        assert_eq!(s.iterations, 4);
    }

    /// max 3x + 5y over the classic three-row polytope (optimum 36).
    fn classic() -> Problem {
        let mut p = Problem::maximize(2);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, f64::INFINITY);
        p.set_objective(vec![(0, 3.0), (1, 5.0)]);
        p.add_constraint(vec![(0, 1.0)], Rel::Le, 4.0);
        p.add_constraint(vec![(1, 2.0)], Rel::Le, 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], Rel::Le, 18.0);
        p
    }

    #[test]
    fn resolve_repairs_a_cut_with_dual_pivots() {
        let p = classic();
        let mut t = Simplex::new(&p);
        assert_close(t.solve().objective, 36.0);
        let root = t.basis();
        // y <= 5 cuts the optimum (2, 6) off: the new one is (8/3, 5).
        t.set_bounds(1, 0.0, 5.0);
        let s = t.resolve_from(&root);
        assert!(s.is_optimal());
        assert_close(s.objective, 33.0);
        assert_close(s.x[1], 5.0);
        // y >= 7 leaves nothing; the same saved basis proves it.
        t.set_bounds(1, 7.0, f64::INFINITY);
        assert_eq!(t.resolve_from(&root).status, Status::Infeasible);
        let c = t.counters();
        assert_eq!((c.warm_starts, c.cold_starts), (2, 0));
        assert_eq!(c.dual_pivots, 1, "the cut costs one pivot, the proof none");
    }

    #[test]
    fn a_singular_basis_falls_back_to_a_cold_solve() {
        let p = classic();
        let mut t = Simplex::new(&p);
        let cold = t.solve();
        // The slack of row 0 twice: two equal columns.
        let mut broken = t.basis();
        broken.basic = vec![2, 2, 3];
        let s = t.resolve_from(&broken);
        assert!(s.is_optimal());
        assert_close(s.objective, cold.objective);
        assert_eq!(t.counters().cold_starts, 1);
        assert_eq!(t.counters().warm_starts, 0);
    }

    #[test]
    fn the_iteration_cap_is_reported_not_hidden() {
        let p = classic();
        let mut t = Simplex::new(&p);
        t.max_iter = 1;
        let before = not_converged_total();
        let s = t.solve();
        assert_eq!(s.status, Status::NotConverged);
        assert!(s.x.is_empty());
        assert!(not_converged_total() > before);
    }

    #[test]
    fn larger_transportation_problem() {
        // 3 plants, 4 markets; classic transportation LP.
        let supply = [35.0, 50.0, 40.0];
        let demand = [45.0, 20.0, 30.0, 30.0];
        let cost = [[8.0, 6.0, 10.0, 9.0], [9.0, 12.0, 13.0, 7.0], [14.0, 9.0, 16.0, 5.0]];
        let mut p = Problem::minimize(12);
        for j in 0..12 {
            p.set_bounds(j, 0.0, f64::INFINITY);
        }
        let idx = |i: usize, j: usize| i * 4 + j;
        p.set_objective(
            (0..3).flat_map(|i| (0..4).map(move |j| (idx(i, j), cost[i][j]))).collect(),
        );
        for i in 0..3 {
            p.add_constraint((0..4).map(|j| (idx(i, j), 1.0)).collect(), Rel::Le, supply[i]);
        }
        for j in 0..4 {
            p.add_constraint((0..3).map(|i| (idx(i, j), 1.0)).collect(), Rel::Ge, demand[j]);
        }
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.objective, 1020.0); // verified by independent min-cost-flow
        assert!(p.is_feasible(&s.x, 1e-6));
    }
}
