//! Bounded-variable revised simplex as one persistent, re-solvable
//! kernel: [`Simplex`] builds the columns of a [`Problem`] once, solves
//! it cold (crash basis, two phases, Dantzig pricing with a Bland
//! anti-cycling fallback) and re-solves it after bound changes from a
//! saved [`Basis`] with a bounded dual simplex.
//!
//! A cold solve starts from a *crash basis*, tier by tier (Bixby's
//! order, *Implementing the Simplex Method: The Initial Basis*, 1992):
//!
//! 1. the free structural columns — basic in any non-degenerate optimum,
//!    and never blocking a ratio test — go into the basis first, longest
//!    first, each on the row where its value leaves its other rows least
//!    infeasible; the basis is factorized and every column the factor
//!    finds no pivot for gives its place to a unit column;
//! 2. a row left on its unit column keeps its slack when the slack's
//!    value is within its bounds;
//! 3. a row whose slack does not fit takes a bounded *column singleton*
//!    of that row (one nonzero, the row's) when the value that carries
//!    the row is within the column's bounds, the largest coefficient
//!    first. Swapping `e_i` for `a·e_i` rescales one basis column, so
//!    the basis stays regular and no other basic value moves; no
//!    threshold relative to the row's other coefficients is wanted (an
//!    HVAC step row holds its load at 7e-4 beside a 1);
//! 4. every row left takes an artificial.
//!
//! Phase 1 runs only when an artificial is basic; with no free column,
//! no slack and no singleton that fits this is the textbook
//! all-artificial start.
//!
//! The basis is held as a
//! sparse LU factorization plus an eta file ([`crate::factor`]),
//! refactorized when the eta file outgrows the factor; a re-solve from
//! the basis the tableau already holds keeps the factor and recomputes
//! only x_B. `ftran`, `btran_costs`, `btran_row`, `recompute_xb`, the
//! update inside `pivot` and `refactorize` are the only operations that
//! touch the factor.
//!
//! The bounded-variable formulation keeps the basis dimension equal to
//! the number of *constraints* (not variables), which is what makes the
//! knapsack-style problems of the paper's UC2 (thousands of variables,
//! one capacity row) cheap.

use crate::factor::Factor;
use crate::{Problem, Rel, Solution, Status};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as Atomic};

const TOL: f64 = 1e-9;
const PIVOT_TOL: f64 = 1e-10;
/// A sum of infeasibilities above this proves the problem infeasible;
/// phase 1 and the dual simplex share it so both give the same verdict.
const INFEASIBLE_TOL: f64 = 1e-6;
/// Switch to Bland's rule after this many consecutive degenerate pivots.
const DEGENERATE_LIMIT: usize = 64;
/// The crash puts a free column on a row only where its coefficient is
/// at least this share of the column's largest.
const CRASH_THRESHOLD: f64 = 0.1;

/// Cold solves that ended [`Status::NotConverged`], process-wide.
static NOT_CONVERGED: AtomicU64 = AtomicU64::new(0);

/// How many cold solves in this process ended [`Status::NotConverged`]
/// (iteration cap or a singular basis). Test suites assert it stays 0
/// over everything the repository ships.
pub fn not_converged_total() -> u64 {
    NOT_CONVERGED.load(Atomic::Relaxed)
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

/// The basis a cold solve started from, and what phase 1 made of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Start {
    /// Free structural columns the crash made basic (and the factor
    /// kept).
    pub structural: usize,
    /// Rows whose slack did not fit that started on a bounded column
    /// singleton of the row instead.
    pub singleton: usize,
    /// Rows that started on their slack: its value was within bounds.
    pub slack: usize,
    /// Rows that started on an artificial; phase 1 ran if there was one.
    pub artificial: usize,
    /// Iterations of phase 1.
    pub phase1_pivots: usize,
}

impl std::fmt::Display for Start {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Start { structural, singleton, slack, artificial, .. } = self;
        write!(
            f,
            "{structural} structural/{singleton} singleton/{slack} slack/{artificial} artificial"
        )
    }
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
    /// Times the basis was factorized from its columns: at a cold
    /// start, when a re-solve restores another basis than the one held,
    /// and when the updates since the last time have outgrown it.
    pub refactorizations: usize,
    /// How the most recent cold solve started.
    pub start: Start,
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
    /// The factorized basis matrix; `factored` once it is that of
    /// `basis` (from the first solve on, unless found singular).
    factor: Factor,
    factored: bool,
    /// Basic variable values, aligned with `basis`.
    xb: Vec<f64>,
    /// Scratch of the iterations: the duals c_B'·B⁻¹, the entering
    /// column B⁻¹·A_q and row r of B⁻¹.
    y: Vec<f64>,
    w: Vec<f64>,
    rho: Vec<f64>,
    /// What [`Simplex::reduced_costs`] hands out, one per structural
    /// column.
    dj: Vec<f64>,
    /// A coefficient names a column the problem does not have.
    malformed: bool,
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
        // A coefficient on a column that does not exist: the tableau is
        // built without it and never solved.
        let mut malformed = p.objective.iter().any(|&(j, _)| j >= n);
        for (i, c) in p.constraints.iter().enumerate() {
            b[i] = c.rhs;
            for &(j, a) in &c.coeffs {
                if j >= n {
                    malformed = true;
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
            factor: Factor::new(m),
            factored: false,
            xb: vec![0.0; m],
            y: vec![0.0; m],
            w: vec![0.0; m],
            rho: vec![0.0; m],
            dj: vec![0.0; n],
            malformed,
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

    /// The reduced costs of the structural columns at the basis the last
    /// solve ended on, in the tableau's minimization sense (a
    /// maximization's costs negated); 0 for a basic column. Meaningful
    /// after an optimal solve. One `btran_costs`, into a buffer the
    /// tableau owns.
    pub fn reduced_costs(&mut self) -> &[f64] {
        self.btran_costs();
        for j in 0..self.n {
            let d = if self.status[j] == VarStatus::Basic { 0.0 } else { self.reduced_cost(j) };
            self.dj[j] = d;
        }
        &self.dj
    }

    /// Solve under the current bounds from a crash basis: phase 1
    /// drives the artificials it needed to zero, phase 2 optimizes.
    pub fn solve(&mut self) -> Solution {
        let sol = self.solve_cold();
        if sol.status == Status::NotConverged {
            NOT_CONVERGED.fetch_add(1, Atomic::Relaxed);
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
        if self.malformed {
            return self.solution(Status::NotConverged, 0);
        }
        if self.bounds_crossed() {
            return Solution::infeasible();
        }
        let mut start = self.crash();
        let mut iterations = 0usize;
        let mut status = Status::Optimal;
        if start.artificial > 0 {
            let (st, it) = self.optimize();
            iterations += it;
            start.phase1_pivots = it;
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
        self.counters.start = start;
        self.install_phase2();
        if status == Status::Optimal {
            self.recompute_xb();
            let (st, it) = self.optimize();
            iterations += it;
            status = st;
        }
        self.solution(status, iterations)
    }

    /// Install the crash basis tier by tier (the module header): free
    /// columns, slacks that fit, singletons that fit, and artificials in
    /// phase-1 form on the rows left, with x_B computed. Says how many
    /// rows each tier took.
    fn crash(&mut self) -> Start {
        let (n, m) = (self.n, self.m);
        // Every column at rest, the artificials out of the problem, and
        // each row on its unit column; then the crash.
        for j in 0..n + m {
            self.status[j] = rest_status(self.lower[j], self.upper[j]);
        }
        for j in n + m..self.n_total {
            self.status[j] = VarStatus::AtLower;
            (self.lower[j], self.upper[j]) = (0.0, 0.0);
        }
        for i in 0..m {
            self.basis[i] = n + i;
        }
        self.crash_free_columns();
        self.install_basis();
        if !self.crash_is_sound() {
            for i in 0..m {
                self.basis[i] = n + i;
            }
            self.install_basis();
        }
        self.crash_singletons();
        // A unit column is the row's slack if that is within its bounds
        // at the value the row needs, else its artificial in phase-1
        // form: minimize Σ|artificial|. The slack rests at 0 either way,
        // so x_B stands.
        self.cost.fill(0.0);
        let mut start = Start::default();
        for i in 0..m {
            let (j, v) = (self.basis[i], self.xb[i]);
            if j < n && self.is_free(j) {
                start.structural += 1;
            } else if j < n {
                start.singleton += 1;
            } else if self.fits(j, v) {
                start.slack += 1;
            } else {
                start.artificial += 1;
                self.status[j] = rest_status(self.lower[j], self.upper[j]);
                let art = j + m;
                self.status[art] = VarStatus::Basic;
                self.basis[i] = art;
                (self.lower[art], self.upper[art], self.cost[art]) = if v >= 0.0 {
                    (0.0, f64::INFINITY, 1.0)
                } else {
                    (f64::NEG_INFINITY, 0.0, -1.0)
                };
            }
        }
        start
    }

    /// Factorize `basis` as the crash has it so far and compute x_B with
    /// every other column at rest. A column the factor finds no pivot
    /// for gives its place to the unit column of a row left without one,
    /// so a crash cannot leave a singular basis behind.
    fn install_basis(&mut self) {
        let (n, m) = (self.n, self.m);
        self.counters.refactorizations += 1;
        if !self.factor.factorize(&self.cols, &self.basis) {
            for (k, i) in self.factor.replace_rejected() {
                self.basis[k] = n + i;
            }
        }
        self.factored = true;
        for j in 0..n + m {
            self.status[j] = rest_status(self.lower[j], self.upper[j]);
        }
        for &j in &self.basis {
            self.status[j] = VarStatus::Basic;
        }
        self.recompute_xb();
    }

    /// Whether x_B solves B·x_B = b − A_N·x_N to working accuracy: a
    /// basis with crash columns can be regular to the factor and yet so
    /// badly conditioned that its solves are noise. The unit basis that
    /// replaces it then is the start a crash-less kernel would take.
    fn crash_is_sound(&self) -> bool {
        if self.basis.iter().all(|&j| j >= self.n) {
            return true;
        }
        let mut residual = vec![0.0; self.m];
        self.structural_residual(&mut residual);
        for (&j, &v) in self.basis.iter().zip(&self.xb) {
            if j >= self.n {
                residual[j - self.n] -= v;
            }
        }
        let scale = self.b.iter().fold(1.0, |s: f64, b| s.max(b.abs()));
        residual.iter().all(|r| r.abs() <= INFEASIBLE_TOL * scale)
    }

    /// `out` = b − A·x over the structural columns: the basic ones at
    /// x_B, the others where they rest.
    fn structural_residual(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.b);
        let at_rest = (0..self.n).map(|j| (j, self.nb_value(j)));
        let basic = self.basis.iter().zip(&self.xb).map(|(&j, &v)| (j, v));
        for (j, v) in at_rest.chain(basic.filter(|&(j, _)| j < self.n)) {
            if v != 0.0 {
                for &(r, a) in &self.cols[j] {
                    out[r] -= a * v;
                }
            }
        }
    }

    /// Whether column `j` has no finite bound.
    fn is_free(&self, j: usize) -> bool {
        self.lower[j] == f64::NEG_INFINITY && self.upper[j] == f64::INFINITY
    }

    /// Whether column `j` is within its bounds at value `v`.
    fn fits(&self, j: usize, v: f64) -> bool {
        v >= self.lower[j] - TOL && v <= self.upper[j] + TOL
    }

    /// The crash's singleton tier: a row still on its unit column whose
    /// slack does not fit its value v takes a bounded column singleton
    /// `a·e_i` (one nonzero, not free, `lower < upper`, `|a|` above
    /// [`PIVOT_TOL`]) whose value `rest + v / a` is within its bounds;
    /// the largest `|a|` wins, ties the lower column. The slack rests at
    /// 0 and every other basic value stays where it is. Undone when the
    /// new basis fails [`Simplex::crash_is_sound`].
    fn crash_singletons(&mut self) {
        let (n, m) = (self.n, self.m);
        // Where row i's unit column is basic, if its slack does not fit.
        let mut open: Vec<Option<usize>> = vec![None; m];
        for (k, &j) in self.basis.iter().enumerate() {
            if j >= n && !self.fits(j, self.xb[k]) {
                open[j - n] = Some(k);
            }
        }
        if open.iter().all(Option::is_none) {
            return;
        }
        let mut take: Vec<Option<(usize, f64)>> = vec![None; m]; // (column, |a|) by position
        for j in 0..n {
            if self.lower[j] >= self.upper[j] || self.is_free(j) {
                continue;
            }
            let mut nonzeros = self.cols[j].iter().filter(|&&(_, a)| a != 0.0);
            let (Some(&(i, a)), None) = (nonzeros.next(), nonzeros.next()) else {
                continue;
            };
            let Some(k) = open[i] else {
                continue;
            };
            if a.abs() > PIVOT_TOL
                && self.fits(j, self.nb_value(j) + self.xb[k] / a)
                && take[k].map_or(true, |(_, size)| a.abs() > size)
            {
                take[k] = Some((j, a.abs()));
            }
        }
        if take.iter().all(Option::is_none) {
            return;
        }
        let before = self.basis.clone();
        for (slot, take) in self.basis.iter_mut().zip(take) {
            if let Some((j, _)) = take {
                *slot = j;
            }
        }
        self.install_basis();
        if !self.crash_is_sound() {
            self.basis.copy_from_slice(&before);
            self.install_basis();
        }
    }

    /// The crash: every free structural column that finds a row goes
    /// into `basis` at that row's position, longest column first — a
    /// column of many rows is valued while those rows are still open, a
    /// column of few then absorbs what is left of them — and the running
    /// residual b − A·x moves with each. A column with an entry in a
    /// taken row moves that row off the value its own column gave it, so
    /// the running residual is no longer the basis's; before the first
    /// column that has no such entry, it is made exact again, once, by
    /// factorizing what is placed.
    fn crash_free_columns(&mut self) {
        let (n, m) = (self.n, self.m);
        let mut free: Vec<usize> =
            (0..n).filter(|&j| self.is_free(j) && !self.cols[j].is_empty()).collect();
        if free.is_empty() {
            return;
        }
        free.sort_by_key(|&j| std::cmp::Reverse(self.cols[j].len()));
        let mut residual = vec![0.0; m];
        self.structural_residual(&mut residual);
        let mut taken = vec![false; m];
        let mut points = Vec::new();
        let (mut stale, mut refreshed) = (false, false);
        for j in free {
            let coupled = self.cols[j].iter().any(|&(r, _)| taken[r]);
            if stale && !refreshed && !coupled {
                self.install_basis();
                self.structural_residual(&mut residual);
                for (taken, &basic) in taken.iter_mut().zip(&self.basis) {
                    *taken = basic < n;
                }
                refreshed = true;
            }
            let Some((v, r)) = self.crash_row(j, &residual, &taken, &mut points) else {
                continue;
            };
            taken[r] = true;
            self.basis[r] = j;
            stale |= coupled && v != 0.0;
            for &(i, a) in &self.cols[j] {
                residual[i] -= a * v;
            }
        }
    }

    /// The value and row the crash gives free column `j`. With the other
    /// columns held where they are, the infeasibility of the column's
    /// untaken rows is a convex piecewise-linear function of its value;
    /// each breakpoint is the value at which one row is tight, i.e. the
    /// column basic on that row. The answer is the breakpoint of least
    /// infeasibility among the rows where the coefficient is within
    /// [`CRASH_THRESHOLD`] of the column's largest (ties: the smaller
    /// value, then the lower row); `None` if no untaken row is.
    /// `points` is scratch: (breakpoint, row, coefficient).
    fn crash_row(
        &self,
        j: usize,
        residual: &[f64],
        taken: &[bool],
        points: &mut Vec<(f64, usize, f64)>,
    ) -> Option<(f64, usize)> {
        let col = &self.cols[j];
        let largest = col.iter().fold(0.0, |l: f64, &(_, a)| l.max(a.abs()));
        points.clear();
        let open = col.iter().filter(|&&(r, a)| !taken[r] && a.abs() > PIVOT_TOL);
        points.extend(open.map(|&(r, a)| (residual[r] / a, r, a)).filter(|p| p.0.is_finite()));
        // Finite, so comparable; -0.0 and 0.0 tie and go by row.
        points.sort_by(|p, q| p.0.partial_cmp(&q.0).unwrap_or(Ordering::Equal).then(p.1.cmp(&q.1)));
        // What a row adds to the infeasibility per unit of the column's
        // value below and above its breakpoint: the slack's bounds say
        // which sign of the row's residual is allowed.
        let weights = |r: usize, a: f64| {
            let slack = self.n + r;
            let (nonneg, nonpos) = (self.lower[slack] == 0.0, self.upper[slack] == 0.0);
            let below = (nonneg && a < 0.0) || (nonpos && a > 0.0);
            let above = (nonneg && a > 0.0) || (nonpos && a < 0.0);
            (if below { a.abs() } else { 0.0 }, if above { a.abs() } else { 0.0 })
        };
        let mut slope: f64 = -points.iter().map(|&(_, r, a)| weights(r, a).0).sum::<f64>();
        // Relative to the infeasibility at the first breakpoint.
        let mut infeasibility = 0.0;
        let mut at = points.first()?.0;
        let mut best: Option<(f64, f64, usize)> = None; // (infeasibility, value, row)
        for &(v, r, a) in points.iter() {
            infeasibility += slope * (v - at);
            at = v;
            let (below, above) = weights(r, a);
            slope += below + above;
            if a.abs() >= CRASH_THRESHOLD * largest
                && best.map_or(true, |(least, _, _)| infeasibility < least)
            {
                best = Some((infeasibility, v, r));
            }
        }
        best.map(|(_, v, r)| (v, r))
    }

    fn solve_warm(&mut self, from: &Basis) -> (Status, usize) {
        assert_eq!(from.status.len(), self.n_total, "basis of another problem");
        if self.malformed {
            return (Status::NotConverged, 0);
        }
        if self.bounds_crossed() {
            return (Status::Infeasible, 0);
        }
        // The factor of the basis this tableau stopped on is still good
        // if that is the basis asked for: only x_B depends on the bounds.
        let held = self.factored && self.basis == from.basic;
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
        if held {
            self.recompute_xb();
        } else if !self.refactorize() {
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

    /// `w` = B⁻¹ · A_j.
    fn ftran(&mut self, j: usize) {
        self.w.fill(0.0);
        for &(r, a) in &self.cols[j] {
            self.w[r] = a;
        }
        self.factor.ftran(&mut self.w);
    }

    /// `y`' = c_B' · B⁻¹.
    fn btran_costs(&mut self) {
        for (y, &j) in self.y.iter_mut().zip(&self.basis) {
            *y = self.cost[j];
        }
        self.factor.btran(&mut self.y);
    }

    /// `rho` = row `r` of B⁻¹.
    fn btran_row(&mut self, r: usize) {
        self.rho.fill(0.0);
        self.rho[r] = 1.0;
        self.factor.btran(&mut self.rho);
    }

    fn reduced_cost(&self, j: usize) -> f64 {
        let mut d = self.cost[j];
        for &(r, a) in &self.cols[j] {
            d -= self.y[r] * a;
        }
        d
    }

    /// Factorize the basis from its columns and recompute x_B from
    /// scratch. Returns false if the basis matrix is singular.
    fn refactorize(&mut self) -> bool {
        self.counters.refactorizations += 1;
        self.factored = self.factor.factorize(&self.cols, &self.basis);
        if self.factored {
            self.recompute_xb();
        }
        self.factored
    }

    /// x_B = B⁻¹ (b − A_N x_N).
    fn recompute_xb(&mut self) {
        self.xb.copy_from_slice(&self.b);
        for j in 0..self.n_total {
            let v = self.nb_value(j);
            if v != 0.0 {
                for &(r, a) in &self.cols[j] {
                    self.xb[r] -= a * v;
                }
            }
        }
        self.factor.ftran(&mut self.xb);
    }

    /// Column `q` enters the basis at row `r` after moving by `step`
    /// (`w` = B⁻¹·A_q); the column it replaces rests at its lower or
    /// upper bound. Returns false if the updates have outgrown the
    /// factor and refactorizing finds the new basis singular.
    fn pivot(&mut self, r: usize, q: usize, step: f64, leaves_at_lower: bool) -> bool {
        let enter_val = self.nb_value(q) + step;
        for (x, &w) in self.xb.iter_mut().zip(&self.w) {
            *x -= step * w;
        }
        self.xb[r] = enter_val;
        self.status[self.basis[r]] =
            if leaves_at_lower { VarStatus::AtLower } else { VarStatus::AtUpper };
        self.status[q] = VarStatus::Basic;
        self.basis[r] = q;
        self.factor.update(r, &self.w);
        !self.factor.wants_refactor() || self.refactorize()
    }

    /// One primal simplex phase (min c'x) from a primal-feasible basis.
    /// Returns Optimal, Unbounded or NotConverged, and its iterations.
    fn optimize(&mut self) -> (Status, usize) {
        let mut iterations = 0usize;
        let mut degenerate_run = 0usize;
        loop {
            iterations += 1;
            if iterations > self.max_iter {
                return (Status::NotConverged, iterations);
            }
            self.btran_costs();
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
                let d = self.reduced_cost(j);
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
            self.ftran(j);

            // Ratio test: how far can x_j move?
            // x_B changes by -sigma * t * w. Among ratios tied within
            // TOL the largest pivot element wins: a tiny one would be
            // divided by in every solve until the next refactorization.
            let mut t_max = f64::INFINITY;
            let mut leave: Option<(usize, bool)> = None; // (row, leaves-at-lower)
            let mut size = 0.0; // |w| of the leaving row
            for i in 0..self.m {
                let delta = -sigma * self.w[i];
                if delta.abs() <= PIVOT_TOL {
                    continue;
                }
                // A decreasing basic value stops at its lower bound, an
                // increasing one at its upper.
                let at_lower = delta < 0.0;
                let bv = self.basis[i];
                let room = if at_lower {
                    self.xb[i] - self.lower[bv]
                } else {
                    self.upper[bv] - self.xb[i]
                };
                if room.is_infinite() {
                    continue;
                }
                let t = room / delta.abs();
                if t < t_max - TOL || (t < t_max + TOL && delta.abs() > size) {
                    t_max = t_max.min(t.max(0.0));
                    leave = Some((i, at_lower));
                    size = delta.abs();
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
                    for (x, &w) in self.xb.iter_mut().zip(&self.w) {
                        *x -= sigma * t_max * w;
                    }
                }
                Some((r, at_lower)) => {
                    if self.w[r].abs() < PIVOT_TOL {
                        // Numerically unusable pivot: refactorize and retry.
                        if !self.refactorize() {
                            return (Status::NotConverged, iterations);
                        }
                        continue;
                    }
                    if !self.pivot(r, j, sigma * t_max, at_lower) {
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
            self.btran_costs();
            self.btran_row(r);
            let mut entering: Option<(usize, f64, f64)> = None; // (var, ratio, |a|)
            for j in 0..self.n_total {
                if self.status[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                    continue;
                }
                let alpha: f64 = self.cols[j].iter().map(|&(i, a)| self.rho[i] * a).sum();
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
                let ratio = self.reduced_cost(j) / a;
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
            self.ftran(q);
            let w_r = self.w[r];
            if w_r.abs() < PIVOT_TOL {
                // The factor has drifted (row r and column q disagree):
                // refactorize and retry.
                if !self.refactorize() {
                    return (Status::NotConverged, pivots);
                }
                continue;
            }
            let leaving = self.basis[r];
            let bound = if below { self.lower[leaving] } else { self.upper[leaving] };
            self.counters.dual_pivots += 1;
            if !self.pivot(r, q, (self.xb[r] - bound) / w_r, below) {
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

    /// Held by the tests that read or move [`not_converged_total`]: the
    /// counter is the process's and tests run side by side.
    static NOT_CONVERGED_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn not_converged_lock() -> std::sync::MutexGuard<'static, ()> {
        NOT_CONVERGED_TESTS.lock().unwrap_or_else(|e| e.into_inner())
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
        // max x + y, x fixed at 2, y in [0, 3]. The slack starts basic
        // (8 is within its bounds), so there is no phase 1; phase 2 flips
        // y to its upper bound and ends with the pass that finds nothing
        // to enter. No zero-length flip of x.
        let mut p = Problem::maximize(2);
        p.set_bounds(0, 2.0, 2.0);
        p.set_bounds(1, 0.0, 3.0);
        p.set_objective(vec![(0, 1.0), (1, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Le, 10.0);
        let s = solve_lp(&p);
        assert!(s.is_optimal());
        assert_close(s.objective, 5.0);
        assert_eq!(s.iterations, 2);
    }

    #[test]
    fn rows_start_on_their_slack_where_it_fits() {
        // x, y in [0, 10]: x + y <= 8 holds at the origin (slack 8),
        // x + y >= 2 does not (slack 2 above its upper bound 0) and
        // x - y = 1 does not either. Two artificials, one phase 1.
        let mut p = Problem::minimize(2);
        p.set_bounds(0, 0.0, 10.0);
        p.set_bounds(1, 0.0, 10.0);
        p.set_objective(vec![(0, 1.0), (1, 2.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Le, 8.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Ge, 2.0);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Rel::Eq, 1.0);
        let mut t = Simplex::new(&p);
        let s = t.solve();
        assert!(s.is_optimal());
        assert_close(s.objective, 2.5); // (1.5, 0.5)
        let start = t.counters().start;
        assert_eq!((start.structural, start.slack, start.artificial), (0, 1, 2));
        assert!(start.phase1_pivots > 0);
        assert_eq!(start.to_string(), "0 structural/0 singleton/1 slack/2 artificial");
        // No free column and no slack that fits: every row on its
        // artificial, the textbook start.
        p.constraints.remove(0);
        let mut t = Simplex::new(&p);
        assert_close(t.solve().objective, 2.5);
        let start = t.counters().start;
        assert_eq!((start.structural, start.slack, start.artificial), (0, 0, 2));
    }

    #[test]
    fn free_columns_start_basic_on_the_row_that_suits_the_others() {
        // min e with -e <= x - 4 <= e and x in [0, 1]: at x = 0 the free
        // column e is basic on the row that makes it +4, where its other
        // row holds too (on the other it would be -4 and need an
        // artificial). One pivot brings x to 1.
        let mut p = Problem::minimize(2);
        p.set_bounds(0, 0.0, 1.0);
        p.set_objective(vec![(1, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Rel::Le, 4.0);
        p.add_constraint(vec![(0, -1.0), (1, -1.0)], Rel::Le, -4.0);
        let mut t = Simplex::new(&p);
        let s = t.solve();
        assert!(s.is_optimal());
        assert_close(s.objective, 3.0);
        let start = t.counters().start;
        assert_eq!((start.structural, start.slack, start.artificial), (1, 1, 0));
        assert_eq!(t.basis[1], 1, "e starts on the second row and stays");
        assert_eq!(s.iterations, 2, "the flip of x and the pass that finds nothing");
        // The check a crash basis has to pass: x_B solves its system.
        assert!(t.crash_is_sound());
        t.xb[1] += 1e-3;
        assert!(!t.crash_is_sound());
    }

    #[test]
    fn a_crash_column_the_factor_rejects_gives_way_to_a_unit_column() {
        // Two equal free columns: the crash puts one on each row, the
        // factor finds no pivot for the second and the row's unit column
        // takes its place. min u + v with 1 <= u + v <= 4.
        let mut p = Problem::minimize(2);
        p.set_objective(vec![(0, 1.0), (1, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Le, 4.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Ge, 1.0);
        let _counter = not_converged_lock();
        let before = not_converged_total();
        let mut t = Simplex::new(&p);
        let s = t.solve();
        assert!(s.is_optimal());
        assert_close(s.objective, 1.0);
        let start = t.counters().start;
        assert_eq!(start.structural, 1, "one of the twins was evicted: {start:?}");
        assert_eq!(start.structural + start.slack + start.artificial, 2);
        assert_eq!(not_converged_total(), before);
    }

    #[test]
    fn the_papers_exact_fit_listing_is_solved_from_its_crash() {
        // crates/core/tests/solveselect.rs::paper_lr_fitting_with_cdte as
        // the kernel sees it: pv = 3·out + 2·month + 5 exactly, eight
        // points whose regressor rows are close to collinear, the three
        // coefficients and the eight errors free. Whatever three rows
        // the crash gives the dense columns, a basis comes out of it.
        let months = [1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 11.0, 12.0];
        let mut p = Problem::minimize(3 + months.len());
        p.set_objective((0..months.len()).map(|i| (3 + i, 1.0)).collect());
        for (i, month) in months.iter().enumerate() {
            let out = 5.0 + 3.0 * i as f64;
            let pv = 3.0 * out + 2.0 * month + 5.0;
            let fit = |s: f64| vec![(0, s * out), (1, s * month), (2, s), (3 + i, -1.0)];
            p.add_constraint(fit(-1.0), Rel::Le, -pv);
            p.add_constraint(fit(1.0), Rel::Le, pv);
        }
        let _counter = not_converged_lock();
        let before = not_converged_total();
        let mut t = Simplex::new(&p);
        let s = t.solve();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 0.0);
        for (got, want) in s.x.iter().zip([3.0, 2.0, 5.0]) {
            assert!((got - want).abs() < 1e-5, "{got} vs {want}");
        }
        let start = t.counters().start;
        assert_eq!(start.structural + start.slack + start.artificial, 16);
        assert!(start.structural >= 8 && start.artificial < 16, "{start:?}");
        assert_eq!(not_converged_total(), before);
    }

    /// max x subject to `x + 2u = 8` and `x + w <= 30`, x in [0, 20], w
    /// in [0, 5] and u in `[0, u_max]`: u is a column singleton of the
    /// equality row, whose slack (fixed at 0) cannot hold its 8.
    fn singleton_row(u_max: f64) -> Problem {
        let mut p = Problem::maximize(3);
        p.set_bounds(0, 0.0, 20.0);
        p.set_bounds(1, 0.0, u_max);
        p.set_bounds(2, 0.0, 5.0);
        p.set_objective(vec![(0, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 2.0)], Rel::Eq, 8.0);
        p.add_constraint(vec![(0, 1.0), (2, 1.0)], Rel::Le, 30.0);
        p
    }

    fn start_counts(t: &Simplex) -> (usize, usize, usize, usize) {
        let s = t.counters().start;
        (s.structural, s.singleton, s.slack, s.artificial)
    }

    #[test]
    fn a_fitting_singleton_starts_basic_and_phase_1_does_not_run() {
        // u = 8 / 2 = 4 is within [0, 10]: the row starts on u. Row 1
        // keeps its slack (30 fits); w, its singleton, is not wanted.
        let p = singleton_row(10.0);
        let mut t = Simplex::new(&p);
        let s = t.solve();
        assert!(s.is_optimal());
        assert_close(s.objective, 8.0);
        assert_eq!(start_counts(&t), (0, 1, 1, 0));
        assert_eq!(t.counters().start.phase1_pivots, 0);
        assert_eq!(t.counters().start.to_string(), "0 structural/1 singleton/1 slack/0 artificial");
        // One pivot brings x in for u, one pass finds nothing more.
        assert_eq!(s.iterations, 2);
    }

    #[test]
    fn a_singleton_whose_value_leaves_its_bounds_is_passed_over() {
        // u would be 4 but stops at 3: the row goes to an artificial.
        let p = singleton_row(3.0);
        let mut t = Simplex::new(&p);
        let s = t.solve();
        assert!(s.is_optimal());
        assert_close(s.objective, 8.0);
        assert_eq!(start_counts(&t), (0, 0, 1, 1));
        assert!(t.counters().start.phase1_pivots > 0);
    }

    #[test]
    fn a_slack_that_fits_keeps_its_row_beside_a_singleton() {
        // `x + 2u <= 8` holds at the origin: the slack starts basic.
        let mut p = singleton_row(10.0);
        p.constraints[0].rel = Rel::Le;
        let mut t = Simplex::new(&p);
        assert_close(t.solve().objective, 8.0);
        assert_eq!(start_counts(&t), (0, 0, 2, 0));
    }

    #[test]
    fn of_two_fitting_singletons_the_larger_coefficient_wins() {
        // `x + 2u + 5v = 10`: u would be 5, v 2; v has the larger |a|.
        let mut p = Problem::minimize(3);
        for j in 0..3 {
            p.set_bounds(j, 0.0, 10.0);
        }
        p.set_objective(vec![(0, 1.0), (1, 1.0), (2, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 2.0), (2, 5.0)], Rel::Eq, 10.0);
        p.add_constraint(vec![(0, 1.0)], Rel::Le, 10.0);
        let mut t = Simplex::new(&p);
        assert_eq!(t.crash().singleton, 1);
        assert_eq!(t.basis[0], 2);
        assert_close(t.xb[0], 2.0);
        // Equal |a|: the lower column (v = 10 / 2 = 5 fits as u does).
        p.constraints[0].coeffs[2].1 = 2.0;
        let mut t = Simplex::new(&p);
        assert_eq!(t.crash().singleton, 1);
        assert_eq!(t.basis[0], 1);
        assert_close(t.solve().objective, 5.0);
    }

    #[test]
    fn a_fixed_column_is_never_taken() {
        // u fixed at 4 in `x + 10u = 40 + 2e-9`: the row is 2e-9 off,
        // beyond the slack's tolerance; u at 4 + 2e-10 would be within
        // its own. A fixed column cannot move, so the row goes to an
        // artificial; the same column with room [4, 5] carries it. (x is
        // in a second row: no singleton.)
        let mut p = Problem::minimize(2);
        p.set_bounds(0, 0.0, 1.0);
        p.set_bounds(1, 4.0, 4.0);
        p.set_objective(vec![(0, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 10.0)], Rel::Eq, 40.0 + 2e-9);
        p.add_constraint(vec![(0, 1.0)], Rel::Le, 5.0);
        let mut t = Simplex::new(&p);
        assert_eq!(t.crash().artificial, 1);
        p.set_bounds(1, 4.0, 5.0);
        let mut t = Simplex::new(&p);
        assert_eq!(t.crash().singleton, 1);
        assert_eq!(t.basis[0], 1);
    }

    #[test]
    fn a_column_whose_second_entry_merges_to_zero_is_a_singleton() {
        // u's entries in row 1, +1 and -1, merge to an explicit 0.0.
        let mut p = singleton_row(10.0);
        p.constraints[1].coeffs.extend([(1, 1.0), (1, -1.0)]);
        let mut t = Simplex::new(&p);
        assert_eq!(t.cols[1].len(), 2);
        let start = t.crash();
        assert_eq!((start.singleton, start.artificial), (1, 0));
        assert_eq!(t.basis[0], 1);
        assert_close(t.xb[0], 4.0);
        assert!(t.crash_is_sound());
        assert_close(t.solve().objective, 8.0);
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
    fn reduced_costs_are_in_minimization_sense_and_zero_when_basic() {
        // max 60a + 100b + 120c, 10a + 20b + 30c <= 50, all in [0, 1]:
        // a and b at their upper bounds, c basic at 2/3, the row's dual
        // the density of c (4). Minimizing −60a − 100b − 120c: d_a =
        // −60 + 4·10, d_b = −100 + 4·20.
        let mut p = Problem::maximize(3);
        for j in 0..3 {
            p.set_bounds(j, 0.0, 1.0);
        }
        p.set_objective(vec![(0, 60.0), (1, 100.0), (2, 120.0)]);
        p.add_constraint(vec![(0, 10.0), (1, 20.0), (2, 30.0)], Rel::Le, 50.0);
        let mut t = Simplex::new(&p);
        assert_close(t.solve().objective, 240.0);
        let d = t.reduced_costs();
        assert_close(d[0], -20.0);
        assert_close(d[1], -20.0);
        assert_eq!(d[2], 0.0);
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
    fn tied_ratios_pivot_on_the_larger_element() {
        // max x with 1e-9·x <= 1e-9 and x <= 1: both rows stop x at 1.
        // Whichever row x enters on, the pivot element is divided by
        // from then on; it must be the 1, not the 1e-9.
        let mut p = Problem::maximize(1);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_objective(vec![(0, 1.0)]);
        p.add_constraint(vec![(0, 1e-9)], Rel::Le, 1e-9);
        p.add_constraint(vec![(0, 1.0)], Rel::Le, 1.0);
        let mut t = Simplex::new(&p);
        let s = t.solve();
        assert!(s.is_optimal());
        assert_close(s.x[0], 1.0);
        assert_eq!(t.basis[1], 0, "x is basic in the row where its coefficient is 1");
    }

    #[test]
    fn a_coefficient_on_a_missing_column_is_not_solved_around() {
        // Built field by field, as a caller in a release build could:
        // the builders debug_assert the index range.
        let mut p = classic();
        p.constraints[2].coeffs.push((7, 1.0));
        let _counter = not_converged_lock();
        let before = not_converged_total();
        let s = solve_lp(&p);
        assert_eq!(s.status, Status::NotConverged);
        assert!(s.x.is_empty());
        assert!(not_converged_total() > before);

        let mut p = classic();
        p.objective.push((2, 1.0));
        assert_eq!(solve_lp(&p).status, Status::NotConverged);
        let mut t = Simplex::new(&p);
        let basis = t.basis();
        assert_eq!(t.resolve_from(&basis).status, Status::NotConverged);
        assert_eq!(crate::solve(&p).status, Status::NotConverged);
    }

    #[test]
    fn the_iteration_cap_is_reported_not_hidden() {
        let p = classic();
        let mut t = Simplex::new(&p);
        t.max_iter = 1;
        let _counter = not_converged_lock();
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
