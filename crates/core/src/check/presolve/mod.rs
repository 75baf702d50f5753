//! Abstract-interpretation presolve over compiled models.
//!
//! The analyzer of this module runs a fixpoint *interval analysis* over
//! a linear model: every variable carries an interval (its known
//! bounds), and constraint rows repeatedly tighten those intervals via
//! activity-based bound propagation until nothing improves. The
//! reduction log the fixpoint leaves behind powers two consumers:
//!
//! - **diagnostics** ([`diag`]): SD008–SD012 findings rendered through
//!   `EXPLAIN CHECK` — propagation-proven infeasibility, implied-fixed
//!   variables, redundant/forcing constraints, degenerate rows and
//!   pathological coefficient ranges;
//! - **model reduction** ([`reduce`]): variable fixing, bound
//!   tightening, singleton-row elimination and redundant-row removal
//!   applied to the [`lp::Problem`] before `solverlp` runs (behind the
//!   `presolve := on|off` solver parameter), with an un-crush step
//!   mapping the reduced solution back onto the original variables.
//!
//! The order is propagate → reduce: the reduced problem is built from
//! the fixpoint, and its last step, **doubleton-equality substitution**,
//! takes each free continuous column out through an equality of two
//! entries — the auxiliary columns a recursive CDTE is compiled to
//! leave the kernel that way, which then sees the recurrence as the
//! staircase it is. It changes only the problem the kernel is handed:
//! the diagnostics, the reduction log and the counts are all read
//! before it, from the rows the user's rules lowered to.
//!
//! The domain is the classic box/interval abstraction: propagation only
//! ever *shrinks* intervals using bounds implied by the constraints, so
//! every point feasible in the original model stays inside every
//! propagated interval (soundness — property-tested in
//! `crates/core/tests/presolve_properties.rs`, which also solves a
//! family of recurrence LPs with and without the whole of presolve).

pub mod diag;
pub mod reduce;

/// Numeric slack used when classifying rows (redundant / infeasible /
/// forcing). Scaled by the magnitude of the right-hand side.
const FEAS: f64 = 1e-7;
/// Minimum improvement for a tightened bound to be recorded — avoids
/// logging (and looping on) floating-point dust.
const MIN_IMPROVE: f64 = 1e-7;
/// Slack used when rounding integer bounds inward.
const INT_EPS: f64 = 1e-6;
/// Fixpoint pass bound. Interval propagation on acyclic structures
/// converges in a few passes; cyclic chains that keep producing real
/// improvements get cut off here (soundness is unaffected — stopping
/// early only leaves intervals wider).
const MAX_PASSES: usize = 16;

/// A closed interval `[lo, hi]`; infinities mean unbounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    pub const FREE: Interval = Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY };

    pub fn new(lo: f64, hi: f64) -> Interval {
        Interval { lo, hi }
    }

    pub fn point(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    pub fn is_empty(self) -> bool {
        self.lo > self.hi + FEAS * (1.0 + self.hi.abs())
    }

    /// A single (finite) value — the variable is determined.
    pub fn is_point(self) -> bool {
        self.lo.is_finite() && self.hi.is_finite() && (self.hi - self.lo).abs() <= FEAS
    }

    pub fn mid(self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    pub fn contains(self, x: f64, tol: f64) -> bool {
        x >= self.lo - tol && x <= self.hi + tol
    }
}

/// Row sense after normalization (`>=` rows are negated into `<=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowRel {
    Le,
    Eq,
}

/// One linear row `sum(coeffs) ⋈ rhs` with merged, nonzero
/// coefficients.
#[derive(Debug, Clone)]
pub struct Row {
    pub coeffs: Vec<(usize, f64)>,
    pub rel: RowRel,
    pub rhs: f64,
}

/// Bring a sparse coefficient list into the form [`Row`] promises and
/// every pass of this module reads: ascending column order, one entry
/// per column (duplicates summed in list order), no zeros. A list that
/// is already in that form — every row the compiler lowers — costs one
/// scan.
fn sort_and_merge(coeffs: &mut Vec<(usize, f64)>) {
    let canonical = coeffs.windows(2).all(|w| w[0].0 < w[1].0);
    if !canonical {
        coeffs.sort_by_key(|&(j, _)| j);
        coeffs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
    }
    coeffs.retain(|&(_, c)| c != 0.0);
}

/// The abstract model the fixpoint runs over.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub intervals: Vec<Interval>,
    pub integer: Vec<bool>,
    pub rows: Vec<Row>,
}

/// Why a variable got fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixCause {
    /// Bound propagation narrowed the interval to a point.
    Propagation,
    /// A forcing row pinned the variable at its activity bound.
    Forcing,
    /// A singleton equality row (`c·x = b`) determined it directly.
    SingletonRow,
}

/// Why a row was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Satisfied by every point in the current box.
    Redundant,
    /// Forcing: satisfiable only with every variable at its bound.
    Forcing,
    /// A single-variable row converted into a bound / fixing.
    Singleton,
    /// No variables left and trivially satisfied.
    Empty,
}

/// One entry of the reduction log, in the order reductions happened.
#[derive(Debug, Clone, PartialEq)]
pub enum Reduction {
    /// A bound improved: `upper` tells which side; `old` may be infinite.
    Tightened { var: usize, upper: bool, old: f64, new: f64 },
    /// A variable's interval collapsed to a point.
    Fixed { var: usize, value: f64, cause: FixCause },
    /// A row was eliminated.
    RowDropped { row: usize, cause: DropCause },
}

/// A proof that no feasible point exists.
#[derive(Debug, Clone, PartialEq)]
pub enum Infeasibility {
    /// The row's activity range cannot reach its right-hand side.
    RowActivity { row: usize, minact: f64, maxact: f64 },
    /// Propagation crossed a variable's bounds.
    EmptyBounds { var: usize },
}

/// Aggregate reduction counters (surface in `obs::SolverStats` and
/// `sdb_solver_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Variables removed from the problem (fixed to a single value).
    pub cols_removed: u64,
    /// Constraint rows eliminated.
    pub rows_removed: u64,
    /// Bound tightenings applied.
    pub bounds_tightened: u64,
}

/// Result of running the fixpoint: final intervals, per-variable fixed
/// values, surviving rows, the reduction log, and an infeasibility
/// proof when propagation found one.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub intervals: Vec<Interval>,
    /// `Some(v)` when the variable's interval is a point (including
    /// variables that entered already fixed).
    pub fixed: Vec<Option<f64>>,
    /// Rows still alive after elimination.
    pub live: Vec<bool>,
    pub log: Vec<Reduction>,
    pub infeasible: Option<Infeasibility>,
}

impl Outcome {
    pub fn counts(&self) -> Counts {
        let mut c = Counts {
            cols_removed: self.fixed.iter().filter(|f| f.is_some()).count() as u64,
            ..Counts::default()
        };
        for r in &self.log {
            match r {
                Reduction::Tightened { .. } => c.bounds_tightened += 1,
                Reduction::RowDropped { .. } => c.rows_removed += 1,
                Reduction::Fixed { .. } => {}
            }
        }
        c
    }
}

/// Contribution of `c·x` with `x` in `iv`, as `(min, max)`.
fn contrib(c: f64, iv: Interval) -> (f64, f64) {
    if c >= 0.0 {
        (c * iv.lo, c * iv.hi)
    } else {
        (c * iv.hi, c * iv.lo)
    }
}

/// Activity range of a row, tracking how many terms contribute an
/// infinity on each side (needed for one-infinity residual tightening).
struct Activity {
    min_fin: f64,
    max_fin: f64,
    min_inf: usize,
    max_inf: usize,
}

impl Activity {
    fn of(row: &Row, iv: &[Interval]) -> Activity {
        let mut a = Activity { min_fin: 0.0, max_fin: 0.0, min_inf: 0, max_inf: 0 };
        for &(j, c) in &row.coeffs {
            let (lo, hi) = contrib(c, iv[j]);
            if lo == f64::NEG_INFINITY {
                a.min_inf += 1;
            } else {
                a.min_fin += lo;
            }
            if hi == f64::INFINITY {
                a.max_inf += 1;
            } else {
                a.max_fin += hi;
            }
        }
        a
    }

    fn min(&self) -> f64 {
        if self.min_inf > 0 {
            f64::NEG_INFINITY
        } else {
            self.min_fin
        }
    }

    fn max(&self) -> f64 {
        if self.max_inf > 0 {
            f64::INFINITY
        } else {
            self.max_fin
        }
    }

    /// Minimum activity of every term except `j`'s (whose own minimum
    /// contribution is `own_min`), or `None` when another term already
    /// contributes `-∞` so no finite residual exists.
    fn residual_min(&self, own_min: f64) -> Option<f64> {
        match (self.min_inf, own_min == f64::NEG_INFINITY) {
            (0, _) => Some(self.min_fin - own_min),
            (1, true) => Some(self.min_fin),
            _ => None,
        }
    }

    /// Mirror of [`Activity::residual_min`] for the maximum side.
    fn residual_max(&self, own_max: f64) -> Option<f64> {
        match (self.max_inf, own_max == f64::INFINITY) {
            (0, _) => Some(self.max_fin - own_max),
            (1, true) => Some(self.max_fin),
            _ => None,
        }
    }
}

/// The propagation state while the fixpoint runs.
struct Engine {
    iv: Vec<Interval>,
    integer: Vec<bool>,
    live: Vec<bool>,
    /// Variables whose fixing has already been logged (or that entered
    /// the analysis already fixed, which is not a reduction).
    fix_noted: Vec<bool>,
    log: Vec<Reduction>,
    infeasible: Option<Infeasibility>,
    changed: bool,
    /// Visits begun so far; `written[j]` is the visit during which
    /// variable j's interval was last written (0: before the first) and
    /// `visited[ri]` the visit row ri last began (0: never).
    visits: u64,
    written: Vec<u64>,
    visited: Vec<u64>,
}

impl Engine {
    /// The state before the first pass: the model's intervals, the
    /// variables it fixed itself noted, integer bounds snapped inward.
    fn new(model: &Model) -> Engine {
        let n = model.intervals.len();
        let mut eng = Engine {
            iv: model.intervals.clone(),
            integer: model.integer.clone(),
            live: vec![true; model.rows.len()],
            fix_noted: vec![false; n],
            log: Vec::new(),
            infeasible: None,
            changed: false,
            visits: 0,
            written: vec![0; n],
            visited: vec![0; model.rows.len()],
        };
        // Variables that enter as points were fixed by the caller, not by
        // this analysis; don't log them as reductions.
        for j in 0..n {
            if eng.iv[j].is_point() {
                eng.fix_noted[j] = true;
            }
            if eng.iv[j].is_empty() {
                eng.infeasible.get_or_insert(Infeasibility::EmptyBounds { var: j });
            }
        }
        // Integer bounds snap inward before any propagation (`x <= 3.5`
        // becomes `x <= 3`) — this alone can make an LP relaxation integral.
        if eng.infeasible.is_none() {
            for j in 0..n {
                if eng.integer[j] {
                    let Interval { lo, hi } = eng.iv[j];
                    eng.tighten_upper(j, hi, FixCause::Propagation);
                    eng.tighten_lower(j, lo, FixCause::Propagation);
                }
                if eng.infeasible.is_some() {
                    break;
                }
            }
        }
        eng
    }

    fn finish(self) -> Outcome {
        let fixed = self.iv.iter().map(|iv| iv.is_point().then(|| iv.mid())).collect();
        Outcome {
            intervals: self.iv,
            fixed,
            live: self.live,
            log: self.log,
            infeasible: self.infeasible,
        }
    }

    /// Variable j's interval is being written.
    fn stamp(&mut self, j: usize) {
        self.written[j] = self.visits;
    }

    /// Row ri was visited, and none of its variables has been written
    /// since that visit began: a visit now would read the intervals the
    /// last one read and, as that one did, change nothing.
    fn is_clean(&self, ri: usize, row: &Row) -> bool {
        let since = self.visited[ri];
        since != 0 && row.coeffs.iter().all(|&(j, _)| self.written[j] < since)
    }

    fn feas_tol(rhs: f64) -> f64 {
        FEAS * (1.0 + rhs.abs())
    }

    /// Round an upper bound inward for integer variables.
    fn snap_upper(&self, j: usize, b: f64) -> f64 {
        if self.integer[j] && b.is_finite() {
            (b + INT_EPS).floor()
        } else {
            b
        }
    }

    fn snap_lower(&self, j: usize, b: f64) -> f64 {
        if self.integer[j] && b.is_finite() {
            (b - INT_EPS).ceil()
        } else {
            b
        }
    }

    fn note_fix(&mut self, j: usize, cause: FixCause) {
        if self.iv[j].is_point() && !self.fix_noted[j] {
            self.fix_noted[j] = true;
            self.log.push(Reduction::Fixed { var: j, value: self.iv[j].mid(), cause });
        }
    }

    fn after_bound_change(&mut self, j: usize, cause: FixCause) {
        self.changed = true;
        if self.iv[j].is_empty() {
            self.infeasible.get_or_insert(Infeasibility::EmptyBounds { var: j });
        } else {
            self.note_fix(j, cause);
        }
    }

    fn tighten_upper(&mut self, j: usize, bound: f64, cause: FixCause) {
        let b = self.snap_upper(j, bound);
        let old = self.iv[j].hi;
        let improve = MIN_IMPROVE * (1.0 + b.abs());
        if b < old - improve {
            self.log.push(Reduction::Tightened { var: j, upper: true, old, new: b });
            self.stamp(j);
            self.iv[j].hi = b;
            self.after_bound_change(j, cause);
        }
    }

    fn tighten_lower(&mut self, j: usize, bound: f64, cause: FixCause) {
        let b = self.snap_lower(j, bound);
        let old = self.iv[j].lo;
        let improve = MIN_IMPROVE * (1.0 + b.abs());
        if b > old + improve {
            self.log.push(Reduction::Tightened { var: j, upper: false, old, new: b });
            self.stamp(j);
            self.iv[j].lo = b;
            self.after_bound_change(j, cause);
        }
    }

    fn drop_row(&mut self, ri: usize, cause: DropCause) {
        self.live[ri] = false;
        self.log.push(Reduction::RowDropped { row: ri, cause });
        self.changed = true;
    }

    /// One propagation visit of a live row.
    fn visit(&mut self, ri: usize, row: &Row) {
        self.visits += 1;
        self.visited[ri] = self.visits;
        // Structural degenerate shapes first.
        match row.coeffs.len() {
            0 => {
                let sat = match row.rel {
                    RowRel::Le => 0.0 <= row.rhs + Self::feas_tol(row.rhs),
                    RowRel::Eq => row.rhs.abs() <= Self::feas_tol(row.rhs),
                };
                if sat {
                    self.drop_row(ri, DropCause::Empty);
                } else {
                    self.infeasible.get_or_insert(Infeasibility::RowActivity {
                        row: ri,
                        minact: 0.0,
                        maxact: 0.0,
                    });
                }
                return;
            }
            1 => {
                let (j, c) = row.coeffs[0];
                let b = row.rhs / c;
                match row.rel {
                    RowRel::Le if c > 0.0 => self.tighten_upper(j, b, FixCause::Propagation),
                    RowRel::Le => self.tighten_lower(j, b, FixCause::Propagation),
                    RowRel::Eq => {
                        if !self.iv[j].contains(b, Self::feas_tol(b)) {
                            self.infeasible.get_or_insert(Infeasibility::EmptyBounds { var: j });
                            return;
                        }
                        self.stamp(j);
                        self.iv[j] = Interval::point(b);
                        self.changed = true;
                        self.note_fix(j, FixCause::SingletonRow);
                    }
                }
                if self.infeasible.is_none() {
                    self.drop_row(ri, DropCause::Singleton);
                }
                return;
            }
            _ => {}
        }

        let act = Activity::of(row, &self.iv);
        let (minact, maxact) = (act.min(), act.max());
        let ftol = Self::feas_tol(row.rhs);

        // Classify the whole row.
        match row.rel {
            RowRel::Le => {
                if minact > row.rhs + ftol {
                    self.infeasible.get_or_insert(Infeasibility::RowActivity {
                        row: ri,
                        minact,
                        maxact,
                    });
                    return;
                }
                if maxact <= row.rhs + ftol {
                    self.drop_row(ri, DropCause::Redundant);
                    return;
                }
                if minact.is_finite() && minact >= row.rhs - ftol {
                    // Forcing: the row holds only with every term at its
                    // activity-minimizing bound.
                    for &(j, c) in &row.coeffs {
                        let v = if c > 0.0 { self.iv[j].lo } else { self.iv[j].hi };
                        self.stamp(j);
                        self.iv[j] = Interval::point(v);
                        self.note_fix(j, FixCause::Forcing);
                    }
                    self.drop_row(ri, DropCause::Forcing);
                    return;
                }
            }
            RowRel::Eq => {
                if minact > row.rhs + ftol || maxact < row.rhs - ftol {
                    self.infeasible.get_or_insert(Infeasibility::RowActivity {
                        row: ri,
                        minact,
                        maxact,
                    });
                    return;
                }
                if minact.is_finite()
                    && maxact.is_finite()
                    && minact >= row.rhs - ftol
                    && maxact <= row.rhs + ftol
                {
                    // Activity pinned at rhs: every term is a point.
                    self.drop_row(ri, DropCause::Redundant);
                    return;
                }
            }
        }

        // Residual-activity bound tightening: for each term,
        // c·x_j ⋈ rhs − activity(others).
        for &(j, c) in &row.coeffs {
            let (own_min, own_max) = contrib(c, self.iv[j]);
            if let Some(res_min) = act.residual_min(own_min) {
                let b = (row.rhs - res_min) / c;
                if c > 0.0 {
                    self.tighten_upper(j, b, FixCause::Propagation);
                } else {
                    self.tighten_lower(j, b, FixCause::Propagation);
                }
            }
            if row.rel == RowRel::Eq {
                if let Some(res_max) = act.residual_max(own_max) {
                    let b = (row.rhs - res_max) / c;
                    if c > 0.0 {
                        self.tighten_lower(j, b, FixCause::Propagation);
                    } else {
                        self.tighten_upper(j, b, FixCause::Propagation);
                    }
                }
            }
            if self.infeasible.is_some() {
                return;
            }
        }
    }
}

/// Run the interval fixpoint over a model, producing final intervals,
/// fixings, surviving rows and the reduction log. Each pass visits the
/// live rows in order and skips a row none of whose variables moved
/// since its last visit began (such a visit is a no-op); the fixpoint
/// ends after a pass that changed nothing, or after [`MAX_PASSES`].
pub fn propagate(model: &Model) -> Outcome {
    let mut eng = Engine::new(model);
    let mut passes = 0;
    while eng.infeasible.is_none() && passes < MAX_PASSES {
        eng.changed = false;
        for (ri, row) in model.rows.iter().enumerate() {
            if !eng.live[ri] || eng.is_clean(ri, row) {
                continue;
            }
            eng.visit(ri, row);
            if eng.infeasible.is_some() {
                break;
            }
        }
        if !eng.changed {
            break;
        }
        passes += 1;
    }
    eng.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model(intervals: Vec<Interval>, rows: Vec<Row>) -> Model {
        let n = intervals.len();
        Model { intervals, integer: vec![false; n], rows }
    }

    fn le(coeffs: Vec<(usize, f64)>, rhs: f64) -> Row {
        Row { coeffs, rel: RowRel::Le, rhs }
    }

    fn eq(coeffs: Vec<(usize, f64)>, rhs: f64) -> Row {
        Row { coeffs, rel: RowRel::Eq, rhs }
    }

    #[test]
    fn tightens_from_residual_activity() {
        // x + y <= 10, x >= 4 (via lo), y free below 0..inf → y <= 6.
        let m = model(
            vec![Interval::new(4.0, f64::INFINITY), Interval::new(0.0, f64::INFINITY)],
            vec![le(vec![(0, 1.0), (1, 1.0)], 10.0)],
        );
        let out = propagate(&m);
        assert!(out.infeasible.is_none());
        assert!((out.intervals[1].hi - 6.0).abs() < 1e-9, "{:?}", out.intervals[1]);
        assert!((out.intervals[0].hi - 10.0).abs() < 1e-9);
    }

    #[test]
    fn proves_infeasibility_by_activity() {
        // x + y <= 3 with x >= 2, y >= 2 → minact 4 > 3.
        let m = model(
            vec![Interval::new(2.0, 5.0), Interval::new(2.0, 5.0)],
            vec![le(vec![(0, 1.0), (1, 1.0)], 3.0)],
        );
        let out = propagate(&m);
        assert!(matches!(out.infeasible, Some(Infeasibility::RowActivity { row: 0, .. })));
    }

    #[test]
    fn removes_redundant_rows() {
        // x + y <= 100 with x,y in [0,1] is never binding.
        let m = model(
            vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)],
            vec![le(vec![(0, 1.0), (1, 1.0)], 100.0)],
        );
        let out = propagate(&m);
        assert_eq!(out.live, vec![false]);
        assert!(out
            .log
            .iter()
            .any(|r| matches!(r, Reduction::RowDropped { cause: DropCause::Redundant, .. })));
    }

    #[test]
    fn forcing_row_fixes_all_its_variables() {
        // x + y >= 2 (as -x - y <= -2) with x,y in [0,1]: only x=y=1 works.
        let m = model(
            vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)],
            vec![le(vec![(0, -1.0), (1, -1.0)], -2.0)],
        );
        let out = propagate(&m);
        assert!(out.infeasible.is_none());
        assert_eq!(out.fixed, vec![Some(1.0), Some(1.0)]);
        assert!(out
            .log
            .iter()
            .any(|r| matches!(r, Reduction::Fixed { cause: FixCause::Forcing, .. })));
    }

    #[test]
    fn singleton_eq_fixes_and_drops() {
        let m = model(vec![Interval::new(0.0, 10.0)], vec![eq(vec![(0, 2.0)], 6.0)]);
        let out = propagate(&m);
        assert_eq!(out.fixed, vec![Some(3.0)]);
        assert!(out.log.iter().any(
            |r| matches!(r, Reduction::Fixed { cause: FixCause::SingletonRow, value, .. } if *value == 3.0)
        ));
        assert_eq!(out.live, vec![false]);
    }

    #[test]
    fn singleton_eq_outside_bounds_is_infeasible() {
        let m = model(vec![Interval::new(0.0, 1.0)], vec![eq(vec![(0, 1.0)], 5.0)]);
        let out = propagate(&m);
        assert!(out.infeasible.is_some());
    }

    #[test]
    fn integer_bounds_snap_inward() {
        let mut m = model(vec![Interval::new(0.0, 3.5)], vec![]);
        m.integer[0] = true;
        let out = propagate(&m);
        assert_eq!(out.intervals[0].hi, 3.0);
        assert!(out
            .log
            .iter()
            .any(|r| matches!(r, Reduction::Tightened { upper: true, new, .. } if *new == 3.0)));
    }

    #[test]
    fn equality_propagates_both_directions() {
        // x + y = 5 with x in [1, 2] → y in [3, 4].
        let m = model(
            vec![Interval::new(1.0, 2.0), Interval::FREE],
            vec![eq(vec![(0, 1.0), (1, 1.0)], 5.0)],
        );
        let out = propagate(&m);
        assert!((out.intervals[1].lo - 3.0).abs() < 1e-9, "{:?}", out.intervals[1]);
        assert!((out.intervals[1].hi - 4.0).abs() < 1e-9);
    }

    #[test]
    fn chained_propagation_reaches_fixpoint() {
        // x = 2 (singleton eq); x + y <= 3 with y >= 1 → y fixed at 1 by
        // forcing on the second row.
        let m = model(
            vec![Interval::FREE, Interval::new(1.0, f64::INFINITY)],
            vec![eq(vec![(0, 1.0)], 2.0), le(vec![(0, 1.0), (1, 1.0)], 3.0)],
        );
        let out = propagate(&m);
        assert_eq!(out.fixed, vec![Some(2.0), Some(1.0)]);
        assert_eq!(out.live, vec![false, false]);
    }

    #[test]
    fn prefixed_variables_are_not_logged_as_reductions() {
        let m = model(vec![Interval::point(7.0)], vec![]);
        let out = propagate(&m);
        assert_eq!(out.fixed, vec![Some(7.0)]);
        assert!(out.log.is_empty());
    }

    #[test]
    fn empty_true_row_is_dropped_false_row_is_infeasible() {
        let m = model(vec![], vec![le(vec![], 1.0)]);
        let out = propagate(&m);
        assert_eq!(out.live, vec![false]);
        let m = model(vec![], vec![le(vec![], -1.0)]);
        assert!(propagate(&m).infeasible.is_some());
    }

    #[test]
    fn counts_aggregate_the_log() {
        let m = model(
            vec![Interval::new(0.0, 10.0), Interval::new(0.0, 1.0)],
            vec![eq(vec![(0, 1.0)], 4.0), le(vec![(0, 1.0), (1, 1.0)], 100.0)],
        );
        let out = propagate(&m);
        let c = out.counts();
        assert_eq!(c.cols_removed, 1);
        assert_eq!(c.rows_removed, 2); // singleton + redundant
    }

    /// The fixpoint [`propagate`] replaced: every live row visited on
    /// every pass.
    fn propagate_every_row(model: &Model) -> Outcome {
        let mut eng = Engine::new(model);
        let mut passes = 0;
        while eng.infeasible.is_none() && passes < MAX_PASSES {
            eng.changed = false;
            for (ri, row) in model.rows.iter().enumerate() {
                if !eng.live[ri] {
                    continue;
                }
                eng.visit(ri, row);
                if eng.infeasible.is_some() {
                    break;
                }
            }
            if !eng.changed {
                break;
            }
            passes += 1;
        }
        eng.finish()
    }

    /// Up to 8 variables (free, half-bounded, boxed, fixed, now and then
    /// crossed; a third integer) under up to 12 rows: `<=` and `=`, empty,
    /// singleton and longer, a fifth of them forcing (the right-hand side
    /// at the least activity the box allows), chained through shared
    /// variables so that propagation runs several passes.
    fn random_model(seed: u64) -> Model {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=8usize);
        let mut intervals = Vec::with_capacity(n);
        for _ in 0..n {
            let lo = rng.gen_range(-6..=6) as f64;
            let iv = match rng.gen_range(0..10) {
                0 => Interval::FREE,
                1 => Interval::new(lo, f64::INFINITY),
                2 => Interval::new(f64::NEG_INFINITY, lo),
                3 => Interval::point(lo),
                4 => Interval::new(lo, lo - 1.0),
                _ => Interval::new(lo, lo + rng.gen_range(0.5..12.0)),
            };
            intervals.push(iv);
        }
        let integer = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        let mut rows = Vec::new();
        for _ in 0..rng.gen_range(0..=12) {
            let len = match rng.gen_range(0..8) {
                0 => 0,
                1 | 2 => 1,
                _ => rng.gen_range(2..=n.max(2)).min(n),
            };
            let mut vars: Vec<usize> = (0..n).collect();
            for k in 0..len {
                let pick = rng.gen_range(k..n);
                vars.swap(k, pick);
            }
            vars.truncate(len);
            vars.sort_unstable();
            let coeffs: Vec<(usize, f64)> = vars
                .into_iter()
                .map(|j| {
                    let c = if rng.gen_bool(0.7) {
                        [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0][rng.gen_range(0..6usize)]
                    } else {
                        rng.gen_range(0.1..4.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 }
                    };
                    (j, c)
                })
                .collect();
            let rel = if rng.gen_bool(0.6) { RowRel::Le } else { RowRel::Eq };
            let min_activity: f64 = coeffs.iter().map(|&(j, c)| contrib(c, intervals[j]).0).sum();
            let rhs = if rng.gen_bool(0.2) && min_activity.is_finite() {
                min_activity
            } else {
                rng.gen_range(-15..=15) as f64 / 2.0
            };
            rows.push(Row { coeffs, rel, rhs });
        }
        Model { intervals, integer, rows }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Skipping the rows whose variables did not move leaves the
        /// outcome bit for bit as visiting every row does: intervals,
        /// fixings, live rows, the log in its order and the proof. (The
        /// `Debug` text of an `f64` round-trips, so equal texts are equal
        /// bits.)
        #[test]
        fn skipping_clean_rows_changes_nothing(seed in 0u64..u64::MAX) {
            let model = random_model(seed);
            let (got, want) = (propagate(&model), propagate_every_row(&model));
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }
}
