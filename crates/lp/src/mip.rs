//! Branch-and-bound mixed-integer programming on top of the simplex.
//!
//! Best-first search on the LP relaxation bound, most-fractional
//! branching, with an optional node limit. One [`Simplex`] tableau
//! serves the whole tree: a node changes bounds on it and re-solves
//! from its parent's basis. This replaces the CBC/GLPK MIP solvers used
//! by the paper's `solverlp`.
//!
//! The search puts its incumbent to the two uses a MIP solver's search
//! is built on:
//!
//! - **Simple rounding** at every node whose relaxation is fractional.
//!   Rounding a column down cannot break a row unless a `<=` row has a
//!   negative coefficient on it, a `>=` row a positive one or an `=` row
//!   any (its *locks*, computed once per problem); rounding up is the
//!   mirror case. Each fractional integer column is rounded in a
//!   direction it is free to go (the cheaper one when both are), and a
//!   column locked both ways ends the attempt. The rounded point must
//!   pass the check an integral relaxation passes; if it beats the
//!   incumbent, it is the incumbent.
//! - **Reduced-cost fixing** once there is an incumbent worth z*: the
//!   cutoff is c = z* − gap·(1 + |z*|), and no node at or above it is
//!   explored. An integer column nonbasic at its lower bound l with
//!   reduced cost d > 0 in a relaxation worth z costs at least d for
//!   every unit it rises, so no point of that relaxation's region below
//!   c has it above l + ⌊(c − z)/d⌋: that is its upper bound from then
//!   on (a column at its upper bound is the mirror case). The root's
//!   reduced costs hold in the whole tree: their fixings tighten the
//!   bounds every node resets to, again on every new incumbent. A
//!   node's go into both of its children.
//!
//! A fixing derives from the same relaxation value that pruning by bound
//! already trusts, so neither changes what is optimal, only how much of
//! the tree it takes to prove it: rounding finds a first incumbent at
//! the root, where best-first search alone finds one only when some
//! relaxation happens to be integral, and the fixing it lets fire there
//! is what shrinks the tree (UC2's 60-item knapsacks: 188 nodes each →
//! 37). Where `=` rows lock every column (set partitioning), rounding
//! never succeeds and fixing waits for an integral relaxation.

use crate::simplex::{Basis, Counters, Simplex, Start};
use crate::{Problem, Rel, Solution, Status};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

const INT_TOL: f64 = 1e-6;
/// A reduced cost within this of zero fixes nothing: the kernel's
/// optimality tolerance.
const DJ_TOL: f64 = 1e-9;

/// Branch-and-bound options.
#[derive(Debug, Clone, Copy)]
pub struct MipOptions {
    /// Maximum number of explored nodes before giving up with the best
    /// incumbent found so far.
    pub node_limit: usize,
    /// Relative optimality gap at which search stops.
    pub gap: f64,
}

impl Default for MipOptions {
    fn default() -> Self {
        MipOptions { node_limit: 100_000, gap: 1e-9 }
    }
}

struct Node {
    /// Bound changes relative to the bounds every node starts from:
    /// (var, lower, upper).
    changes: Vec<(usize, f64, f64)>,
    /// LP relaxation bound of the parent (minimization sense).
    bound: f64,
    depth: usize,
    /// The parent's optimal basis, shared with the sibling.
    basis: Rc<Basis>,
}

/// Best-first: smaller bound (for minimization-sense values) explored
/// first.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for best (smallest) first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then(other.depth.cmp(&self.depth))
    }
}

fn is_fractional(v: f64) -> bool {
    let f = v - v.floor();
    f > INT_TOL && f < 1.0 - INT_TOL
}

/// Pick the most fractional integer variable of a relaxation solution.
fn pick_branch_var(p: &Problem, x: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (var, value, frac-dist)
    for j in 0..p.num_vars {
        if p.integer[j] && is_fractional(x[j]) {
            let dist = (x[j] - x[j].floor() - 0.5).abs();
            match best {
                None => best = Some((j, x[j], dist)),
                Some((_, _, d)) if dist < d => best = Some((j, x[j], dist)),
                _ => {}
            }
        }
    }
    best.map(|(j, v, _)| (j, v))
}

/// Simple rounding: which way each column can move without breaking a
/// row, computed once per problem.
struct Rounding {
    /// No row locks the column going down (up).
    down: Vec<bool>,
    up: Vec<bool>,
    /// Objective coefficients in minimization sense: a column free to go
    /// either way goes the cheaper way.
    cost: Vec<f64>,
}

impl Rounding {
    fn new(p: &Problem, sense: f64) -> Rounding {
        let n = p.num_vars;
        let (mut down, mut up) = (vec![true; n], vec![true; n]);
        for c in &p.constraints {
            for &(j, a) in c.coeffs.iter().filter(|&&(_, a)| a != 0.0) {
                let (locks_down, locks_up) = match c.rel {
                    Rel::Le => (a < 0.0, a > 0.0),
                    Rel::Ge => (a > 0.0, a < 0.0),
                    Rel::Eq => (true, true),
                };
                down[j] &= !locks_down;
                up[j] &= !locks_up;
            }
        }
        let mut cost = vec![0.0; n];
        for &(j, c) in &p.objective {
            cost[j] += sense * c;
        }
        Rounding { down, up, cost }
    }

    /// Round the relaxation point `x` of `p` into `out`: integral
    /// columns to their integer, each fractional one in a direction its
    /// locks leave free. False when a fractional column is locked both
    /// ways.
    fn round(&self, p: &Problem, x: &[f64], out: &mut [f64]) -> bool {
        for (j, (out, &v)) in out.iter_mut().zip(x).enumerate() {
            *out = if !p.integer[j] {
                v
            } else if !is_fractional(v) {
                v.round()
            } else if self.down[j] && (!self.up[j] || self.cost[j] >= 0.0) {
                v.floor()
            } else if self.up[j] {
                v.ceil()
            } else {
                return false;
            };
        }
        true
    }
}

/// The integer columns of the relaxation `x` the tableau last solved
/// that have a nonzero reduced cost, so rest at a bound: (column, that
/// bound, reduced cost), into `out`.
fn resting(tableau: &mut Simplex, p: &Problem, x: &[f64], out: &mut Vec<(usize, f64, f64)>) {
    out.clear();
    let dj = tableau.reduced_costs().iter().enumerate();
    out.extend(dj.filter(|&(j, d)| p.integer[j] && d.abs() > DJ_TOL).map(|(j, &d)| (j, x[j], d)));
}

/// Reduced-cost fixing of an integer column resting at `at` with reduced
/// cost `d`, `room` = cutoff − relaxation value: the bounds it has in
/// every point of the relaxation's region below the cutoff, one of them
/// infinite.
fn reach(at: f64, d: f64, room: f64) -> (f64, f64) {
    // INT_TOL: a quotient a rounding error short of an integer keeps it.
    let step = room / d.abs() + INT_TOL;
    if d > 0.0 {
        (f64::NEG_INFINITY, (at + step).floor())
    } else {
        ((at - step).ceil(), f64::INFINITY)
    }
}

/// Search telemetry from one branch-and-bound run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MipStats {
    /// Nodes whose LP relaxation was solved.
    pub nodes_explored: usize,
    /// Nodes discarded by bound or by an infeasible relaxation before
    /// branching.
    pub nodes_pruned: usize,
    /// Simplex iterations (primal and dual) summed over every LP
    /// relaxation solved.
    pub simplex_iterations: usize,
    /// Nodes re-solved from their parent's basis.
    pub warm_starts: usize,
    /// Nodes whose warm re-solve failed (singular basis, iteration cap)
    /// and that were solved cold instead.
    pub cold_starts: usize,
    /// Dual simplex pivots, a subset of `simplex_iterations`.
    pub dual_pivots: usize,
    /// Basis factorizations over the whole search.
    pub refactorizations: usize,
    /// How the most recent cold solve (the root, unless a node fell
    /// back to one) started.
    pub start: Start,
    /// Incumbent trajectory: (nodes explored when found, objective in
    /// the problem's own sense).
    pub incumbents: Vec<(usize, f64)>,
    /// Incumbents simple rounding found (the others were integral
    /// relaxations).
    pub rounded_incumbents: usize,
    /// Column bounds reduced-cost fixing tightened, at the root and at
    /// nodes.
    pub fixed: usize,
}

impl MipStats {
    /// Copy what the LP kernel counted while it solved the relaxations.
    pub fn record_kernel(&mut self, c: Counters) {
        self.warm_starts = c.warm_starts;
        self.cold_starts = c.cold_starts;
        self.dual_pivots = c.dual_pivots;
        self.refactorizations = c.refactorizations;
        self.start = c.start;
    }
}

/// A point-in-time snapshot of a running branch-and-bound search,
/// handed to the progress callback of [`branch_and_bound_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MipProgress {
    /// Nodes whose LP relaxation has been solved so far.
    pub nodes: usize,
    /// Simplex pivots summed over all relaxations so far.
    pub pivots: usize,
    /// Best feasible objective found so far, in the problem's own
    /// optimization sense.
    pub incumbent: Option<f64>,
    /// Relaxation bound of the node being explored, in the problem's
    /// own sense.
    pub best_bound: Option<f64>,
}

/// The progress callback fires at least once every this many nodes (and
/// additionally on every new incumbent), bounding both its overhead and
/// the watchdog's reaction latency.
pub const PROGRESS_NODE_INTERVAL: usize = 32;

/// Solve a MIP by branch-and-bound.
pub fn branch_and_bound(root: &Problem, opts: MipOptions) -> Solution {
    branch_and_bound_stats(root, opts).0
}

/// Solve a MIP by branch-and-bound, also reporting search telemetry.
pub fn branch_and_bound_stats(root: &Problem, opts: MipOptions) -> (Solution, MipStats) {
    branch_and_bound_with(root, opts, &mut |_| true)
}

/// The incumbent of a search, the telemetry and the progress callback
/// that hears of both.
struct Search<'a> {
    root: &'a Problem,
    /// 1 to minimize, −1 to maximize: values below are in minimization
    /// sense.
    sense: f64,
    gap: f64,
    incumbent: Option<(f64, Vec<f64>)>,
    stats: MipStats,
    nodes: usize,
    on_progress: &'a mut dyn FnMut(&MipProgress) -> bool,
}

/// What became of a point offered as the incumbent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Offer {
    Rejected,
    Taken,
    /// Taken, and the callback asked the search to stop.
    Stop,
}

impl Search<'_> {
    /// What a relaxation must be worth, below, to be explored.
    fn cutoff(&self) -> Option<f64> {
        self.incumbent.as_ref().map(|&(inc, _)| inc - self.gap * (1.0 + inc.abs()))
    }

    /// Tell the callback where the search is, at a node whose parent's
    /// relaxation was worth `bound`. False: stop.
    fn progress(&mut self, bound: f64) -> bool {
        (self.on_progress)(&MipProgress {
            nodes: self.nodes,
            pivots: self.stats.simplex_iterations,
            incumbent: self.incumbent.as_ref().map(|(o, _)| self.sense * *o),
            best_bound: Some(self.sense * bound),
        })
    }

    /// `x` (integral where it has to be) becomes the incumbent if it is
    /// feasible and better; the callback hears of every new one.
    fn offer(&mut self, x: &[f64], bound: f64) -> Offer {
        if !self.root.is_feasible(x, 1e-5) {
            return Offer::Rejected;
        }
        let obj = self.sense * self.root.objective_value(x);
        if self.incumbent.as_ref().is_some_and(|&(inc, _)| obj >= inc) {
            return Offer::Rejected;
        }
        self.stats.incumbents.push((self.nodes, self.sense * obj));
        self.incumbent = Some((obj, x.to_vec()));
        if self.progress(bound) {
            Offer::Taken
        } else {
            Offer::Stop
        }
    }
}

/// Solve a MIP by branch-and-bound with a progress callback. The
/// callback runs every [`PROGRESS_NODE_INTERVAL`] nodes and on every
/// new incumbent, a rounded one included; returning `false` stops the
/// search cooperatively with [`Status::Interrupted`], keeping the best
/// incumbent found so far.
pub fn branch_and_bound_with(
    root: &Problem,
    opts: MipOptions,
    on_progress: &mut dyn FnMut(&MipProgress) -> bool,
) -> (Solution, MipStats) {
    // Work in minimization sense internally.
    let sense = if root.minimize { 1.0 } else { -1.0 };
    let mut stats = MipStats::default();

    let mut tableau = Simplex::new(root);
    let root_lp = tableau.solve();
    stats.simplex_iterations += root_lp.iterations;
    if root_lp.status != Status::Optimal {
        // Infeasible, unbounded or not converged: so is the MIP.
        return (root_lp, stats);
    }
    if pick_branch_var(root, &root_lp.x).is_none() {
        // Relaxation is already integral.
        let mut s = root_lp;
        s.x.iter_mut().zip(&root.integer).for_each(|(v, &is_int)| {
            if is_int {
                *v = v.round();
            }
        });
        s.objective = root.objective_value(&s.x);
        stats.incumbents.push((0, s.objective));
        stats.record_kernel(tableau.counters());
        return (s, stats);
    }

    let mut search =
        Search { root, sense, gap: opts.gap, incumbent: None, stats, nodes: 0, on_progress };
    let rounding = Rounding::new(root, sense);
    let mut rounded = vec![0.0; root.num_vars];
    // The bounds every node starts from: the root's, tightened by
    // fixings against the root's reduced costs, which `root_rest` holds
    // with the root's relaxation value; `fixed_against` is the cutoff
    // they were last applied with.
    let (mut lower, mut upper) = (root.lower.clone(), root.upper.clone());
    let mut root_rest: Vec<(usize, f64, f64)> = Vec::new();
    let mut root_bound = f64::NAN;
    let mut fixed_against = f64::INFINITY;
    // A node's resting columns (scratch).
    let mut rest: Vec<(usize, f64, f64)> = Vec::new();

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        changes: vec![],
        bound: sense * root_lp.objective,
        depth: 0,
        basis: Rc::new(tableau.basis()),
    });
    // The root is the first node popped; its relaxation is this one.
    let mut root_lp = Some(root_lp);
    // Columns whose bounds on the tableau differ from `lower`/`upper`.
    let mut changed: Vec<usize> = Vec::new();

    let mut hit_limit = false;
    let mut interrupted = false;
    let mut not_converged = false;

    while let Some(node) = heap.pop() {
        // Bound pruning.
        if search.cutoff().is_some_and(|cutoff| node.bound >= cutoff) {
            search.stats.nodes_pruned += 1;
            continue;
        }
        search.nodes += 1;
        if search.nodes > opts.node_limit {
            hit_limit = true;
            break;
        }
        // `u64::is_multiple_of` would read better but needs Rust 1.87;
        // the workspace MSRV is 1.75.
        #[allow(clippy::manual_is_multiple_of)]
        if search.nodes % PROGRESS_NODE_INTERVAL == 0 && !search.progress(node.bound) {
            interrupted = true;
            break;
        }
        let lp = match root_lp.take() {
            Some(lp) => lp,
            None => {
                // An incumbent found since the root's fixings were last
                // applied makes the root's reduced costs reach further.
                if let Some(cutoff) = search.cutoff().filter(|&c| c < fixed_against) {
                    fixed_against = cutoff;
                    for &(j, at, d) in &root_rest {
                        let (lo, hi) = reach(at, d, cutoff - root_bound);
                        if lo > lower[j] || hi < upper[j] {
                            lower[j] = lower[j].max(lo);
                            upper[j] = upper[j].min(hi);
                            changed.push(j);
                            search.stats.fixed += 1;
                        }
                    }
                }
                // Move the tableau to this node's bounds and re-solve
                // from the parent's basis.
                for j in changed.drain(..) {
                    tableau.set_bounds(j, lower[j], upper[j]);
                }
                for &(j, lo, hi) in &node.changes {
                    let (l, u) = tableau.bounds(j);
                    tableau.set_bounds(j, l.max(lo), u.min(hi));
                    changed.push(j);
                }
                let lp = tableau.resolve_from(&node.basis);
                search.stats.simplex_iterations += lp.iterations;
                lp
            }
        };
        if lp.status == Status::NotConverged {
            // Nothing found so far can be called optimal or even best.
            not_converged = true;
            search.incumbent = None;
            break;
        }
        if lp.status != Status::Optimal {
            search.stats.nodes_pruned += 1;
            continue;
        }
        let bound = sense * lp.objective;
        if search.cutoff().is_some_and(|cutoff| bound >= cutoff) {
            search.stats.nodes_pruned += 1;
            continue;
        }
        // An integral relaxation is a candidate incumbent as it stands, a
        // fractional one once rounded.
        let branch = pick_branch_var(root, &lp.x);
        if rounding.round(root, &lp.x, &mut rounded) {
            let offer = search.offer(&rounded, node.bound);
            if offer != Offer::Rejected && branch.is_some() {
                search.stats.rounded_incumbents += 1;
            }
            if offer == Offer::Stop {
                interrupted = true;
                break;
            }
        }
        let Some((j, v)) = branch else {
            continue;
        };
        let at_root = node.depth == 0;
        if at_root {
            root_bound = bound;
            resting(&mut tableau, root, &lp.x, &mut root_rest);
        }
        let mut changes = node.changes;
        if let Some(cutoff) = search.cutoff() {
            if bound >= cutoff {
                // The rounded point closed this node.
                search.stats.nodes_pruned += 1;
                continue;
            }
            // The root's fixings go to every node, when the next starts.
            if !at_root {
                resting(&mut tableau, root, &lp.x, &mut rest);
                for &(k, at, d) in &rest {
                    let (lo, hi) = reach(at, d, cutoff - bound);
                    let (l, u) = tableau.bounds(k);
                    if lo > l || hi < u {
                        changes.push((k, lo, hi));
                        search.stats.fixed += 1;
                    }
                }
            }
        }
        let basis = Rc::new(tableau.basis());
        let depth = node.depth + 1;
        let mut down = changes.clone();
        down.push((j, f64::NEG_INFINITY, v.floor()));
        heap.push(Node { changes: down, bound, depth, basis: Rc::clone(&basis) });
        let mut up = changes;
        up.push((j, v.ceil(), f64::INFINITY));
        heap.push(Node { changes: up, bound, depth, basis });
    }

    let Search { incumbent, mut stats, nodes, .. } = search;
    stats.nodes_explored = nodes;
    stats.record_kernel(tableau.counters());
    let status = if not_converged {
        Status::NotConverged
    } else if interrupted {
        Status::Interrupted
    } else if hit_limit {
        Status::NodeLimit
    } else if incumbent.is_some() {
        Status::Optimal
    } else {
        Status::Infeasible
    };
    let solution = match incumbent {
        Some((obj, x)) => Solution {
            status,
            objective: sense * obj,
            x,
            iterations: stats.simplex_iterations,
            nodes,
        },
        None => Solution {
            status,
            iterations: stats.simplex_iterations,
            nodes,
            ..Solution::infeasible()
        },
    };
    (solution, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rel;

    fn knapsack_problem(values: &[f64], weights: &[f64], cap: f64) -> Problem {
        let n = values.len();
        let mut p = Problem::maximize(n);
        for j in 0..n {
            p.set_bounds(j, 0.0, 1.0);
            p.integer[j] = true;
        }
        p.set_objective(values.iter().copied().enumerate().collect());
        p.add_constraint(weights.iter().copied().enumerate().collect(), Rel::Le, cap);
        p
    }

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> Solution {
        branch_and_bound(&knapsack_problem(values, weights, cap), MipOptions::default())
    }

    #[test]
    fn knapsack_small() {
        // Items: (v, w): (60,10) (100,20) (120,30), cap 50 → 220.
        let s = knapsack(&[60.0, 100.0, 120.0], &[10.0, 20.0, 30.0], 50.0);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 220.0).abs() < 1e-6);
        assert_eq!(s.x.iter().map(|v| v.round() as i64).collect::<Vec<_>>(), vec![0, 1, 1]);
    }

    #[test]
    fn knapsack_matches_dp_oracle() {
        // Deterministic pseudo-random instance, checked against DP.
        let n = 18;
        let mut seed = 42u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) % 100) as f64 + 1.0
        };
        let values: Vec<f64> = (0..n).map(|_| next()).collect();
        let weights: Vec<f64> = (0..n).map(|_| next()).collect();
        let cap = weights.iter().sum::<f64>() * 0.4;

        // DP over integer weights.
        let wi: Vec<usize> = weights.iter().map(|&w| w as usize).collect();
        let c = cap as usize;
        let mut dp = vec![0.0f64; c + 1];
        for i in 0..n {
            for w in (wi[i]..=c).rev() {
                dp[w] = dp[w].max(dp[w - wi[i]] + values[i]);
            }
        }
        let best = dp[c];

        let s = knapsack(&values, &weights, c as f64);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - best).abs() < 1e-6, "bb={} dp={}", s.objective, best);
    }

    #[test]
    fn integer_equality_rounding() {
        // min x + y, x + y = 3, both integer ≥ 0 → objective 3.
        let mut p = Problem::minimize(2);
        p.set_bounds(0, 0.0, 10.0);
        p.set_bounds(1, 0.0, 10.0);
        p.integer = vec![true, true];
        p.set_objective(vec![(0, 1.0), (1, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Eq, 3.0);
        let s = branch_and_bound(&p, MipOptions::default());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        // x integer, 0.2 <= x <= 0.8.
        let mut p = Problem::minimize(1);
        p.set_bounds(0, 0.2, 0.8);
        p.integer = vec![true];
        p.add_constraint(vec![(0, 1.0)], Rel::Ge, 0.0);
        let s = branch_and_bound(&p, MipOptions::default());
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y; x integer in [0,5], y in [0, 2.5], x + y <= 6.2.
        let mut p = Problem::maximize(2);
        p.set_bounds(0, 0.0, 5.0);
        p.set_bounds(1, 0.0, 2.5);
        p.integer = vec![true, false];
        p.set_objective(vec![(0, 2.0), (1, 1.0)]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Le, 6.2);
        let s = branch_and_bound(&p, MipOptions::default());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.x[0] - 5.0).abs() < 1e-6);
        assert!((s.x[1] - 1.2).abs() < 1e-6);
        assert!((s.objective - 11.2).abs() < 1e-6);
    }

    #[test]
    fn stats_separate_simplex_iterations_from_nodes() {
        let n = 10;
        let values: Vec<f64> = (0..n).map(|i| (i * 7 % 13) as f64 + 1.0).collect();
        let weights: Vec<f64> = (0..n).map(|i| (i * 5 % 11) as f64 + 1.0).collect();
        let mut p = Problem::maximize(n);
        for j in 0..n {
            p.set_bounds(j, 0.0, 1.0);
            p.integer[j] = true;
        }
        p.set_objective(values.into_iter().enumerate().collect());
        p.add_constraint(weights.into_iter().enumerate().collect(), Rel::Le, 17.0);
        let (s, st) = branch_and_bound_stats(&p, MipOptions::default());
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.nodes, st.nodes_explored);
        assert_eq!(s.iterations, st.simplex_iterations);
        assert!(st.nodes_explored >= 1);
        // A branching search solves at least one LP pivot per node on
        // this instance, so the two counters must genuinely differ.
        assert!(
            st.simplex_iterations > st.nodes_explored,
            "iterations ({}) should count pivots, not nodes ({})",
            st.simplex_iterations,
            st.nodes_explored
        );
        assert!(!st.incumbents.is_empty());
        // Maximization: incumbents improve monotonically upward.
        for w in st.incumbents.windows(2) {
            assert!(w[1].1 > w[0].1, "incumbent trajectory must improve: {:?}", st.incumbents);
        }
        assert!((st.incumbents.last().unwrap().1 - s.objective).abs() < 1e-9);
    }

    fn hard_knapsack(n: usize) -> Problem {
        let values: Vec<f64> = (0..n).map(|i| (i * 7 % 13) as f64 + 1.0).collect();
        let weights: Vec<f64> = (0..n).map(|i| (i * 5 % 11) as f64 + 1.0).collect();
        let cap = weights.iter().sum::<f64>() * 0.45;
        let mut p = Problem::maximize(n);
        for j in 0..n {
            p.set_bounds(j, 0.0, 1.0);
            p.integer[j] = true;
        }
        p.set_objective(values.into_iter().enumerate().collect());
        p.add_constraint(weights.into_iter().enumerate().collect(), Rel::Le, cap);
        p
    }

    #[test]
    fn a_node_on_the_basis_the_tableau_holds_is_not_refactorized() {
        // Six 60-item knapsacks (the shape of a UC2 op). A child re-solves
        // from its parent's basis; when that is the basis the tableau
        // stopped on, the factor is kept.
        let mut seed = 7u64;
        let mut next = |lo: f64, hi: f64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lo + (hi - lo) * ((seed >> 11) as f64 / (1u64 << 53) as f64)
        };
        for _ in 0..6 {
            let values: Vec<f64> = (0..60).map(|_| next(5.0, 400.0)).collect();
            let weights: Vec<f64> = (0..60).map(|_| next(0.5, 12.0)).collect();
            let p = knapsack_problem(&values, &weights, weights.iter().sum::<f64>() * 0.4);
            let (s, st) = branch_and_bound_stats(&p, MipOptions::default());
            assert_eq!(s.status, Status::Optimal);
            assert_eq!(st.warm_starts, st.nodes_explored - 1);
            assert!(
                st.refactorizations < st.warm_starts,
                "{} refactorizations over {} warm starts",
                st.refactorizations,
                st.warm_starts
            );
        }
    }

    #[test]
    fn rows_lock_the_directions_that_could_break_them() {
        // x0 - x1 <= 4, x2 >= 1 via +x2, x3 in an `=` row, x4 in none.
        let mut p = Problem::maximize(5);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Rel::Le, 4.0);
        p.add_constraint(vec![(2, 1.0)], Rel::Ge, 1.0);
        p.add_constraint(vec![(3, 2.0), (4, 0.0)], Rel::Eq, 2.0);
        p.set_objective(vec![(4, 1.0)]);
        let r = Rounding::new(&p, -1.0);
        assert_eq!(r.down, [true, false, false, false, true]);
        assert_eq!(r.up, [false, true, true, false, true]);
        // Free both ways, x4 goes the way the (maximized) objective likes.
        p.integer = vec![true; 5];
        let mut out = [0.0; 5];
        assert!(r.round(&p, &[0.5, 0.5, 1.5, 1.0, 2.5], &mut out));
        assert_eq!(out, [0.0, 1.0, 2.0, 1.0, 3.0]);
        // A fractional column locked both ways ends the attempt.
        assert!(!r.round(&p, &[0.0, 0.0, 1.0, 1.5, 0.0], &mut out));
    }

    #[test]
    fn a_fixing_can_tighten_a_general_integer_without_fixing_it() {
        // Resting at 0 with d = 2 and 5 to spare: at most 2 more units.
        assert_eq!(reach(0.0, 2.0, 5.0), (f64::NEG_INFINITY, 2.0));
        // Resting at its upper bound 6 with d = −2: at least 4.
        assert_eq!(reach(6.0, -2.0, 5.0), (4.0, f64::INFINITY));
        // A quotient a rounding error short of an integer keeps it.
        assert_eq!(reach(0.0, 3.0, 3.0 - 1e-12), (f64::NEG_INFINITY, 1.0));
        assert_eq!(reach(1.0, 4.0, 3.9), (f64::NEG_INFINITY, 1.0));
    }

    #[test]
    fn rounding_finds_the_first_incumbent_at_the_root_and_fixing_follows() {
        let p = hard_knapsack(16);
        let mut events: Vec<MipProgress> = Vec::new();
        let (s, st) = branch_and_bound_with(&p, MipOptions::default(), &mut |ev| {
            events.push(*ev);
            true
        });
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(st.incumbents[0].0, 1, "found at the root: {:?}", st.incumbents);
        assert!(st.rounded_incumbents >= 1 && st.fixed > 0, "{st:?}");
        assert!(st.rounded_incumbents <= st.incumbents.len());
        let first = events.iter().find(|e| e.incumbent.is_some()).expect("an incumbent event");
        assert_eq!((first.nodes, first.incumbent), (1, Some(st.incumbents[0].1)));
        // Equality rows lock every column: no rounded incumbent, the
        // optimum all the same.
        let mut q = p.clone();
        q.constraints[0].rel = Rel::Eq;
        q.constraints[0].rhs = 40.0;
        let (s, st) = branch_and_bound_stats(&q, MipOptions::default());
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(st.rounded_incumbents, 0);
        assert!(q.is_feasible(&s.x, 1e-9));
    }

    #[test]
    fn progress_callback_observes_the_search() {
        let p = hard_knapsack(14);
        let mut events: Vec<MipProgress> = Vec::new();
        let (s, st) = branch_and_bound_with(&p, MipOptions::default(), &mut |ev| {
            events.push(*ev);
            true
        });
        assert_eq!(s.status, Status::Optimal);
        // Every new incumbent fires the callback, so at least the
        // incumbent trajectory is visible.
        assert!(events.len() >= st.incumbents.len());
        // Node counts are monotone non-decreasing across events.
        for w in events.windows(2) {
            assert!(w[1].nodes >= w[0].nodes);
        }
        let final_inc =
            events.iter().rev().find_map(|e| e.incumbent).expect("some event carries an incumbent");
        assert!((final_inc - s.objective).abs() < 1e-9);
    }

    #[test]
    fn callback_false_interrupts_with_incumbent() {
        let p = hard_knapsack(16);
        // Stop as soon as any incumbent exists.
        let (s, st) =
            branch_and_bound_with(&p, MipOptions::default(), &mut |ev| ev.incumbent.is_none());
        assert_eq!(s.status, Status::Interrupted);
        assert!(!st.incumbents.is_empty());
        assert!(!s.x.is_empty(), "interrupted solve keeps the incumbent point");
        assert!(s.objective.is_finite());
        // And the full search would have kept going.
        let full = branch_and_bound(&p, MipOptions::default());
        assert_eq!(full.status, Status::Optimal);
        assert!(full.objective >= s.objective - 1e-9);
    }

    #[test]
    fn immediate_interrupt_without_incumbent() {
        let p = hard_knapsack(16);
        let (s, _) = branch_and_bound_with(&p, MipOptions::default(), &mut |_| false);
        // Either the root relaxation was integral (unlikely here) or we
        // stopped before any incumbent.
        assert!(matches!(s.status, Status::Interrupted | Status::Optimal));
        if s.status == Status::Interrupted {
            assert!(s.x.is_empty() || s.objective.is_finite());
        }
    }

    #[test]
    fn node_limit_returns_incumbent_or_limit_status() {
        let n = 12;
        let values: Vec<f64> = (0..n).map(|i| (i * 7 % 13) as f64 + 1.0).collect();
        let weights: Vec<f64> = (0..n).map(|i| (i * 5 % 11) as f64 + 1.0).collect();
        let mut p = Problem::maximize(n);
        for j in 0..n {
            p.set_bounds(j, 0.0, 1.0);
            p.integer[j] = true;
        }
        p.set_objective(values.into_iter().enumerate().collect());
        p.add_constraint(weights.into_iter().enumerate().collect(), Rel::Le, 20.0);
        let s = branch_and_bound(&p, MipOptions { node_limit: 3, gap: 1e-9 });
        assert!(matches!(s.status, Status::NodeLimit | Status::Optimal));
    }
}
