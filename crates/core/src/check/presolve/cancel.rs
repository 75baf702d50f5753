//! Nonzero cancellation — the last step of [`reduce_with`].
//!
//! A recursive CDTE evaluated symbolically unrolls its recurrence: row
//! *n* of `x[n] = a·x[n-1] + b·u[n]`, equated to a decision column,
//! carries `u[0..n]`, so a model with three nonzeros per row by nature
//! reaches the kernel as a dense lower triangle and every later layer
//! pays for the square of the horizon. Row *n* minus `a` times row
//! *n-1* is the recurrence again. This pass finds such pairs without
//! knowing where the rows came from: it adds a multiple of an
//! *equality* row to another row when that removes more nonzeros than
//! it creates (the "nonzero cancellation" reduction of Achterberg,
//! Bixby, Gu, Rothberg, Weninger, *Presolve Reductions in Mixed Integer
//! Programming*, 2020).
//!
//! An equality row holds with equality at every feasible point, so
//! `target − λ·eliminator` (right-hand sides with it) has the feasible
//! set of `target` whatever the sign of λ and whatever the sense of the
//! target. No column is touched: un-crushing, the reduction counts and
//! log, and every diagnostic — all read before this step, on the rows
//! the compiler lowered — stay as they are.
//!
//! A problem with an integer column is left alone: matrix
//! classification reads row *shapes* (knapsack, set partitioning,
//! network), and a combination of rows has none.
//!
//! [`reduce_with`]: super::reduce::reduce_with

use super::sort_and_merge;
use lp::Rel;
use std::cmp::{Ordering, Reverse};

/// Nonzeros a row operation must remove net of the ones it fills in.
/// One is not worth a perturbed row; an eliminator with a single entry
/// can never reach two.
const MIN_GAIN: usize = 2;
/// Eliminator rows tried per target.
const MAX_CANDIDATES: usize = 4;
/// `λ` must lie within `[1/MAX_SCALE, MAX_SCALE]` in magnitude: a row
/// is not rewritten as the small difference of two large ones.
const MAX_SCALE: f64 = 1e3;
/// An entry of `target − λ·eliminator` below this share of the two
/// terms it is the difference of has cancelled and is dropped.
const DROP_TOL: f64 = 1e-12;
/// An entry between [`DROP_TOL`] and this share is a near miss: kept,
/// it would put a coefficient six orders below its neighbours into the
/// row (the unscaled kernel has pivoted on such residues and lost five
/// digits of the basic solution); dropped, it would change the problem.
/// The candidate is rejected.
const NEAR_MISS: f64 = 1e-6;

type Coeffs = Vec<(usize, f64)>;

fn position(coeffs: &[(usize, f64)], col: usize) -> Option<usize> {
    coeffs.binary_search_by_key(&col, |&(j, _)| j).ok()
}

/// `target − λ·elim` over sorted lists, cancelled entries dropped;
/// `None` when an entry is a near miss.
fn combine(target: &[(usize, f64)], elim: &[(usize, f64)], lambda: f64) -> Option<Coeffs> {
    let mut out = Vec::with_capacity(target.len());
    let fill = |&(j, c): &(usize, f64)| (j, -lambda * c);
    let (mut i, mut k) = (0, 0);
    while i < target.len() && k < elim.len() {
        match target[i].0.cmp(&elim[k].0) {
            Ordering::Less => {
                out.push(target[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(fill(&elim[k]));
                k += 1;
            }
            Ordering::Equal => {
                let (a, b) = (target[i].1, lambda * elim[k].1);
                let (left, scale) = ((a - b).abs(), a.abs().max(b.abs()));
                if left > NEAR_MISS * scale {
                    out.push((target[i].0, a - b));
                } else if left > DROP_TOL * scale {
                    return None;
                }
                i += 1;
                k += 1;
            }
        }
    }
    out.extend_from_slice(&target[i..]);
    out.extend(elim[k..].iter().map(fill));
    Some(out)
}

/// Cancel nonzeros of `p`'s constraint rows in place; returns their
/// count before and after.
///
/// One pass: every row is a target once, in order of decreasing
/// nonzero count (an eliminator is then still the row the model
/// stated, not itself a combination). For a target, the columns that
/// the fewest other equality rows share name the candidate eliminators
/// — at most [`MAX_CANDIDATES`] of them; `λ` makes the shared column
/// cancel, and the shortest resulting row replaces the target when it
/// is at least [`MIN_GAIN`] entries shorter. The work is linear in the
/// nonzeros plus the bounded candidate tests; a problem without an
/// equality row of two entries returns at once, untouched.
pub(super) fn cancel_nonzeros(p: &mut lp::Problem) -> (usize, usize) {
    let nonzeros = |p: &lp::Problem| p.constraints.iter().map(|c| c.coeffs.len()).sum::<usize>();
    let eliminator = |c: &lp::Constraint| c.rel == Rel::Eq && c.coeffs.len() >= MIN_GAIN;
    if p.has_integers() || !p.constraints.iter().any(eliminator) {
        let n = nonzeros(p);
        return (n, n);
    }
    for c in &mut p.constraints {
        sort_and_merge(&mut c.coeffs);
    }
    let before = nonzeros(p);
    let rows = &mut p.constraints;

    // Per column: the equality rows holding it. `shared` counts them
    // exactly; `eq_rows` also keeps rows that have since lost the
    // column, dropped when a scan next meets them.
    let equalities = || rows.iter().enumerate().filter(|(_, c)| c.rel == Rel::Eq);
    let mut shared = vec![0usize; p.num_vars];
    for (_, c) in equalities() {
        c.coeffs.iter().for_each(|&(j, _)| shared[j] += 1);
    }
    let mut eq_rows: Vec<Vec<usize>> = shared.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (i, c) in equalities() {
        c.coeffs.iter().for_each(|&(j, _)| eq_rows[j].push(i));
    }
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| Reverse(rows[i].coeffs.len()));
    for t in order {
        let is_eq = rows[t].rel == Rel::Eq;
        let others = |j: usize| shared[j] - usize::from(is_eq);
        let target = &rows[t].coeffs;
        let Some(fewest) = target.iter().map(|&(j, _)| others(j)).filter(|&n| n > 0).min() else {
            continue;
        };
        let mut best: Option<(Coeffs, usize, f64)> = None;
        let mut tried = 0;
        for &(j, a) in target.iter().filter(|&&(j, _)| others(j) == fewest) {
            // `fewest` others hold the column: whatever follows the
            // last of them in the list is stale.
            let list = &mut eq_rows[j];
            let (mut at, mut met) = (0, 0);
            while at < list.len() && met < fewest && tried < MAX_CANDIDATES {
                let e = list[at];
                let Some(pos) = position(&rows[e].coeffs, j) else {
                    list.swap_remove(at);
                    continue;
                };
                at += 1;
                if e == t {
                    continue;
                }
                met += 1;
                tried += 1;
                let lambda = a / rows[e].coeffs[pos].1;
                if !(1.0 / MAX_SCALE..=MAX_SCALE).contains(&lambda.abs()) {
                    continue;
                }
                let Some(combined) = combine(target, &rows[e].coeffs, lambda) else { continue };
                if best.as_ref().map_or(true, |(b, ..)| combined.len() < b.len()) {
                    best = Some((combined, e, lambda));
                }
            }
        }
        let Some((combined, e, lambda)) = best else { continue };
        if combined.len() + MIN_GAIN > target.len() {
            continue;
        }
        if is_eq {
            for &(j, _) in target {
                shared[j] -= 1;
            }
            for &(j, _) in &combined {
                shared[j] += 1;
                if position(target, j).is_none() {
                    eq_rows[j].push(t);
                }
            }
        }
        let rhs = rows[e].rhs;
        rows[t].rhs -= lambda * rhs;
        rows[t].coeffs = combined;
    }
    (before, nonzeros(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x[n] = a·x[n-1] + b·u[n]` from `x[0] = x0`, unrolled the way the
    /// symbolic evaluator does it and equated to a state column: row n
    /// is `s[n] − Σ b·a^(n-k)·u[k] = a^n·x0`. Columns: u[1..=steps],
    /// then s[1..=steps].
    fn triangle(steps: usize, a: f64, b: f64, x0: f64) -> lp::Problem {
        let mut p = lp::Problem::minimize(2 * steps);
        let (mut inputs, mut constant): (Coeffs, f64) = (Vec::new(), x0);
        for n in 0..steps {
            inputs.iter_mut().for_each(|t| t.1 *= a);
            inputs.push((n, b));
            constant *= a;
            let mut coeffs: Coeffs = inputs.iter().map(|&(j, c)| (j, -c)).collect();
            coeffs.push((steps + n, 1.0));
            p.add_constraint(coeffs, Rel::Eq, constant);
        }
        p
    }

    fn canonical(p: &lp::Problem) -> Vec<(Coeffs, Rel, f64)> {
        p.constraints
            .iter()
            .map(|c| {
                let mut coeffs = c.coeffs.clone();
                sort_and_merge(&mut coeffs);
                (coeffs, c.rel, c.rhs)
            })
            .collect()
    }

    fn assert_untouched(mut p: lp::Problem) {
        let rows = canonical(&p);
        let (before, after) = cancel_nonzeros(&mut p);
        assert_eq!(before, after);
        assert_eq!(canonical(&p), rows);
    }

    #[test]
    fn a_one_state_recurrence_is_stated_as_a_recurrence_again() {
        for steps in [2, 5, 40] {
            let mut p = triangle(steps, 0.9, 0.25, 21.0);
            let (before, after) = cancel_nonzeros(&mut p);
            assert_eq!(before, steps * (steps + 3) / 2);
            if steps == 2 {
                // Row 2 would trade u[1] for s[1]: nothing to gain.
                assert_eq!(after, before);
                continue;
            }
            // Rows 1 and 2 are short as stated, row 3 would lose one
            // nonzero and keeps its four, every later row is
            // s[n] − a·s[n-1] − b·u[n] = 0.
            let lens: Vec<usize> = p.constraints.iter().map(|c| c.coeffs.len()).collect();
            assert_eq!(lens[..3], [2, 3, 4]);
            assert!(lens[3..].iter().all(|&n| n == 3), "{lens:?}");
            assert_eq!(after, 3 * steps);
            let last = &p.constraints[steps - 1];
            assert_eq!(last.coeffs[0], (steps - 1, -0.25));
            assert_eq!(last.coeffs[2], (2 * steps - 1, 1.0));
            assert_eq!(last.coeffs[1].0, 2 * steps - 2);
            assert!((last.coeffs[1].1 + 0.9).abs() < 1e-12 && last.rhs.abs() < 1e-9);
        }
    }

    #[test]
    fn the_cancelled_problem_has_the_same_optimum() {
        let mut p = triangle(12, 0.8, 0.5, 20.0);
        for n in 0..12 {
            p.tighten(n, 0.0, 10.0);
            p.tighten(12 + n, 19.0, 24.0);
        }
        p.set_objective((0..12).map(|n| (n, 1.0 + n as f64 / 7.0)).collect());
        let dense = lp::solve(&p);
        let (before, after) = cancel_nonzeros(&mut p);
        assert!(after < before);
        let sparse = lp::solve(&p);
        assert_eq!(dense.status, lp::Status::Optimal);
        assert_eq!(sparse.status, lp::Status::Optimal);
        assert!((dense.objective - sparse.objective).abs() <= 1e-9 * dense.objective.abs());
    }

    #[test]
    fn an_inequality_is_rewritten_by_an_equality_but_never_eliminates() {
        // x0 + 2·x1 + 3·x2 + x3 >= 4 loses the equality's three columns.
        let mut p = lp::Problem::minimize(4);
        p.add_constraint(vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 1.0)], Rel::Ge, 4.0);
        p.add_constraint(vec![(0, 0.5), (1, 1.0), (2, 1.5)], Rel::Eq, 1.0);
        assert_eq!(cancel_nonzeros(&mut p), (7, 4));
        assert_eq!(p.constraints[0].coeffs, vec![(3, 1.0)]);
        assert_eq!((p.constraints[0].rel, p.constraints[0].rhs), (Rel::Ge, 2.0));

        // An equality that an inequality's columns would shorten stays
        // as it is (and is itself too long to shorten the inequality).
        let mut p = lp::Problem::minimize(6);
        let long = vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 1.0), (4, 1.0), (5, 1.0)];
        p.add_constraint(long, Rel::Eq, 4.0);
        p.add_constraint(vec![(0, 0.5), (1, 1.0), (2, 1.5)], Rel::Le, 1.0);
        assert_untouched(p);
    }

    #[test]
    fn weak_or_ill_scaled_candidates_leave_the_problem_untouched() {
        let pair = |scale: f64, tail: Coeffs| {
            let mut p = lp::Problem::minimize(5);
            let mut long = vec![(0, 1.0), (1, 2.0), (2, 3.0)];
            long.extend(tail);
            p.add_constraint(long, Rel::Eq, 4.0);
            p.add_constraint(vec![(0, scale), (1, 2.0 * scale), (2, 3.0 * scale)], Rel::Eq, 1.0);
            p
        };
        // In range and three entries to gain: the control.
        let mut control = pair(0.5, vec![(3, 1.0)]);
        assert_eq!(cancel_nonzeros(&mut control), (7, 4));
        // |λ| = 2e3 and 5e-4.
        assert_untouched(pair(5e-4, vec![(3, 1.0)]));
        assert_untouched(pair(2e3, vec![(3, 1.0)]));
        // Two cancel, one fills in: a net gain of one, either way round.
        let mut p = lp::Problem::minimize(4);
        p.add_constraint(vec![(0, 1.0), (1, 2.0), (3, 1.0)], Rel::Eq, 4.0);
        p.add_constraint(vec![(0, 1.0), (1, 2.0), (2, 1.0)], Rel::Eq, 1.0);
        assert_untouched(p);
        // An integer column anywhere.
        let mut p = pair(0.5, vec![(3, 1.0)]);
        p.integer[4] = true;
        assert_untouched(p);
        // No equality row.
        let mut p = pair(0.5, vec![(3, 1.0)]);
        p.constraints.iter_mut().for_each(|c| c.rel = Rel::Le);
        assert_untouched(p);
    }

    #[test]
    fn a_near_miss_is_neither_dropped_nor_kept() {
        // x2 would be left with 3e-9, 3e-7: no cancellation, and no
        // entry to state beside coefficients of order one.
        for residue in [3e-9, 3e-7] {
            let mut p = lp::Problem::minimize(4);
            p.add_constraint(vec![(0, 1.0), (1, 2.0), (2, 3.0 + residue), (3, 1.0)], Rel::Eq, 4.0);
            p.add_constraint(vec![(0, 0.5), (1, 1.0), (2, 1.5)], Rel::Eq, 1.0);
            assert_untouched(p);
        }
        // 3e-5 of 3 is an entry like any other.
        let mut p = lp::Problem::minimize(4);
        p.add_constraint(vec![(0, 1.0), (1, 2.0), (2, 3.0 + 3e-5), (3, 1.0)], Rel::Eq, 4.0);
        p.add_constraint(vec![(0, 0.5), (1, 1.0), (2, 1.5)], Rel::Eq, 1.0);
        assert_eq!(cancel_nonzeros(&mut p), (7, 5));
        let left = &p.constraints[0].coeffs;
        assert_eq!((left[0].0, left[1]), (2, (3, 1.0)));
        assert!((left[0].1 - 3e-5).abs() < 1e-12, "{left:?}");
    }

    #[test]
    fn duplicate_and_unsorted_coefficient_lists_are_merged_first() {
        let mut p = lp::Problem::minimize(4);
        p.add_constraint(vec![(3, 1.0), (2, 3.0), (0, 0.25), (1, 2.0), (0, 0.75)], Rel::Eq, 4.0);
        p.add_constraint(vec![(2, 1.5), (1, 0.5), (0, 0.5), (1, 0.5), (3, 0.0)], Rel::Eq, 1.0);
        assert_eq!(cancel_nonzeros(&mut p), (7, 4));
        assert_eq!(p.constraints[0].coeffs, vec![(3, 1.0)]);
        assert_eq!(p.constraints[0].rhs, 2.0);
        assert_eq!(p.constraints[1].coeffs, vec![(0, 0.5), (1, 1.0), (2, 1.5)]);
    }
}
