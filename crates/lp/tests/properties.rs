//! Property-based checks of the simplex and branch-and-bound against
//! sampling and exhaustive oracles.

use lp::simplex::{solve_lp, Simplex};
use lp::{mip, Problem, Rel, Solution, Status};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a random bounded LP: n vars in [0, 10], m constraints
/// `a'x <= b` with coefficients in [-3, 3] and rhs chosen so the origin
/// region stays feasible reasonably often.
fn random_lp(seed: u64, n: usize, m: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::minimize(n);
    for j in 0..n {
        p.set_bounds(j, 0.0, 10.0);
    }
    p.set_objective((0..n).map(|j| (j, rng.gen_range(-5.0..5.0))).collect());
    for _ in 0..m {
        let coeffs: Vec<(usize, f64)> =
            (0..n).map(|j| (j, (rng.gen_range(-3i32..=3)) as f64)).collect();
        let rhs = rng.gen_range(0.0..30.0);
        let rel = if rng.gen_bool(0.7) { Rel::Le } else { Rel::Ge };
        p.add_constraint(coeffs, rel, if rel == Rel::Ge { -rhs } else { rhs });
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Simplex optimal solutions are feasible and no sampled feasible
    /// point beats them.
    #[test]
    fn simplex_not_beaten_by_sampling(seed in 0u64..5000, n in 1usize..5, m in 1usize..5) {
        let p = random_lp(seed, n, m);
        let sol = solve_lp(&p);
        match sol.status {
            Status::Optimal => {
                prop_assert!(p.is_feasible(&sol.x, 1e-5), "optimal point infeasible");
                // Sample candidates; none may be better than optimal.
                let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
                for _ in 0..300 {
                    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
                    if p.is_feasible(&x, 1e-9) {
                        let v = p.objective_value(&x);
                        prop_assert!(
                            v >= sol.objective - 1e-5,
                            "sampled point beats simplex: {} < {}", v, sol.objective
                        );
                    }
                }
            }
            Status::Infeasible => {
                // No sampled point may be feasible.
                let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
                for _ in 0..300 {
                    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
                    prop_assert!(!p.is_feasible(&x, 1e-9), "feasible point exists: {:?}", x);
                }
            }
            Status::Unbounded => {
                // Bounded box + bounded objective means this can't happen.
                prop_assert!(false, "bounded LP reported unbounded");
            }
            Status::NodeLimit => prop_assert!(false, "LP reported node limit"),
            Status::Interrupted => {
                // No callback installed here, so the search can never
                // be interrupted.
                prop_assert!(false, "LP reported interrupted without a callback");
            }
            Status::NotConverged => prop_assert!(false, "simplex did not converge"),
        }
    }

    /// Branch-and-bound equals exhaustive enumeration on small integer
    /// boxes.
    #[test]
    fn mip_matches_exhaustive(seed in 0u64..2000, n in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Problem::maximize(n);
        for j in 0..n {
            p.set_bounds(j, 0.0, 4.0);
            p.integer[j] = true;
        }
        p.set_objective((0..n).map(|j| (j, rng.gen_range(-5.0..5.0))).collect());
        let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, rng.gen_range(0.5..3.0))).collect();
        let cap = rng.gen_range(2.0..10.0);
        p.add_constraint(coeffs.clone(), Rel::Le, cap);

        let sol = mip::branch_and_bound(&p, mip::MipOptions::default());
        // Exhaustive oracle over the 5^n lattice.
        match lattice_oracle(&p, usize::MAX).expect("at most 125 points") {
            None => prop_assert_eq!(sol.status, Status::Infeasible),
            Some(b) => {
                prop_assert_eq!(sol.status, Status::Optimal);
                prop_assert!((sol.objective - b).abs() < 1e-6,
                    "bb {} vs exhaustive {}", sol.objective, b);
            }
        }
    }

    /// Equality-constrained systems: simplex solutions satisfy Ax = b.
    #[test]
    fn equality_constraints_hold(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3;
        let mut p = Problem::minimize(n);
        for j in 0..n {
            p.set_bounds(j, -5.0, 5.0);
        }
        p.set_objective(vec![(0, 1.0), (1, 1.0), (2, 1.0)]);
        let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, rng.gen_range(1.0..3.0))).collect();
        let rhs = rng.gen_range(-5.0..5.0);
        p.add_constraint(coeffs.clone(), Rel::Eq, rhs);
        let sol = solve_lp(&p);
        if sol.status == Status::Optimal {
            let lhs: f64 = coeffs.iter().map(|&(j, a)| a * sol.x[j]).sum();
            prop_assert!((lhs - rhs).abs() < 1e-6, "Ax = {} vs b = {}", lhs, rhs);
        }
    }
}

/// A random LP over the column kinds the kernel distinguishes: boxed,
/// lower-bounded only, upper-bounded only and free columns under `<=`,
/// `>=` and `=` rows. Free directions are paid for in the objective so
/// most instances are bounded.
fn mixed_lp(seed: u64, n: usize, m: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::minimize(n);
    let mut objective = Vec::new();
    for j in 0..n {
        let c = rng.gen_range(0.5..5.0);
        match rng.gen_range(0..4) {
            0 => {
                p.set_bounds(j, 0.0, 10.0);
                objective.push((j, rng.gen_range(-5.0..5.0)));
            }
            1 => {
                p.set_bounds(j, -4.0, f64::INFINITY);
                objective.push((j, c));
            }
            2 => {
                p.set_bounds(j, f64::NEG_INFINITY, 6.0);
                objective.push((j, -c));
            }
            _ => objective.push((j, 0.0)),
        }
    }
    p.set_objective(objective);
    for _ in 0..m {
        let coeffs: Vec<(usize, f64)> =
            (0..n).map(|j| (j, rng.gen_range(-3i32..=3) as f64)).collect();
        let rel = [Rel::Le, Rel::Ge, Rel::Eq][rng.gen_range(0..3usize)];
        let rhs = rng.gen_range(0.0..20.0);
        p.add_constraint(coeffs, rel, if rel == Rel::Ge { -rhs } else { rhs });
    }
    p
}

fn same_outcome(warm: &Solution, cold: &Solution) -> Result<(), TestCaseError> {
    prop_assert_eq!(warm.status, cold.status);
    if cold.status == Status::Optimal {
        prop_assert!(
            (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }
    Ok(())
}

/// The branch-and-bound this crate ran before the persistent tableau:
/// every node is a copy of the root with its bounds tightened, solved
/// cold. Kept as the oracle the warm-started search must agree with.
fn cold_branch_and_bound(root: &Problem) -> Solution {
    let sense = if root.minimize { 1.0 } else { -1.0 };
    let root_lp = solve_lp(root);
    if root_lp.status != Status::Optimal {
        return root_lp;
    }
    let mut best: Option<Solution> = None;
    let mut open = vec![root.clone()];
    while let Some(sub) = open.pop() {
        let lp = solve_lp(&sub);
        if lp.status != Status::Optimal {
            continue;
        }
        if best.as_ref().is_some_and(|b| sense * lp.objective >= sense * b.objective - 1e-9) {
            continue;
        }
        let fractional = (0..root.num_vars)
            .find(|&j| root.integer[j] && (lp.x[j] - lp.x[j].round()).abs() > 1e-6);
        match fractional {
            None => best = Some(lp),
            Some(j) => {
                let mut down = sub.clone();
                down.tighten(j, f64::NEG_INFINITY, lp.x[j].floor());
                let mut up = sub;
                up.tighten(j, lp.x[j].ceil(), f64::INFINITY);
                open.push(down);
                open.push(up);
            }
        }
    }
    best.unwrap_or_else(Solution::infeasible)
}

fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> Problem {
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

/// The knapsack family of `lp::mip`'s unit tests: no item dominates,
/// so the tree is deep for its size.
fn hard_knapsack(n: usize) -> Problem {
    let values: Vec<f64> = (0..n).map(|i| (i * 7 % 13) as f64 + 1.0).collect();
    let weights: Vec<f64> = (0..n).map(|i| (i * 5 % 11) as f64 + 1.0).collect();
    let cap = weights.iter().sum::<f64>() * 0.45;
    knapsack(&values, &weights, cap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any sequence of bound tightenings, re-solving from the
    /// previous basis gives what a fresh solve of the tightened problem
    /// gives — infeasible children included.
    #[test]
    fn resolve_from_matches_a_fresh_solve(seed in 0u64..100_000, n in 1usize..6, m in 1usize..5) {
        let mut p = mixed_lp(seed, n, m);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD0A1);
        // The tableau borrows the root; `p` is the tightened copy.
        let root = p.clone();
        let mut tableau = Simplex::new(&root);
        let first = tableau.solve();
        same_outcome(&first, &solve_lp(&root))?;
        if first.status != Status::Optimal {
            return Ok(());
        }
        let mut x = first.x;
        for _ in 0..6 {
            let basis = tableau.basis();
            // Branch-style cut next to the current point, or a random
            // squeeze that may leave the column no room at all.
            let j = rng.gen_range(0..n);
            let (lo, hi) = match rng.gen_range(0..3) {
                0 => (f64::NEG_INFINITY, (x[j] - rng.gen_range(0.0..1.5)).floor()),
                1 => ((x[j] + rng.gen_range(0.0..1.5)).ceil(), f64::INFINITY),
                _ => (rng.gen_range(-6.0..4.0), rng.gen_range(-2.0..8.0)),
            };
            p.tighten(j, lo, hi);
            tableau.set_bounds(j, p.lower[j], p.upper[j]);
            let warm = tableau.resolve_from(&basis);
            same_outcome(&warm, &solve_lp(&p))?;
            if warm.status != Status::Optimal {
                break;
            }
            prop_assert!(p.is_feasible(&warm.x, 1e-6), "warm optimum infeasible: {:?}", warm.x);
            x = warm.x;
        }
        prop_assert_eq!(tableau.counters().cold_starts, 0, "warm re-solve fell back");
    }
}

/// A random MIP over every column and row kind rounding and fixing tell
/// apart: 0/1 and general integer columns (ranges up to 6, lower bounds
/// down to −3), continuous columns, coefficients of both signs (or, in
/// a third of the instances, none negative: knapsack-like rows that
/// leave rounding a free direction) and `<=`, `>=` and `=` rows (an `=`
/// row locks its columns both ways). Most rows hold at one lattice point
/// of the box, so most instances are feasible; the others get a random
/// right-hand side. Coefficients are integers and right-hand sides
/// multiples of ½: a lattice point meets a row exactly or misses it by
/// ½ or more, so no tolerance can tell the oracles apart.
fn mixed_mip(seed: u64, n: usize, m: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::minimize(n);
    p.minimize = rng.gen_bool(0.5);
    let mut inside = Vec::with_capacity(n);
    for j in 0..n {
        let lower = rng.gen_range(-3i32..=1);
        let width = if rng.gen_bool(0.4) { 1 } else { rng.gen_range(2i32..=6) };
        p.set_bounds(j, lower as f64, (lower + width) as f64);
        p.integer[j] = rng.gen_bool(0.8);
        inside.push((lower + rng.gen_range(0..=width)) as f64);
    }
    p.set_objective((0..n).map(|j| (j, rng.gen_range(-5.0..5.0))).collect());
    let smallest = if rng.gen_bool(0.33) { 0 } else { -3 };
    for _ in 0..m {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for j in 0..n {
            if rng.gen_bool(0.7) {
                coeffs.push((j, rng.gen_range(smallest..=3) as f64));
            }
        }
        let rel = [Rel::Le, Rel::Le, Rel::Ge, Rel::Eq][rng.gen_range(0..4usize)];
        let at: f64 = coeffs.iter().map(|&(j, a)| a * inside[j]).sum();
        let room = 0.5 * rng.gen_range(0..=6) as f64;
        let rhs = match rel {
            _ if rng.gen_bool(0.15) => 0.5 * rng.gen_range(-12..=12) as f64,
            Rel::Le => at + room,
            Rel::Ge => at - room,
            Rel::Eq => at,
        };
        p.add_constraint(coeffs, rel, rhs);
    }
    p
}

/// The best objective over the integer lattice of `p`'s box, found
/// without branching: every assignment of the integer columns, with the
/// continuous ones (if any) optimized by an LP with those fixed.
/// `Some(None)`: no feasible point; `None`: more than `limit` points.
fn lattice_oracle(p: &Problem, limit: usize) -> Option<Option<f64>> {
    let ints: Vec<usize> = (0..p.num_vars).filter(|&j| p.integer[j]).collect();
    let continuous = ints.len() < p.num_vars;
    let widths: Vec<usize> = ints.iter().map(|&j| (p.upper[j] - p.lower[j]) as usize + 1).collect();
    let points = widths.iter().try_fold(1usize, |acc, &w| acc.checked_mul(w))?;
    if points > limit {
        return None;
    }
    let sense = if p.minimize { 1.0 } else { -1.0 };
    let mut best: Option<f64> = None;
    let mut fixed = p.clone();
    fixed.integer.fill(false);
    let mut x = vec![0.0; p.num_vars];
    let mut digits = vec![0usize; ints.len()];
    for _ in 0..points {
        for (k, &j) in ints.iter().enumerate() {
            x[j] = p.lower[j] + digits[k] as f64;
            fixed.set_bounds(j, x[j], x[j]);
        }
        let value = if continuous {
            let lp = solve_lp(&fixed);
            (lp.status == Status::Optimal).then_some(lp.objective)
        } else {
            p.is_feasible(&x, 1e-9).then(|| p.objective_value(&x))
        };
        if let Some(v) = value {
            best = Some(best.map_or(v, |b| if sense * v < sense * b { v } else { b }));
        }
        // Next assignment: a mixed-radix counter.
        for (digit, &width) in digits.iter_mut().zip(&widths) {
            *digit += 1;
            if *digit < width {
                break;
            }
            *digit = 0;
        }
    }
    Some(best)
}

/// Cases of a property the `analyze` CI job widens: `workspace` in the
/// workspace run, what `PROPTEST_CASES` says where it is set (the job
/// runs 20 000).
fn widened_cases(workspace: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(workspace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(widened_cases(256)))]

    /// Warm-started branch-and-bound, with its rounding and its
    /// reduced-cost fixing, agrees on status and objective with the
    /// cold-per-node oracle (neither heuristic) and, where the box is
    /// small enough to enumerate, with the lattice.
    #[test]
    fn warm_mip_matches_cold_oracle(seed in 0u64..1_000_000, n in 1usize..7, m in 1usize..4) {
        let p = mixed_mip(seed, n, m);
        let (warm, stats) = mip::branch_and_bound_stats(&p, mip::MipOptions::default());
        same_outcome(&warm, &cold_branch_and_bound(&p))?;
        let limit = if p.integer.iter().all(|&b| b) { 4096 } else { 256 };
        match lattice_oracle(&p, limit) {
            None => {}
            Some(None) => prop_assert_eq!(warm.status, Status::Infeasible),
            Some(Some(best)) => {
                prop_assert_eq!(warm.status, Status::Optimal);
                prop_assert!(
                    (warm.objective - best).abs() <= 1e-9 * (1.0 + best.abs()),
                    "bb {} vs lattice {}", warm.objective, best
                );
            }
        }
        if warm.status == Status::Optimal {
            prop_assert!(p.is_feasible(&warm.x, 1e-6), "optimum infeasible: {:?}", warm.x);
        }
        prop_assert_eq!(stats.cold_starts, 0);
        prop_assert_eq!(stats.warm_starts + 1, stats.nodes_explored.max(1));
    }
}

/// The mixed corpus reaches what the property is there to check: trees,
/// rounded incumbents and fixings.
#[test]
fn the_mixed_corpus_rounds_and_fixes() {
    let (mut rounded, mut fixed, mut searched) = (0, 0, 0);
    for seed in 0..400 {
        let p = mixed_mip(seed, 1 + (seed % 6) as usize, 1 + (seed % 3) as usize);
        let (_, stats) = mip::branch_and_bound_stats(&p, mip::MipOptions::default());
        rounded += stats.rounded_incumbents;
        fixed += stats.fixed;
        searched += usize::from(stats.nodes_explored > 1);
    }
    assert!(searched > 40 && rounded > 20 && fixed > 20, "{searched} {rounded} {fixed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 0/1 knapsacks of 30–60 items with integer weights against the
    /// dynamic program over capacities.
    #[test]
    fn knapsacks_match_the_dp_oracle(seed in 0u64..1_000_000, n in 30usize..=60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..400.0)).collect();
        let weights: Vec<usize> = (0..n).map(|_| rng.gen_range(1..=40)).collect();
        let cap = weights.iter().sum::<usize>() * rng.gen_range(2usize..=6) / 10;
        let mut dp = vec![0.0f64; cap + 1];
        for i in 0..n {
            for w in (weights[i]..=cap).rev() {
                dp[w] = dp[w].max(dp[w - weights[i]] + values[i]);
            }
        }
        let weights: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let p = knapsack(&values, &weights, cap as f64);
        let (s, stats) = mip::branch_and_bound_stats(&p, mip::MipOptions::default());
        prop_assert_eq!(s.status, Status::Optimal);
        prop_assert!(
            (s.objective - dp[cap]).abs() <= 1e-9 * (1.0 + dp[cap]),
            "bb {} vs dp {}", s.objective, dp[cap]
        );
        prop_assert!(p.is_feasible(&s.x, 1e-9));
        prop_assert_eq!(stats.cold_starts, 0);
    }

    /// The search is a function of the problem: solved twice, the same
    /// nodes, incumbents, fixings and point.
    #[test]
    fn the_same_mip_is_searched_the_same_way(seed in 0u64..1_000_000, knapsack_like in 0u8..2) {
        let p = if knapsack_like == 0 {
            mixed_mip(seed, 6, 3)
        } else {
            let mut rng = StdRng::seed_from_u64(seed);
            let values: Vec<f64> = (0..40).map(|_| rng.gen_range(1.0..400.0)).collect();
            let weights: Vec<f64> = (0..40).map(|_| rng.gen_range(0.5..12.0)).collect();
            knapsack(&values, &weights, weights.iter().sum::<f64>() * 0.4)
        };
        let (a, a_stats) = mip::branch_and_bound_stats(&p, mip::MipOptions::default());
        let (b, b_stats) = mip::branch_and_bound_stats(&p, mip::MipOptions::default());
        prop_assert_eq!(&a_stats, &b_stats);
        prop_assert_eq!((a.status, a.nodes, a.iterations), (b.status, b.nodes, b.iterations));
        prop_assert_eq!(&a.x, &b.x);
    }
}

/// A sparse LP at sizes where the basis factor has a nucleus, an eta
/// file that fills and refactorizations in mid-solve: boxed columns,
/// rows of one to four nonzeros (so some basis columns are singletons),
/// two columns that appear in every row (dense basis columns, as the
/// coefficients of an L1 regression are) and all three relations.
fn sparse_lp(seed: u64, n: usize, m: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::minimize(n);
    for j in 0..n {
        p.set_bounds(j, 0.0, 10.0);
    }
    p.set_objective((0..n).map(|j| (j, rng.gen_range(-5.0..5.0))).collect());
    // Every row holds at this point of the box, so the root is feasible.
    let inside: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..9.0)).collect();
    for _ in 0..m {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for _ in 0..rng.gen_range(1..=4usize) {
            coeffs.push((rng.gen_range(0..n), rng.gen_range(-3i32..=3) as f64));
        }
        coeffs.push((0, rng.gen_range(0.5..2.0)));
        coeffs.push((1, rng.gen_range(-2.0..-0.5)));
        let at: f64 = coeffs.iter().map(|&(j, a)| a * inside[j]).sum();
        let room = rng.gen_range(0.0..5.0);
        match rng.gen_range(0..4) {
            0 => p.add_constraint(coeffs, Rel::Eq, at),
            1 => p.add_constraint(coeffs, Rel::Ge, at - room),
            _ => p.add_constraint(coeffs, Rel::Le, at + room),
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The kernel at m up to 120: cold solves are feasible and re-solves
    /// agree with fresh solves of the tightened problem, both from the
    /// basis the tableau stopped on (its factor is kept, only x_B is
    /// recomputed) and from the root's (factorized again).
    #[test]
    fn sparse_resolves_match_fresh_solves(seed in 0u64..100_000, n in 3usize..60, m in 1usize..=120) {
        let mut p = sparse_lp(seed, n, m);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5BA5);
        let root = p.clone();
        let mut tableau = Simplex::new(&root);
        let first = tableau.solve();
        prop_assert_eq!(first.status, Status::Optimal, "a feasible LP over a box");
        prop_assert!(root.is_feasible(&first.x, 1e-6), "cold optimum infeasible");
        let root_basis = tableau.basis();
        let mut x = first.x;
        for round in 0..6 {
            let from = if round % 2 == 0 { tableau.basis() } else { root_basis.clone() };
            let j = rng.gen_range(0..n);
            let (lo, hi) = if rng.gen_bool(0.5) {
                (f64::NEG_INFINITY, (x[j] - rng.gen_range(0.0..1.5)).floor())
            } else {
                ((x[j] + rng.gen_range(0.0..1.5)).ceil(), f64::INFINITY)
            };
            p.tighten(j, lo, hi);
            tableau.set_bounds(j, p.lower[j], p.upper[j]);
            let warm = tableau.resolve_from(&from);
            same_outcome(&warm, &solve_lp(&p))?;
            if warm.status != Status::Optimal {
                break;
            }
            prop_assert!(p.is_feasible(&warm.x, 1e-6), "warm optimum infeasible");
            x = warm.x;
        }
        prop_assert_eq!(tableau.counters().cold_starts, 0, "warm re-solve fell back");
    }
}

/// A least-absolute-deviation fit stated as the LP of the paper's §4.1:
/// k free coefficients, one free error column per point with cost 1,
/// and `−eᵢ ≤ xᵢ·b − yᵢ ≤ eᵢ` as two `<=` rows per point — free columns
/// with a cost, which the crash makes basic before the first pivot.
fn lad_lp(x: &[Vec<f64>], y: &[f64]) -> Problem {
    let (n, k) = (x.len(), x[0].len());
    let mut p = Problem::minimize(k + n);
    p.set_objective((0..n).map(|i| (k + i, 1.0)).collect());
    for i in 0..n {
        let fit = |sign: f64| -> Vec<(usize, f64)> {
            let mut row: Vec<(usize, f64)> = (0..k).map(|j| (j, sign * x[i][j])).collect();
            row.push((k + i, -1.0));
            row
        };
        p.add_constraint(fit(-1.0), Rel::Le, -y[i]);
        p.add_constraint(fit(1.0), Rel::Le, y[i]);
    }
    p
}

/// k ≤ 3 regressors (the first constant) at n ≤ 9 points, the first k
/// of them in general position so the fit is determined; later points
/// may repeat an earlier one (collinear rows: a crash basis the factor
/// has to repair). A third of the targets are an exact fit, a sixth all
/// zero (the night hours of a PV series), the rest noise.
fn lad_instance(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = rng.gen_range(1..=3usize);
    let n = rng.gen_range(k..=9usize);
    let mut x: Vec<Vec<f64>> = Vec::new();
    for i in 0..n {
        if i >= k && rng.gen_bool(0.25) {
            let earlier = x[rng.gen_range(0..i)].clone();
            x.push(earlier);
        } else {
            x.push((0..k).map(|j| if j == 0 { 1.0 } else { rng.gen_range(-4.0..4.0) }).collect());
        }
    }
    let truth: Vec<f64> = (0..k).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let y = match rng.gen_range(0..6) {
        0 | 1 => x.iter().map(|xi| xi.iter().zip(&truth).map(|(a, b)| a * b).sum()).collect(),
        2 => vec![0.0; n],
        _ => (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect(),
    };
    (x, y)
}

/// Solve the k×k system `a·b = rhs` (k ≤ 3) by Gaussian elimination
/// with partial pivoting; `None` when singular.
fn solve_square(mut a: Vec<Vec<f64>>, mut rhs: Vec<f64>) -> Option<Vec<f64>> {
    let k = rhs.len();
    for c in 0..k {
        let pivot = (c..k).max_by(|&p, &q| a[p][c].abs().total_cmp(&a[q][c].abs()))?;
        if a[pivot][c].abs() < 1e-9 {
            return None;
        }
        a.swap(c, pivot);
        rhs.swap(c, pivot);
        for r in 0..k {
            if r != c {
                let f = a[r][c] / a[c][c];
                for cc in 0..k {
                    a[r][cc] -= f * a[c][cc];
                }
                rhs[r] -= f * rhs[c];
            }
        }
    }
    Some((0..k).map(|c| rhs[c] / a[c][c]).collect())
}

/// The least sum of absolute deviations, independently of any simplex:
/// an optimal fit interpolates k points with independent regressors, so
/// it is the best of the fits through all C(n, k) subsets.
fn lad_oracle(x: &[Vec<f64>], y: &[f64]) -> f64 {
    let (n, k) = (x.len(), x[0].len());
    let mut best = f64::INFINITY;
    for mask in 0u32..1 << n {
        if mask.count_ones() as usize != k {
            continue;
        }
        let subset: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
        let rows = subset.iter().map(|&i| x[i].clone()).collect();
        if let Some(b) = solve_square(rows, subset.iter().map(|&i| y[i]).collect()) {
            let fit = |xi: &Vec<f64>| xi.iter().zip(&b).map(|(a, b)| a * b).sum::<f64>();
            best = best.min(x.iter().zip(y).map(|(xi, yi)| (fit(xi) - yi).abs()).sum());
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Free columns with a cost: the LAD optimum is the oracle's, a
    /// crossed pair of rows makes it infeasible, a costed free column
    /// that no row holds back makes it unbounded.
    #[test]
    fn lad_fits_match_the_subset_oracle(seed in 0u64..100_000) {
        let (x, y) = lad_instance(seed);
        let (n, k) = (x.len(), x[0].len());
        let p = lad_lp(&x, &y);
        let mut tableau = Simplex::new(&p);
        let sol = tableau.solve();
        prop_assert_eq!(sol.status, Status::Optimal);
        prop_assert!(p.is_feasible(&sol.x, 1e-6), "optimum infeasible");
        let want = lad_oracle(&x, &y);
        prop_assert!(
            (sol.objective - want).abs() <= 1e-9 * (1.0 + want.abs()),
            "simplex {} vs subsets {}", sol.objective, want
        );
        let start = tableau.counters().start;
        prop_assert_eq!(start.structural + start.slack + start.artificial, 2 * n);
        prop_assert!(start.structural >= n, "the error columns start basic: {:?}", start);

        // The intercept below 3 and above 5.
        let mut crossed = p.clone();
        crossed.add_constraint(vec![(0, 1.0)], Rel::Le, 3.0);
        crossed.add_constraint(vec![(0, 1.0)], Rel::Ge, 5.0);
        prop_assert_eq!(solve_lp(&crossed).status, Status::Infeasible);

        // One more free column that is paid for going down: in no row,
        // or only in a row that stops it going up.
        let mut open = p.clone();
        let z = open.add_var(f64::NEG_INFINITY, f64::INFINITY, false);
        open.objective.push((z, 1.0));
        if seed % 2 == 0 {
            open.add_constraint(vec![(z, 1.0), (k, 1.0)], Rel::Le, 7.0);
        }
        prop_assert_eq!(solve_lp(&open).status, Status::Unbounded);
    }

    /// The crash is a function of the problem: a second tableau, and the
    /// same tableau solved again, start from the same basis, take the
    /// same iterations and stop on the same basis.
    #[test]
    fn the_same_problem_starts_from_the_same_basis(seed in 0u64..100_000, lad in 0u8..2) {
        let p = if lad == 0 {
            let (x, y) = lad_instance(seed);
            lad_lp(&x, &y)
        } else {
            mixed_lp(seed, 5, 4)
        };
        let mut first = Simplex::new(&p);
        let a = first.solve();
        let (a_start, a_basis) = (first.counters().start, first.basis());
        let mut second = Simplex::new(&p);
        let b = second.solve();
        prop_assert_eq!((a.status, a.iterations), (b.status, b.iterations));
        prop_assert_eq!(a_start, second.counters().start);
        prop_assert_eq!(&a_basis, &second.basis());
        let again = first.solve();
        prop_assert_eq!((a.status, a.iterations), (again.status, again.iterations));
        prop_assert_eq!(a_start, first.counters().start);
        prop_assert_eq!(&a_basis, &first.basis());
        if a.status == Status::Optimal {
            prop_assert_eq!(&a.x, &b.x);
            prop_assert_eq!(&a.x, &again.x);
        }
    }
}

#[test]
fn warm_knapsack_matches_dp_oracle() {
    let n = 40;
    let mut rng = StdRng::seed_from_u64(7);
    let values: Vec<f64> = (0..n).map(|_| rng.gen_range(1..100) as f64).collect();
    let weights: Vec<usize> = (0..n).map(|_| rng.gen_range(1..100)).collect();
    let cap = weights.iter().sum::<usize>() * 2 / 5;
    let mut dp = vec![0.0f64; cap + 1];
    for i in 0..n {
        for w in (weights[i]..=cap).rev() {
            dp[w] = dp[w].max(dp[w - weights[i]] + values[i]);
        }
    }
    let weights: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
    let p = knapsack(&values, &weights, cap as f64);
    let (s, stats) = mip::branch_and_bound_stats(&p, mip::MipOptions::default());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective - dp[cap]).abs() < 1e-9, "bb {} vs dp {}", s.objective, dp[cap]);
    assert!(p.is_feasible(&s.x, 1e-9));
    assert_eq!(stats.cold_starts, 0);
}

#[test]
fn stopped_searches_keep_their_incumbent() {
    let p = hard_knapsack(16);
    let full = mip::branch_and_bound(&p, mip::MipOptions::default());
    assert_eq!(full.status, Status::Optimal);

    let (s, stats) = mip::branch_and_bound_with(&p, mip::MipOptions::default(), &mut |ev| {
        ev.incumbent.is_none()
    });
    assert_eq!(s.status, Status::Interrupted);
    assert_eq!(stats.incumbents.len(), 1);
    assert!(p.is_feasible(&s.x, 1e-9), "interrupted solve keeps the incumbent point");
    assert!((s.objective - stats.incumbents[0].1).abs() < 1e-9);
    assert!(s.objective <= full.objective + 1e-9);

    // Enough nodes to find an incumbent, too few to finish.
    let limit = stats.nodes_explored + 1;
    let s = mip::branch_and_bound(&p, mip::MipOptions { node_limit: limit, gap: 1e-9 });
    assert_eq!(s.status, Status::NodeLimit);
    assert!(p.is_feasible(&s.x, 1e-9), "node-limited solve keeps the incumbent point");
    assert!(s.objective <= full.objective + 1e-9);
}

/// A strongly correlated knapsack (value = weight + 10, the watchdog
/// tests' family): the relaxation bound barely separates the items, so
/// reduced-cost fixing reaches little and the tree stays deep.
fn correlated_knapsack(n: usize) -> Problem {
    let weights: Vec<f64> = (0..n).map(|i| ((i * 37) % 61 + 20) as f64).collect();
    let values: Vec<f64> = weights.iter().map(|w| w + 10.0).collect();
    let cap = (weights.iter().sum::<f64>() * 0.5).floor();
    knapsack(&values, &weights, cap)
}

#[test]
fn a_warm_node_costs_a_few_pivots() {
    // hard_knapsack(16) closes in 7 nodes once rounding and fixing run.
    let p = correlated_knapsack(16);
    let (s, stats) = mip::branch_and_bound_stats(&p, mip::MipOptions::default());
    assert_eq!(s.status, Status::Optimal);
    assert!(stats.nodes_explored > 20, "{stats:?}");
    assert_eq!(stats.warm_starts, stats.nodes_explored - 1, "every node but the root is warm");
    assert_eq!(stats.cold_starts, 0);
    assert!(stats.dual_pivots > 0 && stats.dual_pivots < stats.simplex_iterations);
    assert!(
        stats.simplex_iterations < 10 * stats.nodes_explored,
        "{} pivots over {} nodes",
        stats.simplex_iterations,
        stats.nodes_explored
    );
}

/// A controlled recurrence `x_n = a·x_{n−1} + b·u_n + c`, n = 1..=N,
/// from a known x_0: every state in one band, every control in
/// `[0, u_max]` with `|b|·u_max` between 1 and 20 (the HVAC plan's
/// `b2 = 7e-4` beside a load of up to 17 000), a cost on each. The band
/// binds now and then and now and then leaves no feasible plan.
struct Recurrence {
    a: f64,
    b: f64,
    c: f64,
    x0: f64,
    band: (f64, f64),
    u_max: f64,
    x_cost: Vec<f64>,
    u_cost: Vec<f64>,
}

fn recurrence(seed: u64) -> Recurrence {
    let mut rng = StdRng::seed_from_u64(seed);
    let steps = rng.gen_range(2..=30usize);
    let b = 10f64.powf(rng.gen_range(-4.0..1.0)) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let lo = rng.gen_range(-5.0..10.0);
    Recurrence {
        a: rng.gen_range(0.05..0.99),
        b,
        c: rng.gen_range(-3.0..3.0),
        x0: rng.gen_range(0.0..10.0),
        band: (lo, lo + rng.gen_range(0.5..10.0)),
        u_max: rng.gen_range(1.0..20.0) / b.abs(),
        x_cost: (0..steps).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        u_cost: (0..steps).map(|_| rng.gen_range(0.0..1.0) * b.abs()).collect(),
    }
}

/// Columns x_1..x_N then u_1..u_N, in the band and the box, at their
/// costs; no rows yet.
fn recurrence_columns(r: &Recurrence) -> Problem {
    let steps = r.x_cost.len();
    let mut p = Problem::minimize(2 * steps);
    for n in 0..steps {
        p.set_bounds(n, r.band.0, r.band.1);
        p.set_bounds(steps + n, 0.0, r.u_max);
    }
    let costs = r.x_cost.iter().chain(&r.u_cost);
    p.set_objective(costs.enumerate().map(|(j, &c)| (j, c)).collect());
    p
}

/// Over explicit state: row n is `x_n − a·x_{n−1} − b·u_n = c` (x_0 a
/// constant on row 1), a staircase in which every u_n is a column
/// singleton.
fn staircase(r: &Recurrence) -> Problem {
    let steps = r.x_cost.len();
    let mut p = recurrence_columns(r);
    for n in 0..steps {
        let mut row = vec![(n, 1.0), (steps + n, -r.b)];
        let mut rhs = r.c;
        if n == 0 {
            rhs += r.a * r.x0;
        } else {
            row.push((n - 1, -r.a));
        }
        p.add_constraint(row, Rel::Eq, rhs);
    }
    p
}

/// Unrolled: row n is `x_n − Σ_{k≤n} a^{n−k}·b·u_k = a^n·x_0 +
/// Σ_{k≤n} a^{n−k}·c`, the dense triangle a recursive CDTE lowers to,
/// in which x_n is the singleton.
fn triangle(r: &Recurrence) -> Problem {
    let steps = r.x_cost.len();
    let mut p = recurrence_columns(r);
    for n in 0..steps {
        let mut row = vec![(n, 1.0)];
        let mut rhs = r.a.powi(n as i32 + 1) * r.x0;
        for k in 0..=n {
            let decay = r.a.powi((n - k) as i32);
            row.push((steps + k, -decay * r.b));
            rhs += decay * r.c;
        }
        p.add_constraint(row, Rel::Eq, rhs);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(widened_cases(512)))]

    /// The same recurrence as a staircase and as a triangle is the same
    /// LP: the same verdict, and objectives equal to 1e-9 relative. The
    /// staircase's rows start on the singletons that fit; the triangle's
    /// on the states whose uncontrolled run stays in the band.
    #[test]
    fn staircase_and_triangle_agree(seed in 0u64..1_000_000) {
        let r = recurrence(seed);
        let (stairs, dense) = (staircase(&r), triangle(&r));
        let mut tableau = Simplex::new(&stairs);
        let s = tableau.solve();
        let t = solve_lp(&dense);
        prop_assert_eq!(s.status, t.status);
        prop_assert!(s.status == Status::Optimal || s.status == Status::Infeasible, "{:?}", s.status);
        let start = tableau.counters().start;
        prop_assert_eq!(start.structural + start.singleton + start.slack + start.artificial, r.x_cost.len());
        if s.status == Status::Optimal {
            prop_assert!(stairs.is_feasible(&s.x, 1e-6) && dense.is_feasible(&t.x, 1e-6));
            let scale = s.objective.abs().max(t.objective.abs()).max(1.0);
            prop_assert!(
                (s.objective - t.objective).abs() <= 1e-9 * scale,
                "staircase {} vs triangle {}", s.objective, t.objective
            );
        }
    }
}
