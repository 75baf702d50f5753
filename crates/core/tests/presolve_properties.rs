//! Property-based checks of the presolve engine's soundness: interval
//! propagation may only *shrink* the feasible box (never cut off a
//! feasible point), and solving the reduced problem must reach the same
//! objective as solving the original — with and without integrality.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use solvedbplus_core::check::presolve::propagate;
use solvedbplus_core::check::presolve::reduce::{model_of, reduce};

/// Build a random LP/MIP that is feasible *by construction*: sample a
/// point first, then draw bounds and constraint rows that the point
/// satisfies. Integer dimensions sample integer coordinates.
fn feasible_instance(seed: u64, n: usize, m: usize, integers: bool) -> (lp::Problem, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = lp::Problem::maximize(n);
    let point: Vec<f64> = (0..n)
        .map(|j| {
            if integers && j % 2 == 0 {
                p.integer[j] = true;
                rng.gen_range(0i64..6) as f64
            } else {
                rng.gen_range(0.0..5.0)
            }
        })
        .collect();
    for (j, &v) in point.iter().enumerate() {
        let lo = v - rng.gen_range(0.0..3.0);
        let hi = v + rng.gen_range(0.0..3.0);
        p.set_bounds(
            j,
            if p.integer[j] { lo.floor() } else { lo },
            if p.integer[j] { hi.ceil() } else { hi },
        );
    }
    p.set_objective((0..n).map(|j| (j, rng.gen_range(-4.0..4.0))).collect());
    for _ in 0..m {
        let coeffs: Vec<(usize, f64)> =
            (0..n).map(|j| (j, rng.gen_range(-3i32..=3) as f64)).collect();
        let at_point: f64 = coeffs.iter().map(|&(j, c)| c * point[j]).sum();
        match rng.gen_range(0..3) {
            0 => p.add_constraint(coeffs, lp::Rel::Le, at_point + rng.gen_range(0.0..4.0)),
            1 => p.add_constraint(coeffs, lp::Rel::Ge, at_point - rng.gen_range(0.0..4.0)),
            _ => p.add_constraint(coeffs, lp::Rel::Eq, at_point),
        }
    }
    (p, point)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Soundness of the abstract domain: a known-feasible point always
    /// stays inside the propagated intervals, and propagation never
    /// claims infeasibility.
    #[test]
    fn feasible_points_stay_within_propagated_intervals(
        seed in 0u64..10_000,
        n in 1usize..6,
        m in 0usize..5,
        integers in any::<bool>(),
    ) {
        let (p, point) = feasible_instance(seed, n, m, integers);
        let out = propagate(&model_of(&p));
        prop_assert!(out.infeasible.is_none(), "feasible model declared infeasible");
        for (j, &v) in point.iter().enumerate() {
            prop_assert!(
                out.intervals[j].contains(v, 1e-6),
                "propagation cut off feasible coordinate {j}={v}: [{}, {}]",
                out.intervals[j].lo,
                out.intervals[j].hi
            );
        }
    }

    /// End-to-end reduction correctness: presolve + solve + un-crush
    /// reaches the same objective as solving the original problem, and
    /// the un-crushed point is feasible for the original.
    #[test]
    fn presolve_on_and_off_reach_the_same_objective(
        seed in 0u64..10_000,
        n in 1usize..5,
        m in 0usize..4,
        integers in any::<bool>(),
    ) {
        let (p, _) = feasible_instance(seed, n, m, integers);
        let direct = if p.has_integers() {
            lp::mip::branch_and_bound_stats(&p, Default::default()).0
        } else {
            lp::solve(&p)
        };
        // Construction guarantees feasibility; a bounded box rules out
        // unboundedness.
        prop_assert_eq!(direct.status, lp::Status::Optimal);

        let pre = reduce(&p);
        prop_assert!(!pre.infeasible(), "presolve declared a feasible model infeasible");
        let reduced_sol = if pre.reduced.num_vars == 0 {
            lp::Solution {
                status: lp::Status::Optimal,
                x: vec![],
                objective: pre.reduced.objective_constant,
                iterations: 0,
                nodes: 0,
            }
        } else if pre.reduced.has_integers() {
            lp::mip::branch_and_bound_stats(&pre.reduced, Default::default()).0
        } else {
            lp::solve(&pre.reduced)
        };
        prop_assert_eq!(reduced_sol.status, lp::Status::Optimal);
        let full = pre.uncrush_solution(reduced_sol);
        let tol = 1e-5 * (1.0 + direct.objective.abs());
        prop_assert!(
            (full.objective - direct.objective).abs() <= tol,
            "objective drift: presolve {} vs direct {}",
            full.objective,
            direct.objective
        );
        prop_assert!(p.is_feasible(&full.x, 1e-5), "un-crushed point infeasible");
    }
}

/// Coefficient range of one unrolled recurrence before it is started
/// again from a fresh state. Beyond 1e4–1e5 the unscaled kernel itself
/// (absolute pivot tolerance) loses the basic solution of a few in
/// 40 000 of these LPs, presolved or not, cancelled or not — ROADMAP
/// item 2, not this property's subject.
const RANGE: f64 = 1e4;

/// A bounded LP with the structure nonzero cancellation looks for: the
/// unrolled triangle of `s[n] = a·s[n-1] + b·u[n]` (coefficients scaled
/// step by step, as the symbolic evaluator produces them), some of its
/// rows stated as a `>=`/`<=` pair instead of an equality, some with one
/// coefficient a relative 1e-8..1e-6 off (close to a cancellation, not
/// one), and unrelated inequalities across both column families (a
/// second equality over two columns of an equality row would let the
/// interval fixpoint contract both to its own 1e-7 and drop them —
/// that tolerance is the property above's). Right-hand sides are taken
/// at a sampled point inside the box, so the instance is feasible and
/// bounded. Columns: u[0..h], then s[0..h].
fn recurrence_instance(seed: u64, h: usize) -> lp::Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: f64 = rng.gen_range(0.05..0.99);
    let b = rng.gen_range(0.01..2.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let mut p =
        if rng.gen_bool(0.5) { lp::Problem::minimize(2 * h) } else { lp::Problem::maximize(2 * h) };
    let point: Vec<f64> = (0..2 * h).map(|_| rng.gen_range(-50.0..50.0)).collect();
    for (j, &v) in point.iter().enumerate() {
        p.set_bounds(j, v - rng.gen_range(0.5..20.0), v + rng.gen_range(0.5..20.0));
    }
    p.set_objective((0..2 * h).map(|j| (j, rng.gen_range(-3.0..3.0))).collect());
    let at_point = |coeffs: &[(usize, f64)]| coeffs.iter().map(|&(j, c)| c * point[j]).sum::<f64>();

    let reach = (RANGE.ln() / -a.ln()) as usize; // a^reach ≈ 1/RANGE
    let mut inputs: Vec<(usize, f64)> = Vec::new();
    for n in 0..h {
        if n > 0 && n % reach == 0 {
            inputs.clear();
        }
        inputs.iter_mut().for_each(|t| t.1 *= a);
        inputs.push((n, b));
        let mut coeffs: Vec<(usize, f64)> = inputs.iter().map(|&(j, c)| (j, -c)).collect();
        coeffs.push((h + n, 1.0));
        if inputs.len() > 2 && rng.gen_bool(0.15) {
            coeffs[rng.gen_range(0..inputs.len())].1 *= 1.0 + 10f64.powf(rng.gen_range(-8.0..-6.0));
        }
        let rhs = at_point(&coeffs);
        if rng.gen_bool(0.2) {
            p.add_constraint(coeffs.clone(), lp::Rel::Ge, rhs - rng.gen_range(0.1..1.0));
            p.add_constraint(coeffs, lp::Rel::Le, rhs + rng.gen_range(0.1..1.0));
        } else {
            p.add_constraint(coeffs, lp::Rel::Eq, rhs);
        }
    }
    for _ in 0..rng.gen_range(0..4) {
        let coeffs: Vec<(usize, f64)> = (0..rng.gen_range(1..5))
            .map(|_| (rng.gen_range(0..2 * h), rng.gen_range(-2.0..2.0)))
            .collect();
        let rhs = at_point(&coeffs);
        if rng.gen_bool(0.5) {
            p.add_constraint(coeffs, lp::Rel::Le, rhs + rng.gen_range(0.1..5.0));
        } else {
            p.add_constraint(coeffs, lp::Rel::Ge, rhs - rng.gen_range(0.1..5.0));
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Nonzero cancellation keeps the problem: presolved (propagated,
    /// reduced, cancelled) and solved as stated, a recurrence LP has the
    /// same status and objective, the un-crushed point is feasible for
    /// the rows as stated, and the optimum of the stated rows is
    /// feasible for the cancelled ones.
    #[test]
    fn cancellation_preserves_recurrence_lps(seed in 0u64..100_000, h in 2usize..49) {
        let p = recurrence_instance(seed, h);
        let direct = lp::solve(&p);
        prop_assert_eq!(direct.status, lp::Status::Optimal);

        let pre = reduce(&p);
        prop_assert!(!pre.infeasible(), "presolve declared a feasible model infeasible");
        let (before, after) = pre.nonzeros;
        prop_assert!(after <= before, "cancellation grew the rows: {} -> {}", before, after);
        let crushed: Vec<f64> = pre.kept.iter().map(|&j| direct.x[j]).collect();
        prop_assert!(
            pre.reduced.is_feasible(&crushed, 1e-6),
            "the stated optimum is infeasible for the cancelled rows"
        );

        let reduced = lp::solve(&pre.reduced);
        prop_assert_eq!(reduced.status, direct.status);
        let full = pre.uncrush_solution(reduced);
        prop_assert!(
            (full.objective - direct.objective).abs() <= 1e-9 * (1.0 + direct.objective.abs()),
            "objective drift: presolved {} vs direct {} ({} -> {} nonzeros)",
            full.objective, direct.objective, before, after
        );
        prop_assert!(p.is_feasible(&full.x, 1e-6), "un-crushed point infeasible for the stated rows");
    }
}

/// The family above does exercise the pass: over a fixed set of seeds
/// more than a third of all nonzeros go (an inequality pair or an
/// off coefficient stops the chain of eliminators behind it).
#[test]
fn the_recurrence_family_is_mostly_cancelled() {
    let (mut before, mut after) = (0, 0);
    for seed in 0..40 {
        let pre = reduce(&recurrence_instance(seed, 8 + (seed as usize % 41)));
        before += pre.nonzeros.0;
        after += pre.nonzeros.1;
    }
    assert!(after * 3 < before * 2, "{before} -> {after}");
}
