//! Property-based checks of the presolve engine's soundness: interval
//! propagation may only *shrink* the feasible box (never cut off a
//! feasible point), and solving the reduced problem must reach the same
//! objective as solving the original — with and without integrality.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use solvedbplus_core::check::presolve::propagate;
use solvedbplus_core::check::presolve::reduce::{reduce, Presolved};

/// Build a random LP/MIP that is feasible *by construction*: sample a
/// point first, then draw bounds and constraint rows that the point
/// satisfies. Integer dimensions sample integer coordinates. `free`
/// columns follow the `n` (see [`with_free_columns`]).
fn feasible_instance(
    seed: u64,
    n: usize,
    m: usize,
    integers: bool,
    free: usize,
) -> (lp::Problem, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = lp::Problem::maximize(n);
    let mut point: Vec<f64> = (0..n)
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
    with_free_columns(&mut p, &mut point, &mut rng, free);
    (p, point)
}

/// Add `k` continuous columns with no stated bound to a problem that
/// holds at `point`, each `z` defined by a two-entry equality
/// `c·z − c·α·w = c·β` over an earlier column `w` — half the time the
/// previous `z`, a chain — and the definitions stated in shuffled row
/// order, so a column may be substituted out through one that goes
/// later. Half the `z` enter the objective; half get a singleton row
/// (a bound propagation takes and drops, which must move onto `w` when
/// `z` goes); half an inequality with up to two other columns, whose
/// entry on `w` is sometimes exactly what substituting `z` cancels.
/// Rows are taken at the extended point: the instance stays feasible,
/// and bounded, each `z` being affine in the bounded columns.
fn with_free_columns(p: &mut lp::Problem, point: &mut Vec<f64>, rng: &mut StdRng, k: usize) {
    let mut definitions = Vec::new();
    for i in 0..k {
        let w =
            if i > 0 && rng.gen_bool(0.5) { p.num_vars - 1 } else { rng.gen_range(0..p.num_vars) };
        let alpha = rng.gen_range(0.2..3.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let beta = rng.gen_range(-10.0..10.0);
        let c = rng.gen_range(0.5..4.0);
        let z = p.add_var(f64::NEG_INFINITY, f64::INFINITY, false);
        point.push(alpha * point[w] + beta);
        definitions.push((vec![(z, c), (w, -c * alpha)], c * beta));
        if rng.gen_bool(0.5) {
            p.objective.push((z, rng.gen_range(-3.0..3.0)));
        }
        if rng.gen_bool(0.5) {
            let slack = rng.gen_range(0.0..2.0);
            if rng.gen_bool(0.5) {
                p.add_constraint(vec![(z, 1.0)], lp::Rel::Le, point[z] + slack);
            } else {
                p.add_constraint(vec![(z, 1.0)], lp::Rel::Ge, point[z] - slack);
            }
        }
        if rng.gen_bool(0.5) {
            let e: f64 = rng.gen_range(-2.0..2.0);
            let mut coeffs = vec![(z, e)];
            if rng.gen_bool(0.3) {
                coeffs.push((w, -e * alpha)); // z's fill on w cancels it
            }
            for _ in 0..rng.gen_range(1..3) {
                coeffs.push((rng.gen_range(0..z), rng.gen_range(-2.0..2.0)));
            }
            let at: f64 = coeffs.iter().map(|&(j, c)| c * point[j]).sum();
            p.add_constraint(coeffs, lp::Rel::Le, at + rng.gen_range(0.0..3.0));
        }
    }
    for i in (1..definitions.len()).rev() {
        definitions.swap(i, rng.gen_range(0..=i));
    }
    for (coeffs, rhs) in definitions {
        p.add_constraint(coeffs, lp::Rel::Eq, rhs);
    }
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
        free in 0usize..4,
    ) {
        let (p, point) = feasible_instance(seed, n, m, integers, free);
        let out = propagate(&p);
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

    /// The fixpoint reads a `>=` row through a sign of −1: the outcome
    /// — intervals, fixings, live rows, the log in its order and the
    /// proof — is bit for bit the one of the same problem with its `>=`
    /// rows stated as the negated `<=` rows. (The `Debug` text of an
    /// `f64` round-trips, so equal texts are equal bits.) Some
    /// right-hand sides are moved off the sampled point, so proofs of
    /// infeasibility come up too.
    #[test]
    fn ge_rows_propagate_as_their_negated_le_rows(
        seed in 0u64..10_000,
        n in 1usize..6,
        m in 0usize..6,
        integers in any::<bool>(),
        free in 0usize..4,
    ) {
        let (mut p, _) = feasible_instance(seed, n, m, integers, free);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5167);
        for c in &mut p.constraints {
            if rng.gen_bool(0.2) {
                c.rhs += rng.gen_range(-6.0..6.0);
            }
        }
        let mut negated = p.clone();
        for c in &mut negated.constraints {
            if c.rel == lp::Rel::Ge {
                let coeffs = c.coeffs().iter().map(|&(j, a)| (j, -a)).collect();
                *c = lp::Constraint::new(coeffs, lp::Rel::Le, -c.rhs);
            }
        }
        prop_assert_eq!(format!("{:?}", propagate(&p)), format!("{:?}", propagate(&negated)));
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
        free in 0usize..4,
    ) {
        let (p, _) = feasible_instance(seed, n, m, integers, free);
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
        let full = pre.uncrush_solution(&p, reduced_sol);
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
/// again from a fresh state in the property below. Beyond 1e4–1e5 the
/// unscaled kernel (absolute pivot tolerance) loses the basic solution
/// of a few in 40 000 of these LPs; [`the_read_out_check`] holds those
/// at 1e8 (ROADMAP item 1 is the kernel fix).
const RANGE: f64 = 1e4;

/// A bounded LP with the structure of a recurrence unrolled by hand: the
/// triangle of `s[n] = a·s[n-1] + b·u[n]` (coefficients scaled step by
/// step, restarted whenever they span `range`), some of its rows stated
/// as a `>=`/`<=` pair instead of an equality, some with one coefficient
/// a relative 1e-8..1e-6 off, and unrelated inequalities across both
/// column families (a second equality over two columns of an equality
/// row would let the interval fixpoint contract both to its own 1e-7
/// and drop them — that tolerance is the property above's). Right-hand
/// sides are taken at a sampled point inside the box, so the instance
/// is feasible and bounded. Columns: u[0..h], then s[0..h], then `free`
/// more (see [`with_free_columns`]).
fn recurrence_instance(seed: u64, h: usize, range: f64, free: usize) -> lp::Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: f64 = rng.gen_range(0.05..0.99);
    let b = rng.gen_range(0.01..2.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let mut p =
        if rng.gen_bool(0.5) { lp::Problem::minimize(2 * h) } else { lp::Problem::maximize(2 * h) };
    let mut point: Vec<f64> = (0..2 * h).map(|_| rng.gen_range(-50.0..50.0)).collect();
    for (j, &v) in point.iter().enumerate() {
        p.set_bounds(j, v - rng.gen_range(0.5..20.0), v + rng.gen_range(0.5..20.0));
    }
    p.set_objective((0..2 * h).map(|j| (j, rng.gen_range(-3.0..3.0))).collect());
    let at_point = |coeffs: &[(usize, f64)]| coeffs.iter().map(|&(j, c)| c * point[j]).sum::<f64>();

    let reach = (range.ln() / -a.ln()) as usize; // a^reach ≈ 1/range
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
    with_free_columns(&mut p, &mut point, &mut rng, free);
    p
}

/// Each column of `p` with no stated bound is fixed by propagation or
/// substituted out of its definition: the property below reaches the
/// substitution, not only the box. (On the small dense instances above
/// the fixpoint may instead close a definition row as redundant.)
fn every_free_column_goes(p: &lp::Problem, pre: &Presolved) -> bool {
    (0..p.num_vars)
        .filter(|&j| p.lower[j].is_infinite() && p.upper[j].is_infinite())
        .all(|j| pre.outcome.fixed[j].is_some() || pre.substituted.iter().any(|s| s.col == j))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Presolve keeps the problem: presolved (propagated and reduced)
    /// and solved as stated, a recurrence LP has the same status and
    /// objective, the un-crushed point is feasible for the rows as
    /// stated, and the optimum of the stated rows is feasible for the
    /// reduced ones.
    #[test]
    fn presolve_preserves_recurrence_lps(
        seed in 0u64..100_000,
        h in 2usize..49,
        free in 0usize..6,
    ) {
        let p = recurrence_instance(seed, h, RANGE, free);
        let direct = lp::solve(&p);
        prop_assert_eq!(direct.status, lp::Status::Optimal);

        let pre = reduce(&p);
        prop_assert!(!pre.infeasible(), "presolve declared a feasible model infeasible");
        prop_assert!(every_free_column_goes(&p, &pre), "{:?}", pre.substituted);
        let crushed: Vec<f64> = pre.kept.iter().map(|&j| direct.x[j]).collect();
        prop_assert!(
            pre.reduced.is_feasible(&crushed, 1e-6),
            "the stated optimum is infeasible for the reduced rows"
        );

        let reduced = lp::solve(&pre.reduced);
        prop_assert_eq!(reduced.status, direct.status);
        let full = pre.uncrush_solution(&p, reduced);
        prop_assert_eq!(full.status, lp::Status::Optimal);
        prop_assert!(
            (full.objective - direct.objective).abs() <= 1e-9 * (1.0 + direct.objective.abs()),
            "objective drift: presolved {} vs direct {}",
            full.objective, direct.objective
        );
        prop_assert!(p.is_feasible(&full.x, 1e-6), "un-crushed point infeasible for the stated rows");
    }
}

/// The read-out check at a coefficient range of 1e8, where the kernel
/// is known to return a wrong `Optimal` on some of the presolved rows
/// (h = 2 + seed % 47): what leaves presolve and the kernel is either
/// `Optimal` and right to 1e-6 — the objective of the stated rows'
/// solve, a point feasible for them — or `NotConverged`.
fn the_read_out_check(seed: u64) -> Result<lp::Status, String> {
    let p = recurrence_instance(seed, 2 + seed as usize % 47, 1e8, 0);
    let direct = lp::solve(&p);
    if direct.status != lp::Status::Optimal || !p.is_feasible(&direct.x, 1e-6) {
        return Err(format!("seed {seed}: the stated rows solve {:?}", direct.status));
    }
    let pre = reduce(&p);
    let full = pre.uncrush_solution(&p, lp::solve(&pre.reduced));
    match full.status {
        lp::Status::NotConverged => Ok(full.status),
        lp::Status::Optimal
            if (full.objective - direct.objective).abs()
                <= 1e-6 * (1.0 + direct.objective.abs())
                && p.is_feasible(&full.x, 1e-6) =>
        {
            Ok(full.status)
        }
        status => Err(format!(
            "seed {seed}: {status:?} at {} against the stated rows' {}",
            full.objective, direct.objective
        )),
    }
}

/// The seeds on which the kernel returned a wrong `Optimal` or gave up,
/// with or without nonzero cancellation, before the read-out check; the
/// last three ended `NotConverged` under it until both ratio tests took
/// the largest pivot among the rows blocking within a relaxed step. Each
/// is now a right `Optimal`.
#[test]
fn no_wrong_optimal_on_the_pinned_seeds() {
    for seed in [14079, 15943, 16580, 20888, 23534, 33082] {
        assert_eq!(the_read_out_check(seed).unwrap(), lp::Status::Optimal, "seed {seed}");
    }
}

/// All 40 000 seeds (the `analyze` CI job runs it: `-- --ignored`):
/// no wrong `Optimal`, and no `NotConverged` either.
#[test]
#[ignore = "40 000 LPs; run in release by the analyze CI job"]
fn no_wrong_optimal_over_forty_thousand_seeds() {
    let failures: Vec<String> = (0..40_000)
        .filter_map(|seed| match the_read_out_check(seed) {
            Ok(lp::Status::Optimal) => None,
            Ok(status) => Some(format!("seed {seed}: {status:?}")),
            Err(e) => Some(e),
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
