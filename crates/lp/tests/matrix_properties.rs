//! Soundness of the matrix classification pass, checked against
//! brute-force oracles:
//!
//! - every claimed total-unimodularity certificate is re-verified by
//!   enumerating ALL square submatrices and computing their exact
//!   integer determinants (the definition of TU);
//! - every claimed row class is re-checked against the constraint's
//!   coefficients, independently of the classifier's reading of a
//!   negated row;
//! - every claimed implied-integral relaxation is validated end to end:
//!   branch-and-bound on the relaxed problem must produce the same
//!   objective as on the original, with the declared integer variables
//!   still integral.

use lp::matrix::{self, RowClass};
use lp::{mip, Problem, Rel, Status};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense integer copy of the constraint matrix (rows × num_vars),
/// duplicates summed — the ground truth the oracles work from. Returns
/// `None` when any merged coefficient is not an integer (the TU oracle
/// only runs on integer matrices).
fn dense_int_matrix(p: &Problem) -> Option<Vec<Vec<i64>>> {
    let mut m = Vec::with_capacity(p.constraints.len());
    for c in &p.constraints {
        let mut row = vec![0.0f64; p.num_vars];
        for &(j, a) in c.coeffs() {
            row[j] += a;
        }
        let mut irow = Vec::with_capacity(p.num_vars);
        for v in row {
            if (v - v.round()).abs() > 1e-9 {
                return None;
            }
            irow.push(v.round() as i64);
        }
        m.push(irow);
    }
    Some(m)
}

/// Exact integer determinant by cofactor expansion (k ≤ 6 here).
fn det(m: &[Vec<i64>]) -> i64 {
    let k = m.len();
    if k == 0 {
        return 1;
    }
    if k == 1 {
        return m[0][0];
    }
    let mut sum = 0i64;
    for (col, &a) in m[0].iter().enumerate() {
        if a == 0 {
            continue;
        }
        let minor: Vec<Vec<i64>> = m[1..]
            .iter()
            .map(|row| row.iter().enumerate().filter(|&(c, _)| c != col).map(|(_, &v)| v).collect())
            .collect();
        let sign = if col % 2 == 0 { 1 } else { -1 };
        sum += sign * a * det(&minor);
    }
    sum
}

/// Brute-force TU check: every square submatrix has determinant in
/// {-1, 0, 1}. Exponential — fine for the ≤ 6×6 matrices used here.
fn is_totally_unimodular(m: &[Vec<i64>]) -> bool {
    let rows = m.len();
    let cols = if rows == 0 { 0 } else { m[0].len() };
    let max_k = rows.min(cols);
    for k in 1..=max_k {
        let row_sets = subsets(rows, k);
        let col_sets = subsets(cols, k);
        for rs in &row_sets {
            for cs in &col_sets {
                let sub: Vec<Vec<i64>> =
                    rs.iter().map(|&r| cs.iter().map(|&c| m[r][c]).collect()).collect();
                if det(&sub).abs() > 1 {
                    return false;
                }
            }
        }
    }
    true
}

/// All k-element subsets of 0..n.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

/// Random small MIP-ish problem: n vars, some binary, some general
/// integer, some continuous; m rows drawn from shapes that exercise
/// every branch of the classifier (set rows, knapsacks, flow rows,
/// variable bounds, junk rows, duplicate coefficients).
fn random_problem(seed: u64, n: usize, m: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::maximize(n);
    for j in 0..n {
        match rng.gen_range(0..3) {
            0 => {
                p.set_bounds(j, 0.0, 1.0);
                p.integer[j] = true;
            }
            1 => {
                p.set_bounds(j, 0.0, rng.gen_range(1..6) as f64);
                p.integer[j] = true;
            }
            _ => p.set_bounds(j, 0.0, 10.0),
        }
    }
    p.set_objective((0..n).map(|j| (j, rng.gen_range(-3i32..=3) as f64)).collect());
    for _ in 0..m {
        let kind = rng.gen_range(0..5);
        let nnz = rng.gen_range(1..=n);
        let mut vars: Vec<usize> = (0..n).collect();
        for i in (1..vars.len()).rev() {
            vars.swap(i, rng.gen_range(0..=i));
        }
        vars.truncate(nnz);
        let rel = match rng.gen_range(0..3) {
            0 => Rel::Le,
            1 => Rel::Ge,
            _ => Rel::Eq,
        };
        let mut coeffs: Vec<(usize, f64)> = match kind {
            // All-ones (set / cardinality shapes).
            0 => vars.iter().map(|&j| (j, 1.0)).collect(),
            // ±1 (flow shapes).
            1 => vars.iter().map(|&j| (j, if rng.gen_bool(0.5) { 1.0 } else { -1.0 })).collect(),
            // Positive weights (knapsack shapes).
            2 => vars.iter().map(|&j| (j, rng.gen_range(1..5) as f64)).collect(),
            // Anything.
            _ => vars.iter().map(|&j| (j, rng.gen_range(-4i32..=4) as f64)).collect(),
        };
        // Occasionally split a coefficient into duplicate entries that
        // the row's canonical form merges back.
        if rng.gen_bool(0.2) {
            if let Some(&(j, a)) = coeffs.first() {
                coeffs[0] = (j, a / 2.0);
                coeffs.push((j, a / 2.0));
            }
        }
        let rhs = rng.gen_range(-2i32..=8) as f64;
        p.add_constraint(coeffs, rel, rhs);
    }
    p
}

fn is_binary(p: &Problem, j: usize) -> bool {
    p.integer[j] && p.lower[j] == 0.0 && p.upper[j] == 1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Claimed TU certificates survive brute-force subdeterminant
    /// enumeration — the definition of total unimodularity.
    #[test]
    fn tu_certificates_are_sound(seed in 0u64..20_000, n in 2usize..6, m in 1usize..6) {
        let p = random_problem(seed, n, m);
        let a = matrix::analyze(&p);
        if a.tu.is_some() {
            let dense = dense_int_matrix(&p);
            prop_assert!(dense.is_some(), "TU claimed on a non-integer matrix");
            if let Some(d) = dense {
                prop_assert!(
                    is_totally_unimodular(&d),
                    "claimed {:?} refuted by brute force on {:?}", a.tu, d
                );
            }
        }
    }

    /// Row-class claims hold against the row's coefficients: each
    /// class's defining invariants are re-checked from the constraint as
    /// stored, independent of the classifier's reading of it.
    #[test]
    fn row_classes_are_sound(seed in 0u64..20_000, n in 2usize..6, m in 1usize..6) {
        let p = random_problem(seed, n, m);
        let a = matrix::analyze(&p);
        prop_assert_eq!(a.row_classes.len(), p.constraints.len());
        for (i, &class) in a.row_classes.iter().enumerate() {
            let mut terms = p.constraints[i].coeffs().to_vec();
            let mut rel = p.constraints[i].rel;
            let mut rhs = p.constraints[i].rhs;
            // The classifier's single normalization, applied here too:
            // an all-negative row is flipped back to positive form.
            // Negation preserves the feasible set, so the invariants
            // below describe the same constraint either way.
            if !terms.is_empty() && terms.iter().all(|&(_, c)| c < 0.0) {
                for t in &mut terms {
                    t.1 = -t.1;
                }
                rel = match rel {
                    Rel::Le => Rel::Ge,
                    Rel::Ge => Rel::Le,
                    Rel::Eq => Rel::Eq,
                };
                rhs = -rhs;
            }
            let all_ones = terms.iter().all(|&(_, c)| c == 1.0);
            let all_binary = terms.iter().all(|&(j, _)| is_binary(&p, j));
            match class {
                RowClass::SetPartitioning => prop_assert!(
                    all_ones && all_binary && rel == Rel::Eq && rhs == 1.0 && terms.len() >= 2),
                RowClass::SetPacking => prop_assert!(
                    all_ones && all_binary && rel == Rel::Le && rhs == 1.0 && terms.len() >= 2),
                RowClass::SetCovering => prop_assert!(
                    all_ones && all_binary && rel == Rel::Ge && rhs == 1.0 && terms.len() >= 2),
                RowClass::Cardinality => prop_assert!(
                    all_ones && all_binary && rhs >= 2.0 && rhs.fract() == 0.0),
                RowClass::VariableBound => {
                    prop_assert!(terms.len() == 2 && rel != Rel::Eq);
                    prop_assert!(terms.iter().any(|&(j, _)| is_binary(&p, j)));
                    prop_assert!(terms.iter().any(|&(j, _)| !is_binary(&p, j)));
                }
                RowClass::Knapsack => prop_assert!(
                    rel == Rel::Le && rhs > 0.0 && !(all_ones && all_binary)
                        && terms.iter().all(|&(j, c)| c > 0.0 && p.integer[j])),
                RowClass::Cover => prop_assert!(
                    rel == Rel::Ge && rhs > 0.0 && !(all_ones && all_binary)
                        && terms.iter().all(|&(j, c)| c > 0.0 && p.integer[j])),
                RowClass::FlowBalance => prop_assert!(
                    rel == Rel::Eq && terms.len() >= 2
                        && terms.iter().all(|&(_, c)| c == 1.0 || c == -1.0)),
                RowClass::General => {}
            }
        }
    }

    /// Acting on implied integrality is safe: relaxing the claimed
    /// variables changes neither the optimal objective nor the
    /// integrality of any declared-integer variable.
    #[test]
    fn implied_integrality_is_sound(seed in 0u64..10_000, n in 2usize..5, m in 1usize..5) {
        let p = random_problem(seed, n, m);
        let a = matrix::analyze(&p);
        if a.relaxable.is_empty() || !p.has_integers() {
            return Ok(());
        }
        let mut relaxed = p.clone();
        for &j in &a.relaxable {
            relaxed.integer[j] = false;
        }
        let full = mip::branch_and_bound(&p, mip::MipOptions::default());
        let shortcut = mip::branch_and_bound(&relaxed, mip::MipOptions::default());
        prop_assert_eq!(full.status, shortcut.status, "status diverged under relaxation");
        if full.status == Status::Optimal {
            prop_assert!(
                (full.objective - shortcut.objective).abs() <= 1e-6 * (1.0 + full.objective.abs()),
                "objective changed: full {} vs relaxed {}", full.objective, shortcut.objective
            );
            for j in 0..p.num_vars {
                if p.integer[j] {
                    prop_assert!(
                        (shortcut.x[j] - shortcut.x[j].round()).abs() <= 1e-6,
                        "declared-integer x[{}] = {} fractional under relaxation",
                        j, shortcut.x[j]
                    );
                }
            }
        }
    }

    /// A full TU certificate over integral data really does make the LP
    /// relaxation exact: solving with all integrality dropped yields an
    /// integral optimum at the branch-and-bound objective.
    #[test]
    fn tu_shortcut_matches_bb(seed in 0u64..20_000, n in 2usize..6, m in 1usize..6) {
        let p = random_problem(seed, n, m);
        let a = matrix::analyze(&p);
        if a.exactness_proof().is_none() || !p.has_integers() {
            return Ok(());
        }
        let mut relaxed = p.clone();
        relaxed.integer.iter_mut().for_each(|b| *b = false);
        let lp_sol = lp::simplex::solve_lp(&relaxed);
        let bb = mip::branch_and_bound(&p, mip::MipOptions::default());
        prop_assert_eq!(lp_sol.status, bb.status, "status diverged under TU shortcut");
        if bb.status == Status::Optimal {
            prop_assert!(
                (lp_sol.objective - bb.objective).abs() <= 1e-6 * (1.0 + bb.objective.abs()),
                "TU shortcut objective {} vs bb {}", lp_sol.objective, bb.objective
            );
            for j in 0..p.num_vars {
                if p.integer[j] {
                    prop_assert!(
                        (lp_sol.x[j] - lp_sol.x[j].round()).abs() <= 1e-6,
                        "TU-exact vertex has fractional x[{}] = {}", j, lp_sol.x[j]
                    );
                }
            }
        }
    }
}

/// The random corpus is not vacuous: over a fixed seed range, every
/// oracle path (TU claims, special row classes, relaxable variables)
/// is actually exercised.
#[test]
fn corpus_exercises_every_oracle() {
    let (mut tu, mut special, mut relaxable) = (0usize, 0usize, 0usize);
    for seed in 0..2000u64 {
        let p = random_problem(seed, 2 + (seed % 4) as usize, 1 + (seed % 5) as usize);
        let a = matrix::analyze(&p);
        tu += usize::from(a.tu.is_some());
        special += usize::from(a.special_rows() > 0);
        relaxable += usize::from(!a.relaxable.is_empty());
    }
    assert!(tu >= 20, "only {tu} TU claims in 2000 problems");
    assert!(special >= 200, "only {special} problems with special rows");
    assert!(relaxable >= 20, "only {relaxable} problems with relaxable vars");
}
