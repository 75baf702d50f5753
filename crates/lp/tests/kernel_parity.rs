//! What the LP kernel answered before its basis was stored as a sparse
//! LU factor, pinned: every objective below was produced by the
//! dense-inverse kernel of commit b4c8fcf on inputs this file generates
//! itself (its own LCG, so no other crate's generator can move them). A
//! kernel change must reproduce each to 1e-9 relative. The node counts
//! are the search's, not the kernel's: those of the branch-and-bound
//! with simple rounding and reduced-cost fixing (PR 25; the dense-inverse
//! search without them explored 69 / 83 / 641 / 141 / 57 / 525).

use lp::simplex::solve_lp;
use lp::{mip, Problem, Rel, Status};

/// Knuth's MMIX LCG, top 53 bits as a float in [0, 1).
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Hourly (outdoor temperature, hour of day, PV supply) in the shape of
/// `datagen::energy_series`: PV is a clouded bell over daylight hours
/// and exactly 0 at night, which is what makes the L1 fit degenerate.
fn energy(rows: usize, seed: u64) -> Vec<(f64, f64, f64)> {
    let mut rng = Lcg(seed);
    (0..rows)
        .map(|k| {
            let hour = (k % 24) as f64;
            let day = (k / 24) as f64;
            let seasonal = 10.0 - 12.0 * ((day + 10.0) * std::f64::consts::TAU / 365.0).cos();
            let diurnal = 4.0 * ((hour - 14.0) * std::f64::consts::TAU / 24.0).cos();
            let out_temp = seasonal + diurnal + rng.range(-1.5, 1.5);
            let sun = (-((hour - 12.5) / 3.5).powi(2)).exp();
            let cloud = rng.range(0.6, 1.0);
            let pv = if (6.0..20.0).contains(&hour) { 420.0 * sun * cloud } else { 0.0 };
            (out_temp, hour, pv)
        })
        .collect()
}

/// UC1 P2: minimise Σ errᵢ with −errᵢ ≤ b0 + b1·tempᵢ + b2·hourᵢ − pvᵢ ≤ errᵢ
/// (3 + n columns, 2n rows, at most four nonzeros per row).
fn l1_regression(rows: &[(f64, f64, f64)]) -> Problem {
    let mut p = Problem::minimize(3 + rows.len());
    p.set_objective((0..rows.len()).map(|i| (3 + i, 1.0)).collect());
    for (i, &(temp, hour, pv)) in rows.iter().enumerate() {
        let fit = |sign: f64| vec![(0, 1.0), (1, temp), (2, hour), (3 + i, sign)];
        p.add_constraint(fit(-1.0), Rel::Le, pv);
        p.add_constraint(fit(1.0), Rel::Ge, pv);
    }
    p
}

/// UC1 P4 in the shape the engine lowers it to: the LTI recursion
/// xₜ₊₁ = a·xₜ + b1·outₜ + b2·hₜ unrolled into one equality row per step
/// (a dense lower triangle over the loads), comfort and load boxes,
/// minimise the energy bought.
fn hvac_plan(steps: usize, seed: u64) -> Problem {
    let (a, b1, b2, x0) = (0.9_f64, 0.05, 0.0004, 21.0);
    let series = energy(steps, seed);
    // Columns: loads h₀..h_{T−1}, then temperatures x₁..x_T.
    let mut p = Problem::minimize(2 * steps);
    for t in 0..steps {
        p.set_bounds(t, 0.0, 17_000.0);
        p.set_bounds(steps + t, 20.0, 25.0);
    }
    p.set_objective((0..steps).map(|t| (t, 0.12)).collect());
    for t in 1..=steps {
        // xₜ − Σₖ a^{t−1−k}·b2·hₖ = a^t·x0 + Σₖ a^{t−1−k}·b1·outₖ
        let mut coeffs = vec![(steps + t - 1, 1.0)];
        let mut rhs = a.powi(t as i32) * x0;
        for k in 0..t {
            let carry = a.powi((t - 1 - k) as i32);
            coeffs.push((k, -carry * b2));
            rhs += carry * b1 * series[k].0;
        }
        p.add_constraint(coeffs, Rel::Eq, rhs);
    }
    p
}

/// UC2 P4: a 0/1 knapsack over `items` stock items at 40 % capacity.
fn knapsack(items: usize, seed: u64) -> Problem {
    let mut rng = Lcg(seed);
    let mut p = Problem::maximize(0);
    let mut profit = Vec::new();
    let mut volume = Vec::new();
    for j in 0..items {
        p.add_var(0.0, 1.0, true);
        profit.push((j, rng.range(5.0, 400.0)));
        volume.push((j, rng.range(0.5, 12.0)));
    }
    let capacity = 0.4 * volume.iter().map(|&(_, v)| v).sum::<f64>();
    p.set_objective(profit);
    p.add_constraint(volume, Rel::Le, capacity);
    p
}

/// (case, objective, branch-and-bound nodes; 0 for a pure LP).
type Row = (String, f64, usize);

fn measured() -> Vec<Row> {
    let mut out = Vec::new();
    for rows in [60, 120, 240, 336] {
        for seed in 1..=3 {
            let s = solve_lp(&l1_regression(&energy(rows, seed)));
            assert_eq!(s.status, Status::Optimal, "l1 {rows} rows seed {seed}");
            out.push((format!("l1/{rows}/{seed}"), s.objective, 0));
        }
    }
    for (steps, seed) in [(48, 1), (96, 2)] {
        let p = hvac_plan(steps, seed);
        let s = solve_lp(&p);
        assert_eq!(s.status, Status::Optimal, "plan {steps} steps");
        assert!(p.is_feasible(&s.x, 1e-6), "plan {steps} steps: optimum infeasible");
        out.push((format!("plan/{steps}/{seed}"), s.objective, 0));
    }
    for seed in 1..=6 {
        let p = knapsack(60, seed);
        let (s, stats) = mip::branch_and_bound_stats(&p, mip::MipOptions::default());
        assert_eq!(s.status, Status::Optimal, "knapsack seed {seed}");
        assert!(p.is_feasible(&s.x, 1e-9), "knapsack seed {seed}: optimum infeasible");
        assert_eq!(stats.cold_starts, 0, "knapsack seed {seed}");
        out.push((format!("knapsack/60/{seed}"), s.objective, stats.nodes_explored));
    }
    out
}

/// The dense-B⁻¹ kernel's objectives (commit b4c8fcf) and the nodes of
/// the search with rounding and fixing (PR 25).
const PINNED: &[(&str, f64, usize)] = &[
    ("l1/60/1", 2707.4665750793233, 0),
    ("l1/60/2", 2924.4039698973547, 0),
    ("l1/60/3", 2394.3754222552857, 0),
    ("l1/120/1", 6097.095668964588, 0),
    ("l1/120/2", 6610.179015552904, 0),
    ("l1/120/3", 5660.651538300209, 0),
    ("l1/240/1", 13071.067160188692, 0),
    ("l1/240/2", 13379.796408099388, 0),
    ("l1/240/3", 12305.224945311538, 0),
    ("l1/336/1", 18464.80253538239, 0),
    ("l1/336/2", 17977.021032031837, 0),
    ("l1/336/3", 17550.451696361943, 0),
    ("plan/48/1", 29772.20128654311, 0),
    ("plan/96/2", 59979.720720913356, 0),
    ("knapsack/60/1", 9151.09243168098, 13),
    ("knapsack/60/2", 7619.0627548503835, 7),
    ("knapsack/60/3", 7853.872287589069, 161),
    ("knapsack/60/4", 8549.711754699885, 61),
    ("knapsack/60/5", 8293.006576712134, 5),
    ("knapsack/60/6", 9840.93702892759, 87),
];

#[test]
fn the_kernel_reproduces_the_dense_inverse_kernel() {
    let actual = measured();
    let table = actual
        .iter()
        .map(|(case, objective, nodes)| format!("    ({case:?}, {objective:?}, {nodes}),"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(actual.len(), PINNED.len(), "case list changed; measured now:\n{table}");
    for ((case, objective, nodes), &(pinned_case, pinned_objective, pinned_nodes)) in
        actual.iter().zip(PINNED)
    {
        assert_eq!(case, pinned_case, "case order changed; measured now:\n{table}");
        assert!(
            (objective - pinned_objective).abs() <= 1e-9 * (1.0 + pinned_objective.abs()),
            "{case}: objective {objective:?}, pinned {pinned_objective:?}; measured now:\n{table}"
        );
        assert_eq!(*nodes, pinned_nodes, "{case}: node count; measured now:\n{table}");
    }
}
