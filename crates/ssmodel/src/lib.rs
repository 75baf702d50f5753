//! # ssmodel — discrete linear time-invariant state-space models
//!
//! The grey-box system models of SolveDB+'s P3 phase (paper §4.4):
//!
//! ```text
//! x[n+1] = A x[n] + B u[n]
//! y[n]   = C x[n] + D u[n]
//! ```
//!
//! The paper's running example is the scalar HVAC thermal model
//! `x[n+1] = a1·x[n] + b1·outTemp[n] + b2·hLoad[n]` with `y = x`
//! (the building's inside temperature). This crate provides general
//! (small, dense) LTI simulation plus least-squares parameter
//! estimation, replacing Matlab's `ssest` / System Identification
//! Toolbox in the evaluation.

#![forbid(unsafe_code)]

use globalopt::{sa_from, SaOptions, SearchSpace};

/// A discrete LTI model with dense matrices (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Lti {
    /// State dimension.
    pub nx: usize,
    /// Input dimension.
    pub nu: usize,
    /// Output dimension.
    pub ny: usize,
    /// nx×nx state matrix.
    pub a: Vec<f64>,
    /// nx×nu input matrix.
    pub b: Vec<f64>,
    /// ny×nx output matrix.
    pub c: Vec<f64>,
    /// ny×nu feed-through matrix.
    pub d: Vec<f64>,
}

impl Lti {
    pub fn new(nx: usize, nu: usize, ny: usize) -> Lti {
        Lti {
            nx,
            nu,
            ny,
            a: vec![0.0; nx * nx],
            b: vec![0.0; nx * nu],
            c: vec![0.0; ny * nx],
            d: vec![0.0; ny * nu],
        }
    }

    /// The paper's scalar HVAC model: state = inside temperature,
    /// inputs = (outside temperature, HVAC load), output = state.
    pub fn hvac(a1: f64, b1: f64, b2: f64) -> Lti {
        let mut m = Lti::new(1, 2, 1);
        m.a = vec![a1];
        m.b = vec![b1, b2];
        m.c = vec![1.0];
        m.d = vec![0.0, 0.0];
        m
    }

    /// Simulate from initial state `x0` over inputs `u` (one row per
    /// step, each of length `nu`). Returns (states, outputs); `states[k]`
    /// is `x[k]` (before applying input k), matching the paper's
    /// recursive-CTE listing, with one trailing post-horizon state.
    pub fn simulate(&self, x0: &[f64], u: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        assert_eq!(x0.len(), self.nx, "x0 dimension mismatch");
        let mut x = x0.to_vec();
        let mut states = Vec::with_capacity(u.len() + 1);
        let mut outputs = Vec::with_capacity(u.len() + 1);
        for uk in u {
            assert_eq!(uk.len(), self.nu, "input dimension mismatch");
            states.push(x.clone());
            outputs.push(self.output(&x, uk));
            x = self.step(&x, uk);
        }
        states.push(x.clone());
        let zero_u = vec![0.0; self.nu];
        outputs.push(self.output(&x, &zero_u));
        (states, outputs)
    }

    /// One transition: x' = A x + B u.
    pub fn step(&self, x: &[f64], u: &[f64]) -> Vec<f64> {
        let mut next = vec![0.0; self.nx];
        for i in 0..self.nx {
            let mut s = 0.0;
            for j in 0..self.nx {
                s += self.a[i * self.nx + j] * x[j];
            }
            for j in 0..self.nu {
                s += self.b[i * self.nu + j] * u[j];
            }
            next[i] = s;
        }
        next
    }

    /// y = C x + D u.
    pub fn output(&self, x: &[f64], u: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.ny];
        for i in 0..self.ny {
            let mut s = 0.0;
            for j in 0..self.nx {
                s += self.c[i * self.nx + j] * x[j];
            }
            for j in 0..self.nu {
                s += self.d[i * self.nu + j] * u[j];
            }
            y[i] = s;
        }
        y
    }

    /// Spectral-radius-style stability check via power iteration on A.
    pub fn is_stable(&self) -> bool {
        if self.nx == 0 {
            return true;
        }
        let mut v = vec![1.0; self.nx];
        let mut lambda = 0.0;
        for _ in 0..200 {
            let mut w = vec![0.0; self.nx];
            for i in 0..self.nx {
                for j in 0..self.nx {
                    w[i] += self.a[i * self.nx + j] * v[j];
                }
            }
            lambda = w.iter().map(|x| x.abs()).fold(0.0f64, f64::max);
            if lambda < 1e-12 {
                return true;
            }
            for x in &mut w {
                *x /= lambda;
            }
            v = w;
        }
        lambda < 1.0 + 1e-9
    }
}

/// Sum of squared errors between a simulated state trajectory and
/// measurements (the paper's `sum((x - inTemp)^2)` fitness).
pub fn simulation_sse(model: &Lti, x0: &[f64], u: &[Vec<f64>], measured: &[f64]) -> f64 {
    let (states, _) = model.simulate(x0, u);
    states.iter().take(measured.len()).zip(measured).map(|(x, m)| (x[0] - m) * (x[0] - m)).sum()
}

/// Result of HVAC parameter estimation.
#[derive(Debug, Clone)]
pub struct HvacFit {
    pub a1: f64,
    pub b1: f64,
    pub b2: f64,
    pub sse: f64,
    pub evaluations: usize,
}

/// Estimate the paper's HVAC model parameters from measured inside
/// temperatures by simulated annealing — the SolveDB+ counterpart of
/// Matlab's `ssest` step (P3, §5.3). `u` rows are `(outTemp, hLoad)`
/// pairs; `measured[0]` doubles as the initial state.
pub fn fit_hvac(
    u: &[Vec<f64>],
    measured: &[f64],
    bounds: ((f64, f64), (f64, f64), (f64, f64)),
    iterations: usize,
    seed: u64,
) -> HvacFit {
    let ((a_lo, a_hi), (b1_lo, b1_hi), (b2_lo, b2_hi)) = bounds;
    let space = SearchSpace::continuous(vec![a_lo, b1_lo, b2_lo], vec![a_hi, b1_hi, b2_hi]);
    let x0 = vec![measured[0]];
    let f = |p: &[f64]| {
        let m = Lti::hvac(p[0], p[1], p[2]);
        simulation_sse(&m, &x0, u, measured)
    };
    let start = vec![(a_lo + a_hi) / 2.0, (b1_lo + b1_hi) / 2.0, (b2_lo + b2_hi) / 2.0];
    let r =
        sa_from(f, &space, SaOptions { iterations, seed, step: 0.05, ..Default::default() }, start);
    HvacFit { a1: r.x[0], b1: r.x[1], b2: r.x[2], sse: r.value, evaluations: r.evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_simulation_matches_hand_computation() {
        // x' = 0.5x + 1*u with x0 = 10, u = 1,1,1 → 10, 6, 4, 3.
        let mut m = Lti::new(1, 1, 1);
        m.a = vec![0.5];
        m.b = vec![1.0];
        m.c = vec![1.0];
        let (states, outputs) = m.simulate(&[10.0], &[vec![1.0], vec![1.0], vec![1.0]]);
        let xs: Vec<f64> = states.iter().map(|s| s[0]).collect();
        assert_eq!(xs, vec![10.0, 6.0, 4.0, 3.0]);
        assert_eq!(outputs[0], vec![10.0]);
    }

    #[test]
    fn hvac_model_shape() {
        let m = Lti::hvac(0.9, 0.05, 0.0002);
        let next = m.step(&[20.0], &[10.0, 1000.0]);
        assert!((next[0] - (0.9 * 20.0 + 0.05 * 10.0 + 0.0002 * 1000.0)).abs() < 1e-12);
    }

    #[test]
    fn two_state_system() {
        // x' = [[0,1],[-0.5,0]] x, no input.
        let mut m = Lti::new(2, 1, 2);
        m.a = vec![0.0, 1.0, -0.5, 0.0];
        m.b = vec![0.0, 0.0];
        m.c = vec![1.0, 0.0, 0.0, 1.0];
        let (states, _) = m.simulate(&[1.0, 0.0], &[vec![0.0], vec![0.0]]);
        assert_eq!(states[1], vec![0.0, -0.5]);
        assert_eq!(states[2], vec![-0.5, 0.0]);
    }

    #[test]
    fn stability_check() {
        assert!(Lti::hvac(0.9, 0.1, 0.1).is_stable());
        assert!(!Lti::hvac(1.1, 0.1, 0.1).is_stable());
    }

    #[test]
    fn sse_is_zero_for_perfect_model() {
        let truth = Lti::hvac(0.95, 0.03, 0.0001);
        let u: Vec<Vec<f64>> = (0..50).map(|i| vec![10.0 + (i % 5) as f64, 500.0]).collect();
        let (states, _) = truth.simulate(&[21.0], &u);
        let measured: Vec<f64> = states.iter().map(|s| s[0]).collect();
        assert!(simulation_sse(&truth, &[21.0], &u, &measured) < 1e-18);
    }

    #[test]
    fn fit_hvac_recovers_parameters() {
        let truth = Lti::hvac(0.90, 0.05, 0.0004);
        let u: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                vec![
                    10.0 + 8.0 * ((i as f64) * 0.26).sin(),
                    800.0 + 600.0 * ((i as f64) * 0.13).cos(),
                ]
            })
            .collect();
        let (states, _) = truth.simulate(&[21.0], &u);
        let measured: Vec<f64> = states.iter().map(|s| s[0]).collect();
        let fit = fit_hvac(&u, &measured, ((0.0, 1.0), (0.0, 1.0), (0.0, 0.01)), 30_000, 42);
        assert!(fit.sse < 1.0, "sse {}", fit.sse);
        assert!((fit.a1 - 0.90).abs() < 0.05, "a1 {}", fit.a1);
    }

    #[test]
    #[should_panic(expected = "x0 dimension mismatch")]
    fn dimension_mismatch_panics() {
        Lti::hvac(0.9, 0.1, 0.1).simulate(&[1.0, 2.0], &[]);
    }
}
