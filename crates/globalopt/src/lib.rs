//! # globalopt — black-box global optimization
//!
//! From-scratch Particle Swarm Optimization, Simulated Annealing and
//! Differential Evolution, standing in for the SwarmOps library the
//! paper exposes as the `swarmops` solver (`swarmops.pso()`,
//! `swarmops.sa()`, …).
//!
//! All methods minimize a black-box function over a box; dimensions can
//! be marked integral (the paper's ARIMA order search uses integer
//! parameters in `[0, 5]`). Runs are deterministic given a seed.
//!
//! On a space that is integral in every dimension a search scores each
//! repaired point at most once: the fitness is taken to be a function of
//! its point ([`Fitness::is_pure`]), so a point seen before gets the
//! value it got then. That changes no random draw and no step of the
//! search; only the calls into the fitness go down.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Index of the smallest value under IEEE total order (empty → 0).
fn argmin(vals: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in vals.iter().enumerate().skip(1) {
        if v.total_cmp(&vals[best]).is_lt() {
            best = i;
        }
    }
    best
}

/// Search box with optional per-dimension integrality.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    pub integer: Vec<bool>,
}

impl SearchSpace {
    pub fn continuous(lower: Vec<f64>, upper: Vec<f64>) -> SearchSpace {
        let n = lower.len();
        assert_eq!(n, upper.len());
        SearchSpace { lower, upper, integer: vec![false; n] }
    }

    pub fn with_integrality(mut self, integer: Vec<bool>) -> SearchSpace {
        assert_eq!(integer.len(), self.dim());
        self.integer = integer;
        self
    }

    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Clamp (and round integral dims of) a candidate in place.
    pub fn repair(&self, x: &mut [f64]) {
        for i in 0..self.dim() {
            if self.integer[i] {
                x[i] = x[i].round();
            }
            x[i] = x[i].clamp(self.lower[i], self.upper[i]);
            if self.integer[i] {
                // Clamp may land between integers when bounds are fractional.
                x[i] = x[i].round().clamp(self.lower[i].ceil(), self.upper[i].floor());
            }
        }
    }

    fn sample(&self, rng: &mut StdRng) -> Vec<f64> {
        let mut x: Vec<f64> = (0..self.dim())
            .map(|i| {
                let (l, u) = (finite(self.lower[i], -1e6), finite(self.upper[i], 1e6));
                rng.gen_range(l..=u.max(l))
            })
            .collect();
        self.repair(&mut x);
        x
    }

    fn span(&self, i: usize) -> f64 {
        finite(self.upper[i], 1e6) - finite(self.lower[i], -1e6)
    }
}

fn finite(v: f64, default: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        default
    }
}

/// Result of a black-box optimization run.
#[derive(Debug, Clone)]
pub struct OptResult {
    pub x: Vec<f64>,
    pub value: f64,
    /// Evaluations the search asked for, repeats of a point included.
    pub evaluations: usize,
    /// Calls actually made into the fitness: `evaluations` less the
    /// points an integral search had scored already.
    pub distinct: usize,
    /// Outer iterations (generations / annealing steps) actually run.
    pub iterations: usize,
}

/// A black-box objective to minimize. Every `FnMut(&[f64]) -> f64` is
/// one, and a pure one.
pub trait Fitness {
    /// The objective at `x`; NaN counts as +∞.
    fn score(&mut self, x: &[f64]) -> f64;

    /// Whether the same point always scores the same. On an all-integer
    /// space a search calls a pure fitness once per point.
    fn is_pure(&self) -> bool {
        true
    }
}

impl<F: FnMut(&[f64]) -> f64> Fitness for F {
    fn score(&mut self, x: &[f64]) -> f64 {
        self(x)
    }
}

/// The fitness as every search calls it: NaN scores +∞, each request is
/// counted, and on an all-integer space a pure fitness is scored once per
/// point, keyed by the point's coordinates (`-0.0` and `0.0` are one
/// integer).
struct Evaluator<F> {
    f: F,
    requested: usize,
    distinct: usize,
    memo: Option<HashMap<Vec<u64>, f64>>,
    key: Vec<u64>,
}

impl<F: Fitness> Evaluator<F> {
    fn new(f: F, space: &SearchSpace) -> Self {
        let integral = space.integer.iter().all(|&i| i);
        let memo = (integral && f.is_pure()).then(HashMap::new);
        Evaluator { f, requested: 0, distinct: 0, memo, key: Vec::new() }
    }

    fn score(&mut self, x: &[f64]) -> f64 {
        self.requested += 1;
        if let Some(memo) = &self.memo {
            self.key.clear();
            self.key.extend(x.iter().map(|v| (v + 0.0).to_bits()));
            if let Some(&v) = memo.get(self.key.as_slice()) {
                return v;
            }
        }
        self.distinct += 1;
        let v = self.f.score(x);
        let v = if v.is_nan() { f64::INFINITY } else { v };
        if let Some(memo) = &mut self.memo {
            memo.insert(self.key.clone(), v);
        }
        v
    }

    fn progress(&self, iteration: usize, best: f64) -> SearchProgress {
        SearchProgress { iteration, evaluations: self.requested, best }
    }

    fn result(&self, x: Vec<f64>, value: f64, iterations: usize) -> OptResult {
        OptResult { x, value, evaluations: self.requested, distinct: self.distinct, iterations }
    }
}

/// Point-in-time snapshot of a running search, handed to the progress
/// callback of the `_with` variants once per outer iteration. Returning
/// `false` from the callback stops the search cooperatively; the result
/// then carries the best point found so far and the iterations actually
/// run (the caller knows it interrupted — it returned `false`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchProgress {
    /// Outer iterations completed so far (1-based at first callback).
    pub iteration: usize,
    /// Objective evaluations requested so far, repeats included.
    pub evaluations: usize,
    /// Best objective value found so far (minimization sense).
    pub best: f64,
}

// ---------------------------------------------------------------------------
// Particle Swarm Optimization (Kennedy & Eberhart)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct PsoOptions {
    pub particles: usize,
    pub iterations: usize,
    /// Inertia weight ω.
    pub inertia: f64,
    /// Cognitive coefficient c₁.
    pub cognitive: f64,
    /// Social coefficient c₂.
    pub social: f64,
    pub seed: u64,
}

impl Default for PsoOptions {
    fn default() -> Self {
        PsoOptions {
            particles: 10,
            iterations: 10,
            inertia: 0.729,
            cognitive: 1.49445,
            social: 1.49445,
            seed: 0x50_50,
        }
    }
}

/// Minimize `f` by particle swarm optimization.
pub fn pso(f: impl FnMut(&[f64]) -> f64, space: &SearchSpace, opts: PsoOptions) -> OptResult {
    pso_with(f, space, opts, &mut |_| true)
}

/// [`pso`] with a per-iteration progress callback (see
/// [`SearchProgress`]).
pub fn pso_with(
    f: impl Fitness,
    space: &SearchSpace,
    opts: PsoOptions,
    on_progress: &mut dyn FnMut(&SearchProgress) -> bool,
) -> OptResult {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = space.dim();
    let mut evals = Evaluator::new(f, space);

    let mut pos: Vec<Vec<f64>> = (0..opts.particles).map(|_| space.sample(&mut rng)).collect();
    let mut vel: Vec<Vec<f64>> = (0..opts.particles)
        .map(|_| (0..n).map(|i| (rng.gen::<f64>() - 0.5) * 0.1 * space.span(i)).collect())
        .collect();
    let mut pbest = pos.clone();
    let mut pbest_val: Vec<f64> = pos.iter().map(|x| evals.score(x)).collect();
    let gbest_idx = argmin(&pbest_val);
    let mut gbest = pbest[gbest_idx].clone();
    let mut gbest_val = pbest_val[gbest_idx];

    let mut ran = 0usize;
    for it in 0..opts.iterations {
        ran = it + 1;
        for p in 0..opts.particles {
            for i in 0..n {
                let r1: f64 = rng.gen();
                let r2: f64 = rng.gen();
                vel[p][i] = opts.inertia * vel[p][i]
                    + opts.cognitive * r1 * (pbest[p][i] - pos[p][i])
                    + opts.social * r2 * (gbest[i] - pos[p][i]);
                pos[p][i] += vel[p][i];
            }
            space.repair(&mut pos[p]);
            let v = evals.score(&pos[p]);
            if v < pbest_val[p] {
                pbest_val[p] = v;
                pbest[p] = pos[p].clone();
                if v < gbest_val {
                    gbest_val = v;
                    gbest = pos[p].clone();
                }
            }
        }
        if !on_progress(&evals.progress(ran, gbest_val)) {
            break;
        }
    }
    evals.result(gbest, gbest_val, ran)
}

// ---------------------------------------------------------------------------
// Simulated Annealing
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct SaOptions {
    pub iterations: usize,
    /// Initial temperature (relative to the initial objective scale).
    pub initial_temperature: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    /// Neighbourhood size as a fraction of each dimension's span.
    pub step: f64,
    pub seed: u64,
}

impl Default for SaOptions {
    fn default() -> Self {
        SaOptions {
            iterations: 2000,
            initial_temperature: 1.0,
            cooling: 0.997,
            step: 0.1,
            seed: 0x5A_5A,
        }
    }
}

/// Minimize `f` by simulated annealing from a random start (or a given
/// one via [`sa_from`]).
pub fn simulated_annealing(
    f: impl FnMut(&[f64]) -> f64,
    space: &SearchSpace,
    opts: SaOptions,
) -> OptResult {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let x0 = space.sample(&mut rng);
    sa_from(f, space, opts, x0)
}

/// Simulated annealing from an explicit starting point (SolveDB+ uses the
/// decision columns' initial values when present).
pub fn sa_from(
    f: impl FnMut(&[f64]) -> f64,
    space: &SearchSpace,
    opts: SaOptions,
    x: Vec<f64>,
) -> OptResult {
    sa_from_with(f, space, opts, x, &mut |_| true)
}

/// [`sa_from`] with a per-iteration progress callback (see
/// [`SearchProgress`]). The callback is throttled to every 64 annealing
/// steps — a step is one objective evaluation, far cheaper than a
/// PSO/DE generation.
pub fn sa_from_with(
    f: impl Fitness,
    space: &SearchSpace,
    opts: SaOptions,
    mut x: Vec<f64>,
    on_progress: &mut dyn FnMut(&SearchProgress) -> bool,
) -> OptResult {
    let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(1));
    space.repair(&mut x);
    let n = space.dim();
    let mut evals = Evaluator::new(f, space);
    let mut cur_val = evals.score(&x);
    let mut best = x.clone();
    let mut best_val = cur_val;
    let scale = if cur_val.is_finite() { cur_val.abs().max(1.0) } else { 1.0 };
    let mut temp = opts.initial_temperature * scale;

    let mut ran = 0usize;
    for it in 0..opts.iterations {
        ran = it + 1;
        let mut cand = x.clone();
        // Perturb a random subset of dimensions.
        let k = rng.gen_range(1..=n.max(1));
        for _ in 0..k {
            let i = rng.gen_range(0..n);
            let sigma = opts.step * space.span(i).max(1e-9);
            let delta = (rng.gen::<f64>() * 2.0 - 1.0) * sigma;
            cand[i] +=
                if space.integer[i] { delta.signum() * delta.abs().ceil().max(1.0) } else { delta };
        }
        space.repair(&mut cand);
        let cand_val = evals.score(&cand);
        let accept = cand_val < cur_val || {
            let d = (cand_val - cur_val) / temp.max(1e-12);
            rng.gen::<f64>() < (-d).exp()
        };
        if accept {
            x = cand;
            cur_val = cand_val;
            if cur_val < best_val {
                best_val = cur_val;
                best = x.clone();
            }
        }
        temp *= opts.cooling;
        // `u64::is_multiple_of` would read better but needs Rust 1.87;
        // the workspace MSRV is 1.75.
        #[allow(clippy::manual_is_multiple_of)]
        if ran % 64 == 0 && !on_progress(&evals.progress(ran, best_val)) {
            break;
        }
    }
    evals.result(best, best_val, ran)
}

// ---------------------------------------------------------------------------
// Differential Evolution (rand/1/bin)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct DeOptions {
    pub population: usize,
    pub iterations: usize,
    /// Differential weight F.
    pub weight: f64,
    /// Crossover probability CR.
    pub crossover: f64,
    pub seed: u64,
}

impl Default for DeOptions {
    fn default() -> Self {
        DeOptions { population: 20, iterations: 100, weight: 0.6, crossover: 0.9, seed: 0xDE }
    }
}

/// Minimize `f` by differential evolution (rand/1/bin scheme).
pub fn differential_evolution(
    f: impl FnMut(&[f64]) -> f64,
    space: &SearchSpace,
    opts: DeOptions,
) -> OptResult {
    differential_evolution_with(f, space, opts, &mut |_| true)
}

/// [`differential_evolution`] with a per-generation progress callback
/// (see [`SearchProgress`]).
pub fn differential_evolution_with(
    f: impl Fitness,
    space: &SearchSpace,
    opts: DeOptions,
    on_progress: &mut dyn FnMut(&SearchProgress) -> bool,
) -> OptResult {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = space.dim();
    let np = opts.population.max(4);
    let mut evals = Evaluator::new(f, space);

    let mut pop: Vec<Vec<f64>> = (0..np).map(|_| space.sample(&mut rng)).collect();
    let mut vals: Vec<f64> = pop.iter().map(|x| evals.score(x)).collect();

    let mut ran = 0usize;
    for it in 0..opts.iterations {
        ran = it + 1;
        for i in 0..np {
            // Pick three distinct indices ≠ i.
            let mut pick = || loop {
                let k = rng.gen_range(0..np);
                if k != i {
                    break k;
                }
            };
            let (a, b, c) = (pick(), pick(), pick());
            let jrand = rng.gen_range(0..n);
            let mut trial = pop[i].clone();
            for j in 0..n {
                if j == jrand || rng.gen::<f64>() < opts.crossover {
                    trial[j] = pop[a][j] + opts.weight * (pop[b][j] - pop[c][j]);
                }
            }
            space.repair(&mut trial);
            let tv = evals.score(&trial);
            if tv <= vals[i] {
                pop[i] = trial;
                vals[i] = tv;
            }
        }
        if !on_progress(&evals.progress(ran, vals[argmin(&vals)])) {
            break;
        }
    }
    let bi = argmin(&vals);
    evals.result(pop[bi].clone(), vals[bi], ran)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    fn rosenbrock(x: &[f64]) -> f64 {
        (0..x.len() - 1)
            .map(|i| 100.0 * (x[i + 1] - x[i] * x[i]).powi(2) + (1.0 - x[i]).powi(2))
            .sum()
    }

    fn box3() -> SearchSpace {
        SearchSpace::continuous(vec![-5.0; 3], vec![5.0; 3])
    }

    #[test]
    fn pso_minimizes_sphere() {
        let r = pso(
            sphere,
            &box3(),
            PsoOptions { particles: 30, iterations: 200, ..Default::default() },
        );
        assert!(r.value < 1e-4, "value {}", r.value);
        assert!(r.evaluations > 0);
        assert_eq!(r.iterations, 200);
    }

    #[test]
    fn sa_minimizes_sphere() {
        let r = simulated_annealing(
            sphere,
            &box3(),
            SaOptions { iterations: 20_000, ..Default::default() },
        );
        assert!(r.value < 1e-2, "value {}", r.value);
    }

    #[test]
    fn de_minimizes_rosenbrock() {
        let space = SearchSpace::continuous(vec![-2.0; 2], vec![2.0; 2]);
        let r = differential_evolution(
            rosenbrock,
            &space,
            DeOptions { population: 40, iterations: 400, ..Default::default() },
        );
        assert!(r.value < 1e-3, "value {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 0.1);
    }

    #[test]
    fn integer_dimensions_stay_integral() {
        let space = SearchSpace::continuous(vec![0.0, 0.0], vec![5.0, 5.0])
            .with_integrality(vec![true, true]);
        // min (x-2.4)² + (y-3.6)² over integers → (2, 4).
        let f = |x: &[f64]| (x[0] - 2.4).powi(2) + (x[1] - 3.6).powi(2);
        for r in [
            pso(f, &space, PsoOptions { particles: 20, iterations: 100, ..Default::default() }),
            differential_evolution(f, &space, DeOptions::default()),
            simulated_annealing(f, &space, SaOptions { iterations: 5000, ..Default::default() }),
        ] {
            assert_eq!(r.x[0], r.x[0].round());
            assert_eq!(r.x[1], r.x[1].round());
            assert_eq!((r.x[0], r.x[1]), (2.0, 4.0), "got {:?}", r.x);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = pso(sphere, &box3(), PsoOptions::default());
        let b = pso(sphere, &box3(), PsoOptions::default());
        assert_eq!(a.x, b.x);
        let c = pso(sphere, &box3(), PsoOptions { seed: 7, ..Default::default() });
        assert_ne!(a.x, c.x);
    }

    #[test]
    fn progress_callback_can_stop_each_method() {
        let space = box3();
        // PSO: stop after 5 generations.
        let mut seen = 0usize;
        let r = pso_with(
            sphere,
            &space,
            PsoOptions { particles: 10, iterations: 500, ..Default::default() },
            &mut |p| {
                seen = p.iteration;
                assert!(p.evaluations > 0);
                assert!(p.best.is_finite());
                p.iteration < 5
            },
        );
        assert_eq!(seen, 5);
        assert_eq!(r.iterations, 5);
        assert!(r.value.is_finite());

        // DE: same contract.
        let r = differential_evolution_with(
            sphere,
            &space,
            DeOptions { iterations: 500, ..Default::default() },
            &mut |p| p.iteration < 3,
        );
        assert_eq!(r.iterations, 3);

        // SA: throttled to every 64 steps, so the stop lands on a
        // multiple of 64.
        let r = sa_from_with(
            sphere,
            &space,
            SaOptions { iterations: 100_000, ..Default::default() },
            vec![1.0, 1.0, 1.0],
            &mut |p| p.iteration < 128,
        );
        assert_eq!(r.iterations, 128);
    }

    #[test]
    fn uninterrupted_with_variants_match_plain_calls() {
        let a = pso(sphere, &box3(), PsoOptions::default());
        let b = pso_with(sphere, &box3(), PsoOptions::default(), &mut |_| true);
        assert_eq!(a.x, b.x);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn sa_from_starting_point_respects_bounds() {
        let space = SearchSpace::continuous(vec![0.0], vec![1.0]);
        let r = sa_from(|x| x[0], &space, SaOptions::default(), vec![100.0]);
        assert!(r.x[0] >= 0.0 && r.x[0] <= 1.0);
        assert!(r.value < 0.05);
    }

    #[test]
    fn nan_objectives_are_rejected() {
        let space = SearchSpace::continuous(vec![-1.0], vec![1.0]);
        // NaN off the negative half; the optimizer should settle in [0,1].
        let f = |x: &[f64]| if x[0] < 0.0 { f64::NAN } else { x[0] };
        let r = pso(f, &space, PsoOptions { particles: 20, iterations: 100, ..Default::default() });
        assert!(r.value.is_finite());
        assert!(r.x[0] >= 0.0);
    }

    #[test]
    fn infinite_bounds_are_searchable() {
        let space = SearchSpace::continuous(vec![f64::NEG_INFINITY], vec![f64::INFINITY]);
        let r = differential_evolution(
            |x| (x[0] - 3.0).powi(2),
            &space,
            DeOptions { population: 30, iterations: 300, ..Default::default() },
        );
        assert!((r.x[0] - 3.0).abs() < 0.1, "got {:?}", r.x);
    }
}
