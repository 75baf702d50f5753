//! On a space that is integral in every dimension, PSO, DE and SA score
//! each repaired point at most once, and nothing else about a search
//! changes. The property draws random boxes (integral, with fractional
//! bounds on some integral dimensions, and mixed), seeds and methods over
//! a deterministic fitness that counts its calls per point:
//! - on an integral box no point reaches the fitness twice, and
//!   `distinct` is the number of calls;
//! - on a mixed box the fitness is called once per requested evaluation;
//! - either way the search returns what the same search returns over an
//!   impure fitness, which is never memoized.
//!
//! `searches_answer_as_before` pins fixed cases whose `(x, value,
//! evaluations, iterations)` were recorded before the memo existed.
//!
//! The workspace run takes 64 cases; `PROPTEST_CASES` sets how many where
//! it is set (the vendored proptest does not read it; the `analyze` CI job
//! runs 20 000).

use globalopt::{
    differential_evolution_with, pso_with, sa_from_with, DeOptions, Fitness, OptResult, PsoOptions,
    SaOptions, SearchSpace,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// A deterministic, bumpy fitness, NaN on a sparse set of points (which a
/// search scores +∞).
fn bumpy(x: &[f64]) -> f64 {
    let mut v = 0.0;
    for (i, xi) in x.iter().enumerate() {
        let c = 1.5 * i as f64 - 0.7;
        v += (xi - c).powi(2) + 0.8 * (3.1 * xi).sin();
    }
    if (x.iter().sum::<f64>().round() as i64).rem_euclid(7) == 3 {
        f64::NAN
    } else {
        v
    }
}

/// A point as an integer lattice sees it: `-0.0` and `0.0` are one point.
fn key(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| (v + 0.0).to_bits()).collect()
}

/// A fitness that says it may answer differently for the same point, so
/// no search memoizes it.
struct Impure<F>(F);

impl<F: FnMut(&[f64]) -> f64> Fitness for Impure<F> {
    fn score(&mut self, x: &[f64]) -> f64 {
        (self.0)(x)
    }

    fn is_pure(&self) -> bool {
        false
    }
}

#[derive(Debug, Clone, Copy)]
enum Method {
    Pso,
    De,
    Sa,
}

/// A small search of `method` over `space`; SA starts at the box's lower
/// corner.
fn search(method: Method, f: impl Fitness, space: &SearchSpace, seed: u64) -> OptResult {
    let go = &mut |_: &_| true;
    match method {
        Method::Pso => pso_with(
            f,
            space,
            PsoOptions { particles: 6, iterations: 8, seed, ..Default::default() },
            go,
        ),
        Method::De => differential_evolution_with(
            f,
            space,
            DeOptions { population: 6, iterations: 8, seed, ..Default::default() },
            go,
        ),
        Method::Sa => sa_from_with(
            f,
            space,
            SaOptions { iterations: 60, seed, ..Default::default() },
            space.lower.clone(),
            go,
        ),
    }
}

/// `f`, counting its calls per point into `calls`.
fn counted<'a>(calls: &'a mut HashMap<Vec<u64>, usize>) -> impl FnMut(&[f64]) -> f64 + 'a {
    move |x: &[f64]| {
        *calls.entry(key(x)).or_insert(0) += 1;
        bumpy(x)
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D) % n
    }
}

/// One to three dimensions. An integral dimension holds at least one
/// integer, sometimes between fractional bounds; a continuous one may be
/// a single point. `integral` makes every dimension integral, else at
/// least one is continuous.
fn space(rng: &mut Rng, integral: bool) -> SearchSpace {
    let n = 1 + rng.below(3) as usize;
    let continuous = (!integral).then(|| rng.below(n as u64) as usize);
    let (mut lower, mut upper, mut integer) = (vec![], vec![], vec![]);
    for i in 0..n {
        let a = rng.below(7) as f64 - 4.0;
        let w = rng.below(7) as f64;
        let pad = if rng.below(3) == 0 { 0.5 } else { 0.0 };
        lower.push(a - pad);
        upper.push(a + w + pad);
        integer.push(continuous != Some(i) && (integral || rng.below(2) == 0));
    }
    SearchSpace::continuous(lower, upper).with_integrality(integer)
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

fn same(a: &OptResult, b: &OptResult) -> bool {
    let bits = |r: &OptResult| r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    bits(a) == bits(b)
        && a.value.to_bits() == b.value.to_bits()
        && (a.evaluations, a.iterations) == (b.evaluations, b.iterations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn an_integral_search_scores_each_point_once(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed | 1);
        let integral = rng.below(2) == 0;
        let space = space(&mut rng, integral);
        let method = [Method::Pso, Method::De, Method::Sa][rng.below(3) as usize];
        let search_seed = rng.below(1 << 20);

        let mut calls = HashMap::new();
        let r = search(method, counted(&mut calls), &space, search_seed);
        let made: usize = calls.values().sum();
        prop_assert_eq!(r.distinct, made, "{:?} over {:?}", method, space);
        if integral {
            prop_assert!(calls.values().all(|&c| c == 1), "{:?} over {:?}: {:?}", method, space, calls);
            prop_assert!(r.distinct <= r.evaluations);
        } else {
            prop_assert_eq!(made, r.evaluations, "{:?} over {:?}", method, space);
        }

        let mut all = HashMap::new();
        let every = search(method, Impure(counted(&mut all)), &space, search_seed);
        prop_assert_eq!(every.distinct, every.evaluations);
        prop_assert!(same(&r, &every), "{:?} over {:?}: {:?} vs {:?}", method, space, r, every);
    }
}

/// The ARIMA order box, [0,5]×[0,2]×[0,5], and a mixed one.
fn fixed_spaces() -> [SearchSpace; 2] {
    [
        SearchSpace::continuous(vec![0.0; 3], vec![5.0, 2.0, 5.0]).with_integrality(vec![true; 3]),
        SearchSpace::continuous(vec![-3.5, -2.0], vec![4.5, 2.0])
            .with_integrality(vec![true, false]),
    ]
}

#[test]
fn searches_answer_as_before() {
    // (method, space, seed) → (x, value, evaluations, iterations).
    #[rustfmt::skip]
    let expected: [(Method, usize, u64, &[f64], f64, usize, usize); 18] = [
        (Method::Pso, 0, 7, &[-0.0, -0.0, 2.0], 1.1535284777460029, 54, 8),
        (Method::Pso, 0, 11, &[-0.0, -0.0, 4.0], 3.887516659641353, 54, 8),
        (Method::Pso, 0, 2024, &[0.0, 1.0, 3.0], 1.152828068752282, 54, 8),
        (Method::Pso, 1, 7, &[-1.0, -0.3458612891156263], 0.6671413192104577, 54, 8),
        (Method::Pso, 1, 11, &[-1.0, 1.3642425238276845], -0.33329124539920035, 54, 8),
        (Method::Pso, 1, 2024, &[-1.0, 1.2411326415869226], -0.26765302101688987, 54, 8),
        (Method::De, 0, 7, &[0.0, 0.0, 2.0], 1.1535284777460029, 54, 8),
        (Method::De, 0, 11, &[0.0, 1.0, 3.0], 1.152828068752282, 54, 8),
        (Method::De, 0, 2024, &[2.0, 1.0, 3.0], 7.886356546498286, 54, 8),
        (Method::De, 1, 7, &[-1.0, -0.8045319769318101], 2.1486751175249243, 54, 8),
        (Method::De, 1, 11, &[-1.0, 1.1542148042231746], -0.15599318668065792, 54, 8),
        (Method::De, 1, 2024, &[-1.0, 1.3679752014436992], -0.33331878702363016, 54, 8),
        (Method::Sa, 0, 7, &[1.0, 2.0, 2.0], 4.320321485438638, 61, 60),
        (Method::Sa, 0, 11, &[0.0, 1.0, 3.0], 1.152828068752282, 61, 60),
        (Method::Sa, 0, 2024, &[0.0, 0.0, 2.0], 1.1535284777460029, 61, 60),
        (Method::Sa, 1, 7, &[-1.0, -0.8899739893691894], 2.6140261725994733, 61, 60),
        (Method::Sa, 1, 11, &[-1.0, -0.22922443175618848], 0.5942100484575, 61, 60),
        (Method::Sa, 1, 2024, &[-1.0, -0.9405974130060328], 2.907352180370319, 61, 60),
    ];
    for (method, si, seed, x, value, evaluations, iterations) in expected {
        let r = search(method, bumpy, &fixed_spaces()[si], seed);
        let got = (r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), r.value.to_bits());
        let want = (x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), value.to_bits());
        assert_eq!(got, want, "{method:?} over space {si}, seed {seed}: {r:?}");
        assert_eq!(
            (r.evaluations, r.iterations),
            (evaluations, iterations),
            "{method:?} {si} {seed}"
        );
    }
}
