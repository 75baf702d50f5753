//! The run loop every workload shares: set up (several times, so the
//! set-up time is a median), warm up, run whole passes over the
//! workload's ring of ops for about `--seconds`, verify, and assemble
//! the metrics.
//!
//! A *ring* is the seeded list of distinct ops a workload generates at
//! set-up. A run always executes whole passes over it, so the sample is
//! the same population of inputs however fast the program is, and every
//! count the program reports for the first pass repeats exactly.

use crate::spans::{Span, Tracer};
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Metric values by name; names and units live in [`crate::spec`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// 64-bit FNV-1a over the generated inputs and statement texts.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The SplitMix64 output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed of ring entry `k` from the run's seed.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    mix(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k.wrapping_add(1) << 1))
}

/// The benchmark's own generator (SplitMix64), for choices the program's
/// `datagen` does not make: subsets, literals, statement mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct values of `0..n`, in draw order (partial shuffle).
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// The reference box is a small virtual machine whose speed changes
/// under the benchmark's feet: solving one LP back to back for seven
/// minutes took 12.8 ms at the median but 20 ms or more in a tenth of
/// all 0.3 s windows, and whole runs an hour apart differed by 25 %. No
/// bound could absorb that, so two small kernels of the benchmark's own
/// are timed beside the ops and op times are divided by their slowdown.
///
/// The kernels were chosen by how well they follow real ops through
/// those episodes (correlation of window medians over seven minutes):
/// Gaussian elimination with partial pivoting on a 96x96 matrix
/// (branches, floating point, 72 KiB; 0.95 with the LP, 0.94 with a SQL
/// join) and inserting into a binary search tree held in a vector
/// (pointer chasing, no allocation; 0.90 / 0.94). Their mean slowdown
/// leaves 4.7 % (LP) and 3.4 % (SQL) of the 16 % and 14 % window-to-
/// window variation. Tight arithmetic loops and cache-walking kernels
/// do not slow down with the ops and are useless for this. Each sample
/// runs the kernels once untimed first, so that it does not depend on
/// how much of the cache, or of the heap, the op before it used.
///
/// Bounded timings are thus reported *at nominal speed*: in milliseconds
/// of a box on which the two kernels take their nominal times below. On
/// the reference box, when quiet, nominal and wall-clock milliseconds
/// agree. Per-layer timings stay as measured, next to `box.slowdown`.
pub struct Calibrator {
    matrix: Vec<f64>,
    work: Vec<f64>,
    /// Search-tree nodes: (key, left, right, payload); 0 = no child.
    nodes: Vec<(u64, u32, u32, u64)>,
}

const GAUSS_N: usize = 96;
/// What the kernels take on the quiet reference box, in ms.
const GAUSS_NOMINAL_MS: f64 = 0.094;
const TREE_NOMINAL_MS: f64 = 0.233;
const TREE_INSERTS: u64 = 3000;

impl Default for Calibrator {
    fn default() -> Self {
        let n = GAUSS_N;
        let matrix = (0..n * n)
            .map(|i| ((i * 7919) % 1009) as f64 / 1009.0 + if i % (n + 1) == 0 { 2.0 } else { 0.0 })
            .collect();
        Calibrator { matrix, work: vec![0.0; n * n], nodes: Vec::with_capacity(4096) }
    }
}

impl Calibrator {
    /// Determinant by Gaussian elimination with partial pivoting.
    fn gauss(&mut self) -> f64 {
        let (n, w) = (GAUSS_N, &mut self.work);
        w.copy_from_slice(&self.matrix);
        let mut det = 1.0;
        for k in 0..n {
            let mut pivot = k;
            for i in k + 1..n {
                if w[i * n + k].abs() > w[pivot * n + k].abs() {
                    pivot = i;
                }
            }
            if pivot != k {
                for j in 0..n {
                    w.swap(k * n + j, pivot * n + j);
                }
                det = -det;
            }
            let d = w[k * n + k];
            det *= d;
            for i in k + 1..n {
                let f = w[i * n + k] / d;
                if f != 0.0 {
                    for j in k..n {
                        w[i * n + j] -= f * w[k * n + j];
                    }
                }
            }
        }
        det
    }

    /// Insert xorshift keys into an unbalanced binary search tree.
    fn tree(&mut self) -> u64 {
        let nodes = &mut self.nodes;
        nodes.clear();
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..TREE_INSERTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 4096;
            if nodes.is_empty() {
                nodes.push((key, 0, 0, x));
                continue;
            }
            let mut at = 0usize;
            loop {
                let (k, left, right, _) = nodes[at];
                if key == k {
                    nodes[at].3 = nodes[at].3.wrapping_add(x);
                    break;
                }
                let next = if key < k { left } else { right };
                if next == 0 {
                    let id = nodes.len() as u32;
                    nodes.push((key, 0, 0, x));
                    if key < k {
                        nodes[at].1 = id;
                    } else {
                        nodes[at].2 = id;
                    }
                    break;
                }
                at = next as usize;
            }
        }
        nodes.iter().fold(0u64, |h, n| h.wrapping_add(n.0 ^ n.3))
    }

    /// Run both kernels untimed, then time them (about 0.7 ms in all):
    /// the box's slowdown right now, 1 = nominal speed.
    pub fn sample(&mut self) -> f64 {
        std::hint::black_box(self.gauss());
        std::hint::black_box(self.tree());
        let t = Instant::now();
        std::hint::black_box(self.gauss());
        let gauss_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        std::hint::black_box(self.tree());
        let tree_ms = t.elapsed().as_secs_f64() * 1e3;
        (gauss_ms / GAUSS_NOMINAL_MS + tree_ms / TREE_NOMINAL_MS) / 2.0
    }

    /// Median of a few samples.
    pub fn slowdown(&mut self) -> f64 {
        let samples: Vec<f64> = (0..5).map(|_| self.sample()).collect();
        stats::median(&samples)
    }
}

/// Latencies and failures of the ops run so far.
pub struct Recorder {
    /// One entry per op: (ring index, pass, milliseconds at nominal
    /// speed). Filled by [`Recorder::settle`].
    pub ops: Vec<(usize, usize, f64)>,
    /// The same ops' times as measured, in the same order.
    pub raw_ms: Vec<f64>,
    pub failed: u64,
    /// Latencies of op classes (read/write/solve/conn_open), in ms, as
    /// measured.
    pub classes: BTreeMap<&'static str, Vec<f64>>,
    /// What went wrong, for the operator (first few only).
    pub complaints: Vec<String>,
    /// Slowdown samples taken beside the ops (1 = nominal speed).
    pub calibration: Vec<f64>,
    calibrator: Calibrator,
    /// Ops between two calibration samples.
    every: usize,
    /// Ops since the last sample.
    since_sample: usize,
    /// Ops not yet settled: (ring index, pass, ms as measured, index of
    /// the sample taken before the op's interval).
    open: Vec<(usize, usize, f64, usize)>,
}

impl Default for Recorder {
    /// Calibrates around every op: for ops of milliseconds and more.
    fn default() -> Self {
        Recorder::calibrating_every(1)
    }
}

impl Recorder {
    /// A recorder that takes a calibration sample every `every` ops; ops
    /// much shorter than a sample share one interval.
    pub fn calibrating_every(every: usize) -> Recorder {
        Recorder {
            ops: Vec::new(),
            raw_ms: Vec::new(),
            failed: 0,
            classes: BTreeMap::new(),
            complaints: Vec::new(),
            calibration: Vec::new(),
            calibrator: Calibrator::default(),
            every: every.max(1),
            since_sample: 0,
            open: Vec::new(),
        }
    }

    /// Take a calibration sample: call before the first op of a pass.
    pub fn start(&mut self) {
        let slowdown = self.calibrator.sample();
        self.calibration.push(slowdown);
        self.since_sample = 0;
    }

    /// Scale every op recorded since the last call by the box's slowdown
    /// around it: the median of the two samples before and the two after
    /// the op's interval, so that a hiccup inside one sample moves
    /// nothing. Call at the end of a pass.
    pub fn settle(&mut self) {
        if self.open.is_empty() {
            return;
        }
        if self.since_sample > 0 || self.calibration.is_empty() {
            self.start();
        }
        let last = self.calibration.len() - 1;
        for (index, pass, ms, before) in self.open.drain(..) {
            let around = &self.calibration[before.saturating_sub(1)..=(before + 2).min(last)];
            self.ops.push((index, pass, ms / stats::median(around)));
            self.raw_ms.push(ms);
        }
    }

    /// Record one op. A failed or wrong-answer op stays in the latency
    /// statistics at its elapsed time and counts as failed.
    pub fn op(&mut self, index: usize, pass: usize, ms: f64, verdict: Result<(), String>) {
        if self.calibration.is_empty() {
            self.start();
        }
        self.open.push((index, pass, ms, self.calibration.len() - 1));
        self.since_sample += 1;
        if self.since_sample >= self.every {
            self.start();
        }
        if let Err(why) = verdict {
            self.fail(why);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.complain(why);
    }

    pub fn complain(&mut self, why: String) {
        if self.complaints.len() < 8 {
            self.complaints.push(why);
        }
    }

    pub fn class(&mut self, name: &'static str, ms: f64) {
        self.classes.entry(name).or_default().push(ms);
    }

    /// Take over what another thread's recorder collected.
    pub fn merge(&mut self, mut other: Recorder) {
        other.settle();
        self.ops.extend(other.ops);
        self.raw_ms.extend(other.raw_ms);
        self.calibration.extend(other.calibration);
        self.failed += other.failed;
        for (k, v) in other.classes {
            self.classes.entry(k).or_default().extend(v);
        }
        for c in other.complaints {
            self.complain(c);
        }
    }
}

/// One workload, set up for one seed.
pub trait Workload {
    /// One un-timed op, so caches fill and lazy set-up finishes.
    fn warm_up(&mut self) -> Result<(), String>;

    /// Closed-loop clients running side by side.
    fn clients(&self) -> usize {
        1
    }

    /// Run every op of the ring once, timing and checking each.
    fn pass(&mut self, pass: usize, tracer: &Tracer, rec: &mut Recorder);

    /// Checks on the end state (durability, row counts), and the layer
    /// metrics only the end state gives. Stops whatever the workload
    /// started.
    fn finish(&mut self, rec: &mut Recorder, m: &mut Metrics);

    /// Counts the program itself reported during the first pass.
    fn program_counts(&self, _m: &mut Metrics) {}

    /// Layer probes for the traced run: outside-timed calls into single
    /// layers, once per distinct statement.
    fn probes(&mut self, _tracer: &Tracer, _m: &mut Metrics) -> Result<(), String> {
        Ok(())
    }
}

pub struct Built {
    pub workload: Box<dyn Workload>,
    pub digest: u64,
    /// Time spent in the generators alone.
    pub gen_ms: f64,
}

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes: small rings, one set-up.
    pub quick: bool,
}

#[derive(Debug)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub digest: u64,
    pub passes: usize,
    pub complaints: Vec<String>,
    pub spans: Vec<Span>,
}

/// How often a run sets up, so `setup_s` is a median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;

pub fn run(
    opts: &RunOptions,
    build: impl Fn(&RunOptions) -> Result<Built, String>,
) -> Result<RunOutput, String> {
    let origin = Instant::now();
    let mut setup_s = Vec::new();
    let mut rec = Recorder::default();
    let mut box_speed = Calibrator::default();
    // At least three set-ups; cheap ones repeat for half a second (up to
    // fifteen times), so that a set-up of milliseconds has a steady
    // median too. Smoke runs set up once.
    let Built { mut workload, digest, gen_ms } = loop {
        let before = box_speed.slowdown();
        let t = Instant::now();
        let mut b = build(opts)?;
        b.workload.warm_up()?;
        let raw = t.elapsed().as_secs_f64();
        setup_s.push(raw / ((before + box_speed.slowdown()) / 2.0));
        let done = setup_s.len();
        if opts.quick
            || (done >= MIN_SETUPS && (done >= MAX_SETUPS || origin.elapsed().as_secs_f64() > 0.5))
        {
            break b;
        }
        b.workload.finish(&mut Recorder::default(), &mut Metrics::new());
    };
    if let Some(pinned) =
        crate::spec::pinned_digest(&opts.workload, opts.seed).filter(|_| !opts.quick)
    {
        if pinned != digest {
            rec.fail(format!("input digest {digest:016x} differs from the pinned {pinned:016x}"));
        }
    }

    // Whole passes only. The traced run spends half its time on passes
    // (the first untraced, as the reference for the tracing overhead)
    // and the rest on layer probes.
    let tracer = Tracer::new(origin);
    let started = Instant::now();
    rec.start();
    workload.pass(0, &tracer, &mut rec);
    rec.settle();
    let first = started.elapsed().as_secs_f64();
    // Before later passes grow the heap: the peak then does not depend
    // on how many passes fit.
    let peak_rss = peak_rss_mb();
    let budget = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut passes = ((budget / first.max(1e-9)).round() as usize).max(1);
    if opts.trace {
        passes = passes.max(2);
        tracer.set_enabled(true);
    }
    for p in 1..passes {
        rec.start();
        workload.pass(p, &tracer, &mut rec);
        rec.settle();
    }

    let mut m = Metrics::new();
    if opts.trace {
        workload.program_counts(&mut m);
        m.insert("datagen.gen_ms", gen_ms);
        if let Err(why) = workload.probes(&tracer, &mut m) {
            rec.fail(format!("probe: {why}"));
        }
    }
    workload.finish(&mut rec, &mut m);

    let spans = tracer.into_spans();
    let all: Vec<f64> = rec.ops.iter().map(|o| o.2).collect();
    let (tail_pct, tail) = stats::tail(&all);
    let attempted = all.len() as u64;
    if opts.trace {
        m.insert("op.tail_ms", tail);
        m.insert("op.tail_pct", tail_pct);
        m.insert("op.samples", attempted as f64);
        m.insert("op.passes", passes as f64);
        m.insert("op.fail_share", rec.failed as f64 / attempted.max(1) as f64);
        m.insert("op.raw_p50_ms", stats::median(&rec.raw_ms));
        m.insert("box.slowdown", stats::median(&rec.calibration));
        m.insert("obs.trace_overhead_share", trace_overhead(&rec.ops));
        for (class, ms) in &rec.classes {
            class_metrics(class, ms, &mut m);
        }
        // Self time per layer boundary, per traced op.
        let traced_ops = rec.ops.iter().filter(|o| o.1 >= 1).count().max(1) as f64;
        let totals = crate::spans::totals(&spans);
        for (span, metric) in [
            ("sqlengine.parser", "span.parser_self_ms"),
            ("core.session", "span.session_self_ms"),
            ("server.client", "span.client_self_ms"),
            ("server.connect", "span.connect_self_ms"),
            ("op", "span.op_self_ms"),
        ] {
            if let Some(t) = totals.get(span) {
                m.insert(metric, t.self_ns as f64 / 1e6 / traced_ops);
            }
        }
    } else {
        // Each op's median time over the passes: what is left of the
        // box's hiccups after calibration. In a closed loop of c clients
        // throughput is c over the mean latency; the mean is taken over
        // those medians too.
        let typical = typical_per_op(&rec.ops);
        let busy_s = typical.iter().sum::<f64>() / 1e3 / workload.clients() as f64;
        m.insert("op_p50_ms", stats::median(&typical));
        m.insert("ops_per_s", typical.len() as f64 / busy_s.max(1e-9));
        m.insert("setup_s", stats::median(&setup_s));
        m.insert("peak_rss_mb", peak_rss);
    }
    Ok(RunOutput {
        correct: rec.failed == 0,
        attempted,
        failed: rec.failed,
        metrics: m,
        digest,
        passes,
        complaints: rec.complaints,
        spans,
    })
}

/// Each ring entry's median time over the passes, in ring order. The
/// median, not the minimum: a hiccup in an op makes its time too long,
/// one in a calibration sample makes it too short.
fn typical_per_op(ops: &[(usize, usize, f64)]) -> Vec<f64> {
    let mut by_entry: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(i, _, ms) in ops {
        by_entry.entry(i).or_default().push(ms);
    }
    by_entry.values().map(|ms| stats::median(ms)).collect()
}

/// Median over the ring of (traced pass 1 / untraced pass 0) − 1: the
/// same op on the same input, with and without span recording.
fn trace_overhead(ops: &[(usize, usize, f64)]) -> f64 {
    let mut base: BTreeMap<usize, f64> = BTreeMap::new();
    let mut ratios = Vec::new();
    for &(i, pass, ms) in ops {
        match pass {
            0 => {
                base.insert(i, ms);
            }
            1 => {
                if let Some(b) = base.get(&i).filter(|b| **b > 0.0) {
                    ratios.push(ms / b - 1.0);
                }
            }
            _ => {}
        }
    }
    stats::median(&ratios)
}

fn class_metrics(class: &str, ms: &[f64], m: &mut Metrics) {
    let s = stats::sorted(ms);
    let q = |p: f64| stats::quantile(&s, p);
    match class {
        "read" => {
            m.insert("read_p50_ms", q(0.5));
            m.insert("read_p90_ms", q(0.9));
            m.insert("server.read_p99_ms", q(0.99));
        }
        "write" => {
            m.insert("write_p50_ms", q(0.5));
            m.insert("server.write_p99_ms", q(0.99));
        }
        "solve" => {
            m.insert("solve_p50_ms", q(0.5));
            m.insert("server.solve_p90_ms", q(0.9));
        }
        "conn_open" => {
            m.insert("conn_open_p50_ms", q(0.5));
            m.insert("server.conn_open_p90_us", q(0.9) * 1e3);
        }
        _ => {}
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB. Each workload
/// runs in a process of its own, so this is per workload.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f` in milliseconds.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.str("SELECT 1");
        a.f64(1.5);
        a.i64(-3);
        let mut b = Digest::default();
        b.str("SELECT 1");
        b.f64(1.5);
        b.i64(-3);
        assert_eq!(a.finish(), b.finish());
        let mut c = Digest::default();
        c.f64(1.5);
        c.str("SELECT 1");
        c.i64(-3);
        assert_ne!(a.finish(), c.finish());
        // FNV-1a offset basis for the empty input.
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn derived_seeds_differ() {
        let s: Vec<u64> = (0..100).map(|k| derive_seed(1, k)).collect();
        let mut u = s.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 100);
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn typical_per_op_takes_each_entrys_median() {
        let ops = vec![(0, 0, 10.0), (1, 0, 20.0), (0, 1, 9.0), (1, 1, 22.0), (0, 2, 30.0)];
        assert_eq!(typical_per_op(&ops), vec![10.0, 21.0]);
    }

    #[test]
    fn settling_scales_ops_by_the_samples_around_them() {
        let mut rec = Recorder::default();
        rec.start();
        rec.op(0, 0, 10.0, Ok(()));
        rec.op(1, 0, 20.0, Err("wrong".into()));
        rec.settle();
        assert_eq!((rec.ops.len(), rec.raw_ms.as_slice(), rec.failed), (2, &[10.0, 20.0][..], 1));
        // One sample before the pass, one after each op.
        assert_eq!(rec.calibration.len(), 3);
        let ratio = rec.ops[0].2 / 10.0;
        assert!(ratio > 0.05 && ratio < 20.0, "slowdown out of any plausible range: {ratio}");
    }

    #[test]
    fn overhead_pairs_passes_by_ring_index() {
        let ops = vec![(0, 0, 10.0), (1, 0, 20.0), (0, 1, 11.0), (1, 1, 22.0), (0, 2, 99.0)];
        assert!((trace_overhead(&ops) - 0.1).abs() < 1e-12);
    }
}
