//! Live solve-progress events.
//!
//! A running solver emits [`ProgressEvent`]s at bounded intervals
//! through its `SolveContext` (the core crate throttles emission and
//! checks the watchdog at the same points). Consumers are the server —
//! which streams them to v4 clients as `PROGRESS` frames — and the CLI
//! status line. The struct is plain data so it can cross the wire.

/// A point-in-time snapshot of a running solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgressEvent {
    /// Solver name (e.g. `solverlp`, `swarmops`).
    pub solver: String,
    /// Method within the solver (e.g. `bb`, `simplex`, `pso`).
    pub method: String,
    /// Wall-clock nanoseconds since the solve stage started.
    pub elapsed_nanos: u64,
    /// MIP branch-and-bound nodes explored so far (0 for non-MIP).
    pub nodes: u64,
    /// Innermost-method iterations so far (simplex pivots, PSO/SA/DE
    /// outer iterations).
    pub iterations: u64,
    /// Fitness/model evaluations so far (derivative-free solvers).
    pub evaluations: u64,
    /// Best feasible objective found so far, in the problem's own
    /// optimization sense.
    pub incumbent: Option<f64>,
    /// Best proven bound (MIP), when the solver tracks one.
    pub best_bound: Option<f64>,
}

impl ProgressEvent {
    /// Fitness evaluations per second of solve time so far — what one
    /// candidate costs, the other way up; `None` before the first one.
    pub fn evals_per_s(&self) -> Option<f64> {
        (self.evaluations > 0 && self.elapsed_nanos > 0)
            .then(|| self.evaluations as f64 * 1e9 / self.elapsed_nanos as f64)
    }

    /// One-line human rendering, used by the CLI status line.
    pub fn render(&self) -> String {
        let secs = self.elapsed_nanos as f64 / 1e9;
        let mut s = format!("[{} {}] {:.1}s", self.solver, self.method, secs);
        if self.nodes > 0 {
            s.push_str(&format!("  nodes={}", self.nodes));
        }
        if self.iterations > 0 {
            s.push_str(&format!("  iters={}", self.iterations));
        }
        if self.evaluations > 0 {
            s.push_str(&format!("  evals={}", self.evaluations));
        }
        if let Some(rate) = self.evals_per_s() {
            s.push_str(&format!("  evals/s={rate:.0}"));
        }
        if let Some(inc) = self.incumbent {
            s.push_str(&format!("  incumbent={inc}"));
        }
        if let Some(b) = self.best_bound {
            s.push_str(&format!("  bound={b}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_only_populated_counters() {
        let ev = ProgressEvent {
            solver: "solverlp".into(),
            method: "bb".into(),
            elapsed_nanos: 2_500_000_000,
            nodes: 42,
            iterations: 900,
            incumbent: Some(7.5),
            ..ProgressEvent::default()
        };
        let line = ev.render();
        assert!(line.starts_with("[solverlp bb] 2.5s"), "{line}");
        assert!(line.contains("nodes=42"));
        assert!(line.contains("iters=900"));
        assert!(line.contains("incumbent=7.5"));
        assert!(!line.contains("evals"));
        assert!(!line.contains("bound="));
        let fit = ProgressEvent { evaluations: 500, ..ev };
        assert!(fit.render().contains("evals=500  evals/s=200"), "{}", fit.render());
    }
}
