//! The solver framework: the [`Solver`] trait and the registry through
//! which `USING solver.method(...)` resolves (paper §4.1, RC3's
//! extensibility).

use crate::compile::CompiledModel;
use parking_lot::RwLock;
use sqlengine::catalog::{Ctes, Database};
use sqlengine::error::{Error, Result};
use sqlengine::hash::FastMap;
use sqlengine::table::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a cooperative solve was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The per-session wall-clock budget (`SET solver_timeout_ms` or the
    /// server default) ran out.
    Timeout { budget_ms: u64 },
    /// Another session requested the kill via `CANCEL <session>`.
    Cancelled,
}

impl AbortReason {
    /// Human-readable phrase used in `SolveTimeout` error messages.
    pub fn describe(&self) -> String {
        match self {
            AbortReason::Timeout { budget_ms } => {
                format!("solver wall-clock budget of {budget_ms} ms exceeded")
            }
            AbortReason::Cancelled => "solve cancelled by CANCEL".to_string(),
        }
    }
}

/// Minimum interval between two progress events handed to the sink, so
/// tight solver loops cannot flood a network connection or terminal.
const PROGRESS_MIN_INTERVAL: Duration = Duration::from_millis(100);

/// The solver watchdog: a wall-clock budget, a cooperative kill flag
/// and a throttled progress sink, checked by solvers at their natural
/// progress points (B&B node batches, metaheuristic iterations).
pub struct SolveControl {
    start: Instant,
    budget_ms: Option<u64>,
    kill: Option<Arc<obs::SessionCounters>>,
    sink: Option<Arc<dyn Fn(&obs::ProgressEvent) + Send + Sync>>,
    /// Elapsed nanos at the last emitted event (throttle state).
    last_emit_nanos: AtomicU64,
}

impl SolveControl {
    /// Build the watchdog from the session's database handle. Returns
    /// `None` when no budget, kill flag or sink is attached — solvers
    /// then run exactly as before, with zero per-iteration overhead.
    pub fn from_db(db: &Database) -> Option<SolveControl> {
        let budget_ms = db.solver_timeout_ms();
        let kill = db.own_counters().cloned();
        let sink = db.progress_sink().cloned();
        if budget_ms.is_none() && kill.is_none() && sink.is_none() {
            return None;
        }
        Some(SolveControl {
            start: Instant::now(),
            budget_ms,
            kill,
            sink,
            last_emit_nanos: AtomicU64::new(0),
        })
    }

    /// Time since the solve started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Check the kill flag and the wall-clock budget.
    pub fn should_stop(&self) -> Option<AbortReason> {
        if let Some(k) = &self.kill {
            if k.kill_requested() {
                return Some(AbortReason::Cancelled);
            }
        }
        if let Some(ms) = self.budget_ms {
            if self.start.elapsed() >= Duration::from_millis(ms) {
                return Some(AbortReason::Timeout { budget_ms: ms });
            }
        }
        None
    }

    /// Acknowledge a cancel: clear the kill flag so the session stays
    /// usable after the aborted statement returns its error.
    pub fn acknowledge_abort(&self, reason: AbortReason) {
        if reason == AbortReason::Cancelled {
            if let Some(k) = &self.kill {
                k.clear_kill();
            }
        }
    }

    /// Offer one progress snapshot. The event reaches the sink at most
    /// once per `PROGRESS_MIN_INTERVAL`; `elapsed_nanos` is filled in
    /// here. Returns `true` while the solve may continue.
    pub fn tick(&self, mut ev: obs::ProgressEvent) -> bool {
        if let Some(sink) = &self.sink {
            let nanos = self.start.elapsed().as_nanos() as u64;
            let last = self.last_emit_nanos.load(Ordering::Relaxed);
            if nanos.saturating_sub(last) >= PROGRESS_MIN_INTERVAL.as_nanos() as u64 {
                self.last_emit_nanos.store(nanos, Ordering::Relaxed);
                ev.elapsed_nanos = nanos;
                sink(&ev);
            }
        }
        self.should_stop().is_none()
    }
}

/// Execution context handed to solvers: catalog access plus the CTE
/// environment the `SOLVESELECT` ran under, the trace of the thread the
/// solve runs on (when instrumented; a worker's own, which the
/// statement's trace [adopts](obs::Trace::adopt)) into which solvers
/// record sub-stages and [`obs::SolverStats`] telemetry, the optional
/// watchdog ([`SolveControl`]) solvers poll at progress points, and the
/// statement's rules as compiled once before the solver was called.
pub struct SolveContext<'a> {
    pub db: &'a Database,
    pub ctes: &'a Ctes,
    pub trace: Option<&'a obs::Trace>,
    pub control: Option<&'a SolveControl>,
    pub model: &'a CompiledModel,
}

impl SolveContext<'_> {
    /// Report solver telemetry, if a trace is recording.
    pub fn report(&self, stats: obs::SolverStats) {
        if let Some(t) = self.trace {
            t.solver(stats);
        }
    }

    /// Time a sub-stage of the solve, if a trace is recording.
    pub fn stage<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        obs::trace::span_time(self.trace, name, f)
    }

    /// Offer a progress snapshot to the watchdog; `true` means keep
    /// going. With no watchdog attached this is a no-op returning
    /// `true`.
    pub fn progress(&self, ev: obs::ProgressEvent) -> bool {
        match self.control {
            Some(c) => c.tick(ev),
            None => true,
        }
    }

    /// Why the watchdog wants the solve stopped, if it does.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.control.and_then(|c| c.should_stop())
    }

    /// Build the `SolveTimeout` error for an interrupted solve,
    /// attaching the incumbent trajectory collected so far and clearing
    /// the kill flag so the session remains usable.
    pub fn abort_error(&self, incumbents: &[(u64, f64)]) -> Error {
        let reason = self.abort_reason().unwrap_or(AbortReason::Cancelled);
        if let Some(c) = self.control {
            c.acknowledge_abort(reason);
        }
        let mut msg = reason.describe();
        if incumbents.is_empty() {
            msg.push_str("; no incumbent found yet");
        } else {
            let traj: Vec<String> =
                incumbents.iter().map(|&(at, obj)| format!("{obj}@{at}")).collect();
            msg.push_str(&format!("; incumbents=[{}]", traj.join(", ")));
        }
        Error::solve_timeout(msg)
    }
}

/// A SolveDB+ solver. A solver reads the statement's model on
/// [`SolveContext::model`] — the problem instance (materialized
/// relations, rules, parameters) at `ctx.model.prob`, and its rules as
/// compiled once — and returns the output relation in the schema of the
/// input relation.
pub trait Solver: Send + Sync {
    /// Registry name (`USING <name>`).
    fn name(&self) -> &str;

    /// Supported method names (`USING name.<method>`); empty = any.
    fn methods(&self) -> Vec<&str> {
        vec![]
    }

    /// Solve and produce the output relation.
    fn solve(&self, ctx: &SolveContext<'_>) -> Result<Table>;
}

/// Thread-safe solver registry.
#[derive(Default)]
pub struct SolverRegistry {
    solvers: RwLock<FastMap<String, Arc<dyn Solver>>>,
}

impl SolverRegistry {
    pub fn new() -> SolverRegistry {
        SolverRegistry::default()
    }

    /// Install (or replace) a solver — the `CREATE SOLVER` analogue.
    pub fn register(&self, solver: Arc<dyn Solver>) {
        self.solvers.write().insert(solver.name().to_string(), solver);
    }

    pub fn get(&self, name: &str) -> Result<Arc<dyn Solver>> {
        self.solvers.read().get(name).cloned().ok_or_else(|| {
            Error::solver(format!(
                "no solver named '{name}' is installed (available: {})",
                self.names().join(", ")
            ))
        })
    }

    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.solvers.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Validate a method name against the solver's declared methods.
    pub fn check_method(solver: &dyn Solver, method: &Option<String>) -> Result<()> {
        if let Some(m) = method {
            let methods = solver.methods();
            if !methods.is_empty() && !methods.iter().any(|x| x == m) {
                return Err(Error::solver(format!(
                    "solver '{}' has no method '{m}' (methods: {})",
                    solver.name(),
                    methods.join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl Solver for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn methods(&self) -> Vec<&str> {
            vec!["fast", "slow"]
        }
        fn solve(&self, ctx: &SolveContext<'_>) -> Result<Table> {
            Ok(Table::clone(ctx.model.prob.relations[0].table()?))
        }
    }

    #[test]
    fn register_and_lookup() {
        let reg = SolverRegistry::new();
        reg.register(Arc::new(Dummy));
        assert!(reg.get("dummy").is_ok());
        let err = match reg.get("nope") {
            Err(e) => e,
            Ok(_) => panic!("expected error"),
        };
        assert!(err.to_string().contains("dummy"));
        assert_eq!(reg.names(), vec!["dummy"]);
    }

    #[test]
    fn method_validation() {
        let d = Dummy;
        assert!(SolverRegistry::check_method(&d, &None).is_ok());
        assert!(SolverRegistry::check_method(&d, &Some("fast".into())).is_ok());
        assert!(SolverRegistry::check_method(&d, &Some("warp".into())).is_err());
    }
}
