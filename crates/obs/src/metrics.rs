//! Cumulative metrics registries.
//!
//! [`MetricsRegistry`] aggregates per-statement-shape execution
//! counters and per-solver telemetry across the lifetime of a session
//! (or, on the server, across all sessions — the registry is shared
//! through an `Arc`). [`SessionRegistry`] tracks live server sessions.
//! Both are read back through the `sdb_*` virtual tables.

use crate::hist::Histogram;
use crate::trace::SolverStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Cap on distinct statement shapes kept, to bound memory on adversarial
/// workloads. Once full, new shapes are dropped (existing keep updating).
const MAX_STATEMENT_SHAPES: usize = 10_000;

/// Cap on distinct pipeline-stage names kept. Stage names come from the
/// engine, not users, so this is a backstop rather than a likely limit.
const MAX_STAGE_NAMES: usize = 1_000;

/// Cumulative counters for one statement shape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatementStats {
    /// Number of completed executions (successful or not).
    pub calls: u64,
    /// Executions that returned an error.
    pub errors: u64,
    pub total_nanos: u64,
    pub min_nanos: u64,
    pub max_nanos: u64,
    /// Total rows returned across calls.
    pub rows: u64,
    /// Fingerprint of the optimized logical plan from the most recent
    /// execution whose body was one planned `SELECT` block; `None` when
    /// no recorded call had one (set operations, solves, DML).
    pub last_plan: Option<u64>,
    /// Executions served by the plan cache.
    pub cache_hits: u64,
    /// Cache-eligible executions that had to plan fresh.
    pub cache_misses: u64,
    /// Latency distribution across calls (p50/p95/p99 in
    /// `sdb_stat_statements` read from here).
    pub latency: Histogram,
}

/// Cumulative telemetry for one (solver, method) pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverAgg {
    pub runs: u64,
    pub total_nanos: u64,
    pub iterations: u64,
    pub nodes_explored: u64,
    pub nodes_pruned: u64,
    pub warm_starts: u64,
    pub cold_starts: u64,
    pub dual_pivots: u64,
    pub refactorizations: u64,
    pub evaluations: u64,
    pub distinct_evaluations: u64,
    pub restarts: u64,
    pub presolve_cols: u64,
    pub presolve_rows: u64,
    pub presolve_bounds: u64,
    pub last_objective: Option<f64>,
    /// Incumbent trajectory `(node index, objective)` of the most
    /// recent run that produced one (MIP solves). Empty otherwise.
    pub last_incumbents: Vec<(u64, f64)>,
    /// Independent matrix blocks of the most recent run (SD019's count
    /// at the solver level). Zero when unknown.
    pub blocks: u64,
    /// Row-class census of the most recent run that reported one.
    pub last_matrix_class: String,
    /// Integrality proof of the most recent run that reported one.
    pub last_integrality_proof: String,
}

#[derive(Debug, Default)]
struct MetricsInner {
    statements: HashMap<String, StatementStats>,
    solvers: HashMap<(String, String), SolverAgg>,
    /// Latency distribution per pipeline stage (`parse`, `plan`,
    /// `solve/compile`, `wal.append`, ... — slash-joined stage paths
    /// from the per-query trace trees).
    stages: HashMap<String, Histogram>,
    /// Plain work counters by name: the sums of the sessions' executor
    /// counters (`ExecCounts`) that `sdb_metrics` shows.
    counts: HashMap<&'static str, u64>,
}

/// Thread-safe cumulative metrics store.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsInner>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, MetricsInner> {
        // Metrics must never take the engine down: recover from poison.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record one statement execution under its canonical shape.
    pub fn record_statement(&self, shape: &str, nanos: u64, rows: u64, errored: bool) {
        self.record_statement_exec(shape, nanos, rows, errored, None, None);
    }

    /// Record one statement execution, noting the optimized-plan
    /// fingerprint when the planned executor ran it and its plan-cache
    /// outcome (`Some(true)` = hit, `Some(false)` = planned fresh, `None`
    /// = not cache-eligible).
    pub fn record_statement_exec(
        &self,
        shape: &str,
        nanos: u64,
        rows: u64,
        errored: bool,
        plan: Option<u64>,
        cache: Option<bool>,
    ) {
        let mut inner = self.lock();
        if !inner.statements.contains_key(shape) && inner.statements.len() >= MAX_STATEMENT_SHAPES {
            return;
        }
        let st = inner.statements.entry(shape.to_string()).or_default();
        st.calls += 1;
        if errored {
            st.errors += 1;
        }
        st.total_nanos += nanos;
        st.min_nanos = if st.calls == 1 { nanos } else { st.min_nanos.min(nanos) };
        st.max_nanos = st.max_nanos.max(nanos);
        st.rows += rows;
        if plan.is_some() {
            st.last_plan = plan;
        }
        match cache {
            Some(true) => st.cache_hits += 1,
            Some(false) => st.cache_misses += 1,
            None => {}
        }
        st.latency.record(nanos);
    }

    /// Record one timed pipeline-stage execution (`name` is the
    /// slash-joined stage path, e.g. `solve/compile`).
    pub fn record_stage(&self, name: &str, nanos: u64) {
        let mut inner = self.lock();
        if !inner.stages.contains_key(name) && inner.stages.len() >= MAX_STAGE_NAMES {
            return;
        }
        inner.stages.entry(name.to_string()).or_default().record(nanos);
    }

    /// Add `n` to the work counter `name`.
    pub fn add_count(&self, name: &'static str, n: u64) {
        *self.lock().counts.entry(name).or_default() += n;
    }

    /// The work counter `name`; 0 before it moved.
    pub fn count(&self, name: &str) -> u64 {
        self.lock().counts.get(name).copied().unwrap_or(0)
    }

    /// Record a whole trace tree: every stage (recursively, with
    /// slash-joined paths) lands in its own histogram.
    pub fn record_trace_stages(&self, trace: &crate::trace::QueryTrace) {
        fn walk(reg: &MetricsRegistry, prefix: &str, stages: &[crate::trace::Stage]) {
            for s in stages {
                let path =
                    if prefix.is_empty() { s.name.clone() } else { format!("{prefix}/{}", s.name) };
                reg.record_stage(&path, s.nanos);
                walk(reg, &path, &s.children);
            }
        }
        walk(self, "", &trace.stages);
    }

    /// Fold one solver invocation's telemetry into the aggregate.
    pub fn record_solver(&self, stats: &SolverStats, nanos: u64) {
        let mut inner = self.lock();
        let agg = inner.solvers.entry((stats.solver.clone(), stats.method.clone())).or_default();
        agg.runs += 1;
        agg.total_nanos += nanos;
        agg.iterations += stats.iterations;
        agg.nodes_explored += stats.nodes_explored;
        agg.nodes_pruned += stats.nodes_pruned;
        agg.warm_starts += stats.warm_starts;
        agg.cold_starts += stats.cold_starts;
        agg.dual_pivots += stats.dual_pivots;
        agg.refactorizations += stats.refactorizations;
        agg.evaluations += stats.evaluations;
        agg.distinct_evaluations += stats.distinct_evaluations;
        agg.restarts += stats.restarts;
        agg.presolve_cols += stats.presolve_cols;
        agg.presolve_rows += stats.presolve_rows;
        agg.presolve_bounds += stats.presolve_bounds;
        if stats.objective.is_some() {
            agg.last_objective = stats.objective;
        }
        if !stats.incumbents.is_empty() {
            agg.last_incumbents = stats.incumbents.clone();
        }
        if stats.blocks > 0 {
            agg.blocks = stats.blocks;
        }
        if !stats.matrix_class.is_empty() {
            agg.last_matrix_class = stats.matrix_class.clone();
        }
        if !stats.integrality_proof.is_empty() {
            agg.last_integrality_proof = stats.integrality_proof.clone();
        }
    }

    /// Snapshot of statement stats, sorted by total time descending.
    pub fn statements(&self) -> Vec<(String, StatementStats)> {
        let inner = self.lock();
        let mut v: Vec<_> = inner.statements.iter().map(|(k, s)| (k.clone(), s.clone())).collect();
        v.sort_by(|a, b| b.1.total_nanos.cmp(&a.1.total_nanos).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Snapshot of solver aggregates, sorted by (solver, method).
    pub fn solvers(&self) -> Vec<((String, String), SolverAgg)> {
        let inner = self.lock();
        let mut v: Vec<_> = inner.solvers.iter().map(|(k, s)| (k.clone(), s.clone())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Snapshot of per-stage latency histograms, sorted by stage path.
    pub fn stages(&self) -> Vec<(String, Histogram)> {
        let inner = self.lock();
        let mut v: Vec<_> = inner.stages.iter().map(|(k, h)| (k.clone(), h.clone())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// All statement latencies pooled into one distribution (the
    /// `/metrics` statement histogram).
    pub fn statement_latency(&self) -> Histogram {
        let inner = self.lock();
        let mut pooled = Histogram::new();
        for st in inner.statements.values() {
            pooled.merge(&st.latency);
        }
        pooled
    }
}

/// Live counters for one server session. Atomics so the I/O path can
/// bump bytes without locking.
#[derive(Debug)]
pub struct SessionCounters {
    pub id: u64,
    started: Instant,
    pub queries: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    /// Kill switch: set by `CANCEL <session>` (from any session), read
    /// cooperatively by the owning session's running solve at progress
    /// points.
    kill: AtomicBool,
}

impl SessionCounters {
    fn new(id: u64) -> SessionCounters {
        SessionCounters {
            id,
            started: Instant::now(),
            queries: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            kill: AtomicBool::new(false),
        }
    }

    /// Ask the session's running solve to stop at its next progress
    /// point.
    pub fn request_kill(&self) {
        self.kill.store(true, Ordering::SeqCst);
    }

    pub fn kill_requested(&self) -> bool {
        self.kill.load(Ordering::SeqCst)
    }

    /// Re-arm after a kill has been delivered, so the session stays
    /// usable for the next statement.
    pub fn clear_kill(&self) {
        self.kill.store(false, Ordering::SeqCst);
    }

    pub fn add_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    pub fn uptime_nanos(&self) -> u64 {
        (self.started.elapsed().as_nanos() as u64).max(1)
    }
}

/// Point-in-time view of one live session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    pub id: u64,
    pub uptime_nanos: u64,
    pub queries: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// True when a kill has been requested but not yet delivered.
    pub kill: bool,
}

/// Registry of live server sessions, keyed by session id.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: Mutex<HashMap<u64, Arc<SessionCounters>>>,
}

impl SessionRegistry {
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<SessionCounters>>> {
        self.sessions.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register a session and get its live counters.
    pub fn open(&self, id: u64) -> Arc<SessionCounters> {
        let counters = Arc::new(SessionCounters::new(id));
        self.lock().insert(id, Arc::clone(&counters));
        counters
    }

    /// Remove a closed session.
    pub fn close(&self, id: u64) {
        self.lock().remove(&id);
    }

    /// Look up a live session's counters (the `CANCEL` path).
    pub fn get(&self, id: u64) -> Option<Arc<SessionCounters>> {
        self.lock().get(&id).cloned()
    }

    /// Snapshot of all live sessions, ordered by id.
    pub fn snapshot(&self) -> Vec<SessionSnapshot> {
        let mut v: Vec<SessionSnapshot> = self
            .lock()
            .values()
            .map(|c| SessionSnapshot {
                id: c.id,
                uptime_nanos: c.uptime_nanos(),
                queries: c.queries.load(Ordering::Relaxed),
                bytes_in: c.bytes_in.load(Ordering::Relaxed),
                bytes_out: c.bytes_out.load(Ordering::Relaxed),
                kill: c.kill_requested(),
            })
            .collect();
        v.sort_by_key(|s| s.id);
        v
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_shape_aggregates_into_one_entry() {
        let m = MetricsRegistry::new();
        m.record_statement("SELECT ?", 100, 1, false);
        m.record_statement("SELECT ?", 300, 2, false);
        let stmts = m.statements();
        assert_eq!(stmts.len(), 1);
        let (shape, s) = &stmts[0];
        assert_eq!(shape, "SELECT ?");
        assert_eq!(s.calls, 2);
        assert_eq!(s.errors, 0);
        assert_eq!(s.total_nanos, 400);
        assert_eq!(s.min_nanos, 100);
        assert_eq!(s.max_nanos, 300);
        assert_eq!(s.rows, 3);
    }

    #[test]
    fn errors_are_counted_separately() {
        let m = MetricsRegistry::new();
        m.record_statement("SELECT ?", 50, 0, true);
        let (_, s) = &m.statements()[0];
        assert_eq!((s.calls, s.errors), (1, 1));
    }

    #[test]
    fn statements_sorted_by_total_time() {
        let m = MetricsRegistry::new();
        m.record_statement("fast", 10, 0, false);
        m.record_statement("slow", 1000, 0, false);
        let stmts = m.statements();
        assert_eq!(stmts[0].0, "slow");
        assert_eq!(stmts[1].0, "fast");
    }

    #[test]
    fn solver_aggregation_sums_counters() {
        let m = MetricsRegistry::new();
        let st = SolverStats {
            solver: "solverlp".into(),
            method: "mip".into(),
            iterations: 7,
            nodes_explored: 3,
            nodes_pruned: 1,
            objective: Some(2.0),
            ..SolverStats::default()
        };
        m.record_solver(&st, 500);
        m.record_solver(&st, 700);
        let solvers = m.solvers();
        assert_eq!(solvers.len(), 1);
        let ((name, method), agg) = &solvers[0];
        assert_eq!((name.as_str(), method.as_str()), ("solverlp", "mip"));
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.total_nanos, 1200);
        assert_eq!(agg.iterations, 14);
        assert_eq!(agg.nodes_explored, 6);
        assert_eq!(agg.last_objective, Some(2.0));
    }

    #[test]
    fn statement_latency_histogram_tracks_calls() {
        let m = MetricsRegistry::new();
        m.record_statement("SELECT ?", 1_000, 1, false);
        m.record_statement("SELECT ?", 3_000, 1, false);
        let (_, s) = &m.statements()[0];
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.latency.max(), 3_000);
        let pooled = m.statement_latency();
        assert_eq!(pooled.count(), 2);
    }

    #[test]
    fn stage_histograms_accumulate_by_path() {
        let m = MetricsRegistry::new();
        m.record_stage("solve", 500);
        m.record_stage("solve", 700);
        m.record_stage("parse", 10);
        let stages = m.stages();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].0, "parse");
        assert_eq!(stages[1].0, "solve");
        assert_eq!(stages[1].1.count(), 2);
    }

    #[test]
    fn trace_stages_record_recursively_with_paths() {
        let t = crate::Trace::new("");
        {
            let _outer = t.span("solve");
            t.record("compile", 42);
        }
        let qt = t.finish();
        let m = MetricsRegistry::new();
        m.record_trace_stages(&qt);
        let stages = m.stages();
        let names: Vec<&str> = stages.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["solve", "solve/compile"]);
    }

    #[test]
    fn incumbent_trajectory_survives_aggregation() {
        let m = MetricsRegistry::new();
        let st = SolverStats {
            solver: "solverlp".into(),
            method: "bb".into(),
            incumbents: vec![(3, 4.0), (9, 2.5)],
            ..SolverStats::default()
        };
        m.record_solver(&st, 100);
        // A later run without incumbents must not erase the trajectory.
        let bare = SolverStats {
            solver: "solverlp".into(),
            method: "bb".into(),
            ..SolverStats::default()
        };
        m.record_solver(&bare, 100);
        let (_, agg) = &m.solvers()[0];
        assert_eq!(agg.last_incumbents, vec![(3, 4.0), (9, 2.5)]);
    }

    #[test]
    fn kill_flag_round_trips_through_registry() {
        let r = SessionRegistry::new();
        let _c = r.open(5);
        assert!(!r.snapshot()[0].kill);
        r.get(5).unwrap().request_kill();
        assert!(r.snapshot()[0].kill);
        assert!(r.get(5).unwrap().kill_requested());
        r.get(5).unwrap().clear_kill();
        assert!(!r.get(5).unwrap().kill_requested());
        assert!(r.get(99).is_none());
    }

    #[test]
    fn session_registry_tracks_open_and_close() {
        let r = SessionRegistry::new();
        let c = r.open(7);
        c.add_query();
        c.add_bytes_in(10);
        c.add_bytes_out(20);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].id, 7);
        assert_eq!(snap[0].queries, 1);
        assert_eq!(snap[0].bytes_in, 10);
        assert_eq!(snap[0].bytes_out, 20);
        assert!(snap[0].uptime_nanos >= 1);
        r.close(7);
        assert!(r.is_empty());
    }
}
