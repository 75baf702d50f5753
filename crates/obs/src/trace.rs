//! Per-query stage tracing.
//!
//! A [`Trace`] is a cheap span recorder owned by the thread that
//! records into it: code opens nested [`Span`] guards (closed on drop),
//! annotates them with row counts or notes, and reports [`SolverStats`]
//! from inside a solve. Work moved to another thread records into a
//! trace of its own, which the statement's trace takes in with
//! [`Trace::adopt`]. [`Trace::finish`] freezes the recording into a
//! [`QueryTrace`] — a plain tree of [`Stage`]s plus the solver
//! telemetry — which is what travels to clients, renders in
//! `EXPLAIN ANALYZE`, and feeds the metrics registry.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed stage in the query lifecycle, possibly with children.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Stage {
    /// Stage name, e.g. `parse`, `plan`, `rewrite`, `instantiate`,
    /// `solve`, `post-process`.
    pub name: String,
    /// Wall-clock time spent in this stage (including children),
    /// clamped to at least 1 ns so a recorded stage is never "free".
    pub nanos: u64,
    /// Rows produced/materialized by this stage, when meaningful.
    pub rows: Option<u64>,
    /// Free-form key/value annotations (solver name, model counts, ...).
    pub meta: Vec<(String, String)>,
    /// Nested sub-stages, in execution order.
    pub children: Vec<Stage>,
}

impl Stage {
    /// A leaf stage with a pre-measured duration.
    pub fn leaf(name: &str, nanos: u64) -> Stage {
        Stage { name: name.to_string(), nanos: nanos.max(1), ..Stage::default() }
    }
}

/// Telemetry reported by one solver invocation.
///
/// Fields are additive counters; a solver fills in whichever apply and
/// leaves the rest at zero. `iterations` always means *algorithm
/// iterations of the innermost numeric method* (simplex pivots,
/// swarm/annealing outer iterations), never branch-and-bound nodes —
/// those get their own fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolverStats {
    /// Solver name as registered (e.g. `solverlp`, `swarmops`).
    pub solver: String,
    /// Method within the solver (e.g. `mip`, `simplex`, `pso`).
    pub method: String,
    /// Innermost-method iterations (simplex pivots, PSO iterations...).
    pub iterations: u64,
    /// Branch-and-bound nodes explored (MIP only).
    pub nodes_explored: u64,
    /// Branch-and-bound nodes pruned by bound/infeasibility (MIP only).
    pub nodes_pruned: u64,
    /// Branch-and-bound nodes re-solved from their parent's basis.
    pub warm_starts: u64,
    /// Nodes whose warm re-solve failed and that were solved cold
    /// instead; above zero means numerical trouble.
    pub cold_starts: u64,
    /// Dual simplex pivots (a subset of `iterations`).
    pub dual_pivots: u64,
    /// Basis-inverse refactorizations of the simplex.
    pub refactorizations: u64,
    /// Objective-function evaluations a search requested (derivative-free
    /// solvers), a point scored before counted again.
    pub evaluations: u64,
    /// Of `evaluations`, the calls actually made into the objective: an
    /// all-integer search scores each point once.
    pub distinct_evaluations: u64,
    /// Restarts performed (multi-start heuristics).
    pub restarts: u64,
    /// Decision variables removed (fixed) by the presolve pass.
    pub presolve_cols: u64,
    /// Constraint rows removed by the presolve pass.
    pub presolve_rows: u64,
    /// Variable bounds tightened by the presolve pass.
    pub presolve_bounds: u64,
    /// Final objective value, if the solve produced one.
    pub objective: Option<f64>,
    /// Incumbent trajectory: (nodes explored when found, objective).
    pub incumbents: Vec<(u64, f64)>,
    /// Row-class census from the matrix classification pass, e.g.
    /// `"setpart:8 varbound:4"`. Empty when the pass is off or finds
    /// no special structure.
    pub matrix_class: String,
    /// Strongest integrality proof acted on: `"interval-tu"` /
    /// `"network-tu"` (branch-and-bound skipped), `"implied"` (some
    /// integer declarations relaxed), or empty.
    pub integrality_proof: String,
    /// Independent variable blocks of the constraint matrix (SD019's
    /// count at the solver level). Zero when unknown/no coupling.
    pub blocks: u64,
}

/// A frozen, plain-data trace of one executed statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// Short label for the traced statement (statement kind or shape).
    pub label: String,
    /// Total wall-clock for the statement, ≥ the sum of root stages.
    pub total_nanos: u64,
    /// Root stages in execution order.
    pub stages: Vec<Stage>,
    /// Telemetry from every solver invoked while executing.
    pub solvers: Vec<SolverStats>,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1_000_000.0
}

impl QueryTrace {
    /// Render the stage tree as indented text lines, one per stage,
    /// followed by one line per solver's telemetry. This is the body of
    /// `EXPLAIN ANALYZE` and of the CLI `\timing` output.
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!("query: {}  (total {:.3} ms)", self.label, ms(self.total_nanos)));
        for s in &self.stages {
            render_stage(s, 1, &mut lines);
        }
        for st in &self.solvers {
            lines.push(render_solver(st));
        }
        lines
    }
}

fn render_stage(s: &Stage, depth: usize, out: &mut Vec<String>) {
    let mut line = format!("{}-> {}: {:.3} ms", "  ".repeat(depth), s.name, ms(s.nanos));
    if let Some(rows) = s.rows {
        let _ = write!(line, "  rows={rows}");
    }
    for (k, v) in &s.meta {
        let _ = write!(line, "  {k}={v}");
    }
    out.push(line);
    for c in &s.children {
        render_stage(c, depth + 1, out);
    }
}

fn render_solver(st: &SolverStats) -> String {
    let mut line = format!("  solver {}", st.solver);
    if !st.method.is_empty() {
        let _ = write!(line, " [{}]", st.method);
    }
    let _ = write!(line, ": iterations={}", st.iterations);
    if st.nodes_explored > 0 || st.nodes_pruned > 0 {
        let _ =
            write!(line, " nodes_explored={} nodes_pruned={}", st.nodes_explored, st.nodes_pruned);
    }
    if st.warm_starts > 0 || st.cold_starts > 0 {
        let _ = write!(
            line,
            " warm_starts={} cold_starts={} dual_pivots={}",
            st.warm_starts, st.cold_starts, st.dual_pivots
        );
    }
    if st.refactorizations > 0 {
        let _ = write!(line, " refactorizations={}", st.refactorizations);
    }
    if st.evaluations > 0 {
        let _ = write!(line, " evaluations={}", st.evaluations);
        if st.distinct_evaluations != st.evaluations {
            let _ = write!(line, " distinct={}", st.distinct_evaluations);
        }
    }
    if st.restarts > 0 {
        let _ = write!(line, " restarts={}", st.restarts);
    }
    if st.presolve_cols > 0 || st.presolve_rows > 0 || st.presolve_bounds > 0 {
        let _ = write!(
            line,
            " presolve(cols={} rows={} bounds={})",
            st.presolve_cols, st.presolve_rows, st.presolve_bounds
        );
    }
    if !st.matrix_class.is_empty() {
        let _ = write!(line, " matrix[{}]", st.matrix_class);
    }
    if !st.integrality_proof.is_empty() {
        let _ = write!(line, " proof={}", st.integrality_proof);
    }
    if st.blocks > 1 {
        let _ = write!(line, " blocks={}", st.blocks);
    }
    if let Some(obj) = st.objective {
        let _ = write!(line, " objective={obj}");
    }
    if !st.incumbents.is_empty() {
        let traj: Vec<String> = st.incumbents.iter().map(|(n, v)| format!("{v}@{n}")).collect();
        let _ = write!(line, " incumbents=[{}]", traj.join(", "));
    }
    line
}

/// An in-flight stage: completed children plus its own start time.
#[derive(Debug)]
struct OpenStage {
    stage: Stage,
    started: Instant,
}

#[derive(Debug, Default)]
struct TraceInner {
    /// Completed root-level stages.
    done: Vec<Stage>,
    /// Stack of currently open (nested) stages.
    open: Vec<OpenStage>,
    solvers: Vec<SolverStats>,
}

impl TraceInner {
    /// Place a finished stage under the innermost open stage, or at the
    /// root when none is open.
    fn push(&mut self, stage: Stage) {
        match self.open.last_mut() {
            Some(open) => open.stage.children.push(stage),
            None => self.done.push(stage),
        }
    }

    /// Close the innermost open stage as of now.
    fn close_top(&mut self) {
        if let Some(mut top) = self.open.pop() {
            top.stage.nanos = (top.started.elapsed().as_nanos() as u64).max(1);
            self.push(top.stage);
        }
    }

    /// The recording with every open stage closed as of now.
    fn closed(mut self) -> TraceInner {
        while !self.open.is_empty() {
            self.close_top();
        }
        self
    }
}

/// A live span recorder for one statement execution, or for one
/// worker's share of it. It is `Send` but not `Sync`: a worker records
/// into a trace of its own and hands it back, and the statement's trace
/// [adopts](Trace::adopt) it in an order the caller fixes, so the tree
/// never depends on scheduling.
#[derive(Debug)]
pub struct Trace {
    started: Instant,
    label: String,
    inner: RefCell<TraceInner>,
}

impl Trace {
    /// Start recording a statement; `label` names it in the rendered
    /// trace and the metrics registry.
    pub fn new(label: &str) -> Trace {
        Trace { started: Instant::now(), label: label.to_string(), inner: RefCell::default() }
    }

    /// Open a named span; it closes (and records its duration) when the
    /// returned guard drops. Spans opened while another is open become
    /// its children.
    pub fn span(&self, name: &str) -> Span<'_> {
        self.inner.borrow_mut().open.push(OpenStage {
            stage: Stage { name: name.to_string(), ..Stage::default() },
            started: Instant::now(),
        });
        Span { trace: self }
    }

    /// Time a closure under a named span.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Record a pre-measured leaf stage (e.g. parse time captured
    /// before the trace existed).
    pub fn record(&self, name: &str, nanos: u64) {
        self.inner.borrow_mut().push(Stage::leaf(name, nanos));
    }

    /// Report telemetry from a solver invocation.
    pub fn solver(&self, stats: SolverStats) {
        self.inner.borrow_mut().solvers.push(stats);
    }

    /// Fold a worker's trace into this one: its open spans close as
    /// [`finish`](Trace::finish) closes them, its root stages go under
    /// the innermost open span (or become roots), its solver telemetry
    /// is appended, and its label and total are dropped.
    pub fn adopt(&self, child: Trace) {
        let child = child.inner.into_inner().closed();
        let mut inner = self.inner.borrow_mut();
        child.done.into_iter().for_each(|stage| inner.push(stage));
        inner.solvers.extend(child.solvers);
    }

    /// Freeze the trace. Any still-open spans are closed as of now.
    /// The total is clamped to at least the sum of root stages, so
    /// pre-measured stages recorded before the trace's clock started
    /// (e.g. parse time) never exceed it.
    pub fn finish(self) -> QueryTrace {
        let total = self.started.elapsed();
        let inner = self.inner.into_inner().closed();
        let root_sum: u64 = inner.done.iter().map(|s| s.nanos).sum();
        QueryTrace {
            label: self.label,
            total_nanos: (total.as_nanos() as u64).max(root_sum).max(1),
            stages: inner.done,
            solvers: inner.solvers,
        }
    }
}

/// Guard for an open stage of the trace that opened it; closing
/// happens on drop.
#[derive(Debug)]
pub struct Span<'a> {
    trace: &'a Trace,
}

impl Span<'_> {
    /// Annotate the innermost open stage with a row count.
    pub fn rows(&self, rows: u64) {
        if let Some(open) = self.trace.inner.borrow_mut().open.last_mut() {
            open.stage.rows = Some(rows);
        }
    }

    /// Attach a key/value note to the innermost open stage.
    pub fn note(&self, key: &str, value: impl ToString) {
        if let Some(open) = self.trace.inner.borrow_mut().open.last_mut() {
            open.stage.meta.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.trace.inner.borrow_mut().close_top();
    }
}

/// Time a closure, returning its result and the elapsed wall-clock.
/// The bench harness reports phase timings through this so the harness
/// and `EXPLAIN ANALYZE` share one stopwatch implementation.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run `f` under a span when a trace is present, plainly otherwise.
pub fn span_time<T>(trace: Option<&Trace>, name: &str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let t = Trace::new("demo");
        {
            let outer = t.span("solve");
            outer.note("solver", "solverlp");
            {
                let inner = t.span("compile");
                inner.rows(10);
            }
            t.record("post-process", 500);
        }
        let qt = t.finish();
        assert_eq!(qt.label, "demo");
        assert_eq!(qt.stages.len(), 1);
        let solve = &qt.stages[0];
        assert_eq!(solve.name, "solve");
        assert_eq!(solve.meta, vec![("solver".to_string(), "solverlp".to_string())]);
        assert_eq!(solve.children.len(), 2);
        assert_eq!(solve.children[0].name, "compile");
        assert_eq!(solve.children[0].rows, Some(10));
        assert_eq!(solve.children[1].name, "post-process");
        assert_eq!(solve.children[1].nanos, 500);
        assert!(solve.nanos >= 1);
        assert!(qt.total_nanos >= solve.nanos);
    }

    /// A worker's trace, as a solve on another thread leaves it.
    fn worker(stage: &str, solver: &str) -> Trace {
        let t = Trace::new("worker");
        t.time(stage, || {});
        t.solver(SolverStats { solver: solver.into(), ..SolverStats::default() });
        t
    }

    #[test]
    fn adopted_traces_land_under_the_open_span() {
        let t = Trace::new("parent");
        {
            let _p = t.span("partition");
            t.adopt(worker("solve", "a"));
        }
        t.adopt(worker("tail", "b"));
        let qt = t.finish();
        assert_eq!(qt.label, "parent");
        let names: Vec<&str> = qt.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["partition", "tail"]);
        assert_eq!(qt.stages[0].children.len(), 1);
        assert_eq!(qt.stages[0].children[0].name, "solve");
        assert!(qt.stages[1].children.is_empty());
    }

    #[test]
    fn adopted_solver_stats_follow_adopt_order() {
        let t = Trace::new("");
        t.solver(SolverStats { solver: "own".into(), ..SolverStats::default() });
        let (first, second) = (worker("solve", "first"), worker("solve", "second"));
        t.adopt(second);
        t.adopt(first);
        let solvers: Vec<String> = t.finish().solvers.into_iter().map(|s| s.solver).collect();
        assert_eq!(solvers, ["own", "second", "first"]);
    }

    #[test]
    fn an_unclosed_child_span_adopts_as_if_finished() {
        let child = Trace::new("");
        std::mem::forget(child.span("outer"));
        child.record("inner", 5);
        let t = Trace::new("");
        t.adopt(child);
        let qt = t.finish();
        assert_eq!(qt.stages.len(), 1);
        assert_eq!(qt.stages[0].name, "outer");
        assert!(qt.stages[0].nanos >= 1);
        assert_eq!(qt.stages[0].children, [Stage::leaf("inner", 5)]);
    }

    #[test]
    fn durations_are_never_zero() {
        let t = Trace::new("");
        t.time("parse", || {});
        t.record("plan", 0);
        let qt = t.finish();
        assert!(qt.stages.iter().all(|s| s.nanos >= 1));
        assert!(qt.total_nanos >= 1);
    }

    #[test]
    fn unclosed_spans_are_closed_by_finish() {
        let t = Trace::new("");
        let s = t.span("outer");
        std::mem::forget(s); // simulate a path that never drops the guard
        let qt = t.finish();
        assert_eq!(qt.stages.len(), 1);
        assert_eq!(qt.stages[0].name, "outer");
    }

    #[test]
    fn children_sum_within_parent() {
        let t = Trace::new("");
        {
            let _p = t.span("parent");
            t.time("a", || std::thread::sleep(Duration::from_millis(1)));
            t.time("b", || {});
        }
        let qt = t.finish();
        let p = &qt.stages[0];
        let child_sum: u64 = p.children.iter().map(|c| c.nanos).sum();
        assert!(p.nanos >= child_sum, "parent {} < children {}", p.nanos, child_sum);
        assert!(qt.total_nanos >= p.nanos);
    }

    #[test]
    fn render_includes_stages_and_solver_stats() {
        let t = Trace::new("SOLVESELECT");
        t.record("parse", 1_000_000);
        t.solver(SolverStats {
            solver: "solverlp".into(),
            method: "mip".into(),
            iterations: 12,
            nodes_explored: 5,
            nodes_pruned: 2,
            objective: Some(6.5),
            incumbents: vec![(1, 4.0), (3, 6.5)],
            ..SolverStats::default()
        });
        let lines = t.finish().render();
        let text = lines.join("\n");
        assert!(text.contains("parse: 1.000 ms"), "got:\n{text}");
        assert!(text.contains("solver solverlp [mip]"), "got:\n{text}");
        assert!(text.contains("nodes_explored=5"), "got:\n{text}");
        assert!(text.contains("incumbents=[4@1, 6.5@3]"), "got:\n{text}");
    }

    #[test]
    fn timed_measures_and_passes_through() {
        let (v, d) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0 || d.is_zero()); // just type sanity
    }

    #[test]
    fn span_time_without_trace_still_runs() {
        assert_eq!(span_time(None, "x", || 7), 7);
        let t = Trace::new("");
        assert_eq!(span_time(Some(&t), "x", || 7), 7);
        assert_eq!(t.finish().stages.len(), 1);
    }
}
