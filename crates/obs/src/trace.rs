//! Per-query stage tracing.
//!
//! A [`Trace`] is a cheap, single-threaded span recorder: code opens
//! nested [`Span`] guards (closed on drop), annotates them with row
//! counts or notes, and reports [`SolverStats`] from inside a solve.
//! [`Trace::finish`] freezes the recording into a [`QueryTrace`] — a
//! plain tree of [`Stage`]s plus the solver telemetry — which is what
//! travels to clients, renders in `EXPLAIN ANALYZE`, and feeds the
//! metrics registry.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
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

    /// Total number of stages in this subtree (self included).
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(Stage::count).sum::<usize>()
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Stage::depth).max().unwrap_or(0)
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

#[derive(Debug)]
struct TraceInner {
    /// Completed root-level stages.
    done: Vec<Stage>,
    /// Stack of currently open (nested) stages.
    open: Vec<OpenStage>,
    solvers: Vec<SolverStats>,
}

/// A live span recorder for one statement execution.
///
/// Single-threaded by design (interior mutability via `RefCell`): a
/// statement executes on one thread, and the trace is frozen into a
/// [`QueryTrace`] before crossing any thread or wire boundary.
#[derive(Debug)]
pub struct Trace {
    started: Instant,
    label: RefCell<String>,
    inner: Rc<RefCell<TraceInner>>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            started: Instant::now(),
            label: RefCell::new(String::new()),
            inner: Rc::new(RefCell::new(TraceInner {
                done: Vec::new(),
                open: Vec::new(),
                solvers: Vec::new(),
            })),
        }
    }

    /// Set the human label for the traced statement.
    pub fn set_label(&self, label: &str) {
        *self.label.borrow_mut() = label.to_string();
    }

    /// Open a named span; it closes (and records its duration) when the
    /// returned guard drops. Spans opened while another is open become
    /// its children.
    pub fn span(&self, name: &str) -> Span {
        self.inner.borrow_mut().open.push(OpenStage {
            stage: Stage { name: name.to_string(), ..Stage::default() },
            started: Instant::now(),
        });
        Span { inner: Rc::clone(&self.inner), closed: false }
    }

    /// Time a closure under a named span.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Record a pre-measured leaf stage (e.g. parse time captured
    /// before the trace existed).
    pub fn record(&self, name: &str, nanos: u64) {
        let mut inner = self.inner.borrow_mut();
        let stage = Stage::leaf(name, nanos);
        match inner.open.last_mut() {
            Some(open) => open.stage.children.push(stage),
            None => inner.done.push(stage),
        }
    }

    /// Report telemetry from a solver invocation.
    pub fn solver(&self, stats: SolverStats) {
        self.inner.borrow_mut().solvers.push(stats);
    }

    /// Freeze the trace. Any still-open spans are closed as of now.
    /// The total is clamped to at least the sum of root stages, so
    /// pre-measured stages recorded before the trace's clock started
    /// (e.g. parse time) never exceed it.
    pub fn finish(self) -> QueryTrace {
        let total = self.started.elapsed();
        let mut inner = self.inner.borrow_mut();
        while !inner.open.is_empty() {
            close_top(&mut inner);
        }
        let stages = std::mem::take(&mut inner.done);
        let root_sum: u64 = stages.iter().map(|s| s.nanos).sum();
        QueryTrace {
            label: self.label.borrow().clone(),
            total_nanos: (total.as_nanos() as u64).max(root_sum).max(1),
            stages,
            solvers: std::mem::take(&mut inner.solvers),
        }
    }
}

fn close_top(inner: &mut TraceInner) {
    if let Some(mut top) = inner.open.pop() {
        top.stage.nanos = (top.started.elapsed().as_nanos() as u64).max(1);
        match inner.open.last_mut() {
            Some(parent) => parent.stage.children.push(top.stage),
            None => inner.done.push(top.stage),
        }
    }
}

/// Guard for an open stage; closing happens on drop.
#[derive(Debug)]
pub struct Span {
    inner: Rc<RefCell<TraceInner>>,
    closed: bool,
}

impl Span {
    /// Annotate the innermost open stage with a row count.
    pub fn rows(&self, rows: u64) {
        if let Some(open) = self.inner.borrow_mut().open.last_mut() {
            open.stage.rows = Some(rows);
        }
    }

    /// Attach a key/value note to the innermost open stage.
    pub fn note(&self, key: &str, value: impl ToString) {
        if let Some(open) = self.inner.borrow_mut().open.last_mut() {
            open.stage.meta.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.closed {
            self.closed = true;
            close_top(&mut self.inner.borrow_mut());
        }
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
        let t = Trace::new();
        t.set_label("demo");
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

    #[test]
    fn durations_are_never_zero() {
        let t = Trace::new();
        t.time("parse", || {});
        t.record("plan", 0);
        let qt = t.finish();
        assert!(qt.stages.iter().all(|s| s.nanos >= 1));
        assert!(qt.total_nanos >= 1);
    }

    #[test]
    fn unclosed_spans_are_closed_by_finish() {
        let t = Trace::new();
        let s = t.span("outer");
        std::mem::forget(s); // simulate a path that never drops the guard
        let qt = t.finish();
        assert_eq!(qt.stages.len(), 1);
        assert_eq!(qt.stages[0].name, "outer");
    }

    #[test]
    fn children_sum_within_parent() {
        let t = Trace::new();
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
        let t = Trace::new();
        t.set_label("SOLVESELECT");
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
        let t = Trace::new();
        assert_eq!(span_time(Some(&t), "x", || 7), 7);
        assert_eq!(t.finish().stages.len(), 1);
    }
}
