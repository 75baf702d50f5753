//! The SolveDB+ session: a database with the solver framework, built-in
//! solvers and the PA-oriented UDFs installed — the equivalent of a
//! PostgreSQL connection to a SolveDB+-patched server.

use crate::handler::Handler;
use crate::obs_tables::ObsTables;
use crate::solver::{Solver, SolverRegistry};
use crate::solvers::{ArimaSolver, LpSolver, PredictiveAdvisor, SwarmOps};
use forecast::arima::arima_rmse;
use obs::{MetricsRegistry, QueryTrace, SessionRegistry};
use parking_lot::RwLock;
use sqlengine::ast::Statement;
use sqlengine::catalog::{Ctes, ScalarUdf};
use sqlengine::error::{Error, Result};
use sqlengine::exec::Outcome;
use sqlengine::{execute_statement_timed, parser, Database, ExecResult, Table, Value};
use ssmodel::{simulation_sse, Lti};
use std::sync::Arc;
use storage::{SessionHook, StorageEngine};

/// The process-wide solver infrastructure shared by every session a
/// server creates: the solver registry (RC3 extensibility) and the
/// Predictive Advisor with its model cache. In the paper's terms this
/// is the state a PostgreSQL backend shares across connections — as are
/// the relations of sessions attached to one storage engine; a
/// [`Session`] keeps its own settings, UDF training data and plan cache
/// (and, while ephemeral, its own relations).
///
/// Cloning is cheap (two `Arc`s); a solver installed through any clone
/// is visible to all sessions built from it.
#[derive(Clone)]
pub struct SharedSolvers {
    registry: Arc<SolverRegistry>,
    advisor: Arc<PredictiveAdvisor>,
    metrics: Arc<MetricsRegistry>,
}

impl SharedSolvers {
    /// Build the built-in solver suite: `solverlp`, `swarmops`,
    /// `lr_solver`, `arima_solver`, `predictive_solver`.
    pub fn new() -> SharedSolvers {
        let registry = Arc::new(SolverRegistry::new());
        registry.register(Arc::new(LpSolver));
        registry.register(Arc::new(SwarmOps));
        registry.register(Arc::new(crate::solvers::LrSolver));
        registry.register(Arc::new(ArimaSolver));
        let advisor = Arc::new(PredictiveAdvisor::new());
        registry.register(advisor.clone() as Arc<dyn Solver>);
        SharedSolvers { registry, advisor, metrics: Arc::new(MetricsRegistry::new()) }
    }

    pub fn registry(&self) -> &Arc<SolverRegistry> {
        &self.registry
    }

    pub fn advisor(&self) -> &Arc<PredictiveAdvisor> {
        &self.advisor
    }

    /// The shared metrics store backing `sdb_stat_statements` and
    /// `sdb_solver_stats` in every session built from these solvers.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }
}

impl Default for SharedSolvers {
    fn default() -> Self {
        Self::new()
    }
}

/// A SolveDB+ session.
pub struct Session {
    db: Database,
    registry: Arc<SolverRegistry>,
    advisor: Arc<PredictiveAdvisor>,
    metrics: Arc<MetricsRegistry>,
    /// Live-session registry a server attached (for `sdb_sessions`).
    session_registry: Option<Arc<SessionRegistry>>,
    /// With a data directory, this session's side of the engine's catalog:
    /// a statement starts from its relations and group-commits its changes.
    storage_hook: Option<Arc<SessionHook>>,
    /// Training series backing the `arima_rmse(ar, i, ma)` UDF.
    arima_training: Arc<RwLock<Vec<f64>>>,
    /// Training data backing the `hvac_sse(a1, b1, b2)` UDF:
    /// `(inputs (outtemp, hload), measured intemp)`.
    hvac_training: Arc<RwLock<(Vec<Vec<f64>>, Vec<f64>)>>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Create a stand-alone session with its own copy of the built-in
    /// solver suite (see [`SharedSolvers::new`]).
    pub fn new() -> Session {
        Session::with_solvers(&SharedSolvers::new())
    }

    /// Create a session on top of shared solver infrastructure — the
    /// cheap per-connection constructor used by `solvedbd`: settings and
    /// UDF training state are private to this session (its relations too,
    /// until [`Session::attach_storage`]), while the solver registry and
    /// predictive model cache are shared.
    pub fn with_solvers(shared: &SharedSolvers) -> Session {
        let registry = shared.registry.clone();
        let advisor = shared.advisor.clone();
        let metrics = shared.metrics.clone();

        let mut db = Database::new();
        db.set_solve_handler(Arc::new(Handler::new(registry.clone())));
        db.set_virtual_tables(Arc::new(ObsTables::new(metrics.clone(), None, None)));

        let arima_training: Arc<RwLock<Vec<f64>>> = Arc::new(RwLock::new(Vec::new()));
        let hvac_training: Arc<RwLock<(Vec<Vec<f64>>, Vec<f64>)>> =
            Arc::new(RwLock::new((Vec::new(), Vec::new())));

        // arima_rmse(ar, i, ma): the order-search fitness of §3.2,
        // evaluated over the session's registered training series.
        let series = arima_training.clone();
        db.register_udf(ScalarUdf {
            name: "arima_rmse".into(),
            param_names: vec!["ar".into(), "i".into(), "ma".into()],
            defaults: Default::default(),
            func: Arc::new(move |args| {
                let y = series.read();
                if y.is_empty() {
                    return Err(Error::solver(
                        "arima_rmse: no training series registered \
                         (use Session::set_arima_training)",
                    ));
                }
                let p = args[0].as_i64()?.max(0) as usize;
                let d = args[1].as_i64()?.max(0) as usize;
                let q = args[2].as_i64()?.max(0) as usize;
                let e = arima_rmse(&y, p, d, q);
                Ok(Value::Float(if e.is_finite() { e } else { 1e18 }))
            }),
        });

        // hvac_sse(a1, b1, b2): the P3 fitness (the paper implements this
        // as a PL/pgSQL UDF, §5.3).
        let hvac = hvac_training.clone();
        db.register_udf(ScalarUdf {
            name: "hvac_sse".into(),
            param_names: vec!["a1".into(), "b1".into(), "b2".into()],
            defaults: Default::default(),
            func: Arc::new(move |args| {
                let data = hvac.read();
                let (u, measured) = (&data.0, &data.1);
                if measured.is_empty() {
                    return Err(Error::solver(
                        "hvac_sse: no training data registered \
                         (use Session::set_hvac_training)",
                    ));
                }
                let m = Lti::hvac(args[0].as_f64()?, args[1].as_f64()?, args[2].as_f64()?);
                Ok(Value::Float(simulation_sse(&m, &[measured[0]], u, measured)))
            }),
        });

        Session {
            db,
            registry,
            advisor,
            metrics,
            session_registry: None,
            storage_hook: None,
            arima_training,
            hvac_training,
        }
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult> {
        let (parsed, parse_time) = obs::timed(|| parser::parse_statement(sql));
        self.run_recorded(&parsed?, Some(parse_time.as_nanos() as u64))
    }

    /// Execute a `;`-separated script, returning the last result.
    pub fn execute_script(&mut self, sql: &str) -> Result<ExecResult> {
        let stmts = parser::parse_statements(sql)?;
        let mut last = ExecResult::done();
        for s in &stmts {
            last = self.run_recorded(s, None)?;
        }
        Ok(last)
    }

    /// Execute one already-parsed statement — the statement-by-statement
    /// path shared by the CLI's script/remote modes and the server,
    /// which need a result per statement rather than the last one.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<ExecResult> {
        self.run_recorded(stmt, None)
    }

    /// Execute a statement and fold the outcome into the session's
    /// metrics registry: one `sdb_stat_statements` row per statement
    /// shape, plus per-solver aggregates when the statement was traced.
    fn run_recorded(&mut self, stmt: &Statement, parse_nanos: Option<u64>) -> Result<ExecResult> {
        let shape = sqlengine::statement_shape(stmt);
        if let Some(hook) = &self.storage_hook {
            hook.begin(&mut self.db);
        }
        let work_before = self.db.exec_counts();
        let (mut out, elapsed) =
            obs::timed(|| execute_statement_timed(&mut self.db, stmt, parse_nanos));
        let nanos = elapsed.as_nanos() as u64;
        let work = self.db.exec_counts().since(&work_before);
        if work.columns_pivoted > 0 {
            self.metrics.add_columns_pivoted(work.columns_pivoted);
        }
        if work.subqueries_reused > 0 {
            self.metrics.add_subqueries_reused(work.subqueries_reused);
        }
        if work.rows_copied > 0 {
            self.metrics.add_rows_copied(work.rows_copied);
        }
        // Fold per-stage latency distributions in before the group
        // commit appends its wal.append stage: the WAL histograms are
        // recorded by the storage engine itself, so recording the
        // appended stage here would double-count them.
        if let Ok(ExecResult { trace: Some(tr), .. }) = &out {
            self.metrics.record_trace_stages(tr);
        }
        // Group commit: everything the statement logged goes to the WAL
        // in one write (and at most one fsync, per policy). This runs
        // even when the statement errored — partial in-memory effects
        // were already flushed to the hook and the log must mirror them.
        // A durability failure fails the statement, and the session moves
        // to the engine's relations: un-logged state is never observable.
        if let Some(hook) = &self.storage_hook {
            match (hook.commit(&mut self.db), &mut out) {
                (Ok((records, commit_nanos)), Ok(ExecResult { trace: Some(tr), .. }))
                    if records > 0 =>
                {
                    tr.stages.push(StorageEngine::append_stage(records, commit_nanos));
                }
                (Ok(_), _) => {}
                (Err(e), _) => {
                    self.metrics.record_statement(&shape, nanos, 0, true);
                    return Err(e);
                }
            }
        }
        match &out {
            Ok(res) => {
                let rows = match &res.outcome {
                    Outcome::Table(t) => t.num_rows() as u64,
                    Outcome::Count(n) => *n as u64,
                    Outcome::Done => 0,
                };
                self.metrics.record_statement_exec(
                    &shape,
                    nanos,
                    rows,
                    false,
                    res.plan_fingerprint,
                    res.plan_cache_hit,
                );
                if let Some(tr) = &res.trace {
                    let solve_nanos = solve_stage_nanos(tr);
                    for st in &tr.solvers {
                        self.metrics.record_solver(st, solve_nanos);
                    }
                }
            }
            Err(_) => self.metrics.record_statement(&shape, nanos, 0, true),
        }
        out
    }

    /// Run the pre-solve static analyzer over a `SOLVESELECT` (or an
    /// `EXPLAIN` of one) without solving it: the programmatic face of
    /// `EXPLAIN CHECK`, through [`crate::check_stmt`]. Returns all
    /// findings, every severity included.
    pub fn check(&self, sql: &str) -> Result<Vec<sqlengine::diag::Diagnostic>> {
        match parser::parse_statement(sql)? {
            Statement::Solve(stmt) => crate::check_stmt(&self.db, &Ctes::new(), &stmt),
            Statement::Explain { stmt, .. } => crate::check_stmt(&self.db, &Ctes::new(), &stmt),
            _ => Err(Error::solver("CHECK is only defined for SOLVESELECT statements")),
        }
    }

    /// Run the whole-script static analyzer (`scriptcheck`, SD013–SD018)
    /// over a multi-statement script against this session's catalog —
    /// the programmatic face of `EXPLAIN SCRIPT`. Nothing is executed.
    pub fn check_script(&self, sql: &str) -> Result<sqlengine::script::ScriptAnalysis> {
        let snapshot = sqlengine::script::CatalogSnapshot::from_db(&self.db);
        sqlengine::script::analyze_sql(sql, &snapshot)
    }

    /// Execute and expect a result set.
    pub fn query(&mut self, sql: &str) -> Result<Table> {
        self.execute(sql)?.into_table()
    }

    /// Execute and expect a single scalar.
    pub fn query_scalar(&mut self, sql: &str) -> Result<Value> {
        self.query(sql)?.scalar()
    }

    pub fn db(&self) -> &Database {
        &self.db
    }

    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Install a custom solver (RC3 extensibility).
    pub fn install_solver(&self, solver: Arc<dyn Solver>) {
        self.registry.register(solver);
    }

    pub fn solver_names(&self) -> Vec<String> {
        self.registry.names()
    }

    /// The Predictive Advisor instance (exposes its model cache stats).
    pub fn advisor(&self) -> &PredictiveAdvisor {
        &self.advisor
    }

    /// The metrics store this session records into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Expose a server's live-session registry through `sdb_sessions`
    /// (called by `solvedbd` when it builds a connection's session).
    /// Also makes `CANCEL <session>` resolvable from this session.
    pub fn attach_session_registry(&mut self, sessions: Arc<SessionRegistry>) {
        self.db.set_session_registry(Some(sessions.clone()));
        self.session_registry = Some(sessions);
        self.rebuild_virtual_tables();
    }

    /// Attach this session's own per-connection counters, making it
    /// killable via `CANCEL` (the watchdog polls the kill flag at
    /// solver progress points).
    pub fn attach_own_counters(&mut self, counters: Arc<obs::SessionCounters>) {
        self.db.set_own_counters(Some(counters));
    }

    /// Install the live-progress sink solvers emit [`obs::ProgressEvent`]s
    /// into (throttled by the watchdog to ~10 Hz).
    pub fn set_progress_sink(&mut self, sink: Arc<dyn Fn(&obs::ProgressEvent) + Send + Sync>) {
        self.db.set_progress_sink(Some(sink));
    }

    /// Set (or clear, with `None`/`Some(0)`) the solver wall-clock
    /// budget — the programmatic face of `SET solver_timeout_ms`.
    pub fn set_solver_timeout_ms(&mut self, ms: Option<u64>) {
        self.db.set_solver_timeout_ms(ms.filter(|&v| v > 0));
    }

    /// Make the session durable: from here on every statement reads the
    /// engine's current relations — shared with every other session
    /// attached to it — and WAL-logs what it changes. Relations the
    /// session already holds are committed to the engine first; if it
    /// holds one of the names, this fails and the session stays ephemeral.
    pub fn attach_storage(&mut self, engine: Arc<StorageEngine>) -> Result<()> {
        engine.attach_metrics(self.metrics.clone());
        self.storage_hook = Some(SessionHook::attach(engine, &mut self.db)?);
        self.rebuild_virtual_tables();
        Ok(())
    }

    /// The attached storage engine, if the session is durable.
    pub fn storage(&self) -> Option<&Arc<StorageEngine>> {
        self.storage_hook.as_ref().map(|hook| hook.engine())
    }

    fn rebuild_virtual_tables(&mut self) {
        self.db.set_virtual_tables(Arc::new(ObsTables::new(
            self.metrics.clone(),
            self.session_registry.clone(),
            self.storage().cloned(),
        )));
    }

    /// Register the training series used by the `arima_rmse` UDF.
    pub fn set_arima_training(&self, y: Vec<f64>) {
        *self.arima_training.write() = y;
    }

    /// Register training data for the `hvac_sse` UDF: inputs are
    /// `(outtemp, hload)` rows; `measured[0]` is the initial state.
    pub fn set_hvac_training(&self, u: Vec<Vec<f64>>, measured: Vec<f64>) {
        *self.hvac_training.write() = (u, measured);
    }
}

/// Wall-clock attributable to solving: the root `solve` stage when the
/// trace has one, the whole statement otherwise.
fn solve_stage_nanos(tr: &QueryTrace) -> u64 {
    tr.stages.iter().find(|s| s.name == "solve").map(|s| s.nanos).unwrap_or(tr.total_nanos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_is_send() {
        // solvedbd moves each connection's Session into a worker thread;
        // a solve on a worker shares the rest and owns its trace.
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<Session>();
        assert_send::<SharedSolvers>();
        assert_send::<obs::Trace>();
        assert_send_sync::<Database>();
        assert_send_sync::<crate::problem::ProblemInstance>();
        assert_send_sync::<sqlengine::catalog::Ctes>();
        assert_send_sync::<crate::compile::CompiledModel>();
        assert_send_sync::<crate::solver::SolveControl>();
    }

    #[test]
    fn sessions_share_installed_solvers() {
        let shared = SharedSolvers::new();
        let a = Session::with_solvers(&shared);
        let b = Session::with_solvers(&shared);
        struct Nop;
        impl Solver for Nop {
            fn name(&self) -> &str {
                "nop_shared"
            }
            fn solve(&self, _ctx: &crate::solver::SolveContext<'_>) -> Result<Table> {
                Err(Error::solver("nop"))
            }
        }
        a.install_solver(Arc::new(Nop));
        assert!(b.solver_names().iter().any(|n| n == "nop_shared"));
    }

    #[test]
    fn ephemeral_sessions_have_private_relations() {
        let shared = SharedSolvers::new();
        let mut a = Session::with_solvers(&shared);
        let mut b = Session::with_solvers(&shared);
        a.execute("CREATE TABLE only_in_a (x int)").unwrap();
        assert!(b.execute("SELECT * FROM only_in_a").is_err());
    }

    #[test]
    fn execute_statement_runs_parsed_statements() {
        let mut s = Session::new();
        let stmts = sqlengine::parser::parse_statements(
            "CREATE TABLE t (x int); INSERT INTO t VALUES (4); SELECT x FROM t",
        )
        .unwrap();
        let mut last = None;
        for st in &stmts {
            last = Some(s.execute_statement(st).unwrap());
        }
        let table = last.unwrap().into_table().unwrap();
        assert_eq!(table.rows, vec![vec![Value::Int(4)]]);
    }

    #[test]
    fn session_has_builtin_solvers() {
        let s = Session::new();
        let names = s.solver_names();
        for expected in ["solverlp", "swarmops", "lr_solver", "arima_solver", "predictive_solver"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn basic_sql_roundtrip() {
        let mut s = Session::new();
        s.execute_script("CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2)").unwrap();
        assert_eq!(s.query_scalar("SELECT sum(x) FROM t").unwrap(), Value::Int(3));
    }

    #[test]
    fn arima_rmse_udf_requires_training_data() {
        let mut s = Session::new();
        assert!(s.query_scalar("SELECT arima_rmse(1, 0, 0)").is_err());
        s.set_arima_training((0..100).map(|i| (i % 7) as f64).collect());
        let v = s.query_scalar("SELECT arima_rmse(1, 0, 0)").unwrap();
        assert!(v.as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn hvac_sse_udf() {
        let mut s = Session::new();
        assert!(s.query_scalar("SELECT hvac_sse(0.9, 0.1, 0.0)").is_err());
        let truth = Lti::hvac(0.9, 0.05, 0.0004);
        let u: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 100.0]).collect();
        let (states, _) = truth.simulate(&[21.0], &u);
        let measured: Vec<f64> = states.iter().map(|s| s[0]).collect();
        s.set_hvac_training(u, measured);
        let perfect =
            s.query_scalar("SELECT hvac_sse(0.9, 0.05, 0.0004)").unwrap().as_f64().unwrap();
        assert!(perfect < 1e-15);
        let off = s.query_scalar("SELECT hvac_sse(0.5, 0.05, 0.0004)").unwrap().as_f64().unwrap();
        assert!(off > perfect);
    }
}
