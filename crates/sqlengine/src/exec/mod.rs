//! Statement execution: queries, DML, DDL and solve-statement dispatch.

pub mod eval;
pub mod funcs;
pub(crate) mod head;
pub(crate) mod oracle;
pub mod select;
pub(crate) mod subquery;

use crate::ast::{ColumnDef, ExplainMode, Statement};
use crate::catalog::{Ctes, Database};
use crate::diag::Diagnostic;
use crate::error::{Error, Result};
use crate::exec::eval::{Binder, Env, EvalCtx, Scope};
use crate::parser;
use crate::plan::exec::matching_rows;
use crate::plan::Rewrite;
use crate::table::{coerce, Column, Schema, Table};
use crate::types::{DataType, Value};
use obs::{QueryTrace, Trace};

pub use eval::{BoundExpr, ScopeCol};
pub use select::{run_query, run_query_bound};

/// What a statement produced.
#[derive(Debug)]
pub enum Outcome {
    /// A query (or SOLVESELECT / MODELEVAL) result set.
    Table(Table),
    /// Rows affected by DML.
    Count(usize),
    /// DDL succeeded.
    Done,
}

/// Result of executing one statement: the outcome plus any diagnostics
/// the pre-solve static analyzer attached (the *warnings channel* —
/// `Warning`/`Note` severity only; `Error`-level findings either fail
/// the statement or surface through `EXPLAIN CHECK`).
#[derive(Debug)]
pub struct ExecResult {
    pub outcome: Outcome,
    pub warnings: Vec<Diagnostic>,
    /// Stage tree with timings and solver telemetry, recorded for solve
    /// statements (and `EXPLAIN ANALYZE`). `None` for plain SQL.
    pub trace: Option<QueryTrace>,
    /// FNV-1a fingerprint of the optimized logical plan when the
    /// statement's own body is one `SELECT` block; `None` when it is
    /// anything else — a set operation (whose arms are planned one by
    /// one), `VALUES`, a solve (whose queries are planned), DML — or when
    /// the database forces the reference interpreter: a statement has one
    /// fingerprint or none. Recorded in `sdb_stat_statements`.
    pub plan_fingerprint: Option<u64>,
    /// Plan-cache outcome of the last `SELECT` block of the statement
    /// to finish — its own body when that is a `SELECT` (a block reports
    /// after the blocks nested in it have run), otherwise the last nested
    /// block (set-operation arm, subquery, query of a solve): `Some(true)`
    /// = served from the cache, `Some(false)` = planned fresh and cached,
    /// `None` = no block was cache-eligible (plans that captured
    /// CTE-dependent rows or a solve's answer, DML/DDL without a query).
    /// Feeds the hit/miss counters in `sdb_stat_statements`, one count per
    /// statement.
    pub plan_cache_hit: Option<bool>,
}

impl ExecResult {
    pub fn table(t: Table) -> ExecResult {
        ExecResult {
            outcome: Outcome::Table(t),
            warnings: Vec::new(),
            trace: None,
            plan_fingerprint: None,
            plan_cache_hit: None,
        }
    }

    pub fn count(n: usize) -> ExecResult {
        ExecResult {
            outcome: Outcome::Count(n),
            warnings: Vec::new(),
            trace: None,
            plan_fingerprint: None,
            plan_cache_hit: None,
        }
    }

    pub fn done() -> ExecResult {
        ExecResult {
            outcome: Outcome::Done,
            warnings: Vec::new(),
            trace: None,
            plan_fingerprint: None,
            plan_cache_hit: None,
        }
    }

    /// Attach analyzer warnings to this result.
    pub fn with_warnings(mut self, warnings: Vec<Diagnostic>) -> ExecResult {
        self.warnings = warnings;
        self
    }

    /// Attach an execution trace to this result.
    pub fn with_trace(mut self, trace: QueryTrace) -> ExecResult {
        self.trace = Some(trace);
        self
    }

    /// Expect a result set (drops any attached warnings).
    pub fn into_table(self) -> Result<Table> {
        match self.outcome {
            Outcome::Table(t) => Ok(t),
            other => Err(Error::eval(format!("statement returned {other:?}, expected rows"))),
        }
    }

    pub fn row_count(&self) -> Option<usize> {
        match self.outcome {
            Outcome::Count(n) => Some(n),
            _ => None,
        }
    }
}

/// Parse and execute a single SQL statement.
pub fn execute_sql(db: &mut Database, sql: &str) -> Result<ExecResult> {
    let (stmt, parse_time) = obs::timed(|| parser::parse_statement(sql));
    execute_statement_timed(db, &stmt?, Some(parse_time.as_nanos() as u64))
}

/// Parse and execute a `;`-separated script, returning the last result.
pub fn execute_script(db: &mut Database, sql: &str) -> Result<ExecResult> {
    let stmts = parser::parse_statements(sql)?;
    let mut last = ExecResult::done();
    for s in &stmts {
        last = execute_statement(db, s)?;
    }
    Ok(last)
}

/// Execute a parsed statement.
pub fn execute_statement(db: &mut Database, stmt: &Statement) -> Result<ExecResult> {
    execute_statement_timed(db, stmt, None)
}

/// Execute a parsed statement, seeding the execution trace (when one is
/// recorded) with an already-measured parse time. Callers that parse
/// the SQL themselves use this so the `parse` stage isn't lost.
pub fn execute_statement_timed(
    db: &mut Database,
    stmt: &Statement,
    parse_nanos: Option<u64>,
) -> Result<ExecResult> {
    // Whatever a call outside any statement left in the statement scope
    // does not belong to this one.
    db.end_statement();
    let inner = execute_statement_inner(db, stmt, parse_nanos);
    let (plan_cache_hit, findings) = db.end_statement();
    let mut result = inner?;
    result.plan_cache_hit = plan_cache_hit;
    result.warnings = findings;
    Ok(result)
}

/// The schema `CREATE TABLE` declares.
pub(crate) fn declared_schema(columns: &[ColumnDef]) -> Schema {
    Schema::new(columns.iter().map(|c| Column::new(&c.name, c.ty.clone())).collect())
}

/// The result of an `EXPLAIN`: one text column `plan`, one row per line.
pub fn plan_table<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> Table {
    let schema = Schema::new(vec![Column::new("plan", DataType::Text)]);
    Table::with_rows(schema, lines.into_iter().map(|l| vec![Value::text(l.as_ref())]).collect())
}

/// A statement's trace, opening with the parse time measured before it
/// existed.
fn statement_trace(label: &str, parse_nanos: Option<u64>) -> Trace {
    let trace = Trace::new(label);
    if let Some(n) = parse_nanos {
        trace.record("parse", n);
    }
    trace
}

/// The body of an `EXPLAIN ANALYZE`: the rendered trace, then the rows
/// the statement returned.
fn analyze_lines(qt: &QueryTrace, rows_out: usize) -> Vec<String> {
    let mut lines = qt.render();
    lines.push(format!("rows out: {rows_out}"));
    lines
}

fn execute_statement_inner(
    db: &mut Database,
    stmt: &Statement,
    parse_nanos: Option<u64>,
) -> Result<ExecResult> {
    let ctes = Ctes::new();
    match stmt {
        Statement::Query(q) => {
            let (t, fp) = select::run_query_planned(db, &ctes, q, None, None)?;
            let mut result = ExecResult::table(t);
            result.plan_fingerprint = fp;
            Ok(result)
        }
        Statement::ExplainQuery { analyze: false, query } => {
            Ok(ExecResult::table(plan_table(select::explain_query_plan(db, &ctes, query)?)))
        }
        Statement::ExplainQuery { analyze: true, query } => {
            // Execute the query, recording the per-operator stage tree,
            // and return the rendered tree (mirrors EXPLAIN ANALYZE for
            // solve statements).
            let trace = statement_trace("SELECT", parse_nanos);
            let (t, fp) = select::run_query_planned(db, &ctes, query, None, Some(&trace))?;
            let qt = trace.finish();
            let mut lines = analyze_lines(&qt, t.num_rows());
            if let Some(f) = fp {
                lines.push(format!("plan fingerprint: {f:016x}"));
            }
            let mut result = ExecResult::table(plan_table(lines)).with_trace(qt);
            result.plan_fingerprint = fp;
            Ok(result)
        }
        Statement::Solve(s) => {
            let handler = db.solve_handler()?;
            let trace = statement_trace("SOLVESELECT", parse_nanos);
            let t = handler.solve_select(db, s, &ctes, Some(&trace))?;
            Ok(ExecResult::table(t).with_trace(trace.finish()))
        }
        Statement::Explain { mode, stmt } => {
            let handler = db.solve_handler()?;
            match mode {
                ExplainMode::Plan | ExplainMode::Check | ExplainMode::Presolve => {
                    Ok(ExecResult::table(handler.explain(db, stmt, &ctes, *mode)?))
                }
                ExplainMode::Analyze => {
                    // Actually execute the solve, recording the stage
                    // tree, and return the rendered tree as the result.
                    let trace = statement_trace("SOLVESELECT", parse_nanos);
                    let rows_out = handler.solve_select(db, stmt, &ctes, Some(&trace))?.num_rows();
                    let qt = trace.finish();
                    Ok(ExecResult::table(plan_table(analyze_lines(&qt, rows_out))).with_trace(qt))
                }
            }
        }
        Statement::ExplainScript { source } => {
            let text = crate::script::resolve_source(source)
                .map_err(|e| Error::eval(format!("EXPLAIN SCRIPT: cannot read '{source}': {e}")))?;
            let snapshot = crate::script::CatalogSnapshot::from_db(db);
            let analysis = crate::script::analyze_sql(&text, &snapshot)?;
            Ok(ExecResult::table(analysis.to_table()))
        }
        Statement::ModelEval { select, model } => {
            let handler = db.solve_handler()?;
            Ok(ExecResult::table(handler.model_eval(db, select, model, &ctes)?))
        }
        Statement::Insert { table, columns, source } => {
            let src = run_query(db, &ctes, source, None)?;
            let target_schema = db.stored_table(table)?.schema().clone();
            // Map source columns to target positions.
            let positions: Vec<usize> = if columns.is_empty() {
                if src.num_columns() > target_schema.len() {
                    return Err(Error::eval(format!(
                        "INSERT has more expressions ({}) than target columns ({})",
                        src.num_columns(),
                        target_schema.len()
                    )));
                }
                (0..src.num_columns()).collect()
            } else {
                if columns.len() != src.num_columns() {
                    return Err(Error::eval("INSERT column list does not match source arity"));
                }
                columns
                    .iter()
                    .map(|c| {
                        target_schema
                            .index_of(c)
                            .ok_or_else(|| Error::bind(format!("no column '{c}' in '{table}'")))
                    })
                    .collect::<Result<_>>()?
            };
            let mut full_rows: Vec<Vec<Value>> = Vec::with_capacity(src.rows.len());
            for row in src.rows {
                let mut full: Vec<Value> = vec![Value::Null; target_schema.len()];
                for (i, v) in row.into_iter().enumerate() {
                    full[positions[i]] = v;
                }
                full_rows.push(full);
            }
            // The single commit point for INSERT: coerces all rows
            // up-front (all-or-nothing) and emits one durability record.
            let n = db.append_rows(table, full_rows)?;
            Ok(ExecResult::count(n))
        }
        // UPDATE and DELETE evaluate everything that can fail — WHERE (over
        // the table's columnar image), the new values, their coercion —
        // against the stored rows, and only then rewrite the table: in
        // place when nothing else holds it, as a copy otherwise.
        Statement::Update { table, assignments, where_ } => {
            let (cols, patches) = {
                let stored = db.stored_table(table)?;
                let schema = stored.schema();
                let scope = Scope::from_schema(Some(table), schema);
                let binder = Binder::new(db, &scope);
                let bound_where = where_.as_ref().map(|w| binder.bind(w)).transpose()?;
                let bound_assign: Vec<(usize, BoundExpr)> = assignments
                    .iter()
                    .map(|(c, e)| {
                        let idx = schema
                            .index_of(c)
                            .ok_or_else(|| Error::bind(format!("no column '{c}' in '{table}'")))?;
                        Ok((idx, binder.bind(e)?))
                    })
                    .collect::<Result<_>>()?;
                let ctx = EvalCtx { db, ctes: &ctes };
                let hits = matching_rows(&ctx, stored, &scope, bound_where.as_ref())?;
                let mut patches: Vec<(usize, Vec<Value>)> = Vec::new();
                for (i, row) in stored.rows().enumerate().filter(|(i, _)| hits[*i]) {
                    // Every assignment sees the *old* row.
                    let env = Env { scope: &scope, row, parent: None };
                    let values = bound_assign
                        .iter()
                        .map(|(idx, e)| coerce(e.eval(&ctx, &env)?, &schema.columns[*idx].ty))
                        .collect::<Result<_>>()?;
                    patches.push((i, values));
                }
                (bound_assign.into_iter().map(|(idx, _)| idx).collect::<Vec<_>>(), patches)
            };
            let n = patches.len();
            db.rewrite_table(table, Rewrite::Update { columns: cols, patches })?;
            Ok(ExecResult::count(n))
        }
        Statement::Delete { table, where_ } => {
            let hits = {
                let stored = db.stored_table(table)?;
                let scope = Scope::from_schema(Some(table), stored.schema());
                let bound_where =
                    where_.as_ref().map(|w| Binder::new(db, &scope).bind(w)).transpose()?;
                let ctx = EvalCtx { db, ctes: &ctes };
                matching_rows(&ctx, stored, &scope, bound_where.as_ref())?
            };
            let n = hits.iter().filter(|hit| **hit).count();
            db.rewrite_table(table, Rewrite::Delete(hits))?;
            Ok(ExecResult::count(n))
        }
        Statement::CreateTable { name, if_not_exists, columns, as_query } => {
            let table = match as_query {
                Some(q) => run_query(db, &ctes, q, None)?,
                None => Table::new(declared_schema(columns)),
            };
            db.create_table(name, table, *if_not_exists)?;
            Ok(ExecResult::done())
        }
        Statement::CreateView { name, or_replace, query } => {
            db.create_view(name, query.clone(), *or_replace)?;
            Ok(ExecResult::done())
        }
        Statement::DropTable { name, if_exists } => {
            db.drop_table(name, *if_exists)?;
            Ok(ExecResult::done())
        }
        Statement::DropView { name, if_exists } => {
            db.drop_view(name, *if_exists)?;
            Ok(ExecResult::done())
        }
        Statement::Checkpoint => {
            let trace = statement_trace("CHECKPOINT", parse_nanos);
            let t = db.checkpoint(Some(&trace))?;
            Ok(ExecResult::table(t).with_trace(trace.finish()))
        }
        Statement::Set { name, value } => match name.as_str() {
            "solver_timeout_ms" => {
                let ms: u64 = value.parse().map_err(|_| {
                    Error::eval(format!(
                        "SET solver_timeout_ms: expected a non-negative integer, got '{value}'"
                    ))
                })?;
                // 0 disables the budget.
                db.set_solver_timeout_ms(if ms == 0 { None } else { Some(ms) });
                Ok(ExecResult::done())
            }
            other => Err(Error::unsupported(format!("unknown session variable '{other}'"))),
        },
        Statement::Cancel { session } => {
            let registry = db.session_registry().ok_or_else(|| {
                Error::eval("CANCEL requires a server session (no session registry attached)")
            })?;
            match registry.get(*session) {
                Some(counters) => {
                    counters.request_kill();
                    Ok(ExecResult::done())
                }
                None => Err(Error::eval(format!("no live session {session}"))),
            }
        }
    }
}
