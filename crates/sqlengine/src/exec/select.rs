//! Query execution: FROM/joins (nested-loop + hash fast path), WHERE,
//! GROUP BY/HAVING with aggregates, DISTINCT, set operations, ORDER
//! BY/LIMIT, CTEs including `WITH RECURSIVE`, LATERAL subqueries.

use crate::ast::*;
use crate::catalog::{Ctes, Database};
use crate::diag::{Diagnostic, Severity};
use crate::error::{Error, Result};
use crate::exec::eval::{Binder, BoundExpr, Env, EvalCtx, Scope};
use crate::exec::head::{limit_offset, resolve_relation, Relation, SelectHead};
use crate::plan::columnar::{batches_to_rows, Batch, BATCH_SIZE};
use crate::plan::exec::{unseen_rows, IteratedPlan};
use crate::plan::PlannedQuery;
use crate::table::{Column as TColumn, Row, Schema, Table};
use crate::types::{BinOp, GroupKey, Value};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Iteration guard for `WITH RECURSIVE`.
const MAX_RECURSION: usize = 1_000_000;

/// Why `plan_select` hands a query back (`Ok(None)`), for EXPLAIN.
const OUTSIDE_PLANNER: &str = "shape outside the planner: no FROM, LATERAL, USING, or SOLVE";

thread_local! {
    /// Advisory findings from solves in subquery position (no warnings
    /// channel reaches there); the statement layer drains this into the
    /// outer `ExecResult` so nested diagnostics are not dropped.
    static NESTED_SOLVE_WARNINGS: RefCell<Vec<Diagnostic>> = const { RefCell::new(Vec::new()) };
    /// Bench / differential-test hook: bypass the columnar executor.
    static FORCE_ROW: Cell<bool> = const { Cell::new(false) };
    /// Plan-cache outcome of the most recent cache-eligible query on
    /// this thread: `Some(true)` = hit, `Some(false)` = planned fresh.
    /// The statement layer drains this into `ExecResult`.
    static PLAN_CACHE_EVENT: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Drain the plan-cache hit/miss event recorded by the most recent
/// cache-eligible query on this thread.
pub fn take_plan_cache_event() -> Option<bool> {
    PLAN_CACHE_EVENT.with(|c| c.take())
}

/// Drain advisory diagnostics parked by solves executed in subquery
/// position since the last drain (thread-local).
pub fn take_nested_solve_warnings() -> Vec<Diagnostic> {
    NESTED_SOLVE_WARNINGS.with(|w| std::mem::take(&mut *w.borrow_mut()))
}

pub(crate) fn park_nested_solve_warnings(warnings: Vec<Diagnostic>) {
    if !warnings.is_empty() {
        NESTED_SOLVE_WARNINGS.with(|w| w.borrow_mut().extend(warnings));
    }
}

/// Force the row interpreter for queries run on this thread (bench and
/// differential-test hook). Returns the previous setting.
pub fn set_force_row_interpreter(on: bool) -> bool {
    FORCE_ROW.with(|f| f.replace(on))
}

pub(crate) fn force_row_interpreter() -> bool {
    FORCE_ROW.with(|f| f.get())
}

/// Execute a query and materialize the result.
pub fn run_query(db: &Database, ctes: &Ctes, q: &Query, outer: Option<&Env<'_>>) -> Result<Table> {
    run_query_planned(db, ctes, q, outer, None).map(|(t, _)| t)
}

/// Materialize the `WITH` members of `q` in order on top of `ctes`, each
/// seeing the ones before it. Borrows `ctes` as-is when there is nothing
/// to add. `notes`, when given, receives one line per recursive member
/// saying how its recursive term ran (`EXPLAIN SELECT`).
fn with_ctes<'c>(
    db: &Database,
    ctes: &'c Ctes,
    q: &Query,
    outer: Option<&Env<'_>>,
    mut notes: Option<&mut Vec<String>>,
) -> Result<Cow<'c, Ctes>> {
    let mut env = Cow::Borrowed(ctes);
    for cte in &q.with {
        let table = if q.recursive && query_references(&cte.query, &cte.name) {
            let (table, how) = run_recursive_cte(db, &env, cte, outer)?;
            if let Some(notes) = notes.as_deref_mut() {
                notes.push(format!("recursive CTE {}: {how}", cte.name));
            }
            table
        } else {
            let mut t = run_query(db, &env, &cte.query, outer)?;
            rename_columns(&mut t, &cte.columns)?;
            t
        };
        env.to_mut().insert(&cte.name, Arc::new(table));
    }
    Ok(env)
}

/// Execute a query, routing plannable `SELECT` blocks through the
/// columnar executor (`plan` module): the query's own body when it is a
/// plain `SELECT`, otherwise the plain-`SELECT` arms of its set
/// operation. Returns the optimized-plan fingerprint when the columnar
/// path ran the body, `None` when the row interpreter handled (or
/// assembled) the query. `trace`, when given, receives per-operator spans
/// (EXPLAIN ANALYZE).
///
/// An `outer` chain in which no scope has a column — the subqueries of a
/// FROM-less `SELECT` — has nothing to correlate with and counts as none.
pub fn run_query_planned(
    db: &Database,
    ctes: &Ctes,
    q: &Query,
    outer: Option<&Env<'_>>,
    trace: Option<&obs::Trace>,
) -> Result<(Table, Option<u64>)> {
    let outer = outer.filter(|o| o.has_columns());
    let env_ctes = with_ctes(db, ctes, q, outer, None)?;
    if let SetExpr::Select(sel) = &q.body {
        return run_select_planned(
            db,
            &env_ctes,
            sel,
            outer,
            &q.order_by,
            &q.limit,
            &q.offset,
            trace,
        );
    }
    let span = trace.map(|tr| tr.span("row interpreter"));
    let t = run_query_rows(db, &env_ctes, q, outer)?;
    if let Some(s) = &span {
        s.rows(t.num_rows() as u64);
    }
    Ok((t, None))
}

/// Run one `SELECT` block — the body of a query or an arm of a set
/// operation — on the columnar executor when the planner takes it, else
/// on the row interpreter. Planning failures (unsupported shapes) fall
/// back; execution errors are genuine and surface.
#[allow(clippy::too_many_arguments)]
fn run_select_planned(
    db: &Database,
    ctes: &Ctes,
    sel: &Select,
    outer: Option<&Env<'_>>,
    order_by: &[OrderItem],
    limit: &Option<Expr>,
    offset: &Option<Expr>,
    trace: Option<&obs::Trace>,
) -> Result<(Table, Option<u64>)> {
    if outer.is_none() && !force_row_interpreter() {
        if let Ok(Some((planned, cache_hit))) = db.plan_cached(ctes, sel, order_by, limit, offset) {
            if cache_hit.is_some() {
                PLAN_CACHE_EVENT.with(|c| c.set(cache_hit));
            }
            let t = crate::plan::execute(db, ctes, &planned, trace)?;
            return Ok((t, Some(planned.fingerprint())));
        }
    }
    let span = trace.map(|tr| tr.span("row interpreter"));
    let t = run_select(db, ctes, sel, outer, order_by, limit, offset)?;
    if let Some(s) = &span {
        s.rows(t.num_rows() as u64);
    }
    Ok((t, None))
}

/// Render the optimized plan for `EXPLAIN SELECT` — or a one-line
/// explanation of why the query stays on the row interpreter — after one
/// line per recursive CTE; a set operation renders each of its arms.
/// CTEs are materialized first (the planner takes slot schemas and
/// estimates from their bindings).
pub fn explain_query_plan(db: &Database, ctes: &Ctes, q: &Query) -> Result<Vec<String>> {
    let mut lines = Vec::new();
    let env_ctes = with_ctes(db, ctes, q, None, Some(&mut lines))?;
    match &q.body {
        SetExpr::Select(sel) => {
            lines.extend(explain_select(db, &env_ctes, sel, &q.order_by, &q.limit, &q.offset));
        }
        body => {
            let tail = match (q.order_by.is_empty(), q.limit.is_some() || q.offset.is_some()) {
                (true, false) => "",
                (false, false) => ", then ORDER BY",
                (true, true) => ", then LIMIT/OFFSET",
                (false, true) => ", then ORDER BY and LIMIT/OFFSET",
            };
            lines.push(format!("row interpreter assembles the arms below{tail}"));
            explain_arms(db, &env_ctes, body, "", &mut lines)?;
        }
    }
    Ok(lines)
}

/// The plan of one `SELECT` block, or why it has none.
fn explain_select(
    db: &Database,
    ctes: &Ctes,
    sel: &Select,
    order_by: &[OrderItem],
    limit: &Option<Expr>,
    offset: &Option<Expr>,
) -> Vec<String> {
    match crate::plan::plan_select(db, ctes, sel, order_by, limit, offset) {
        Ok(Some(p)) => p.explain_lines(),
        Ok(None) => vec![format!("row interpreter ({OUTSIDE_PLANNER})")],
        Err(e) => vec![format!("row interpreter (planning fell back: {e})")],
    }
}

/// One entry per arm of a set-operation body, indented under its
/// operator: the arm's plan, or how else it runs.
fn explain_arms(
    db: &Database,
    ctes: &Ctes,
    body: &SetExpr,
    indent: &str,
    lines: &mut Vec<String>,
) -> Result<()> {
    let inner = format!("{indent}  ");
    let arm = match body {
        SetExpr::SetOp { op, all, left, right } => {
            let op = match op {
                SetOp::Union => "UNION",
                SetOp::Intersect => "INTERSECT",
                SetOp::Except => "EXCEPT",
            };
            lines.push(format!("{indent}{op}{}", if *all { " ALL" } else { "" }));
            explain_arms(db, ctes, left, &inner, lines)?;
            return explain_arms(db, ctes, right, &inner, lines);
        }
        SetExpr::Select(sel) => explain_select(db, ctes, sel, &[], &None, &None),
        SetExpr::Query(q) => explain_query_plan(db, ctes, q)?,
        SetExpr::Values(_) => vec!["row interpreter (VALUES)".to_string()],
        SetExpr::Solve(_) => vec!["solver (SOLVESELECT)".to_string()],
    };
    lines.push(format!("{indent}arm:"));
    lines.extend(arm.into_iter().map(|l| format!("{inner}{l}")));
    Ok(())
}

/// The original row-at-a-time path (CTEs already materialized into
/// `env_ctes` by the caller).
fn run_query_rows(
    db: &Database,
    env_ctes: &Ctes,
    q: &Query,
    outer: Option<&Env<'_>>,
) -> Result<Table> {
    match &q.body {
        SetExpr::Select(sel) => {
            run_select(db, env_ctes, sel, outer, &q.order_by, &q.limit, &q.offset)
        }
        body => {
            let mut t = run_set_expr(db, env_ctes, body, outer)?;
            // ORDER BY over set-op output binds against output columns.
            if !q.order_by.is_empty() {
                let scope = Scope::from_schema(None, &t.schema);
                let ctx = EvalCtx { db, ctes: env_ctes };
                let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(t.rows.len());
                let bound: Vec<(BoundExpr, &OrderItem)> = q
                    .order_by
                    .iter()
                    .map(|o| {
                        let b = bind_order_expr(db, &o.expr, &scope, &t.schema, outer)?;
                        Ok((b, o))
                    })
                    .collect::<Result<Vec<_>>>()?;
                for row in std::mem::take(&mut t.rows) {
                    let env = Env { scope: &scope, row: &row, parent: outer };
                    let keys = bound
                        .iter()
                        .map(|(b, _)| b.eval(&ctx, &env))
                        .collect::<Result<Vec<_>>>()?;
                    keyed.push((keys, row));
                }
                sort_keyed(&mut keyed, &q.order_by);
                t.rows = keyed.into_iter().map(|(_, r)| r).collect();
            }
            apply_limit_offset(db, env_ctes, &mut t, &q.limit, &q.offset)?;
            Ok(t)
        }
    }
}

fn bind_order_expr(
    db: &Database,
    expr: &Expr,
    scope: &Scope,
    schema: &Schema,
    _outer: Option<&Env<'_>>,
) -> Result<BoundExpr> {
    // Positional reference: ORDER BY 2.
    if let Expr::Literal(Literal::Int(i)) = expr {
        let idx = *i - 1;
        if idx < 0 || idx as usize >= schema.len() {
            return Err(Error::bind(format!("ORDER BY position {i} is out of range")));
        }
        return Ok(BoundExpr::Column { depth: 0, index: idx as usize });
    }
    let binder = Binder::new(db, scope);
    binder.bind(expr)
}

pub(crate) fn sort_keyed(rows: &mut [(Vec<Value>, Row)], order: &[OrderItem]) {
    rows.sort_by(|(ka, _), (kb, _)| {
        for (i, item) in order.iter().enumerate() {
            let (a, b) = (&ka[i], &kb[i]);
            // NULLS FIRST/LAST overrides; default: last for ASC, first for DESC.
            let nulls_first = item.nulls_first.unwrap_or(item.desc);
            let ord = match (a.is_null(), b.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => {
                    if nulls_first {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                }
                (false, true) => {
                    if nulls_first {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Less
                    }
                }
                (false, false) => {
                    let o = a.cmp_total(b);
                    if item.desc {
                        o.reverse()
                    } else {
                        o
                    }
                }
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn apply_limit_offset(
    db: &Database,
    ctes: &Ctes,
    t: &mut Table,
    limit: &Option<Expr>,
    offset: &Option<Expr>,
) -> Result<()> {
    let (limit, offset) = limit_offset(db, ctes, limit, offset)?;
    if let Some(n) = offset {
        t.rows.drain(..n.min(t.rows.len()));
    }
    if let Some(n) = limit {
        t.rows.truncate(n);
    }
    Ok(())
}

fn rename_columns(t: &mut Table, names: &[String]) -> Result<()> {
    if names.is_empty() {
        return Ok(());
    }
    if names.len() > t.schema.len() {
        return Err(Error::bind(format!(
            "column alias list has {} entries but result has {} columns",
            names.len(),
            t.schema.len()
        )));
    }
    for (i, n) in names.iter().enumerate() {
        t.schema.columns[i].name = n.clone();
    }
    Ok(())
}

/// Does a query reference a relation named `name` (for recursive-CTE
/// detection)? Conservative: scans FROM clauses and nested queries.
pub fn query_references(q: &Query, name: &str) -> bool {
    fn set_refs(s: &SetExpr, name: &str) -> bool {
        match s {
            SetExpr::Select(sel) => {
                sel.from.iter().any(|t| table_refs(t, name))
                    || sel.where_.as_ref().map_or(false, |e| expr_refs(e, name))
                    || sel.projection.iter().any(|p| match p {
                        SelectItem::Expr { expr, .. } => expr_refs(expr, name),
                        _ => false,
                    })
            }
            SetExpr::Query(q) => query_references(q, name),
            SetExpr::SetOp { left, right, .. } => set_refs(left, name) || set_refs(right, name),
            SetExpr::Values(_) => false,
            // SOLVESELECT bodies are opaque here (conservatively false:
            // recursive CTEs over solve bodies are unsupported anyway).
            SetExpr::Solve(_) => false,
        }
    }
    fn table_refs(t: &TableRef, name: &str) -> bool {
        match t {
            TableRef::Named { name: n, .. } => n == name,
            TableRef::Subquery { query, .. } => query_references(query, name),
            TableRef::Join { left, right, .. } => table_refs(left, name) || table_refs(right, name),
        }
    }
    fn expr_refs(e: &Expr, name: &str) -> bool {
        let mut found = false;
        e.walk(&mut |node| match node {
            Expr::ScalarSubquery(q) => found |= query_references(q, name),
            Expr::InSubquery { query, .. } => found |= query_references(query, name),
            Expr::Exists { query, .. } => found |= query_references(query, name),
            _ => {}
        });
        found
    }
    // CTEs of q may shadow `name`; ignore that nicety (conservative).
    set_refs(&q.body, name)
}

/// Plan the recursive term of CTE `name` once, against the first binding
/// of its working table in `step_ctes`. `Err` carries the reason the row
/// interpreter has to evaluate the term instead.
fn plan_recursive_term(
    db: &Database,
    step_ctes: &Ctes,
    term: &Query,
    name: &str,
    outer: Option<&Env<'_>>,
) -> std::result::Result<Arc<PlannedQuery>, String> {
    if outer.is_some() {
        return Err("correlated with an outer query".to_string());
    }
    if force_row_interpreter() {
        return Err("row interpreter forced".to_string());
    }
    let SetExpr::Select(sel) = &term.body else {
        return Err("recursive term is not a plain SELECT".to_string());
    };
    match db.plan_cached(step_ctes, sel, &[], &None, &None) {
        // Rows captured at plan time would go stale with the first step.
        Ok(Some((p, _))) if p.captured_reads.contains(name) => {
            Err("a FROM subquery or view reads the recursive relation".to_string())
        }
        Ok(Some((p, _))) => Ok(p),
        Ok(None) => Err(OUTSIDE_PLANNER.to_string()),
        Err(e) => Err(format!("planning fell back: {e}")),
    }
}

/// Execute a recursive CTE per the SQL standard's iterate-to-fixpoint
/// semantics. The recursive term is planned once; every step executes
/// that plan on the batches the step before it produced, keeping what
/// the working table does not feed, and rows are materialized once, when
/// the recursion ends. Terms the planner refuses run on the row
/// interpreter, their working table bound as a CTE. Also returns how the
/// term ran, for `EXPLAIN SELECT`.
fn run_recursive_cte(
    db: &Database,
    ctes: &Ctes,
    cte: &Cte,
    outer: Option<&Env<'_>>,
) -> Result<(Table, String)> {
    let SetExpr::SetOp { op: SetOp::Union, all, left, right } = &cte.query.body else {
        return Err(Error::unsupported(
            "recursive CTE must have the form <anchor> UNION [ALL] <recursive term>",
        ));
    };
    let bare = |body: &SetExpr| Query {
        with: vec![],
        recursive: false,
        body: body.clone(),
        order_by: vec![],
        limit: None,
        offset: None,
    };
    let mut result = run_query(db, ctes, &bare(left), outer)?;
    rename_columns(&mut result, &cte.columns)?;
    let schema = result.schema.clone();

    let mut seen: HashMap<Vec<GroupKey>, ()> = HashMap::new();
    if !all {
        let mut deduped = Vec::new();
        for row in std::mem::take(&mut result.rows) {
            let key: Vec<GroupKey> = row.iter().map(|v| v.group_key()).collect();
            if seen.insert(key, ()).is_none() {
                deduped.push(row);
            }
        }
        result.rows = deduped;
    }
    if result.rows.is_empty() {
        return Ok((result, "no steps (empty anchor)".to_string()));
    }

    let working_table = |rows: Vec<Row>| Arc::new(Table::with_rows(schema.clone(), rows));
    let mut step_ctes = ctes.with(&cte.name, working_table(result.rows.clone()));
    let rec_q = bare(right);
    let plan = plan_recursive_term(db, &step_ctes, &rec_q, &cte.name, outer);

    // Both guards of one step: the iteration caps before it runs, the
    // width of what it returned after.
    let capped = |steps: usize, rows: usize| {
        if steps <= MAX_RECURSION && rows <= MAX_RECURSION {
            return Ok(());
        }
        Err(Error::eval(format!("recursive CTE '{}' exceeded the iteration limit", cte.name)))
    };
    let same_width = |columns: usize| {
        if columns == schema.len() {
            return Ok(());
        }
        Err(Error::eval(format!(
            "recursive term of '{}' returns {columns} columns, expected {}",
            cte.name,
            schema.len()
        )))
    };

    let mut steps = 0usize;
    let (reused, how) = match &plan {
        Ok(term) => {
            let mut plan = IteratedPlan::new(term, &cte.name);
            // Only subqueries look the working table up by name.
            let by_name = term.root.has_subquery();
            // Every batch of the relation so far; the working table is
            // the tail the last step added.
            let mut batches: Vec<Batch> =
                result.rows.chunks(BATCH_SIZE).map(|c| Batch::from_rows(c, None)).collect();
            let anchor = batches.len();
            let (mut working, mut total) = (0, result.rows.len());
            while working < batches.len() {
                steps += 1;
                capped(steps, total)?;
                let mut new = plan.step(db, &step_ctes, &batches[working..])?;
                same_width(term.visible)?;
                if !all {
                    new = unseen_rows(&new, schema.len(), &mut seen);
                }
                new.retain(|b| b.len > 0);
                total += new.iter().map(|b| b.len).sum::<usize>();
                if by_name && !new.is_empty() {
                    step_ctes.insert(&cte.name, working_table(batches_to_rows(&new)));
                }
                working = batches.len();
                batches.extend(new);
            }
            result.rows.extend(batches_to_rows(&batches[anchor..]));
            if plan.keeps_builds() {
                (plan.builds_reused(), "planned once, build side reused".to_string())
            } else {
                (0, "planned once".to_string())
            }
        }
        Err(why) => {
            let mut working_rows = result.rows.len();
            while working_rows > 0 {
                steps += 1;
                capped(steps, result.rows.len())?;
                let step = run_query_rows(db, &step_ctes, &rec_q, outer)?;
                same_width(step.num_columns())?;
                let mut new_rows = step.rows;
                if !all {
                    new_rows.retain(|row| {
                        let key: Vec<GroupKey> = row.iter().map(|v| v.group_key()).collect();
                        seen.insert(key, ()).is_none()
                    });
                }
                result.rows.extend(new_rows.iter().cloned());
                working_rows = new_rows.len();
                step_ctes.insert(&cte.name, working_table(new_rows));
            }
            (0, format!("row interpreter ({why})"))
        }
    };
    db.count_recursion(steps as u64, reused);
    Ok((result, how))
}

fn run_set_expr(
    db: &Database,
    ctes: &Ctes,
    body: &SetExpr,
    outer: Option<&Env<'_>>,
) -> Result<Table> {
    match body {
        SetExpr::Select(sel) => {
            run_select_planned(db, ctes, sel, outer, &[], &None, &None, None).map(|(t, _)| t)
        }
        SetExpr::Solve(stmt) => {
            let handler = db.solve_handler()?;
            // Subquery position has no warnings channel; park advisory
            // findings in the thread-local drained by the statement
            // layer so they reach the outer ExecResult.
            let mut warnings = Vec::new();
            let t = handler.solve_select(db, stmt, ctes, &mut warnings, None)?;
            warnings.retain(|d| d.severity <= Severity::Warning);
            park_nested_solve_warnings(warnings);
            Ok(t)
        }
        SetExpr::Query(q) => run_query(db, ctes, q, outer),
        SetExpr::Values(rows) => run_values(db, ctes, rows, outer),
        SetExpr::SetOp { op, all, left, right } => {
            let l = run_set_expr(db, ctes, left, outer)?;
            let r = run_set_expr(db, ctes, right, outer)?;
            if l.num_columns() != r.num_columns() {
                return Err(Error::eval(format!(
                    "set operation column mismatch: {} vs {}",
                    l.num_columns(),
                    r.num_columns()
                )));
            }
            let schema = unify_schemas(&l.schema, &r.schema)?;
            let key_of =
                |row: &Row| -> Vec<GroupKey> { row.iter().map(|v| v.group_key()).collect() };
            let rows = match (op, all) {
                (SetOp::Union, true) => {
                    let mut rows = l.rows;
                    rows.extend(r.rows);
                    rows
                }
                (SetOp::Union, false) => {
                    let mut seen = HashMap::new();
                    let mut rows = Vec::new();
                    for row in l.rows.into_iter().chain(r.rows) {
                        if seen.insert(key_of(&row), ()).is_none() {
                            rows.push(row);
                        }
                    }
                    rows
                }
                (SetOp::Intersect, all) => {
                    let mut counts: HashMap<Vec<GroupKey>, usize> = HashMap::new();
                    for row in &r.rows {
                        *counts.entry(key_of(row)).or_insert(0) += 1;
                    }
                    let mut rows = Vec::new();
                    let mut emitted: HashMap<Vec<GroupKey>, usize> = HashMap::new();
                    for row in l.rows {
                        let k = key_of(&row);
                        let avail = counts.get(&k).copied().unwrap_or(0);
                        let used = emitted.entry(k).or_insert(0);
                        let cap = if *all { avail } else { avail.min(1) };
                        if *used < cap {
                            *used += 1;
                            rows.push(row);
                        }
                    }
                    rows
                }
                (SetOp::Except, all) => {
                    let mut counts: HashMap<Vec<GroupKey>, usize> = HashMap::new();
                    for row in &r.rows {
                        *counts.entry(key_of(row)).or_insert(0) += 1;
                    }
                    let mut rows = Vec::new();
                    let mut emitted: HashMap<Vec<GroupKey>, usize> = HashMap::new();
                    for row in l.rows {
                        let k = key_of(&row);
                        let removed = counts.get(&k).copied().unwrap_or(0);
                        let e = emitted.entry(k).or_insert(0);
                        if *all {
                            // multiset difference
                            if *e < removed {
                                *e += 1;
                            } else {
                                rows.push(row);
                            }
                        } else if removed == 0 && *e == 0 {
                            *e += 1;
                            rows.push(row);
                        }
                    }
                    rows
                }
            };
            Ok(Table::with_rows(schema, rows))
        }
    }
}

fn unify_schemas(l: &Schema, r: &Schema) -> Result<Schema> {
    let mut cols = Vec::with_capacity(l.len());
    for (a, b) in l.columns.iter().zip(&r.columns) {
        cols.push(TColumn::new(a.name.clone(), a.ty.unify(&b.ty)?));
    }
    Ok(Schema::new(cols))
}

fn run_values(
    db: &Database,
    ctes: &Ctes,
    rows: &[Vec<Expr>],
    outer: Option<&Env<'_>>,
) -> Result<Table> {
    let ncols = rows.first().map(|r| r.len()).unwrap_or(0);
    let scope = Scope::default();
    let ctx = EvalCtx { db, ctes };
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != ncols {
            return Err(Error::eval("VALUES rows must all have the same arity"));
        }
        let binder = match outer {
            Some(o) => Binder::with_outer(db, &scope, Some(o)),
            None => Binder::new(db, &scope),
        };
        let mut vals = Vec::with_capacity(row.len());
        for e in row {
            let b = binder.bind(e)?;
            let env = match outer {
                Some(o) => Env { scope: &scope, row: &[], parent: Some(o) },
                None => Env::empty(),
            };
            vals.push(b.eval(&ctx, &env)?);
        }
        out_rows.push(vals);
    }
    let names: Vec<String> = (1..=ncols).map(|i| format!("column{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    Ok(Table::from_rows(&name_refs, out_rows))
}

// ---------------------------------------------------------------------------
// FROM clause
// ---------------------------------------------------------------------------

/// Materialized relation with its scope.
pub struct Rel {
    pub scope: Scope,
    pub rows: Vec<Row>,
}

/// Scan a named relation: a copy of its rows under the FROM item's scope.
fn scan_named(
    db: &Database,
    ctes: &Ctes,
    name: &str,
    alias: Option<&TableAlias>,
    outer: Option<&Env<'_>>,
) -> Result<Rel> {
    let t: Cow<'_, Table> = match resolve_relation(db, ctes, name)? {
        Relation::Cte(t) => Cow::Borrowed(t.as_ref()),
        Relation::Table(t) => Cow::Borrowed(t.table().as_ref()),
        Relation::View(vq) => Cow::Owned(run_query(db, ctes, vq, outer)?),
        Relation::Virtual(t) => Cow::Owned(t),
    };
    let mut scope = Scope::from_schema(Some(alias.map_or(name, |a| a.name.as_str())), &t.schema);
    apply_alias_columns(&mut scope, alias)?;
    let rows = match t {
        Cow::Borrowed(t) => t.rows.clone(),
        Cow::Owned(t) => t.rows,
    };
    Ok(Rel { scope, rows })
}

pub(crate) fn apply_alias_columns(scope: &mut Scope, alias: Option<&TableAlias>) -> Result<()> {
    if let Some(a) = alias {
        if !a.columns.is_empty() {
            if a.columns.len() > scope.cols.len() {
                return Err(Error::bind(format!(
                    "alias '{}' has {} columns but relation has {}",
                    a.name,
                    a.columns.len(),
                    scope.cols.len()
                )));
            }
            for (i, n) in a.columns.iter().enumerate() {
                scope.cols[i].name = n.clone();
            }
        }
    }
    Ok(())
}

/// Evaluate one table primary. For LATERAL subqueries `left` provides the
/// rows already in scope; the result is produced per left row by the
/// caller instead.
fn eval_table_primary(
    db: &Database,
    ctes: &Ctes,
    tref: &TableRef,
    outer: Option<&Env<'_>>,
) -> Result<Rel> {
    match tref {
        TableRef::Named { name, alias } => scan_named(db, ctes, name, alias.as_ref(), outer),
        TableRef::Subquery { query, lateral: _, alias } => {
            let t = run_query(db, ctes, query, outer)?;
            let qualifier = alias.as_ref().map(|a| a.name.as_str());
            let mut scope = Scope::from_schema(qualifier, &t.schema);
            apply_alias_columns(&mut scope, alias.as_ref())?;
            Ok(Rel { scope, rows: t.rows })
        }
        TableRef::Join { .. } => eval_join(db, ctes, tref, outer),
    }
}

fn is_lateral(t: &TableRef) -> bool {
    matches!(t, TableRef::Subquery { lateral: true, .. })
}

/// Evaluate a join tree.
fn eval_join(db: &Database, ctes: &Ctes, tref: &TableRef, outer: Option<&Env<'_>>) -> Result<Rel> {
    let TableRef::Join { left, right, kind, constraint } = tref else {
        return eval_table_primary(db, ctes, tref, outer);
    };
    let l = eval_join(db, ctes, left, outer)?;

    // LATERAL right side: evaluate per left row.
    if is_lateral(right) {
        let TableRef::Subquery { query, alias, .. } = right.as_ref() else { unreachable!() };
        let qualifier = alias.as_ref().map(|a| a.name.as_str());
        let mut right_scope: Option<Scope> = None;
        let mut out_rows: Vec<Row> = Vec::new();
        let mut pending: Vec<(Row, Vec<Row>)> = Vec::new();
        for lrow in &l.rows {
            let env = Env { scope: &l.scope, row: lrow, parent: outer };
            let t = run_query(db, ctes, query, Some(&env))?;
            if right_scope.is_none() {
                let mut s = Scope::from_schema(qualifier, &t.schema);
                apply_alias_columns(&mut s, alias.as_ref())?;
                right_scope = Some(s);
            }
            pending.push((lrow.clone(), t.rows));
        }
        let right_scope = match right_scope {
            Some(s) => s,
            None => {
                // No left rows: derive the scope by running the subquery
                // against an all-NULL left row so the schema is known.
                let null_row: Row = vec![Value::Null; l.scope.cols.len()];
                let env = Env { scope: &l.scope, row: &null_row, parent: outer };
                let t = run_query(db, ctes, query, Some(&env))?;
                let mut s = Scope::from_schema(qualifier, &t.schema);
                apply_alias_columns(&mut s, alias.as_ref())?;
                s
            }
        };
        let combined = l.scope.join(&right_scope);
        let cond = bind_join_condition(db, constraint, &l.scope, &right_scope, &combined, outer)?;
        let ctx = EvalCtx { db, ctes };
        for (lrow, rrows) in pending {
            let mut matched = false;
            for rrow in &rrows {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                if eval_condition(&cond, &ctx, &combined, &row, outer)? {
                    matched = true;
                    out_rows.push(row);
                }
            }
            if !matched && matches!(kind, JoinKind::Left) {
                let mut row = lrow.clone();
                row.extend(vec![Value::Null; right_scope.cols.len()]);
                out_rows.push(row);
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            return Err(Error::unsupported("RIGHT/FULL JOIN LATERAL"));
        }
        return Ok(Rel { scope: combined, rows: out_rows });
    }

    let r = eval_join(db, ctes, right, outer)?;
    join_rels(db, ctes, l, r, *kind, constraint, outer)
}

enum JoinCond {
    None,
    Expr(BoundExpr),
}

fn bind_join_condition(
    db: &Database,
    constraint: &JoinConstraint,
    _left: &Scope,
    _right: &Scope,
    combined: &Scope,
    outer: Option<&Env<'_>>,
) -> Result<JoinCond> {
    match constraint {
        JoinConstraint::None => Ok(JoinCond::None),
        JoinConstraint::On(e) => {
            let binder = Binder::with_outer(db, combined, outer);
            Ok(JoinCond::Expr(binder.bind(e)?))
        }
        // USING joins take the hash-join path before a condition is
        // ever bound, so a bound USING condition is unreachable here.
        JoinConstraint::Using(_) => Ok(JoinCond::None),
    }
}

fn eval_condition(
    cond: &JoinCond,
    ctx: &EvalCtx<'_>,
    scope: &Scope,
    row: &Row,
    outer: Option<&Env<'_>>,
) -> Result<bool> {
    match cond {
        JoinCond::None => Ok(true),
        JoinCond::Expr(b) => {
            let env = Env { scope, row, parent: outer };
            Ok(b.eval(ctx, &env)?.as_bool()? == Some(true))
        }
    }
}

/// Try to extract equi-join keys from an ON conjunction:
/// every conjunct must be `l = r` with one side fully in the left scope
/// and the other fully in the right scope.
pub(crate) fn try_equi_keys(
    db: &Database,
    e: &Expr,
    left: &Scope,
    right: &Scope,
) -> Option<(Vec<BoundExpr>, Vec<BoundExpr>)> {
    fn collect<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::BinOp { op: BinOp::And, lhs, rhs } = e {
            collect(lhs, out);
            collect(rhs, out);
        } else {
            out.push(e);
        }
    }
    let mut conjuncts = Vec::new();
    collect(e, &mut conjuncts);
    let mut lkeys = Vec::new();
    let mut rkeys = Vec::new();
    for c in conjuncts {
        let Expr::BinOp { op: BinOp::Eq, lhs, rhs } = c else { return None };
        let lb = Binder::new(db, left);
        let rb = Binder::new(db, right);
        // lhs∈left, rhs∈right — or swapped.
        if let (Ok(a), Ok(b)) = (lb.bind(lhs), rb.bind(rhs)) {
            if !bound_uses_outer(&a) && !bound_uses_outer(&b) {
                lkeys.push(a);
                rkeys.push(b);
                continue;
            }
        }
        if let (Ok(a), Ok(b)) = (lb.bind(rhs), rb.bind(lhs)) {
            if !bound_uses_outer(&a) && !bound_uses_outer(&b) {
                lkeys.push(a);
                rkeys.push(b);
                continue;
            }
        }
        return None;
    }
    Some((lkeys, rkeys))
}

fn bound_uses_outer(b: &BoundExpr) -> bool {
    // Subqueries may correlate arbitrarily; treat them as outer-using.
    match b {
        BoundExpr::Column { depth, .. } => *depth > 0,
        BoundExpr::Const(_) => false,
        BoundExpr::BinOp { lhs, rhs, .. } => bound_uses_outer(lhs) || bound_uses_outer(rhs),
        BoundExpr::UnOp { expr, .. } => bound_uses_outer(expr),
        BoundExpr::Chain { first, rest } => {
            bound_uses_outer(first) || rest.iter().any(|(_, e)| bound_uses_outer(e))
        }
        BoundExpr::Builtin { args, .. } | BoundExpr::Udf { args, .. } => {
            args.iter().any(bound_uses_outer)
        }
        BoundExpr::Cast { expr, .. } => bound_uses_outer(expr),
        BoundExpr::Case { operand, branches, else_ } => {
            operand.as_deref().map_or(false, bound_uses_outer)
                || branches.iter().any(|(c, r)| bound_uses_outer(c) || bound_uses_outer(r))
                || else_.as_deref().map_or(false, bound_uses_outer)
        }
        BoundExpr::IsNull { expr, .. } => bound_uses_outer(expr),
        BoundExpr::InList { expr, list, .. } => {
            bound_uses_outer(expr) || list.iter().any(bound_uses_outer)
        }
        BoundExpr::Between { expr, low, high, .. } => {
            bound_uses_outer(expr) || bound_uses_outer(low) || bound_uses_outer(high)
        }
        BoundExpr::Like { expr, pattern, .. } => {
            bound_uses_outer(expr) || bound_uses_outer(pattern)
        }
        BoundExpr::ScalarSubquery(_)
        | BoundExpr::InSubquery { .. }
        | BoundExpr::Exists { .. }
        | BoundExpr::SolveModel(_) => true,
    }
}

/// Join two materialized relations. Equi-joins (ON conjunction of
/// equalities, or USING) take a hash-join path; everything else falls
/// back to a nested loop.
pub fn join_rels(
    db: &Database,
    ctes: &Ctes,
    l: Rel,
    r: Rel,
    kind: JoinKind,
    constraint: &JoinConstraint,
    outer: Option<&Env<'_>>,
) -> Result<Rel> {
    let combined = l.scope.join(&r.scope);
    let ctx = EvalCtx { db, ctes };

    // Hash-join path.
    let keys =
        match constraint {
            JoinConstraint::Using(cols) => {
                let mut lk = Vec::new();
                let mut rk = Vec::new();
                for c in cols {
                    let li = l.scope.resolve(None, c)?.ok_or_else(|| {
                        Error::bind(format!("USING column '{c}' not in left side"))
                    })?;
                    let ri = r.scope.resolve(None, c)?.ok_or_else(|| {
                        Error::bind(format!("USING column '{c}' not in right side"))
                    })?;
                    lk.push(BoundExpr::Column { depth: 0, index: li });
                    rk.push(BoundExpr::Column { depth: 0, index: ri });
                }
                Some((lk, rk))
            }
            JoinConstraint::On(e) if !matches!(kind, JoinKind::Cross) => {
                try_equi_keys(db, e, &l.scope, &r.scope)
            }
            _ => None,
        };

    if let Some((lkeys, rkeys)) = keys {
        return hash_join(&ctx, l, r, combined, kind, &lkeys, &rkeys, outer);
    }

    // Nested loop.
    let cond = bind_join_condition(db, constraint, &l.scope, &r.scope, &combined, outer)?;
    let mut rows = Vec::new();
    let mut right_matched = vec![false; r.rows.len()];
    for lrow in &l.rows {
        let mut matched = false;
        for (ri, rrow) in r.rows.iter().enumerate() {
            let mut row = lrow.clone();
            row.extend(rrow.iter().cloned());
            if eval_condition(&cond, &ctx, &combined, &row, outer)? {
                matched = true;
                right_matched[ri] = true;
                rows.push(row);
            }
        }
        if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
            let mut row = lrow.clone();
            row.extend(vec![Value::Null; r.scope.cols.len()]);
            rows.push(row);
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, rrow) in r.rows.iter().enumerate() {
            if !right_matched[ri] {
                let mut row = vec![Value::Null; l.scope.cols.len()];
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
        }
    }
    Ok(Rel { scope: combined, rows })
}

#[allow(clippy::too_many_arguments)]
fn hash_join(
    ctx: &EvalCtx<'_>,
    l: Rel,
    r: Rel,
    combined: Scope,
    kind: JoinKind,
    lkeys: &[BoundExpr],
    rkeys: &[BoundExpr],
    outer: Option<&Env<'_>>,
) -> Result<Rel> {
    // Build on the right side.
    let mut table: HashMap<Vec<GroupKey>, Vec<usize>> = HashMap::new();
    let mut right_key_null = vec![false; r.rows.len()];
    for (ri, rrow) in r.rows.iter().enumerate() {
        let env = Env { scope: &r.scope, row: rrow, parent: outer };
        let mut key = Vec::with_capacity(rkeys.len());
        let mut has_null = false;
        for k in rkeys {
            let v = k.eval(ctx, &env)?;
            if v.is_null() {
                has_null = true;
                break;
            }
            key.push(v.group_key());
        }
        if has_null {
            right_key_null[ri] = true;
            continue; // NULL keys never match.
        }
        table.entry(key).or_default().push(ri);
    }
    let mut rows = Vec::new();
    let mut right_matched = vec![false; r.rows.len()];
    for lrow in &l.rows {
        let env = Env { scope: &l.scope, row: lrow, parent: outer };
        let mut key = Vec::with_capacity(lkeys.len());
        let mut has_null = false;
        for k in lkeys {
            let v = k.eval(ctx, &env)?;
            if v.is_null() {
                has_null = true;
                break;
            }
            key.push(v.group_key());
        }
        let matches = if has_null { None } else { table.get(&key) };
        match matches {
            Some(ris) if !ris.is_empty() => {
                for &ri in ris {
                    right_matched[ri] = true;
                    let mut row = lrow.clone();
                    row.extend(r.rows[ri].iter().cloned());
                    rows.push(row);
                }
            }
            _ => {
                if matches!(kind, JoinKind::Left | JoinKind::Full) {
                    let mut row = lrow.clone();
                    row.extend(vec![Value::Null; r.scope.cols.len()]);
                    rows.push(row);
                }
            }
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, rrow) in r.rows.iter().enumerate() {
            if !right_matched[ri] {
                let mut row = vec![Value::Null; l.scope.cols.len()];
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
        }
    }
    Ok(Rel { scope: combined, rows })
}

/// Evaluate the whole FROM clause (comma list = cross joins; LATERAL
/// entries see previously joined columns).
fn eval_from(
    db: &Database,
    ctes: &Ctes,
    from: &[TableRef],
    outer: Option<&Env<'_>>,
) -> Result<Rel> {
    if from.is_empty() {
        // A single empty row: SELECT with no FROM produces one row.
        return Ok(Rel { scope: Scope::default(), rows: vec![vec![]] });
    }
    let mut acc: Option<Rel> = None;
    for tref in from {
        let next = match (&acc, is_lateral(tref)) {
            (Some(a), true) => {
                // Comma-list LATERAL: cross apply against accumulated rows.
                let TableRef::Subquery { query, alias, .. } = tref else { unreachable!() };
                let qualifier = alias.as_ref().map(|x| x.name.as_str());
                let mut right_scope: Option<Scope> = None;
                let mut rows = Vec::new();
                for lrow in &a.rows {
                    let env = Env { scope: &a.scope, row: lrow, parent: outer };
                    let t = run_query(db, ctes, query, Some(&env))?;
                    if right_scope.is_none() {
                        let mut s = Scope::from_schema(qualifier, &t.schema);
                        apply_alias_columns(&mut s, alias.as_ref())?;
                        right_scope = Some(s);
                    }
                    for rrow in t.rows {
                        let mut row = lrow.clone();
                        row.extend(rrow);
                        rows.push(row);
                    }
                }
                let rs = right_scope.unwrap_or_default();
                Rel { scope: a.scope.join(&rs), rows }
            }
            _ => {
                let rel = eval_join(db, ctes, tref, outer)?;
                match acc {
                    None => rel,
                    Some(a) => {
                        // Cross product with the accumulator.
                        let scope = a.scope.join(&rel.scope);
                        let mut rows =
                            Vec::with_capacity(a.rows.len().saturating_mul(rel.rows.len()));
                        for lrow in &a.rows {
                            for rrow in &rel.rows {
                                let mut row = lrow.clone();
                                row.extend(rrow.iter().cloned());
                                rows.push(row);
                            }
                        }
                        Rel { scope, rows }
                    }
                }
            }
        };
        acc = Some(next);
    }
    acc.ok_or_else(|| Error::eval("FROM list is empty"))
}

// ---------------------------------------------------------------------------
// SELECT core
// ---------------------------------------------------------------------------

/// Aggregate accumulator.
pub(crate) struct AggState {
    kind: String,
    distinct: bool,
    seen: std::collections::HashSet<GroupKey>,
    count: i64,
    sum: Option<Value>,
    min: Option<Value>,
    max: Option<Value>,
    // Welford for variance.
    n: f64,
    mean: f64,
    m2: f64,
    bools: Option<bool>,
    strings: Vec<String>,
}

impl AggState {
    pub(crate) fn new(kind: &str, distinct: bool) -> AggState {
        AggState {
            kind: kind.to_string(),
            distinct,
            seen: Default::default(),
            count: 0,
            sum: None,
            min: None,
            max: None,
            n: 0.0,
            mean: 0.0,
            m2: 0.0,
            bools: None,
            strings: Vec::new(),
        }
    }

    pub(crate) fn update(&mut self, v: Option<Value>, sep: Option<&Value>) -> Result<()> {
        match (&self.kind[..], v) {
            ("count", None) => self.count += 1, // count(*)
            (_, None) => {}
            (_, Some(v)) if v.is_null() => {}
            (kind, Some(v)) => {
                if self.distinct && !self.seen.insert(v.group_key()) {
                    return Ok(());
                }
                match kind {
                    "count" => self.count += 1,
                    "sum" | "avg" => {
                        self.count += 1;
                        self.sum = Some(match self.sum.take() {
                            None => v,
                            Some(s) => Value::binop(BinOp::Add, &s, &v)?,
                        });
                    }
                    "min" => {
                        self.min = Some(match self.min.take() {
                            None => v,
                            Some(m) => {
                                if v.sql_cmp(&m)? == Some(std::cmp::Ordering::Less) {
                                    v
                                } else {
                                    m
                                }
                            }
                        });
                    }
                    "max" => {
                        self.max = Some(match self.max.take() {
                            None => v,
                            Some(m) => {
                                if v.sql_cmp(&m)? == Some(std::cmp::Ordering::Greater) {
                                    v
                                } else {
                                    m
                                }
                            }
                        });
                    }
                    "stddev" | "stddev_samp" | "stddev_pop" | "variance" | "var_samp"
                    | "var_pop" => {
                        let x = v.as_f64()?;
                        self.n += 1.0;
                        let d = x - self.mean;
                        self.mean += d / self.n;
                        self.m2 += d * (x - self.mean);
                    }
                    "bool_and" => {
                        let b = v.as_bool()?.unwrap_or(false);
                        self.bools = Some(self.bools.map_or(b, |p| p && b));
                    }
                    "bool_or" => {
                        let b = v.as_bool()?.unwrap_or(false);
                        self.bools = Some(self.bools.map_or(b, |p| p || b));
                    }
                    "string_agg" => {
                        let _ = sep;
                        self.strings.push(v.to_string());
                    }
                    other => return Err(Error::eval(format!("unknown aggregate {other}()"))),
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self, sep: Option<&Value>) -> Result<Value> {
        Ok(match &self.kind[..] {
            "count" => Value::Int(self.count),
            "sum" => self.sum.unwrap_or(Value::Null),
            "avg" => match self.sum {
                None => Value::Null,
                Some(s) => {
                    let total = match s {
                        Value::Int(i) => Value::Float(i as f64),
                        other => other,
                    };
                    Value::binop(BinOp::Div, &total, &Value::Int(self.count))?
                }
            },
            "min" => self.min.unwrap_or(Value::Null),
            "max" => self.max.unwrap_or(Value::Null),
            "variance" | "var_samp" => {
                if self.n < 2.0 {
                    Value::Null
                } else {
                    Value::Float(self.m2 / (self.n - 1.0))
                }
            }
            "var_pop" => {
                if self.n < 1.0 {
                    Value::Null
                } else {
                    Value::Float(self.m2 / self.n)
                }
            }
            "stddev" | "stddev_samp" => {
                if self.n < 2.0 {
                    Value::Null
                } else {
                    Value::Float((self.m2 / (self.n - 1.0)).sqrt())
                }
            }
            "stddev_pop" => {
                if self.n < 1.0 {
                    Value::Null
                } else {
                    Value::Float((self.m2 / self.n).sqrt())
                }
            }
            "bool_and" | "bool_or" => self.bools.map(Value::Bool).unwrap_or(Value::Null),
            "string_agg" => {
                if self.strings.is_empty() {
                    Value::Null
                } else {
                    let s = match sep {
                        Some(Value::Text(t)) => t.to_string(),
                        _ => String::new(),
                    };
                    Value::text(self.strings.join(&s))
                }
            }
            other => return Err(Error::eval(format!("unknown aggregate {other}()"))),
        })
    }
}

fn run_select(
    db: &Database,
    ctes: &Ctes,
    sel: &Select,
    outer: Option<&Env<'_>>,
    order_by: &[OrderItem],
    limit: &Option<Expr>,
    offset: &Option<Expr>,
) -> Result<Table> {
    let ctx = EvalCtx { db, ctes };
    let input = eval_from(db, ctes, &sel.from, outer)?;

    // WHERE.
    let mut rows = input.rows;
    if let Some(w) = &sel.where_ {
        let binder = Binder::with_outer(db, &input.scope, outer);
        let bound = binder.bind(w)?;
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let env = Env { scope: &input.scope, row: &row, parent: outer };
            if bound.eval(&ctx, &env)?.as_bool()? == Some(true) {
                kept.push(row);
            }
        }
        rows = kept;
    }

    let head = SelectHead::analyze(db, sel, order_by, &input.scope, outer)?;
    let (out_scope, out_rows) = match &head.agg_scope {
        Some(agg_scope) => (agg_scope, aggregate_rows(&ctx, &head, &input.scope, &rows, outer)?),
        None => (&input.scope, rows),
    };

    // Evaluate projection (+ order keys) per row; apply HAVING.
    let mut produced: Vec<(Vec<Value>, Row)> = Vec::with_capacity(out_rows.len());
    for row in &out_rows {
        let env = Env { scope: out_scope, row, parent: outer };
        if let Some(h) = &head.having_bound {
            if h.eval(&ctx, &env)?.as_bool()? != Some(true) {
                continue;
            }
        }
        let out: Row = head.proj_bound.iter().map(|b| b.eval(&ctx, &env)).collect::<Result<_>>()?;
        let keys: Vec<Value> =
            head.order_bound.iter().map(|b| b.eval(&ctx, &env)).collect::<Result<_>>()?;
        produced.push((keys, out));
    }

    // DISTINCT.
    if sel.distinct {
        let mut seen = HashMap::new();
        produced.retain(|(_, row)| {
            let key: Vec<GroupKey> = row.iter().map(|v| v.group_key()).collect();
            seen.insert(key, ()).is_none()
        });
    }

    // ORDER BY.
    if !order_by.is_empty() {
        sort_keyed(&mut produced, order_by);
    }

    // Output schema: each column's type from its first non-NULL value,
    // else the statically known one.
    let columns = head.names.into_iter().zip(head.static_types).enumerate().map(|(i, (n, st))| {
        let seen = produced.iter().find(|(_, row)| !row[i].is_null());
        TColumn::new(n, seen.map_or(st, |(_, row)| row[i].data_type()))
    });
    let schema = Schema::new(columns.collect());
    let mut table = Table::with_rows(schema, produced.into_iter().map(|(_, r)| r).collect());
    apply_limit_offset(db, ctes, &mut table, limit, offset)?;
    Ok(table)
}

/// Group `rows` (the filtered FROM output) and fold the aggregates: one
/// output row of `head.agg_scope` per group. Plain GROUP BY is the single
/// grouping set using every key; ROLLUP/CUBE/GROUPING SETS run one
/// grouping pass per set with the keys outside the set masked to NULL,
/// and the per-set outputs concatenated.
fn aggregate_rows(
    ctx: &EvalCtx<'_>,
    head: &SelectHead,
    scope: &Scope,
    rows: &[Row],
    outer: Option<&Env<'_>>,
) -> Result<Vec<Row>> {
    let nkeys = head.group_bound.len();
    let make_states = || -> Vec<AggState> {
        head.aggs.iter().map(|a| AggState::new(&a.name, a.distinct)).collect()
    };
    let mut groups: Vec<(Vec<Value>, Vec<AggState>, Option<Value>)> = Vec::new();
    for set in &head.sets {
        let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        let empty_gidx = if set.is_empty() {
            // The empty set is a global aggregate: exactly one output
            // row even over empty input.
            groups.push((vec![Value::Null; nkeys], make_states(), None));
            Some(groups.len() - 1)
        } else {
            None
        };
        for row in rows {
            let env = Env { scope, row, parent: outer };
            let gvals: Vec<Value> =
                head.group_bound.iter().map(|b| b.eval(ctx, &env)).collect::<Result<_>>()?;
            let masked: Vec<Value> = (0..nkeys)
                .map(|i| if set.contains(&i) { gvals[i].clone() } else { Value::Null })
                .collect();
            let gidx = match empty_gidx {
                Some(g) => g,
                None => {
                    let key: Vec<GroupKey> = masked.iter().map(|v| v.group_key()).collect();
                    *index.entry(key).or_insert_with(|| {
                        groups.push((masked.clone(), make_states(), None));
                        groups.len() - 1
                    })
                }
            };
            let (_, states, sep_slot) = &mut groups[gidx];
            for (state, (arg, arg2)) in states.iter_mut().zip(&head.agg_args) {
                let v = arg.as_ref().map(|b| b.eval(ctx, &env)).transpose()?;
                let sep = arg2.as_ref().map(|b| b.eval(ctx, &env)).transpose()?;
                state.update(v, sep.as_ref())?;
                if sep.is_some() {
                    *sep_slot = sep;
                }
            }
        }
    }
    groups
        .into_iter()
        .map(|(mut row, states, sep)| {
            for st in states {
                row.push(st.finish(sep.as_ref())?);
            }
            Ok(row)
        })
        .collect()
}
