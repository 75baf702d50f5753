//! Query execution around the `SELECT` block: `WITH` (including `WITH
//! RECURSIVE`), set operations, `VALUES`, a `SOLVESELECT` body, and ORDER
//! BY / LIMIT over those — plus what a block's two executors share.
//!
//! A `SELECT` block itself — at any depth, under any outer row — is
//! planned (`plan::build`, through the plan cache) and run by the
//! columnar executor (`plan::exec`). The one exception is a database with
//! [`Database::set_force_row_interpreter`] on: there every block, on
//! whichever thread runs it, goes to the reference interpreter
//! (`exec::oracle`) instead, which is how the differential tests and
//! `reproduce executor` get their second opinion.
//! Everything else here has one implementation that both use: the
//! assembly of set operations and `VALUES`, the recursion loop, the
//! order of two sort keys (`key_order`; the planner sorts row indices
//! by it, `sort_keyed` rows), `AggState`, the `ON` / `USING` key
//! extraction.
//!
//! The recursion loop (`run_recursive_cte`) steps a planned term three
//! ways, chosen per step from what it can see: a one-row working table
//! on the plan's row pipeline (`IteratedPlan::step_row`: on typed
//! registers, or on values for a step they cannot run), any other on the
//! batch operators (`IteratedPlan::step`), and a term that has no
//! reusable plan as a query of its own.

use crate::ast::*;
use crate::catalog::{Binding, Ctes, Database, StepCell, StepHook, Work};
use crate::error::{Error, Result};
use crate::exec::eval::{Binder, BoundExpr, Env, EvalCtx, Scope};
use crate::exec::head::limit_offset;
use crate::exec::oracle;
use crate::plan::build::bound_has_subquery;
use crate::plan::columnar::{Batch, ColumnVec};
use crate::plan::exec::{unseen_rows, Grown, IteratedPlan, OneRow, Working};
use crate::plan::keys::KeyIndex;
use crate::plan::plan_select;
use crate::table::{Column as TColumn, Row, Schema, Table};
use crate::types::{BinOp, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Iteration guard for `WITH RECURSIVE`.
const MAX_RECURSION: usize = 1_000_000;

/// Execute a query and materialize the result.
pub fn run_query(db: &Database, ctes: &Ctes, q: &Query, outer: Option<&Env<'_>>) -> Result<Table> {
    run_query_bound(db, ctes, q, outer).map(Binding::into_table)
}

/// Execute a query into what a CTE name is bound to: the batches of a
/// planned `SELECT` body as the executor returned them, any other body's
/// rows.
pub fn run_query_bound(
    db: &Database,
    ctes: &Ctes,
    q: &Query,
    outer: Option<&Env<'_>>,
) -> Result<Binding> {
    query_bound(db, ctes, q, outer, None).map(|(b, _)| b)
}

/// Materialize the `WITH` members of `q` in order on top of `ctes`, each
/// seeing the ones before it. Borrows `ctes` as-is when there is nothing
/// to add. How the recursive term of each recursive member ran goes, one
/// line per member, to `notes` when given (`EXPLAIN SELECT`), and onto a
/// span of its own under `trace` (`EXPLAIN ANALYZE`).
fn with_ctes<'c>(
    db: &Database,
    ctes: &'c Ctes,
    q: &Query,
    outer: Option<&Env<'_>>,
    mut notes: Option<&mut Vec<String>>,
    trace: Option<&obs::Trace>,
) -> Result<Cow<'c, Ctes>> {
    let mut env = Cow::Borrowed(ctes);
    for cte in &q.with {
        let bound = if q.recursive && query_references(&cte.query, &cte.name) {
            let span = trace.map(|tr| tr.span(&format!("recursive CTE {}", cte.name)));
            let (bound, how) = run_recursive_cte(db, &env, cte, outer)?;
            if let Some(s) = &span {
                s.rows(bound.num_rows() as u64);
                s.note("term", &how);
            }
            if let Some(notes) = notes.as_deref_mut() {
                notes.push(format!("recursive CTE {}: {how}", cte.name));
            }
            bound
        } else {
            let mut bound = run_query_bound(db, &env, &cte.query, outer)?;
            bound.rename(&cte.columns)?;
            bound
        };
        env.to_mut().bind(&cte.name, Arc::new(bound));
    }
    Ok(env)
}

/// Execute a query: `WITH` members first, then the body — a `SELECT`
/// block through `run_select_planned`, anything else assembled here from
/// what its arms return, with the query's ORDER BY and LIMIT applied to
/// the result. Returns the optimized-plan fingerprint when the body is a
/// planned `SELECT`. `trace`, when given, receives per-operator spans
/// (EXPLAIN ANALYZE).
pub fn run_query_planned(
    db: &Database,
    ctes: &Ctes,
    q: &Query,
    outer: Option<&Env<'_>>,
    trace: Option<&obs::Trace>,
) -> Result<(Table, Option<u64>)> {
    query_bound(db, ctes, q, outer, trace).map(|(b, fingerprint)| (b.into_table(), fingerprint))
}

/// [`run_query_planned`], the result in the form its body produced.
fn query_bound(
    db: &Database,
    ctes: &Ctes,
    q: &Query,
    outer: Option<&Env<'_>>,
    trace: Option<&obs::Trace>,
) -> Result<(Binding, Option<u64>)> {
    let env_ctes = with_ctes(db, ctes, q, outer, None, trace)?;
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
    let span = trace.map(|tr| tr.span("query body"));
    let mut t = run_set_expr(db, &env_ctes, &q.body, outer)?;
    // ORDER BY over set-op output binds against output columns.
    if !q.order_by.is_empty() {
        let scope = Scope::from_schema(None, &t.schema);
        let ctx = EvalCtx { db, ctes: &env_ctes };
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(t.rows.len());
        let bound: Vec<BoundExpr> = q
            .order_by
            .iter()
            .map(|o| bind_order_expr(db, &o.expr, &scope, &t.schema))
            .collect::<Result<_>>()?;
        for row in std::mem::take(&mut t.rows) {
            let env = Env { scope: &scope, row: &row, parent: outer };
            let keys = bound.iter().map(|b| b.eval(&ctx, &env)).collect::<Result<Vec<_>>>()?;
            keyed.push((keys, row));
        }
        sort_keyed(&mut keyed, &q.order_by);
        t.rows = keyed.into_iter().map(|(_, r)| r).collect();
    }
    apply_limit_offset(db, &env_ctes, &mut t, &q.limit, &q.offset)?;
    if let Some(s) = &span {
        s.rows(t.num_rows() as u64);
    }
    Ok((Binding::rows(Arc::new(t)), None))
}

/// Run one `SELECT` block — the body of a query or an arm of a set
/// operation, under the rows `outer` of its enclosing blocks: planned
/// (through the plan cache) and executed by the columnar executor. A
/// planning error is the statement's error. Only a database that forces
/// the reference interpreter takes the other branch.
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
) -> Result<(Binding, Option<u64>)> {
    if db.force_row_interpreter() {
        let span = trace.map(|tr| tr.span("row interpreter"));
        let t = oracle::run_select(db, ctes, sel, outer, order_by, limit, offset)?;
        if let Some(s) = &span {
            s.rows(t.num_rows() as u64);
        }
        return Ok((Binding::rows(Arc::new(t)), None));
    }
    let (planned, cache_hit) = db.plan_cached(ctes, sel, order_by, limit, offset, outer)?;
    let keeps = db.keeps_builds(ctes, &planned, cache_hit);
    let t = crate::plan::execute(db, ctes, &planned, keeps, trace, outer)?;
    // After the execution, whose subqueries went through the cache too:
    // the event a statement reports is its own body's.
    if let Some(hit) = cache_hit {
        db.note_plan_cache_event(hit);
    }
    Ok((t, Some(planned.fingerprint())))
}

/// Render the optimized plan for `EXPLAIN SELECT`, after one line per
/// recursive CTE; a set operation renders each of its arms. CTEs are
/// materialized first (the planner takes slot schemas and estimates from
/// their bindings).
pub fn explain_query_plan(db: &Database, ctes: &Ctes, q: &Query) -> Result<Vec<String>> {
    let mut lines = Vec::new();
    let env_ctes = with_ctes(db, ctes, q, None, Some(&mut lines), None)?;
    match &q.body {
        SetExpr::Select(sel) => {
            let plan = plan_select(db, &env_ctes, sel, &q.order_by, &q.limit, &q.offset, &[])?;
            lines.extend(plan.explain_lines());
        }
        body => {
            let tail = match (q.order_by.is_empty(), q.limit.is_some() || q.offset.is_some()) {
                (true, false) => "",
                (false, false) => ", then ORDER BY",
                (true, true) => ", then LIMIT/OFFSET",
                (false, true) => ", then ORDER BY and LIMIT/OFFSET",
            };
            lines.push(format!("assembled from the arms below{tail}"));
            explain_arms(db, &env_ctes, body, "", &mut lines)?;
        }
    }
    Ok(lines)
}

/// One entry per arm of a set-operation body, indented under its
/// operator: the arm's plan, or what else it is.
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
        SetExpr::Select(sel) => plan_select(db, ctes, sel, &[], &None, &None, &[])?.explain_lines(),
        SetExpr::Query(q) => explain_query_plan(db, ctes, q)?,
        SetExpr::Values(_) => vec!["VALUES".to_string()],
        SetExpr::Solve(_) => vec!["solver (SOLVESELECT)".to_string()],
    };
    lines.push(format!("{indent}arm:"));
    lines.extend(arm.into_iter().map(|l| format!("{inner}{l}")));
    Ok(())
}

pub(crate) fn bind_order_expr(
    db: &Database,
    expr: &Expr,
    scope: &Scope,
    schema: &Schema,
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

/// `ORDER BY`'s order of two keys under one `item`: NULLs where NULLS
/// FIRST / LAST (default: last for ASC, first for DESC) puts them, and
/// `cmp` — [`Value::cmp_total`] of the two, neither NULL — in the item's
/// direction.
pub(crate) fn key_order(
    item: &OrderItem,
    a_null: bool,
    b_null: bool,
    cmp: impl FnOnce() -> std::cmp::Ordering,
) -> std::cmp::Ordering {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let nulls_first = item.nulls_first.unwrap_or(item.desc);
    match (a_null, b_null) {
        (true, true) => Equal,
        (true, false) if nulls_first => Less,
        (true, false) => Greater,
        (false, true) if nulls_first => Greater,
        (false, true) => Less,
        (false, false) if item.desc => cmp().reverse(),
        (false, false) => cmp(),
    }
}

pub(crate) fn sort_keyed(rows: &mut [(Vec<Value>, Row)], order: &[OrderItem]) {
    rows.sort_by(|(ka, _), (kb, _)| {
        let by_key = |(i, item): (usize, &OrderItem)| {
            let (a, b) = (&ka[i], &kb[i]);
            key_order(item, a.is_null(), b.is_null(), || a.cmp_total(b))
        };
        let unequal = order.iter().enumerate().map(by_key).find(|o| o.is_ne());
        unequal.unwrap_or(std::cmp::Ordering::Equal)
    });
}

pub(super) fn apply_limit_offset(
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

/// Does `q` read a relation named `name` that nothing inside it binds —
/// in any clause, at any depth? A `WITH RECURSIVE` member whose query does
/// is recursive.
pub fn query_references(q: &Query, name: &str) -> bool {
    let mut found = false;
    Node::Query(q).walk(|n| {
        found |= matches!(n, Node::Relation { name: r, bound: false } if r == name);
        !found
    });
    found
}

/// The `UNION ALL` flag, the anchor and the recursive term of a recursive
/// `WITH` member.
pub(crate) fn recursive_parts(cte: &Cte) -> Result<(bool, &SetExpr, &SetExpr)> {
    let SetExpr::SetOp { op: SetOp::Union, all, left, right } = &cte.query.body else {
        return Err(Error::unsupported(
            "recursive CTE must have the form <anchor> UNION [ALL] <recursive term>",
        ));
    };
    Ok((*all, left, right))
}

/// Execute a recursive CTE per the SQL standard's iterate-to-fixpoint
/// semantics. A recursive term that is one `SELECT` block is planned
/// once; every step executes that plan on what the step before it
/// produced, keeping what the working table does not feed: a single row
/// on the plan's row pipeline, straight onto the result's open tail — as
/// typed columns while the steps run on typed registers; anything else as
/// batches, which join the result as they are. Any other term — a set
/// operation, one whose plan captured rows of the working table (a FROM
/// subquery or view over it), one of another width than the anchor (an
/// error), every term while the reference interpreter is forced — is
/// evaluated as a query of its own in every step, its working table bound
/// as a CTE. Also returns how the term ran, for `EXPLAIN SELECT`.
fn run_recursive_cte(
    db: &Database,
    ctes: &Ctes,
    cte: &Cte,
    outer: Option<&Env<'_>>,
) -> Result<(Binding, String)> {
    let (all, left, right) = recursive_parts(cte)?;
    let mut result = run_set_expr(db, ctes, left, outer)?;
    result.schema.rename(&cte.columns)?;
    let schema = result.schema.clone();

    let mut seen = KeyIndex::default();
    if !all {
        result.rows.retain(|row| seen.is_new(row.as_slice()));
    }
    if result.rows.is_empty() {
        return Ok((Binding::rows(Arc::new(result)), "no steps (empty anchor)".to_string()));
    }

    let working_table = |rows: Vec<Row>| Arc::new(Table::with_rows(schema.clone(), rows));
    let mut step_ctes = ctes.with(&cte.name, working_table(result.rows.clone()));
    // The term's plan, against the first binding of its working table —
    // or why the term is a query of its own in every step.
    let plan = match right {
        _ if db.force_row_interpreter() => Err("row interpreter forced"),
        SetExpr::Select(sel) => {
            let (plan, event) = db.plan_cached(&step_ctes, sel, &[], &None, &None, outer)?;
            // Rows captured at plan time go stale with the first step.
            if plan.reads.names().any(|name| name == cte.name) {
                Err("a FROM subquery or view reads the recursive relation")
            } else if plan.visible != schema.len() {
                // An error: the per-step query's to report, after any the
                // first step raises itself, as the reference does.
                Err("the term's width is not the anchor's")
            } else {
                Ok((db.keeps_builds(&step_ctes, &plan, event), plan))
            }
        }
        _ => Err("recursive term is not a plain SELECT"),
    };

    // Both guards of one step: the iteration caps before it runs, the
    // width of what it returned after (a planned term's is known to be the
    // anchor's before its first step).
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

    // What a step emits goes through the environment's step hook, if it
    // has one, before anything reads it; `first` is the relation's row
    // the step's first new row becomes.
    let hook = |first: usize, step: Step<'_>| {
        if let Some(hook) = ctes.step_hook() {
            step.through(hook, &cte.name, &schema, first);
        }
    };

    let mut steps = 0usize;
    match &plan {
        Ok((keeps, term)) => {
            // Typed registers carry no custom value for the hook to
            // rewrite, and a `UNION` dedupes rows.
            let typed = all && ctes.step_hook().is_none();
            let mut plan = IteratedPlan::new(term, &cte.name, typed, *keeps);
            // Only subqueries look the working table up by name.
            let by_name = term.root.has_subquery();
            let mut added = Added::Rows(result.rows.len());
            let mut out = Grown::new(std::mem::take(&mut result.rows));
            loop {
                steps += 1;
                capped(steps, out.len())?;
                let one_row;
                let working = match &added {
                    Added::Typed => Some(Working::Carried),
                    Added::Rows(1) => out.last_row().map(Working::Row),
                    Added::Batches(b)
                        if plan.has_spine() && b.iter().map(|b| b.len).sum::<usize>() == 1 =>
                    {
                        one_row = b.iter().find(|b| b.len == 1).map(|b| b.row_at(0));
                        one_row.as_deref().map(Working::Row)
                    }
                    _ => None,
                };
                let on_one_row = match working {
                    Some(working) => plan.step_row(db, &step_ctes, working, outer)?,
                    None => None,
                };
                added = match on_one_row {
                    Some(OneRow::Typed(row)) => match row {
                        Some(row) => {
                            out.push_scalars(row);
                            Added::Typed
                        }
                        None => break,
                    },
                    Some(OneRow::Values(new)) => {
                        let Some(mut new) = new.filter(|row| all || seen.is_new(row.as_slice()))
                        else {
                            break;
                        };
                        hook(out.len(), Step::Rows(std::slice::from_mut(&mut new)));
                        out.push_row(new);
                        Added::Rows(1)
                    }
                    None => {
                        let from_tail;
                        let working = match &added {
                            Added::Batches(b) => b,
                            Added::Rows(n) => {
                                from_tail = out.tail_batches(*n);
                                &from_tail
                            }
                            Added::Typed => {
                                from_tail = vec![out.last_typed()];
                                &from_tail
                            }
                        };
                        let mut new = plan.step(db, &step_ctes, working, outer)?;
                        if !all {
                            new = unseen_rows(&new, schema.len(), &mut seen);
                        }
                        new.retain(|b| b.len > 0);
                        if new.is_empty() {
                            break;
                        }
                        hook(out.len(), Step::Batches(&mut new));
                        if by_name {
                            let working = Binding::batches(schema.clone(), new.clone());
                            step_ctes.bind(&cte.name, Arc::new(working));
                        }
                        out.push_batches(&new);
                        Added::Batches(new)
                    }
                };
            }
            let (row_steps, typed_steps) = plan.row_steps();
            let how = format!(
                "planned once{}, {row_steps} of {steps} steps on one row, {typed_steps} typed",
                if plan.keeps_builds() { ", build side reused" } else { "" },
            );
            let counts = [
                (Work::RecursiveSteps, steps as u64),
                (Work::SpineSteps, if plan.has_spine() { steps as u64 } else { 0 }),
                (Work::RowSteps, row_steps),
                (Work::TypedSteps, typed_steps),
                (Work::BuildsReused, plan.builds_reused()),
            ];
            for (work, n) in counts {
                db.count(ctes, work, n);
            }
            Ok((Binding::batches(schema, out.into_batches()), how))
        }
        Err(why) => {
            let rec_q = Query {
                with: vec![],
                recursive: false,
                body: right.clone(),
                order_by: vec![],
                limit: None,
                offset: None,
            };
            let mut working_rows = result.rows.len();
            while working_rows > 0 {
                steps += 1;
                capped(steps, result.rows.len())?;
                let step = run_query(db, &step_ctes, &rec_q, outer)?;
                same_width(step.num_columns())?;
                let mut new_rows = step.rows;
                if !all {
                    new_rows.retain(|row| seen.is_new(row.as_slice()));
                }
                hook(result.rows.len(), Step::Rows(&mut new_rows));
                result.rows.extend(new_rows.iter().cloned());
                working_rows = new_rows.len();
                step_ctes.insert(&cte.name, working_table(new_rows));
            }
            db.count(ctes, Work::RecursiveSteps, steps as u64);
            Ok((Binding::rows(Arc::new(result)), format!("a query of its own per step ({why})")))
        }
    }
}

/// What the last step of a recursion added, which is the working table
/// of the next: the last rows of the result's open row tail, the last row
/// of its typed tail, or batches.
enum Added {
    Rows(usize),
    Typed,
    Batches(Vec<Batch>),
}

/// The new rows of one recursive step, as rows or as batches.
enum Step<'a> {
    Rows(&'a mut [Row]),
    Batches(&'a mut [Batch]),
}

impl Step<'_> {
    /// Replace each custom cell the hook rewrites; the first row is row
    /// `first` of recursive relation `cte`.
    fn through(self, hook: &StepHook, cte: &str, schema: &Schema, first: usize) {
        let cell = |row: usize, col: usize, value: &mut Value| {
            if !matches!(value, Value::Custom(_)) {
                return;
            }
            let at = StepCell { cte, row, column: &schema.columns[col].name };
            if let Some(v) = hook(&at, value) {
                *value = v;
            }
        };
        match self {
            Step::Rows(rows) => {
                for (i, row) in rows.iter_mut().enumerate() {
                    row.iter_mut().enumerate().for_each(|(c, v)| cell(first + i, c, v));
                }
            }
            Step::Batches(batches) => {
                let mut first = first;
                for b in batches {
                    for (c, col) in b.cols.iter_mut().enumerate() {
                        // Only a boxed column holds a custom value.
                        if let ColumnVec::Any(_) = **col {
                            let ColumnVec::Any(values) = Arc::make_mut(col) else { continue };
                            values.iter_mut().enumerate().for_each(|(i, v)| cell(first + i, c, v));
                        }
                    }
                    first += b.len;
                }
            }
        }
    }
}

fn run_set_expr(
    db: &Database,
    ctes: &Ctes,
    body: &SetExpr,
    outer: Option<&Env<'_>>,
) -> Result<Table> {
    match body {
        SetExpr::Select(sel) => run_select_planned(db, ctes, sel, outer, &[], &None, &None, None)
            .map(|(b, _)| b.into_table()),
        SetExpr::Solve(stmt) => db.solve_handler()?.solve_select(db, stmt, ctes, None),
        SetExpr::Query(q) => run_query(db, ctes, q, outer),
        SetExpr::Values(rows) => run_values(db, ctes, rows, outer),
        SetExpr::SetOp { op, all, left, right } => {
            let l = run_set_expr(db, ctes, left, outer)?;
            let r = run_set_expr(db, ctes, right, outer)?;
            let schema = unify_schemas(&l.schema, &r.schema)?;
            Ok(Table::with_rows(schema, set_rows(*op, *all, l.rows, r.rows)))
        }
    }
}

/// The rows of `left op [ALL] right`: the left rows the operation keeps,
/// in order — for `UNION`, of the left rows followed by the right ones.
fn set_rows(op: SetOp, all: bool, mut left: Vec<Row>, right: Vec<Row>) -> Vec<Row> {
    let right = match op {
        SetOp::Union => {
            left.extend(right);
            if all {
                return left;
            }
            Vec::new()
        }
        SetOp::Intersect | SetOp::Except => right,
    };
    // Per key: the right rows that have it, and the left rows before
    // this one that did.
    let mut index = KeyIndex::default();
    let mut counts: Vec<[usize; 2]> = Vec::new();
    let mut count = |row: &Row, side: usize| {
        let id = index.insert(row.as_slice()) as usize;
        if id == counts.len() {
            counts.push([0, 0]);
        }
        let before = counts[id];
        counts[id][side] += 1;
        before
    };
    for row in &right {
        count(row, 0);
    }
    left.into_iter()
        .filter(|row| {
            let [theirs, met] = count(row, 1);
            match (op, all) {
                (SetOp::Intersect, true) => met < theirs,
                (SetOp::Intersect, false) => met == 0 && theirs > 0,
                (SetOp::Except, true) => met >= theirs,
                // A `UNION` keeps the first row of each key.
                (SetOp::Except | SetOp::Union, _) => met == 0 && theirs == 0,
            }
        })
        .collect()
}

/// The schema of a set operation over arms of schemas `l` and `r`.
pub(crate) fn unify_schemas(l: &Schema, r: &Schema) -> Result<Schema> {
    if l.len() != r.len() {
        return Err(Error::eval(format!(
            "set operation column mismatch: {} vs {}",
            l.len(),
            r.len()
        )));
    }
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
    let scopes = Env::scopes(outer);
    let binder = Binder::with_outer(db, &scope, &scopes);
    let env = Env { scope: &scope, row: &[], parent: outer };
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != ncols {
            return Err(Error::eval("VALUES rows must all have the same arity"));
        }
        let vals = row.iter().map(|e| binder.bind(e)?.eval(&ctx, &env)).collect::<Result<_>>()?;
        out_rows.push(vals);
    }
    let names: Vec<String> = (1..=ncols).map(|i| format!("column{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    Ok(Table::from_rows(&name_refs, out_rows))
}

// ---------------------------------------------------------------------------
// Shared by the planner and the reference interpreter
// ---------------------------------------------------------------------------

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
        // lhs∈left, rhs∈right — or swapped. A subquery may read either
        // side (and the outer rows): it is no key of one side.
        if let (Ok(a), Ok(b)) = (lb.bind(lhs), rb.bind(rhs)) {
            if !bound_has_subquery(&a) && !bound_has_subquery(&b) {
                lkeys.push(a);
                rkeys.push(b);
                continue;
            }
        }
        if let (Ok(a), Ok(b)) = (lb.bind(rhs), rb.bind(lhs)) {
            if !bound_has_subquery(&a) && !bound_has_subquery(&b) {
                lkeys.push(a);
                rkeys.push(b);
                continue;
            }
        }
        return None;
    }
    Some((lkeys, rkeys))
}

/// `USING (cols)` as pairs of column indices: per name, the column of the
/// left and of the right scope it denotes.
pub(crate) fn using_pairs(
    cols: &[String],
    left: &Scope,
    right: &Scope,
) -> Result<Vec<(usize, usize)>> {
    let side = |scope: &Scope, c: &String, which: &str| {
        scope
            .resolve(None, c)?
            .ok_or_else(|| Error::bind(format!("USING column '{c}' not in {which} side")))
    };
    cols.iter().map(|c| Ok((side(left, c, "left")?, side(right, c, "right")?))).collect()
}

/// `USING (cols)` as the `ON` condition it abbreviates, bound against the
/// joined row (left columns, then right): `l.c = r.c AND …`.
pub(crate) fn using_condition(cols: &[String], left: &Scope, right: &Scope) -> Result<BoundExpr> {
    let column = |index| Box::new(BoundExpr::Column { depth: 0, index });
    let equal = |(li, ri): (usize, usize)| BoundExpr::BinOp {
        op: BinOp::Eq,
        lhs: column(li),
        rhs: column(left.cols.len() + ri),
    };
    let both = |l, r| BoundExpr::BinOp { op: BinOp::And, lhs: Box::new(l), rhs: Box::new(r) };
    let pairs = using_pairs(cols, left, right)?;
    Ok(pairs.into_iter().map(equal).reduce(both).unwrap_or(BoundExpr::Const(Value::Bool(true))))
}

/// Aggregate accumulator.
pub(crate) struct AggState {
    kind: String,
    distinct: bool,
    seen: KeyIndex,
    count: i64,
    /// The running `sum` / `avg` total, until the first custom value.
    sum: Option<Value>,
    /// From the first custom value on: the total so far, then every value
    /// since, added once at [`AggState::finish`] by
    /// [`CustomValue::sum`](crate::types::CustomValue::sum).
    addends: Vec<Value>,
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
            addends: Vec::new(),
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
                if self.distinct && !self.seen.is_new(std::slice::from_ref(&v)) {
                    return Ok(());
                }
                match kind {
                    "count" => self.count += 1,
                    "sum" | "avg" => {
                        self.count += 1;
                        if !self.addends.is_empty() || matches!(v, Value::Custom(_)) {
                            self.addends.extend(self.sum.take());
                            self.addends.push(v);
                        } else {
                            self.sum = Some(match self.sum.take() {
                                None => v,
                                Some(s) => Value::binop(BinOp::Add, &s, &v)?,
                            });
                        }
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

    pub(crate) fn finish(mut self, sep: Option<&Value>) -> Result<Value> {
        let custom = self.addends.iter().find_map(|v| match v {
            Value::Custom(c) => Some(c),
            _ => None,
        });
        if let Some(c) = custom {
            self.sum = Some(c.sum(&self.addends)?);
        }
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
