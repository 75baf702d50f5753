//! The reference SELECT interpreter: one block, row at a time.
//!
//! This is the engine's original relational executor — FROM as
//! materialized [`Rel`]s joined by nested loops or a hash join, WHERE,
//! grouping and projection per row — kept as the oracle the planner is
//! tested against (`tests/planner.rs`, `executor_lattice.rs`,
//! `fitness_differential.rs`, `reproduce executor`). No statement
//! reaches it unless `Database::set_force_row_interpreter(true)` is in
//! force on the database it runs against: [`run_select`] has one caller,
//! that branch of `select::run_select_planned`.
//!
//! It shares everything that gives a block its meaning with the planner:
//! the front end (`exec::head`), the expression evaluator (`exec::eval`),
//! the aggregate accumulators, the sort comparator, the `ON` / `USING`
//! key extraction and LIMIT (`exec::select`). Queries nested in the block
//! — subqueries, FROM subqueries, views — go back through
//! `select::run_query`, and so stay on this interpreter while the switch
//! is on.
//!
//! Its hash tables keep std's SipHash, not the engine's `hash::FastState`:
//! the reference should share as little as it can with the operators it
//! checks.
#![allow(clippy::disallowed_types)]

use crate::ast::*;
use crate::catalog::{Ctes, Database};
use crate::error::{Error, Result};
use crate::exec::eval::{Binder, BoundExpr, Env, EvalCtx, Scope};
use crate::exec::head::{query_schema, resolve_relation, Relation, SelectHead};
use crate::exec::select::{
    apply_alias_columns, apply_limit_offset, run_query, sort_keyed, try_equi_keys, using_condition,
    using_pairs, AggState,
};
use crate::table::{Row, Table};
use crate::types::{GroupKey, Value};
use std::collections::HashMap;

/// Materialized relation with its scope.
struct Rel {
    scope: Scope,
    rows: Vec<Row>,
}

/// Scan a named relation: a copy of its rows under the FROM item's scope.
fn scan_named(
    db: &Database,
    ctes: &Ctes,
    name: &str,
    alias: Option<&TableAlias>,
    outer: Option<&Env<'_>>,
) -> Result<Rel> {
    let qualifier = Some(alias.map_or(name, |a| a.name.as_str()));
    let (schema, rows) = match resolve_relation(db, ctes, name)? {
        Relation::Cte(t) => (t.schema().clone(), t.table().rows.clone()),
        Relation::Table(t) => (t.schema().clone(), t.rows().cloned().collect()),
        Relation::View(vq) => return derived(db, ctes, vq, qualifier, alias, outer),
        Relation::Virtual(t) => (t.schema, t.rows),
    };
    let mut scope = Scope::from_schema(qualifier, &schema);
    apply_alias_columns(&mut scope, alias)?;
    Ok(Rel { scope, rows })
}

/// A view or FROM subquery, run. Under an outer scope with a column it
/// may read, its scope is [`query_schema`]'s, as on the planner; under
/// none, its run's.
fn derived(
    db: &Database,
    ctes: &Ctes,
    query: &Query,
    qualifier: Option<&str>,
    alias: Option<&TableAlias>,
    outer: Option<&Env<'_>>,
) -> Result<Rel> {
    let scopes = Env::scopes(outer);
    let fixed = if scopes.iter().any(|scope| !scope.cols.is_empty()) {
        Some(query_schema(db, ctes, query, &scopes)?)
    } else {
        None
    };
    let t = run_query(db, ctes, query, outer)?;
    let mut scope = Scope::from_schema(qualifier, fixed.as_ref().unwrap_or(&t.schema));
    apply_alias_columns(&mut scope, alias)?;
    Ok(Rel { scope, rows: t.rows })
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
            let qualifier = alias.as_ref().map(|a| a.name.as_str());
            derived(db, ctes, query, qualifier, alias.as_ref(), outer)
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
    if is_lateral(right) {
        return lateral_join(db, ctes, l, right, *kind, constraint, outer);
    }
    let r = eval_join(db, ctes, right, outer)?;
    join_rels(db, ctes, l, r, *kind, constraint, outer)
}

/// `l [LEFT] JOIN LATERAL right` (and the comma form, a cross join):
/// the subquery `right` evaluated per row of `l`, under the scope
/// [`query_schema`] gives it with `l`'s scope innermost, whether or not
/// `l` has a row.
fn lateral_join(
    db: &Database,
    ctes: &Ctes,
    l: Rel,
    right: &TableRef,
    kind: JoinKind,
    constraint: &JoinConstraint,
    outer: Option<&Env<'_>>,
) -> Result<Rel> {
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        return Err(Error::unsupported("RIGHT/FULL JOIN LATERAL"));
    }
    let TableRef::Subquery { query, alias, .. } = right else { unreachable!() };
    let under: Vec<&Scope> = std::iter::once(&l.scope).chain(Env::scopes(outer)).collect();
    let schema = query_schema(db, ctes, query, &under)?;
    let mut right_scope = Scope::from_schema(alias.as_ref().map(|a| a.name.as_str()), &schema);
    apply_alias_columns(&mut right_scope, alias.as_ref())?;
    let combined = l.scope.join(&right_scope);
    let cond = bind_join_condition(db, constraint, &l.scope, &right_scope, &combined, outer)?;
    let ctx = EvalCtx { db, ctes };
    let mut out_rows: Vec<Row> = Vec::new();
    for lrow in &l.rows {
        let env = Env { scope: &l.scope, row: lrow, parent: outer };
        let mut matched = false;
        for rrow in run_query(db, ctes, query, Some(&env))?.rows {
            let mut row = lrow.clone();
            row.extend(rrow);
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
    Ok(Rel { scope: combined, rows: out_rows })
}

enum JoinCond {
    None,
    Expr(BoundExpr),
}

fn bind_join_condition(
    db: &Database,
    constraint: &JoinConstraint,
    left: &Scope,
    right: &Scope,
    combined: &Scope,
    outer: Option<&Env<'_>>,
) -> Result<JoinCond> {
    match constraint {
        JoinConstraint::None => Ok(JoinCond::None),
        JoinConstraint::On(e) => {
            let binder = Binder::with_outer(db, combined, &Env::scopes(outer));
            Ok(JoinCond::Expr(binder.bind(e)?))
        }
        // Only a LATERAL join gets here with USING; a plain one takes the
        // hash-join path before a condition is ever bound.
        JoinConstraint::Using(cols) => Ok(JoinCond::Expr(using_condition(cols, left, right)?)),
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

/// Join two materialized relations. Equi-joins (ON conjunction of
/// equalities, or USING) take a hash-join path; everything else falls
/// back to a nested loop.
fn join_rels(
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
    let keys = match constraint {
        JoinConstraint::Using(cols) => {
            let column = |index| BoundExpr::Column { depth: 0, index };
            let pairs = using_pairs(cols, &l.scope, &r.scope)?;
            Some(pairs.into_iter().map(|(li, ri)| (column(li), column(ri))).unzip())
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
        let next = match (acc, is_lateral(tref)) {
            // Comma-list LATERAL: cross apply against accumulated rows.
            (Some(a), true) => {
                lateral_join(db, ctes, a, tref, JoinKind::Cross, &JoinConstraint::None, outer)?
            }
            (acc, _) => {
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

/// Run one `SELECT` block (CTEs already materialized into `ctes`).
pub(super) fn run_select(
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
    let scopes = Env::scopes(outer);

    // WHERE.
    let mut rows = input.rows;
    if let Some(w) = &sel.where_ {
        let binder = Binder::with_outer(db, &input.scope, &scopes);
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

    let head = SelectHead::analyze(db, sel, order_by, &input.scope, &scopes)?;
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

    // The result is typed by the rows LIMIT / OFFSET keep, as planned.
    let mut table = Table::with_rows(head.schema, produced.into_iter().map(|(_, r)| r).collect());
    apply_limit_offset(db, ctes, &mut table, limit, offset)?;
    Ok(Table { schema: table.schema.typed_by(&table.rows), rows: table.rows })
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
