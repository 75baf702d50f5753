//! The SELECT front end: what a query block *means*, worked out once
//! and read by the planner and by the reference interpreter alike.
//!
//! - [`resolve_relation`] knows which relation a name denotes;
//! - [`SelectHead::analyze`] binds the head of a block — select list,
//!   GROUP BY, aggregates, HAVING, ORDER BY — against its FROM scope and
//!   fixes the output names and static types;
//! - [`query_schema`] gives any query's output names and types under an
//!   outer scope chain without running it;
//! - [`limit_offset`] evaluates the LIMIT/OFFSET constants.
//!
//! The planner (`plan::build`) and the reference interpreter
//! (`exec::oracle`) differ only in how they execute the result:
//! `PlanNode`s or a row loop. A query either of them rejects here fails
//! with the same error.

use crate::ast::*;
use crate::catalog::{Binding, Ctes, Database};
use crate::error::{Error, Result};
use crate::exec::eval::{Binder, BoundExpr, Env, EvalCtx, Scope, ScopeCol};
use crate::exec::funcs;
use crate::exec::select::{
    apply_alias_columns, bind_order_expr, query_references, recursive_parts, unify_schemas,
    using_pairs,
};
use crate::plan::StoredTable;
use crate::table::{Column, Schema, Table};
use crate::types::DataType;
use std::borrow::Cow;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Relations
// ---------------------------------------------------------------------------

/// What a relation name in a FROM clause denotes.
pub(crate) enum Relation<'a> {
    Cte(&'a Arc<Binding>),
    View(&'a Arc<Query>),
    /// A catalog table, as stored (rows, columnar image, statistics).
    Table(&'a StoredTable),
    /// A snapshot of an `sdb_*` table, taken now.
    Virtual(Table),
}

/// Resolve a relation name: CTEs shadow views shadow tables shadow
/// virtual tables.
pub(crate) fn resolve_relation<'a>(
    db: &'a Database,
    ctes: &'a Ctes,
    name: &str,
) -> Result<Relation<'a>> {
    if let Some(t) = ctes.get(name) {
        return Ok(Relation::Cte(t));
    }
    if let Some(q) = db.view(name) {
        return Ok(Relation::View(q));
    }
    match db.stored_table(name) {
        Ok(t) => Ok(Relation::Table(t)),
        Err(e) => db.virtual_table(name).map(Relation::Virtual).ok_or(e),
    }
}

// ---------------------------------------------------------------------------
// LIMIT / OFFSET
// ---------------------------------------------------------------------------

/// Evaluate `LIMIT` and `OFFSET` — constant expressions, scalar
/// subqueries included — to `(limit, offset)` row counts. NULL means
/// absent, a negative count zero.
pub(crate) fn limit_offset(
    db: &Database,
    ctes: &Ctes,
    limit: &Option<Expr>,
    offset: &Option<Expr>,
) -> Result<(Option<usize>, Option<usize>)> {
    let scope = Scope::default();
    let eval_const = |e: &Option<Expr>| -> Result<Option<usize>> {
        let Some(e) = e else { return Ok(None) };
        let v = Binder::new(db, &scope).bind(e)?.eval(&EvalCtx { db, ctes }, &Env::empty())?;
        if v.is_null() {
            Ok(None)
        } else {
            Ok(Some(v.as_i64()?.max(0) as usize))
        }
    };
    let offset_n = eval_const(offset)?;
    Ok((eval_const(limit)?, offset_n))
}

// ---------------------------------------------------------------------------
// Head analysis
// ---------------------------------------------------------------------------

/// Aggregate call found in an expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AggCall {
    pub(crate) name: String,
    pub(crate) distinct: bool,
    /// `None` = count(*).
    pub(crate) arg: Option<Expr>,
    /// Second argument (string_agg separator).
    pub(crate) arg2: Option<Expr>,
}

/// The bound head of one `SELECT` block.
pub(crate) struct SelectHead {
    /// The select list with wildcards expanded: output name (when the
    /// item has one) and expression.
    pub(crate) proj: Vec<(Option<String>, Expr)>,
    /// GROUP BY items with positions and aliases resolved.
    pub(crate) group_by: Vec<Expr>,
    pub(crate) aggs: Vec<AggCall>,
    /// The scope after aggregation — `#g0..` then `#a0..` — when the
    /// block aggregates; `None` when it projects its input rows.
    pub(crate) agg_scope: Option<Scope>,
    /// Grouping sets as indices into `group_by`; plain GROUP BY is the
    /// single set using every key.
    pub(crate) sets: Vec<Vec<usize>>,
    /// Group keys and aggregate arguments, bound against the input scope.
    pub(crate) group_bound: Vec<BoundExpr>,
    pub(crate) agg_args: Vec<(Option<BoundExpr>, Option<BoundExpr>)>,
    /// Select list, HAVING and ORDER BY keys, bound against `agg_scope`
    /// when there is one and against the input scope otherwise.
    pub(crate) proj_bound: Vec<BoundExpr>,
    pub(crate) having_bound: Option<BoundExpr>,
    pub(crate) order_bound: Vec<BoundExpr>,
    /// The static output schema: column names, and the type each column
    /// has when every value in it is NULL (a direct column reference, an
    /// explicit cast or a non-NULL literal) — decision columns stay typed
    /// through this, and integrality of solver variables depends on it.
    pub(crate) schema: Schema,
}

impl SelectHead {
    /// Bind the head of `sel` (with the enclosing query's `order_by`)
    /// against `input`, the scope of its FROM clause.
    pub(crate) fn analyze(
        db: &Database,
        sel: &Select,
        order_by: &[OrderItem],
        input: &Scope,
        outer: &[&Scope],
    ) -> Result<SelectHead> {
        let proj = expand_projection(sel, input)?;
        let group_by = resolve_group_by(&sel.group_by, &proj, input)?;

        let mut aggs: Vec<AggCall> = Vec::new();
        for (_, e) in &proj {
            find_aggregates(e, &mut aggs);
        }
        if let Some(h) = &sel.having {
            find_aggregates(h, &mut aggs);
        }
        for o in order_by {
            find_aggregates(&o.expr, &mut aggs);
        }
        let aggregated = !group_by.is_empty()
            || sel.grouping_sets.is_some()
            || !aggs.is_empty()
            || sel.having.is_some();

        let in_binder = Binder::with_outer(db, input, outer);
        let (mut group_bound, mut agg_args) = (Vec::new(), Vec::new());
        let agg_scope = if aggregated {
            for g in &group_by {
                group_bound.push(in_binder.bind(g)?);
            }
            for a in &aggs {
                agg_args.push((
                    a.arg.as_ref().map(|e| in_binder.bind(e)).transpose()?,
                    a.arg2.as_ref().map(|e| in_binder.bind(e)).transpose()?,
                ));
            }
            let hidden = |name: String| ScopeCol { qualifier: None, name, ty: DataType::Unknown };
            let keys = (0..group_by.len()).map(|i| hidden(format!("#g{i}")));
            let results = (0..aggs.len()).map(|i| hidden(format!("#a{i}")));
            Some(Scope::new(keys.chain(results).collect()))
        } else {
            None
        };

        // Everything below sees the aggregate's output when there is one.
        let out_scope = agg_scope.as_ref().unwrap_or(input);
        let out_binder = Binder::with_outer(db, out_scope, outer);
        let bind_out = |e: &Expr| {
            if aggregated {
                out_binder.bind(&rewrite_agg(e, &group_by, &aggs))
            } else {
                out_binder.bind(e)
            }
        };
        let proj_bound: Vec<BoundExpr> = proj
            .iter()
            .map(|(_, e)| {
                if !aggregated {
                    return bind_with_idx_markers(&out_binder, e);
                }
                bind_out(&resolve_idx_markers(e, input)).map_err(|err| match err {
                    Error::Bind(m) => Error::bind(format!(
                        "{m} (column must appear in GROUP BY or be used in an aggregate)"
                    )),
                    other => other,
                })
            })
            .collect::<Result<_>>()?;
        let having_bound = sel.having.as_ref().map(&bind_out).transpose()?;
        let order_bound: Vec<BoundExpr> = order_by
            .iter()
            .map(|o| {
                // A position or an output name re-uses the select item.
                if let Expr::Literal(Literal::Int(i)) = &o.expr {
                    let idx = *i - 1;
                    if idx < 0 || idx as usize >= proj_bound.len() {
                        return Err(Error::bind(format!("ORDER BY position {i} out of range")));
                    }
                    return Ok(proj_bound[idx as usize].clone());
                }
                if let Expr::Column { qualifier: None, name } = &o.expr {
                    if let Some(i) =
                        proj.iter().position(|(n, _)| n.as_deref() == Some(name.as_str()))
                    {
                        return Ok(proj_bound[i].clone());
                    }
                }
                bind_out(&o.expr)
            })
            .collect::<Result<_>>()?;

        let columns = proj.iter().zip(&proj_bound).enumerate().map(|(i, ((name, _), b))| {
            let name = name.clone().unwrap_or_else(|| format!("column{}", i + 1));
            Column::new(name, static_type(b, out_scope))
        });
        let schema = Schema::new(columns.collect());
        let sets = match &sel.grouping_sets {
            Some(s) => s.clone(),
            None => vec![(0..group_by.len()).collect()],
        };
        Ok(SelectHead {
            proj,
            group_by,
            aggs,
            agg_scope,
            sets,
            group_bound,
            agg_args,
            proj_bound,
            having_bound,
            order_bound,
            schema,
        })
    }

    /// Every expression bound against the *input* scope — the ones a
    /// planner that prunes or reorders input columns has to remap.
    pub(crate) fn input_bound_mut(&mut self) -> impl Iterator<Item = &mut BoundExpr> {
        let (proj, order): (&mut [BoundExpr], &mut [BoundExpr]) = match self.agg_scope {
            Some(_) => (&mut [], &mut []),
            None => (&mut self.proj_bound, &mut self.order_bound),
        };
        self.group_bound
            .iter_mut()
            .chain(self.agg_args.iter_mut().flat_map(|(a, b)| a.iter_mut().chain(b)))
            .chain(proj)
            .chain(order)
    }
}

/// The names and types of what `q` returns under the scopes `outer` of
/// its enclosing blocks (innermost first), found without running it: the
/// schema, on both executors, of a relation that may read an outer row.
/// Every name binds as it will when `q` runs, so a name error is raised
/// here; nothing is evaluated. A block has its head's static
/// `schema`; a set operation unifies its arms' schemas, `VALUES`
/// has columns `column{i}` typed by its first row, a `WITH` member is
/// bound as an empty table of its schema (a recursive one of its
/// anchor's), and a `SOLVESELECT` returns its input relation.
pub(crate) fn query_schema(
    db: &Database,
    ctes: &Ctes,
    q: &Query,
    outer: &[&Scope],
) -> Result<Schema> {
    fn body(
        db: &Database,
        ctes: &Ctes,
        set: &SetExpr,
        order_by: &[OrderItem],
        outer: &[&Scope],
    ) -> Result<Schema> {
        match set {
            SetExpr::Select(sel) => {
                let mut input = Scope::default();
                for t in &sel.from {
                    input = input.join(&item(db, ctes, t, &input, outer)?);
                }
                if let Some(w) = &sel.where_ {
                    Binder::with_outer(db, &input, outer).bind(w)?;
                }
                Ok(SelectHead::analyze(db, sel, order_by, &input, outer)?.schema)
            }
            SetExpr::Query(q) => query_schema(db, ctes, q, outer),
            SetExpr::Solve(stmt) => query_schema(db, ctes, &stmt.input.query, &[]),
            SetExpr::SetOp { left, right, .. } => unify_schemas(
                &body(db, ctes, left, &[], outer)?,
                &body(db, ctes, right, &[], outer)?,
            ),
            SetExpr::Values(rows) => {
                let none = Scope::default();
                let binder = Binder::with_outer(db, &none, outer);
                let bound: Vec<_> =
                    rows.iter().flatten().map(|e| binder.bind(e)).collect::<Result<_>>()?;
                let first = bound.iter().take(rows.first().map_or(0, Vec::len));
                let column =
                    |(i, b)| Column::new(format!("column{}", i + 1), static_type(b, &none));
                Ok(Schema::new(first.enumerate().map(column).collect()))
            }
        }
    }

    /// The scope of the FROM item `t`; a LATERAL subquery in it reads
    /// `on_left`, the scope of what it is joined to.
    fn item(
        db: &Database,
        ctes: &Ctes,
        t: &TableRef,
        on_left: &Scope,
        outer: &[&Scope],
    ) -> Result<Scope> {
        let (qualifier, alias, schema) = match t {
            TableRef::Named { name, alias } => {
                let schema = match resolve_relation(db, ctes, name)? {
                    Relation::Cte(t) => t.schema().clone(),
                    Relation::View(vq) => query_schema(db, ctes, vq, outer)?,
                    Relation::Table(t) => t.schema().clone(),
                    Relation::Virtual(t) => t.schema,
                };
                (Some(alias.as_ref().map_or(name, |a| &a.name)), alias, schema)
            }
            TableRef::Subquery { query, lateral, alias } => {
                let lateral = lateral.then_some(on_left);
                let under: Vec<&Scope> = lateral.into_iter().chain(outer.iter().copied()).collect();
                (alias.as_ref().map(|a| &a.name), alias, query_schema(db, ctes, query, &under)?)
            }
            TableRef::Join { left, right, constraint, .. } => {
                let l = item(db, ctes, left, &Scope::default(), outer)?;
                let r = item(db, ctes, right, &l, outer)?;
                let both = l.join(&r);
                match constraint {
                    JoinConstraint::On(e) => _ = Binder::with_outer(db, &both, outer).bind(e)?,
                    JoinConstraint::Using(cols) => _ = using_pairs(cols, &l, &r)?,
                    JoinConstraint::None => {}
                }
                return Ok(both);
            }
        };
        let mut scope = Scope::from_schema(qualifier.map(String::as_str), &schema);
        apply_alias_columns(&mut scope, alias.as_ref())?;
        Ok(scope)
    }

    let mut bound = Cow::Borrowed(ctes);
    for cte in &q.with {
        let mut member = Table::new(if q.recursive && query_references(&cte.query, &cte.name) {
            body(db, &bound, recursive_parts(cte)?.1, &[], outer)?
        } else {
            query_schema(db, &bound, &cte.query, outer)?
        });
        member.schema.rename(&cte.columns)?;
        bound.to_mut().insert(&cte.name, Arc::new(member));
    }
    let schema = body(db, &bound, &q.body, &q.order_by, outer)?;
    if !matches!(q.body, SetExpr::Select(_)) {
        let scope = Scope::from_schema(None, &schema);
        for o in &q.order_by {
            bind_order_expr(db, &o.expr, &scope, &schema)?;
        }
    }
    Ok(schema)
}

/// `e` as an aggregate call, when it is one.
fn as_agg_call(e: &Expr) -> Option<AggCall> {
    let Expr::Func { name, args, distinct } = e else { return None };
    if !funcs::is_aggregate(name) {
        return None;
    }
    let arg = args.first().and_then(|a| match &a.value {
        Expr::Wildcard { .. } => None,
        v => Some(v.clone()),
    });
    let arg2 = args.get(1).map(|a| a.value.clone());
    Some(AggCall { name: name.clone(), distinct: *distinct, arg, arg2 })
}

fn find_aggregates(e: &Expr, out: &mut Vec<AggCall>) {
    e.walk(&mut |node| {
        if let Some(call) = as_agg_call(node) {
            if !out.contains(&call) {
                out.push(call);
            }
        }
    });
}

/// Rewrite an expression for the post-aggregation scope: aggregate calls
/// become references to `#a{i}`, expressions equal to a GROUP BY item
/// become `#g{i}`.
fn rewrite_agg(e: &Expr, group_by: &[Expr], aggs: &[AggCall]) -> Expr {
    // Group-expression match first (so `a` in GROUP BY a stays valid).
    if let Some(i) = group_by.iter().position(|g| e == g) {
        return Expr::Column { qualifier: None, name: format!("#g{i}") };
    }
    if let Some(i) = as_agg_call(e).and_then(|call| aggs.iter().position(|a| *a == call)) {
        return Expr::Column { qualifier: None, name: format!("#a{i}") };
    }
    e.map_children(|c| rewrite_agg(c, group_by, aggs))
}

/// Expand `SELECT *` / `t.*` items into positional column references
/// (`#idx{i}` markers) and attach default names to plain expressions.
fn expand_projection(sel: &Select, scope: &Scope) -> Result<Vec<(Option<String>, Expr)>> {
    let mut proj: Vec<(Option<String>, Expr)> = Vec::new();
    for item in &sel.projection {
        match item {
            SelectItem::Wildcard { qualifier } => {
                for (i, c) in scope.cols.iter().enumerate() {
                    let keep = match qualifier {
                        None => true,
                        Some(q) => c.qualifier.as_deref() == Some(q.as_str()),
                    };
                    if keep && !c.name.starts_with('#') {
                        // Reference by position via a marker resolved below.
                        proj.push((
                            Some(c.name.clone()),
                            Expr::Column {
                                qualifier: Some(format!("#idx{i}")),
                                name: c.name.clone(),
                            },
                        ));
                    }
                }
                if proj.is_empty() && scope.cols.is_empty() {
                    return Err(Error::bind("SELECT * with no FROM clause"));
                }
            }
            SelectItem::Expr { expr, alias } => {
                // Inner wildcard check (count(*) is rewritten later).
                let name = alias.clone().or_else(|| default_name(expr));
                proj.push((name, expr.clone()));
            }
        }
    }
    Ok(proj)
}

/// Resolve GROUP BY items against the projection list: positional
/// references (`GROUP BY 2`) and projection aliases become the projected
/// expression; input columns win over aliases.
fn resolve_group_by(
    items: &[Expr],
    proj: &[(Option<String>, Expr)],
    scope: &Scope,
) -> Result<Vec<Expr>> {
    let mut group_by: Vec<Expr> = Vec::new();
    for g in items {
        let resolved = match g {
            Expr::Literal(Literal::Int(i)) => {
                let idx = *i - 1;
                if idx < 0 || idx as usize >= proj.len() {
                    return Err(Error::bind(format!("GROUP BY position {i} out of range")));
                }
                proj[idx as usize].1.clone()
            }
            Expr::Column { qualifier: None, name } => {
                // Prefer an input column; otherwise a projection alias.
                if scope.resolve(None, name)?.is_some() {
                    g.clone()
                } else if let Some((_, e)) =
                    proj.iter().find(|(n, _)| n.as_deref() == Some(name.as_str()))
                {
                    e.clone()
                } else {
                    g.clone()
                }
            }
            other => other.clone(),
        };
        group_by.push(resolved);
    }
    Ok(group_by)
}

/// Wildcard-expanded items carry a `#idx{i}` qualifier so they bind by
/// position, immune to duplicate column names.
fn bind_with_idx_markers(binder: &Binder<'_>, e: &Expr) -> Result<BoundExpr> {
    if let Expr::Column { qualifier: Some(q), .. } = e {
        if let Some(index) = q.strip_prefix("#idx").and_then(|i| i.parse::<usize>().ok()) {
            return Ok(BoundExpr::Column { depth: 0, index });
        }
    }
    binder.bind(e)
}

/// In the aggregate path markers must be turned back into plain column
/// expressions so they can match GROUP BY items.
fn resolve_idx_markers(e: &Expr, scope: &Scope) -> Expr {
    if let Expr::Column { qualifier: Some(q), .. } = e {
        if let Some(col) = q
            .strip_prefix("#idx")
            .and_then(|i| i.parse::<usize>().ok())
            .and_then(|index| scope.cols.get(index))
        {
            return Expr::Column { qualifier: col.qualifier.clone(), name: col.name.clone() };
        }
    }
    e.clone()
}

/// Statically known output type of a bound expression (used when value
/// inference sees only NULLs).
fn static_type(b: &BoundExpr, scope: &Scope) -> DataType {
    match b {
        BoundExpr::Column { depth: 0, index } => scope.cols[*index].ty.clone(),
        BoundExpr::Cast { ty, .. } => ty.clone(),
        BoundExpr::Const(v) if !v.is_null() => v.data_type(),
        _ => DataType::Unknown,
    }
}

fn default_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Column { name, .. } => Some(name.clone()),
        Expr::Func { name, .. } => Some(name.clone()),
        Expr::Cast { expr, .. } => default_name(expr),
        Expr::ScalarSubquery(q) => {
            // Use the subquery's single output column name when obvious.
            if let SetExpr::Select(s) = &q.body {
                if let Some(SelectItem::Expr { expr, alias }) = s.projection.first() {
                    return alias.clone().or_else(|| default_name(expr));
                }
            }
            None
        }
        _ => None,
    }
}
