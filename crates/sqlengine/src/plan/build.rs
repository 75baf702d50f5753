//! Plan construction and cost-based optimization.
//!
//! [`plan_select`] compiles a plain `SELECT` into a [`PlannedQuery`].
//! It is deliberately conservative: any shape outside the planner's
//! competence returns `Ok(None)` (or an error, which the caller also
//! treats as "fall back") and the row interpreter executes the query
//! with its original semantics. Shapes that stay on the row path:
//!
//! - no FROM clause, LATERAL, `USING` joins
//! - `SOLVEMODEL` expressions or `SOLVESELECT` subqueries anywhere
//! - a block with an outer column in reach: the caller
//!   (`exec::select::run_query_planned`) plans a `SELECT` block wherever
//!   it sits — a statement's body, an arm of a set operation, a subquery
//!   — unless some scope of its outer chain has a column it could
//!   correlate with (a subquery under a FROM-less `SELECT` has none)
//! - the set operation itself, `VALUES`, and ORDER BY / LIMIT over a set
//!   operation: the row interpreter assembles what the arms return
//!
//! Every expression an operator evaluates over batches is compiled here,
//! with the node that owns it ([`VecExpr::compile`]); the executor
//! compiles nothing.
//!
//! For a FROM clause of pure inner/cross joins the builder runs the
//! full optimization pipeline: `WHERE` and `ON` conjuncts are pooled
//! (sound because inner-join `ON` and `WHERE` are interchangeable),
//! single-table conjuncts are pushed below the join onto their scan,
//! two-table equalities become hash-join edges, scans are pruned to the
//! referenced columns, and the join order is chosen greedily from
//! per-table statistics (smallest relation first, then whichever
//! candidate minimizes the estimated intermediate size). A `Reorder`
//! node restores the syntactic column order above the chosen join tree.
//! Outer joins keep their syntactic structure (predicate motion across
//! the nullable side of an outer join is unsound) and only get the
//! vectorized executor, not the optimizer.
//!
//! Expressions containing subqueries disable column pruning and join
//! reordering: bound subqueries re-bind against the runtime scope chain
//! at evaluation time, so the scope they see must stay syntactic.

use super::columnar::VecExpr;
use super::image::StoredTable;
use super::ir::{PlanAggCall, PlanNode, PlannedQuery, ScanSource};
use super::stats::TableStats;
use crate::ast::{
    Expr, JoinConstraint, JoinKind, OrderItem, Select, SelectItem, SetExpr, TableRef as AstTableRef,
};
use crate::catalog::{Ctes, Database};
use crate::error::Result;
use crate::exec::eval::{Binder, BoundExpr, Scope, ScopeCol};
use crate::exec::head::{limit_offset, resolve_relation, AggCall, Relation, SelectHead};
use crate::exec::select::{apply_alias_columns, run_query, try_equi_keys};
use crate::script::rwset::{expr_reads, query_reads};
use crate::table::Table;
use crate::types::DataType;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Compile a `SELECT` into an optimized plan, or `None` when the shape
/// belongs on the row interpreter.
pub fn plan_select(
    db: &Database,
    ctes: &Ctes,
    sel: &Select,
    order_by: &[OrderItem],
    limit: &Option<Expr>,
    offset: &Option<Expr>,
) -> Result<Option<PlannedQuery>> {
    if outside_planner(sel, order_by, limit, offset) {
        return Ok(None);
    }

    // LIMIT/OFFSET are constants of the plan. What their subqueries read
    // is captured in the plan like a FROM subquery.
    let mut captured_reads = BTreeSet::new();
    for e in limit.iter().chain(offset) {
        let mut reads = BTreeSet::new();
        expr_reads(e, &HashSet::new(), &mut reads);
        capture_reads(db, reads, &mut captured_reads);
    }
    let (limit_n, offset_n) = limit_offset(db, ctes, limit, offset)?;

    // -- FROM clause --------------------------------------------------------
    let pure = sel.from.iter().all(is_pure_inner);
    let from = if pure {
        let mut bases = Vec::new();
        let mut ons: Vec<(&Expr, Scope)> = Vec::new();
        for tref in &sel.from {
            if !flatten_pure(db, ctes, tref, &mut bases, &mut ons, &mut captured_reads)? {
                return Ok(None);
            }
        }
        // Validate ON conditions the way the interpreter would: bound
        // against the local combined scope of their join node.
        for (e, local) in &ons {
            let binder = Binder::new(db, local);
            binder.bind(e)?; // Err → fall back; interpreter reproduces it
        }
        let mut syn_scope = Scope::default();
        let mut offsets = Vec::with_capacity(bases.len());
        for b in &bases {
            offsets.push(syn_scope.cols.len());
            syn_scope = syn_scope.join(&b.scope);
        }
        FromShape::Pure {
            bases,
            offsets,
            syn_scope,
            ons: ons.into_iter().map(|(e, _)| e).collect(),
        }
    } else {
        let mut node: Option<PlanNode> = None;
        for tref in &sel.from {
            let Some(next) = build_syntactic(db, ctes, tref, &mut captured_reads)? else {
                return Ok(None);
            };
            node = Some(match node {
                None => next,
                Some(acc) => {
                    let scope = acc.scope().join(next.scope());
                    let est = acc.est() * next.est();
                    PlanNode::Join {
                        left: Box::new(acc),
                        right: Box::new(next),
                        kind: JoinKind::Cross,
                        lkeys: vec![],
                        rkeys: vec![],
                        cond: None,
                        desc: String::new(),
                        scope,
                        est,
                    }
                }
            });
        }
        let Some(node) = node else { return Ok(None) };
        let syn_scope = node.scope().clone();
        FromShape::General { node, syn_scope }
    };
    let syn_scope = match &from {
        FromShape::Pure { syn_scope, .. } | FromShape::General { syn_scope, .. } => {
            syn_scope.clone()
        }
    };

    // -- head: select list, grouping, HAVING, ORDER BY ----------------------
    let mut head = SelectHead::analyze(db, sel, order_by, &syn_scope, None)?;

    // Subqueries re-bind against the runtime scope at evaluation time,
    // so any subquery in any expression pins the scope to its syntactic
    // shape: no pruning, no join reordering.
    let mut has_subquery = head.proj.iter().any(|(_, e)| expr_has_subquery(e))
        || sel.where_.as_ref().is_some_and(expr_has_subquery)
        || sel.having.as_ref().is_some_and(expr_has_subquery)
        || head.group_by.iter().any(expr_has_subquery)
        || order_by.iter().any(|o| expr_has_subquery(&o.expr));
    let syn_binder = Binder::new(db, &syn_scope);

    // -- conjunct classification (pure mode) --------------------------------
    let (mut input, col_map) = match from {
        FromShape::General { node, .. } => {
            let node = match &sel.where_ {
                Some(w) => {
                    let pred = VecExpr::compile(&syn_binder.bind(w)?);
                    let est = sel_est(node.est(), 1);
                    PlanNode::Filter {
                        input: Box::new(node),
                        pred,
                        desc: clip(&w.to_string()),
                        derived: false,
                        est,
                    }
                }
                None => node,
            };
            (node, None)
        }
        FromShape::Pure { bases, offsets, syn_scope: _, ons } => {
            let mut conjuncts: Vec<&Expr> = Vec::new();
            for e in &ons {
                split_and(e, &mut conjuncts);
            }
            if let Some(w) = &sel.where_ {
                split_and(w, &mut conjuncts);
            }

            let base_of = |cols: &[usize]| -> Option<usize> {
                let mut owner = None;
                for &c in cols {
                    let b = offsets.iter().rposition(|&o| o <= c)?;
                    if owner.is_some_and(|p| p != b) {
                        return None;
                    }
                    owner = Some(b);
                }
                owner
            };

            struct Edge {
                a: usize,
                b: usize,
                ab: BoundExpr,
                bb: BoundExpr,
                desc: String,
            }
            let mut pushed: Vec<Vec<Pushed>> = vec![Vec::new(); bases.len()];
            let mut edges: Vec<Edge> = Vec::new();
            let mut residual: Vec<(BoundExpr, String)> = Vec::new();
            // What `derive_across_edges` reads: the pushed conjuncts that
            // compare one bare column with constants, and the equalities
            // between two bare columns, as written.
            let mut comparisons: Vec<(usize, &Expr)> = Vec::new();
            let mut equalities: Vec<[(usize, &Expr); 2]> = Vec::new();
            for c in conjuncts {
                let b = syn_binder.bind(c)?;
                let desc = clip(&c.to_string());
                if bound_has_subquery(&b) {
                    has_subquery = true;
                    residual.push((b, desc));
                    continue;
                }
                let mut cols = Vec::new();
                collect_cols(&b, &mut cols);
                if !cols.is_empty() {
                    if let Some(owner) = base_of(&cols) {
                        if let Some(col) = constant_comparison(&b, &syn_scope) {
                            comparisons.push((col, c));
                        }
                        pushed[owner].push(Pushed { pred: b, desc, derived: false });
                        continue;
                    }
                }
                if let BoundExpr::BinOp { op: crate::types::BinOp::Eq, lhs, rhs } = &b {
                    let (mut lc, mut rc) = (Vec::new(), Vec::new());
                    collect_cols(lhs, &mut lc);
                    collect_cols(rhs, &mut rc);
                    if !lc.is_empty() && !rc.is_empty() {
                        if let (Some(a), Some(bb)) = (base_of(&lc), base_of(&rc)) {
                            if a != bb {
                                if let (
                                    BoundExpr::Column { depth: 0, index: l },
                                    BoundExpr::Column { depth: 0, index: r },
                                    Expr::BinOp { lhs: le, rhs: re, .. },
                                ) = (&**lhs, &**rhs, c)
                                {
                                    equalities.push([(*l, &**le), (*r, &**re)]);
                                }
                                edges.push(Edge {
                                    a,
                                    b: bb,
                                    ab: (**lhs).clone(),
                                    bb: (**rhs).clone(),
                                    desc,
                                });
                                continue;
                            }
                        }
                    }
                }
                residual.push((b, desc));
            }

            for (col, pred, desc) in
                derive_across_edges(&syn_binder, &syn_scope, &comparisons, &equalities)
            {
                let Some(owner) = base_of(&[col]) else { continue };
                if pushed[owner].iter().all(|p| p.desc != desc) {
                    pushed[owner].push(Pushed { pred, desc, derived: true });
                }
            }

            // -- column pruning ---------------------------------------------
            let widths: Vec<usize> = bases.iter().map(|b| b.scope.cols.len()).collect();
            let total: usize = widths.iter().sum();
            let kept: Vec<Vec<usize>> = if has_subquery {
                widths.iter().map(|&w| (0..w).collect()).collect()
            } else {
                let mut used: HashSet<usize> = HashSet::new();
                let mut add = |b: &BoundExpr| {
                    let mut cols = Vec::new();
                    collect_cols(b, &mut cols);
                    used.extend(cols);
                };
                for p in pushed.iter().flatten() {
                    add(&p.pred);
                }
                for e in &edges {
                    add(&e.ab);
                    add(&e.bb);
                }
                for (b, _) in &residual {
                    add(b);
                }
                for b in head.input_bound_mut() {
                    add(b);
                }
                (0..bases.len())
                    .map(|bi| {
                        (0..widths[bi]).filter(|j| used.contains(&(offsets[bi] + j))).collect()
                    })
                    .collect()
            };
            // Old syntactic index → pruned syntactic index.
            let mut to_pruned: HashMap<usize, usize> = HashMap::new();
            let mut pruned_offsets = Vec::with_capacity(bases.len());
            let mut pruned_scope = Scope::default();
            for (bi, keep) in kept.iter().enumerate() {
                pruned_offsets.push(pruned_scope.cols.len());
                for &j in keep {
                    to_pruned.insert(offsets[bi] + j, pruned_scope.cols.len());
                    pruned_scope.cols.push(bases[bi].scope.cols[j].clone());
                }
            }
            let map: Option<HashMap<usize, usize>> =
                if to_pruned.len() == total && (0..total).all(|i| to_pruned.get(&i) == Some(&i)) {
                    None
                } else {
                    Some(to_pruned.clone())
                };

            // -- per-base scan (+ pushed filter) nodes -----------------------
            let col_distinct = |syn: usize| -> Option<f64> {
                let bi = offsets.iter().rposition(|&o| o <= syn)?;
                let j = syn - offsets[bi];
                Some(bases[bi].stats.distinct_of(j))
            };
            let mut nodes: Vec<Option<PlanNode>> = Vec::with_capacity(bases.len());
            let mut ests: Vec<f64> = Vec::with_capacity(bases.len());
            for (bi, base) in bases.iter().enumerate() {
                let scope =
                    Scope::new(kept[bi].iter().map(|&j| base.scope.cols[j].clone()).collect());
                let full = kept[bi].len() == widths[bi];
                let mut est = base.stats.row_count as f64;
                let mut node = PlanNode::Scan {
                    label: base.label.clone(),
                    source: base.source.clone(),
                    cols: if full { None } else { Some(kept[bi].clone()) },
                    total_cols: widths[bi],
                    scope,
                    est,
                };
                // Base-local remap: syntactic index → scan output index.
                let local: HashMap<usize, usize> =
                    kept[bi].iter().enumerate().map(|(pos, &j)| (offsets[bi] + j, pos)).collect();
                for Pushed { pred, desc, derived } in &pushed[bi] {
                    est = pred_est(pred, est, &col_distinct);
                    let Some(pred) = remap_cols(pred, &local) else { return Ok(None) };
                    node = PlanNode::Filter {
                        input: Box::new(node),
                        pred: VecExpr::compile(&pred),
                        desc: desc.clone(),
                        derived: *derived,
                        est,
                    };
                }
                nodes.push(Some(node));
                ests.push(est);
            }

            // -- greedy join order ------------------------------------------
            let nb = bases.len();
            let reorder_ok = !has_subquery;
            let mut order: Vec<usize> = Vec::with_capacity(nb);
            if nb > 1 && reorder_ok {
                let mut start = 0;
                for i in 1..nb {
                    if ests[i] < ests[start] {
                        start = i;
                    }
                }
                let mut in_set = vec![false; nb];
                in_set[start] = true;
                order.push(start);
                let mut acc_est = ests[start];
                while order.len() < nb {
                    let mut best: Option<(f64, usize)> = None;
                    for c in 0..nb {
                        if in_set[c] {
                            continue;
                        }
                        let est = join_est(
                            acc_est,
                            ests[c],
                            &edges_between(
                                &edges.iter().map(|e| (e.a, e.b, &e.ab, &e.bb)).collect::<Vec<_>>(),
                                &in_set,
                                c,
                            ),
                            &col_distinct,
                        );
                        if best.is_none_or(|(be, _)| est < be) {
                            best = Some((est, c));
                        }
                    }
                    let Some((est, c)) = best else { return Ok(None) };
                    in_set[c] = true;
                    order.push(c);
                    acc_est = est;
                }
            } else {
                order.extend(0..nb);
            }

            // -- assemble the join tree -------------------------------------
            // acc_map: pruned syntactic index → position in the join output.
            let mut acc_map: HashMap<usize, usize> = HashMap::new();
            let first = order[0];
            for pos in 0..kept[first].len() {
                acc_map.insert(pruned_offsets[first] + pos, pos);
            }
            let Some(mut node) = nodes[first].take() else { return Ok(None) };
            let mut acc_est = ests[first];
            let mut in_set = vec![false; nb];
            in_set[first] = true;
            let mut edge_used = vec![false; edges.len()];
            for &c in &order[1..] {
                let mut lkeys = Vec::new();
                let mut rkeys = Vec::new();
                let mut descs = Vec::new();
                let local: HashMap<usize, usize> =
                    kept[c].iter().enumerate().map(|(pos, &j)| (offsets[c] + j, pos)).collect();
                let mut denom = 1.0f64;
                for (ei, e) in edges.iter().enumerate() {
                    if edge_used[ei] {
                        continue;
                    }
                    let (set_side, c_side) = if e.b == c && in_set[e.a] {
                        (&e.ab, &e.bb)
                    } else if e.a == c && in_set[e.b] {
                        (&e.bb, &e.ab)
                    } else {
                        continue;
                    };
                    // Remap through pruning first, then to positions.
                    let set_pruned = match &map {
                        Some(m) => {
                            let Some(x) = remap_cols(set_side, m) else { return Ok(None) };
                            x
                        }
                        None => set_side.clone(),
                    };
                    let Some(lk) = remap_cols(&set_pruned, &acc_map) else { return Ok(None) };
                    let Some(rk) = remap_cols(c_side, &local) else { return Ok(None) };
                    lkeys.push(VecExpr::compile(&lk));
                    rkeys.push(VecExpr::compile(&rk));
                    descs.push(e.desc.clone());
                    denom = denom.max(edge_distinct(set_side, c_side, &col_distinct));
                    edge_used[ei] = true;
                }
                let Some(right) = nodes[c].take() else { return Ok(None) };
                let est = if lkeys.is_empty() {
                    acc_est * ests[c]
                } else {
                    (acc_est * ests[c] / denom.max(1.0)).max(0.0)
                };
                let kind = if lkeys.is_empty() { JoinKind::Cross } else { JoinKind::Inner };
                let scope = node.scope().join(right.scope());
                let width = acc_map.len();
                for pos in 0..kept[c].len() {
                    acc_map.insert(pruned_offsets[c] + pos, width + pos);
                }
                node = PlanNode::Join {
                    left: Box::new(node),
                    right: Box::new(right),
                    kind,
                    lkeys,
                    rkeys,
                    cond: None,
                    desc: descs.join(" AND "),
                    scope,
                    est,
                };
                acc_est = est;
                in_set[c] = true;
            }

            // Restore syntactic column order above the join.
            let width = pruned_scope.cols.len();
            let mut perm = Vec::with_capacity(width);
            for i in 0..width {
                let Some(&p) = acc_map.get(&i) else { return Ok(None) };
                perm.push(p);
            }
            if perm.iter().enumerate().any(|(i, &p)| i != p) {
                node =
                    PlanNode::Reorder { input: Box::new(node), perm, scope: pruned_scope.clone() };
            }

            // Residual predicates evaluate on the reordered (syntactic)
            // columns.
            for (b, desc) in &residual {
                let pred = match &map {
                    Some(m) => {
                        let Some(x) = remap_cols(b, m) else { return Ok(None) };
                        VecExpr::compile(&x)
                    }
                    None => VecExpr::compile(b),
                };
                let est = sel_est(node.est(), 1);
                node = PlanNode::Filter {
                    input: Box::new(node),
                    pred,
                    desc: desc.clone(),
                    derived: false,
                    est,
                };
            }
            (node, map)
        }
    };

    // Remap the expressions that read the FROM output through pruning.
    if let Some(m) = &col_map {
        for b in head.input_bound_mut() {
            let Some(x) = remap_cols(b, m) else { return Ok(None) };
            *b = x;
        }
    }

    // -- aggregation --------------------------------------------------------
    if let Some(agg_scope) = head.agg_scope {
        let agg_desc = {
            let g = head.group_by.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ");
            let a = head.aggs.iter().map(agg_display).collect::<Vec<_>>().join(", ");
            clip(&format!("group=[{g}] aggs=[{a}]"))
        };
        let est = agg_est(input.est(), &head.sets);
        let aggs: Vec<PlanAggCall> = head
            .aggs
            .iter()
            .zip(head.agg_args)
            .map(|(call, (arg, arg2))| PlanAggCall {
                name: call.name.clone(),
                distinct: call.distinct,
                arg: arg.as_ref().map(VecExpr::compile),
                arg2: arg2.as_ref().map(VecExpr::compile),
                desc: agg_display(call),
            })
            .collect();
        input = PlanNode::Aggregate {
            input: Box::new(input),
            group: head.group_bound.iter().map(VecExpr::compile).collect(),
            sets: head.sets,
            aggs,
            desc: agg_desc,
            scope: agg_scope,
            est,
        };

        // HAVING filters aggregate rows before projection.
        if let (Some(h), Some(pred)) = (&sel.having, &head.having_bound) {
            let pred = VecExpr::compile(pred);
            let est = sel_est(input.est(), 1);
            input = PlanNode::Filter {
                input: Box::new(input),
                pred,
                desc: clip(&h.to_string()),
                derived: false,
                est,
            };
        }
    }

    // Project (visible columns + ORDER BY keys).
    let (names, static_types, visible) = (head.names, head.static_types, head.proj.len());
    let mut out_cols: Vec<ScopeCol> = names
        .iter()
        .zip(static_types.iter())
        .map(|(n, t)| ScopeCol { qualifier: None, name: n.clone(), ty: t.clone() })
        .collect();
    for i in 0..head.order_bound.len() {
        out_cols.push(ScopeCol {
            qualifier: None,
            name: format!("#ord{i}"),
            ty: DataType::Unknown,
        });
    }
    let proj_desc =
        clip(&head.proj.iter().map(|(_, e)| e.to_string()).collect::<Vec<_>>().join(", "));
    let exprs = head.proj_bound.iter().chain(&head.order_bound).map(VecExpr::compile).collect();
    input = PlanNode::Project {
        input: Box::new(input),
        exprs,
        visible,
        desc: proj_desc,
        scope: Scope::new(out_cols),
    };

    if sel.distinct {
        input = PlanNode::Distinct { input: Box::new(input), visible };
    }
    if !order_by.is_empty() {
        let desc = clip(
            &order_by
                .iter()
                .map(|o| {
                    let mut s = o.expr.to_string();
                    if o.desc {
                        s.push_str(" DESC");
                    }
                    s
                })
                .collect::<Vec<_>>()
                .join(", "),
        );
        input = PlanNode::Sort { input: Box::new(input), items: order_by.to_vec(), visible, desc };
    }
    if limit_n.is_some() || offset_n.is_some() {
        input = PlanNode::Limit { input: Box::new(input), limit: limit_n, offset: offset_n };
    }

    db.count_plan_built();
    Ok(Some(PlannedQuery { root: input, names, static_types, visible, captured_reads }))
}

/// The shape gate: is this a `SELECT` the planner refuses on sight? Cheap
/// (no binding, no catalog), so the plan cache asks before it renders a
/// key.
pub(crate) fn outside_planner(
    sel: &Select,
    order_by: &[OrderItem],
    limit: &Option<Expr>,
    offset: &Option<Expr>,
) -> bool {
    sel.from.is_empty()
        || sel.from.iter().any(tref_unsupported)
        || select_has_solve(sel)
        || order_by.iter().any(|o| expr_has_solve(&o.expr))
        || limit.as_ref().is_some_and(expr_has_solve)
        || offset.as_ref().is_some_and(expr_has_solve)
}

// ---------------------------------------------------------------------------
// FROM analysis
// ---------------------------------------------------------------------------

enum FromShape<'a> {
    Pure { bases: Vec<Base>, offsets: Vec<usize>, syn_scope: Scope, ons: Vec<&'a Expr> },
    General { node: PlanNode, syn_scope: Scope },
}

/// A single-table conjunct on its way below the joins, onto its base's
/// scan.
#[derive(Clone)]
struct Pushed {
    pred: BoundExpr,
    desc: String,
    /// Copied across an equi-edge by [`derive_across_edges`], not written
    /// in the statement.
    derived: bool,
}

struct Base {
    label: String,
    source: ScanSource,
    scope: Scope,
    stats: Arc<TableStats>,
}

/// Is this FROM element a tree of inner/cross joins over plain
/// primaries (full optimization applies)?
fn is_pure_inner(t: &AstTableRef) -> bool {
    match t {
        AstTableRef::Named { .. } => true,
        AstTableRef::Subquery { lateral, .. } => !lateral,
        AstTableRef::Join { left, right, kind, constraint } => {
            matches!(kind, JoinKind::Inner | JoinKind::Cross)
                && matches!(constraint, JoinConstraint::On(_) | JoinConstraint::None)
                && is_pure_inner(left)
                && is_pure_inner(right)
        }
    }
}

/// Shapes the planner refuses outright.
fn tref_unsupported(t: &AstTableRef) -> bool {
    match t {
        AstTableRef::Named { .. } => false,
        AstTableRef::Subquery { lateral, query, .. } => *lateral || query_has_solve(query),
        AstTableRef::Join { left, right, constraint, .. } => {
            matches!(constraint, JoinConstraint::Using(_))
                || tref_unsupported(left)
                || tref_unsupported(right)
        }
    }
}

/// Flatten a pure-inner tree into `bases` (syntactic order), recording
/// each ON condition with the combined scope of its join node (for
/// validation). Returns false on shapes that cannot be planned.
fn flatten_pure<'a>(
    db: &Database,
    ctes: &Ctes,
    t: &'a AstTableRef,
    bases: &mut Vec<Base>,
    ons: &mut Vec<(&'a Expr, Scope)>,
    captured: &mut BTreeSet<String>,
) -> Result<bool> {
    fn go<'a>(
        db: &Database,
        ctes: &Ctes,
        t: &'a AstTableRef,
        bases: &mut Vec<Base>,
        ons: &mut Vec<(&'a Expr, Scope)>,
        captured: &mut BTreeSet<String>,
    ) -> Result<Option<Scope>> {
        match t {
            AstTableRef::Join { left, right, constraint, .. } => {
                let Some(ls) = go(db, ctes, left, bases, ons, captured)? else { return Ok(None) };
                let Some(rs) = go(db, ctes, right, bases, ons, captured)? else { return Ok(None) };
                let combined = ls.join(&rs);
                if let JoinConstraint::On(e) = constraint {
                    ons.push((e, combined.clone()));
                }
                Ok(Some(combined))
            }
            primary => match materialize_primary(db, ctes, primary, captured)? {
                Some(base) => {
                    let scope = base.scope.clone();
                    bases.push(base);
                    Ok(Some(scope))
                }
                None => Ok(None),
            },
        }
    }
    Ok(go(db, ctes, t, bases, ons, captured)?.is_some())
}

/// Turn a table primary (named relation or subquery) into a scan source
/// plus its scope and statistics. A CTE becomes a slot, re-resolved at
/// every execution; a catalog table is scanned through the catalog's
/// stored table, image and statistics included; views and subqueries are
/// run here and their result captured, and the names they read are added
/// to `captured`.
fn materialize_primary(
    db: &Database,
    ctes: &Ctes,
    t: &AstTableRef,
    captured: &mut BTreeSet<String>,
) -> Result<Option<Base>> {
    let stored = |t: StoredTable| {
        let stats = t.stats();
        (ScanSource::Table(t), stats)
    };
    // A relation computed here: the plan holds its rows.
    let owned = |t: Table| stored(StoredTable::new(Arc::new(t)));
    let (label, qualifier, alias, (source, stats)) = match t {
        AstTableRef::Named { name, alias } => {
            let resolved = match resolve_relation(db, ctes, name)? {
                // A slot takes its estimate from this first binding.
                Relation::Cte(t) => (
                    ScanSource::Slot { name: name.clone(), schema: t.schema.clone() },
                    Arc::new(TableStats::collect(t)),
                ),
                Relation::View(vq) => {
                    capture_reads(db, reads_of(vq), captured);
                    owned(run_query(db, ctes, vq, None)?)
                }
                Relation::Table(t) => stored(t.clone()),
                Relation::Virtual(t) => {
                    // A snapshot taken now, outside the catalog epoch:
                    // the plan must not be cached.
                    captured.insert(name.clone());
                    owned(t)
                }
            };
            (name.clone(), Some(alias.as_ref().map_or(name, |a| &a.name)), alias, resolved)
        }
        AstTableRef::Subquery { query, lateral: false, alias } => {
            capture_reads(db, reads_of(query), captured);
            let label = alias.as_ref().map_or_else(|| "(subquery)".to_string(), |a| a.name.clone());
            let qualifier = alias.as_ref().map(|a| &a.name);
            (label, qualifier, alias, owned(run_query(db, ctes, query, None)?))
        }
        _ => return Ok(None),
    };
    let schema = match &source {
        ScanSource::Table(t) => &t.table().schema,
        ScanSource::Slot { schema, .. } => schema,
    };
    let mut scope = Scope::from_schema(qualifier.map(String::as_str), schema);
    apply_alias_columns(&mut scope, alias.as_ref())?;
    Ok(Some(Base { label, source, scope, stats }))
}

/// Every relation name `q` reads, following views into the names they
/// read. Conservative: names bound by the query's own `WITH` are left
/// out, everything else that appears as a relation is in.
pub fn relation_reads(db: &Database, q: &crate::ast::Query) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    capture_reads(db, reads_of(q), &mut out);
    out
}

fn reads_of(q: &crate::ast::Query) -> BTreeSet<String> {
    let mut reads = BTreeSet::new();
    query_reads(q, &HashSet::new(), &mut reads);
    reads
}

/// Add the relation names in `reads` to `out`, following views into the
/// names *they* read.
fn capture_reads(db: &Database, reads: BTreeSet<String>, out: &mut BTreeSet<String>) {
    for name in reads {
        if out.insert(name.clone()) {
            if let Some(vq) = db.view(&name) {
                capture_reads(db, reads_of(vq), out);
            }
        }
    }
}

/// Build a plan subtree that mirrors the syntactic join structure
/// (used for outer joins, where reordering/pushdown are unsound).
fn build_syntactic(
    db: &Database,
    ctes: &Ctes,
    t: &AstTableRef,
    captured: &mut BTreeSet<String>,
) -> Result<Option<PlanNode>> {
    match t {
        AstTableRef::Join { left, right, kind, constraint } => {
            let Some(l) = build_syntactic(db, ctes, left, captured)? else { return Ok(None) };
            let Some(r) = build_syntactic(db, ctes, right, captured)? else { return Ok(None) };
            let combined = l.scope().join(r.scope());
            let (lkeys, rkeys, cond, desc) = match constraint {
                JoinConstraint::Using(_) => return Ok(None),
                JoinConstraint::None => (vec![], vec![], None, String::new()),
                JoinConstraint::On(e) => {
                    let keys = if !matches!(kind, JoinKind::Cross) {
                        try_equi_keys(db, e, l.scope(), r.scope())
                    } else {
                        None
                    };
                    match keys {
                        Some((lk, rk)) => {
                            let compile =
                                |keys: &[BoundExpr]| keys.iter().map(VecExpr::compile).collect();
                            (compile(&lk), compile(&rk), None, clip(&e.to_string()))
                        }
                        None => {
                            let binder = Binder::new(db, &combined);
                            (vec![], vec![], Some(binder.bind(e)?), clip(&e.to_string()))
                        }
                    }
                }
            };
            let (le, re) = (l.est(), r.est());
            let mut est = if lkeys.is_empty() && cond.is_none() {
                le * re
            } else if lkeys.is_empty() {
                le * re / 3.0
            } else {
                le * re / le.max(re).max(1.0)
            };
            if matches!(kind, JoinKind::Left | JoinKind::Full) {
                est = est.max(le);
            }
            if matches!(kind, JoinKind::Right | JoinKind::Full) {
                est = est.max(re);
            }
            Ok(Some(PlanNode::Join {
                left: Box::new(l),
                right: Box::new(r),
                kind: *kind,
                lkeys,
                rkeys,
                cond,
                desc,
                scope: combined,
                est,
            }))
        }
        primary => {
            let Some(base) = materialize_primary(db, ctes, primary, captured)? else {
                return Ok(None);
            };
            let total = base.scope.cols.len();
            Ok(Some(PlanNode::Scan {
                label: base.label,
                source: base.source,
                cols: None,
                total_cols: total,
                scope: base.scope,
                est: base.stats.row_count as f64,
            }))
        }
    }
}

// ---------------------------------------------------------------------------
// Expression analysis helpers
// ---------------------------------------------------------------------------

fn split_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::BinOp { op: crate::types::BinOp::And, lhs, rhs } = e {
        split_and(lhs, out);
        split_and(rhs, out);
    } else {
        out.push(e);
    }
}

fn expr_has_solve(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |n| {
        found = found
            || matches!(n, Expr::SolveModel(_))
            || match n {
                Expr::ScalarSubquery(q) => query_has_solve(q),
                Expr::InSubquery { query, .. } | Expr::Exists { query, .. } => {
                    query_has_solve(query)
                }
                _ => false,
            };
    });
    found
}

fn expr_has_subquery(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |n| {
        found = found
            || matches!(n, Expr::ScalarSubquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. });
    });
    found
}

fn select_has_solve(sel: &Select) -> bool {
    sel.projection.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr_has_solve(expr),
        SelectItem::Wildcard { .. } => false,
    }) || sel.where_.as_ref().is_some_and(expr_has_solve)
        || sel.having.as_ref().is_some_and(expr_has_solve)
        || sel.group_by.iter().any(expr_has_solve)
        || sel.from.iter().any(tref_has_solve)
}

fn tref_has_solve(t: &AstTableRef) -> bool {
    match t {
        AstTableRef::Named { .. } => false,
        AstTableRef::Subquery { query, .. } => query_has_solve(query),
        AstTableRef::Join { left, right, constraint, .. } => {
            tref_has_solve(left)
                || tref_has_solve(right)
                || matches!(constraint, JoinConstraint::On(e) if expr_has_solve(e))
        }
    }
}

fn query_has_solve(q: &crate::ast::Query) -> bool {
    fn set_expr(s: &SetExpr) -> bool {
        match s {
            SetExpr::Solve(_) => true,
            SetExpr::Select(sel) => select_has_solve(sel),
            SetExpr::Query(q) => query_has_solve(q),
            SetExpr::SetOp { left, right, .. } => set_expr(left) || set_expr(right),
            SetExpr::Values(rows) => rows.iter().flatten().any(expr_has_solve),
        }
    }
    q.with.iter().any(|c| query_has_solve(&c.query))
        || set_expr(&q.body)
        || q.order_by.iter().any(|o| expr_has_solve(&o.expr))
        || q.limit.as_ref().is_some_and(expr_has_solve)
        || q.offset.as_ref().is_some_and(expr_has_solve)
}

/// Does a bound expression contain a subquery (or solve) node? Such
/// expressions bind their subqueries against the runtime scope chain at
/// evaluation time and therefore must not be index-remapped.
pub(crate) fn bound_has_subquery(b: &BoundExpr) -> bool {
    match b {
        BoundExpr::ScalarSubquery(_)
        | BoundExpr::InSubquery { .. }
        | BoundExpr::Exists { .. }
        | BoundExpr::SolveModel(_) => true,
        BoundExpr::Const(_) | BoundExpr::Column { .. } => false,
        BoundExpr::BinOp { lhs, rhs, .. } => bound_has_subquery(lhs) || bound_has_subquery(rhs),
        BoundExpr::UnOp { expr, .. } => bound_has_subquery(expr),
        BoundExpr::Chain { first, rest } => {
            bound_has_subquery(first) || rest.iter().any(|(_, e)| bound_has_subquery(e))
        }
        BoundExpr::Builtin { args, .. } | BoundExpr::Udf { args, .. } => {
            args.iter().any(bound_has_subquery)
        }
        BoundExpr::Cast { expr, .. } => bound_has_subquery(expr),
        BoundExpr::Case { operand, branches, else_ } => {
            operand.as_deref().is_some_and(bound_has_subquery)
                || branches.iter().any(|(c, r)| bound_has_subquery(c) || bound_has_subquery(r))
                || else_.as_deref().is_some_and(bound_has_subquery)
        }
        BoundExpr::IsNull { expr, .. } => bound_has_subquery(expr),
        BoundExpr::InList { expr, list, .. } => {
            bound_has_subquery(expr) || list.iter().any(bound_has_subquery)
        }
        BoundExpr::Between { expr, low, high, .. } => {
            bound_has_subquery(expr) || bound_has_subquery(low) || bound_has_subquery(high)
        }
        BoundExpr::Like { expr, pattern, .. } => {
            bound_has_subquery(expr) || bound_has_subquery(pattern)
        }
    }
}

/// Collect all depth-0 column indices referenced by a bound expression.
pub(crate) fn collect_cols(b: &BoundExpr, out: &mut Vec<usize>) {
    match b {
        BoundExpr::Column { depth: 0, index } => out.push(*index),
        BoundExpr::Column { .. } | BoundExpr::Const(_) => {}
        BoundExpr::BinOp { lhs, rhs, .. } => {
            collect_cols(lhs, out);
            collect_cols(rhs, out);
        }
        BoundExpr::UnOp { expr, .. } => collect_cols(expr, out),
        BoundExpr::Chain { first, rest } => {
            collect_cols(first, out);
            for (_, e) in rest {
                collect_cols(e, out);
            }
        }
        BoundExpr::Builtin { args, .. } | BoundExpr::Udf { args, .. } => {
            for a in args {
                collect_cols(a, out);
            }
        }
        BoundExpr::Cast { expr, .. } => collect_cols(expr, out),
        BoundExpr::Case { operand, branches, else_ } => {
            if let Some(o) = operand {
                collect_cols(o, out);
            }
            for (c, r) in branches {
                collect_cols(c, out);
                collect_cols(r, out);
            }
            if let Some(e) = else_ {
                collect_cols(e, out);
            }
        }
        BoundExpr::IsNull { expr, .. } => collect_cols(expr, out),
        BoundExpr::InList { expr, list, .. } => {
            collect_cols(expr, out);
            for e in list {
                collect_cols(e, out);
            }
        }
        BoundExpr::Between { expr, low, high, .. } => {
            collect_cols(expr, out);
            collect_cols(low, out);
            collect_cols(high, out);
        }
        BoundExpr::Like { expr, pattern, .. } => {
            collect_cols(expr, out);
            collect_cols(pattern, out);
        }
        BoundExpr::ScalarSubquery(_)
        | BoundExpr::InSubquery { .. }
        | BoundExpr::Exists { .. }
        | BoundExpr::SolveModel(_) => {}
    }
}

/// Rewrite depth-0 column indices through `map`. Returns `None` when a
/// column is missing from the map or the expression contains a subquery
/// (those must never be remapped).
pub(crate) fn remap_cols(b: &BoundExpr, map: &HashMap<usize, usize>) -> Option<BoundExpr> {
    Some(match b {
        BoundExpr::Column { depth: 0, index } => {
            BoundExpr::Column { depth: 0, index: *map.get(index)? }
        }
        BoundExpr::Column { .. } => return None,
        BoundExpr::Const(v) => BoundExpr::Const(v.clone()),
        BoundExpr::BinOp { op, lhs, rhs } => BoundExpr::BinOp {
            op: *op,
            lhs: Box::new(remap_cols(lhs, map)?),
            rhs: Box::new(remap_cols(rhs, map)?),
        },
        BoundExpr::UnOp { op, expr } => {
            BoundExpr::UnOp { op: *op, expr: Box::new(remap_cols(expr, map)?) }
        }
        BoundExpr::Chain { first, rest } => BoundExpr::Chain {
            first: Box::new(remap_cols(first, map)?),
            rest: rest
                .iter()
                .map(|(op, e)| remap_cols(e, map).map(|e| (*op, e)))
                .collect::<Option<Vec<_>>>()?,
        },
        BoundExpr::Builtin { f, args } => BoundExpr::Builtin {
            f,
            args: args.iter().map(|a| remap_cols(a, map)).collect::<Option<Vec<_>>>()?,
        },
        BoundExpr::Udf { udf, args } => BoundExpr::Udf {
            udf: udf.clone(),
            args: args.iter().map(|a| remap_cols(a, map)).collect::<Option<Vec<_>>>()?,
        },
        BoundExpr::Cast { expr, ty } => {
            BoundExpr::Cast { expr: Box::new(remap_cols(expr, map)?), ty: ty.clone() }
        }
        BoundExpr::Case { operand, branches, else_ } => BoundExpr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(remap_cols(o, map)?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(c, r)| Some((remap_cols(c, map)?, remap_cols(r, map)?)))
                .collect::<Option<Vec<_>>>()?,
            else_: match else_ {
                Some(e) => Some(Box::new(remap_cols(e, map)?)),
                None => None,
            },
        },
        BoundExpr::IsNull { expr, negated } => {
            BoundExpr::IsNull { expr: Box::new(remap_cols(expr, map)?), negated: *negated }
        }
        BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(remap_cols(expr, map)?),
            list: list.iter().map(|e| remap_cols(e, map)).collect::<Option<Vec<_>>>()?,
            negated: *negated,
        },
        BoundExpr::Between { expr, low, high, negated } => BoundExpr::Between {
            expr: Box::new(remap_cols(expr, map)?),
            low: Box::new(remap_cols(low, map)?),
            high: Box::new(remap_cols(high, map)?),
            negated: *negated,
        },
        BoundExpr::Like { expr, pattern, negated, case_insensitive, compiled } => BoundExpr::Like {
            expr: Box::new(remap_cols(expr, map)?),
            pattern: Box::new(remap_cols(pattern, map)?),
            negated: *negated,
            case_insensitive: *case_insensitive,
            compiled: compiled.clone(),
        },
        BoundExpr::ScalarSubquery(_)
        | BoundExpr::InSubquery { .. }
        | BoundExpr::Exists { .. }
        | BoundExpr::SolveModel(_) => return None,
    })
}

/// The column a bare column reference names.
fn bare(e: &BoundExpr) -> Option<usize> {
    match e {
        BoundExpr::Column { depth: 0, index } => Some(*index),
        _ => None,
    }
}

/// The column of a conjunct that compares one bare column with constants
/// and nothing else — `col op c`, `c op col`, `col [NOT] BETWEEN c AND c`,
/// `col [NOT] IN (c, …)` — provided no row can make it fail: every
/// constant is NULL or of the type class the column is declared with.
fn constant_comparison(b: &BoundExpr, scope: &Scope) -> Option<usize> {
    let (col, constants): (usize, Vec<&BoundExpr>) = match b {
        BoundExpr::BinOp { op, lhs, rhs } if op.is_comparison() => match (bare(lhs), bare(rhs)) {
            (Some(col), None) => (col, vec![rhs]),
            (None, Some(col)) => (col, vec![lhs]),
            _ => return None,
        },
        BoundExpr::Between { expr, low, high, .. } => (bare(expr)?, vec![low, high]),
        BoundExpr::InList { expr, list, .. } => (bare(expr)?, list.iter().collect()),
        _ => return None,
    };
    let comparable = |c: &BoundExpr| {
        let BoundExpr::Const(v) = c else { return false };
        use DataType::*;
        match (&scope.cols[col].ty, v.data_type()) {
            (_, Unknown) => v.is_null(),
            (Int | Float, Int | Float) => true,
            (ty @ (Text | Bool | Timestamp | Interval), of) => *ty == of,
            _ => false,
        }
    };
    constants.into_iter().all(comparable).then_some(col)
}

/// Copy constant comparisons across equi-edges: rows joined on `x = y`
/// agree on the key, so what a pushed conjunct demands of `x` holds of
/// `y` in every joined row, and `y`'s base can be filtered by it before
/// the join. `comparisons` are the conjuncts [`constant_comparison`]
/// accepts, with their column; `equalities` the edges between two bare
/// columns. Columns are linked when an edge equates two of one declared
/// type; every comparison is copied — by renaming its column in the
/// conjunct as written — onto each other column of its class. Returns
/// (column, conjunct bound in `scope`, display form) per copy.
fn derive_across_edges(
    binder: &Binder<'_>,
    scope: &Scope,
    comparisons: &[(usize, &Expr)],
    equalities: &[[(usize, &Expr); 2]],
) -> Vec<(usize, BoundExpr, String)> {
    // Classes as lists of (column, its name as an edge wrote it); a
    // handful of columns at most.
    let mut classes: Vec<Vec<(usize, &Expr)>> = Vec::new();
    for [l, r] in equalities {
        if scope.cols[l.0].ty != scope.cols[r.0].ty {
            continue;
        }
        let class_of = |classes: &[Vec<(usize, &Expr)>], col: usize| {
            classes.iter().position(|class| class.iter().any(|(c, _)| *c == col))
        };
        match (class_of(&classes, l.0), class_of(&classes, r.0)) {
            (None, None) => classes.push(vec![*l, *r]),
            (Some(k), None) => classes[k].push(*r),
            (None, Some(k)) => classes[k].push(*l),
            (Some(j), Some(k)) if j != k => {
                let merged = classes.swap_remove(j.max(k));
                classes[j.min(k)].extend(merged);
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for (col, conjunct) in comparisons {
        let Some(class) = classes.iter().find(|class| class.iter().any(|(c, _)| c == col)) else {
            continue;
        };
        for (other, name) in class.iter().filter(|(c, _)| c != col) {
            let renamed = match conjunct {
                Expr::BinOp { op, lhs, rhs } if matches!(**lhs, Expr::Column { .. }) => {
                    Expr::BinOp { op: *op, lhs: Box::new((*name).clone()), rhs: rhs.clone() }
                }
                Expr::BinOp { op, lhs, .. } => {
                    Expr::BinOp { op: *op, lhs: lhs.clone(), rhs: Box::new((*name).clone()) }
                }
                Expr::Between { low, high, negated, .. } => Expr::Between {
                    expr: Box::new((*name).clone()),
                    low: low.clone(),
                    high: high.clone(),
                    negated: *negated,
                },
                Expr::InList { list, negated, .. } => Expr::InList {
                    expr: Box::new((*name).clone()),
                    list: list.clone(),
                    negated: *negated,
                },
                _ => continue,
            };
            // The copy must be what the original is, about the other
            // column.
            let Ok(bound) = binder.bind(&renamed) else { continue };
            if constant_comparison(&bound, scope) == Some(*other) {
                out.push((*other, bound, clip(&renamed.to_string())));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Cardinality helpers
// ---------------------------------------------------------------------------

/// Generic predicate selectivity: one third per conjunct, floored at one
/// row for non-empty inputs.
fn sel_est(input: f64, conjuncts: usize) -> f64 {
    if input <= 0.0 {
        return 0.0;
    }
    (input / 3.0f64.powi(conjuncts as i32)).max(1.0)
}

/// Filter estimate for a pushed predicate: a column that equals a
/// constant keeps one value's share of the rows (by the column's distinct
/// count), one that is `IN` a list of `k` constants keeps `k` values'
/// share; anything else the generic third.
fn pred_est(b: &BoundExpr, input: f64, col_distinct: &dyn Fn(usize) -> Option<f64>) -> f64 {
    if input <= 0.0 {
        return 0.0;
    }
    let is_const = |e: &BoundExpr| matches!(e, BoundExpr::Const(_));
    let values_kept = match b {
        BoundExpr::BinOp { op: crate::types::BinOp::Eq, lhs, rhs } => {
            match (bare(lhs), bare(rhs)) {
                (Some(col), None) if is_const(rhs) => Some((col, 1)),
                (None, Some(col)) if is_const(lhs) => Some((col, 1)),
                _ => None,
            }
        }
        BoundExpr::InList { expr, list, negated: false } if list.iter().all(is_const) => {
            let listed = |item: &&BoundExpr| !matches!(item, BoundExpr::Const(v) if v.is_null());
            bare(expr).map(|col| (col, list.iter().filter(listed).count()))
        }
        _ => None,
    };
    if let Some((col, k)) = values_kept {
        if let Some(d) = col_distinct(col) {
            return (k as f64 * input / d.max(1.0)).clamp(1.0, input.max(1.0));
        }
    }
    sel_est(input, 1)
}

/// Distinct estimate for one equi-edge: the larger side's key distinct
/// count (standard |L||R|/max(dL,dR) formula).
fn edge_distinct(a: &BoundExpr, b: &BoundExpr, col_distinct: &dyn Fn(usize) -> Option<f64>) -> f64 {
    let side = |e: &BoundExpr| -> f64 {
        if let BoundExpr::Column { depth: 0, index } = e {
            col_distinct(*index).unwrap_or(1.0)
        } else {
            1.0
        }
    };
    side(a).max(side(b))
}

fn edges_between<'a>(
    edges: &[(usize, usize, &'a BoundExpr, &'a BoundExpr)],
    in_set: &[bool],
    c: usize,
) -> Vec<(&'a BoundExpr, &'a BoundExpr)> {
    edges
        .iter()
        .filter_map(|&(a, b, ab, bb)| {
            if a == c && in_set[b] {
                Some((bb, ab))
            } else if b == c && in_set[a] {
                Some((ab, bb))
            } else {
                None
            }
        })
        .collect()
}

fn join_est(
    acc: f64,
    cand: f64,
    edges: &[(&BoundExpr, &BoundExpr)],
    col_distinct: &dyn Fn(usize) -> Option<f64>,
) -> f64 {
    if edges.is_empty() {
        return acc * cand;
    }
    let mut denom = 1.0f64;
    for (a, b) in edges {
        denom = denom.max(edge_distinct(a, b, col_distinct));
    }
    (acc * cand / denom.max(1.0)).max(0.0)
}

/// Aggregate output estimate: one row per grouping set at minimum,
/// bounded by the input size per set.
fn agg_est(input: f64, sets: &[Vec<usize>]) -> f64 {
    let per_set = |set: &Vec<usize>| -> f64 {
        if set.is_empty() {
            1.0
        } else {
            (input / 2.0).max(1.0).min(input.max(1.0))
        }
    };
    sets.iter().map(per_set).sum::<f64>().max(1.0)
}

// ---------------------------------------------------------------------------
// Display helpers
// ---------------------------------------------------------------------------

fn agg_display(call: &AggCall) -> String {
    let arg = match &call.arg {
        Some(e) => e.to_string(),
        None => "*".to_string(),
    };
    if call.distinct {
        format!("{}(DISTINCT {})", call.name, arg)
    } else {
        format!("{}({})", call.name, arg)
    }
}

/// Clip a display string for EXPLAIN output.
fn clip(s: &str) -> String {
    const MAX: usize = 64;
    if s.chars().count() <= MAX {
        s.to_string()
    } else {
        let mut out: String = s.chars().take(MAX).collect();
        out.push('\u{2026}');
        out
    }
}
