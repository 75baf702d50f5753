//! Plan construction and cost-based optimization.
//!
//! [`plan_select`] compiles a `SELECT` block into a [`PlannedQuery`] —
//! every block, wherever it sits (a statement's body, an arm of a set
//! operation, a subquery, the right side of a LATERAL join) and whatever
//! it is made of. It returns a plan or the statement's error; there is no
//! second executor to hand a block to.
//!
//! - *The outer chain.* A block under an enclosing block's row is planned
//!   under the scopes of that row chain as `outer`, and no row: names
//!   resolve through them, and a column found there compiles to a
//!   per-execution constant ([`VecExpr::Outer`]), so `b.id = a.id` under a
//!   row of `a` is pushed onto `b`'s scan like `b.id = 7`. A view or FROM
//!   subquery of such a block may read the row too; it is scanned as
//!   [`ScanSource::Derived`] — run by every execution, never while
//!   planning, with `query_schema`'s schema — instead of being captured.
//! - *No FROM* is a scan of [`ScanSource::OneRow`].
//! - *`USING (c, …)`* is the hash join on the two sides' columns of those
//!   names (both columns stay in the output).
//! - *LATERAL* is [`PlanNode::Apply`]: the subquery is planned once, with
//!   the left scope as its outer scope, and executed per left row.
//! - *SOLVE constructs* in expressions evaluate through the shared
//!   expression evaluator; a relation that ran a solve while it was
//!   captured marks the plan ([`PlannedQuery::captured_solve`]) so the
//!   plan cache does not keep it.
//!
//! The set operation itself, `VALUES`, and ORDER BY / LIMIT over a set
//! operation are assembled by `exec::select` from what the arms return.
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
//! Outer joins, `USING` and LATERAL keep their syntactic structure
//! (predicate motion across the nullable side of an outer join is
//! unsound) and only get the vectorized executor, not the optimizer.
//!
//! Expressions containing subqueries disable column pruning and join
//! reordering: bound subqueries re-bind against the runtime scope chain
//! at evaluation time, so the scope they see must stay syntactic.

use super::columnar::VecExpr;
use super::image::StoredTable;
use super::ir::{PlanAggCall, PlanNode, PlannedQuery, ScanSource};
use super::stats::Described;
use crate::ast::{
    Expr, JoinConstraint, JoinKind, Node, OrderItem, Query, Select, SelectItem, SetExpr,
    TableAlias, TableRef as AstTableRef,
};
use crate::catalog::{Ctes, Database, ReadSet, Work};
use crate::error::{Error, Result};
use crate::exec::eval::{Binder, BoundExpr, Scope, ScopeCol};
use crate::exec::head::{
    limit_offset, query_schema, resolve_relation, AggCall, Relation, SelectHead,
};
use crate::exec::select::{
    apply_alias_columns, run_query, try_equi_keys, using_condition, using_pairs,
};
use crate::table::Schema;
use crate::types::DataType;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Compile a `SELECT` block, under the scopes `outer` of its enclosing
/// blocks (innermost first), into an optimized plan.
pub fn plan_select(
    db: &Database,
    ctes: &Ctes,
    sel: &Select,
    order_by: &[OrderItem],
    limit: &Option<Expr>,
    offset: &Option<Expr>,
    outer: &[&Scope],
) -> Result<PlannedQuery> {
    let mut from = FromBuilder { db, ctes, outer, captured: Captured::default() };

    // LIMIT/OFFSET are constants of the plan. What their subqueries read
    // is captured in the plan like a FROM subquery.
    for e in limit.iter().chain(offset) {
        from.captured.node(db, Node::Expr(e));
    }
    let (limit_n, offset_n) = limit_offset(db, ctes, limit, offset)?;

    // -- FROM clause --------------------------------------------------------
    let pure = !sel.from.is_empty() && sel.from.iter().all(is_pure_inner);
    let shape = if pure {
        let mut bases = Vec::new();
        let mut ons: Vec<(&Expr, Scope)> = Vec::new();
        for tref in &sel.from {
            from.flatten_pure(tref, &mut bases, &mut ons)?;
        }
        // Validate ON conditions against the local combined scope of
        // their join node: a name of a later FROM item is not in reach.
        for (e, local) in &ons {
            Binder::with_outer(db, local, outer).bind(e)?;
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
            node = Some(match (node, tref) {
                // Comma-list LATERAL: applied to the items before it.
                (Some(acc), AstTableRef::Subquery { query, lateral: true, alias }) => {
                    from.apply(acc, query, alias.as_ref(), JoinKind::Cross, &JoinConstraint::None)?
                }
                (None, tref) => from.build_syntactic(tref)?,
                (Some(acc), tref) => {
                    let next = from.build_syntactic(tref)?;
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
        let node = node.unwrap_or_else(|| PlanNode::Scan {
            label: "(one row)".to_string(),
            source: ScanSource::OneRow,
            cols: None,
            total_cols: 0,
            scope: Scope::default(),
            est: 1.0,
        });
        let syn_scope = node.scope().clone();
        FromShape::General { node, syn_scope }
    };
    let captured = from.captured;
    let syn_scope = match &shape {
        FromShape::Pure { syn_scope, .. } | FromShape::General { syn_scope, .. } => {
            syn_scope.clone()
        }
    };

    // -- head: select list, grouping, HAVING, ORDER BY ----------------------
    let mut head = SelectHead::analyze(db, sel, order_by, &syn_scope, outer)?;

    // Subqueries re-bind against the runtime scope at evaluation time,
    // so any subquery in any expression pins the scope to its syntactic
    // shape: no pruning, no join reordering.
    let mut has_subquery = head.proj.iter().any(|(_, e)| expr_has_subquery(e))
        || sel.where_.as_ref().is_some_and(expr_has_subquery)
        || sel.having.as_ref().is_some_and(expr_has_subquery)
        || head.group_by.iter().any(expr_has_subquery)
        || order_by.iter().any(|o| expr_has_subquery(&o.expr));
    let syn_binder = Binder::with_outer(db, &syn_scope, outer);

    // -- conjunct classification (pure mode) --------------------------------
    let (mut input, col_map) = match shape {
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
                let mut est = base.stats.row_count();
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
                    node = PlanNode::Filter {
                        input: Box::new(node),
                        pred: VecExpr::compile(&remapped(pred, &local)?),
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
                    let (est, c) = best.ok_or_else(|| internal("no join candidate left"))?;
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
            let taken = || internal("base joined twice");
            let mut node = nodes[first].take().ok_or_else(taken)?;
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
                        Some(m) => remapped(set_side, m)?,
                        None => set_side.clone(),
                    };
                    lkeys.push(VecExpr::compile(&remapped(&set_pruned, &acc_map)?));
                    rkeys.push(VecExpr::compile(&remapped(c_side, &local)?));
                    descs.push(e.desc.clone());
                    denom = denom.max(edge_distinct(set_side, c_side, &col_distinct));
                    edge_used[ei] = true;
                }
                let right = nodes[c].take().ok_or_else(taken)?;
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
                perm.push(*acc_map.get(&i).ok_or_else(|| internal("column lost in the join"))?);
            }
            if perm.iter().enumerate().any(|(i, &p)| i != p) {
                node =
                    PlanNode::Reorder { input: Box::new(node), perm, scope: pruned_scope.clone() };
            }

            // Residual predicates evaluate on the reordered (syntactic)
            // columns.
            for (b, desc) in &residual {
                let pred = match &map {
                    Some(m) => VecExpr::compile(&remapped(b, m)?),
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
            *b = remapped(b, m)?;
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
    let visible = head.proj.len();
    let mut out_cols = Scope::from_schema(None, &head.schema).cols;
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
        let keep = limit_n.map(|n| n.saturating_add(offset_n.unwrap_or(0)));
        input = PlanNode::Sort {
            input: Box::new(input),
            items: order_by.to_vec(),
            visible,
            keep,
            desc,
        };
    }
    if limit_n.is_some() || offset_n.is_some() {
        input = PlanNode::Limit { input: Box::new(input), limit: limit_n, offset: offset_n };
    }

    db.count(ctes, Work::PlansBuilt, 1);
    let reads = ReadSet::of(db.relations(), ctes, captured.reads);
    Ok(PlannedQuery::new(input, head.schema, reads, captured.solve))
}

/// A planner invariant failed: a bug here, reported as the statement's
/// error rather than a panic.
fn internal(what: &str) -> Error {
    Error::eval(format!("planner: {what}"))
}

/// `b` with its columns renumbered through `map`, which holds every one
/// of them (subqueries pin the scope, so an expression with one is never
/// renumbered).
fn remapped(b: &BoundExpr, map: &HashMap<usize, usize>) -> Result<BoundExpr> {
    remap_cols(b, map).ok_or_else(|| internal("column outside the pruned scope"))
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
    stats: Described,
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

/// What the plan read and holds, as planning finds it.
#[derive(Default)]
struct Captured {
    /// The names of [`PlannedQuery::reads`].
    reads: BTreeSet<String>,
    /// [`PlannedQuery::captured_solve`].
    solve: bool,
}

impl Captured {
    /// The plan captures what `root` evaluated to: the relations it reads
    /// and whether it runs a solve.
    fn node(&mut self, db: &Database, root: Node<'_>) {
        let mut reads = BTreeSet::new();
        root.walk(|n| {
            match n {
                Node::Solve(_) => self.solve = true,
                Node::Relation { name, bound: false } => {
                    reads.insert(name.to_string());
                }
                Node::Query(_) | Node::Relation { .. } | Node::Expr(_) => {}
            }
            true
        });
        self.names(db, reads);
    }

    /// Add the relation names in `reads`, following views into what
    /// *they* read.
    fn names(&mut self, db: &Database, reads: BTreeSet<String>) {
        for name in reads {
            if self.reads.insert(name.clone()) {
                if let Some(vq) = db.view(&name) {
                    self.node(db, Node::Query(vq));
                }
            }
        }
    }
}

/// Every relation name `q` reads, following views into the names they
/// read. Conservative: names bound by the query's own `WITH` are left
/// out, everything else that appears as a relation is in.
pub fn relation_reads(db: &Database, q: &Query) -> BTreeSet<String> {
    let mut captured = Captured::default();
    captured.node(db, Node::Query(q));
    captured.reads
}

/// Builds the FROM clause of one block.
struct FromBuilder<'a> {
    db: &'a Database,
    ctes: &'a Ctes,
    outer: &'a [&'a Scope],
    captured: Captured,
}

impl FromBuilder<'_> {
    /// Flatten a pure-inner tree into `bases` (syntactic order), recording
    /// each ON condition with the combined scope of its join node (for
    /// validation). Returns the tree's scope.
    fn flatten_pure<'e>(
        &mut self,
        t: &'e AstTableRef,
        bases: &mut Vec<Base>,
        ons: &mut Vec<(&'e Expr, Scope)>,
    ) -> Result<Scope> {
        match t {
            AstTableRef::Join { left, right, constraint, .. } => {
                let combined = self
                    .flatten_pure(left, bases, ons)?
                    .join(&self.flatten_pure(right, bases, ons)?);
                if let JoinConstraint::On(e) = constraint {
                    ons.push((e, combined.clone()));
                }
                Ok(combined)
            }
            primary => {
                let base = self.materialize_primary(primary)?;
                let scope = base.scope.clone();
                bases.push(base);
                Ok(scope)
            }
        }
    }

    /// The relation a view or FROM subquery denotes. With no outer
    /// column it could read, the query is run here and its result
    /// captured in the plan (what it read goes to `captured`). Under one
    /// it is run by every execution (`shared` makes the handle the plan
    /// keeps for that) and nothing runs here: its schema is
    /// [`query_schema`]'s, and it is estimated at one row. That schema is
    /// the plan's, so what the query reads outside the CTEs goes to
    /// `captured` too.
    fn derived(
        &mut self,
        query: &Query,
        shared: impl FnOnce() -> Arc<Query>,
    ) -> Result<(ScanSource, Described, Schema)> {
        if self.outer.iter().any(|scope| !scope.cols.is_empty()) {
            let schema = query_schema(self.db, self.ctes, query, self.outer)?;
            let reads = relation_reads(self.db, query).into_iter();
            self.captured.reads.extend(reads.filter(|name| self.ctes.get(name).is_none()));
            return Ok((ScanSource::Derived { query: shared() }, Described::one_row(), schema));
        }
        let t = run_query(self.db, self.ctes, query, None)?;
        let schema = t.schema.clone();
        self.captured.node(self.db, Node::Query(query));
        let stored = StoredTable::new(t);
        let stats = Described::stored(&stored);
        Ok((ScanSource::Table(stored), stats, schema))
    }

    /// Turn a table primary (named relation or subquery) into a scan
    /// source plus its scope and statistics. A CTE becomes a slot,
    /// re-resolved at every execution; any other name is read by the plan
    /// (`captured`). A catalog table is scanned through
    /// the catalog's stored table, image and statistics included; views
    /// and subqueries are [`Self::derived`]. A LATERAL subquery that gets
    /// here has nothing on its left and is an ordinary one.
    fn materialize_primary(&mut self, t: &AstTableRef) -> Result<Base> {
        let (label, qualifier, alias, (source, stats, schema)) = match t {
            AstTableRef::Named { name, alias } => {
                let relation = resolve_relation(self.db, self.ctes, name)?;
                if !matches!(relation, Relation::Cte(_)) {
                    self.captured.reads.insert(name.clone());
                }
                let resolved = match relation {
                    // A slot takes its estimate from this first binding.
                    Relation::Cte(t) => (
                        ScanSource::Slot { name: name.clone(), schema: t.schema().clone() },
                        Described::rows(t.table()),
                        t.schema().clone(),
                    ),
                    Relation::View(vq) => self.derived(vq, || vq.clone())?,
                    Relation::Table(t) => {
                        let stats = Described::stored(t);
                        (ScanSource::Table(t.clone()), stats, t.schema().clone())
                    }
                    Relation::Virtual(t) => {
                        // A snapshot taken now, which no `ReadSet`
                        // versions: the plan must not be cached.
                        let schema = t.schema.clone();
                        let stored = StoredTable::new(t);
                        let stats = Described::stored(&stored);
                        (ScanSource::Table(stored), stats, schema)
                    }
                };
                (name.clone(), Some(alias.as_ref().map_or(name, |a| &a.name)), alias, resolved)
            }
            AstTableRef::Subquery { query, alias, .. } => {
                let label =
                    alias.as_ref().map_or_else(|| "(subquery)".to_string(), |a| a.name.clone());
                let qualifier = alias.as_ref().map(|a| &a.name);
                let resolved = self.derived(query, || Arc::new((**query).clone()))?;
                (label, qualifier, alias, resolved)
            }
            AstTableRef::Join { .. } => return Err(internal("a join is not a table primary")),
        };
        let mut scope = Scope::from_schema(qualifier.map(String::as_str), &schema);
        apply_alias_columns(&mut scope, alias.as_ref())?;
        Ok(Base { label, source, scope, stats })
    }

    /// Build a plan subtree that mirrors the syntactic join structure
    /// (used for outer joins, where reordering/pushdown are unsound, and
    /// for `USING` and LATERAL).
    fn build_syntactic(&mut self, t: &AstTableRef) -> Result<PlanNode> {
        let AstTableRef::Join { left, right, kind, constraint } = t else {
            let base = self.materialize_primary(t)?;
            return Ok(PlanNode::Scan {
                label: base.label,
                source: base.source,
                cols: None,
                total_cols: base.scope.cols.len(),
                scope: base.scope,
                est: base.stats.row_count(),
            });
        };
        let l = self.build_syntactic(left)?;
        if let AstTableRef::Subquery { query, lateral: true, alias } = &**right {
            return self.apply(l, query, alias.as_ref(), *kind, constraint);
        }
        let r = self.build_syntactic(right)?;
        let combined = l.scope().join(r.scope());
        let compile = |keys: &[BoundExpr]| keys.iter().map(VecExpr::compile).collect();
        let (lkeys, rkeys, cond, desc) = match constraint {
            JoinConstraint::None => (vec![], vec![], None, String::new()),
            JoinConstraint::Using(cols) => {
                let (lk, rk): (Vec<_>, Vec<_>) = using_pairs(cols, l.scope(), r.scope())?
                    .into_iter()
                    .map(|(li, ri)| (VecExpr::Col(li), VecExpr::Col(ri)))
                    .unzip();
                (lk, rk, None, using_display(cols))
            }
            JoinConstraint::On(e) => {
                let keys = if !matches!(kind, JoinKind::Cross) {
                    try_equi_keys(self.db, e, l.scope(), r.scope())
                } else {
                    None
                };
                match keys {
                    Some((lk, rk)) => (compile(&lk), compile(&rk), None, clip(&e.to_string())),
                    None => {
                        let binder = Binder::with_outer(self.db, &combined, self.outer);
                        (vec![], vec![], Some(Box::new(binder.bind(e)?)), clip(&e.to_string()))
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
        Ok(PlanNode::Join {
            left: Box::new(l),
            right: Box::new(r),
            kind: *kind,
            lkeys,
            rkeys,
            cond,
            desc,
            scope: combined,
            est,
        })
    }

    /// `left [LEFT] JOIN LATERAL (query) alias <constraint>`, and the
    /// comma form: the dependent join of `left` with `query`, planned once
    /// with `left`'s scope as its innermost outer scope. The right side's
    /// names and types are the plan's, which are [`query_schema`]'s for
    /// `query` under that chain: a body that is not one `SELECT` is
    /// planned as a derived relation.
    fn apply(
        &mut self,
        left: PlanNode,
        query: &Query,
        alias: Option<&TableAlias>,
        kind: JoinKind,
        constraint: &JoinConstraint,
    ) -> Result<PlanNode> {
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            return Err(Error::unsupported("RIGHT/FULL JOIN LATERAL"));
        }
        let under: Vec<&Scope> =
            std::iter::once(left.scope()).chain(self.outer.iter().copied()).collect();
        let plan = |sel: &Select, order_by: &[OrderItem], limit, offset| {
            plan_select(self.db, self.ctes, sel, order_by, limit, offset, &under)
        };
        let right = match &query.body {
            SetExpr::Select(sel) if query.with.is_empty() => {
                plan(sel, &query.order_by, &query.limit, &query.offset)?
            }
            // Anything else is the derived relation of a block of its own.
            _ => {
                let relation = AstTableRef::Subquery {
                    query: Box::new(query.clone()),
                    lateral: false,
                    alias: None,
                };
                let all = SelectItem::Wildcard { qualifier: None };
                let sel = Select { projection: vec![all], from: vec![relation], ..Select::empty() };
                plan(&sel, &[], &None, &None)?
            }
        };
        self.captured.reads.extend(right.reads.names().map(String::from));
        self.captured.solve |= right.captured_solve;

        let mut right_scope = Scope::from_schema(alias.map(|a| a.name.as_str()), &right.schema);
        apply_alias_columns(&mut right_scope, alias)?;
        let scope = left.scope().join(&right_scope);
        let (cond, desc) = match constraint {
            JoinConstraint::None => (None, String::new()),
            JoinConstraint::On(e) => {
                let binder = Binder::with_outer(self.db, &scope, self.outer);
                (Some(Box::new(binder.bind(e)?)), clip(&e.to_string()))
            }
            JoinConstraint::Using(cols) => {
                let cond = using_condition(cols, left.scope(), &right_scope)?;
                (Some(Box::new(cond)), using_display(cols))
            }
        };
        let est = left.est() * right.root.est().max(1.0);
        Ok(PlanNode::Apply {
            left: Box::new(left),
            right: Arc::new(right),
            kind,
            cond,
            desc,
            scope,
            est,
        })
    }
}

fn using_display(cols: &[String]) -> String {
    clip(&format!("USING ({})", cols.join(", ")))
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

fn expr_has_subquery(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |n| {
        found = found
            || matches!(
                n,
                Expr::ScalarSubquery(_)
                    | Expr::InSubquery { .. }
                    | Expr::Exists { .. }
                    | Expr::SolveModel(_)
            );
    });
    found
}

/// Is this node a subquery (or solve)? Such a node binds its query
/// against the runtime scope chain when it runs.
fn is_subquery(b: &BoundExpr) -> bool {
    matches!(
        b,
        BoundExpr::ScalarSubquery(_)
            | BoundExpr::InSubquery { .. }
            | BoundExpr::Exists { .. }
            | BoundExpr::SolveModel(_)
    )
}

/// Does a bound expression contain a subquery (or solve) node? Such
/// expressions must not be index-remapped.
pub(crate) fn bound_has_subquery(b: &BoundExpr) -> bool {
    is_subquery(b) || b.children().into_iter().any(bound_has_subquery)
}

/// Collect all depth-0 column indices referenced by a bound expression.
pub(crate) fn collect_cols(b: &BoundExpr, out: &mut Vec<usize>) {
    if let BoundExpr::Column { depth: 0, index } = b {
        out.push(*index);
    }
    for c in b.children() {
        collect_cols(c, out);
    }
}

/// Rewrite depth-0 column indices through `map`; a column of an outer
/// row stays what it is. Returns `None` when a column is missing from the
/// map or the expression contains a subquery (those must never be
/// remapped).
pub(crate) fn remap_cols(b: &BoundExpr, map: &HashMap<usize, usize>) -> Option<BoundExpr> {
    match b {
        BoundExpr::Column { depth: 0, index } => {
            Some(BoundExpr::Column { depth: 0, index: *map.get(index)? })
        }
        _ if is_subquery(b) => None,
        _ => b.try_map_children(|c| remap_cols(c, map)),
    }
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
    // An outer row's column is one value per execution.
    let is_const =
        |e: &BoundExpr| matches!(e, BoundExpr::Const(_) | BoundExpr::Column { depth: 1.., .. });
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
