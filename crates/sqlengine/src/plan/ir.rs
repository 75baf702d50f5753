//! The logical plan IR.
//!
//! A [`PlanNode`] tree is produced by the builder (`plan::build`) from a
//! bound `SELECT`, already optimized: predicates pushed down, scans
//! pruned to the referenced columns, joins reordered. Every node carries
//! its *output* [`Scope`] (the columns visible to expressions evaluated
//! above it — fallback expressions need it to build row environments)
//! and a cardinality estimate from per-table statistics.
//!
//! The IR renders in two forms: an `EXPLAIN` tree with cardinality and
//! cost annotations, and a structural string (no estimates) hashed into
//! the plan fingerprint recorded in `sdb_stat_statements`.

use super::build::bound_has_subquery;
use super::columnar::VecExpr;
use super::image::StoredTable;
use crate::ast::{JoinKind, OrderItem, Query};
use crate::catalog::{Ctes, ReadSet};
use crate::exec::eval::{BoundExpr, Scope};
use crate::table::Schema;
use std::sync::Arc;

/// Where a [`PlanNode::Scan`] reads its rows.
#[derive(Debug, Clone)]
pub enum ScanSource {
    /// A relation resolved at plan time, with its columnar image: a
    /// catalog table (the catalog entry's, shared by every plan over that
    /// version), or the materialized result of a view or FROM subquery
    /// (private to the plan, shared by its executions).
    Table(StoredTable),
    /// A CTE *slot*: whatever relation `name` is bound to in the `Ctes`
    /// of each execution. The plan was built against `schema`; the
    /// executor rejects a binding with any other schema.
    Slot { name: String, schema: Schema },
    /// A view or FROM subquery of a block that sits under an outer row:
    /// it may read that row, so every execution runs it (under the
    /// execution's outer chain) instead of scanning rows captured when
    /// the plan was built. Planning does not run it: its scope is the
    /// static `exec::head::query_schema`.
    Derived { query: Arc<Query> },
    /// The input of a `SELECT` without FROM: one row, no columns.
    OneRow,
}

/// One aggregate call in an [`PlanNode::Aggregate`], with its argument
/// expressions compiled (evaluated against the aggregate input scope).
#[derive(Debug, Clone)]
pub struct PlanAggCall {
    pub name: String,
    pub distinct: bool,
    /// `None` for `count(*)`.
    pub arg: Option<VecExpr>,
    /// Second argument (`string_agg` separator).
    pub arg2: Option<VecExpr>,
    /// Display form for EXPLAIN / fingerprinting.
    pub desc: String,
}

/// A logical plan operator. `est` fields are output-cardinality
/// estimates; `desc` fields are pre-rendered display fragments (the
/// builder has the original AST at hand, the executor does not). The
/// expressions an operator evaluates over batches are held compiled
/// ([`VecExpr`]): a plan is built once and may be executed many times.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Scan a relation (base table, view or subquery result captured at
    /// plan time, or a CTE slot bound at execute time), optionally
    /// keeping only the columns in `cols`.
    Scan {
        label: String,
        source: ScanSource,
        /// `Some` = projection pruning kept these source column indices
        /// (in order); `None` = full width.
        cols: Option<Vec<usize>>,
        total_cols: usize,
        scope: Scope,
        est: f64,
    },
    /// Keep rows where `pred` is true. A `derived` filter is not in the
    /// statement: the planner copied it across an equi-join edge to shrink
    /// the join's input, and it removes only rows the join would drop.
    Filter { input: Box<PlanNode>, pred: VecExpr, desc: String, derived: bool, est: f64 },
    /// Join two inputs. When `lkeys`/`rkeys` are non-empty this is a
    /// hash equi-join on those key expressions; otherwise a nested loop,
    /// whose condition `cond` (if any) the interpreter's evaluator checks
    /// on each combined row. `cond` is boxed, here and in `Apply`: inline
    /// it would make every node of every cached plan as large as a join.
    Join {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        kind: JoinKind,
        lkeys: Vec<VecExpr>,
        rkeys: Vec<VecExpr>,
        cond: Option<Box<BoundExpr>>,
        desc: String,
        scope: Scope,
        est: f64,
    },
    /// The dependent join of `LATERAL`: `right` — the subquery, planned
    /// with `left`'s scope as its outer scope — is executed once per left
    /// row, and each of its rows that passes `cond` (bound against the
    /// combined scope) joins that left row. `kind` is `Inner`, `Cross` or
    /// `Left`, which pads a left row nothing joined.
    Apply {
        left: Box<PlanNode>,
        right: Arc<PlannedQuery>,
        kind: JoinKind,
        cond: Option<Box<BoundExpr>>,
        desc: String,
        scope: Scope,
        est: f64,
    },
    /// Restore the syntactic column order after join reordering:
    /// output column `i` is input column `perm[i]`.
    Reorder { input: Box<PlanNode>, perm: Vec<usize>, scope: Scope },
    /// Hash aggregation over grouping sets. `sets` lists, per grouping
    /// set, the indices into `group` that are active (others masked to
    /// NULL); a plain GROUP BY is the single full set.
    Aggregate {
        input: Box<PlanNode>,
        group: Vec<VecExpr>,
        sets: Vec<Vec<usize>>,
        aggs: Vec<PlanAggCall>,
        desc: String,
        scope: Scope,
        est: f64,
    },
    /// Compute output expressions. The first `visible` are the SELECT
    /// list; the rest are ORDER BY keys carried alongside.
    Project {
        input: Box<PlanNode>,
        exprs: Vec<VecExpr>,
        visible: usize,
        desc: String,
        scope: Scope,
    },
    /// SELECT DISTINCT over the first `visible` columns.
    Distinct { input: Box<PlanNode>, visible: usize },
    /// Sort by the key columns `visible..` produced by the Project
    /// below, using the direction/null-order of `items`. `keep` is the
    /// `offset + limit` of a `Limit` directly above: the rows past it are
    /// never read, so they need not be produced.
    Sort {
        input: Box<PlanNode>,
        items: Vec<OrderItem>,
        visible: usize,
        keep: Option<usize>,
        desc: String,
    },
    /// LIMIT/OFFSET with plan-time-constant values.
    Limit { input: Box<PlanNode>, limit: Option<usize>, offset: Option<usize> },
}

impl PlanNode {
    /// The node's output scope.
    pub fn scope(&self) -> &Scope {
        match self {
            PlanNode::Scan { scope, .. }
            | PlanNode::Join { scope, .. }
            | PlanNode::Apply { scope, .. }
            | PlanNode::Reorder { scope, .. }
            | PlanNode::Aggregate { scope, .. }
            | PlanNode::Project { scope, .. } => scope,
            PlanNode::Filter { input, .. }
            | PlanNode::Distinct { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. } => input.scope(),
        }
    }

    /// Estimated output cardinality.
    pub fn est(&self) -> f64 {
        match self {
            PlanNode::Scan { est, .. }
            | PlanNode::Filter { est, .. }
            | PlanNode::Join { est, .. }
            | PlanNode::Apply { est, .. }
            | PlanNode::Aggregate { est, .. } => *est,
            PlanNode::Reorder { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Sort { input, .. } => input.est(),
            PlanNode::Distinct { input, .. } => input.est() / 2.0,
            PlanNode::Limit { input, limit, .. } => match limit {
                Some(n) => input.est().min(*n as f64),
                None => input.est(),
            },
        }
    }

    /// Cumulative cost estimate: child costs plus the rows this operator
    /// touches (sorts pay an extra log factor).
    pub fn cost(&self) -> f64 {
        match self {
            PlanNode::Scan { est, cols, total_cols, .. } => {
                // Pruned scans move less data.
                let width = match cols {
                    Some(c) if *total_cols > 0 => c.len() as f64 / *total_cols as f64,
                    _ => 1.0,
                };
                est * width.max(0.1)
            }
            PlanNode::Filter { input, .. } => input.cost() + input.est(),
            PlanNode::Join { left, right, lkeys, est, .. } => {
                let base = left.cost() + right.cost();
                if lkeys.is_empty() {
                    // Nested loop.
                    base + left.est() * right.est().max(1.0)
                } else {
                    base + left.est() + right.est() + est
                }
            }
            PlanNode::Apply { left, right, .. } => {
                left.cost() + left.est().max(1.0) * right.root.cost()
            }
            PlanNode::Reorder { input, .. } => input.cost(),
            PlanNode::Aggregate { input, sets, .. } => {
                input.cost() + input.est() * sets.len().max(1) as f64
            }
            PlanNode::Project { input, .. } | PlanNode::Distinct { input, .. } => {
                input.cost() + input.est()
            }
            PlanNode::Sort { input, .. } => {
                let n = input.est();
                input.cost() + n * (n + 2.0).log2()
            }
            PlanNode::Limit { input, .. } => input.cost(),
        }
    }

    /// One-line description of this operator (no tree prefix).
    pub(crate) fn describe(&self) -> String {
        match self {
            PlanNode::Scan { source: ScanSource::OneRow, .. } => "OneRow".to_string(),
            PlanNode::Scan { label, source: ScanSource::Derived { .. }, .. } => {
                format!("Scan {label} [per execution]")
            }
            PlanNode::Scan { label, cols, total_cols, .. } => match cols {
                Some(c) => format!("Scan {label} cols={}/{total_cols}", c.len()),
                None => format!("Scan {label}"),
            },
            PlanNode::Filter { desc, derived: false, .. } => format!("Filter {desc}"),
            PlanNode::Filter { desc, derived: true, .. } => format!("Filter {desc} [derived]"),
            PlanNode::Join { kind, lkeys, desc, .. } => {
                let how = if lkeys.is_empty() { "NestedLoopJoin" } else { "HashJoin" };
                let kw = match kind {
                    JoinKind::Inner => "Inner",
                    JoinKind::Left => "Left",
                    JoinKind::Right => "Right",
                    JoinKind::Full => "Full",
                    JoinKind::Cross => "Cross",
                };
                if desc.is_empty() {
                    format!("{how} {kw}")
                } else {
                    format!("{how} {kw} on {desc}")
                }
            }
            PlanNode::Apply { kind, desc, .. } => {
                let kw = if *kind == JoinKind::Left { "Left" } else { "Inner" };
                if desc.is_empty() {
                    format!("Apply {kw}")
                } else {
                    format!("Apply {kw} on {desc}")
                }
            }
            PlanNode::Reorder { perm, .. } => format!("Reorder perm={perm:?}"),
            PlanNode::Aggregate { desc, sets, .. } => {
                if sets.len() > 1 {
                    format!("Aggregate {desc} sets={}", sets.len())
                } else {
                    format!("Aggregate {desc}")
                }
            }
            PlanNode::Project { desc, .. } => format!("Project {desc}"),
            PlanNode::Distinct { .. } => "Distinct".to_string(),
            PlanNode::Sort { desc, .. } => format!("Sort {desc}"),
            PlanNode::Limit { limit, offset, .. } => {
                let mut s = "Limit".to_string();
                if let Some(n) = limit {
                    s.push_str(&format!(" {n}"));
                }
                if let Some(n) = offset {
                    s.push_str(&format!(" offset {n}"));
                }
                s
            }
        }
    }

    /// Does this operator itself evaluate a subquery? Subqueries run
    /// against the execution's CTEs, so they may read relations the plan
    /// does not show. A relation run again per execution and the right
    /// side of a dependent join are subqueries in that sense.
    fn evaluates_subquery(&self) -> bool {
        let sub = VecExpr::has_subquery;
        match self {
            PlanNode::Scan { source: ScanSource::Derived { .. }, .. } | PlanNode::Apply { .. } => {
                true
            }
            PlanNode::Filter { pred, .. } => sub(pred),
            PlanNode::Join { lkeys, rkeys, cond, .. } => {
                lkeys.iter().chain(rkeys).any(sub)
                    || cond.as_deref().is_some_and(bound_has_subquery)
            }
            PlanNode::Aggregate { group, aggs, .. } => {
                group.iter().any(sub) || aggs.iter().any(|a| a.arg.iter().chain(&a.arg2).any(sub))
            }
            PlanNode::Project { exprs, .. } => exprs.iter().any(sub),
            PlanNode::Scan { .. }
            | PlanNode::Reorder { .. }
            | PlanNode::Distinct { .. }
            | PlanNode::Sort { .. }
            | PlanNode::Limit { .. } => false,
        }
    }

    /// Does any operator of this subtree evaluate a subquery?
    pub(crate) fn has_subquery(&self) -> bool {
        self.evaluates_subquery() || self.children().into_iter().any(PlanNode::has_subquery)
    }

    /// Could this operator, given the same inputs, produce other rows
    /// once the CTE slot `slot` is rebound? True when it scans that slot
    /// or evaluates a subquery (which may read the slot too). A subtree
    /// in which no operator does produces the same rows in every
    /// execution that rebinds nothing else.
    pub(crate) fn reads_slot(&self, slot: &str) -> bool {
        let scans = matches!(self, PlanNode::Scan { source: ScanSource::Slot { name, .. }, .. }
            if name == slot);
        scans || self.evaluates_subquery()
    }

    /// The operator's inputs; for a dependent join also the root of the
    /// plan it executes per left row.
    pub(crate) fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::Scan { .. } => vec![],
            PlanNode::Filter { input, .. }
            | PlanNode::Reorder { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Distinct { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. } => vec![input],
            PlanNode::Join { left, right, .. } => vec![left, right],
            PlanNode::Apply { left, right, .. } => vec![left, &right.root],
        }
    }

    /// Append EXPLAIN lines for this subtree.
    fn render_into(&self, lines: &mut Vec<String>, prefix: &str, is_last: bool, is_root: bool) {
        let own = format!(
            "{} (rows\u{2248}{}, cost\u{2248}{})",
            self.describe(),
            fmt_est(self.est()),
            fmt_est(self.cost())
        );
        if is_root {
            lines.push(own);
        } else {
            let branch = if is_last { "\u{2514}\u{2500} " } else { "\u{251c}\u{2500} " };
            lines.push(format!("{prefix}{branch}{own}"));
        }
        let child_prefix = if is_root {
            String::new()
        } else if is_last {
            format!("{prefix}   ")
        } else {
            format!("{prefix}\u{2502}  ")
        };
        let kids = self.children();
        let n = kids.len();
        for (i, k) in kids.into_iter().enumerate() {
            k.render_into(lines, &child_prefix, i + 1 == n, false);
        }
    }

    /// Append the structural (estimate-free) form used for
    /// fingerprinting.
    fn structure_into(&self, out: &mut String) {
        match self {
            PlanNode::Scan { label, cols, .. } => {
                out.push_str("scan(");
                out.push_str(label);
                if let Some(c) = cols {
                    out.push_str(&format!(" cols={c:?}"));
                }
                out.push(')');
            }
            PlanNode::Filter { input, desc, derived, .. } => {
                out.push_str(if *derived { "derived(" } else { "filter(" });
                out.push_str(desc);
                out.push_str(")<-");
                input.structure_into(out);
            }
            PlanNode::Join { left, right, kind, lkeys, desc, .. } => {
                out.push_str(if lkeys.is_empty() { "nljoin(" } else { "hashjoin(" });
                out.push_str(&format!("{kind:?} {desc})["));
                left.structure_into(out);
                out.push_str(" , ");
                right.structure_into(out);
                out.push(']');
            }
            PlanNode::Apply { left, right, kind, desc, .. } => {
                out.push_str(&format!("apply({kind:?} {desc})["));
                left.structure_into(out);
                out.push_str(" , ");
                right.root.structure_into(out);
                out.push(']');
            }
            PlanNode::Reorder { input, perm, .. } => {
                out.push_str(&format!("reorder({perm:?})<-"));
                input.structure_into(out);
            }
            PlanNode::Aggregate { input, sets, desc, .. } => {
                out.push_str(&format!("agg({desc} sets={sets:?})<-"));
                input.structure_into(out);
            }
            PlanNode::Project { input, desc, visible, .. } => {
                out.push_str(&format!("project({desc} vis={visible})<-"));
                input.structure_into(out);
            }
            PlanNode::Distinct { input, .. } => {
                out.push_str("distinct<-");
                input.structure_into(out);
            }
            PlanNode::Sort { input, desc, .. } => {
                out.push_str(&format!("sort({desc})<-"));
                input.structure_into(out);
            }
            PlanNode::Limit { input, limit, offset, .. } => {
                out.push_str(&format!("limit({limit:?},{offset:?})<-"));
                input.structure_into(out);
            }
        }
    }
}

fn fmt_est(v: f64) -> String {
    if v >= 100.0 || v.fract().abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.1}")
    }
}

/// A fully planned `SELECT`: optimized operator tree plus output
/// metadata.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    pub root: PlanNode,
    /// The static output schema (the SELECT list's names and static
    /// types); a result column with no non-NULL value keeps its type.
    pub schema: Schema,
    /// Number of visible output columns (ORDER BY keys beyond this are
    /// dropped from the final table).
    pub visible: usize,
    /// What the plan read: every relation it scans other than a CTE slot
    /// (views and virtual tables included), and every name read
    /// (transitively through views) by the views and FROM subqueries it
    /// materialized into [`ScanSource::Table`] scans or re-runs as
    /// [`ScanSource::Derived`] (CTE names left out of the latter). The plan
    /// is valid while the set holds; a captured read of a bound CTE, or a
    /// virtual table's rows, are stale as soon as they are captured.
    pub reads: ReadSet,
    /// A view, FROM subquery or LIMIT the planner evaluated ran a solve:
    /// the plan holds one solver run's answer, which no [`ReadSet`]
    /// versions, and must not be executed again either.
    pub captured_solve: bool,
    /// [`Self::fingerprint`], computed with the plan.
    fingerprint: u64,
}

impl PlannedQuery {
    pub(crate) fn new(
        root: PlanNode,
        schema: Schema,
        reads: ReadSet,
        captured_solve: bool,
    ) -> PlannedQuery {
        let mut s = String::new();
        root.structure_into(&mut s);
        let fingerprint = super::fnv1a(s.as_bytes());
        let visible = schema.len();
        PlannedQuery { root, schema, visible, reads, captured_solve, fingerprint }
    }

    /// Is every CTE slot of the plan bound in `ctes` to a relation of
    /// the schema it was planned against?
    pub fn slots_bound(&self, ctes: &Ctes) -> bool {
        fn bound(node: &PlanNode, ctes: &Ctes) -> bool {
            let own = match node {
                PlanNode::Scan { source: ScanSource::Slot { name, schema }, .. } => {
                    ctes.get(name).is_some_and(|t| t.schema() == schema)
                }
                _ => true,
            };
            own && node.children().into_iter().all(|c| bound(c, ctes))
        }
        bound(&self.root, ctes)
    }

    /// Stable structural fingerprint of the optimized plan (FNV-1a over
    /// the estimate-free plan rendering).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Render the `EXPLAIN SELECT` tree, one line per operator.
    pub fn explain_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        self.root.render_into(&mut lines, "", true, true);
        lines.push(format!("plan fingerprint: {:016x}", self.fingerprint));
        lines
    }
}
