//! Columnar batch executor for [`PlannedQuery`] trees.
//!
//! Operators consume and produce [`Batch`]es of typed column vectors.
//! Result parity with the reference interpreter (`exec::oracle`) is
//! maintained by construction: every operator mirrors its algorithm (same
//! grouping order, same hash-join output order whichever input the table
//! is built over, same sort comparator) and non-vectorizable expressions
//! evaluate through the shared [`BoundExpr::eval`] on materialized rows.
//! Each operator runs under an `obs` span so `EXPLAIN ANALYZE` shows a
//! per-operator timing tree.
//!
//! A block under an enclosing block's row — a correlated subquery, the
//! right side of a dependent join — executes with that row chain as
//! `outer`: its columns are constants of the execution, and the
//! subqueries it evaluates in turn see it as their parent.
//!
//! What an execution costs is its data, not the shape of its plan: the
//! plan's expressions arrive compiled ([`VecExpr`], built with the plan
//! node that owns them), and the operators share columns (`Arc` clones)
//! wherever an output column is an input column.
//!
//! A plan holds CTEs as *slots* resolved at execute time, so one plan
//! can run against many bindings. `IteratedPlan` is that loop for a
//! recursive CTE: each step reads the working table as the batches the
//! previous step produced, and everything the working table does not
//! feed — whole subtrees and hash-join build sides — runs once. Where
//! the working table reaches the root through one path of row-at-a-time
//! operators over those kept sides (the `Spine`), a step whose working
//! table is a single row evaluates that path on one row instead of on
//! one-row batches: on typed registers (`Scalar`s) where every value it
//! reads and every operation it applies has a machine-word form, and on
//! [`Value`]s for a step where one has not. Any other step, and any other
//! plan, runs the batch operators.
//!
//! A hash join's build side that reads nothing but the tables its plan
//! holds is the same in every execution of the plan. Of a plan that the
//! statement's plan cache holds and runs more than once, such a side is
//! built once for the statement (`Database::keeps_builds`).

use super::build::{bound_has_subquery, collect_cols, remap_cols};
use super::columnar::{batches_to_rows, Batch, ColumnVec, RowRef, VecEvalCtx, VecExpr, BATCH_SIZE};
use super::image::StoredTable;
use super::ir::{PlanAggCall, PlanNode, PlannedQuery, ScanSource};
use super::keys::{Key, KeyIndex, Slot};
use crate::ast::OrderItem;
use crate::catalog::{Binding, Ctes, Database, Work};
use crate::error::{Error, Result};
use crate::exec::eval::{BoundExpr, Env, EvalCtx, Scope};
use crate::exec::select::{key_order, AggState};
use crate::exec::subquery::run_subquery;
use crate::hash::FastMap;
use crate::table::{Row, Schema};
use crate::types::value::{Scalar, Word};
use crate::types::{BinOp, DataType, GroupKey, UnOp, Value};
use obs::Span;
use std::borrow::Cow;
use std::sync::Arc;

/// Execute a planned query under the rows of its enclosing blocks,
/// producing the result as the batches the executor made. `keeps`: the
/// statement keeps the plan's catalog-only build sides
/// (`Database::keeps_builds`).
pub fn execute(
    db: &Database,
    ctes: &Ctes,
    planned: &PlannedQuery,
    keeps: bool,
    trace: Option<&obs::Trace>,
    outer: Option<&Env<'_>>,
) -> Result<Binding> {
    let keeps = keeps.then_some(planned);
    Runner { ctx: EvalCtx { db, ctes }, trace, step: None, keeps, outer }.run(planned)
}

/// One plan executed repeatedly while a single CTE slot (`rebound`) is
/// bound to a new relation between executions — the recursive term of a
/// `WITH RECURSIVE` over its working table. The working table is handed
/// to each step as batches, and what does not depend on it is computed
/// by the first step that reaches it and kept for every later one: the
/// output of each largest subtree that stays the same when only that
/// slot is rebound ([`PlanNode::reads_slot`]), and — where such a
/// subtree is the right input of a hash join — the join's build side
/// instead.
pub(crate) struct IteratedPlan<'p> {
    plan: &'p PlannedQuery,
    rebound: &'p str,
    kept: Kept,
    /// The plan's row pipeline, when it has one.
    spine: Option<Spine<'p>>,
    /// May a one-row step run on typed registers?
    typed: bool,
    /// The statement keeps the plan's catalog-only build sides.
    keeps: bool,
    row_steps: u64,
    typed_steps: u64,
}

/// What an [`IteratedPlan`] keeps between steps, by the address of the
/// subtree's root in the (immutably borrowed) plan; `None` until a step
/// has produced it. A plan keeps a handful of subtrees at most, so these
/// are lists, searched by address.
#[derive(Default)]
struct Kept {
    outputs: Vec<(*const PlanNode, Option<Vec<Batch>>)>,
    /// Keyed by the hash join's right child.
    builds: Vec<(*const PlanNode, Option<Arc<JoinBuild>>)>,
    reused: u64,
}

fn kept_pos<T>(list: &[(*const PlanNode, T)], node: *const PlanNode) -> Option<usize> {
    list.iter().position(|(at, _)| std::ptr::eq(*at, node))
}

fn kept_at<'k, T>(list: &'k mut [(*const PlanNode, T)], node: &PlanNode) -> Option<&'k mut T> {
    kept_pos(list, node).map(|i| &mut list[i].1)
}

fn kept_ref<T>(list: &[(*const PlanNode, T)], node: *const PlanNode) -> Option<&T> {
    kept_pos(list, node).map(|i| &list[i].1)
}

/// The working table of a step [`IteratedPlan::step_row`] runs: one row,
/// as values, or as the registers the typed step that produced it left it
/// in.
pub(crate) enum Working<'a> {
    Row(&'a [Value]),
    Carried,
}

/// What a step on one row produced.
pub(crate) enum OneRow<'s> {
    /// On typed registers: the row, if the step produced one.
    Typed(Option<&'s [Scalar]>),
    /// On values.
    Values(Option<Row>),
}

impl<'p> IteratedPlan<'p> {
    /// `typed`: a one-row step may run on typed registers — not under a
    /// step hook, whose rewrites only `Value`s carry, nor for a `UNION`,
    /// whose duplicate elimination reads rows. `keeps`: the statement
    /// keeps the plan's catalog-only build sides.
    pub(crate) fn new(
        plan: &'p PlannedQuery,
        rebound: &'p str,
        typed: bool,
        keeps: bool,
    ) -> IteratedPlan<'p> {
        /// Register what the subtree at `node` keeps; true when nothing
        /// in it reads `slot`, which leaves keeping it (or something
        /// larger) to the caller.
        fn mark(node: &PlanNode, slot: &str, kept: &mut Kept) -> bool {
            let kids = node.children();
            let fixed: Vec<bool> = kids.iter().map(|c| mark(c, slot, kept)).collect();
            if !node.reads_slot(slot) && fixed.iter().all(|f| *f) {
                return true;
            }
            let hash_join = matches!(node, PlanNode::Join { lkeys, .. } if !lkeys.is_empty());
            for (i, kid) in kids.into_iter().enumerate().filter(|(i, _)| fixed[*i]) {
                if hash_join && i == 1 {
                    kept.builds.push((kid, None));
                } else {
                    kept.outputs.push((kid, None));
                }
            }
            false
        }
        let mut kept = Kept::default();
        if mark(&plan.root, rebound, &mut kept) {
            kept.outputs.push((&plan.root, None));
        }
        let spine = Spine::of(plan, rebound, &kept);
        IteratedPlan { plan, rebound, kept, spine, typed, keeps, row_steps: 0, typed_steps: 0 }
    }

    /// [`Self::step`] over a working table of one row, on the plan's
    /// [`Spine`]: on its typed registers when the step can run there, on
    /// values otherwise. `None` when this step has to run on the batch
    /// operators — the plan has no spine, a kept side is still to be
    /// computed (which the batch operators do, once), or the row meets
    /// more than one row of a kept side. A step is a pure function of
    /// its working table, so whatever part of it ran on one form is
    /// simply run again on the next.
    pub(crate) fn step_row(
        &mut self,
        db: &Database,
        ctes: &Ctes,
        working: Working<'_>,
        outer: Option<&Env<'_>>,
    ) -> Result<Option<OneRow<'_>>> {
        if !self.has_sides() {
            return Ok(None);
        }
        let Some(spine) = &mut self.spine else { return Ok(None) };
        let builds = spine.build_at.len() as u64;
        if let Some(produced) = spine.run_typed(&working) {
            self.row_steps += 1;
            self.typed_steps += 1;
            self.kept.reused += builds;
            return Ok(Some(OneRow::Typed(spine.typed_row().filter(|_| produced))));
        }
        let carried;
        let working = match working {
            Working::Row(row) => row,
            Working::Carried => match &spine.typed {
                Some(typed) => {
                    carried = typed.carried();
                    &carried
                }
                None => return Ok(None),
            },
        };
        let out = spine.run(&EvalCtx { db, ctes }, working, outer)?;
        if out.is_some() {
            self.row_steps += 1;
            self.kept.reused += builds;
        }
        Ok(out.map(OneRow::Values))
    }

    /// Has the spine its kept sides, which the batch operators compute?
    /// Takes them from `kept` when they are all there.
    fn has_sides(&mut self) -> bool {
        let Some(spine) = &mut self.spine else { return false };
        if spine.sides.is_some() {
            return true;
        }
        match KeptSides::of(spine, &self.kept) {
            Ok(None) => false,
            Ok(Some(sides)) => {
                spine.typed = self.typed.then(|| TypedStep::compile(spine, &sides)).flatten();
                spine.sides = Some(sides);
                true
            }
            // A kept output that is not one row stays that way.
            Err(NotOneRow) => {
                self.spine = None;
                false
            }
        }
    }

    /// Can a step over a one-row working table run on the spine?
    pub(crate) fn has_spine(&self) -> bool {
        self.spine.is_some()
    }

    /// How many steps [`Self::step_row`] ran, and of those on typed
    /// registers.
    pub(crate) fn row_steps(&self) -> (u64, u64) {
        (self.row_steps, self.typed_steps)
    }

    /// Execute the plan with the `rebound` slot reading `working`.
    /// `ctes` may differ from the previous call's only in the binding of
    /// that name, which only subqueries look up
    /// ([`PlanNode::has_subquery`]): they do not see `working`.
    /// Returns the visible columns of the result.
    pub(crate) fn step(
        &mut self,
        db: &Database,
        ctes: &Ctes,
        working: &[Batch],
        outer: Option<&Env<'_>>,
    ) -> Result<Vec<Batch>> {
        let step = Step { rebound: self.rebound, working, kept: &mut self.kept };
        let keeps = self.keeps.then_some(self.plan);
        Runner { ctx: EvalCtx { db, ctes }, trace: None, step: Some(step), keeps, outer }
            .run_batches(self.plan)
    }

    /// How many times a step probed a kept build side instead of
    /// rebuilding it.
    pub(crate) fn builds_reused(&self) -> u64 {
        self.kept.reused
    }

    /// Does any join of the plan qualify for build reuse?
    pub(crate) fn keeps_builds(&self) -> bool {
        !self.kept.builds.is_empty()
    }
}

/// The relation a recursion grows, in the forms its steps make it in:
/// whole batches, then an open tail that one-row steps append to — typed
/// columns while they run on registers, rows otherwise.
pub(crate) struct Grown {
    batches: Vec<Batch>,
    rows: Vec<Row>,
    typed: Vec<ColumnVec>,
    len: usize,
}

impl Grown {
    /// The relation of the anchor's `rows`.
    pub(crate) fn new(rows: Vec<Row>) -> Grown {
        Grown { batches: Vec::new(), len: rows.len(), rows, typed: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The open tail as batches.
    fn seal(&mut self) {
        let rows = std::mem::take(&mut self.rows);
        self.batches.extend(rows.chunks(BATCH_SIZE).map(|c| Batch::from_rows(c, None)));
        if let Some(len) = self.typed.first().map(ColumnVec::len) {
            let cols = self.typed.drain(..).map(Arc::new).collect();
            self.batches.push(Batch { cols, len });
        }
    }

    pub(crate) fn push_row(&mut self, row: Row) {
        if !self.typed.is_empty() {
            self.seal();
        }
        self.rows.push(row);
        self.len += 1;
    }

    pub(crate) fn push_scalars(&mut self, row: &[Scalar]) {
        if !self.rows.is_empty() {
            self.seal();
        }
        let fits = |(col, s): (&ColumnVec, &Scalar)| col.holds(*s);
        if self.typed.is_empty() || !self.typed.iter().zip(row).all(fits) {
            // A column that changes kind starts a batch of its own.
            self.seal();
            self.typed = row.iter().map(|s| ColumnVec::broadcast(&s.value(), 0)).collect();
        }
        self.typed.iter_mut().zip(row).for_each(|(col, s)| col.push(*s));
        self.len += 1;
    }

    pub(crate) fn push_batches(&mut self, batches: &[Batch]) {
        self.seal();
        self.batches.extend(batches.iter().cloned());
        self.len += batches.iter().map(|b| b.len).sum::<usize>();
    }

    /// The last `n` rows, which the open row tail holds, as batches.
    pub(crate) fn tail_batches(&self, n: usize) -> Vec<Batch> {
        let rows = &self.rows[self.rows.len() - n..];
        rows.chunks(BATCH_SIZE).map(|c| Batch::from_rows(c, None)).collect()
    }

    /// The last row of the open row tail.
    pub(crate) fn last_row(&self) -> Option<&[Value]> {
        self.rows.last().map(Vec::as_slice)
    }

    /// The last row of the open typed tail, as a one-row batch.
    pub(crate) fn last_typed(&self) -> Batch {
        let last = |c: &ColumnVec| Arc::new(c.gather(&[c.len() - 1]));
        Batch { cols: self.typed.iter().map(last).collect(), len: 1 }
    }

    pub(crate) fn into_batches(mut self) -> Vec<Batch> {
        self.seal();
        self.batches
    }
}

/// Where a column of a row on the [`Spine`] lies.
#[derive(Clone, Copy)]
enum Src {
    /// In the working row.
    Working(usize),
    /// In the row of the spine's `b`-th kept build that the probe matched
    /// (NULL where a left join matched none).
    Build(usize, usize),
    /// In the one row of the spine's `o`-th kept output.
    Output(usize, usize),
}

/// What one operator on the spine does to the row.
enum Stage<'p> {
    Filter {
        pred: &'p VecExpr,
        derived: bool,
    },
    /// A hash join probing the spine's `build`-th kept build; `pad` for a
    /// left join.
    Probe {
        keys: &'p [VecExpr],
        build: usize,
        pad: bool,
    },
    /// A keyless join with a one-row kept output, when it has a condition.
    Cross {
        cond: &'p BoundExpr,
    },
}

/// The *spine* of a recursive term's plan: the single path from the root
/// `Project` to the one scan of the rebound slot, when every operator on
/// it maps a row to at most one row given the kept sides — `Filter`,
/// `Reorder`, an inner or left hash join whose right input is a kept
/// build, an inner or cross keyless join whose other input is a kept
/// output — and none of them evaluates a subquery. Compiled to `stages`,
/// bottom-up, it is the plan's batch operators specialised to a working
/// table of one row: nothing is gathered, no column is made, and only the
/// columns an expression names are read.
struct Spine<'p> {
    /// Per operator below the root: what it does, the scope of the rows
    /// it reads and where each column of that scope lies.
    stages: Vec<(Stage<'p>, &'p Scope, Vec<Src>)>,
    /// The root's expressions, over the same.
    project: (&'p [VecExpr], &'p Scope, Vec<Src>),
    /// Columns of the working row.
    width: usize,
    visible: usize,
    /// The right children of the probed hash joins and the kept-output
    /// inputs of the keyless ones, as [`Src`] numbers them.
    build_at: Vec<*const PlanNode>,
    output_at: Vec<*const PlanNode>,
    /// What `build_at` / `output_at` hold, once the batch operators have
    /// computed every one of them.
    sides: Option<KeptSides>,
    /// The spine on typed registers, compiled when the sides are there.
    typed: Option<TypedStep>,
    /// Per kept build, the row this step's probe matched.
    matched: Vec<Option<usize>>,
    /// Scratch for a probe key.
    key: (Vec<Value>, Vec<GroupKey>),
}

struct KeptSides {
    builds: Vec<Arc<JoinBuild>>,
    /// One batch of one row each.
    outputs: Vec<Batch>,
}

/// A kept output on the spine is not a single row.
struct NotOneRow;

impl KeptSides {
    /// The kept sides of `spine`, `None` while `kept` lacks one of them.
    fn of(spine: &Spine<'_>, kept: &Kept) -> std::result::Result<Option<KeptSides>, NotOneRow> {
        let builds: Option<Vec<_>> =
            spine.build_at.iter().map(|at| kept_ref(&kept.builds, *at)?.clone()).collect();
        let outputs: Option<Vec<Vec<Batch>>> =
            spine.output_at.iter().map(|at| kept_ref(&kept.outputs, *at)?.clone()).collect();
        let (Some(builds), Some(outputs)) = (builds, outputs) else { return Ok(None) };
        let one_row = |mut batches: Vec<Batch>| match (batches.pop(), batches.is_empty()) {
            (Some(only), true) if only.len == 1 => Ok(only),
            _ => Err(NotOneRow),
        };
        let outputs = outputs.into_iter().map(one_row).collect::<std::result::Result<_, _>>()?;
        Ok(Some(KeptSides { builds, outputs }))
    }
}

/// A row on the spine: `layout` over the working row and the kept rows
/// it has met.
struct SpineRow<'a> {
    layout: &'a [Src],
    working: &'a [Value],
    sides: &'a KeptSides,
    matched: &'a [Option<usize>],
}

impl RowRef for SpineRow<'_> {
    fn get(&self, col: usize) -> Value {
        match self.layout[col] {
            Src::Working(c) => self.working[c].clone(),
            Src::Build(b, c) => match self.matched[b] {
                Some(at) => self.sides.builds[b].batch.cols[c].get(at),
                None => Value::Null,
            },
            Src::Output(o, c) => self.sides.outputs[o].cols[c].get(0),
        }
    }

    fn to_row(&self) -> Row {
        (0..self.layout.len()).map(|c| self.get(c)).collect()
    }
}

impl<'p> Spine<'p> {
    fn of(plan: &'p PlannedQuery, slot: &str, kept: &Kept) -> Option<Spine<'p>> {
        let PlanNode::Project { input, exprs, .. } = &plan.root else { return None };
        if exprs.iter().any(VecExpr::has_subquery) {
            return None;
        }
        let mut spine = Spine {
            stages: Vec::new(),
            project: (exprs, input.scope(), Vec::new()),
            width: 0,
            visible: plan.visible,
            build_at: Vec::new(),
            output_at: Vec::new(),
            sides: None,
            typed: None,
            matched: Vec::new(),
            key: Default::default(),
        };
        spine.project.2 = spine.compile(input, slot, kept)?;
        spine.matched = vec![None; spine.build_at.len()];
        Some(spine)
    }

    /// Append the stages of the subtree at `node`; where its output
    /// columns lie after them. `None` when the subtree is no spine.
    fn compile(&mut self, node: &'p PlanNode, slot: &str, kept: &Kept) -> Option<Vec<Src>> {
        use crate::ast::JoinKind;
        let columns = |node: &PlanNode| 0..node.scope().cols.len();
        match node {
            PlanNode::Scan { source: ScanSource::Slot { name, .. }, cols, total_cols, .. }
                if name == slot =>
            {
                self.width = *total_cols;
                Some(match cols {
                    Some(cols) => cols.iter().map(|&c| Src::Working(c)).collect(),
                    None => (0..*total_cols).map(Src::Working).collect(),
                })
            }
            PlanNode::Filter { input, pred, derived, .. } if !pred.has_subquery() => {
                let layout = self.compile(input, slot, kept)?;
                let stage = Stage::Filter { pred, derived: *derived };
                self.stages.push((stage, input.scope(), layout.clone()));
                Some(layout)
            }
            PlanNode::Reorder { input, perm, .. } => {
                let layout = self.compile(input, slot, kept)?;
                Some(perm.iter().map(|&p| layout[p]).collect())
            }
            PlanNode::Join { left, right, kind, lkeys, .. }
                if !lkeys.is_empty()
                    && matches!(kind, JoinKind::Inner | JoinKind::Left)
                    && kept_ref(&kept.builds, &**right).is_some()
                    && !lkeys.iter().any(VecExpr::has_subquery) =>
            {
                let layout = self.compile(left, slot, kept)?;
                let build = self.build_at.len();
                self.build_at.push(&**right);
                let stage = Stage::Probe { keys: lkeys, build, pad: *kind == JoinKind::Left };
                self.stages.push((stage, left.scope(), layout.clone()));
                Some(
                    layout
                        .into_iter()
                        .chain(columns(right).map(|c| Src::Build(build, c)))
                        .collect(),
                )
            }
            PlanNode::Join { left, right, kind, lkeys, cond, scope, .. }
                if lkeys.is_empty()
                    && matches!(kind, JoinKind::Inner | JoinKind::Cross)
                    && !cond.as_deref().is_some_and(bound_has_subquery) =>
            {
                let other_is_right = kept_ref(&kept.outputs, &**right).is_some();
                let (inner, other) = if other_is_right { (left, right) } else { (right, left) };
                kept_ref(&kept.outputs, &**other)?;
                let inner = self.compile(inner, slot, kept)?;
                let output = self.output_at.len();
                self.output_at.push(&**other);
                let other = columns(other).map(|c| Src::Output(output, c));
                let layout: Vec<Src> = if other_is_right {
                    inner.into_iter().chain(other).collect()
                } else {
                    other.chain(inner).collect()
                };
                if let Some(cond) = cond {
                    self.stages.push((Stage::Cross { cond }, scope, layout.clone()));
                }
                Some(layout)
            }
            _ => None,
        }
    }

    /// The step over `working` on the typed registers: whether it
    /// produced a row, `None` when it is not a step they run.
    fn run_typed(&mut self, working: &Working<'_>) -> Option<bool> {
        let (Some(typed), Some(sides)) = (&mut self.typed, &self.sides) else { return None };
        let working = match working {
            Working::Row(row) => Some(*row),
            Working::Carried => None,
        };
        typed.run(sides, working)
    }

    /// The row the last typed step produced.
    fn typed_row(&self) -> Option<&[Scalar]> {
        self.typed.as_ref().map(|t| &t.out[..self.visible])
    }

    /// The step over the one-row working table `working`: the row it
    /// produces, if any; `None` when the kept sides are not all there
    /// yet or a probe meets more than one build row.
    fn run(
        &mut self,
        ctx: &EvalCtx<'_>,
        working: &[Value],
        outer: Option<&Env<'_>>,
    ) -> Result<Option<Option<Row>>> {
        let Some(sides) = &self.sides else { return Ok(None) };
        for (stage, scope, layout) in &self.stages {
            let ev = VecEvalCtx { ctx, scope, outer };
            let row = SpineRow { layout, working, sides, matched: &self.matched };
            match stage {
                Stage::Filter { pred, derived } => {
                    let holds =
                        pred.eval_row(&row, &ev).and_then(|v| Ok(v.as_bool()? == Some(true)));
                    match holds {
                        Ok(true) => {}
                        // What the batch `Filter` does with a derived
                        // predicate it cannot evaluate.
                        Err(_) if *derived => {}
                        Ok(false) => return Ok(Some(None)),
                        Err(e) => return Err(e),
                    }
                }
                Stage::Probe { keys, build, pad } => {
                    let table = &sides.builds[*build];
                    // Every key is evaluated — an error in a later one is
                    // not hidden by a NULL before it — as over a batch.
                    let (values, scratch) = &mut self.key;
                    values.clear();
                    for k in keys.iter() {
                        values.push(k.eval_row(&row, &ev)?);
                    }
                    let first = table.first_match(values.as_slice(), scratch);
                    if first == END && !pad {
                        return Ok(Some(None));
                    }
                    if first != END && table.next[first as usize] != END {
                        return Ok(None);
                    }
                    self.matched[*build] = (first != END).then_some(first as usize);
                }
                Stage::Cross { cond } => {
                    let env = Env { scope, row: &row.to_row(), parent: outer };
                    if cond.eval(ctx, &env)?.as_bool()? != Some(true) {
                        return Ok(Some(None));
                    }
                }
            }
        }
        let (exprs, scope, layout) = &self.project;
        let ev = VecEvalCtx { ctx, scope, outer };
        let row = SpineRow { layout, working, sides, matched: &self.matched };
        let mut out: Row = exprs.iter().map(|e| e.eval_row(&row, &ev)).collect::<Result<_>>()?;
        out.truncate(self.visible);
        Ok(Some(Some(out)))
    }
}

/// An operand of a [`TypedStep`]: a register or a constant.
#[derive(Clone, Copy)]
enum Operand {
    Reg(usize),
    Const(Scalar),
}

impl Operand {
    fn get(self, regs: &[Scalar]) -> Scalar {
        match self {
            Operand::Reg(r) => regs[r],
            Operand::Const(c) => c,
        }
    }
}

/// One operation of a [`TypedStep`], into register `.1`: a [`VecExpr`]
/// node's row semantics, [`Scalar`]'s in place of [`Value`]'s.
enum Op {
    Bin(BinOp, Operand, Operand),
    Un(UnOp, Operand),
    Cast(DataType, Operand),
}

/// Operations in order — an expression's operands before it — and the
/// operand that holds each expression's value once they ran.
#[derive(Default)]
struct Code {
    ops: Vec<(Op, usize)>,
    values: Vec<Operand>,
}

impl Code {
    /// Run the operations: `None` when one has no value on scalars.
    fn run(&self, regs: &mut [Scalar]) -> Option<()> {
        for (op, dst) in &self.ops {
            regs[*dst] = match op {
                Op::Bin(op, l, r) => Scalar::binop(*op, l.get(regs), r.get(regs))?,
                Op::Un(op, v) => Scalar::unop(*op, v.get(regs))?,
                Op::Cast(ty, v) => v.get(regs).cast(ty)?,
            };
        }
        Some(())
    }
}

/// One operator of a [`TypedStep`].
enum TypedStage {
    /// The predicate is `code`'s one value.
    Filter(Code),
    /// A probe into the spine's `build`-th kept build by `code`'s values,
    /// whose matched row fills the registers of `loads` (`(column,
    /// register)`).
    Probe { code: Code, build: usize, pad: bool, loads: Vec<(usize, usize)> },
}

/// The [`Spine`] over typed registers: `0..width` hold the working row,
/// then one per build column an expression reads and one per operation;
/// a kept output's values are read once, into constants. A step it cannot
/// run there — a NULL where a register is read, a value or an operation
/// without a word form, a probe that meets two build rows — it leaves to
/// the `Value` spine, which raises whatever error the step raises.
struct TypedStep {
    stages: Vec<TypedStage>,
    project: Code,
    /// The working columns an expression reads.
    reads: Vec<usize>,
    regs: Vec<Scalar>,
    /// The projection of the last step that ran: its row.
    out: Vec<Scalar>,
    width: usize,
    key: (Vec<Scalar>, Vec<GroupKey>),
}

/// What [`TypedStep::compile`] allocates registers in.
struct Registers<'s> {
    sides: &'s KeptSides,
    reads: Vec<usize>,
    /// Per kept build, `(column, register)` of the columns read.
    loads: Vec<Vec<(usize, usize)>>,
    next: usize,
}

impl Registers<'_> {
    /// `code` with the expressions `exprs` over rows of `layout`.
    fn code(&mut self, exprs: &[VecExpr], layout: &[Src]) -> Option<Code> {
        let mut code = Code::default();
        for e in exprs {
            let value = self.operand(e, layout, &mut code.ops)?;
            code.values.push(value);
        }
        Some(code)
    }

    /// Where the value of `e` is once `ops`, onto which its operations go,
    /// ran.
    fn operand(
        &mut self,
        e: &VecExpr,
        layout: &[Src],
        ops: &mut Vec<(Op, usize)>,
    ) -> Option<Operand> {
        let op = match e {
            VecExpr::Col(i) => {
                return Some(match layout[*i] {
                    Src::Working(c) => {
                        if !self.reads.contains(&c) {
                            self.reads.push(c);
                        }
                        Operand::Reg(c)
                    }
                    Src::Build(b, c) => match self.loads[b].iter().find(|(col, _)| *col == c) {
                        Some(&(_, reg)) => Operand::Reg(reg),
                        None => {
                            let reg = self.register();
                            self.loads[b].push((c, reg));
                            Operand::Reg(reg)
                        }
                    },
                    Src::Output(o, c) => {
                        Operand::Const(Scalar::of(&self.sides.outputs[o].cols[c].get(0))?)
                    }
                })
            }
            VecExpr::Const(v) => return Some(Operand::Const(Scalar::of(v)?)),
            // Of a value that is there: NULL only when `negated` is not.
            VecExpr::IsNull { expr, negated } => {
                self.operand(expr, layout, ops)?;
                return Some(Operand::Const(Scalar::Bool(*negated)));
            }
            VecExpr::BinOp { op, lhs, rhs } | VecExpr::Logic { op, lhs, rhs, .. } => {
                let l = self.operand(lhs, layout, ops)?;
                Op::Bin(*op, l, self.operand(rhs, layout, ops)?)
            }
            VecExpr::UnOp { op, expr } => Op::Un(*op, self.operand(expr, layout, ops)?),
            VecExpr::Cast { expr, ty } => Op::Cast(ty.clone(), self.operand(expr, layout, ops)?),
            VecExpr::Outer { .. } | VecExpr::InList { .. } | VecExpr::Fallback(_) => return None,
        };
        let dst = self.register();
        ops.push((op, dst));
        Some(Operand::Reg(dst))
    }

    fn register(&mut self) -> usize {
        self.next += 1;
        self.next - 1
    }
}

impl TypedStep {
    /// The spine's typed form over its kept `sides`; `None` when some
    /// operator or expression on it has none.
    fn compile(spine: &Spine<'_>, sides: &KeptSides) -> Option<TypedStep> {
        let mut regs = Registers {
            sides,
            reads: Vec::new(),
            loads: vec![Vec::new(); spine.build_at.len()],
            next: spine.width,
        };
        let mut stages = Vec::with_capacity(spine.stages.len());
        for (stage, _, layout) in &spine.stages {
            stages.push(match stage {
                Stage::Filter { pred, .. } => {
                    TypedStage::Filter(regs.code(std::slice::from_ref(*pred), layout)?)
                }
                Stage::Probe { keys, build, pad } => TypedStage::Probe {
                    code: regs.code(keys, layout)?,
                    build: *build,
                    pad: *pad,
                    loads: Vec::new(),
                },
                Stage::Cross { .. } => return None,
            });
        }
        let (exprs, _, layout) = &spine.project;
        let project = regs.code(exprs, layout)?;
        for stage in &mut stages {
            if let TypedStage::Probe { build, loads, .. } = stage {
                *loads = std::mem::take(&mut regs.loads[*build]);
            }
        }
        Some(TypedStep {
            stages,
            out: vec![Scalar::Bool(false); project.values.len()],
            project,
            reads: regs.reads,
            regs: vec![Scalar::Bool(false); regs.next],
            width: spine.width,
            key: Default::default(),
        })
    }

    /// Run a step over `working`, or — `None` — over the row the last
    /// step produced: whether it produced a row (in `out`); `None` when
    /// it is not a step that runs here.
    fn run(&mut self, sides: &KeptSides, working: Option<&[Value]>) -> Option<bool> {
        let regs = &mut self.regs;
        match working {
            Some(row) => {
                for &c in &self.reads {
                    regs[c] = Scalar::of(&row[c])?;
                }
            }
            None => regs[..self.width].copy_from_slice(&self.out[..self.width]),
        }
        for stage in &self.stages {
            match stage {
                TypedStage::Filter(code) => {
                    code.run(regs)?;
                    match code.values[0].get(regs) {
                        Scalar::Bool(true) => {}
                        Scalar::Bool(false) => return Some(false),
                        _ => return None,
                    }
                }
                TypedStage::Probe { code, build, pad, loads } => {
                    code.run(regs)?;
                    let (key, scratch) = &mut self.key;
                    key.clear();
                    key.extend(code.values.iter().map(|k| k.get(regs)));
                    let table = &sides.builds[*build];
                    let first = table.first_match(key.as_slice(), scratch);
                    if first == END {
                        // Unmatched, a left join's row reads NULLs.
                        if *pad && loads.is_empty() {
                            continue;
                        }
                        return (!*pad).then_some(false);
                    }
                    if table.next[first as usize] != END {
                        return None;
                    }
                    for &(col, reg) in loads {
                        regs[reg] = table.batch.cols[col].scalar(first as usize)?;
                    }
                }
            }
        }
        self.project.run(regs)?;
        for (value, out) in self.project.values.iter().zip(&mut self.out) {
            *out = value.get(regs);
        }
        Some(true)
    }

    /// The working row the registers hold, as values.
    fn carried(&self) -> Row {
        self.regs[..self.width].iter().map(|s| s.value()).collect()
    }
}

/// One step of an [`IteratedPlan`], as its [`Runner`] sees it.
struct Step<'k> {
    rebound: &'k str,
    working: &'k [Batch],
    kept: &'k mut Kept,
}

/// One execution of a plan.
struct Runner<'a, 'k> {
    ctx: EvalCtx<'a>,
    trace: Option<&'a obs::Trace>,
    step: Option<Step<'k>>,
    /// The plan, when the statement keeps its catalog-only build sides.
    keeps: Option<&'a PlannedQuery>,
    /// The rows of the enclosing blocks, innermost first.
    outer: Option<&'a Env<'a>>,
}

impl<'a> Runner<'a, '_> {
    /// The evaluation context of expressions over rows of `scope`.
    fn over<'s>(&'s self, scope: &'s Scope) -> VecEvalCtx<'s> {
        VecEvalCtx { ctx: &self.ctx, scope, outer: self.outer }
    }

    /// The visible columns of the plan's result.
    fn run_batches(&mut self, planned: &PlannedQuery) -> Result<Vec<Batch>> {
        let mut batches = self.run_node(&planned.root)?;
        for b in &mut batches {
            b.cols.truncate(planned.visible);
        }
        Ok(batches)
    }

    fn run(&mut self, planned: &PlannedQuery) -> Result<Binding> {
        let span = self.trace.map(|t| t.span("columnar executor"));
        let batches = self.run_batches(planned)?;
        if let Some(s) = &span {
            s.rows(batches.iter().map(|b| b.len as u64).sum());
        }
        Ok(Binding::batches(typed_by(planned.schema.clone(), &batches), batches))
    }

    fn run_node(&mut self, node: &PlanNode) -> Result<Vec<Batch>> {
        if let Some(Some(out)) = self.step.as_mut().and_then(|s| kept_at(&mut s.kept.outputs, node))
        {
            return Ok(out.clone());
        }
        let span = self.trace.map(|t| t.span(&node.describe()));
        let out = self.run_node_inner(node, span.as_ref())?;
        if let Some(s) = &span {
            s.rows(out.iter().map(|b| b.len as u64).sum());
        }
        if let Some(keep) = self.step.as_mut().and_then(|s| kept_at(&mut s.kept.outputs, node)) {
            *keep = Some(out.clone());
        }
        Ok(out)
    }

    /// Does a step or the statement keep a build side over `right`?
    fn keeps_right(&self, right: &PlanNode, rkeys: &[VecExpr]) -> bool {
        let by_step = self.step.as_ref().is_some_and(|s| kept_pos(&s.kept.builds, right).is_some());
        by_step || self.keeps_side(right, rkeys)
    }

    /// Does the statement keep a build side over `side`, keyed by `keys`?
    fn keeps_side(&self, side: &PlanNode, keys: &[VecExpr]) -> bool {
        self.keeps.is_some() && keys.iter().all(VecExpr::is_closed) && reads_only_tables(side)
    }

    /// The kept build side of a hash join over `right`: a recursion's,
    /// built by the first step that gets here and probed by every later
    /// one, or the statement's. `None` when neither keeps one.
    fn kept_build(
        &mut self,
        right: &PlanNode,
        rkeys: &[VecExpr],
    ) -> Result<Option<Arc<JoinBuild>>> {
        match self.step.as_mut().and_then(|s| kept_at(&mut s.kept.builds, right)) {
            None => return self.statement_build(right, rkeys),
            Some(Some(build)) => {
                let build = build.clone();
                if let Some(step) = &mut self.step {
                    step.kept.reused += 1;
                }
                return Ok(Some(build));
            }
            Some(None) => {}
        }
        let build = match self.statement_build(right, rkeys)? {
            Some(build) => build,
            None => {
                let rb = self.run_node(right)?;
                Arc::new(JoinBuild::new(&self.over(right.scope()), &rb, rkeys)?)
            }
        };
        if let Some(keep) = self.step.as_mut().and_then(|s| kept_at(&mut s.kept.builds, right)) {
            *keep = Some(build.clone());
        }
        Ok(Some(build))
    }

    /// The build side over `side` that the statement keeps for the plan,
    /// built now if it has none yet; `None` when it keeps none over
    /// `side`.
    fn statement_build(
        &mut self,
        side: &PlanNode,
        keys: &[VecExpr],
    ) -> Result<Option<Arc<JoinBuild>>> {
        let Some(plan) = self.keeps.filter(|_| self.keeps_side(side, keys)) else {
            return Ok(None);
        };
        let db = self.ctx.db;
        if let Some(build) = db.kept_build(plan, side) {
            db.count(self.ctx.ctes, Work::BuildsKept, 1);
            return Ok(Some(build));
        }
        let batches = self.run_node(side)?;
        let build = Arc::new(JoinBuild::new(&self.over(side.scope()), &batches, keys)?);
        db.keep_build(plan, side, build.clone());
        Ok(Some(build))
    }

    /// `span` is the node's own span, for notes.
    fn run_node_inner(&mut self, node: &PlanNode, span: Option<&Span<'_>>) -> Result<Vec<Batch>> {
        match node {
            // A stored table hands out its columnar image; the slot a
            // step rebinds hands out the step's working batches; any
            // other slot is whatever rows its name is bound to, and a
            // derived relation what its query returns now, pivoted here.
            PlanNode::Scan { source, cols, total_cols, .. } => match source {
                ScanSource::OneRow => Ok(vec![Batch { cols: Vec::new(), len: 1 }]),
                ScanSource::Derived { query } => {
                    let t = run_subquery(&self.ctx, query, self.outer)?;
                    if t.num_columns() != *total_cols {
                        return Err(Error::eval(format!(
                            "derived relation returns {} columns, planned with {total_cols}",
                            t.num_columns()
                        )));
                    }
                    Ok(t.rows
                        .chunks(BATCH_SIZE)
                        .map(|c| Batch::from_rows(c, cols.as_deref()))
                        .collect())
                }
                ScanSource::Table(stored) => {
                    let (batches, pivoted) = stored.scan(cols.as_deref());
                    self.ctx.db.count(self.ctx.ctes, Work::ColumnsPivoted, pivoted);
                    if let Some(s) = span {
                        s.note("pivoted", pivoted);
                    }
                    Ok(batches)
                }
                ScanSource::Slot { name, schema } => {
                    if let Some(step) = self.step.as_ref().filter(|s| s.rebound == name) {
                        return Ok(step
                            .working
                            .iter()
                            .map(|b| b.select(cols.as_deref()))
                            .collect());
                    }
                    let bound =
                        self.ctx.ctes.get(name).ok_or_else(|| {
                            Error::eval(format!("plan slot '{name}' is not bound"))
                        })?;
                    if bound.schema() != schema {
                        return Err(Error::eval(format!(
                            "plan slot '{name}' is bound to a relation of another schema"
                        )));
                    }
                    Ok(bound.scan(cols.as_deref()))
                }
            },

            PlanNode::Filter { input, pred, derived, .. } => {
                let batches = self.run_node(input)?;
                let vctx = self.over(input.scope());
                let mut out = Vec::with_capacity(batches.len());
                for b in &batches {
                    let sel = match pred.eval(b, &vctx).and_then(|p| selected(&p, b.len)) {
                        Ok(sel) => sel,
                        // A derived filter drops only rows the join above
                        // it would: where it cannot be evaluated (a stored
                        // value outside its column's declared type), the
                        // join gets the whole batch.
                        Err(_) if *derived => (0..b.len).collect(),
                        Err(e) => return Err(e),
                    };
                    out.extend(b.keep(&sel));
                }
                Ok(out)
            }

            PlanNode::Reorder { input, perm, .. } => {
                let batches = self.run_node(input)?;
                Ok(batches.iter().map(|b| b.select(Some(perm))).collect())
            }

            PlanNode::Join { left, right, kind, lkeys, rkeys, cond, scope, .. } => {
                if lkeys.is_empty() {
                    let (lb, rb) = (self.run_node(left)?, self.run_node(right)?);
                    let widths = (left.scope().cols.len(), right.scope().cols.len());
                    return loop_join(&self.over(scope), &lb, &rb, widths, *kind, cond.as_deref());
                }
                // The table goes over the input with fewer rows — both
                // are in hand — except that a kept build (a recursion's,
                // or the statement's) stays where every execution finds
                // it, and an outer join pads in the order a right-side
                // table gives.
                let rows = |batches: &[Batch]| batches.iter().map(|b| b.len).sum::<usize>();
                let inner = matches!(kind, crate::ast::JoinKind::Inner);
                let (lb, rb, kept, build_is_left) = if self.keeps_right(right, rkeys) {
                    let lb = self.run_node(left)?;
                    (lb, Vec::new(), self.kept_build(right, rkeys)?, false)
                } else if let Some(kept) =
                    if inner { self.statement_build(left, lkeys)? } else { None }
                {
                    (Vec::new(), self.run_node(right)?, Some(kept), true)
                } else {
                    let (lb, rb) = (self.run_node(left)?, self.run_node(right)?);
                    let build_is_left = inner && rows(&lb) < rows(&rb);
                    (lb, rb, None, build_is_left)
                };
                let built;
                let build: &JoinBuild = match &kept {
                    Some(kept) => kept,
                    None if build_is_left => {
                        built = JoinBuild::new(&self.over(left.scope()), &lb, lkeys)?;
                        &built
                    }
                    None => {
                        built = JoinBuild::new(&self.over(right.scope()), &rb, rkeys)?;
                        &built
                    }
                };
                let (probe, probe_scope, probe_keys) = if build_is_left {
                    (&rb, right.scope(), rkeys)
                } else {
                    (&lb, left.scope(), lkeys)
                };
                if let Some(s) = span {
                    s.note("build", if build_is_left { "left" } else { "right" });
                    s.note("keys", build.index.label(lkeys.len()));
                    s.note("build_rows", build.batch.len);
                    s.note("probe_rows", rows(probe));
                }
                hash_join(&self.over(probe_scope), build, probe, probe_keys, *kind, build_is_left)
            }

            PlanNode::Apply { left, right, kind, cond, scope, .. } => {
                let lb = self.run_node(left)?;
                let pad = vec![Value::Null; right.visible];
                let mut rows: Vec<Row> = Vec::new();
                for lrow in batches_to_rows(&lb) {
                    let under = Env { scope: left.scope(), row: &lrow, parent: self.outer };
                    let mut sub = Runner {
                        ctx: EvalCtx { db: self.ctx.db, ctes: self.ctx.ctes },
                        trace: None,
                        step: None,
                        keeps: None,
                        outer: Some(&under),
                    };
                    let mut matched = false;
                    for rrow in batches_to_rows(&sub.run_batches(right)?) {
                        let row: Row = lrow.iter().cloned().chain(rrow).collect();
                        let joins = match cond {
                            None => true,
                            Some(cond) => {
                                let env = Env { scope, row: &row, parent: self.outer };
                                cond.eval(&self.ctx, &env)?.as_bool()? == Some(true)
                            }
                        };
                        if joins {
                            matched = true;
                            rows.push(row);
                        }
                    }
                    if !matched && *kind == crate::ast::JoinKind::Left {
                        rows.push(lrow.iter().chain(&pad).cloned().collect());
                    }
                }
                Ok(rows.chunks(BATCH_SIZE).map(|c| Batch::from_rows(c, None)).collect())
            }

            PlanNode::Aggregate { input, group, sets, aggs, .. } => {
                let batches = self.run_node(input)?;
                aggregate(&self.over(input.scope()), &batches, group, sets, aggs, span)
            }

            PlanNode::Project { input, exprs, .. } => {
                let batches = self.run_node(input)?;
                let vctx = self.over(input.scope());
                batches
                    .iter()
                    .map(|b| {
                        let cols =
                            exprs.iter().map(|e| e.eval(b, &vctx)).collect::<Result<Vec<_>>>()?;
                        Ok(Batch { cols, len: b.len })
                    })
                    .collect()
            }

            PlanNode::Distinct { input, visible } => {
                let batches = self.run_node(input)?;
                let mut seen = KeyIndex::default();
                let out = unseen_rows(&batches, *visible, &mut seen);
                if let Some(s) = span {
                    s.note("keys", seen.label(*visible));
                }
                Ok(out)
            }

            PlanNode::Sort { input, items, visible, keep, .. } => {
                let batches = self.run_node(input)?;
                let all = concat(&batches, input.scope().cols.len());
                let rows = sorted_rows(&all.cols[*visible..], items, all.len, *keep);
                Ok(if rows.is_empty() { Vec::new() } else { vec![all.gather(&rows)] })
            }

            PlanNode::Limit { input, limit, offset } => {
                let (mut skip, mut take) = (offset.unwrap_or(0), limit.unwrap_or(usize::MAX));
                let mut out = Vec::new();
                for b in self.run_node(input)? {
                    let from = skip.min(b.len);
                    let to = b.len.min(from.saturating_add(take));
                    skip -= from;
                    take -= to - from;
                    if (from, to) == (0, b.len) {
                        out.push(b);
                    } else if from < to {
                        out.push(b.gather(&(from..to).collect::<Vec<_>>()));
                    }
                }
                Ok(out)
            }
        }
    }
}

/// Does the subtree at `node` read nothing but the tables its plan holds
/// — no CTE slot, no subquery, no outer row, no expression the row
/// evaluator runs (which may call a UDF)? Its output is then the same in
/// every execution of the plan.
fn reads_only_tables(node: &PlanNode) -> bool {
    let closed = |exprs: &[VecExpr]| exprs.iter().all(VecExpr::is_closed);
    match node {
        PlanNode::Scan { source: ScanSource::Table(_), .. } => true,
        PlanNode::Filter { input, pred, .. } => pred.is_closed() && reads_only_tables(input),
        PlanNode::Reorder { input, .. } => reads_only_tables(input),
        PlanNode::Project { input, exprs, .. } => closed(exprs) && reads_only_tables(input),
        PlanNode::Join { left, right, lkeys, rkeys, cond: None, .. } => {
            closed(lkeys) && closed(rkeys) && reads_only_tables(left) && reads_only_tables(right)
        }
        _ => false,
    }
}

/// `schema` with each column typed by its first non-NULL value in
/// `batches` — [`Schema::typed_by`] over the rows they hold.
fn typed_by(mut schema: Schema, batches: &[Batch]) -> Schema {
    for (i, col) in schema.columns.iter_mut().enumerate() {
        let mut values = batches.iter().flat_map(|b| (0..b.len).map(move |r| b.cols[i].get(r)));
        if let Some(v) = values.find(|v| !v.is_null()) {
            col.ty = v.data_type();
        }
    }
    schema
}

/// The rows `0..len` in the order `ORDER BY items` gives them by the key
/// columns `keys` — rows of equal keys in input order, which is the order
/// the stable `sort_keyed` leaves them in — or only the first `keep` of
/// that order, found without sorting the rest.
fn sorted_rows(
    keys: &[Arc<ColumnVec>],
    items: &[OrderItem],
    len: usize,
    keep: Option<usize>,
) -> Vec<usize> {
    let by_keys = |a: &usize, b: &usize| {
        let by_key = |(col, item): (&Arc<ColumnVec>, &OrderItem)| {
            key_order(item, !col.is_valid(*a), !col.is_valid(*b), || col.cmp_slots(*a, *b))
        };
        let unequal = keys.iter().zip(items).map(by_key).find(|o| o.is_ne());
        unequal.unwrap_or_else(|| a.cmp(b))
    };
    let keep = keep.unwrap_or(len).min(len);
    if keep == 1 {
        return (0..len).min_by(by_keys).into_iter().collect();
    }
    let mut rows: Vec<usize> = (0..len).collect();
    if 0 < keep && keep < len {
        rows.select_nth_unstable_by(keep - 1, by_keys);
    }
    rows.truncate(keep);
    rows.sort_unstable_by(by_keys);
    rows
}

/// The rows of `batches` whose first `visible` columns are not in `seen`
/// yet, which they join: DISTINCT over one input, and the duplicate
/// elimination of a `UNION` recursion across its steps.
pub(crate) fn unseen_rows(batches: &[Batch], visible: usize, seen: &mut KeyIndex) -> Vec<Batch> {
    let mut unseen = |b: &Batch| -> Vec<usize> {
        (0..b.len).filter(|&i| seen.is_new(Slot(&b.cols[..visible], i))).collect()
    };
    batches.iter().filter_map(|b| b.keep(&unseen(b))).collect()
}

/// The rows of a `len`-row batch whose predicate value in `col` is true.
fn selected(col: &ColumnVec, len: usize) -> Result<Vec<usize>> {
    let mut sel = Vec::new();
    match col {
        ColumnVec::Bool(vals, bm) => {
            let all_valid = bm.all_set();
            for (i, v) in vals.iter().enumerate().take(len) {
                if *v && (all_valid || bm.get(i)) {
                    sel.push(i);
                }
            }
        }
        other => {
            // Mirror the interpreter: `as_bool` may error on
            // non-boolean predicate values.
            for i in 0..len {
                if other.get(i).as_bool()? == Some(true) {
                    sel.push(i);
                }
            }
        }
    }
    Ok(sel)
}

/// Per row of `stored`, whether `pred` holds (every row when there is
/// none) — the WHERE of DELETE and UPDATE, evaluated the way a planned
/// `Filter` over a `Scan` of the columns it reads would be. `pred` is
/// bound against `scope`, the table's full-width scope.
pub(crate) fn matching_rows(
    ctx: &EvalCtx<'_>,
    stored: &StoredTable,
    scope: &Scope,
    pred: Option<&BoundExpr>,
) -> Result<Vec<bool>> {
    let Some(pred) = pred else { return Ok(vec![true; stored.num_rows()]) };
    let mut keep = Vec::new();
    collect_cols(pred, &mut keep);
    keep.sort_unstable();
    keep.dedup();
    let positions: FastMap<usize, usize> =
        keep.iter().enumerate().map(|(pos, &c)| (c, pos)).collect();
    // A subquery binds against the row it runs under, so a predicate
    // with one (`remap_cols` refuses it) sees the full-width row.
    let (pred, scope, keep) = match remap_cols(pred, &positions) {
        Some(pruned) => {
            let cols = keep.iter().map(|&c| scope.cols[c].clone()).collect();
            (Cow::Owned(pruned), Cow::Owned(Scope::new(cols)), Some(keep))
        }
        None => (Cow::Borrowed(pred), Cow::Borrowed(scope), None),
    };
    let (batches, pivoted) = stored.scan(keep.as_deref());
    ctx.db.count(ctx.ctes, Work::ColumnsPivoted, pivoted);
    let ve = VecExpr::compile(&pred);
    let vctx = VecEvalCtx { ctx, scope: &scope, outer: None };
    let mut hits = vec![false; stored.num_rows()];
    let mut base = 0;
    for b in &batches {
        for i in selected(ve.eval(b, &vctx)?.as_ref(), b.len)? {
            hits[base + i] = true;
        }
        base += b.len;
    }
    Ok(hits)
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// A side's batches as one batch for join processing.
fn concat(batches: &[Batch], width: usize) -> Cow<'_, Batch> {
    if let [only] = batches {
        return Cow::Borrowed(only);
    }
    let cols = (0..width)
        .map(|c| {
            let parts: Vec<&ColumnVec> = batches.iter().map(|b| &*b.cols[c]).collect();
            Arc::new(ColumnVec::concat(&parts))
        })
        .collect();
    Cow::Owned(Batch { cols, len: batches.iter().map(|b| b.len).sum() })
}

/// Ends a chain of build rows.
const END: u32 = u32::MAX;

/// The build side of a hash equi-join: one input as one batch, and its
/// rows chained by join key in row order (NULL keys never match, so
/// those rows are in no chain but stay pad-eligible).
pub(crate) struct JoinBuild {
    batch: Batch,
    /// The keys of the chained rows: none with a NULL, so a probe key
    /// with one finds nothing.
    index: KeyIndex,
    /// Per key id, the first and the last build row of its chain.
    chains: Vec<(u32, u32)>,
    /// Per build row, the next row of the same key.
    next: Vec<u32>,
}

impl JoinBuild {
    /// Over `batches`, rows of `ev.scope`.
    fn new(ev: &VecEvalCtx<'_>, batches: &[Batch], keys: &[VecExpr]) -> Result<JoinBuild> {
        let batch = concat(batches, ev.scope.cols.len()).into_owned();
        if batch.len >= END as usize {
            return Err(Error::eval("hash join: build side too large"));
        }
        let key_cols: Vec<Arc<ColumnVec>> =
            keys.iter().map(|k| k.eval(&batch, ev)).collect::<Result<_>>()?;
        let mut index = KeyIndex::for_columns(&key_cols, batch.len);
        let mut chains: Vec<(u32, u32)> = Vec::with_capacity(batch.len);
        let mut next = vec![END; batch.len];
        for row in 0..batch.len {
            if !key_cols.iter().all(|c| c.is_valid(row)) {
                continue;
            }
            let id = index.insert(Slot(&key_cols, row)) as usize;
            match chains.get_mut(id) {
                Some((_, last)) => {
                    next[*last as usize] = row as u32;
                    *last = row as u32;
                }
                None => chains.push((row as u32, row as u32)),
            }
        }
        Ok(JoinBuild { batch, index, chains, next })
    }

    /// The first build row whose key equals `key` ([`END`] when none
    /// does); `scratch` is scratch.
    fn first_match(&self, key: impl Key, scratch: &mut Vec<GroupKey>) -> u32 {
        self.index.get(key, scratch).map_or(END, |id| self.chains[id as usize].0)
    }
}

/// The rows of a join: per output row, which row of the left and of the
/// right input it is made of (`None` = the NULL padding of an outer
/// join). A side whose rows all appear once, in order, shares its columns
/// with the output; any other is gathered.
#[derive(Default)]
struct JoinRows {
    left: Vec<Option<usize>>,
    right: Vec<Option<usize>>,
}

impl JoinRows {
    fn push(&mut self, li: Option<usize>, ri: Option<usize>) {
        self.left.push(li);
        self.right.push(ri);
    }

    fn batch(&self, l: &Batch, r: &Batch) -> Batch {
        let mut cols = Vec::with_capacity(l.cols.len() + r.cols.len());
        for (side, rows) in [(l, &self.left), (r, &self.right)] {
            let whole =
                rows.len() == side.len && rows.iter().enumerate().all(|(i, r)| *r == Some(i));
            for c in &side.cols {
                cols.push(if whole { c.clone() } else { Arc::new(c.gather_opt(rows)) });
            }
        }
        Batch { cols, len: self.left.len() }
    }

    /// Order the rows by left row, keeping each left row's right rows in
    /// the order they were pushed; `left_rows` bounds the left indices.
    /// Only for rows without padding on the left.
    fn sort_by_left(&mut self, left_rows: usize) {
        debug_assert!(self.left.iter().all(Option::is_some));
        let mut at = vec![0usize; left_rows + 1];
        for li in self.left.iter().flatten() {
            at[li + 1] += 1;
        }
        for li in 0..left_rows {
            at[li + 1] += at[li];
        }
        let unset = vec![None; self.left.len()];
        let mut sorted = JoinRows { left: unset.clone(), right: unset };
        for (li, ri) in self.left.iter().zip(&self.right) {
            let Some(l) = *li else { continue };
            (sorted.left[at[l]], sorted.right[at[l]]) = (*li, *ri);
            at[l] += 1;
        }
        *self = sorted;
    }
}

/// The hash equi-join: probe `build` with the other input, batch by
/// batch. Whichever side was built, the output is the interpreter's
/// `hash_join`'s, row for row: left rows in order, each with its matches
/// in right-row order, an unmatched left row padded in place for
/// LEFT/FULL, then the unmatched right rows in right order for
/// RIGHT/FULL. `pv` evaluates over the probe side's rows;
/// `build_is_left` says which input `build` holds; an outer join builds
/// its right input.
fn hash_join(
    pv: &VecEvalCtx<'_>,
    build: &JoinBuild,
    probe: &[Batch],
    probe_keys: &[VecExpr],
    kind: crate::ast::JoinKind,
    build_is_left: bool,
) -> Result<Vec<Batch>> {
    use crate::ast::JoinKind;
    debug_assert!(!build_is_left || matches!(kind, JoinKind::Inner));
    let pad_probe = matches!(kind, JoinKind::Left | JoinKind::Full);
    // Only RIGHT/FULL joins need to know which build rows matched; the
    // others must not pay for the build side's size on every probe.
    let pad_build = matches!(kind, JoinKind::Right | JoinKind::Full);
    let mut build_matched = vec![false; if pad_build { build.batch.len } else { 0 }];
    // The probe rows the output is made of, batch by batch, and the
    // output as (probe row among those, build row).
    let mut kept: Vec<Batch> = Vec::new();
    let mut kept_rows = 0;
    let mut out = JoinRows::default();
    let mut key = Vec::new();
    for b in probe {
        let key_cols: Vec<Arc<ColumnVec>> =
            probe_keys.iter().map(|k| k.eval(b, pv)).collect::<Result<_>>()?;
        // The rows of `b` the output is made of: all of them, until the
        // first that is not makes a list of the ones before it.
        let mut sel: Option<Vec<usize>> = None;
        for i in 0..b.len {
            let mut row = build.first_match(Slot(&key_cols, i), &mut key);
            if row == END && !pad_probe {
                sel.get_or_insert_with(|| (0..i).collect());
                continue;
            }
            let at = Some(kept_rows + sel.as_ref().map_or(i, Vec::len));
            if let Some(sel) = &mut sel {
                sel.push(i);
            }
            if row == END {
                out.push(at, None);
            }
            while row != END {
                if pad_build {
                    build_matched[row as usize] = true;
                }
                out.push(at, Some(row as usize));
                row = build.next[row as usize];
            }
        }
        kept_rows += sel.as_ref().map_or(b.len, Vec::len);
        kept.extend(match sel {
            None => Some(b.clone()),
            Some(sel) => b.keep(&sel),
        });
    }
    for (row, matched) in build_matched.iter().enumerate() {
        if !matched {
            out.push(None, Some(row));
        }
    }
    let kept = concat(&kept, pv.scope.cols.len());
    if build_is_left {
        // Probed in right-row order with the left input in the table.
        std::mem::swap(&mut out.left, &mut out.right);
        out.sort_by_left(build.batch.len);
        Ok(vec![out.batch(&build.batch, &kept)])
    } else {
        Ok(vec![out.batch(&kept, &build.batch)])
    }
}

/// Nested-loop join for non-equi conditions and cross joins, mirroring
/// the reference's `join_rels` nested loop (same row order, same padding
/// behavior). Rows are materialized only for the shared evaluator to
/// check `cond` on; `ev` evaluates over the combined row, and `widths`
/// are the column counts of the two sides.
fn loop_join(
    ev: &VecEvalCtx<'_>,
    lb: &[Batch],
    rb: &[Batch],
    widths: (usize, usize),
    kind: crate::ast::JoinKind,
    cond: Option<&BoundExpr>,
) -> Result<Vec<Batch>> {
    use crate::ast::JoinKind;
    let (lbatch, rbatch) = (concat(lb, widths.0), concat(rb, widths.1));
    let cond = cond.map(|b| (b, batches_to_rows(lb), batches_to_rows(rb)));
    let mut out = JoinRows::default();
    let pad_right = matches!(kind, JoinKind::Right | JoinKind::Full);
    let mut right_matched = vec![false; if pad_right { rbatch.len } else { 0 }];
    for li in 0..lbatch.len {
        let mut matched = false;
        for ri in 0..rbatch.len {
            let ok = match &cond {
                None => true,
                Some((b, lrows, rrows)) => {
                    let row: Row = lrows[li].iter().chain(&rrows[ri]).cloned().collect();
                    let env = Env { scope: ev.scope, row: &row, parent: ev.outer };
                    b.eval(ev.ctx, &env)?.as_bool()? == Some(true)
                }
            };
            if ok {
                matched = true;
                if pad_right {
                    right_matched[ri] = true;
                }
                out.push(Some(li), Some(ri));
            }
        }
        if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
            out.push(Some(li), None);
        }
    }
    for (ri, m) in right_matched.iter().enumerate() {
        if !m {
            out.push(None, Some(ri));
        }
    }
    Ok(vec![out.batch(&lbatch, &rbatch)])
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// One accumulator per (group, aggregate call). Typed variants avoid
/// `Value` boxing and the interpreter's per-row string dispatch for the
/// hot aggregates over uniformly-typed columns; everything else runs the
/// interpreter's [`AggState`] for exact parity.
enum Acc {
    /// `count(*)` — increments unconditionally.
    CountStar(i64),
    /// Non-distinct `count(x)` — counts valid slots.
    CountCol(i64),
    SumInt {
        sum: i64,
        seen: bool,
    },
    SumFloat {
        sum: f64,
        seen: bool,
    },
    AvgInt {
        sum: i64,
        n: i64,
    },
    AvgFloat {
        sum: f64,
        n: i64,
    },
    /// `min` / `max` over a column of one `i64` kind.
    Min(Word, Option<i64>),
    Max(Word, Option<i64>),
    General(Box<AggState>),
}

#[derive(Clone, Copy, PartialEq)]
enum AccKind {
    CountStar,
    CountCol,
    SumInt,
    SumFloat,
    AvgInt,
    AvgFloat,
    Min(Word),
    Max(Word),
    General,
}

impl Acc {
    fn new(kind: AccKind, call: &PlanAggCall) -> Acc {
        match kind {
            AccKind::CountStar => Acc::CountStar(0),
            AccKind::CountCol => Acc::CountCol(0),
            AccKind::SumInt => Acc::SumInt { sum: 0, seen: false },
            AccKind::SumFloat => Acc::SumFloat { sum: 0.0, seen: false },
            AccKind::AvgInt => Acc::AvgInt { sum: 0, n: 0 },
            AccKind::AvgFloat => Acc::AvgFloat { sum: 0.0, n: 0 },
            AccKind::Min(kind) => Acc::Min(kind, None),
            AccKind::Max(kind) => Acc::Max(kind, None),
            AccKind::General => Acc::General(Box::new(AggState::new(&call.name, call.distinct))),
        }
    }

    fn finish(self, sep: Option<&Value>) -> Result<Value> {
        Ok(match self {
            Acc::CountStar(c) | Acc::CountCol(c) => Value::Int(c),
            Acc::SumInt { sum, seen } => {
                if seen {
                    Value::Int(sum)
                } else {
                    Value::Null
                }
            }
            Acc::SumFloat { sum, seen } => {
                if seen {
                    Value::Float(sum)
                } else {
                    Value::Null
                }
            }
            // avg over integers: the interpreter promotes the sum to
            // Float before dividing, so the result is always Float.
            Acc::AvgInt { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum as f64 / n as f64)
                }
            }
            Acc::AvgFloat { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::Min(kind, v) | Acc::Max(kind, v) => v.map_or(Value::Null, |v| kind.value(v)),
            Acc::General(state) => state.finish(sep)?,
        })
    }
}

/// Per-batch evaluated input columns for the aggregate operator.
struct AggBatch {
    len: usize,
    group: Vec<Arc<ColumnVec>>,
    args: Vec<Option<Arc<ColumnVec>>>,
    args2: Vec<Option<Arc<ColumnVec>>>,
}

fn aggregate(
    vctx: &VecEvalCtx<'_>,
    batches: &[Batch],
    group: &[VecExpr],
    sets: &[Vec<usize>],
    aggs: &[PlanAggCall],
    span: Option<&Span<'_>>,
) -> Result<Vec<Batch>> {
    let eval_opt = |e: &Option<VecExpr>, b: &Batch| e.as_ref().map(|e| e.eval(b, vctx)).transpose();

    // Evaluate group keys and aggregate arguments once per batch — they
    // are shared across all grouping sets.
    let mut abatches: Vec<AggBatch> = Vec::with_capacity(batches.len());
    for b in batches {
        abatches.push(AggBatch {
            len: b.len,
            group: group.iter().map(|e| e.eval(b, vctx)).collect::<Result<_>>()?,
            args: aggs.iter().map(|a| eval_opt(&a.arg, b)).collect::<Result<_>>()?,
            args2: aggs.iter().map(|a| eval_opt(&a.arg2, b)).collect::<Result<_>>()?,
        });
    }

    // Pick an accumulator per aggregate call: typed fast paths only when
    // the argument column is uniformly typed across every batch.
    let kinds: Vec<AccKind> =
        aggs.iter().enumerate().map(|(si, a)| acc_kind(a, si, &abatches)).collect();
    let make_accs =
        || -> Vec<Acc> { kinds.iter().zip(aggs).map(|(k, a)| Acc::new(*k, a)).collect() };

    // Group rows: same order as the interpreter — grouping sets outer,
    // input rows inner, groups created on first encounter. A set keys the
    // rows by its own columns; the empty set's key has none, and its one
    // group exists even over empty input.
    let mut groups: Vec<Group> = Vec::new();
    let mut labels = Vec::with_capacity(sets.len());
    for set in sets {
        let (base, mut index) = (groups.len(), KeyIndex::default());
        let mut group_of = |groups: &mut Vec<Group>, cols: &[Arc<ColumnVec>], i: usize| {
            let g = base + index.insert(Slot(cols, i)) as usize;
            if g == groups.len() {
                let mut key = vec![Value::Null; group.len()];
                for (&k, col) in set.iter().zip(cols) {
                    key[k] = col.get(i);
                }
                groups.push((key, make_accs(), None));
            }
            g
        };
        if set.is_empty() {
            group_of(&mut groups, &[], 0);
        }
        for bc in &abatches {
            let cols: Vec<Arc<ColumnVec>> = set.iter().map(|&k| bc.group[k].clone()).collect();
            for i in 0..bc.len {
                let g = group_of(&mut groups, &cols, i);
                bump_group(&mut groups, g, bc, i)?;
            }
        }
        labels.push(index.label(set.len()));
    }
    if let Some(s) = span {
        s.note("keys", labels.join(","));
    }

    /// A group's key values, accumulators and `string_agg` separator.
    type Group = (Vec<Value>, Vec<Acc>, Option<Value>);

    fn bump_group(groups: &mut [Group], gidx: usize, bc: &AggBatch, i: usize) -> Result<()> {
        let (_, accs, sep_slot) = &mut groups[gidx];
        for (si, acc) in accs.iter_mut().enumerate() {
            let sep = bc.args2[si].as_ref().map(|c| c.get(i));
            if sep.is_some() {
                sep_slot.clone_from(&sep);
            }
            update_acc(acc, &bc.args[si], i, sep)?;
        }
        Ok(())
    }

    let mut agg_rows: Vec<Row> = Vec::with_capacity(groups.len());
    for (gvals, accs, sep) in groups {
        let mut row = gvals;
        for acc in accs {
            row.push(acc.finish(sep.as_ref())?);
        }
        agg_rows.push(row);
    }
    Ok(agg_rows.chunks(BATCH_SIZE).map(|c| Batch::from_rows(c, None)).collect())
}

/// Choose the accumulator implementation for one aggregate call.
fn acc_kind(call: &PlanAggCall, si: usize, abatches: &[AggBatch]) -> AccKind {
    if call.distinct {
        return AccKind::General;
    }
    if call.name == "count" && call.arg.is_none() {
        return AccKind::CountStar;
    }
    if call.arg.is_none() {
        return AccKind::General;
    }
    if call.name == "count" {
        return AccKind::CountCol;
    }
    // The kind of `i64` every batch's argument column holds, if one does.
    let word = |b: &AggBatch| b.args[si].as_deref().and_then(ColumnVec::words).map(|(w, ..)| w);
    let first = abatches.first().and_then(word);
    let words = first.filter(|_| abatches.iter().all(|b| word(b) == first));
    let all_int = words == Some(Word::Int);
    let all_float =
        abatches.iter().all(|b| matches!(b.args[si].as_deref(), Some(ColumnVec::Float(..))));
    match (call.name.as_str(), all_int, all_float, words) {
        ("sum", true, _, _) => AccKind::SumInt,
        ("sum", _, true, _) => AccKind::SumFloat,
        ("avg", true, _, _) => AccKind::AvgInt,
        ("avg", _, true, _) => AccKind::AvgFloat,
        ("min", _, _, Some(kind)) => AccKind::Min(kind),
        ("max", _, _, Some(kind)) => AccKind::Max(kind),
        _ => AccKind::General,
    }
}

fn update_acc(
    acc: &mut Acc,
    col: &Option<Arc<ColumnVec>>,
    i: usize,
    sep: Option<Value>,
) -> Result<()> {
    match acc {
        Acc::CountStar(c) => *c += 1,
        Acc::CountCol(c) => {
            if col.as_ref().is_some_and(|c| c.is_valid(i)) {
                *c += 1;
            }
        }
        Acc::SumInt { sum, seen } => {
            if let Some(ColumnVec::Int(vals, bm)) = col.as_deref() {
                if bm.get(i) {
                    *sum = sum.checked_add(vals[i]).ok_or_else(|| Word::Int.overflow())?;
                    *seen = true;
                }
            }
        }
        Acc::SumFloat { sum, seen } => {
            if let Some(ColumnVec::Float(vals, bm)) = col.as_deref() {
                if bm.get(i) {
                    *sum += vals[i];
                    *seen = true;
                }
            }
        }
        Acc::AvgInt { sum, n } => {
            if let Some(ColumnVec::Int(vals, bm)) = col.as_deref() {
                if bm.get(i) {
                    *sum = sum.checked_add(vals[i]).ok_or_else(|| Word::Int.overflow())?;
                    *n += 1;
                }
            }
        }
        Acc::AvgFloat { sum, n } => {
            if let Some(ColumnVec::Float(vals, bm)) = col.as_deref() {
                if bm.get(i) {
                    *sum += vals[i];
                    *n += 1;
                }
            }
        }
        Acc::Min(_, m) => {
            if let Some((_, vals, bm)) = col.as_deref().and_then(ColumnVec::words) {
                if bm.get(i) {
                    *m = Some(m.map_or(vals[i], |p| p.min(vals[i])));
                }
            }
        }
        Acc::Max(_, m) => {
            if let Some((_, vals, bm)) = col.as_deref().and_then(ColumnVec::words) {
                if bm.get(i) {
                    *m = Some(m.map_or(vals[i], |p| p.max(vals[i])));
                }
            }
        }
        Acc::General(state) => {
            let v = col.as_ref().map(|c| c.get(i));
            state.update(v, sep.as_ref())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::JoinKind;
    use crate::exec::eval::ScopeCol;
    use crate::types::DataType;

    /// xorshift64*, so the corpus repeats.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545F4914F6CDD1D) % n
        }
    }

    fn scope(width: usize) -> Scope {
        let col = |i| ScopeCol { qualifier: None, name: format!("c{i}"), ty: DataType::Unknown };
        Scope::new((0..width).map(col).collect())
    }

    /// `rows` cut into batches of random sizes (one empty batch among
    /// them now and then).
    fn cut(rows: &[Row], width: usize, rng: &mut Rng) -> Vec<Batch> {
        let keep: Vec<usize> = (0..width).collect();
        let mut out = Vec::new();
        let mut rest = rows;
        while !rest.is_empty() {
            let n = (rng.below(7) as usize).min(rest.len());
            out.push(Batch::from_rows(&rest[..n], Some(&keep)));
            rest = &rest[n..];
        }
        out
    }

    /// The inner join of `left` and `right` on the column pairs `on`,
    /// with the table over the left or over the right input.
    fn joined(
        left: &[Batch],
        right: &[Batch],
        widths: (usize, usize),
        on: &[(usize, usize)],
        build_is_left: bool,
    ) -> Vec<Row> {
        let (db, ctes) = (Database::new(), Ctes::new());
        let ctx = EvalCtx { db: &db, ctes: &ctes };
        let (ls, rs) = (scope(widths.0), scope(widths.1));
        let over = |scope| VecEvalCtx { ctx: &ctx, scope, outer: None };
        let lkeys: Vec<VecExpr> = on.iter().map(|k| VecExpr::Col(k.0)).collect();
        let rkeys: Vec<VecExpr> = on.iter().map(|k| VecExpr::Col(k.1)).collect();
        let out = if build_is_left {
            let build = JoinBuild::new(&over(&ls), left, &lkeys).unwrap();
            hash_join(&over(&rs), &build, right, &rkeys, JoinKind::Inner, true)
        } else {
            let build = JoinBuild::new(&over(&rs), right, &rkeys).unwrap();
            hash_join(&over(&ls), &build, left, &lkeys, JoinKind::Inner, false)
        };
        batches_to_rows(&out.unwrap())
    }

    /// Left rows in order, each with its matches in right-row order.
    fn nested_loops(left: &[Row], right: &[Row], on: &[(usize, usize)]) -> Vec<Row> {
        let mut out = Vec::new();
        for l in left {
            for r in right {
                let equal = |&(lc, rc): &(usize, usize)| {
                    !l[lc].is_null() && l[lc].group_key() == r[rc].group_key()
                };
                if on.iter().all(equal) {
                    out.push(l.iter().chain(r).cloned().collect());
                }
            }
        }
        out
    }

    /// Whichever input the table is built over, the join emits one row
    /// sequence: the interpreter's.
    #[test]
    fn either_build_side_emits_the_same_row_sequence() {
        let mut rng = Rng(0x5EED_CAFE);
        // A key: NULL one time in six, otherwise one of five values, as
        // the kind of the case renders it.
        let key = |rng: &mut Rng, render: fn(u64) -> Value| match rng.below(6) {
            0 => Value::Null,
            k => render(k),
        };
        let int = |k| Value::Int(k as i64);
        let float = |k| Value::Float(k as f64);
        let halves = |k| Value::Float(k as f64 + 0.5 * (k % 2) as f64);
        let text = |k| Value::text(format!("k{k}"));
        let stamp = |k| Value::Timestamp(k as i64);
        let span = |k| Value::Interval(k as i64);
        // Above 2^53: the odd ones are held by no f64.
        let big = |k| Value::Int((1 << 53) + k as i64);
        let big_float = |k| Value::Float(((1u64 << 53) + k) as f64);
        type Render = fn(u64) -> Value;
        // (left key renders, right key renders): one- and two-column
        // keys, Int against Int, Float and Text, a column of both kinds,
        // timestamps and intervals against their own kind and others.
        let cases: [(&[Render], &[Render]); 14] = [
            (&[int], &[int]),
            (&[int], &[float]),
            (&[int], &[halves]),
            (&[float], &[halves]),
            (&[text], &[text]),
            (&[int, text], &[int, text]),
            (&[int, int], &[float, int]),
            (&[stamp], &[stamp]),
            (&[span], &[span]),
            (&[stamp], &[span]),
            (&[span], &[int]),
            (&[big], &[big]),
            (&[big], &[big_float]),
            (&[stamp, int], &[stamp, float]),
        ];
        for (lk, rk) in cases {
            for round in 0..40 {
                // Every few rounds one side is empty.
                let sizes = match round % 8 {
                    0 => (0, 9),
                    1 => (9, 0),
                    _ => (rng.below(30) as usize, rng.below(30) as usize),
                };
                let side = |rng: &mut Rng, n: usize, renders: &[Render], tag: i64| -> Vec<Row> {
                    (0..n as i64)
                        .map(|i| {
                            let mut row: Row = renders.iter().map(|r| key(rng, *r)).collect();
                            row.push(Value::Int(tag + i));
                            row
                        })
                        .collect()
                };
                let (left, right) =
                    (side(&mut rng, sizes.0, lk, 0), side(&mut rng, sizes.1, rk, 1000));
                let on: Vec<(usize, usize)> = (0..lk.len()).map(|c| (c, c)).collect();
                let widths = (lk.len() + 1, rk.len() + 1);
                let (lb, rb) = (cut(&left, widths.0, &mut rng), cut(&right, widths.1, &mut rng));
                let want = format!("{:?}", nested_loops(&left, &right, &on));
                for build_is_left in [false, true] {
                    let got = joined(&lb, &rb, widths, &on, build_is_left);
                    assert_eq!(format!("{got:?}"), want, "build_is_left={build_is_left}");
                }
            }
        }
    }

    /// A probe column that is not numeric against a numeric table — a
    /// recursion's working table may change representation between steps
    /// — matches what the generic table would.
    #[test]
    fn a_numeric_table_takes_any_probe_column() {
        let right: Vec<Row> = (0..4).map(|i| vec![Value::Int(i), Value::Int(100 + i)]).collect();
        let left = vec![
            vec![Value::text("1"), Value::Int(0)],
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Float(2.0), Value::Int(2)],
            vec![Value::Null, Value::Int(3)],
        ];
        let (lb, rb) = (Batch::from_rows(&left, None), Batch::from_rows(&right, None));
        assert!(matches!(*lb.cols[0], ColumnVec::Any(_)));
        let want = format!("{:?}", nested_loops(&left, &right, &[(0, 0)]));
        let got = joined(&[lb], &[rb], (2, 2), &[(0, 0)], false);
        assert_eq!(format!("{got:?}"), want);
        assert_eq!(got.len(), 2);
    }
}
