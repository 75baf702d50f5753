//! Typed column vectors, fixed-size batches and vectorized expression
//! evaluation.
//!
//! A [`ColumnVec`] stores one column of a batch in a typed vector with a
//! validity [`Bitmap`]; heterogeneous columns degrade to `Any` (boxed
//! [`Value`]s). A [`Batch`] is a set of columns of equal length, at most
//! [`BATCH_SIZE`] rows when produced by a scan.
//!
//! [`VecExpr`] is the vectorized form of a [`BoundExpr`]: column loads,
//! constants, columns of an outer row (constants of one execution),
//! binary/unary operators, `IS NULL`, casts, and `IN` / `BETWEEN` over
//! constants evaluate a whole batch at a time (with typed fast loops for
//! the common numeric and text cases); an expression with
//! any other part — function calls, CASE, subqueries, LIKE — compiles to
//! a `Fallback` of the whole expression that re-enters the row
//! interpreter's evaluator per row, guaranteeing identical semantics:
//! mixed vector/row evaluation is never attempted. An expression is
//! compiled once, when the plan node that owns it is built
//! (`plan::build`); executing a plan compiles nothing.

use super::build::bound_has_subquery;
use crate::error::{Error, Result};
use crate::exec::eval::{BoundExpr, Env, EvalCtx, Scope};
use crate::table::Row;
use crate::types::value::{cmp_f64, time_arith, Word};
use crate::types::{BinOp, Bitmap, UnOp, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Rows per scan-produced batch.
pub const BATCH_SIZE: usize = 1024;

// ---------------------------------------------------------------------------
// Column vectors
// ---------------------------------------------------------------------------

/// One column of a batch. Typed variants carry a validity bitmap
/// (`true` = present); slots that are invalid hold an arbitrary
/// placeholder and read back as SQL NULL.
#[derive(Debug, Clone)]
pub enum ColumnVec {
    Int(Vec<i64>, Bitmap),
    Float(Vec<f64>, Bitmap),
    Bool(Vec<bool>, Bitmap),
    Text(Vec<Arc<str>>, Bitmap),
    /// Timestamps: microseconds since the Unix epoch.
    Ts(Vec<i64>, Bitmap),
    /// Intervals: microseconds.
    Iv(Vec<i64>, Bitmap),
    /// Mixed or non-primitive values (bit strings, custom solver values)
    /// stay boxed.
    Any(Vec<Value>),
}

/// `$typed` over the data `$v` and validity `$b` of a typed column, its
/// `(data, validity)` result in the column's own variant; `$any` over the
/// values `$a` of an `Any` one.
macro_rules! retyped {
    ($col:expr, |$v:ident, $b:ident| $typed:expr, |$a:ident| $any:expr) => {
        match $col {
            ColumnVec::Int($v, $b) => {
                let (data, valid) = $typed;
                ColumnVec::Int(data, valid)
            }
            ColumnVec::Float($v, $b) => {
                let (data, valid) = $typed;
                ColumnVec::Float(data, valid)
            }
            ColumnVec::Bool($v, $b) => {
                let (data, valid) = $typed;
                ColumnVec::Bool(data, valid)
            }
            ColumnVec::Text($v, $b) => {
                let (data, valid) = $typed;
                ColumnVec::Text(data, valid)
            }
            ColumnVec::Ts($v, $b) => {
                let (data, valid) = $typed;
                ColumnVec::Ts(data, valid)
            }
            ColumnVec::Iv($v, $b) => {
                let (data, valid) = $typed;
                ColumnVec::Iv(data, valid)
            }
            ColumnVec::Any($a) => $any,
        }
    };
}

impl ColumnVec {
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v, _) | ColumnVec::Ts(v, _) | ColumnVec::Iv(v, _) => v.len(),
            ColumnVec::Float(v, _) => v.len(),
            ColumnVec::Bool(v, _) => v.len(),
            ColumnVec::Text(v, _) => v.len(),
            ColumnVec::Any(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity of a typed column; `None` for `Any`.
    fn validity(&self) -> Option<&Bitmap> {
        match self {
            ColumnVec::Int(_, b)
            | ColumnVec::Float(_, b)
            | ColumnVec::Bool(_, b)
            | ColumnVec::Text(_, b)
            | ColumnVec::Ts(_, b)
            | ColumnVec::Iv(_, b) => Some(b),
            ColumnVec::Any(_) => None,
        }
    }

    /// Is the slot at `i` non-NULL?
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            ColumnVec::Any(v) => !v[i].is_null(),
            typed => typed.validity().is_some_and(|b| b.get(i)),
        }
    }

    /// Read one slot back as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            ColumnVec::Int(v, _) => Value::Int(v[i]),
            ColumnVec::Float(v, _) => Value::Float(v[i]),
            ColumnVec::Bool(v, _) => Value::Bool(v[i]),
            ColumnVec::Text(v, _) => Value::Text(v[i].clone()),
            ColumnVec::Ts(v, _) => Value::Timestamp(v[i]),
            ColumnVec::Iv(v, _) => Value::Interval(v[i]),
            ColumnVec::Any(v) => v[i].clone(),
        }
    }

    /// The kind, values and validity of a column that holds one `i64`
    /// per slot.
    pub(crate) fn words(&self) -> Option<(Word, &[i64], &Bitmap)> {
        match self {
            ColumnVec::Int(v, b) => Some((Word::Int, v, b)),
            ColumnVec::Ts(v, b) => Some((Word::Ts, v, b)),
            ColumnVec::Iv(v, b) => Some((Word::Iv, v, b)),
            _ => None,
        }
    }

    /// The column of `kind` over `data` and `valid`.
    pub(crate) fn of_words(kind: Word, data: Vec<i64>, valid: Bitmap) -> ColumnVec {
        match kind {
            Word::Int => ColumnVec::Int(data, valid),
            Word::Ts => ColumnVec::Ts(data, valid),
            Word::Iv => ColumnVec::Iv(data, valid),
        }
    }

    /// [`Value::cmp_total`] of the slots at `i` and `j`, neither NULL,
    /// without making values of them.
    pub(crate) fn cmp_slots(&self, i: usize, j: usize) -> Ordering {
        match self {
            ColumnVec::Int(v, _) | ColumnVec::Ts(v, _) | ColumnVec::Iv(v, _) => v[i].cmp(&v[j]),
            ColumnVec::Float(v, _) => cmp_f64(v[i], v[j]),
            ColumnVec::Bool(v, _) => v[i].cmp(&v[j]),
            ColumnVec::Text(v, _) => v[i].as_ref().cmp(v[j].as_ref()),
            ColumnVec::Any(v) => v[i].cmp_total(&v[j]),
        }
    }

    /// Build a column from owned values, choosing the typed
    /// representation of their kind when every non-NULL value is of one.
    pub fn from_values(values: Vec<Value>) -> ColumnVec {
        ColumnVec::typed(values.iter(), values.len()).unwrap_or(ColumnVec::Any(values))
    }

    /// Pivot column `c` out of row-major storage: [`Self::from_values`]
    /// of its values, read where they lie.
    pub fn pivot(rows: &[Row], c: usize) -> ColumnVec {
        let column = rows.iter().map(|r| &r[c]);
        ColumnVec::typed(column.clone(), rows.len())
            .unwrap_or_else(|| ColumnVec::Any(column.cloned().collect()))
    }

    /// The `n` values as a column of their kind, `None` when they are
    /// not all NULL or of one typed kind. All-NULL columns stay `Any` so
    /// they read back as NULL without inventing a type.
    fn typed<'v>(values: impl Iterator<Item = &'v Value> + Clone, n: usize) -> Option<ColumnVec> {
        /// The values as a `$variant` column, `$fill` under each NULL.
        macro_rules! typed {
            ($variant:ident, $value:ident, $fill:expr) => {{
                let mut data = Vec::with_capacity(n);
                let mut valid = Bitmap::with_capacity(n);
                for v in values {
                    match v {
                        Value::$value(x) => data.push(x.clone()),
                        Value::Null => data.push($fill),
                        _ => return None,
                    }
                    valid.push(!v.is_null());
                }
                Some(ColumnVec::$variant(data, valid))
            }};
        }
        match values.clone().find(|v| !v.is_null())? {
            Value::Int(_) => typed!(Int, Int, 0),
            Value::Float(_) => typed!(Float, Float, 0.0),
            Value::Bool(_) => typed!(Bool, Bool, false),
            Value::Text(_) => {
                let empty: Arc<str> = Arc::from("");
                typed!(Text, Text, empty.clone())
            }
            Value::Timestamp(_) => typed!(Ts, Timestamp, 0),
            Value::Interval(_) => typed!(Iv, Interval, 0),
            _ => None,
        }
    }

    /// Broadcast one value to a column of length `n`.
    pub fn broadcast(v: &Value, n: usize) -> ColumnVec {
        let all = || Bitmap::filled(n, true);
        match v {
            Value::Int(i) => ColumnVec::Int(vec![*i; n], all()),
            Value::Float(f) => ColumnVec::Float(vec![*f; n], all()),
            Value::Bool(b) => ColumnVec::Bool(vec![*b; n], all()),
            Value::Text(s) => ColumnVec::Text(vec![s.clone(); n], all()),
            Value::Timestamp(t) => ColumnVec::Ts(vec![*t; n], all()),
            Value::Interval(i) => ColumnVec::Iv(vec![*i; n], all()),
            other => ColumnVec::Any(vec![other.clone(); n]),
        }
    }

    /// The columns of `parts` end to end. Parts of one typed
    /// representation are appended slice by slice; a mix (a typed part
    /// beside an all-NULL `Any` one) chooses its representation over the
    /// values again.
    pub fn concat(parts: &[&ColumnVec]) -> ColumnVec {
        macro_rules! typed {
            ($variant:ident) => {{
                let n = parts.iter().map(|p| p.len()).sum();
                let mut data = Vec::with_capacity(n);
                let mut valid = Bitmap::with_capacity(n);
                for p in parts {
                    if let ColumnVec::$variant(v, b) = p {
                        data.extend_from_slice(v);
                        valid.extend(b);
                    }
                }
                ColumnVec::$variant(data, valid)
            }};
        }
        let same = |is: fn(&ColumnVec) -> bool| parts.iter().all(|p| is(p));
        if same(|p| matches!(p, ColumnVec::Int(..))) {
            typed!(Int)
        } else if same(|p| matches!(p, ColumnVec::Float(..))) {
            typed!(Float)
        } else if same(|p| matches!(p, ColumnVec::Bool(..))) {
            typed!(Bool)
        } else if same(|p| matches!(p, ColumnVec::Text(..))) {
            typed!(Text)
        } else if same(|p| matches!(p, ColumnVec::Ts(..))) {
            typed!(Ts)
        } else if same(|p| matches!(p, ColumnVec::Iv(..))) {
            typed!(Iv)
        } else {
            ColumnVec::from_values(
                parts.iter().flat_map(|p| (0..p.len()).map(|i| p.get(i))).collect(),
            )
        }
    }

    /// Select the slots at `idx` (in order) into a new column.
    pub fn gather(&self, idx: &[usize]) -> ColumnVec {
        fn pick<T: Clone>(v: &[T], b: &Bitmap, idx: &[usize]) -> (Vec<T>, Bitmap) {
            let mut valid = Bitmap::with_capacity(idx.len());
            let data = idx
                .iter()
                .map(|&i| {
                    valid.push(b.get(i));
                    v[i].clone()
                })
                .collect();
            (data, valid)
        }
        retyped!(self, |v, b| pick(v, b, idx), |v| ColumnVec::Any(
            idx.iter().map(|&i| v[i].clone()).collect()
        ))
    }

    /// Gather with optional indices: `None` produces NULL (outer-join
    /// padding). Padding introduces NULLs whatever the source type, so a
    /// typed column keeps its representation with invalid slots.
    pub fn gather_opt(&self, idx: &[Option<usize>]) -> ColumnVec {
        fn pick<T: Clone + Default>(
            v: &[T],
            b: &Bitmap,
            idx: &[Option<usize>],
        ) -> (Vec<T>, Bitmap) {
            let mut valid = Bitmap::with_capacity(idx.len());
            let data = idx
                .iter()
                .map(|i| match *i {
                    Some(i) => {
                        valid.push(b.get(i));
                        v[i].clone()
                    }
                    None => {
                        valid.push(false);
                        T::default()
                    }
                })
                .collect();
            (data, valid)
        }
        retyped!(self, |v, b| pick(v, b, idx), |v| ColumnVec::Any(
            idx.iter().map(|i| i.map_or(Value::Null, |i| v[i].clone())).collect()
        ))
    }
}

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

/// A horizontal slice of a relation: columns of equal length.
#[derive(Debug, Clone)]
pub struct Batch {
    pub cols: Vec<Arc<ColumnVec>>,
    pub len: usize,
}

impl Batch {
    /// Build a batch from row-major storage, optionally keeping only the
    /// columns listed in `keep` (in that order).
    pub fn from_rows(rows: &[Row], keep: Option<&[usize]>) -> Batch {
        let pivot = |c: usize| Arc::new(ColumnVec::pivot(rows, c));
        let cols = match keep {
            Some(keep) => keep.iter().map(|&c| pivot(c)).collect(),
            None => (0..rows.first().map_or(0, |r| r.len())).map(pivot).collect(),
        };
        Batch { cols, len: rows.len() }
    }

    /// The columns at `cols` (in that order; all of them for `None`),
    /// shared with `self`.
    pub fn select(&self, cols: Option<&[usize]>) -> Batch {
        match cols {
            Some(cols) => {
                Batch { cols: cols.iter().map(|&c| self.cols[c].clone()).collect(), len: self.len }
            }
            None => self.clone(),
        }
    }

    /// Materialize one row.
    pub fn row_at(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// Keep only the rows at `idx`.
    pub fn gather(&self, idx: &[usize]) -> Batch {
        Batch { cols: self.cols.iter().map(|c| Arc::new(c.gather(idx))).collect(), len: idx.len() }
    }

    /// [`Self::gather`] of the ascending rows `sel`: the batch itself when
    /// that is all of them, no batch when it is none.
    pub(crate) fn keep(&self, sel: &[usize]) -> Option<Batch> {
        match sel.len() {
            0 => None,
            n if n == self.len => Some(self.clone()),
            _ => Some(self.gather(sel)),
        }
    }
}

/// Materialize a sequence of batches as rows.
pub fn batches_to_rows(batches: &[Batch]) -> Vec<Row> {
    let mut rows = Vec::new();
    push_rows(batches, &mut rows);
    rows
}

/// [`batches_to_rows`] onto the end of `rows`.
pub(crate) fn push_rows(batches: &[Batch], rows: &mut Vec<Row>) {
    rows.reserve(batches.iter().map(|b| b.len).sum());
    for b in batches {
        rows.extend((0..b.len).map(|i| b.row_at(i)));
    }
}

// ---------------------------------------------------------------------------
// Vectorized expressions
// ---------------------------------------------------------------------------

/// Context for vectorized evaluation: the interpreter's evaluation
/// context, the scope of the batch (needed when a fallback expression
/// contains a subquery that correlates to the current row) and the rows
/// of the enclosing blocks the execution runs under.
pub struct VecEvalCtx<'a> {
    pub ctx: &'a EvalCtx<'a>,
    pub scope: &'a Scope,
    pub outer: Option<&'a Env<'a>>,
}

impl<'a> VecEvalCtx<'a> {
    /// Column `index` of the row `depth` blocks out (`depth` ≥ 1).
    fn outer_value(&self, depth: usize, index: usize) -> Result<&'a Value> {
        self.outer
            .and_then(|o| o.at_depth(depth - 1).row.get(index))
            .ok_or_else(|| Error::eval("plan executed without the outer row it was built under"))
    }
}

/// One row as [`VecExpr::eval_row`] reads it: the columns of the scope
/// the expression was compiled against, wherever each of them lies.
pub(crate) trait RowRef {
    fn get(&self, col: usize) -> Value;

    /// All of the columns, for the reference evaluator.
    fn to_row(&self) -> Row;
}

/// A bound expression compiled for batch evaluation. Compiling happens
/// where the expression's plan node is built, so a compiled expression
/// is shared by every execution of its plan; cloning one shares the
/// bound expressions it keeps for row-by-row evaluation.
#[derive(Debug, Clone)]
pub enum VecExpr {
    Col(usize),
    Const(Value),
    /// A column of an enclosing block's row: one value per execution,
    /// read when the expression is evaluated and from there on a constant.
    Outer {
        depth: usize,
        index: usize,
    },
    /// Any binary operator but `AND` / `OR`.
    BinOp {
        op: BinOp,
        lhs: Box<VecExpr>,
        rhs: Box<VecExpr>,
    },
    /// `AND` / `OR` (and the conjunction a `BETWEEN` expands to). The
    /// interpreter short-circuits on a plain boolean left side, so the
    /// right side may error only on rows that never evaluate it; vector
    /// evaluation is eager, and when the right side errors `orig` — the
    /// expression this node was compiled from — is replayed row by row
    /// to reproduce the interpreter's exact behavior.
    Logic {
        op: BinOp,
        lhs: Box<VecExpr>,
        rhs: Box<VecExpr>,
        orig: Arc<BoundExpr>,
    },
    UnOp {
        op: UnOp,
        expr: Box<VecExpr>,
    },
    IsNull {
        expr: Box<VecExpr>,
        negated: bool,
    },
    Cast {
        expr: Box<VecExpr>,
        ty: crate::types::DataType,
    },
    /// `expr [NOT] IN (list)` over a list of constants: `items` are its
    /// non-NULL members (Int, Float, Bool or Text only), `has_null`
    /// whether it had a NULL one.
    InList {
        expr: Box<VecExpr>,
        items: Vec<Value>,
        has_null: bool,
        negated: bool,
        orig: Arc<BoundExpr>,
    },
    /// Row-at-a-time re-entry into the interpreter's evaluator. Only ever
    /// the root of a compiled expression: one part that cannot be
    /// vectorized sends the whole expression here.
    Fallback(Arc<BoundExpr>),
}

impl VecExpr {
    /// Compile a bound expression; one with any unsupported part becomes
    /// a `Fallback` of the whole.
    pub fn compile(b: &BoundExpr) -> VecExpr {
        VecExpr::vectorize(b).unwrap_or_else(|| VecExpr::Fallback(Arc::new(b.clone())))
    }

    /// The vector form of `b`, or `None` when some part of it has none.
    fn vectorize(b: &BoundExpr) -> Option<VecExpr> {
        let sub = |e: &BoundExpr| VecExpr::vectorize(e).map(Box::new);
        Some(match b {
            BoundExpr::Column { depth: 0, index } => VecExpr::Col(*index),
            BoundExpr::Column { depth, index } => VecExpr::Outer { depth: *depth, index: *index },
            BoundExpr::Const(v) => VecExpr::Const(v.clone()),
            BoundExpr::BinOp { op, lhs, rhs } => {
                let (op, lhs, rhs) = (*op, sub(lhs)?, sub(rhs)?);
                if matches!(op, BinOp::And | BinOp::Or) {
                    VecExpr::Logic { op, lhs, rhs, orig: Arc::new(b.clone()) }
                } else {
                    VecExpr::BinOp { op, lhs, rhs }
                }
            }
            BoundExpr::UnOp { op, expr } => VecExpr::UnOp { op: *op, expr: sub(expr)? },
            BoundExpr::IsNull { expr, negated } => {
                VecExpr::IsNull { expr: sub(expr)?, negated: *negated }
            }
            BoundExpr::Cast { expr, ty } => VecExpr::Cast { expr: sub(expr)?, ty: ty.clone() },
            BoundExpr::InList { expr, list, negated } => {
                let plain = |i: &BoundExpr| match i {
                    BoundExpr::Const(
                        v @ (Value::Null
                        | Value::Int(_)
                        | Value::Float(_)
                        | Value::Bool(_)
                        | Value::Text(_)),
                    ) => Some(v.clone()),
                    _ => None,
                };
                let mut items = list.iter().map(plain).collect::<Option<Vec<Value>>>()?;
                let listed = items.len();
                items.retain(|v| !v.is_null());
                VecExpr::InList {
                    expr: sub(expr)?,
                    has_null: items.len() < listed,
                    items,
                    negated: *negated,
                    orig: Arc::new(b.clone()),
                }
            }
            // `e BETWEEN lo AND hi` is `e >= lo AND e <= hi` to the
            // interpreter too (same operators, no short circuit); with
            // constant bounds nothing but `e` is evaluated per row.
            BoundExpr::Between { expr, low, high, negated } => {
                let e = sub(expr)?;
                let (lo, hi) = (sub(low)?, sub(high)?);
                if !(lo.is_scalar() && hi.is_scalar()) {
                    return None;
                }
                let both = VecExpr::Logic {
                    op: BinOp::And,
                    lhs: Box::new(VecExpr::BinOp { op: BinOp::Ge, lhs: e.clone(), rhs: lo }),
                    rhs: Box::new(VecExpr::BinOp { op: BinOp::Le, lhs: e, rhs: hi }),
                    orig: Arc::new(b.clone()),
                };
                if *negated {
                    VecExpr::UnOp { op: UnOp::Not, expr: Box::new(both) }
                } else {
                    both
                }
            }
            _ => return None,
        })
    }

    /// One value for the whole batch?
    fn is_scalar(&self) -> bool {
        matches!(self, VecExpr::Const(_) | VecExpr::Outer { .. })
    }

    /// The value of a scalar operand.
    fn scalar<'v>(&'v self, ev: &VecEvalCtx<'v>) -> Result<Option<&'v Value>> {
        Ok(match self {
            VecExpr::Const(v) => Some(v),
            VecExpr::Outer { depth, index } => Some(ev.outer_value(*depth, *index)?),
            _ => None,
        })
    }

    /// Does the expression evaluate a subquery (or a solve)? Those run
    /// against the CTEs of the execution, so what they read is not
    /// visible in the plan. A subquery has no vector form, so only a
    /// `Fallback` can hold one.
    pub(crate) fn has_subquery(&self) -> bool {
        matches!(self, VecExpr::Fallback(b) if bound_has_subquery(b))
    }

    /// Evaluate on one row, without a batch: the row semantics the
    /// kernels of [`Self::eval`] mirror, taken from where they are
    /// defined — [`Value::binop`], [`Value::unop`], [`Value::cast`], and
    /// the reference evaluator itself for whatever [`Self::eval`] replays
    /// or re-enters it for — so values, custom (symbolic) ones included,
    /// and error texts are the reference's.
    pub(crate) fn eval_row<R: RowRef + ?Sized>(
        &self,
        row: &R,
        ev: &VecEvalCtx<'_>,
    ) -> Result<Value> {
        match self {
            VecExpr::Col(i) => Ok(row.get(*i)),
            VecExpr::Const(v) => Ok(v.clone()),
            VecExpr::Outer { depth, index } => Ok(ev.outer_value(*depth, *index)?.clone()),
            VecExpr::BinOp { op, lhs, rhs } => {
                Value::binop(*op, &lhs.eval_row(row, ev)?, &rhs.eval_row(row, ev)?)
            }
            VecExpr::UnOp { op, expr } => Value::unop(*op, &expr.eval_row(row, ev)?),
            VecExpr::IsNull { expr, negated } => {
                Ok(Value::Bool(expr.eval_row(row, ev)?.is_null() != *negated))
            }
            VecExpr::Cast { expr, ty } => expr.eval_row(row, ev)?.cast(ty),
            VecExpr::Logic { orig, .. }
            | VecExpr::InList { orig, .. }
            | VecExpr::Fallback(orig) => {
                let env = Env { scope: ev.scope, row: &row.to_row(), parent: ev.outer };
                orig.eval(ev.ctx, &env)
            }
        }
    }

    /// Evaluate against a batch, producing one column (the batch's own,
    /// shared, where the expression is a plain column).
    pub fn eval(&self, batch: &Batch, ev: &VecEvalCtx<'_>) -> Result<Arc<ColumnVec>> {
        match self {
            VecExpr::Col(i) => Ok(batch.cols[*i].clone()),
            _ => Ok(Arc::new(self.eval_ref(batch, ev)?.into_owned())),
        }
    }

    /// [`Self::eval`] for operands: a column of the batch is borrowed and
    /// an intermediate result stays a plain value.
    fn eval_ref<'b>(&self, batch: &'b Batch, ev: &VecEvalCtx<'_>) -> Result<Cow<'b, ColumnVec>> {
        Ok(Cow::Owned(match self {
            VecExpr::Col(i) => return Ok(Cow::Borrowed(&batch.cols[*i])),
            VecExpr::Const(v) => ColumnVec::broadcast(v, batch.len),
            VecExpr::Outer { depth, index } => {
                ColumnVec::broadcast(ev.outer_value(*depth, *index)?, batch.len)
            }
            VecExpr::BinOp { op, lhs, rhs } => match (lhs.scalar(ev)?, rhs.scalar(ev)?) {
                (None, Some(c)) => binop_scalar(*op, &*lhs.eval_ref(batch, ev)?, c, false)?,
                (Some(c), None) => binop_scalar(*op, &*rhs.eval_ref(batch, ev)?, c, true)?,
                _ => binop_columns(*op, &*lhs.eval_ref(batch, ev)?, &*rhs.eval_ref(batch, ev)?)?,
            },
            VecExpr::Logic { op, lhs, rhs, orig } => {
                let l = lhs.eval_ref(batch, ev)?;
                match rhs.eval_ref(batch, ev) {
                    Ok(r) => binop_columns(*op, &l, &r)?,
                    Err(_) => eval_fallback(orig, batch, ev)?,
                }
            }
            VecExpr::UnOp { op, expr } => {
                let c = expr.eval_ref(batch, ev)?;
                if let (UnOp::Not, ColumnVec::Bool(vals, valid)) = (op, c.as_ref()) {
                    ColumnVec::Bool(vals.iter().map(|v| !v).collect(), valid.clone())
                } else {
                    let mut out = Vec::with_capacity(c.len());
                    for i in 0..c.len() {
                        out.push(Value::unop(*op, &c.get(i))?);
                    }
                    ColumnVec::from_values(out)
                }
            }
            VecExpr::IsNull { expr, negated } => {
                let c = expr.eval_ref(batch, ev)?;
                let data = (0..c.len()).map(|i| c.is_valid(i) == *negated).collect();
                ColumnVec::Bool(data, Bitmap::filled(c.len(), true))
            }
            VecExpr::Cast { expr, ty } => {
                let c = expr.eval_ref(batch, ev)?;
                let mut out = Vec::with_capacity(c.len());
                for i in 0..c.len() {
                    out.push(c.get(i).cast(ty)?);
                }
                ColumnVec::from_values(out)
            }
            VecExpr::InList { expr, items, has_null, negated, orig } => {
                let c = expr.eval_ref(batch, ev)?;
                // An `Any` operand may hold custom values, whose `=` is
                // overloaded where IN's equality is not; and a comparison
                // that fails may sit behind an earlier match.
                let typed = !matches!(*c, ColumnVec::Any(_));
                match typed.then(|| in_list(&c, items, *has_null, *negated)) {
                    Some(Ok(col)) => col,
                    _ => eval_fallback(orig, batch, ev)?,
                }
            }
            VecExpr::Fallback(b) => eval_fallback(b, batch, ev)?,
        }))
    }
}

/// Row-at-a-time evaluation of a bound expression over a batch.
fn eval_fallback(b: &BoundExpr, batch: &Batch, ev: &VecEvalCtx<'_>) -> Result<ColumnVec> {
    let mut out = Vec::with_capacity(batch.len);
    for i in 0..batch.len {
        let row = batch.row_at(i);
        let env = Env { scope: ev.scope, row: &row, parent: ev.outer };
        out.push(b.eval(ev.ctx, &env)?);
    }
    Ok(ColumnVec::from_values(out))
}

// ---------------------------------------------------------------------------
// Vectorized binary operators
// ---------------------------------------------------------------------------

fn ord_matches(op: BinOp, o: Ordering) -> bool {
    match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::Ne => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::Le => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::Ge => o != Ordering::Less,
        _ => false,
    }
}

/// Apply a binary operator over two columns with typed fast loops for
/// the common cases; everything else routes each element through
/// [`Value::binop`] (identical semantics to the row interpreter).
fn binop_columns(op: BinOp, l: &ColumnVec, r: &ColumnVec) -> Result<ColumnVec> {
    use ColumnVec::*;
    let n = l.len();
    debug_assert_eq!(n, r.len());

    // Comparisons on columns of one kind (or of two numeric kinds).
    if op.is_comparison() {
        /// Per row of two columns with validities `av` and `bv`, whether
        /// the ordering `cmp` gives the row satisfies `op`.
        fn pairs(
            op: BinOp,
            av: &Bitmap,
            bv: &Bitmap,
            n: usize,
            cmp: impl Fn(usize) -> Ordering,
        ) -> ColumnVec {
            let mut valid = Bitmap::with_capacity(n);
            let data = (0..n)
                .map(|i| {
                    let ok = av.get(i) && bv.get(i);
                    valid.push(ok);
                    ok && ord_matches(op, cmp(i))
                })
                .collect();
            Bool(data, valid)
        }
        match (l, r) {
            (Int(a, av), Int(b, bv)) | (Ts(a, av), Ts(b, bv)) | (Iv(a, av), Iv(b, bv)) => {
                return Ok(pairs(op, av, bv, n, |i| a[i].cmp(&b[i])));
            }
            (Float(a, av), Float(b, bv)) => {
                return Ok(pairs(op, av, bv, n, |i| cmp_f64(a[i], b[i])));
            }
            (Int(a, av), Float(b, bv)) => {
                return Ok(pairs(op, av, bv, n, |i| cmp_f64(a[i] as f64, b[i])));
            }
            (Float(a, av), Int(b, bv)) => {
                return Ok(pairs(op, av, bv, n, |i| cmp_f64(a[i], b[i] as f64)));
            }
            (Text(a, av), Text(b, bv)) => {
                return Ok(pairs(op, av, bv, n, |i| a[i].as_ref().cmp(b[i].as_ref())));
            }
            _ => {}
        }
    }

    // Kleene AND/OR on boolean columns.
    if matches!(op, BinOp::And | BinOp::Or) {
        if let (Bool(a, av), Bool(b, bv)) = (l, r) {
            // No NULL on either side: two-valued logic, validity as is.
            if av.all_set() && bv.all_set() {
                let pairs = a.iter().zip(b);
                let data = if op == BinOp::And {
                    pairs.map(|(x, y)| *x & *y).collect()
                } else {
                    pairs.map(|(x, y)| *x | *y).collect()
                };
                return Ok(Bool(data, av.clone()));
            }
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::with_capacity(n);
            for i in 0..n {
                let x = if av.get(i) { Some(a[i]) } else { None };
                let y = if bv.get(i) { Some(b[i]) } else { None };
                let out = match (op, x, y) {
                    (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Some(false),
                    (BinOp::And, Some(true), Some(true)) => Some(true),
                    (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Some(true),
                    (BinOp::Or, Some(false), Some(false)) => Some(false),
                    _ => None,
                };
                data.push(out.unwrap_or(false));
                valid.push(out.is_some());
            }
            return Ok(Bool(data, valid));
        }
        // Non-boolean operand: route through Value::binop to reproduce
        // the interpreter's error.
        return binop_generic(op, l, r);
    }

    // Integer, timestamp and interval arithmetic with overflow checks
    // (mirrors Value::binop).
    if let (Some((lk, a, av)), Some((rk, b, bv))) = (l.words(), r.words()) {
        let int: Option<fn(i64, i64) -> Option<i64>> = match (lk, rk, op) {
            (Word::Int, Word::Int, BinOp::Add) => Some(i64::checked_add),
            (Word::Int, Word::Int, BinOp::Sub) => Some(i64::checked_sub),
            (Word::Int, Word::Int, BinOp::Mul) => Some(i64::checked_mul),
            (Word::Int, Word::Int, BinOp::Div) => Some(i64::checked_div),
            (Word::Int, Word::Int, BinOp::Mod) => Some(i64::checked_rem),
            _ => None,
        };
        if let Some((f, kind)) = int.map(|f| (f, Word::Int)).or_else(|| time_arith(op, lk, rk)) {
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::with_capacity(n);
            for i in 0..n {
                let ok = av.get(i) && bv.get(i);
                // `None` is an overflow, or — from the two dividing forms
                // only — a zero divisor.
                data.push(if ok {
                    f(a[i], b[i]).ok_or_else(|| {
                        let by_zero = matches!(op, BinOp::Div | BinOp::Mod) && b[i] == 0;
                        Error::eval(if by_zero { "division by zero" } else { kind.overflow() })
                    })?
                } else {
                    0
                });
                valid.push(ok);
            }
            return Ok(ColumnVec::of_words(kind, data, valid));
        }
    }

    // Float (or mixed int/float) arithmetic.
    let float_at = |c: &ColumnVec, i: usize| -> Option<f64> {
        match c {
            Int(v, b) => b.get(i).then(|| v[i] as f64),
            Float(v, b) => b.get(i).then(|| v[i]),
            _ => None,
        }
    };
    if matches!((l, r), (Int(..) | Float(..), Int(..) | Float(..)))
        && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::Pow)
    {
        let mut data = Vec::with_capacity(n);
        let mut valid = Bitmap::with_capacity(n);
        for i in 0..n {
            match (float_at(l, i), float_at(r, i)) {
                (Some(x), Some(y)) => {
                    let v = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div | BinOp::Mod => {
                            if y == 0.0 {
                                return Err(Error::eval("division by zero"));
                            }
                            if op == BinOp::Div {
                                x / y
                            } else {
                                x % y
                            }
                        }
                        _ => x.powf(y),
                    };
                    data.push(v);
                    valid.push(true);
                }
                _ => {
                    data.push(0.0);
                    valid.push(false);
                }
            }
        }
        return Ok(Float(data, valid));
    }

    // Text concatenation.
    if op == BinOp::Concat {
        if let (Text(a, av), Text(b, bv)) = (l, r) {
            let empty: Arc<str> = Arc::from("");
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::with_capacity(n);
            for i in 0..n {
                if av.get(i) && bv.get(i) {
                    let mut s = String::with_capacity(a[i].len() + b[i].len());
                    s.push_str(&a[i]);
                    s.push_str(&b[i]);
                    data.push(Arc::from(s.as_str()));
                    valid.push(true);
                } else {
                    data.push(empty.clone());
                    valid.push(false);
                }
            }
            return Ok(Text(data, valid));
        }
    }

    binop_generic(op, l, r)
}

/// `col op c` — `c op col` when `const_left` — for a constant `c`: what
/// [`binop_columns`] makes of `col` and `c` broadcast to its length,
/// errors included, without the broadcast. The typed kernels take the
/// constant as a scalar, choose the operator outside the loop and hand
/// on the column's validity a word at a time (a slot that is NULL holds
/// whatever the loop computed from its placeholder); an `Any` column's
/// values go through [`Value::binop`] where they lie.
fn binop_scalar(op: BinOp, col: &ColumnVec, c: &Value, const_left: bool) -> Result<ColumnVec> {
    use ColumnVec::*;
    if op.is_comparison() {
        // `c < x` is `x > c`: the constant moves to the right.
        let op = match op {
            BinOp::Lt if const_left => BinOp::Gt,
            BinOp::Le if const_left => BinOp::Ge,
            BinOp::Gt if const_left => BinOp::Lt,
            BinOp::Ge if const_left => BinOp::Le,
            same => same,
        };
        let data = match (col, c) {
            (Int(a, _), Value::Int(c))
            | (Ts(a, _), Value::Timestamp(c))
            | (Iv(a, _), Value::Interval(c)) => Some(compare(op, a, |x| x.cmp(c))),
            (Int(a, _), Value::Float(c)) => Some(compare(op, a, |x| cmp_f64(*x as f64, *c))),
            (Float(a, _), Value::Int(c)) => Some(compare(op, a, |x| cmp_f64(*x, *c as f64))),
            (Float(a, _), Value::Float(c)) => Some(compare(op, a, |x| cmp_f64(*x, *c))),
            (Text(a, _), Value::Text(c)) => Some(compare(op, a, |x| x.as_ref().cmp(c.as_ref()))),
            _ => None,
        };
        if let (Some(data), Some(valid)) = (data, col.validity()) {
            return Ok(Bool(data, valid.clone()));
        }
    }
    if let (Some((ck, a, valid)), Some((k, c))) = (col.words(), c.word()) {
        let kinds = if const_left { (k, ck) } else { (ck, k) };
        if let Some((f, kind)) = time_arith(op, kinds.0, kinds.1) {
            return int_map(kind, a, valid, |x| {
                // In the order the operator takes them.
                let (l, r) = if const_left { (c, x) } else { (x, c) };
                f(l, r).ok_or(kind.overflow())
            });
        }
    }
    let arithmetic =
        matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::Pow);
    match (col, c) {
        (Int(a, valid), Value::Int(c)) if arithmetic && op != BinOp::Pow => {
            let c = *c;
            // In the order the operator takes them.
            let args = |x: i64| if const_left { (c, x) } else { (x, c) };
            let checked = |v: Option<i64>| v.ok_or("integer overflow");
            let divided = |v: Option<i64>, by: i64| match v {
                None if by == 0 => Err("division by zero"),
                v => checked(v),
            };
            return match op {
                BinOp::Add => int_map(Word::Int, a, valid, |x| checked(x.checked_add(c))),
                BinOp::Mul => int_map(Word::Int, a, valid, |x| checked(x.checked_mul(c))),
                BinOp::Sub => int_map(Word::Int, a, valid, |x| {
                    let (l, r) = args(x);
                    checked(l.checked_sub(r))
                }),
                BinOp::Div => int_map(Word::Int, a, valid, |x| {
                    let (l, r) = args(x);
                    divided(l.checked_div(r), r)
                }),
                _ => int_map(Word::Int, a, valid, |x| {
                    let (l, r) = args(x);
                    divided(l.checked_rem(r), r)
                }),
            };
        }
        (Int(a, valid), Value::Int(_) | Value::Float(_)) if arithmetic => {
            return float_map(op, a, valid, |x| x as f64, c.as_f64()?, const_left);
        }
        (Float(a, valid), Value::Int(_) | Value::Float(_)) if arithmetic => {
            return float_map(op, a, valid, |x| x, c.as_f64()?, const_left);
        }
        (Any(vals), _) => {
            let mut out = Vec::with_capacity(vals.len());
            for v in vals {
                out.push(if const_left {
                    Value::binop(op, c, v)?
                } else {
                    Value::binop(op, v, c)?
                });
            }
            return Ok(ColumnVec::from_values(out));
        }
        _ => {}
    }
    let broadcast = ColumnVec::broadcast(c, col.len());
    if const_left {
        binop_columns(op, &broadcast, col)
    } else {
        binop_columns(op, col, &broadcast)
    }
}

/// Per value, whether its ordering against the constant satisfies the
/// comparison `op`.
fn compare<T>(op: BinOp, vals: &[T], cmp: impl Fn(&T) -> Ordering) -> Vec<bool> {
    match op {
        BinOp::Eq => vals.iter().map(|x| cmp(x) == Ordering::Equal).collect(),
        BinOp::Ne => vals.iter().map(|x| cmp(x) != Ordering::Equal).collect(),
        BinOp::Lt => vals.iter().map(|x| cmp(x) == Ordering::Less).collect(),
        BinOp::Le => vals.iter().map(|x| cmp(x) != Ordering::Greater).collect(),
        BinOp::Gt => vals.iter().map(|x| cmp(x) == Ordering::Greater).collect(),
        _ => vals.iter().map(|x| cmp(x) != Ordering::Less).collect(),
    }
}

/// A column of `i64`s through `f`, to a column of `kind`; a failure
/// counts only where the slot is not NULL.
fn int_map(
    kind: Word,
    vals: &[i64],
    valid: &Bitmap,
    f: impl Fn(i64) -> std::result::Result<i64, &'static str>,
) -> Result<ColumnVec> {
    let mut data = Vec::with_capacity(vals.len());
    for (i, &x) in vals.iter().enumerate() {
        match f(x) {
            Ok(v) => data.push(v),
            Err(why) if valid.get(i) => return Err(Error::eval(why)),
            Err(_) => data.push(0),
        }
    }
    Ok(ColumnVec::of_words(kind, data, valid.clone()))
}

/// Float arithmetic of a numeric column (`to` reads a value as `f64`)
/// with the constant `c`, in the operand order `const_left` gives.
fn float_map<T: Copy>(
    op: BinOp,
    vals: &[T],
    valid: &Bitmap,
    to: impl Fn(T) -> f64,
    c: f64,
    const_left: bool,
) -> Result<ColumnVec> {
    let args = |x: T| if const_left { (c, to(x)) } else { (to(x), c) };
    let data = match op {
        BinOp::Add => float_loop(vals, args, |l, r| l + r),
        BinOp::Sub => float_loop(vals, args, |l, r| l - r),
        BinOp::Mul => float_loop(vals, args, |l, r| l * r),
        BinOp::Pow => float_loop(vals, args, f64::powf),
        _ => {
            let by_zero = |(i, &x): (usize, &T)| args(x).1 == 0.0 && valid.get(i);
            if vals.iter().enumerate().any(by_zero) {
                return Err(Error::eval("division by zero"));
            }
            if op == BinOp::Div {
                float_loop(vals, args, |l, r| l / r)
            } else {
                float_loop(vals, args, |l, r| l % r)
            }
        }
    };
    Ok(ColumnVec::Float(data, valid.clone()))
}

fn float_loop<T: Copy>(
    vals: &[T],
    args: impl Fn(T) -> (f64, f64),
    f: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    vals.iter().map(|&x| args(x)).map(|(l, r)| f(l, r)).collect()
}

/// `c [NOT] IN (items [, NULL])` for a typed column and non-NULL items:
/// the Kleene OR of `c = item`, which is NULL only where `c` is, or where
/// nothing matched and the list had a NULL.
fn in_list(c: &ColumnVec, items: &[Value], has_null: bool, negated: bool) -> Result<ColumnVec> {
    let n = c.len();
    let mut hit = vec![false; n];
    for item in items {
        match binop_scalar(BinOp::Eq, c, item, false)? {
            ColumnVec::Bool(eq, _) => hit.iter_mut().zip(&eq).for_each(|(h, e)| *h |= *e),
            other => (0..n).for_each(|i| hit[i] |= matches!(other.get(i), Value::Bool(true))),
        }
    }
    let mut data = Vec::with_capacity(n);
    let mut valid = Bitmap::with_capacity(n);
    for (i, hit) in hit.into_iter().enumerate() {
        let known = c.is_valid(i) && (hit || !has_null);
        data.push(known && hit != negated);
        valid.push(known);
    }
    Ok(ColumnVec::Bool(data, valid))
}

/// Element-by-element application of [`Value::binop`].
fn binop_generic(op: BinOp, l: &ColumnVec, r: &ColumnVec) -> Result<ColumnVec> {
    let n = l.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(Value::binop(op, &l.get(i), &r.get(i))?);
    }
    Ok(ColumnVec::from_values(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RowRef for [Value] {
        fn get(&self, col: usize) -> Value {
            self[col].clone()
        }

        fn to_row(&self) -> Row {
            self.to_vec()
        }
    }

    fn ints(vals: &[Option<i64>]) -> ColumnVec {
        ColumnVec::from_values(
            vals.iter().map(|v| v.map(Value::Int).unwrap_or(Value::Null)).collect(),
        )
    }

    #[test]
    fn from_values_picks_typed_representation() {
        let c = ints(&[Some(1), None, Some(3)]);
        assert!(matches!(c, ColumnVec::Int(..)));
        assert_eq!(c.get(0), Value::Int(1));
        assert!(c.get(1).is_null());
        let mixed = ColumnVec::from_values(vec![Value::Int(1), Value::text("x")]);
        assert!(matches!(mixed, ColumnVec::Any(_)));
        let stamps = ColumnVec::from_values(vec![Value::Null, Value::Timestamp(-1)]);
        assert!(matches!(stamps, ColumnVec::Ts(..)));
        assert_eq!((stamps.get(0), stamps.get(1)), (Value::Null, Value::Timestamp(-1)));
        let spans = ColumnVec::from_values(vec![Value::Interval(3)]);
        assert!(matches!(spans, ColumnVec::Iv(..)));
        // Timestamps beside intervals are two kinds.
        let both = ColumnVec::from_values(vec![Value::Timestamp(3), Value::Interval(3)]);
        assert!(matches!(both, ColumnVec::Any(_)));
    }

    #[test]
    fn typed_comparison_propagates_nulls() {
        let a = ints(&[Some(1), None, Some(3)]);
        let b = ints(&[Some(2), Some(2), Some(2)]);
        let c = binop_columns(BinOp::Gt, &a, &b).unwrap();
        assert_eq!(c.get(0), Value::Bool(false));
        assert!(c.get(1).is_null());
        assert_eq!(c.get(2), Value::Bool(true));
    }

    #[test]
    fn int_arithmetic_checks_overflow() {
        let a = ints(&[Some(i64::MAX)]);
        let b = ints(&[Some(1)]);
        assert!(binop_columns(BinOp::Add, &a, &b).is_err());
        let ok = binop_columns(BinOp::Add, &ints(&[Some(2)]), &ints(&[Some(3)])).unwrap();
        assert_eq!(ok.get(0), Value::Int(5));
    }

    #[test]
    fn kleene_and_matches_interpreter() {
        let t = ColumnVec::from_values(vec![Value::Bool(true), Value::Bool(false), Value::Null]);
        let u = ColumnVec::from_values(vec![Value::Null, Value::Null, Value::Null]);
        let c = binop_columns(BinOp::And, &t, &u).unwrap();
        assert!(c.get(0).is_null());
        assert_eq!(c.get(1), Value::Bool(false));
        assert!(c.get(2).is_null());
    }

    /// A column against a constant without the broadcast: the values,
    /// NULLs and errors `binop_columns` gives for the broadcast constant,
    /// with the constant on either side.
    #[test]
    fn scalar_kernels_equal_the_broadcast_form() {
        let nan = f64::NAN;
        let (stamp, span) = (Value::Timestamp, Value::Interval);
        let columns = [
            ints(&[Some(1), None, Some(-3), Some(0), Some(i64::MAX), Some(7)]),
            ColumnVec::from_values(
                [Some(1.5), None, Some(nan), Some(0.0), Some(-2.0), Some(1e300)]
                    .map(|v| v.map(Value::Float).unwrap_or(Value::Null))
                    .to_vec(),
            ),
            ColumnVec::from_values(vec![Value::text("a"), Value::Null, Value::text("b")]),
            ColumnVec::from_values(vec![Value::Bool(true), Value::Null, Value::Bool(false)]),
            ColumnVec::from_values(vec![stamp(5), Value::Null, stamp(9), stamp(i64::MAX)]),
            ColumnVec::from_values(vec![span(7), Value::Null, span(i64::MIN), span(-2)]),
            ColumnVec::from_values(vec![Value::Int(1), Value::text("x"), Value::Null]),
            ColumnVec::from_values(vec![Value::Null, Value::Null]),
            ints(&[]),
        ];
        let constants = [
            Value::Int(2),
            Value::Int(0),
            Value::Int(-1),
            Value::Float(2.5),
            Value::Float(0.0),
            Value::Float(nan),
            Value::text("a"),
            Value::Bool(true),
            stamp(5),
            stamp(i64::MIN),
            span(7),
            span(i64::MAX),
            span(-1),
            Value::Null,
        ];
        use BinOp::*;
        let ops = [Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Mul, Div, Mod, Pow, Concat, And, Or];
        let render = |r: Result<ColumnVec>| match r {
            Ok(c) => format!("{:?}", (0..c.len()).map(|i| c.get(i)).collect::<Vec<_>>()),
            Err(e) => format!("error: {e}"),
        };
        for col in &columns {
            for c in &constants {
                let broadcast = ColumnVec::broadcast(c, col.len());
                for op in ops {
                    let what = format!("{col:?} {op:?} {c:?}");
                    assert_eq!(
                        render(binop_scalar(op, col, c, false)),
                        render(binop_columns(op, col, &broadcast)),
                        "{what}"
                    );
                    assert_eq!(
                        render(binop_scalar(op, col, c, true)),
                        render(binop_columns(op, &broadcast, col)),
                        "constant on the left: {what}"
                    );
                }
            }
        }
    }

    /// `eval_row` is `eval` over a batch of that one row: values, NULLs
    /// and error texts, whichever kernel the batch's column types select.
    #[test]
    fn a_row_evaluates_to_what_its_one_row_batch_does() {
        use crate::catalog::{Ctes, Database};
        use crate::types::DataType;
        let (db, ctes) = (Database::new(), Ctes::new());
        let ctx = EvalCtx { db: &db, ctes: &ctes };
        let scope = Scope::default();
        let ev = VecEvalCtx { ctx: &ctx, scope: &scope, outer: None };
        let values = [
            Value::Null,
            Value::Int(0),
            Value::Int(-3),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(2.5),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::Bool(false),
            Value::text("a"),
            Value::Timestamp(5),
            Value::Timestamp(i64::MAX),
            Value::Interval(7),
            Value::Interval(i64::MIN),
        ];
        let col = |i| Box::new(VecExpr::Col(i));
        use BinOp::*;
        let mut exprs: Vec<VecExpr> = Vec::new();
        for op in [Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Mul, Div, Mod, Pow, Concat] {
            exprs.push(VecExpr::BinOp { op, lhs: col(0), rhs: col(1) });
            // Against a constant the batch runs the scalar kernels.
            for c in [
                Value::Int(2),
                Value::Int(-1),
                Value::Float(0.0),
                Value::Timestamp(-3),
                Value::Interval(i64::MAX),
                Value::Null,
            ] {
                let c = Box::new(VecExpr::Const(c));
                exprs.push(VecExpr::BinOp { op, lhs: col(0), rhs: c.clone() });
                exprs.push(VecExpr::BinOp { op, lhs: c, rhs: col(1) });
            }
        }
        for op in [UnOp::Not, UnOp::Neg] {
            exprs.push(VecExpr::UnOp { op, expr: col(0) });
        }
        for ty in [DataType::Int, DataType::Float, DataType::Text, DataType::Bool] {
            exprs.push(VecExpr::Cast { expr: col(1), ty });
        }
        exprs.push(VecExpr::IsNull { expr: col(0), negated: false });
        exprs.push(VecExpr::IsNull { expr: col(1), negated: true });
        let render = |r: Result<Value>| match r {
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("error: {e}"),
        };
        for a in &values {
            for b in &values {
                let row = [a.clone(), b.clone()];
                let batch = Batch::from_rows(&[row.to_vec()], None);
                for e in &exprs {
                    assert_eq!(
                        render(e.eval_row(&row[..], &ev)),
                        render(e.eval(&batch, &ev).map(|c| c.get(0))),
                        "{e:?} over {row:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn concat_keeps_typed_parts_typed() {
        let (a, b) = (ints(&[Some(1), None]), ints(&[None, Some(4), Some(5)]));
        let joined = ColumnVec::concat(&[&a, &b, &ints(&[])]);
        assert!(matches!(joined, ColumnVec::Int(..)));
        let values: Vec<Value> = (0..joined.len()).map(|i| joined.get(i)).collect();
        assert_eq!(values, [Value::Int(1), Value::Null, Value::Null, Value::Int(4), Value::Int(5)]);
        // 70 + 70 rows: the second part's validity lands across a word.
        let long = ints(&(0..70).map(|i| (i % 3 != 0).then_some(i)).collect::<Vec<_>>());
        let twice = ColumnVec::concat(&[&long, &long]);
        assert!((0..140).all(|i| twice.get(i) == long.get(i % 70)));
        // An all-NULL part has no type of its own.
        let nulls = ColumnVec::from_values(vec![Value::Null]);
        let mixed = ColumnVec::concat(&[&nulls, &a]);
        assert!(matches!(mixed, ColumnVec::Int(..)));
        assert!(mixed.get(0).is_null() && mixed.get(1) == Value::Int(1));
    }

    #[test]
    fn in_list_is_three_valued() {
        let c = ints(&[Some(1), None, Some(3)]);
        let cases = [
            // (has_null, negated) -> [1, NULL, 3] IN (1 [, NULL])
            ((false, false), [Some(true), None, Some(false)]),
            ((false, true), [Some(false), None, Some(true)]),
            ((true, false), [Some(true), None, None]),
            ((true, true), [Some(false), None, None]),
        ];
        for ((has_null, negated), want) in cases {
            let got = in_list(&c, &[Value::Int(1)], has_null, negated).unwrap();
            for (i, w) in want.iter().enumerate() {
                assert_eq!(
                    got.get(i),
                    w.map(Value::Bool).unwrap_or(Value::Null),
                    "{has_null} {negated}"
                );
            }
        }
        // Int against Float compares numerically; an incomparable item
        // is an error (the caller replays the batch row by row).
        let got = in_list(&c, &[Value::Float(3.0)], false, false).unwrap();
        assert_eq!(got.get(2), Value::Bool(true));
        assert!(in_list(&c, &[Value::text("x")], false, false).is_err());
    }

    #[test]
    fn constant_in_lists_and_between_compile_to_vector_form() {
        let col = || Box::new(BoundExpr::Column { depth: 0, index: 0 });
        let int = |i| BoundExpr::Const(Value::Int(i));
        let in_list = |list| BoundExpr::InList { expr: col(), list, negated: false };
        let between = |low, high, negated| BoundExpr::Between {
            expr: col(),
            low: Box::new(low),
            high: Box::new(high),
            negated,
        };
        assert!(matches!(
            VecExpr::compile(&in_list(vec![int(1), BoundExpr::Const(Value::Null), int(2)])),
            VecExpr::InList { has_null: true, ref items, .. } if items.len() == 2
        ));
        assert!(matches!(VecExpr::compile(&in_list(vec![int(1), *col()])), VecExpr::Fallback(_)));
        assert!(matches!(
            VecExpr::compile(&between(int(1), int(2), false)),
            VecExpr::Logic { op: BinOp::And, .. }
        ));
        assert!(matches!(
            VecExpr::compile(&between(int(1), int(2), true)),
            VecExpr::UnOp { op: UnOp::Not, .. }
        ));
        assert!(matches!(VecExpr::compile(&between(*col(), int(2), false)), VecExpr::Fallback(_)));
    }

    #[test]
    fn mixed_numeric_division_promotes_to_float() {
        let a = ints(&[Some(7)]);
        let b = ColumnVec::from_values(vec![Value::Float(2.0)]);
        let c = binop_columns(BinOp::Div, &a, &b).unwrap();
        assert_eq!(c.get(0), Value::Float(3.5));
    }
}
