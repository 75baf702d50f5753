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
use crate::types::value::{
    cmp_f64, comparison, division_by_zero, float_op, word_error, word_op, Cmp, FloatOp, Scalar,
    Word, WordOp,
};
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

    /// The slot at `i` as a [`Scalar`], when it is not NULL and of a
    /// word kind.
    pub(crate) fn scalar(&self, i: usize) -> Option<Scalar> {
        let valid = |b: &Bitmap| b.get(i);
        match self {
            ColumnVec::Int(v, b) => valid(b).then(|| Scalar::Int(v[i])),
            ColumnVec::Float(v, b) => valid(b).then(|| Scalar::Float(v[i])),
            ColumnVec::Bool(v, b) => valid(b).then(|| Scalar::Bool(v[i])),
            ColumnVec::Ts(v, b) => valid(b).then(|| Scalar::Ts(v[i])),
            ColumnVec::Iv(v, b) => valid(b).then(|| Scalar::Iv(v[i])),
            ColumnVec::Text(..) => None,
            ColumnVec::Any(v) => Scalar::of(&v[i]),
        }
    }

    /// Is `s` of the kind of this typed column?
    pub(crate) fn holds(&self, s: Scalar) -> bool {
        matches!(
            (self, s),
            (ColumnVec::Int(..), Scalar::Int(_))
                | (ColumnVec::Float(..), Scalar::Float(_))
                | (ColumnVec::Bool(..), Scalar::Bool(_))
                | (ColumnVec::Ts(..), Scalar::Ts(_))
                | (ColumnVec::Iv(..), Scalar::Iv(_))
        )
    }

    /// Append `s`, which the column [`Self::holds`].
    pub(crate) fn push(&mut self, s: Scalar) {
        let valid = match (self, s) {
            (ColumnVec::Int(v, b), Scalar::Int(x))
            | (ColumnVec::Ts(v, b), Scalar::Ts(x))
            | (ColumnVec::Iv(v, b), Scalar::Iv(x)) => {
                v.push(x);
                b
            }
            (ColumnVec::Float(v, b), Scalar::Float(x)) => {
                v.push(x);
                b
            }
            (ColumnVec::Bool(v, b), Scalar::Bool(x)) => {
                v.push(x);
                b
            }
            _ => return,
        };
        valid.push(true);
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
    let mut rows = Vec::with_capacity(batches.iter().map(|b| b.len).sum());
    for b in batches {
        rows.extend((0..b.len).map(|i| b.row_at(i)));
    }
    rows
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

    /// The expression evaluated as an operand of [`binop`]: a scalar one
    /// stays its one value.
    fn operand<'v>(&'v self, batch: &'v Batch, ev: &VecEvalCtx<'v>) -> Result<Evaluated<'v>> {
        Ok(match self {
            VecExpr::Const(v) => Evaluated::Const(v),
            VecExpr::Outer { depth, index } => Evaluated::Const(ev.outer_value(*depth, *index)?),
            _ => Evaluated::Col(self.eval_ref(batch, ev)?),
        })
    }

    /// Does the expression evaluate a subquery (or a solve)? Those run
    /// against the CTEs of the execution, so what they read is not
    /// visible in the plan. A subquery has no vector form, so only a
    /// `Fallback` can hold one.
    pub(crate) fn has_subquery(&self) -> bool {
        matches!(self, VecExpr::Fallback(b) if bound_has_subquery(b))
    }

    /// Is the value a function of the row alone — no outer row, nothing
    /// the row evaluator runs (a function call may be a UDF's)?
    pub(crate) fn is_closed(&self) -> bool {
        match self {
            VecExpr::Col(_) | VecExpr::Const(_) => true,
            VecExpr::Outer { .. } | VecExpr::Fallback(_) => false,
            VecExpr::BinOp { lhs, rhs, .. } | VecExpr::Logic { lhs, rhs, .. } => {
                lhs.is_closed() && rhs.is_closed()
            }
            VecExpr::UnOp { expr, .. }
            | VecExpr::IsNull { expr, .. }
            | VecExpr::Cast { expr, .. }
            | VecExpr::InList { expr, .. } => expr.is_closed(),
        }
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
            VecExpr::BinOp { op, lhs, rhs } => {
                let (l, r) = (lhs.operand(batch, ev)?, rhs.operand(batch, ev)?);
                binop(*op, l.operand(), r.operand(), batch.len)?
            }
            VecExpr::Logic { op, lhs, rhs, orig } => {
                let l = lhs.operand(batch, ev)?;
                match rhs.operand(batch, ev) {
                    Ok(r) => binop(*op, l.operand(), r.operand(), batch.len)?,
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

/// An operand as [`VecExpr::operand`] evaluates it.
enum Evaluated<'a> {
    Col(Cow<'a, ColumnVec>),
    Const(&'a Value),
}

impl Evaluated<'_> {
    fn operand(&self) -> Operand<'_> {
        match self {
            Evaluated::Col(c) => Operand::Col(c),
            Evaluated::Const(v) => Operand::Const(v),
        }
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

/// An operand of [`binop`]: a column of the batch, or one value that every
/// row shares.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand<'a> {
    Col(&'a ColumnVec),
    Const(&'a Value),
}

/// The values of one operand, each read the same way: a slice of a
/// column's data or the constant every row shares.
enum Slot<'a, T> {
    Col(&'a [T]),
    Const(&'a T),
}

impl<T> Clone for Slot<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Slot<'_, T> {}

/// The operand of a typed loop, by the kind its values are of.
#[derive(Clone, Copy)]
enum Typed<'a> {
    Words(Word, Slot<'a, i64>),
    Floats(Slot<'a, f64>),
    Bools(Slot<'a, bool>),
    Texts(Slot<'a, Arc<str>>),
}

impl<'a> Operand<'a> {
    /// The validity of a column; a constant has none.
    fn validity(self) -> Option<&'a Bitmap> {
        match self {
            Operand::Col(c) => c.validity(),
            Operand::Const(_) => None,
        }
    }

    /// The values as a typed loop reads them; `None` for an `Any` column
    /// and a NULL, bit-string or custom constant.
    fn typed(self) -> Option<Typed<'a>> {
        use Typed::*;
        Some(match self {
            Operand::Col(ColumnVec::Int(v, _)) => Words(Word::Int, Slot::Col(v)),
            Operand::Col(ColumnVec::Ts(v, _)) => Words(Word::Ts, Slot::Col(v)),
            Operand::Col(ColumnVec::Iv(v, _)) => Words(Word::Iv, Slot::Col(v)),
            Operand::Col(ColumnVec::Float(v, _)) => Floats(Slot::Col(v)),
            Operand::Col(ColumnVec::Bool(v, _)) => Bools(Slot::Col(v)),
            Operand::Col(ColumnVec::Text(v, _)) => Texts(Slot::Col(v)),
            Operand::Const(Value::Int(c)) => Words(Word::Int, Slot::Const(c)),
            Operand::Const(Value::Timestamp(c)) => Words(Word::Ts, Slot::Const(c)),
            Operand::Const(Value::Interval(c)) => Words(Word::Iv, Slot::Const(c)),
            Operand::Const(Value::Float(c)) => Floats(Slot::Const(c)),
            Operand::Const(Value::Bool(c)) => Bools(Slot::Const(c)),
            Operand::Const(Value::Text(c)) => Texts(Slot::Const(c)),
            _ => return None,
        })
    }

    /// Row `i`'s value, borrowed where it lies as one.
    fn at(self, i: usize) -> Cow<'a, Value> {
        match self {
            Operand::Const(v) => Cow::Borrowed(v),
            Operand::Col(ColumnVec::Any(v)) => Cow::Borrowed(&v[i]),
            Operand::Col(c) => Cow::Owned(c.get(i)),
        }
    }
}

/// `f(i, l, r)` over the `n` rows' operand values, in order: one loop per
/// shape, chosen here, outside it.
fn zip<A, B, R>(n: usize, l: Slot<A>, r: Slot<B>, mut f: impl FnMut(usize, &A, &B) -> R) -> Vec<R> {
    match (l, r) {
        (Slot::Col(a), Slot::Col(b)) => {
            a.iter().zip(b).enumerate().map(|(i, (x, y))| f(i, x, y)).collect()
        }
        (Slot::Col(a), Slot::Const(y)) => a.iter().enumerate().map(|(i, x)| f(i, x, y)).collect(),
        (Slot::Const(x), Slot::Col(b)) => b.iter().enumerate().map(|(i, y)| f(i, x, y)).collect(),
        (Slot::Const(x), Slot::Const(y)) => (0..n).map(|i| f(i, x, y)).collect(),
    }
}

/// `$body` once per variant of the table entry `$op`, with `$c` that
/// variant as a constant: the operation folds into each loop `$body`
/// runs, which is so compiled for its one operator.
macro_rules! per_op {
    ($op:expr, $ty:ident::{$($v:ident),+}, |$c:ident| $body:expr) => {
        match $op {
            $($ty::$v => {
                const $c: $ty = $ty::$v;
                $body
            })+
        }
    };
}

/// `l op r` over `n` rows: [`Value::binop`] row by row — values, NULLs and
/// the first failing non-NULL row's error. Typed loops run comparisons of
/// one kind (Int against Float too), word and float arithmetic, `||` of
/// texts and Kleene `AND` / `OR`, taking the operator's arithmetic from
/// the table in `types::value`; their validity is the column operands'
/// bitmaps ANDed, and a NULL slot holds whatever the loop made of its
/// placeholder. Any other pair goes through [`Value::binop`] per row.
pub(crate) fn binop(op: BinOp, l: Operand, r: Operand, n: usize) -> Result<ColumnVec> {
    use Typed::*;
    let (Some(a), Some(b)) = (l.typed(), r.typed()) else {
        return per_value(op, l, r, n);
    };
    let valid = match (l.validity(), r.validity()) {
        (Some(x), Some(y)) => x.and(y),
        (Some(v), None) | (None, Some(v)) => v.clone(),
        (None, None) => Bitmap::filled(n, true),
    };
    if let Some(cmp) = comparison(op) {
        let data = per_op!(cmp, Cmp::{Eq, Ne, Lt, Le, Gt, Ge}, |C| match (a, b) {
            (Words(k, x), Words(j, y)) if k == j => zip(n, x, y, |_, x, y| C.holds(x.cmp(y))),
            (Words(Word::Int, x), Floats(y)) => {
                zip(n, x, y, |_, x, y| C.holds(cmp_f64(*x as f64, *y)))
            }
            (Floats(x), Words(Word::Int, y)) => {
                zip(n, x, y, |_, x, y| C.holds(cmp_f64(*x, *y as f64)))
            }
            (Floats(x), Floats(y)) => zip(n, x, y, |_, x, y| C.holds(cmp_f64(*x, *y))),
            (Bools(x), Bools(y)) => zip(n, x, y, |_, x, y| C.holds(x.cmp(y))),
            (Texts(x), Texts(y)) => zip(n, x, y, |_, x, y| C.holds(x.as_ref().cmp(y.as_ref()))),
            _ => return per_value(op, l, r, n),
        });
        return Ok(ColumnVec::Bool(data, valid));
    }
    if let (Words(k, x), Words(j, y)) = (a, b) {
        if let Some((f, kind)) = word_op(op, k, j) {
            let mut failed = None;
            let data = per_op!(
                f,
                WordOp::{Add, Sub, Mul, Div, Mod, BitAnd, BitOr, BitXor},
                |F| zip(n, x, y, |i, x, y| {
                    F.apply(*x, *y).unwrap_or_else(|| {
                        if failed.is_none() && valid.get(i) {
                            failed = Some(word_error(F, kind, *y));
                        }
                        0
                    })
                })
            );
            return match failed {
                Some(e) => Err(e),
                None => Ok(ColumnVec::of_words(kind, data, valid)),
            };
        }
    }
    if let Some(f) = float_op(op) {
        let mut failed = false;
        let data = per_op!(f, FloatOp::{Add, Sub, Mul, Div, Mod, Pow}, |F| {
            let mut float = |i: usize, x: f64, y: f64| {
                F.apply(x, y).unwrap_or_else(|| {
                    failed |= valid.get(i);
                    0.0
                })
            };
            match (a, b) {
                (Floats(x), Floats(y)) => zip(n, x, y, |i, x, y| float(i, *x, *y)),
                (Words(Word::Int, x), Floats(y)) => {
                    zip(n, x, y, |i, x, y| float(i, *x as f64, *y))
                }
                (Floats(x), Words(Word::Int, y)) => {
                    zip(n, x, y, |i, x, y| float(i, *x, *y as f64))
                }
                (Words(Word::Int, x), Words(Word::Int, y)) => {
                    zip(n, x, y, |i, x, y| float(i, *x as f64, *y as f64))
                }
                _ => return per_value(op, l, r, n),
            }
        });
        return if failed { Err(division_by_zero()) } else { Ok(ColumnVec::Float(data, valid)) };
    }
    match (op, a, b) {
        (BinOp::Concat, Texts(x), Texts(y)) => {
            let data = zip(n, x, y, |_, x, y| Arc::from([x.as_ref(), y.as_ref()].concat()));
            Ok(ColumnVec::Text(data, valid))
        }
        // Without a NULL, two-valued logic.
        (BinOp::And, Bools(x), Bools(y)) if valid.all_set() => {
            Ok(ColumnVec::Bool(zip(n, x, y, |_, x, y| *x & *y), valid))
        }
        (BinOp::Or, Bools(x), Bools(y)) if valid.all_set() => {
            Ok(ColumnVec::Bool(zip(n, x, y, |_, x, y| *x | *y), valid))
        }
        (BinOp::And | BinOp::Or, Bools(x), Bools(y)) => {
            // The value that decides the result alone: false for AND, true
            // for OR. A row is known where both sides are, or where a known
            // side holds it.
            let decides = op == BinOp::Or;
            let (lv, rv) = (l.validity(), r.validity());
            let mut known = Bitmap::with_capacity(n);
            let data = zip(n, x, y, |i, x, y| {
                let (p, q) = (lv.is_none_or(|v| v.get(i)), rv.is_none_or(|v| v.get(i)));
                let decided = (p && *x == decides) || (q && *y == decides);
                known.push(decided || (p && q));
                decided == decides
            });
            Ok(ColumnVec::Bool(data, known))
        }
        _ => per_value(op, l, r, n),
    }
}

/// [`Value::binop`] row by row.
fn per_value(op: BinOp, l: Operand, r: Operand, n: usize) -> Result<ColumnVec> {
    let out = (0..n).map(|i| Value::binop(op, &l.at(i), &r.at(i))).collect::<Result<_>>()?;
    Ok(ColumnVec::from_values(out))
}

/// `c [NOT] IN (items [, NULL])` for a typed column and non-NULL items:
/// the Kleene OR of `c = item`, which is NULL only where `c` is, or where
/// nothing matched and the list had a NULL.
fn in_list(c: &ColumnVec, items: &[Value], has_null: bool, negated: bool) -> Result<ColumnVec> {
    let n = c.len();
    let mut hit = vec![false; n];
    for item in items {
        match binop(BinOp::Eq, Operand::Col(c), Operand::Const(item), n)? {
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

    /// [`binop`] of two columns.
    fn columns(op: BinOp, l: &ColumnVec, r: &ColumnVec) -> Result<ColumnVec> {
        binop(op, Operand::Col(l), Operand::Col(r), l.len())
    }

    #[test]
    fn typed_comparison_propagates_nulls() {
        let a = ints(&[Some(1), None, Some(3)]);
        let b = ints(&[Some(2), Some(2), Some(2)]);
        let c = columns(BinOp::Gt, &a, &b).unwrap();
        assert_eq!(c.get(0), Value::Bool(false));
        assert!(c.get(1).is_null());
        assert_eq!(c.get(2), Value::Bool(true));
    }

    #[test]
    fn int_arithmetic_checks_overflow() {
        let a = ints(&[Some(i64::MAX)]);
        let b = ints(&[Some(1)]);
        assert!(columns(BinOp::Add, &a, &b).is_err());
        let ok = columns(BinOp::Add, &ints(&[Some(2)]), &ints(&[Some(3)])).unwrap();
        assert_eq!(ok.get(0), Value::Int(5));
    }

    #[test]
    fn kleene_and_matches_interpreter() {
        let t = ColumnVec::from_values(vec![Value::Bool(true), Value::Bool(false), Value::Null]);
        let u = ColumnVec::from_values(vec![Value::Null, Value::Null, Value::Null]);
        let c = columns(BinOp::And, &t, &u).unwrap();
        assert!(c.get(0).is_null());
        assert_eq!(c.get(1), Value::Bool(false));
        assert!(c.get(2).is_null());
    }

    /// [`binop`] in every shape — column/column, column/constant,
    /// constant/column — is [`Value::binop`] row by row: every operator
    /// over every column kind, 130-row columns with NULLs on both sides
    /// of a 64-bit word boundary, edge constants (NaN, `-0.0`,
    /// `i64::MIN` / `MAX`, zero divisors, NULL). A batch in which some
    /// row errors reports the first such row's error.
    #[test]
    fn binop_is_value_binop_row_by_row() {
        use crate::types::BitString;
        const N: usize = 130;
        let (nan, big) = (f64::NAN, i64::MAX);
        let int = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
        let float = |v: &[f64]| v.iter().map(|&f| Value::Float(f)).collect::<Vec<_>>();
        let stamp = |v: &[i64]| v.iter().map(|&t| Value::Timestamp(t)).collect::<Vec<_>>();
        let span = |v: &[i64]| v.iter().map(|&t| Value::Interval(t)).collect::<Vec<_>>();
        // Per kind, the values a column cycles through: edges, and tame
        // ones whose arithmetic succeeds.
        let kinds = [
            int(&[1, -3, 0, big, i64::MIN, 7, -1, 2]),
            int(&[1, 2, -3, 5, 7, -11]),
            float(&[1.5, nan, 0.0, -0.0, -2.0, 1e300, f64::INFINITY, -nan, 3.0]),
            float(&[0.5, -2.25, 3.0, 1e-3, 7.0]),
            vec![Value::Bool(true), Value::Bool(false), Value::Bool(false)],
            ["a", "b", "", "ab"].map(Value::text).to_vec(),
            stamp(&[5, 9, big, i64::MIN, 0, -1]),
            stamp(&[1_000, 2_000_000, -5]),
            span(&[7, i64::MIN, -2, 0, big]),
            span(&[3, -4, 100]),
            vec![Value::Int(1), Value::text("x"), Value::Float(2.5), Value::Bool(true)],
            vec![Value::Null],
        ];
        // Column `k` shifted by `s`: NULL at rows 63 and 64 and every
        // ninth row from `s`.
        let column = |k: usize, s: usize| -> Vec<Value> {
            let vals = &kinds[k];
            let null = |i: usize| i == 63 || i == 64 || i % 9 == s % 9;
            (0..N)
                .map(|i| if null(i) { Value::Null } else { vals[(i + s) % vals.len()].clone() })
                .collect()
        };
        let lefts: Vec<Vec<Value>> = (0..kinds.len()).map(|k| column(k, 0)).collect();
        let rights: Vec<Vec<Value>> = (0..kinds.len()).map(|k| column(k, 4)).collect();
        let constants = [
            Value::Int(2),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(big),
            Value::Float(2.5),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(nan),
            Value::text("a"),
            Value::Bool(true),
            Value::Bool(false),
            Value::Timestamp(5),
            Value::Timestamp(i64::MIN),
            Value::Interval(7),
            Value::Interval(big),
            Value::Interval(0),
            Value::Bits(BitString::parse("10").unwrap()),
            Value::Null,
        ];
        use BinOp::*;
        let ops = [
            Eq,
            Ne,
            Lt,
            Le,
            Gt,
            Ge,
            Add,
            Sub,
            Mul,
            Div,
            Mod,
            Pow,
            Concat,
            And,
            Or,
            BitAnd,
            BitOr,
            BitXor,
            Instantiate,
        ];
        // The values, floats by their bits, or the error.
        let render = |r: Result<Vec<Value>>| match r {
            Ok(vals) => vals
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("Float({:#x})", f.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect::<Vec<_>>()
                .join(", "),
            Err(e) => format!("error: {e}"),
        };
        let check = |op: BinOp,
                     l: Operand,
                     r: Operand,
                     lv: &dyn Fn(usize) -> Value,
                     rv: &dyn Fn(usize) -> Value| {
            let want = (0..N).map(|i| Value::binop(op, &lv(i), &rv(i))).collect::<Result<Vec<_>>>();
            let got = binop(op, l, r, N).map(|c| (0..N).map(|i| c.get(i)).collect());
            assert_eq!(render(got), render(want), "{op:?} of {l:?} and {r:?}");
        };
        for op in ops {
            for lvals in &lefts {
                let l = ColumnVec::from_values(lvals.clone());
                for rvals in &rights {
                    let r = ColumnVec::from_values(rvals.clone());
                    check(op, Operand::Col(&l), Operand::Col(&r), &|i| lvals[i].clone(), &|i| {
                        rvals[i].clone()
                    });
                }
                for c in &constants {
                    check(op, Operand::Col(&l), Operand::Const(c), &|i| lvals[i].clone(), &|_| {
                        c.clone()
                    });
                    check(op, Operand::Const(c), Operand::Col(&l), &|_| c.clone(), &|i| {
                        lvals[i].clone()
                    });
                }
            }
        }
        // Rows that fail differently, `i64::MIN` divided by -1 and by 0:
        // the first one's error, in either order.
        let min = Value::Int(i64::MIN);
        let dividends = ColumnVec::broadcast(&min, 2);
        let texts = [Word::Int.overflow(), division_by_zero()];
        for (divisors, want) in [([-1, 0], &texts[0]), ([0, -1], &texts[1])] {
            let divisors = ints(&divisors.map(Some));
            let want = Err(want.clone());
            assert_eq!(columns(Div, &dividends, &divisors).map(|c| c.len()), want);
            let by_constant = binop(Div, Operand::Const(&min), Operand::Col(&divisors), 2);
            assert_eq!(by_constant.map(|c| c.len()), want);
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
            // A constant operand stays one value.
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
        let c = columns(BinOp::Div, &a, &b).unwrap();
        assert_eq!(c.get(0), Value::Float(3.5));
    }
}
