//! Runtime values and their SQL semantics (arithmetic, comparison,
//! casting, three-valued logic helpers).

use crate::error::{Error, Result};
use crate::types::bits::BitString;
use crate::types::custom::CustomValue;
use crate::types::datatype::DataType;
use crate::types::ops::{BinOp, UnOp};
use crate::types::timeval;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A runtime value. `Text` uses `Arc<str>` so rows clone cheaply.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
    /// Microseconds.
    Interval(i64),
    Bits(BitString),
    Custom(Arc<dyn CustomValue>),
}

impl Value {
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Arc::from(s.as_ref()))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Unknown,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
            Value::Timestamp(_) => DataType::Timestamp,
            Value::Interval(_) => DataType::Interval,
            Value::Bits(_) => DataType::Bits,
            Value::Custom(c) => DataType::Named(c.type_name().to_string()),
        }
    }

    /// Numeric accessor with Int→Float promotion.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => {
                Err(Error::eval(format!("expected a numeric value, got {}", other.type_desc())))
            }
        }
    }

    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => {
                Err(Error::eval(format!("expected an integer value, got {}", other.type_desc())))
            }
        }
    }

    pub fn as_bool(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => {
                Err(Error::eval(format!("expected a boolean value, got {}", other.type_desc())))
            }
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(Error::eval(format!("expected a text value, got {}", other.type_desc()))),
        }
    }

    fn type_desc(&self) -> String {
        format!("{} ({})", self.data_type().sql_name(), self)
    }

    /// SQL equality (`=`): NULL-safe callers must check for NULL first.
    /// Numeric values compare across Int/Float.
    pub fn sql_eq(&self, other: &Value) -> Result<bool> {
        Ok(self.sql_cmp(other)?.map(|o| o == Ordering::Equal).unwrap_or(false))
    }

    /// SQL comparison. Returns `None` if either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>> {
        use Value::*;
        Ok(Some(match (self, other) {
            (Null, _) | (_, Null) => return Ok(None),
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.as_ref().cmp(b.as_ref()),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Interval(a), Interval(b)) => a.cmp(b),
            (Bits(a), Bits(b)) => a.cmp(b),
            (Custom(a), Custom(b)) => {
                if a.eq_custom(b.as_ref()) {
                    Ordering::Equal
                } else {
                    return Err(Error::eval(format!(
                        "values of type {} are not ordered",
                        a.type_name()
                    )));
                }
            }
            (a, b) => {
                return Err(Error::eval(format!(
                    "cannot compare {} with {}",
                    a.type_desc(),
                    b.type_desc()
                )))
            }
        }))
    }

    /// Total order used by ORDER BY and sort-based operators:
    /// NULLs sort last; cross-type comparisons fall back to a type rank so
    /// sorting never fails.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            _ => {}
        }
        match self.sql_cmp(other) {
            Ok(Some(o)) => o,
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 255,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
            Value::Timestamp(_) => 4,
            Value::Interval(_) => 5,
            Value::Bits(_) => 6,
            Value::Custom(_) => 7,
        }
    }

    /// Apply a binary operator with SQL semantics. Logic operators (AND /
    /// OR) are handled by the evaluator (they need three-valued laziness),
    /// everything else lands here. NULL propagates through all operators.
    pub fn binop(op: BinOp, lhs: &Value, rhs: &Value) -> Result<Value> {
        use Value::*;

        // Custom types get the first chance to interpret the operator —
        // this is how symbolic linear expressions and models overload
        // arithmetic, comparisons and `<<`.
        if let Custom(c) = lhs {
            if let Some(r) = c.binop(op, rhs, true) {
                return r;
            }
        }
        if let Custom(c) = rhs {
            if let Some(r) = c.binop(op, lhs, false) {
                return r;
            }
        }

        if op.is_comparison() {
            if lhs.is_null() || rhs.is_null() {
                return Ok(Null);
            }
            let ord = lhs.sql_cmp(rhs)?;
            let b = match (op, ord) {
                (_, None) => return Ok(Null),
                (BinOp::Eq, Some(o)) => o == Ordering::Equal,
                (BinOp::Ne, Some(o)) => o != Ordering::Equal,
                (BinOp::Lt, Some(o)) => o == Ordering::Less,
                (BinOp::Le, Some(o)) => o != Ordering::Greater,
                (BinOp::Gt, Some(o)) => o == Ordering::Greater,
                (BinOp::Ge, Some(o)) => o != Ordering::Less,
                _ => unreachable!(),
            };
            return Ok(Bool(b));
        }

        if let BinOp::And | BinOp::Or = op {
            // Three-valued logic: NULL does not blindly propagate.
            let a = lhs.as_bool()?;
            let b = rhs.as_bool()?;
            return Ok(match (op, a, b) {
                (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Bool(false),
                (BinOp::And, Some(true), Some(true)) => Bool(true),
                (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Bool(true),
                (BinOp::Or, Some(false), Some(false)) => Bool(false),
                _ => Null,
            });
        }

        if lhs.is_null() || rhs.is_null() {
            return Ok(Null);
        }

        if let (Some((l, a)), Some((r, b))) = (lhs.word(), rhs.word()) {
            if let Some((f, kind)) = time_arith(op, l, r) {
                return f(a, b)
                    .map(|us| kind.value(us))
                    .ok_or_else(|| Error::eval(kind.overflow()));
            }
        }

        match op {
            BinOp::Add => match (lhs, rhs) {
                (Int(a), Int(b)) => Ok(Int(a.checked_add(*b).ok_or_else(overflow)?)),
                _ => Ok(Float(lhs.as_f64()? + rhs.as_f64()?)),
            },
            BinOp::Sub => match (lhs, rhs) {
                (Int(a), Int(b)) => Ok(Int(a.checked_sub(*b).ok_or_else(overflow)?)),
                _ => Ok(Float(lhs.as_f64()? - rhs.as_f64()?)),
            },
            BinOp::Mul => match (lhs, rhs) {
                (Int(a), Int(b)) => Ok(Int(a.checked_mul(*b).ok_or_else(overflow)?)),
                (Interval(a), b @ (Int(_) | Float(_))) => {
                    Ok(Interval((*a as f64 * b.as_f64()?) as i64))
                }
                (a @ (Int(_) | Float(_)), Interval(b)) => {
                    Ok(Interval((a.as_f64()? * *b as f64) as i64))
                }
                _ => Ok(Float(lhs.as_f64()? * rhs.as_f64()?)),
            },
            BinOp::Div => match (lhs, rhs) {
                (Int(_), Int(0)) => Err(Error::eval("division by zero")),
                (Int(a), Int(b)) => a.checked_div(*b).map(Int).ok_or_else(overflow),
                (Interval(a), b @ (Int(_) | Float(_))) => {
                    let d = b.as_f64()?;
                    if d == 0.0 {
                        Err(Error::eval("division by zero"))
                    } else {
                        Ok(Interval((*a as f64 / d) as i64))
                    }
                }
                _ => {
                    let d = rhs.as_f64()?;
                    if d == 0.0 {
                        Err(Error::eval("division by zero"))
                    } else {
                        Ok(Float(lhs.as_f64()? / d))
                    }
                }
            },
            BinOp::Mod => match (lhs, rhs) {
                (Int(_), Int(0)) => Err(Error::eval("division by zero")),
                (Int(a), Int(b)) => a.checked_rem(*b).map(Int).ok_or_else(overflow),
                _ => {
                    let d = rhs.as_f64()?;
                    if d == 0.0 {
                        Err(Error::eval("division by zero"))
                    } else {
                        Ok(Float(lhs.as_f64()? % d))
                    }
                }
            },
            BinOp::Pow => Ok(Float(lhs.as_f64()?.powf(rhs.as_f64()?))),
            BinOp::Concat => {
                let mut s = lhs.to_string();
                s.push_str(&rhs.to_string());
                Ok(Value::text(s))
            }
            BinOp::BitAnd => match (lhs, rhs) {
                (Bits(a), Bits(b)) => Ok(Bits(a.and(b)?)),
                (Int(a), Int(b)) => Ok(Int(a & b)),
                _ => Err(type_err(op, lhs, rhs)),
            },
            BinOp::BitOr => match (lhs, rhs) {
                (Bits(a), Bits(b)) => Ok(Bits(a.or(b)?)),
                (Int(a), Int(b)) => Ok(Int(a | b)),
                _ => Err(type_err(op, lhs, rhs)),
            },
            BinOp::BitXor => match (lhs, rhs) {
                (Bits(a), Bits(b)) => Ok(Bits(a.xor(b)?)),
                (Int(a), Int(b)) => Ok(Int(a ^ b)),
                _ => Err(type_err(op, lhs, rhs)),
            },
            BinOp::Instantiate => match (lhs, rhs) {
                (Int(a), Int(b)) if (0..64).contains(b) => Ok(Int(a << b)),
                _ => Err(type_err(op, lhs, rhs)),
            },
            _ => Err(type_err(op, lhs, rhs)),
        }
    }

    /// Apply a unary operator.
    pub fn unop(op: UnOp, v: &Value) -> Result<Value> {
        use Value::*;
        if let Custom(c) = v {
            if let Some(r) = c.unop(op) {
                return r;
            }
        }
        if v.is_null() {
            return Ok(Null);
        }
        match (op, v) {
            (UnOp::Neg, Int(i)) => i.checked_neg().map(Int).ok_or_else(overflow),
            (UnOp::Neg, Float(f)) => Ok(Float(-f)),
            (UnOp::Neg, Interval(i)) => {
                i.checked_neg().map(Interval).ok_or_else(|| Error::eval(Word::Iv.overflow()))
            }
            (UnOp::Not, Bool(b)) => Ok(Bool(!b)),
            (UnOp::BitNot, Bits(b)) => Ok(Bits(b.not())),
            (UnOp::BitNot, Int(i)) => Ok(Int(!i)),
            (op, v) => Err(Error::eval(format!(
                "operator {} not defined for {}",
                op.symbol(),
                v.type_desc()
            ))),
        }
    }

    /// Cast to a target type (SQL `CAST` / `::` semantics).
    pub fn cast(&self, ty: &DataType) -> Result<Value> {
        use Value::*;
        if self.is_null() {
            return Ok(Null);
        }
        if let DataType::Named(n) = ty {
            if let Custom(c) = self {
                if c.type_name() == n.as_str() {
                    return Ok(self.clone());
                }
                if let Some(r) = c.cast(n) {
                    return r;
                }
            }
            return Err(Error::eval(format!("cannot cast {} to {}", self.type_desc(), n)));
        }
        let fail = || Error::eval(format!("cannot cast {} to {}", self.type_desc(), ty));
        // Custom values may define their own casts to primitive types
        // (e.g. a symbolic expression casting to float8 is a no-op).
        if let Custom(c) = self {
            if let Some(r) = c.cast(&ty.sql_name()) {
                return r;
            }
            return Err(fail());
        }
        Ok(match (self, ty) {
            (v, t) if v.data_type() == *t => v.clone(),
            (Int(i), DataType::Float) => Float(*i as f64),
            (Float(f), DataType::Int) => {
                if f.is_finite() {
                    Int(f.round() as i64)
                } else {
                    return Err(fail());
                }
            }
            (Bool(b), DataType::Int) => Int(*b as i64),
            (Int(i), DataType::Bool) => Bool(*i != 0),
            (Text(s), DataType::Int) => Int(s.trim().parse().map_err(|_| fail())?),
            (Text(s), DataType::Float) => Float(s.trim().parse().map_err(|_| fail())?),
            (Text(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "t" | "true" | "yes" | "on" | "1" => Bool(true),
                "f" | "false" | "no" | "off" | "0" => Bool(false),
                _ => return Err(fail()),
            },
            (Text(s), DataType::Timestamp) => Timestamp(timeval::parse_timestamp(s)?),
            (Text(s), DataType::Interval) => Interval(timeval::parse_interval(s)?),
            (Text(s), DataType::Bits) => Bits(BitString::parse(s.trim())?),
            (v, DataType::Text) => Value::text(v.to_string()),
            _ => return Err(fail()),
        })
    }

    /// The kind and microsecond (or integer) count of a value that is one
    /// `i64` underneath.
    pub(crate) fn word(&self) -> Option<(Word, i64)> {
        match self {
            Value::Int(i) => Some((Word::Int, *i)),
            Value::Timestamp(t) => Some((Word::Ts, *t)),
            Value::Interval(i) => Some((Word::Iv, *i)),
            _ => None,
        }
    }

    /// A hashable key for grouping / hash joins / DISTINCT.
    /// Numeric values that compare equal hash equal (1 = 1.0). An
    /// integer that no `f64` holds exactly keys as itself, so integers
    /// above 2^53 stay apart as `=` keeps them apart — though `=` still
    /// compares such an integer with a float as two `f64`s.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Int(i) => {
                exact_f64(*i).map_or(GroupKey::Int(*i), |f| GroupKey::Num(num_bits(f)))
            }
            Value::Float(f) => GroupKey::Num(num_bits(*f)),
            Value::Text(s) => GroupKey::Text(s.clone()),
            Value::Timestamp(t) => GroupKey::Ts(*t),
            Value::Interval(i) => GroupKey::Iv(*i),
            Value::Bits(b) => GroupKey::Bits(*b),
            Value::Custom(c) => {
                GroupKey::Text(Arc::from(format!("{}::{}", c.to_text(), c.type_name())))
            }
        }
    }
}

fn overflow() -> Error {
    Error::eval("integer overflow")
}

fn type_err(op: BinOp, lhs: &Value, rhs: &Value) -> Error {
    Error::eval(format!(
        "operator {} not defined for {} and {}",
        op.symbol(),
        lhs.data_type().sql_name(),
        rhs.data_type().sql_name()
    ))
}

/// The kinds of value that are one `i64` underneath, and so the kinds of
/// column that hold a `Vec<i64>`: integers, timestamps and intervals
/// (both in microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Word {
    Int,
    Ts,
    Iv,
}

impl Word {
    pub(crate) fn value(self, v: i64) -> Value {
        match self {
            Word::Int => Value::Int(v),
            Word::Ts => Value::Timestamp(v),
            Word::Iv => Value::Interval(v),
        }
    }

    /// What an operation whose result of this kind leaves `i64` fails
    /// with.
    pub(crate) fn overflow(self) -> &'static str {
        match self {
            Word::Int => "integer overflow",
            Word::Ts => "timestamp out of range",
            Word::Iv => "interval out of range",
        }
    }
}

/// A checked operation on two `i64`s and the kind of its result.
pub(crate) type WordOp = (fn(i64, i64) -> Option<i64>, Word);

/// The arithmetic of timestamps and intervals that stays in microseconds
/// — `ts ± iv`, `iv + ts`, `ts − ts`, `iv ± iv` — as the checked
/// operation on the two counts and the kind of its result; `None` for
/// any other operator or pair of kinds.
pub(crate) fn time_arith(op: BinOp, lhs: Word, rhs: Word) -> Option<WordOp> {
    use Word::{Iv, Ts};
    match (op, lhs, rhs) {
        (BinOp::Add, Ts, Iv) | (BinOp::Add, Iv, Ts) => Some((i64::checked_add, Ts)),
        (BinOp::Add, Iv, Iv) => Some((i64::checked_add, Iv)),
        (BinOp::Sub, Ts, Iv) => Some((i64::checked_sub, Ts)),
        (BinOp::Sub, Ts, Ts) | (BinOp::Sub, Iv, Iv) => Some((i64::checked_sub, Iv)),
        _ => None,
    }
}

/// A value of a kind that is one machine word: what a register of a
/// recursion's typed step program holds (`plan::exec`). Its operations
/// are [`Value::binop`], [`Value::unop`] and [`Value::cast`] on the values
/// of these kinds, bit for bit, except that each returns `None` where
/// those return an error or a value of another kind; the caller then runs
/// the step on `Value`s, which raises the error.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scalar {
    Bool(bool),
    Int(i64),
    Float(f64),
    /// Microseconds since the Unix epoch.
    Ts(i64),
    /// Microseconds.
    Iv(i64),
}

impl Scalar {
    /// `v` as a scalar, when it is not NULL and of a word kind.
    pub(crate) fn of(v: &Value) -> Option<Scalar> {
        match *v {
            Value::Bool(b) => Some(Scalar::Bool(b)),
            Value::Int(i) => Some(Scalar::Int(i)),
            Value::Float(f) => Some(Scalar::Float(f)),
            Value::Timestamp(t) => Some(Scalar::Ts(t)),
            Value::Interval(i) => Some(Scalar::Iv(i)),
            Value::Null | Value::Text(_) | Value::Bits(_) | Value::Custom(_) => None,
        }
    }

    pub(crate) fn value(self) -> Value {
        match self {
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Int(i) => Value::Int(i),
            Scalar::Float(f) => Value::Float(f),
            Scalar::Ts(t) => Value::Timestamp(t),
            Scalar::Iv(i) => Value::Interval(i),
        }
    }

    fn of_word(kind: Word, v: i64) -> Scalar {
        match kind {
            Word::Int => Scalar::Int(v),
            Word::Ts => Scalar::Ts(v),
            Word::Iv => Scalar::Iv(v),
        }
    }

    fn word(self) -> Option<(Word, i64)> {
        match self {
            Scalar::Int(i) => Some((Word::Int, i)),
            Scalar::Ts(t) => Some((Word::Ts, t)),
            Scalar::Iv(i) => Some((Word::Iv, i)),
            Scalar::Bool(_) | Scalar::Float(_) => None,
        }
    }

    /// [`Value::as_f64`].
    fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Int(i) => Some(i as f64),
            Scalar::Float(f) => Some(f),
            Scalar::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            Scalar::Ts(_) | Scalar::Iv(_) => None,
        }
    }

    /// [`Value::binop`]. `AND` / `OR` take both operands evaluated, which
    /// without NULLs is what the evaluator's short circuit returns too.
    pub(crate) fn binop(op: BinOp, lhs: Scalar, rhs: Scalar) -> Option<Scalar> {
        use Scalar::*;
        // The float arithmetic of a simulation step, first.
        if let (Float(a), Float(b)) = (lhs, rhs) {
            match op {
                BinOp::Add => return Some(Float(a + b)),
                BinOp::Sub => return Some(Float(a - b)),
                BinOp::Mul => return Some(Float(a * b)),
                _ => {}
            }
        }
        if op.is_comparison() {
            let ord = match (lhs, rhs) {
                (Int(a), Int(b)) | (Ts(a), Ts(b)) | (Iv(a), Iv(b)) => a.cmp(&b),
                (Int(a), Float(b)) => cmp_f64(a as f64, b),
                (Float(a), Int(b)) => cmp_f64(a, b as f64),
                (Float(a), Float(b)) => cmp_f64(a, b),
                (Bool(a), Bool(b)) => a.cmp(&b),
                _ => return None,
            };
            return Some(Bool(match op {
                BinOp::Eq => ord == Ordering::Equal,
                BinOp::Ne => ord != Ordering::Equal,
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                _ => ord != Ordering::Less,
            }));
        }
        if let (Some((l, a)), Some((r, b))) = (lhs.word(), rhs.word()) {
            if let Some((f, kind)) = time_arith(op, l, r) {
                return f(a, b).map(|us| Scalar::of_word(kind, us));
            }
        }
        let float = |f: fn(f64, f64) -> f64| Some(Float(f(lhs.as_f64()?, rhs.as_f64()?)));
        match (op, lhs, rhs) {
            (BinOp::And, Bool(a), Bool(b)) => Some(Bool(a && b)),
            (BinOp::Or, Bool(a), Bool(b)) => Some(Bool(a || b)),
            (BinOp::Add, Int(a), Int(b)) => a.checked_add(b).map(Int),
            (BinOp::Add, ..) => float(|a, b| a + b),
            (BinOp::Sub, Int(a), Int(b)) => a.checked_sub(b).map(Int),
            (BinOp::Sub, ..) => float(|a, b| a - b),
            (BinOp::Mul, Int(a), Int(b)) => a.checked_mul(b).map(Int),
            (BinOp::Mul, Iv(a), b @ (Int(_) | Float(_))) => {
                Some(Iv((a as f64 * b.as_f64()?) as i64))
            }
            (BinOp::Mul, a @ (Int(_) | Float(_)), Iv(b)) => {
                Some(Iv((a.as_f64()? * b as f64) as i64))
            }
            (BinOp::Mul, ..) => float(|a, b| a * b),
            (BinOp::Div | BinOp::Mod, Int(_), Int(0)) => None,
            (BinOp::Div, Int(a), Int(b)) => a.checked_div(b).map(Int),
            (BinOp::Mod, Int(a), Int(b)) => a.checked_rem(b).map(Int),
            (BinOp::Div, Iv(a), b @ (Int(_) | Float(_))) => {
                let d = b.as_f64()?;
                (d != 0.0).then(|| Iv((a as f64 / d) as i64))
            }
            (BinOp::Div | BinOp::Mod, ..) => {
                let d = rhs.as_f64()?;
                let l = lhs.as_f64()?;
                match op {
                    _ if d == 0.0 => None,
                    BinOp::Div => Some(Float(l / d)),
                    _ => Some(Float(l % d)),
                }
            }
            (BinOp::Pow, ..) => float(f64::powf),
            (BinOp::BitAnd, Int(a), Int(b)) => Some(Int(a & b)),
            (BinOp::BitOr, Int(a), Int(b)) => Some(Int(a | b)),
            (BinOp::BitXor, Int(a), Int(b)) => Some(Int(a ^ b)),
            _ => None,
        }
    }

    /// [`Value::unop`].
    pub(crate) fn unop(op: UnOp, v: Scalar) -> Option<Scalar> {
        match (op, v) {
            (UnOp::Neg, Scalar::Int(i)) => i.checked_neg().map(Scalar::Int),
            (UnOp::Neg, Scalar::Float(f)) => Some(Scalar::Float(-f)),
            (UnOp::Neg, Scalar::Iv(i)) => i.checked_neg().map(Scalar::Iv),
            (UnOp::Not, Scalar::Bool(b)) => Some(Scalar::Bool(!b)),
            (UnOp::BitNot, Scalar::Int(i)) => Some(Scalar::Int(!i)),
            _ => None,
        }
    }

    /// [`Value::cast`].
    pub(crate) fn cast(self, ty: &DataType) -> Option<Scalar> {
        match (self, ty) {
            (Scalar::Bool(_), DataType::Bool)
            | (Scalar::Int(_), DataType::Int)
            | (Scalar::Float(_), DataType::Float)
            | (Scalar::Ts(_), DataType::Timestamp)
            | (Scalar::Iv(_), DataType::Interval) => Some(self),
            (Scalar::Int(i), DataType::Float) => Some(Scalar::Float(i as f64)),
            (Scalar::Float(f), DataType::Int) => {
                f.is_finite().then(|| Scalar::Int(f.round() as i64))
            }
            (Scalar::Bool(b), DataType::Int) => Some(Scalar::Int(b as i64)),
            (Scalar::Int(i), DataType::Bool) => Some(Scalar::Bool(i != 0)),
            _ => None,
        }
    }
}

/// `i` as the `f64` that holds it exactly, if one does.
pub(crate) fn exact_f64(i: i64) -> Option<f64> {
    let f = i as f64;
    // 2^63 converts back to i64::MAX, which it is not.
    (f < 9_223_372_036_854_775_808.0 && f as i64 == i).then_some(f)
}

/// The integer a float holds exactly, if it holds one of `i64`'s.
pub(crate) fn exact_i64(f: f64) -> Option<i64> {
    (f.fract() == 0.0 && (-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&f))
        .then_some(f as i64)
}

/// What [`GroupKey::Num`] holds for a number: its bits with -0.0 and NaN
/// normalized, so that floats that compare equal key equal.
pub(crate) fn num_bits(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f };
    let f = if f.is_nan() { f64::NAN } else { f };
    f.to_bits()
}

pub(crate) fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        // NaN sorts after everything (PostgreSQL convention).
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            _ => unreachable!(),
        }
    })
}

/// Hashable key form of a value. See [`Value::group_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    Null,
    Bool(bool),
    Num(u64),
    /// An integer no `f64` holds exactly.
    Int(i64),
    Text(Arc<str>),
    Ts(i64),
    Iv(i64),
    Bits(BitString),
}

impl PartialEq for Value {
    /// Structural equality used by tests and collections: NULL == NULL
    /// here (unlike SQL `=`, which returns NULL).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Custom(a), Value::Custom(b)) => a.eq_custom(b.as_ref()),
            (a, b) => a.sql_cmp(b).ok().flatten() == Some(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => f.write_str(s),
            Value::Timestamp(t) => f.write_str(&timeval::format_timestamp(*t)),
            Value::Interval(i) => f.write_str(&timeval::format_interval(*i)),
            Value::Bits(b) => write!(f, "{b}"),
            Value::Custom(c) => f.write_str(&c.to_text()),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::text(s)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(op: BinOp, l: impl Into<Value>, r: impl Into<Value>) -> Result<Value> {
        Value::binop(op, &l.into(), &r.into())
    }

    #[test]
    fn integer_arithmetic_is_integral() {
        assert_eq!(b(BinOp::Add, 2i64, 3i64).unwrap(), Value::Int(5));
        assert_eq!(b(BinOp::Div, 7i64, 2i64).unwrap(), Value::Int(3));
        assert_eq!(b(BinOp::Mod, 7i64, 2i64).unwrap(), Value::Int(1));
    }

    #[test]
    fn mixed_arithmetic_promotes_to_float() {
        assert_eq!(b(BinOp::Add, 2i64, 0.5).unwrap(), Value::Float(2.5));
        assert_eq!(b(BinOp::Div, 1i64, 2.0).unwrap(), Value::Float(0.5));
    }

    #[test]
    fn null_propagates() {
        assert!(b(BinOp::Add, Value::Null, 1i64).unwrap().is_null());
        assert!(b(BinOp::Eq, Value::Null, 1i64).unwrap().is_null());
        assert!(Value::unop(UnOp::Neg, &Value::Null).unwrap().is_null());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(b(BinOp::Div, 1i64, 0i64).is_err());
        assert!(b(BinOp::Div, 1.0, 0.0).is_err());
        assert!(b(BinOp::Mod, 1i64, 0i64).is_err());
    }

    #[test]
    fn power_is_float() {
        assert_eq!(b(BinOp::Pow, 2i64, 10i64).unwrap(), Value::Float(1024.0));
    }

    #[test]
    fn comparisons_cross_numeric_types() {
        assert_eq!(b(BinOp::Eq, 1i64, 1.0).unwrap(), Value::Bool(true));
        assert_eq!(b(BinOp::Lt, 1i64, 1.5).unwrap(), Value::Bool(true));
        assert_eq!(b(BinOp::Ge, 2.0, 3i64).unwrap(), Value::Bool(false));
    }

    #[test]
    fn timestamp_interval_algebra() {
        let t0 = Value::Timestamp(0);
        let hour = Value::Interval(timeval::MICROS_PER_HOUR);
        let t1 = Value::binop(BinOp::Add, &t0, &hour).unwrap();
        assert_eq!(t1, Value::Timestamp(timeval::MICROS_PER_HOUR));
        let d = Value::binop(BinOp::Sub, &t1, &t0).unwrap();
        assert_eq!(d, hour);
        let twice = Value::binop(BinOp::Mul, &hour, &Value::Int(2)).unwrap();
        assert_eq!(twice, Value::Interval(2 * timeval::MICROS_PER_HOUR));
    }

    #[test]
    fn concat_stringifies() {
        assert_eq!(b(BinOp::Concat, "x=", 3i64).unwrap(), Value::text("x=3"));
    }

    #[test]
    fn bit_ops_on_bitstrings() {
        let a = Value::Bits(BitString::parse("11").unwrap());
        let m = Value::Bits(BitString::parse("10").unwrap());
        let z = Value::Bits(BitString::parse("00").unwrap());
        let and = Value::binop(BinOp::BitAnd, &a, &m).unwrap();
        let ne = Value::binop(BinOp::Ne, &and, &z).unwrap();
        assert_eq!(ne, Value::Bool(true));
    }

    #[test]
    fn casts() {
        assert_eq!(Value::text("42").cast(&DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(Value::Float(2.6).cast(&DataType::Int).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(1).cast(&DataType::Bool).unwrap(), Value::Bool(true));
        assert_eq!(
            Value::text("2017/07/02 07:00").cast(&DataType::Timestamp).unwrap(),
            Value::Timestamp(timeval::parse_timestamp("2017-07-02 07:00").unwrap())
        );
        assert!(Value::text("nope").cast(&DataType::Int).is_err());
        assert!(Value::Null.cast(&DataType::Int).unwrap().is_null());
    }

    #[test]
    fn total_order_puts_nulls_last() {
        let mut vals = vec![Value::Null, Value::Int(2), Value::Int(1)];
        vals.sort_by(|a, b| a.cmp_total(b));
        assert_eq!(vals[0], Value::Int(1));
        assert!(vals[2].is_null());
    }

    #[test]
    fn group_keys_unify_numerics() {
        assert_eq!(Value::Int(1).group_key(), Value::Float(1.0).group_key());
        assert_ne!(Value::Int(1).group_key(), Value::Float(1.5).group_key());
        assert_eq!(Value::Float(0.0).group_key(), Value::Float(-0.0).group_key());
        // Above 2^53 an integer no f64 holds keys as itself.
        let two_53 = 9_007_199_254_740_992_i64;
        assert_eq!(Value::Int(two_53).group_key(), Value::Float(two_53 as f64).group_key());
        assert_ne!(Value::Int(two_53 + 1).group_key(), Value::Int(two_53).group_key());
        assert_eq!(Value::Int(two_53 + 1).group_key(), GroupKey::Int(two_53 + 1));
        // i64::MAX converts to 2^63, which converts back to i64::MAX.
        assert_eq!(exact_f64(i64::MAX), None);
        assert_eq!(exact_f64(i64::MIN), Some(-(2f64.powi(63))));
        assert_eq!(exact_i64(2f64.powi(63)), None);
        assert_eq!(exact_i64(-0.0), Some(0));
        assert_eq!(exact_i64(0.5), None);
    }

    #[test]
    fn eager_three_valued_logic() {
        use Value::{Bool as B, Null as N};
        assert_eq!(Value::binop(BinOp::And, &B(false), &N).unwrap(), B(false));
        assert_eq!(Value::binop(BinOp::Or, &B(true), &N).unwrap(), B(true));
        assert!(Value::binop(BinOp::And, &B(true), &N).unwrap().is_null());
        assert!(Value::binop(BinOp::Or, &B(false), &N).unwrap().is_null());
    }

    #[test]
    fn int_shift_when_not_a_model() {
        assert_eq!(b(BinOp::Instantiate, 1i64, 4i64).unwrap(), Value::Int(16));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn overflow_detected() {
        assert!(b(BinOp::Add, i64::MAX, 1i64).is_err());
        assert!(b(BinOp::Mul, i64::MAX, 2i64).is_err());
        let (late, long) = (Value::Timestamp(i64::MAX), Value::Interval(i64::MIN));
        let stamp_error = Err(Error::eval("timestamp out of range"));
        assert_eq!(Value::binop(BinOp::Add, &late, &Value::Interval(1)), stamp_error);
        assert_eq!(Value::binop(BinOp::Add, &Value::Interval(1), &late), stamp_error);
        let span_error = Err(Error::eval("interval out of range"));
        assert_eq!(Value::binop(BinOp::Sub, &Value::Timestamp(-1), &late), Ok(long.clone()));
        assert_eq!(Value::binop(BinOp::Sub, &Value::Timestamp(-2), &late), span_error);
        assert_eq!(Value::unop(UnOp::Neg, &long), span_error);
        assert_eq!(long.to_string(), "-106751991 days 4 hours 54.775808 seconds");
    }
}
