//! Extension values (user-defined types).
//!
//! SolveDB+ stores optimization models as first-class values in tables
//! (paper §4.4) and evaluates SQL expressions over *symbolic* decision
//! variables when compiling `MINIMIZE`/`SUBJECTTO` rules into solver
//! input. Both are implemented outside the engine as [`CustomValue`]
//! implementations; the engine only knows how to route operators, casts
//! and display through this trait — the same role `CREATE TYPE` plays in
//! PostgreSQL.

use crate::error::Result;
use crate::types::ops::{BinOp, UnOp};
use crate::types::value::Value;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A value of a user-defined type.
pub trait CustomValue: fmt::Debug + Send + Sync {
    /// Lower-case type name, e.g. `"model"` or `"linexpr"`.
    fn type_name(&self) -> &str;

    /// Textual rendering (what `SELECT` output shows).
    fn to_text(&self) -> String;

    /// Downcasting support.
    fn as_any(&self) -> &dyn Any;

    /// Equality against another custom value of (possibly) the same type.
    fn eq_custom(&self, _other: &dyn CustomValue) -> bool {
        false
    }

    /// Try to apply a binary operator. `self` sits on the left-hand side
    /// when `self_is_lhs` is true. Return `None` to signal "operator not
    /// supported by this type" (which surfaces as a type error).
    fn binop(&self, _op: BinOp, _other: &Value, _self_is_lhs: bool) -> Option<Result<Value>> {
        None
    }

    /// Try to apply a unary operator.
    fn unop(&self, _op: UnOp) -> Option<Result<Value>> {
        None
    }

    /// Try to cast to a named type (`value::mytype` syntax).
    fn cast(&self, _type_name: &str) -> Option<Result<Value>> {
        None
    }

    /// What `sum` over `values` returns — `self` is the first custom value
    /// among them, NULLs are gone: the values added left to right with
    /// `+`. A type that can add many values at once overrides it with
    /// something faster that returns the same value.
    fn sum(&self, values: &[Value]) -> Result<Value> {
        add_in_order(values)
    }
}

/// `values` added left to right with `+`: `((v₀ + v₁) + v₂) + …`; NULL
/// when there are none.
pub fn add_in_order(values: &[Value]) -> Result<Value> {
    let mut values = values.iter();
    let first = values.next().cloned().unwrap_or(Value::Null);
    values.try_fold(first, |sum, v| Value::binop(BinOp::Add, &sum, v))
}

/// Convenience: wrap a custom value.
pub fn custom(v: impl CustomValue + 'static) -> Value {
    Value::Custom(Arc::new(v))
}

/// Downcast a [`Value`] to a concrete custom type.
pub fn downcast<T: 'static>(v: &Value) -> Option<&T> {
    match v {
        Value::Custom(c) => c.as_any().downcast_ref::<T>(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[derive(Debug, PartialEq)]
    struct Complexish(f64, f64);

    impl CustomValue for Complexish {
        fn type_name(&self) -> &str {
            "complexish"
        }
        fn to_text(&self) -> String {
            format!("({},{})", self.0, self.1)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn eq_custom(&self, other: &dyn CustomValue) -> bool {
            other.as_any().downcast_ref::<Complexish>() == Some(self)
        }
        fn binop(&self, op: BinOp, other: &Value, _lhs: bool) -> Option<Result<Value>> {
            match (op, other) {
                (BinOp::Add, Value::Custom(c)) => {
                    let o = c.as_any().downcast_ref::<Complexish>()?;
                    Some(Ok(custom(Complexish(self.0 + o.0, self.1 + o.1))))
                }
                (BinOp::Add, _) => Some(Err(Error::eval("complexish + non-complexish"))),
                _ => None,
            }
        }
    }

    #[test]
    fn downcast_and_ops_route_through_trait() {
        let a = custom(Complexish(1.0, 2.0));
        let b = custom(Complexish(3.0, 4.0));
        let Value::Custom(ca) = &a else { panic!() };
        let sum = ca.binop(BinOp::Add, &b, true).unwrap().unwrap();
        let c = downcast::<Complexish>(&sum).unwrap();
        assert_eq!((c.0, c.1), (4.0, 6.0));
        assert!(ca.binop(BinOp::Mul, &b, true).is_none());
    }

    #[test]
    fn custom_equality() {
        let a = custom(Complexish(1.0, 2.0));
        let b = custom(Complexish(1.0, 2.0));
        let (Value::Custom(ca), Value::Custom(cb)) = (&a, &b) else { panic!() };
        assert!(ca.eq_custom(cb.as_ref()));
    }
}
