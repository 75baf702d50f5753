//! Built-in scalar functions.

use crate::error::{Error, Result};
use crate::types::value::Word;
use crate::types::{timeval, DataType, Value};

/// A built-in scalar function. `strict` functions return NULL when any
/// argument is NULL without running the body (PostgreSQL STRICT).
pub struct BuiltinFn {
    pub name: &'static str,
    pub min_args: usize,
    pub max_args: usize,
    pub strict: bool,
    pub f: fn(&[Value]) -> Result<Value>,
}

macro_rules! f1 {
    ($args:expr, $method:ident) => {{
        Ok(Value::Float($args[0].as_f64()?.$method()))
    }};
}

fn num2(args: &[Value], f: fn(f64, f64) -> f64) -> Result<Value> {
    Ok(Value::Float(f(args[0].as_f64()?, args[1].as_f64()?)))
}

fn ts_field(args: &[Value], pick: fn(timeval::Civil) -> i64) -> Result<Value> {
    match &args[0] {
        Value::Timestamp(t) => Ok(Value::Int(pick(timeval::decompose(*t)))),
        other => {
            Err(Error::eval(format!("expected a timestamp, got {}", other.data_type().sql_name())))
        }
    }
}

static BUILTINS: &[BuiltinFn] = &[
    BuiltinFn {
        name: "abs",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| match &a[0] {
            Value::Int(i) => i.checked_abs().map(Value::Int).ok_or_else(|| Word::Int.overflow()),
            v => Ok(Value::Float(v.as_f64()?.abs())),
        },
    },
    BuiltinFn { name: "ceil", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, ceil) },
    BuiltinFn { name: "ceiling", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, ceil) },
    BuiltinFn { name: "floor", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, floor) },
    BuiltinFn {
        name: "round",
        min_args: 1,
        max_args: 2,
        strict: true,
        f: |a| {
            let x = a[0].as_f64()?;
            if a.len() == 2 {
                let digits = i32::try_from(a[1].as_i64()?)
                    .map_err(|_| Error::eval("round: number of digits out of range"))?;
                let scale = 10f64.powi(digits);
                Ok(Value::Float((x * scale).round() / scale))
            } else {
                Ok(Value::Float(x.round()))
            }
        },
    },
    BuiltinFn { name: "trunc", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, trunc) },
    BuiltinFn {
        name: "sqrt",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| {
            let x = a[0].as_f64()?;
            if x < 0.0 {
                Err(Error::eval("cannot take square root of a negative number"))
            } else {
                Ok(Value::Float(x.sqrt()))
            }
        },
    },
    BuiltinFn { name: "exp", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, exp) },
    BuiltinFn {
        name: "ln",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| {
            let x = a[0].as_f64()?;
            if x <= 0.0 {
                Err(Error::eval("cannot take logarithm of a non-positive number"))
            } else {
                Ok(Value::Float(x.ln()))
            }
        },
    },
    BuiltinFn {
        name: "log",
        min_args: 1,
        max_args: 2,
        strict: true,
        f: |a| {
            if a.len() == 2 {
                num2(a, |b, x| x.log(b))
            } else {
                Ok(Value::Float(a[0].as_f64()?.log10()))
            }
        },
    },
    BuiltinFn { name: "power", min_args: 2, max_args: 2, strict: true, f: |a| num2(a, f64::powf) },
    BuiltinFn { name: "pow", min_args: 2, max_args: 2, strict: true, f: |a| num2(a, f64::powf) },
    BuiltinFn {
        name: "sign",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| {
            Ok(Value::Float(
                a[0].as_f64()?.signum().min(1.0).max(-1.0)
                    * if a[0].as_f64()? == 0.0 { 0.0 } else { 1.0 },
            ))
        },
    },
    BuiltinFn {
        name: "pi",
        min_args: 0,
        max_args: 0,
        strict: true,
        f: |_| Ok(Value::Float(std::f64::consts::PI)),
    },
    BuiltinFn { name: "sin", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, sin) },
    BuiltinFn { name: "cos", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, cos) },
    BuiltinFn { name: "tan", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, tan) },
    BuiltinFn { name: "asin", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, asin) },
    BuiltinFn { name: "acos", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, acos) },
    BuiltinFn { name: "atan", min_args: 1, max_args: 1, strict: true, f: |a| f1!(a, atan) },
    BuiltinFn { name: "atan2", min_args: 2, max_args: 2, strict: true, f: |a| num2(a, f64::atan2) },
    BuiltinFn {
        name: "mod",
        min_args: 2,
        max_args: 2,
        strict: true,
        f: |a| Value::binop(crate::types::BinOp::Mod, &a[0], &a[1]),
    },
    BuiltinFn {
        name: "least",
        min_args: 1,
        max_args: usize::MAX,
        strict: false,
        f: |a| {
            Ok(a.iter()
                .filter(|v| !v.is_null())
                .min_by(|x, y| x.cmp_total(y))
                .cloned()
                .unwrap_or(Value::Null))
        },
    },
    BuiltinFn {
        name: "greatest",
        min_args: 1,
        max_args: usize::MAX,
        strict: false,
        f: |a| {
            Ok(a.iter()
                .filter(|v| !v.is_null())
                .max_by(|x, y| x.cmp_total(y))
                .cloned()
                .unwrap_or(Value::Null))
        },
    },
    BuiltinFn {
        name: "coalesce",
        min_args: 1,
        max_args: usize::MAX,
        strict: false,
        f: |a| Ok(a.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null)),
    },
    BuiltinFn {
        name: "nullif",
        min_args: 2,
        max_args: 2,
        strict: false,
        f: |a| {
            if !a[0].is_null() && !a[1].is_null() && a[0].sql_eq(&a[1])? {
                Ok(Value::Null)
            } else {
                Ok(a[0].clone())
            }
        },
    },
    BuiltinFn {
        name: "not_distinct",
        min_args: 2,
        max_args: 2,
        strict: false,
        f: |a| {
            let b = match (a[0].is_null(), a[1].is_null()) {
                (true, true) => true,
                (true, false) | (false, true) => false,
                (false, false) => a[0].sql_eq(&a[1])?,
            };
            Ok(Value::Bool(b))
        },
    },
    BuiltinFn {
        name: "length",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| Ok(Value::Int(a[0].as_str()?.chars().count() as i64)),
    },
    BuiltinFn {
        name: "lower",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| Ok(Value::text(a[0].as_str()?.to_lowercase())),
    },
    BuiltinFn {
        name: "upper",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| Ok(Value::text(a[0].as_str()?.to_uppercase())),
    },
    BuiltinFn { name: "substr", min_args: 2, max_args: 3, strict: true, f: substr },
    BuiltinFn { name: "substring", min_args: 2, max_args: 3, strict: true, f: substr },
    BuiltinFn {
        name: "replace",
        min_args: 3,
        max_args: 3,
        strict: true,
        f: |a| Ok(Value::text(a[0].as_str()?.replace(a[1].as_str()?, a[2].as_str()?))),
    },
    BuiltinFn {
        name: "trim",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| Ok(Value::text(a[0].as_str()?.trim())),
    },
    BuiltinFn {
        name: "ltrim",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| Ok(Value::text(a[0].as_str()?.trim_start())),
    },
    BuiltinFn {
        name: "rtrim",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| Ok(Value::text(a[0].as_str()?.trim_end())),
    },
    BuiltinFn {
        name: "concat",
        min_args: 0,
        max_args: usize::MAX,
        strict: false,
        f: |a| {
            let mut s = String::new();
            for v in a {
                if !v.is_null() {
                    s.push_str(&v.to_string());
                }
            }
            Ok(Value::text(s))
        },
    },
    BuiltinFn {
        name: "year",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| ts_field(a, |c| c.year),
    },
    BuiltinFn {
        name: "month",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| ts_field(a, |c| c.month as i64),
    },
    BuiltinFn {
        name: "day",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| ts_field(a, |c| c.day as i64),
    },
    BuiltinFn {
        name: "hour",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| ts_field(a, |c| c.hour as i64),
    },
    BuiltinFn {
        name: "minute",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| ts_field(a, |c| c.minute as i64),
    },
    BuiltinFn {
        name: "second",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| ts_field(a, |c| c.second as i64),
    },
    BuiltinFn {
        name: "epoch",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| match &a[0] {
            Value::Timestamp(t) | Value::Interval(t) => Ok(Value::Float(*t as f64 / 1e6)),
            other => Err(Error::eval(format!(
                "epoch() expects a timestamp or interval, got {}",
                other.data_type().sql_name()
            ))),
        },
    },
    BuiltinFn {
        name: "dow",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| match &a[0] {
            // 0 = Sunday, as in PostgreSQL's extract(dow ...).
            Value::Timestamp(t) => {
                let days = t.div_euclid(timeval::MICROS_PER_DAY);
                Ok(Value::Int((days + 4).rem_euclid(7)))
            }
            other => Err(Error::eval(format!(
                "dow() expects a timestamp, got {}",
                other.data_type().sql_name()
            ))),
        },
    },
    BuiltinFn {
        name: "date_trunc",
        min_args: 2,
        max_args: 2,
        strict: true,
        f: |a| {
            let unit = a[0].as_str()?.to_ascii_lowercase();
            let Value::Timestamp(t) = &a[1] else {
                return Err(Error::eval("date_trunc() expects a timestamp"));
            };
            let mut c = timeval::decompose(*t);
            c.micros = 0;
            match unit.as_str() {
                "minute" => c.second = 0,
                "hour" => {
                    c.second = 0;
                    c.minute = 0;
                }
                "day" => {
                    c.second = 0;
                    c.minute = 0;
                    c.hour = 0;
                }
                "month" => {
                    c.second = 0;
                    c.minute = 0;
                    c.hour = 0;
                    c.day = 1;
                }
                "year" => {
                    c.second = 0;
                    c.minute = 0;
                    c.hour = 0;
                    c.day = 1;
                    c.month = 1;
                }
                other => return Err(Error::eval(format!("unknown date_trunc unit '{other}'"))),
            }
            Ok(Value::Timestamp(timeval::compose(c)))
        },
    },
    BuiltinFn {
        name: "to_timestamp",
        min_args: 1,
        max_args: 1,
        strict: true,
        f: |a| match &a[0] {
            Value::Text(s) => Ok(Value::Timestamp(timeval::parse_timestamp(s)?)),
            v => Ok(Value::Timestamp((v.as_f64()? * 1e6) as i64)),
        },
    },
    BuiltinFn {
        name: "isnull",
        min_args: 1,
        max_args: 1,
        strict: false,
        f: |a| Ok(Value::Bool(a[0].is_null())),
    },
    BuiltinFn {
        name: "typeof",
        min_args: 1,
        max_args: 1,
        strict: false,
        f: |a| Ok(Value::text(a[0].data_type().sql_name())),
    },
];

fn substr(a: &[Value]) -> Result<Value> {
    let s = a[0].as_str()?;
    let chars: Vec<char> = s.chars().collect();
    // SQL substr is 1-based.
    let start = (a[1].as_i64()? - 1).max(0) as usize;
    let len = if a.len() == 3 {
        let l = a[2].as_i64()?;
        if l < 0 {
            return Err(Error::eval("negative substring length"));
        }
        l as usize
    } else {
        chars.len().saturating_sub(start)
    };
    Ok(Value::text(chars.iter().skip(start).take(len).collect::<String>()))
}

/// Look up a built-in by (lower-case) name.
pub fn lookup(name: &str) -> Option<&'static BuiltinFn> {
    BUILTINS.iter().find(|b| b.name == name)
}

/// Names of aggregate functions recognised by the engine.
pub fn is_aggregate(name: &str) -> bool {
    matches!(
        name,
        "count"
            | "sum"
            | "avg"
            | "min"
            | "max"
            | "stddev"
            | "stddev_samp"
            | "stddev_pop"
            | "variance"
            | "var_samp"
            | "var_pop"
            | "bool_and"
            | "bool_or"
            | "string_agg"
    )
}

/// Call a builtin, handling arity and strictness. Exposed for solvers
/// that evaluate expressions outside query execution.
pub fn call(b: &BuiltinFn, args: &[Value]) -> Result<Value> {
    if args.len() < b.min_args || args.len() > b.max_args {
        return Err(Error::eval(format!(
            "function {}() called with {} arguments",
            b.name,
            args.len()
        )));
    }
    if b.strict && args.iter().any(|v| v.is_null()) {
        return Ok(Value::Null);
    }
    (b.f)(args)
}

/// Ensure `DataType` is nameable from here (used in error paths).
#[allow(dead_code)]
fn _uses(_: DataType) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn call_named(name: &str, args: &[Value]) -> Result<Value> {
        call(lookup(name).unwrap(), args)
    }

    #[test]
    fn math_functions() {
        assert_eq!(call_named("abs", &[Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(call_named("ceil", &[Value::Float(1.2)]).unwrap(), Value::Float(2.0));
        assert_eq!(
            call_named("round", &[Value::Float(2.567), Value::Int(1)]).unwrap(),
            Value::Float(2.6)
        );
        assert_eq!(call_named("sqrt", &[Value::Float(9.0)]).unwrap(), Value::Float(3.0));
        assert!(call_named("sqrt", &[Value::Float(-1.0)]).is_err());
        assert!(call_named("ln", &[Value::Float(0.0)]).is_err());
    }

    #[test]
    fn results_out_of_range_are_errors() {
        let err = |name: &str, args: &[Value]| call_named(name, args).unwrap_err().to_string();
        assert_eq!(err("abs", &[Value::Int(i64::MIN)]), "evaluation error: integer overflow");
        assert_eq!(call_named("abs", &[Value::Int(-i64::MAX)]).unwrap(), Value::Int(i64::MAX));
        let digits = |d: i64| call_named("round", &[Value::Float(1.55), Value::Int(d)]);
        assert_eq!(digits(-1).unwrap(), Value::Float(0.0));
        for d in [4_294_967_297, i32::MAX as i64 + 1, i32::MIN as i64 - 1] {
            let e = digits(d).unwrap_err().to_string();
            assert_eq!(e, "evaluation error: round: number of digits out of range");
        }
    }

    #[test]
    fn strictness() {
        assert!(call_named("abs", &[Value::Null]).unwrap().is_null());
        assert_eq!(call_named("coalesce", &[Value::Null, Value::Int(2)]).unwrap(), Value::Int(2));
    }

    #[test]
    fn string_functions() {
        assert_eq!(call_named("upper", &[Value::text("ab")]).unwrap(), Value::text("AB"));
        assert_eq!(
            call_named("substr", &[Value::text("hello"), Value::Int(2), Value::Int(3)]).unwrap(),
            Value::text("ell")
        );
        assert_eq!(call_named("length", &[Value::text("héllo")]).unwrap(), Value::Int(5));
        assert_eq!(
            call_named("concat", &[Value::text("a"), Value::Null, Value::Int(1)]).unwrap(),
            Value::text("a1")
        );
    }

    #[test]
    fn time_functions() {
        let ts = Value::Timestamp(timeval::parse_timestamp("2017-07-02 07:30:15").unwrap());
        assert_eq!(call_named("month", &[ts.clone()]).unwrap(), Value::Int(7));
        assert_eq!(call_named("year", &[ts.clone()]).unwrap(), Value::Int(2017));
        assert_eq!(call_named("hour", &[ts.clone()]).unwrap(), Value::Int(7));
        // 2017-07-02 was a Sunday.
        assert_eq!(call_named("dow", &[ts.clone()]).unwrap(), Value::Int(0));
        let truncated = call_named("date_trunc", &[Value::text("hour"), ts]).unwrap();
        assert_eq!(
            truncated,
            Value::Timestamp(timeval::parse_timestamp("2017-07-02 07:00:00").unwrap())
        );
    }

    #[test]
    fn nullif_and_not_distinct() {
        assert!(call_named("nullif", &[Value::Int(1), Value::Int(1)]).unwrap().is_null());
        assert_eq!(call_named("nullif", &[Value::Int(1), Value::Int(2)]).unwrap(), Value::Int(1));
        assert_eq!(
            call_named("not_distinct", &[Value::Null, Value::Null]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            call_named("not_distinct", &[Value::Null, Value::Int(1)]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn arity_errors() {
        assert!(call_named("abs", &[]).is_err());
        assert!(call_named("abs", &[Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn aggregate_names() {
        assert!(is_aggregate("sum"));
        assert!(is_aggregate("count"));
        assert!(!is_aggregate("abs"));
    }
}

impl std::fmt::Debug for BuiltinFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BuiltinFn({})", self.name)
    }
}
