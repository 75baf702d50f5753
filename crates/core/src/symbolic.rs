//! Symbolic evaluation of SQL over decision variables.
//!
//! When SolveDB+ compiles `MINIMIZE`/`SUBJECTTO` rule queries into solver
//! input (paper §4.1), every decision cell evaluates to a *symbolic
//! linear expression* instead of a number. SQL arithmetic over these
//! values builds the constraint matrix directly inside query execution —
//! this is the machinery behind the "model generation time" advantage of
//! Fig. 5. Comparisons over symbolic values produce *constraint* values,
//! which the rule collector turns into LP rows.

use sqlengine::error::{Error, Result};
use sqlengine::types::custom::add_in_order;
use sqlengine::types::{custom, downcast, BinOp, CustomValue, UnOp, Value};
use std::any::Any;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Identifier of a decision variable.
pub type VarId = u32;

/// A linear expression `constant + Σ coef·var`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinExpr {
    pub constant: f64,
    /// Sorted, deduplicated terms.
    pub terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    pub fn constant(c: f64) -> LinExpr {
        LinExpr { constant: c, terms: vec![] }
    }

    pub fn var(id: VarId) -> LinExpr {
        LinExpr { constant: 0.0, terms: vec![(id, 1.0)] }
    }

    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// `a + sign·b`: one pass over the two sorted term lists, terms whose
    /// coefficient is (or cancels to) zero dropped.
    fn merge(a: &LinExpr, b: &LinExpr, sign: f64) -> LinExpr {
        let sorted = |e: &LinExpr| e.terms.windows(2).all(|w| w[0].0 < w[1].0);
        debug_assert!(sorted(a) && sorted(b), "LinExpr terms must be sorted and deduplicated");
        let mut terms = Vec::with_capacity(a.terms.len() + b.terms.len());
        let (mut i, mut j) = (0, 0);
        loop {
            // Which list holds the smaller next variable (an exhausted
            // list never does).
            let next = match (a.terms.get(i), b.terms.get(j)) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((va, _)), Some((vb, _))) => va.cmp(vb),
            };
            let (v, c) = match next {
                Ordering::Less => a.terms[i],
                Ordering::Greater => (b.terms[j].0, sign * b.terms[j].1),
                Ordering::Equal => (a.terms[i].0, a.terms[i].1 + sign * b.terms[j].1),
            };
            i += usize::from(next != Ordering::Greater);
            j += usize::from(next != Ordering::Less);
            if c != 0.0 {
                terms.push((v, c));
            }
        }
        LinExpr { constant: a.constant + sign * b.constant, terms }
    }

    pub fn add(&self, other: &LinExpr) -> LinExpr {
        LinExpr::merge(self, other, 1.0)
    }

    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        LinExpr::merge(self, other, -1.0)
    }

    pub fn scale(&self, k: f64) -> LinExpr {
        LinExpr {
            constant: self.constant * k,
            terms: self.terms.iter().map(|&(v, c)| (v, c * k)).collect(),
        }
    }

    pub fn neg(&self) -> LinExpr {
        self.scale(-1.0)
    }

    /// Evaluate under an assignment.
    pub fn eval(&self, x: &dyn Fn(VarId) -> f64) -> f64 {
        self.constant + self.terms.iter().map(|&(v, c)| c * x(v)).sum::<f64>()
    }

    /// Variables referenced by this expression.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }
}

/// Extract a linear expression from a runtime value: numbers become
/// constants, symbolic values pass through.
pub fn as_linexpr(v: &Value) -> Result<LinExpr> {
    linexpr_of(v).map(Cow::into_owned)
}

/// [`as_linexpr`] without the copy of a symbolic value's expression.
fn linexpr_of(v: &Value) -> Result<Cow<'_, LinExpr>> {
    if let Some(sym) = downcast::<SymValue>(v) {
        return Ok(Cow::Borrowed(&sym.0));
    }
    match v {
        Value::Int(i) => Ok(Cow::Owned(LinExpr::constant(*i as f64))),
        Value::Float(f) => Ok(Cow::Owned(LinExpr::constant(*f))),
        Value::Null => {
            Err(Error::solver("NULL encountered where a linear expression was expected"))
        }
        other => Err(Error::solver(format!(
            "cannot interpret {} as a linear expression",
            other.data_type().sql_name()
        ))),
    }
}

/// Wrap a linear expression as a SQL value.
pub fn sym_value(e: LinExpr) -> Value {
    if e.is_constant() {
        Value::Float(e.constant)
    } else {
        custom(SymValue(e))
    }
}

/// The custom SQL value carrying a [`LinExpr`]. Overloads arithmetic and
/// comparisons; comparisons yield [`ConstraintValue`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct SymValue(pub LinExpr);

impl CustomValue for SymValue {
    fn type_name(&self) -> &str {
        "linexpr"
    }

    fn to_text(&self) -> String {
        let mut s = String::new();
        for (i, (v, c)) in self.0.terms.iter().enumerate() {
            if i > 0 {
                s.push_str(" + ");
            }
            s.push_str(&format!("{c}*x{v}"));
        }
        if self.0.constant != 0.0 || self.0.terms.is_empty() {
            if !s.is_empty() {
                s.push_str(" + ");
            }
            s.push_str(&format!("{}", self.0.constant));
        }
        s
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn eq_custom(&self, other: &dyn CustomValue) -> bool {
        other.as_any().downcast_ref::<SymValue>() == Some(self)
    }

    fn binop(&self, op: BinOp, other: &Value, self_is_lhs: bool) -> Option<Result<Value>> {
        // NULL propagates like in plain SQL arithmetic.
        if other.is_null() {
            return Some(Ok(Value::Null));
        }
        let other_lin = match linexpr_of(other) {
            Ok(l) => l,
            Err(e) => {
                return Some(Err(Error::solver(format!(
                    "operator {} between a decision expression and {}: {e}",
                    op.symbol(),
                    other.data_type().sql_name()
                ))))
            }
        };
        let (lhs, rhs): (&LinExpr, &LinExpr) =
            if self_is_lhs { (&self.0, &other_lin) } else { (&other_lin, &self.0) };
        let result: Result<Value> = match op {
            BinOp::Add => Ok(sym_value(lhs.add(rhs))),
            BinOp::Sub => Ok(sym_value(lhs.sub(rhs))),
            BinOp::Mul => {
                if lhs.is_constant() {
                    Ok(sym_value(rhs.scale(lhs.constant)))
                } else if rhs.is_constant() {
                    Ok(sym_value(lhs.scale(rhs.constant)))
                } else {
                    Err(Error::non_linear(
                        "product of two decision expressions is not linear (use a black-box solver)",
                    ))
                }
            }
            BinOp::Div => {
                if rhs.is_constant() {
                    if rhs.constant == 0.0 {
                        Err(Error::eval("division by zero"))
                    } else {
                        Ok(sym_value(lhs.scale(1.0 / rhs.constant)))
                    }
                } else {
                    Err(Error::non_linear("division by a decision expression is not linear"))
                }
            }
            BinOp::Pow => {
                if rhs.is_constant() && rhs.constant == 1.0 {
                    Ok(sym_value(lhs.clone()))
                } else {
                    Err(Error::non_linear(
                        "exponentiation of decision expressions is not linear (use a black-box solver)",
                    ))
                }
            }
            op if op.is_comparison() => {
                let Some(rel) = Rel::of(op) else {
                    return Some(Err(Error::non_linear(
                        "'<>' constraints are not representable in a linear program",
                    )));
                };
                Ok(constraint_value(ConstraintValue::Cmp {
                    lhs: lhs.clone(),
                    rel,
                    rhs: rhs.clone(),
                }))
            }
            other_op => Err(Error::solver(format!(
                "operator {} is not defined for decision expressions",
                other_op.symbol()
            ))),
        };
        Some(result)
    }

    fn unop(&self, op: UnOp) -> Option<Result<Value>> {
        match op {
            UnOp::Neg => Some(Ok(sym_value(self.0.neg()))),
            _ => Some(Err(Error::solver(format!(
                "operator {} is not defined for decision expressions",
                op.symbol()
            )))),
        }
    }

    /// The pairwise fold's sum in one pass: the constants added in order;
    /// every term taken, stably sorted by variable, and each variable's
    /// coefficients added in input order, zeros dropped at the end. That
    /// is the fold bit for bit: it adds the same numbers in the same order
    /// per variable, and where the fold drops a coefficient that cancelled
    /// to zero and restarts from the next, adding that one to zero is
    /// exact. Values other than numbers and linear expressions (or a lone
    /// value) take the fold, errors included.
    fn sum(&self, values: &[Value]) -> Result<Value> {
        let mut constant: Option<f64> = None;
        let mut terms = Vec::new();
        for v in values {
            let (c, t) = match (v, downcast::<SymValue>(v)) {
                (Value::Int(i), _) => (*i as f64, &[][..]),
                (Value::Float(f), _) => (*f, &[][..]),
                (_, Some(s)) if values.len() > 1 => (s.0.constant, &s.0.terms[..]),
                _ => return add_in_order(values),
            };
            constant = Some(constant.map_or(c, |sum| sum + c));
            terms.extend_from_slice(t);
        }
        terms.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match merged.last_mut() {
                Some((u, sum)) if *u == v => *sum += c,
                _ => merged.push((v, c)),
            }
        }
        merged.retain(|&(_, c)| c != 0.0);
        Ok(sym_value(LinExpr { constant: constant.unwrap_or(0.0), terms: merged }))
    }

    fn cast(&self, type_name: &str) -> Option<Result<Value>> {
        // Allow no-op numeric casts so `x::float8` works on decision cells.
        match type_name {
            "float8" | "float" | "double precision" | "numeric" | "int8" | "int4" | "int"
            | "integer" | "bigint" | "real" => Some(Ok(custom(self.clone()))),
            _ => None,
        }
    }
}

/// Linear constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    Le,
    Eq,
    Ge,
}

impl Rel {
    /// The relation a comparison operator states between two linear
    /// expressions (a strict one as its closure); `None` for `<>` and for
    /// operators that compare nothing.
    pub fn of(op: BinOp) -> Option<Rel> {
        match op {
            BinOp::Le | BinOp::Lt => Some(Rel::Le),
            BinOp::Ge | BinOp::Gt => Some(Rel::Ge),
            BinOp::Eq => Some(Rel::Eq),
            _ => None,
        }
    }
}

impl std::fmt::Display for Rel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rel::Le => "<=",
            Rel::Eq => "=",
            Rel::Ge => ">=",
        })
    }
}

/// A constraint produced by comparing symbolic values: a single
/// comparison or a conjunction (from chained comparisons / `AND`).
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintValue {
    Cmp { lhs: LinExpr, rel: Rel, rhs: LinExpr },
    And(Vec<ConstraintValue>),
}

impl ConstraintValue {
    /// Flatten to a list of atomic comparisons.
    pub fn atoms(&self) -> Vec<(&LinExpr, Rel, &LinExpr)> {
        match self {
            ConstraintValue::Cmp { lhs, rel, rhs } => vec![(lhs, *rel, rhs)],
            ConstraintValue::And(cs) => cs.iter().flat_map(|c| c.atoms()).collect(),
        }
    }

    /// Is the constraint satisfied under an assignment (within `tol`)?
    pub fn satisfied(&self, x: &dyn Fn(VarId) -> f64, tol: f64) -> bool {
        self.atoms().iter().all(|(l, rel, r)| {
            let a = l.eval(x);
            let b = r.eval(x);
            match rel {
                Rel::Le => a <= b + tol,
                Rel::Ge => a >= b - tol,
                Rel::Eq => (a - b).abs() <= tol,
            }
        })
    }

    /// Total violation magnitude under an assignment (for penalties).
    pub fn violation(&self, x: &dyn Fn(VarId) -> f64) -> f64 {
        self.atoms()
            .iter()
            .map(|(l, rel, r)| {
                let a = l.eval(x);
                let b = r.eval(x);
                match rel {
                    Rel::Le => (a - b).max(0.0),
                    Rel::Ge => (b - a).max(0.0),
                    Rel::Eq => (a - b).abs(),
                }
            })
            .sum()
    }
}

/// Wrap a constraint as a SQL value.
pub fn constraint_value(c: ConstraintValue) -> Value {
    custom(ConstraintVal(c))
}

/// Custom SQL value carrying a [`ConstraintValue`]; supports `AND`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintVal(pub ConstraintValue);

impl CustomValue for ConstraintVal {
    fn type_name(&self) -> &str {
        "constraint"
    }

    fn to_text(&self) -> String {
        self.0
            .atoms()
            .iter()
            .map(|(l, rel, r)| {
                format!(
                    "{} {rel} {}",
                    SymValue((*l).clone()).to_text(),
                    SymValue((*r).clone()).to_text()
                )
            })
            .collect::<Vec<_>>()
            .join(" AND ")
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn eq_custom(&self, other: &dyn CustomValue) -> bool {
        other.as_any().downcast_ref::<ConstraintVal>() == Some(self)
    }

    fn binop(&self, op: BinOp, other: &Value, _self_is_lhs: bool) -> Option<Result<Value>> {
        match (op, other) {
            (BinOp::And, Value::Bool(true)) => Some(Ok(custom(self.clone()))),
            (BinOp::And, Value::Bool(false)) => Some(Ok(Value::Bool(false))),
            (BinOp::And, Value::Null) => {
                Some(Err(Error::solver("cannot AND a constraint with NULL")))
            }
            (BinOp::And, v) => {
                if let Some(o) = downcast::<ConstraintVal>(v) {
                    Some(Ok(constraint_value(ConstraintValue::And(vec![
                        self.0.clone(),
                        o.0.clone(),
                    ]))))
                } else {
                    Some(Err(Error::solver(format!(
                        "cannot AND a constraint with {}",
                        v.data_type().sql_name()
                    ))))
                }
            }
            (BinOp::Or, _) => Some(Err(Error::non_linear(
                "disjunctive constraints are not representable in a linear program",
            ))),
            _ => Some(Err(Error::solver(format!(
                "operator {} is not defined for constraints",
                op.symbol()
            )))),
        }
    }

    fn unop(&self, op: UnOp) -> Option<Result<Value>> {
        Some(Err(Error::solver(format!("operator {} is not defined for constraints", op.symbol()))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn v(id: VarId) -> Value {
        sym_value(LinExpr::var(id))
    }

    /// The merge `LinExpr::merge` replaced: a tree insert per term.
    fn merge_by_map(a: &LinExpr, b: &LinExpr, sign: f64) -> LinExpr {
        let mut map: BTreeMap<VarId, f64> = a.terms.iter().copied().collect();
        for &(v, c) in &b.terms {
            *map.entry(v).or_insert(0.0) += sign * c;
        }
        LinExpr {
            constant: a.constant + sign * b.constant,
            terms: map.into_iter().filter(|(_, c)| *c != 0.0).collect(),
        }
    }

    /// Sorted, deduplicated terms over few variables and few small
    /// coefficients (zero among them), so that shared variables and
    /// cancelling coefficients are the common case.
    fn arb_linexpr() -> impl Strategy<Value = LinExpr> {
        (-3i32..4, prop::collection::vec((0u32..12, -2i32..3), 0..10)).prop_map(|(k, picks)| {
            let terms: BTreeMap<VarId, f64> =
                picks.into_iter().map(|(v, c)| (v, c as f64 * 0.5)).collect();
            LinExpr { constant: k as f64, terms: terms.into_iter().collect() }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn merge_equals_the_map_merge_term_for_term(
            a in arb_linexpr(),
            b in arb_linexpr(),
            sign in prop_oneof![Just(1.0f64), Just(-1.0f64)],
        ) {
            let (got, want) = (LinExpr::merge(&a, &b, sign), merge_by_map(&a, &b, sign));
            prop_assert_eq!(got.constant.to_bits(), want.constant.to_bits());
            let bits = |e: &LinExpr| e.terms.iter().map(|&(v, c)| (v, c.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn arithmetic_builds_linear_forms() {
        // 2*x0 + 3 - x1/2
        let e = Value::binop(BinOp::Mul, &Value::Int(2), &v(0)).unwrap();
        let e = Value::binop(BinOp::Add, &e, &Value::Int(3)).unwrap();
        let half = Value::binop(BinOp::Div, &v(1), &Value::Float(2.0)).unwrap();
        let e = Value::binop(BinOp::Sub, &e, &half).unwrap();
        let lin = as_linexpr(&e).unwrap();
        assert_eq!(lin.constant, 3.0);
        assert_eq!(lin.terms, vec![(0, 2.0), (1, -0.5)]);
    }

    #[test]
    fn constants_collapse_to_floats() {
        let zero = Value::binop(BinOp::Sub, &v(0), &v(0)).unwrap();
        assert_eq!(zero, Value::Float(0.0));
    }

    #[test]
    fn nonlinear_products_error() {
        assert!(Value::binop(BinOp::Mul, &v(0), &v(1)).is_err());
        assert!(Value::binop(BinOp::Div, &Value::Int(1), &v(0)).is_err());
        assert!(Value::binop(BinOp::Pow, &v(0), &Value::Int(2)).is_err());
    }

    #[test]
    fn comparison_yields_constraint() {
        let c = Value::binop(BinOp::Le, &v(0), &Value::Int(5)).unwrap();
        let cv = downcast::<ConstraintVal>(&c).unwrap();
        let atoms = cv.0.atoms();
        assert_eq!(atoms.len(), 1);
        assert_eq!(atoms[0].1, Rel::Le);
        // x0 <= 5 with x0 = 3 holds; x0 = 7 violates by 2.
        assert!(cv.0.satisfied(&|_| 3.0, 1e-9));
        assert_eq!(cv.0.violation(&|_| 7.0), 2.0);
    }

    #[test]
    fn reversed_operand_side() {
        // 5 >= x0 (sym on rhs).
        let c = Value::binop(BinOp::Ge, &Value::Int(5), &v(0)).unwrap();
        let cv = downcast::<ConstraintVal>(&c).unwrap();
        let (l, rel, r) = (cv.0.atoms()[0].0, cv.0.atoms()[0].1, cv.0.atoms()[0].2);
        assert_eq!(rel, Rel::Ge);
        assert!(l.is_constant() && l.constant == 5.0);
        assert_eq!(r.terms, vec![(0, 1.0)]);
    }

    #[test]
    fn and_composes_constraints() {
        let c1 = Value::binop(BinOp::Ge, &v(0), &Value::Int(0)).unwrap();
        let c2 = Value::binop(BinOp::Le, &v(0), &Value::Int(5)).unwrap();
        let both = Value::binop(BinOp::And, &c1, &c2).unwrap();
        let cv = downcast::<ConstraintVal>(&both).unwrap();
        assert_eq!(cv.0.atoms().len(), 2);
        // AND with TRUE keeps the constraint; with FALSE collapses.
        let keep = Value::binop(BinOp::And, &c1, &Value::Bool(true)).unwrap();
        assert!(downcast::<ConstraintVal>(&keep).is_some());
        let dead = Value::binop(BinOp::And, &c1, &Value::Bool(false)).unwrap();
        assert_eq!(dead, Value::Bool(false));
    }

    #[test]
    fn neq_is_rejected() {
        assert!(Value::binop(BinOp::Ne, &v(0), &Value::Int(1)).is_err());
    }

    #[test]
    fn negation_and_null() {
        let n = Value::unop(UnOp::Neg, &v(0)).unwrap();
        let lin = as_linexpr(&n).unwrap();
        assert_eq!(lin.terms, vec![(0, -1.0)]);
        assert!(Value::binop(BinOp::Add, &v(0), &Value::Null).unwrap().is_null());
    }

    #[test]
    fn eval_under_assignment() {
        let e = LinExpr { constant: 1.0, terms: vec![(0, 2.0), (3, -1.0)] };
        assert_eq!(e.eval(&|v| v as f64), 1.0 + 0.0 - 3.0);
    }

    #[test]
    fn numeric_cast_is_noop() {
        use sqlengine::DataType;
        let x = v(0);
        let casted = x.cast(&DataType::Float).unwrap();
        assert!(downcast::<SymValue>(&casted).is_some());
        assert!(x.cast(&DataType::Text).is_err());
    }
}
