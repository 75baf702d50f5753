//! Expression binding and evaluation.
//!
//! Expressions are *bound* once per SELECT block — names resolved to
//! (scope depth, column index), functions resolved to implementations —
//! and then evaluated per row. Binding is what makes repeated evaluation
//! (black-box solver fitness loops, §5.3 of the paper) cheap.

use crate::ast::{Expr, FuncArg, Literal, Query, SolveStmt};
use crate::catalog::{Ctes, Database, ScalarUdf};
use crate::error::{Error, Result};
use crate::exec::funcs::{self, BuiltinFn};
use crate::exec::subquery::run_subquery;
use crate::types::{BinOp, BitString, DataType, UnOp, Value};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Scopes and row environments
// ---------------------------------------------------------------------------

/// One visible column in a scope.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeCol {
    /// Table alias qualifying the column, if any.
    pub qualifier: Option<String>,
    pub name: String,
    pub ty: DataType,
}

/// The set of columns visible to expressions at some point of a query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scope {
    pub cols: Vec<ScopeCol>,
}

impl Scope {
    pub fn new(cols: Vec<ScopeCol>) -> Scope {
        Scope { cols }
    }

    /// Scope over a base table's columns under an alias.
    pub fn from_schema(qualifier: Option<&str>, schema: &crate::table::Schema) -> Scope {
        Scope {
            cols: schema
                .columns
                .iter()
                .map(|c| ScopeCol {
                    qualifier: qualifier.map(|q| q.to_string()),
                    name: c.name.clone(),
                    ty: c.ty.clone(),
                })
                .collect(),
        }
    }

    /// Concatenate two scopes (join output).
    pub fn join(&self, other: &Scope) -> Scope {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Scope { cols }
    }

    /// Find a column; errors on ambiguity.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<Option<usize>> {
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            let q_ok = match qualifier {
                None => true,
                Some(q) => c.qualifier.as_deref() == Some(q),
            };
            if q_ok && c.name == name {
                if found.is_some() {
                    return Err(Error::bind(format!("column reference '{name}' is ambiguous")));
                }
                found = Some(i);
            }
        }
        Ok(found)
    }
}

/// Runtime row environment: the current row for a scope, chained to
/// enclosing rows for correlated subqueries.
#[derive(Clone, Copy)]
pub struct Env<'a> {
    pub scope: &'a Scope,
    pub row: &'a [Value],
    pub parent: Option<&'a Env<'a>>,
}

static EMPTY_SCOPE: Scope = Scope { cols: Vec::new() };
static EMPTY_ROW: [Value; 0] = [];

impl<'a> Env<'a> {
    pub fn empty() -> Env<'static> {
        Env { scope: &EMPTY_SCOPE, row: &EMPTY_ROW, parent: None }
    }

    pub fn at_depth(&self, depth: usize) -> &Env<'a> {
        let mut e = self;
        for _ in 0..depth {
            match e.parent {
                Some(p) => e = p,
                // Binder invariant: depths never exceed the chain.
                // Saturating at the root keeps lookup total.
                None => break,
            }
        }
        e
    }

    /// The scopes of the chain `env`, innermost first: what a block under
    /// its rows binds names against.
    pub fn scopes<'s>(env: Option<&'s Env<'s>>) -> Vec<&'s Scope> {
        std::iter::successors(env, |e| e.parent).map(|e| e.scope).collect()
    }
}

/// Everything evaluation needs besides the row: catalog and CTEs.
pub struct EvalCtx<'a> {
    pub db: &'a Database,
    pub ctes: &'a Ctes,
}

// ---------------------------------------------------------------------------
// Bound expressions
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub enum BoundExpr {
    Const(Value),
    Column {
        depth: usize,
        index: usize,
    },
    BinOp {
        op: BinOp,
        lhs: Box<BoundExpr>,
        rhs: Box<BoundExpr>,
    },
    UnOp {
        op: UnOp,
        expr: Box<BoundExpr>,
    },
    Chain {
        first: Box<BoundExpr>,
        rest: Vec<(BinOp, BoundExpr)>,
    },
    Builtin {
        f: &'static BuiltinFn,
        args: Vec<BoundExpr>,
    },
    Udf {
        udf: ScalarUdf,
        args: Vec<BoundExpr>,
    },
    Cast {
        expr: Box<BoundExpr>,
        ty: DataType,
    },
    Case {
        operand: Option<Box<BoundExpr>>,
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_: Option<Box<BoundExpr>>,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
        case_insensitive: bool,
        /// Pattern pre-compiled at bind time when the pattern operand is
        /// a constant (the overwhelmingly common case); `None` means the
        /// pattern is computed per row.
        compiled: Option<Arc<LikePattern>>,
    },
    ScalarSubquery(Arc<Query>),
    InSubquery {
        expr: Box<BoundExpr>,
        query: Arc<Query>,
        negated: bool,
    },
    Exists {
        query: Arc<Query>,
        negated: bool,
    },
    SolveModel(Arc<SolveStmt>),
}

impl BoundExpr {
    /// The expressions this one evaluates directly, in order. The query of
    /// a subquery and a `SOLVEMODEL` value are not among them: they bind
    /// when they run.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub(crate) fn children(&self) -> Vec<&BoundExpr> {
        match self {
            BoundExpr::Const(_)
            | BoundExpr::Column { .. }
            | BoundExpr::ScalarSubquery(_)
            | BoundExpr::Exists { .. }
            | BoundExpr::SolveModel(_) => vec![],
            BoundExpr::UnOp { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::InSubquery { expr, .. } => vec![expr],
            BoundExpr::BinOp { lhs, rhs, .. } => vec![lhs, rhs],
            BoundExpr::Like { expr, pattern, .. } => vec![expr, pattern],
            BoundExpr::Between { expr, low, high, .. } => vec![expr, low, high],
            BoundExpr::Chain { first, rest } => {
                std::iter::once(&**first).chain(rest.iter().map(|(_, e)| e)).collect()
            }
            BoundExpr::Builtin { args, .. } | BoundExpr::Udf { args, .. } => args.iter().collect(),
            BoundExpr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            BoundExpr::Case { operand, branches, else_ } => operand
                .as_deref()
                .into_iter()
                .chain(branches.iter().flat_map(|(c, r)| [c, r]))
                .chain(else_.as_deref())
                .collect(),
        }
    }

    /// This node with every one of its [`children`](Self::children)
    /// replaced by `map(child)`, or `None` when `map` refuses one.
    pub(crate) fn try_map_children(
        &self,
        mut map: impl FnMut(&BoundExpr) -> Option<BoundExpr>,
    ) -> Option<BoundExpr> {
        let mut out = self.clone();
        for c in out.children_mut() {
            *c = map(c)?;
        }
        Some(out)
    }

    /// [`Self::children`], mutably.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    fn children_mut(&mut self) -> Vec<&mut BoundExpr> {
        match self {
            BoundExpr::Const(_)
            | BoundExpr::Column { .. }
            | BoundExpr::ScalarSubquery(_)
            | BoundExpr::Exists { .. }
            | BoundExpr::SolveModel(_) => vec![],
            BoundExpr::UnOp { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::InSubquery { expr, .. } => vec![expr],
            BoundExpr::BinOp { lhs, rhs, .. } => vec![lhs, rhs],
            BoundExpr::Like { expr, pattern, .. } => vec![expr, pattern],
            BoundExpr::Between { expr, low, high, .. } => vec![expr, low, high],
            BoundExpr::Chain { first, rest } => {
                std::iter::once(&mut **first).chain(rest.iter_mut().map(|(_, e)| e)).collect()
            }
            BoundExpr::Builtin { args, .. } | BoundExpr::Udf { args, .. } => {
                args.iter_mut().collect()
            }
            BoundExpr::InList { expr, list, .. } => {
                std::iter::once(&mut **expr).chain(list).collect()
            }
            BoundExpr::Case { operand, branches, else_ } => operand
                .as_deref_mut()
                .into_iter()
                .chain(branches.iter_mut().flat_map(|(c, r)| [c, r]))
                .chain(else_.as_deref_mut())
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

/// Resolves names against a stack of scopes (innermost first in
/// `scopes[0]`). Outer scopes come from enclosing queries (correlation).
pub struct Binder<'a> {
    pub db: &'a Database,
    /// `scopes[0]` = innermost.
    pub scopes: Vec<&'a Scope>,
}

impl<'a> Binder<'a> {
    pub fn new(db: &'a Database, scope: &'a Scope) -> Binder<'a> {
        Binder { db, scopes: vec![scope] }
    }

    /// Binder under the scopes `outer` of the enclosing blocks, innermost
    /// first.
    pub fn with_outer(db: &'a Database, scope: &'a Scope, outer: &[&'a Scope]) -> Binder<'a> {
        let mut scopes = vec![scope];
        scopes.extend_from_slice(outer);
        Binder { db, scopes }
    }

    fn resolve_column(&self, qualifier: Option<&str>, name: &str) -> Result<BoundExpr> {
        for (depth, scope) in self.scopes.iter().enumerate() {
            if let Some(index) = scope.resolve(qualifier, name)? {
                return Ok(BoundExpr::Column { depth, index });
            }
        }
        let full = match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        };
        Err(Error::bind(format!("column '{full}' does not exist")))
    }

    pub fn bind(&self, expr: &Expr) -> Result<BoundExpr> {
        Ok(match expr {
            Expr::Literal(l) => BoundExpr::Const(literal_value(l)?),
            Expr::Column { qualifier, name } => self.resolve_column(qualifier.as_deref(), name)?,
            Expr::Wildcard { .. } => return Err(Error::bind("'*' is not valid in this context")),
            Expr::BinOp { op, lhs, rhs } => BoundExpr::BinOp {
                op: *op,
                lhs: Box::new(self.bind(lhs)?),
                rhs: Box::new(self.bind(rhs)?),
            },
            Expr::UnOp { op, expr } => {
                BoundExpr::UnOp { op: *op, expr: Box::new(self.bind(expr)?) }
            }
            Expr::Chain { first, rest } => BoundExpr::Chain {
                first: Box::new(self.bind(first)?),
                rest: rest
                    .iter()
                    .map(|(op, e)| Ok((*op, self.bind(e)?)))
                    .collect::<Result<Vec<_>>>()?,
            },
            Expr::Func { name, args, distinct } => {
                if *distinct {
                    return Err(Error::bind(format!(
                        "DISTINCT is only valid in aggregate calls ({name})"
                    )));
                }
                if funcs::is_aggregate(name) {
                    return Err(Error::bind(format!(
                        "aggregate function {name}() is not allowed here"
                    )));
                }
                if let Some(udf) = self.db.udf(name) {
                    let bound = self.bind_udf_args(udf, args)?;
                    BoundExpr::Udf { udf: udf.clone(), args: bound }
                } else if let Some(b) = funcs::lookup(name) {
                    if args.iter().any(|a| a.name.is_some()) {
                        return Err(Error::bind(format!(
                            "built-in function {name}() does not accept named arguments"
                        )));
                    }
                    let bound =
                        args.iter().map(|a| self.bind(&a.value)).collect::<Result<Vec<_>>>()?;
                    if bound.len() < b.min_args || bound.len() > b.max_args {
                        return Err(Error::bind(format!(
                            "function {name}() called with {} arguments",
                            bound.len()
                        )));
                    }
                    BoundExpr::Builtin { f: b, args: bound }
                } else {
                    return Err(Error::bind(format!("unknown function {name}()")));
                }
            }
            Expr::Cast { expr, ty } => {
                BoundExpr::Cast { expr: Box::new(self.bind(expr)?), ty: ty.clone() }
            }
            Expr::Case { operand, branches, else_ } => BoundExpr::Case {
                operand: operand.as_ref().map(|o| self.bind(o).map(Box::new)).transpose()?,
                branches: branches
                    .iter()
                    .map(|(c, r)| Ok((self.bind(c)?, self.bind(r)?)))
                    .collect::<Result<Vec<_>>>()?,
                else_: else_.as_ref().map(|e| self.bind(e).map(Box::new)).transpose()?,
            },
            Expr::IsNull { expr, negated } => {
                BoundExpr::IsNull { expr: Box::new(self.bind(expr)?), negated: *negated }
            }
            Expr::InList { expr, list, negated } => BoundExpr::InList {
                expr: Box::new(self.bind(expr)?),
                list: list.iter().map(|e| self.bind(e)).collect::<Result<Vec<_>>>()?,
                negated: *negated,
            },
            Expr::InSubquery { expr, query, negated } => BoundExpr::InSubquery {
                expr: Box::new(self.bind(expr)?),
                query: Arc::new((**query).clone()),
                negated: *negated,
            },
            Expr::Exists { query, negated } => {
                BoundExpr::Exists { query: Arc::new((**query).clone()), negated: *negated }
            }
            Expr::ScalarSubquery(q) => BoundExpr::ScalarSubquery(Arc::new((**q).clone())),
            Expr::Between { expr, low, high, negated } => BoundExpr::Between {
                expr: Box::new(self.bind(expr)?),
                low: Box::new(self.bind(low)?),
                high: Box::new(self.bind(high)?),
                negated: *negated,
            },
            Expr::Like { expr, pattern, negated, case_insensitive } => {
                let pattern = Box::new(self.bind(pattern)?);
                // Compile constant patterns once per bound expression
                // instead of re-tokenizing the pattern string per row.
                let compiled = match pattern.as_ref() {
                    BoundExpr::Const(Value::Text(p)) => {
                        let pat = if *case_insensitive { p.to_lowercase() } else { p.to_string() };
                        Some(Arc::new(LikePattern::compile(&pat)))
                    }
                    _ => None,
                };
                BoundExpr::Like {
                    expr: Box::new(self.bind(expr)?),
                    pattern,
                    negated: *negated,
                    case_insensitive: *case_insensitive,
                    compiled,
                }
            }
            Expr::SolveModel(s) => BoundExpr::SolveModel(Arc::new((**s).clone())),
        })
    }

    fn bind_udf_args(&self, udf: &ScalarUdf, args: &[FuncArg]) -> Result<Vec<BoundExpr>> {
        let n = udf.param_names.len();
        let mut slots: Vec<Option<BoundExpr>> = vec![None; n];
        let mut positional = 0usize;
        for a in args {
            match &a.name {
                None => {
                    if positional >= n {
                        return Err(Error::bind(format!("too many arguments for {}()", udf.name)));
                    }
                    slots[positional] = Some(self.bind(&a.value)?);
                    positional += 1;
                }
                Some(name) => {
                    let idx = udf.param_names.iter().position(|p| p == name).ok_or_else(|| {
                        Error::bind(format!("{}() has no parameter named '{name}'", udf.name))
                    })?;
                    if slots[idx].is_some() {
                        return Err(Error::bind(format!(
                            "parameter '{name}' given more than once"
                        )));
                    }
                    slots[idx] = Some(self.bind(&a.value)?);
                }
            }
        }
        let mut out = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(b) => out.push(b),
                None => {
                    let pname = &udf.param_names[i];
                    match udf.defaults.get(pname) {
                        Some(d) => out.push(BoundExpr::Const(d.clone())),
                        None => {
                            return Err(Error::bind(format!(
                                "missing argument '{pname}' for {}()",
                                udf.name
                            )))
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Convert a literal AST node to a runtime value.
pub fn literal_value(l: &Literal) -> Result<Value> {
    Ok(match l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Str(s) => Value::text(s.as_str()),
        Literal::BitStr(s) => Value::Bits(BitString::parse(s)?),
        Literal::Interval(s) => Value::Interval(crate::types::timeval::parse_interval(s)?),
        Literal::Timestamp(s) => Value::Timestamp(crate::types::timeval::parse_timestamp(s)?),
    })
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

impl BoundExpr {
    pub fn eval(&self, ctx: &EvalCtx<'_>, env: &Env<'_>) -> Result<Value> {
        match self {
            BoundExpr::Const(v) => Ok(v.clone()),
            BoundExpr::Column { depth, index } => Ok(env.at_depth(*depth).row[*index].clone()),
            BoundExpr::BinOp { op, lhs, rhs } => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    let l = lhs.eval(ctx, env)?;
                    // Short-circuit only when the left side is a plain bool;
                    // symbolic (custom) operands need both sides evaluated.
                    match (&l, op) {
                        (Value::Bool(false), BinOp::And) => return Ok(Value::Bool(false)),
                        (Value::Bool(true), BinOp::Or) => return Ok(Value::Bool(true)),
                        _ => {}
                    }
                    let r = rhs.eval(ctx, env)?;
                    return Value::binop(*op, &l, &r);
                }
                let l = lhs.eval(ctx, env)?;
                let r = rhs.eval(ctx, env)?;
                Value::binop(*op, &l, &r)
            }
            BoundExpr::UnOp { op, expr } => {
                let v = expr.eval(ctx, env)?;
                Value::unop(*op, &v)
            }
            BoundExpr::Chain { first, rest } => {
                // Evaluate operands once, combine pairwise with AND.
                let mut vals = Vec::with_capacity(rest.len() + 1);
                vals.push(first.eval(ctx, env)?);
                for (_, e) in rest {
                    vals.push(e.eval(ctx, env)?);
                }
                let mut acc: Option<Value> = None;
                for (i, (op, _)) in rest.iter().enumerate() {
                    let pair = Value::binop(*op, &vals[i], &vals[i + 1])?;
                    acc = Some(match acc {
                        None => pair,
                        Some(prev) => Value::binop(BinOp::And, &prev, &pair)?,
                    });
                }
                acc.ok_or_else(|| Error::eval("comparison chain has no comparisons"))
            }
            BoundExpr::Builtin { f, args } => {
                let vals = args.iter().map(|a| a.eval(ctx, env)).collect::<Result<Vec<_>>>()?;
                funcs::call(f, &vals)
            }
            BoundExpr::Udf { udf, args } => {
                let vals = args.iter().map(|a| a.eval(ctx, env)).collect::<Result<Vec<_>>>()?;
                (udf.func)(&vals)
            }
            BoundExpr::Cast { expr, ty } => expr.eval(ctx, env)?.cast(ty),
            BoundExpr::Case { operand, branches, else_ } => {
                match operand {
                    Some(op) => {
                        let v = op.eval(ctx, env)?;
                        for (c, r) in branches {
                            let cv = c.eval(ctx, env)?;
                            if !v.is_null() && !cv.is_null() && v.sql_eq(&cv)? {
                                return r.eval(ctx, env);
                            }
                        }
                    }
                    None => {
                        for (c, r) in branches {
                            if c.eval(ctx, env)?.as_bool()? == Some(true) {
                                return r.eval(ctx, env);
                            }
                        }
                    }
                }
                match else_ {
                    Some(e) => e.eval(ctx, env),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval(ctx, env)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            BoundExpr::InList { expr, list, negated } => {
                let v = expr.eval(ctx, env)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(ctx, env)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if v.sql_eq(&iv)? {
                        return Ok(Value::Bool(!negated));
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::Between { expr, low, high, negated } => {
                let v = expr.eval(ctx, env)?;
                let lo = low.eval(ctx, env)?;
                let hi = high.eval(ctx, env)?;
                let ge = Value::binop(BinOp::Ge, &v, &lo)?;
                let le = Value::binop(BinOp::Le, &v, &hi)?;
                let both = Value::binop(BinOp::And, &ge, &le)?;
                if *negated {
                    Value::unop(UnOp::Not, &both)
                } else {
                    Ok(both)
                }
            }
            BoundExpr::Like { expr, pattern, negated, case_insensitive, compiled } => {
                let v = expr.eval(ctx, env)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut s = v.as_str()?.to_string();
                if *case_insensitive {
                    s = s.to_lowercase();
                }
                let m = match compiled {
                    Some(pat) => pat.matches(&s),
                    None => {
                        let p = pattern.eval(ctx, env)?;
                        if p.is_null() {
                            return Ok(Value::Null);
                        }
                        let mut pat = p.as_str()?.to_string();
                        if *case_insensitive {
                            pat = pat.to_lowercase();
                        }
                        LikePattern::compile(&pat).matches(&s)
                    }
                };
                Ok(Value::Bool(m != *negated))
            }
            BoundExpr::ScalarSubquery(q) => run_subquery(ctx, q, Some(env))?.scalar(),
            BoundExpr::InSubquery { expr, query, negated } => {
                let v = expr.eval(ctx, env)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let t = run_subquery(ctx, query, Some(env))?;
                if t.num_columns() != 1 {
                    return Err(Error::eval("IN subquery must return a single column"));
                }
                let mut saw_null = false;
                for row in &t.rows {
                    if row[0].is_null() {
                        saw_null = true;
                    } else if v.sql_eq(&row[0])? {
                        return Ok(Value::Bool(!negated));
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::Exists { query, negated } => {
                let t = run_subquery(ctx, query, Some(env))?;
                Ok(Value::Bool((t.num_rows() > 0) != *negated))
            }
            BoundExpr::SolveModel(stmt) => {
                let handler = ctx.db.solve_handler()?;
                handler.solve_model(ctx.db, stmt, ctx.ctes)
            }
        }
    }
}

/// One token of a compiled LIKE pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LikeTok {
    /// `%` — any run of characters (including empty).
    Any,
    /// `_` — exactly one character.
    One,
    /// A literal character.
    Lit(char),
}

/// A LIKE pattern tokenized once; matching re-uses the token vector
/// instead of re-scanning the pattern string for every row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikePattern {
    toks: Vec<LikeTok>,
}

impl LikePattern {
    pub fn compile(pattern: &str) -> LikePattern {
        let mut toks = Vec::with_capacity(pattern.len());
        for ch in pattern.chars() {
            match ch {
                '%' => {
                    // Collapse runs of '%' — they match the same strings
                    // and the backtracking matcher gets cheaper.
                    if toks.last() != Some(&LikeTok::Any) {
                        toks.push(LikeTok::Any);
                    }
                }
                '_' => toks.push(LikeTok::One),
                c => toks.push(LikeTok::Lit(c)),
            }
        }
        LikePattern { toks }
    }

    pub fn matches(&self, s: &str) -> bool {
        let s: Vec<char> = s.chars().collect();
        let p = &self.toks;
        // Iterative two-pointer with backtracking on the last '%'.
        let (mut si, mut pi) = (0usize, 0usize);
        let (mut star_p, mut star_s) = (usize::MAX, 0usize);
        while si < s.len() {
            if pi < p.len() && (p[pi] == LikeTok::One || p[pi] == LikeTok::Lit(s[si])) {
                si += 1;
                pi += 1;
            } else if pi < p.len() && p[pi] == LikeTok::Any {
                star_p = pi;
                star_s = si;
                pi += 1;
            } else if star_p != usize::MAX {
                pi = star_p + 1;
                star_s += 1;
                si = star_s;
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == LikeTok::Any {
            pi += 1;
        }
        pi == p.len()
    }
}

/// SQL LIKE pattern match (`%` = any run, `_` = any single char).
/// One-shot convenience over [`LikePattern`]; hot paths compile the
/// pattern once at bind time instead.
pub fn like_match(s: &str, pattern: &str) -> bool {
    LikePattern::compile(pattern).matches(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn eval_str(sql: &str) -> Result<Value> {
        let db = Database::new();
        let ctes = Ctes::new();
        let scope = Scope::default();
        let binder = Binder::new(&db, &scope);
        let bound = binder.bind(&parse_expr(sql)?)?;
        let ctx = EvalCtx { db: &db, ctes: &ctes };
        bound.eval(&ctx, &Env::empty())
    }

    #[test]
    fn constant_folding_pipeline() {
        assert_eq!(eval_str("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_str("'a' || 'b'").unwrap(), Value::text("ab"));
        assert_eq!(eval_str("abs(-4.5)").unwrap(), Value::Float(4.5));
        assert_eq!(eval_str("2 ^ 10").unwrap(), Value::Float(1024.0));
    }

    #[test]
    fn chain_evaluation() {
        assert_eq!(eval_str("0 <= 3 <= 5").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("0 <= 7 <= 5").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("1 < 2 < 3 < 4").unwrap(), Value::Bool(true));
        assert!(eval_str("0 <= NULL <= 5").unwrap().is_null());
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            eval_str("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END").unwrap(),
            Value::text("b")
        );
        assert_eq!(
            eval_str("CASE 3 WHEN 1 THEN 'one' WHEN 3 THEN 'three' END").unwrap(),
            Value::text("three")
        );
        assert!(eval_str("CASE WHEN false THEN 1 END").unwrap().is_null());
    }

    #[test]
    fn in_list_null_semantics() {
        assert_eq!(eval_str("2 IN (1, 2)").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("3 NOT IN (1, 2)").unwrap(), Value::Bool(true));
        assert!(eval_str("3 IN (1, NULL)").unwrap().is_null());
        assert_eq!(eval_str("1 IN (1, NULL)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_and_is_null() {
        assert_eq!(eval_str("3 BETWEEN 1 AND 5").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("7 NOT BETWEEN 1 AND 5").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("3 IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "%"));
        assert!(!like_match("abc", "a%d"));
        assert!(like_match("a.b", "a.b"));
        assert_eq!(eval_str("'Hello' ILIKE 'h%'").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'Hello' LIKE 'h%'").unwrap(), Value::Bool(false));
    }

    #[test]
    fn constant_like_patterns_compile_at_bind_time() {
        let db = Database::new();
        let scope = Scope::default();
        let binder = Binder::new(&db, &scope);
        let bound = binder.bind(&parse_expr("'abc' LIKE 'a%'").unwrap()).unwrap();
        let BoundExpr::Like { compiled, .. } = &bound else { panic!("expected Like") };
        assert!(compiled.is_some(), "constant pattern should be pre-compiled");
        // ILIKE pre-lowercases the compiled pattern.
        let bound = binder.bind(&parse_expr("'ABC' ILIKE 'A_C'").unwrap()).unwrap();
        let BoundExpr::Like { compiled, .. } = &bound else { panic!("expected Like") };
        assert!(compiled.as_ref().unwrap().matches("abc"));
        // Non-constant patterns stay dynamic and still match correctly.
        let bound = binder.bind(&parse_expr("'ab' LIKE ('a' || '%')").unwrap()).unwrap();
        let BoundExpr::Like { compiled, .. } = &bound else { panic!("expected Like") };
        assert!(compiled.is_none());
        let ctes = Ctes::new();
        let ctx = EvalCtx { db: &db, ctes: &ctes };
        assert_eq!(bound.eval(&ctx, &Env::empty()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_pattern_tokenizer_collapses_percent_runs() {
        let p = LikePattern::compile("a%%%b");
        assert!(p.matches("ab") && p.matches("axxb") && !p.matches("b"));
        let q = LikePattern::compile("%%");
        assert!(q.matches("") && q.matches("anything"));
    }

    #[test]
    fn column_resolution_and_ambiguity() {
        let scope = Scope::new(vec![
            ScopeCol { qualifier: Some("a".into()), name: "x".into(), ty: DataType::Int },
            ScopeCol { qualifier: Some("b".into()), name: "x".into(), ty: DataType::Int },
            ScopeCol { qualifier: Some("b".into()), name: "y".into(), ty: DataType::Int },
        ]);
        assert!(scope.resolve(None, "x").is_err()); // ambiguous
        assert_eq!(scope.resolve(Some("a"), "x").unwrap(), Some(0));
        assert_eq!(scope.resolve(None, "y").unwrap(), Some(2));
        assert_eq!(scope.resolve(None, "z").unwrap(), None);
    }

    #[test]
    fn outer_scope_resolution() {
        let db = Database::new();
        let inner =
            Scope::new(vec![ScopeCol { qualifier: None, name: "a".into(), ty: DataType::Int }]);
        let outer_scope =
            Scope::new(vec![ScopeCol { qualifier: None, name: "b".into(), ty: DataType::Int }]);
        let outer_row = vec![Value::Int(42)];
        let outer_env = Env { scope: &outer_scope, row: &outer_row, parent: None };
        let binder = Binder::with_outer(&db, &inner, &[&outer_scope]);
        let bound = binder.bind(&parse_expr("a + b").unwrap()).unwrap();
        let ctes = Ctes::new();
        let ctx = EvalCtx { db: &db, ctes: &ctes };
        let row = vec![Value::Int(1)];
        let env = Env { scope: &inner, row: &row, parent: Some(&outer_env) };
        assert_eq!(bound.eval(&ctx, &env).unwrap(), Value::Int(43));
    }

    #[test]
    fn udf_named_args_and_defaults() {
        let mut db = Database::new();
        db.register_udf(ScalarUdf {
            name: "f".into(),
            param_names: vec!["a".into(), "b".into(), "c".into()],
            defaults: [("c".to_string(), Value::Int(100))].into_iter().collect(),
            func: Arc::new(|args| {
                Ok(Value::Int(
                    args[0].as_i64()? * 1 + args[1].as_i64()? * 10 + args[2].as_i64()? * 1,
                ))
            }),
        });
        let scope = Scope::default();
        let ctes = Ctes::new();
        let ctx = EvalCtx { db: &db, ctes: &ctes };
        let binder = Binder::new(&db, &scope);
        let bound = binder.bind(&parse_expr("f(b := 2, a := 1)").unwrap()).unwrap();
        assert_eq!(bound.eval(&ctx, &Env::empty()).unwrap(), Value::Int(121));
        assert!(binder.bind(&parse_expr("f(zz := 1)").unwrap()).is_err());
        assert!(binder.bind(&parse_expr("f(1)").unwrap()).is_err()); // b missing
    }

    #[test]
    fn unknown_function_errors() {
        assert!(matches!(eval_str("nope(1)"), Err(Error::Bind(_))));
    }

    #[test]
    fn aggregate_outside_group_context_errors() {
        assert!(eval_str("sum(1)").is_err());
    }
}
