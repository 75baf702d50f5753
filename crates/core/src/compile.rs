//! One compiled model per `SOLVESELECT` (paper §4.1): the rules are
//! evaluated *once* over symbolic decision cells, rule by rule, and
//! every later pass — the static analyzer, `EXPLAIN`, `EXPLAIN
//! PRESOLVE`, the block detector, `solverlp` and the black-box
//! formulation — reads the resulting [`CompiledModel`].
//!
//! A rule that does not compile is kept as a typed [`RuleFailure`]
//! instead of aborting the compilation. *Strict* consumers (the
//! solvers) report the first failure as the statement's error;
//! *lenient* ones (the analyzer, the explainers) work on whatever did
//! compile and say what did not.

use crate::check::presolve::{propagate, Outcome};
use crate::problem::ProblemInstance;
use crate::symbolic::{as_linexpr, sym_value, ConstraintVal, ConstraintValue, LinExpr, Rel, VarId};
use sqlengine::ast::{Expr, Literal, NamedRule, Query, SelectItem, SetExpr, TableRef};
use sqlengine::catalog::{Ctes, Database, StepCell, StepHook};
use sqlengine::error::Error;
use sqlengine::exec::run_query;
use sqlengine::types::{downcast, BinOp, Value};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Why a rule did not compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The rule, or a derived relation it reads, has no linear form in
    /// the decision variables — the model needs a black-box solver.
    NonLinear,
    /// A SUBJECTTO cell is the constant `FALSE`.
    TriviallyFalse,
    /// Anything else: a binder or type error, a non-boolean cell, two
    /// objectives, an unstable decision relation.
    Other,
}

/// A rule that did not compile. `error` is what a strict consumer
/// returns for the statement; it names the clause and the rule.
#[derive(Debug, Clone)]
pub struct RuleFailure {
    pub kind: FailureKind,
    pub error: Error,
}

/// What compiling one rule yields.
pub type Compiled<T> = std::result::Result<T, RuleFailure>;

/// One flattened constraint atom `diff ⋈ 0`, where `diff = lhs - rhs`.
pub struct Atom {
    pub diff: LinExpr,
    pub rel: Rel,
    /// Index of the SUBJECTTO rule it came from.
    pub rule: usize,
}

/// A cell a recursive CTE's step emitted in the symbolic pass, given a
/// column of its own ([`CompiledModel::aux`]): `def`, over decision
/// variables and earlier auxiliary columns, named `cte[row].column`.
#[derive(Debug, Clone)]
pub struct AuxColumn {
    pub def: LinExpr,
    pub name: String,
}

/// The model as a linear program. Only variables that appear in the
/// objective or a constraint, or in the definition of an auxiliary
/// column one does, become LP columns (the unbound-variable pruning of
/// §4.3); single-variable comparisons with a constant side become
/// bounds rather than rows.
pub struct Lowered {
    pub problem: lp::Problem,
    /// `used[j]` is the variable behind LP column `j`: the first
    /// `decisions` are decision variables, the rest auxiliary columns.
    pub used: Vec<VarId>,
    pub decisions: usize,
    /// `atom_of_row[i]` indexes the atom behind LP row `i`. The rows past
    /// its end define the auxiliary columns, `column = definition`, one
    /// each in column order.
    pub atom_of_row: Vec<usize>,
}

/// The rules of one problem instance, compiled once.
pub struct CompiledModel<'a> {
    pub prob: &'a ProblemInstance,
    /// Objective sense; `true` when there is no objective.
    pub minimize: bool,
    /// `None` when the statement has no objective.
    pub objective: Option<Compiled<LinExpr>>,
    /// One entry per SUBJECTTO rule, in statement order: the constraint
    /// cells the rule evaluated to, or why it did not evaluate.
    pub rules: Vec<Compiled<Vec<ConstraintValue>>>,
    /// The atoms of every rule that compiled.
    pub atoms: Vec<Atom>,
    /// Auxiliary columns, `aux[k]` variable `prob.num_vars() + k`: each
    /// symbolic cell but a bare `1·v` a recursive CTE's step emits, so a
    /// step carries O(1) terms — the staircase a modeller states by hand.
    /// Not decision columns: never in the output, named by no finding.
    pub aux: Vec<AuxColumn>,
    /// How many SUBJECTTO rules were of the box shape, read as bounds
    /// without running their query (see `box_cells`).
    pub bounds: usize,
    /// Per decision relation, why the symbolic pass left it out (its
    /// query failed); `None` when it was bound.
    pub unbound: Vec<Option<FailureKind>>,
    /// [`rule_label`] of each SUBJECTTO rule, rendered on first read.
    labels: Vec<OnceLock<String>>,
    lowered: OnceLock<Lowered>,
    propagated: OnceLock<Outcome>,
    matrix: OnceLock<lp::matrix::MatrixAnalysis>,
}

/// Describe a rule for error messages and diagnostics: its alias when
/// named, else its (truncated) SQL text — so a nonlinearity error names
/// the offending rule instead of floating free of context.
pub fn rule_label(alias: Option<&str>, query: &Query) -> String {
    match alias {
        Some(a) => format!("'{a}'"),
        None => {
            let sql = query.to_string();
            let mut s: String = sql.chars().take(60).collect();
            if s.chars().count() < sql.chars().count() {
                s.push_str("...");
            }
            format!("({s})")
        }
    }
}

/// Wrap a rule-evaluation error with which clause and rule produced it.
pub(crate) fn rule_error(clause: &str, alias: Option<&str>, query: &Query, e: Error) -> Error {
    Error::solver(format!("in {clause} rule {}: {e}", rule_label(alias, query)))
}

/// What a statement with two objectives fails with (and SD007 predicts).
pub(crate) fn both_objectives(prob: &ProblemInstance) -> Error {
    Error::solver(format!(
        "both MINIMIZE and MAXIMIZE are specified, but '{}' is single-objective",
        prob.solver.as_deref().unwrap_or_default()
    ))
}

/// The failure of a rule (or derived relation) whose query did not
/// evaluate: non-linear when the engine said so, else the kind of the
/// failed relation it reads (`read`), if any.
fn failure_kind(e: &Error, read: impl FnOnce() -> Option<FailureKind>) -> FailureKind {
    if matches!(e, Error::NonLinear(_)) {
        return FailureKind::NonLinear;
    }
    read().unwrap_or(FailureKind::Other)
}

fn query_failure(
    db: &Database,
    clause: &str,
    alias: Option<&str>,
    query: &Query,
    e: Error,
    skipped: &[(String, FailureKind)],
) -> RuleFailure {
    let read = || {
        let reads = (!skipped.is_empty()).then(|| sqlengine::plan::relation_reads(db, query))?;
        skipped.iter().find(|(a, _)| reads.contains(a)).map(|&(_, kind)| kind)
    };
    RuleFailure { kind: failure_kind(&e, read), error: rule_error(clause, alias, query, e) }
}

/// Evaluate one SUBJECTTO rule, collecting its constraint cells.
/// `TRUE`/`NULL` cells are ignored; a constant `FALSE` cell makes the
/// problem infeasible at compile time.
fn compile_rule(
    db: &Database,
    env: &Ctes,
    rule: &NamedRule,
    skipped: &[(String, FailureKind)],
) -> Compiled<Vec<ConstraintValue>> {
    let alias = rule.alias.as_deref();
    let t = run_query(db, env, &rule.query, None)
        .map_err(|e| query_failure(db, "SUBJECTTO", alias, &rule.query, e, skipped))?;
    let mut out = Vec::new();
    for cell in t.rows.iter().flatten() {
        if let Some(c) = downcast::<ConstraintVal>(cell) {
            out.push(c.0.clone());
            continue;
        }
        match cell {
            Value::Bool(true) | Value::Null => {}
            Value::Bool(false) => {
                return Err(RuleFailure {
                    kind: FailureKind::TriviallyFalse,
                    error: Error::solver(format!(
                        "constraint{} is trivially false — the problem is infeasible",
                        alias.map(|a| format!(" '{a}'")).unwrap_or_default()
                    )),
                })
            }
            other => {
                return Err(RuleFailure {
                    kind: FailureKind::Other,
                    error: Error::solver(format!(
                        "SUBJECTTO cell evaluated to {} ({}), expected a constraint or boolean",
                        other.data_type().sql_name(),
                        other
                    )),
                })
            }
        }
    }
    Ok(out)
}

/// One operand of a box rule's comparison: a constant, or the `k`-th
/// decision column of the row.
#[derive(Clone, Copy)]
enum Operand {
    Const(f64),
    Column(usize),
}

/// The constraint cells of a SUBJECTTO rule of the *box shape*, read off
/// the decision relation's variable ids without running the rule:
/// `SELECT a ⋈ b [⋈ c …], … FROM d` over one un-aliased decision relation
/// `d` and nothing else (no WHERE, GROUP BY, HAVING, DISTINCT, ORDER BY,
/// LIMIT or WITH), each operand a numeric literal or a decision column of
/// `d`, `⋈` one of `<= < >= > =`, and no comparison between two
/// constants. The cells are the ones evaluation yields, in its order: row
/// by row of `d`, item by item, a chain as the left-nested `AND` of its
/// comparisons. `None` for any other rule, which runs its query.
fn box_cells(
    prob: &ProblemInstance,
    env: &Ctes,
    query: &Query,
    skipped: &[(String, FailureKind)],
) -> Option<Vec<ConstraintValue>> {
    let SetExpr::Select(sel) = &query.body else { return None };
    let [TableRef::Named { name, alias: None }] = &sel.from[..] else { return None };
    let bare = query.with.is_empty()
        && query.order_by.is_empty()
        && query.limit.is_none()
        && query.offset.is_none()
        && !sel.distinct
        && sel.where_.is_none()
        && sel.group_by.is_empty()
        && sel.grouping_sets.is_none()
        && sel.having.is_none();
    // A decision relation whose symbolic pass failed is not `d` in the
    // environment: the rule must run to fail the way it fails.
    if !bare || skipped.iter().any(|(a, _)| a == name) {
        return None;
    }
    let rel = prob.relations.iter().rev().find(|r| r.alias.as_deref() == Some(name))?;
    let schema = env.get(name)?.schema();
    let operand = |e: &Expr| match e {
        Expr::Literal(Literal::Int(i)) => Some(Operand::Const(*i as f64)),
        Expr::Literal(Literal::Float(x)) => Some(Operand::Const(*x)),
        Expr::Column { qualifier, name: col } if qualifier.as_ref().is_none_or(|q| q == name) => {
            let mut named = schema.columns.iter().enumerate().filter(|(_, c)| &c.name == col);
            let (c, _) = named.next()?;
            if named.next().is_some() {
                return None; // ambiguous
            }
            rel.dec_cols.iter().position(|&d| d == c).map(Operand::Column)
        }
        _ => None,
    };
    // Each item as the list of its comparisons.
    let mut items = Vec::with_capacity(sel.projection.len());
    for item in &sel.projection {
        let SelectItem::Expr { expr, .. } = item else { return None };
        let (first, rest): (&Expr, Vec<(BinOp, &Expr)>) = match expr {
            Expr::BinOp { op, lhs, rhs } => (lhs, vec![(*op, rhs)]),
            Expr::Chain { first, rest } => (first, rest.iter().map(|(op, e)| (*op, e)).collect()),
            _ => return None,
        };
        let mut prev = operand(first)?;
        let mut cmps = Vec::with_capacity(rest.len());
        for (op, e) in rest {
            let next = operand(e)?;
            if matches!((prev, next), (Operand::Const(_), Operand::Const(_))) {
                return None;
            }
            cmps.push((prev, Rel::of(op)?, next));
            prev = next;
        }
        items.push(cmps);
    }
    let lin = |o: Operand, ids: &[VarId]| match o {
        Operand::Const(c) => LinExpr::constant(c),
        Operand::Column(k) => LinExpr::var(ids[k]),
    };
    let mut cells = Vec::with_capacity(rel.vars.len() * items.len());
    for ids in &rel.vars {
        for cmps in &items {
            let mut cmps = cmps.iter().map(|&(l, rel, r)| ConstraintValue::Cmp {
                lhs: lin(l, ids),
                rel,
                rhs: lin(r, ids),
            });
            let first = cmps.next()?;
            cells.push(cmps.fold(first, |all, c| ConstraintValue::And(vec![all, c])));
        }
    }
    Some(cells)
}

/// The step hook of one symbolic pass: a symbolic cell a recursive step
/// emits, unless it is a bare `1·v`, becomes the next auxiliary column
/// (numbered from `first`), defined by the cell, and the cell `1·column`.
fn aux_hook(first: VarId, columns: Arc<Mutex<Vec<AuxColumn>>>) -> StepHook {
    Arc::new(move |at: &StepCell<'_>, v: &Value| {
        let cell = &downcast::<crate::symbolic::SymValue>(v)?.0;
        if cell.constant == 0.0 && matches!(cell.terms[..], [(_, c)] if c == 1.0) {
            return None;
        }
        let mut columns = columns.lock().unwrap_or_else(PoisonError::into_inner);
        let name = format!("{}[{}].{}", at.cte, at.row, at.column);
        columns.push(AuxColumn { def: cell.clone(), name });
        Some(sym_value(LinExpr::var(first + columns.len() as VarId - 1)))
    })
}

/// Compile the rules of a problem instance: one symbolic pass over the
/// decision relations, then the objective and each SUBJECTTO rule
/// evaluated on its own, so one defective rule does not hide the
/// others. Never fails — failures are part of the result.
pub fn compile_model<'a>(
    db: &Database,
    base: &Ctes,
    prob: &'a ProblemInstance,
) -> CompiledModel<'a> {
    let mut model = CompiledModel {
        prob,
        minimize: prob.minimize.is_some() || prob.maximize.is_none(),
        objective: None,
        rules: Vec::new(),
        atoms: Vec::new(),
        aux: Vec::new(),
        bounds: 0,
        unbound: Vec::new(),
        labels: prob.subjectto.iter().map(|_| OnceLock::new()).collect(),
        lowered: OnceLock::new(),
        propagated: OnceLock::new(),
        matrix: OnceLock::new(),
    };
    // No rules at all (predictive solvers, plain fills): nothing reads
    // the symbolic environment, so it is not built.
    if prob.minimize.is_none() && prob.maximize.is_none() && prob.subjectto.is_empty() {
        return model;
    }
    // The symbolic pass of §4.1: the decision relations bound with
    // symbolic variables in their decision cells, so derived relations
    // (e.g. a recursive simulation CDTE) carry linear expressions.
    let symbolic = |id| sym_value(LinExpr::var(id));
    let aux = Arc::new(Mutex::new(Vec::new()));
    let base = base.with_step_hook(aux_hook(prob.num_vars() as VarId, aux.clone()));
    let (env, failed) = match prob.bind(db, &base, Some(&symbolic)) {
        Ok(v) => v,
        Err(e) => {
            // An unstable decision relation fails every rule alike.
            let failure = RuleFailure { kind: FailureKind::Other, error: e };
            model.rules = prob.subjectto.iter().map(|_| Err(failure.clone())).collect();
            model.objective = Some(Err(failure));
            return model;
        }
    };
    // Lenient: a derived relation that cannot be expressed symbolically
    // (a simulation that is nonlinear in the decision variables, say)
    // stays out of the environment with the kind of its failure; rules
    // that read it fail the same way, rules that don't are unaffected.
    let mut skipped: Vec<(String, FailureKind)> = Vec::new();
    let kinds = &mut model.unbound;
    kinds.resize(prob.relations.len(), None);
    for (ri, e) in failed {
        let rel = &prob.relations[ri];
        let kind = failure_kind(&e, || rel.inputs.iter().find_map(|&j| kinds[j]));
        kinds[ri] = Some(kind);
        skipped.extend(rel.alias.clone().map(|a| (a, kind)));
    }
    let clause = if model.minimize { "MINIMIZE" } else { "MAXIMIZE" };
    model.objective = match (&prob.minimize, &prob.maximize) {
        (None, None) => None,
        (Some(_), Some(_)) => {
            Some(Err(RuleFailure { kind: FailureKind::Other, error: both_objectives(prob) }))
        }
        (Some(q), None) | (None, Some(q)) => Some(
            run_query(db, &env, q, None)
                .and_then(|t| t.scalar())
                .and_then(|v| as_linexpr(&v))
                .map_err(|e| query_failure(db, clause, None, q, e, &skipped)),
        ),
    };
    for (ri, rule) in prob.subjectto.iter().enumerate() {
        let compiled = match box_cells(prob, &env, &rule.query, &skipped) {
            Some(cells) => {
                model.bounds += 1;
                Ok(cells)
            }
            None => compile_rule(db, &env, rule, &skipped),
        };
        for c in compiled.iter().flatten() {
            for (l, rel, r) in c.atoms() {
                model.atoms.push(Atom { diff: l.sub(r), rel, rule: ri });
            }
        }
        model.rules.push(compiled);
    }
    model.aux = std::mem::take(&mut aux.lock().unwrap_or_else(PoisonError::into_inner));
    model
}

impl CompiledModel<'_> {
    /// Variable `v` is an auxiliary column.
    pub fn is_aux(&self, v: VarId) -> bool {
        v as usize >= self.prob.num_vars()
    }

    /// Label of SUBJECTTO rule `i` (see [`rule_label`]), rendered the
    /// first time it is read.
    pub fn rule_label(&self, i: usize) -> &str {
        let rule = &self.prob.subjectto[i];
        self.labels[i].get_or_init(|| rule_label(rule.alias.as_deref(), &rule.query))
    }

    /// The objective, when it compiled to a linear expression.
    pub fn linear_objective(&self) -> Option<&LinExpr> {
        self.objective.as_ref().and_then(|o| o.as_ref().ok())
    }

    /// The first SUBJECTTO rule that did not compile.
    pub fn rule_failure(&self) -> Option<&RuleFailure> {
        self.rules.iter().find_map(|r| r.as_ref().err())
    }

    /// The first failure in the order strict consumers report them: the
    /// objective, then the rules in statement order.
    pub fn first_failure(&self) -> Option<&RuleFailure> {
        self.objective.as_ref().and_then(|o| o.as_ref().err()).or_else(|| self.rule_failure())
    }

    /// True when the objective (if any) and every rule compiled. The
    /// reference- and bound-sensitive analyses only run on a complete
    /// picture: an unevaluated rule might reference, bound or couple
    /// anything.
    pub fn complete(&self) -> bool {
        self.first_failure().is_none()
    }

    /// The model as a linear program, lowered on first use (black-box
    /// solves never need it). Lowers what compiled: a missing or failed
    /// objective lowers to zero, failed rules contribute no rows.
    pub fn lowered(&self) -> &Lowered {
        self.lowered.get_or_init(|| self.lower())
    }

    /// Interval propagation over [`CompiledModel::lowered`], run on first
    /// use: the analyzer's SD008–SD011 and `solverlp`'s presolve read
    /// the same fixpoint.
    pub fn propagated(&self) -> &Outcome {
        self.propagated.get_or_init(|| propagate(&self.lowered().problem))
    }

    /// Matrix classification of [`CompiledModel::lowered`], run on first
    /// use: SD020–SD025, `EXPLAIN`'s matrix line and `solverlp`'s
    /// matrixclass stage read the same pass. A row through an auxiliary
    /// column is `General`: it states part of an expression, not a shape.
    pub fn matrix_analysis(&self) -> &lp::matrix::MatrixAnalysis {
        self.matrix.get_or_init(|| {
            let low = self.lowered();
            let mut a = lp::matrix::analyze(&low.problem);
            for (class, c) in a.row_classes.iter_mut().zip(&low.problem.constraints) {
                if c.coeffs().iter().any(|&(j, _)| j >= low.decisions) {
                    *class = lp::matrix::RowClass::General;
                }
            }
            a
        })
    }

    /// `e` with every auxiliary column replaced by its definition, by the
    /// evaluator's float operations (a definition scaled by the column's
    /// coefficient, added in column order; a step's own constant comes
    /// first in its sum, which changes no sum of two), so it
    /// renders as the cell did before it was a column. Quadratic in the
    /// recursion it reaches: the renderers call it only for what they
    /// print.
    pub fn expand(&self, e: &LinExpr) -> LinExpr {
        let n = self.prob.num_vars();
        let substitute = |e: &LinExpr, expanded: &[LinExpr]| {
            let at = e.terms.partition_point(|&(v, _)| (v as usize) < n);
            let mut out = LinExpr { constant: e.constant, terms: e.terms[..at].to_vec() };
            for &(v, c) in &e.terms[at..] {
                out = out.add(&expanded[v as usize - n].scale(c));
            }
            out
        };
        // A definition reads only earlier columns: expand them in column
        // order, up to the last one `e` reads.
        let last = e.terms.last().map_or(0, |&(v, _)| (v as usize + 1).saturating_sub(n));
        let mut expanded = Vec::with_capacity(last);
        for aux in &self.aux[..last] {
            expanded.push(substitute(&aux.def, &expanded));
        }
        substitute(e, &expanded)
    }

    fn lower(&self) -> Lowered {
        let prob = self.prob;
        let n = prob.num_vars();
        let objective = self.linear_objective();
        let mut reached = vec![false; n + self.aux.len()];
        for e in objective.into_iter().chain(self.atoms.iter().map(|a| &a.diff)) {
            e.vars().for_each(|v| reached[v as usize] = true);
        }
        // A definition reads only earlier columns: one sweep down.
        for (k, aux) in self.aux.iter().enumerate().rev() {
            if reached[n + k] {
                aux.def.vars().for_each(|v| reached[v as usize] = true);
            }
        }
        let used: Vec<VarId> =
            (0..reached.len() as VarId).filter(|&v| reached[v as usize]).collect();
        let decisions = used.partition_point(|&v| (v as usize) < n);
        let mut index = vec![usize::MAX; reached.len()];
        for (j, &v) in used.iter().enumerate() {
            index[v as usize] = j;
        }
        let columns = |e: &LinExpr| e.terms.iter().map(|&(v, c)| (index[v as usize], c)).collect();

        let mut p = if self.minimize {
            lp::Problem::minimize(used.len())
        } else {
            lp::Problem::maximize(used.len())
        };
        for (j, &v) in used[..decisions].iter().enumerate() {
            p.integer[j] = prob.vars[v as usize].integer;
        }
        if let Some(obj) = objective {
            p.objective_constant = obj.constant;
            p.set_objective(columns(obj));
        }
        let mut atom_of_row = Vec::new();
        for (ai, a) in self.atoms.iter().enumerate() {
            let rhs = -a.diff.constant; // diff ⋈ 0  ⇔  terms ⋈ -const
            match a.diff.terms[..] {
                // Box bound: c·x ⋈ rhs.
                [(v, coef)] if a.rel != Rel::Eq => {
                    let bound = rhs / coef;
                    if (a.rel == Rel::Le) == (coef > 0.0) {
                        p.tighten(index[v as usize], f64::NEG_INFINITY, bound);
                    } else {
                        p.tighten(index[v as usize], bound, f64::INFINITY);
                    }
                }
                _ => {
                    let rel = match a.rel {
                        Rel::Le => lp::Rel::Le,
                        Rel::Ge => lp::Rel::Ge,
                        Rel::Eq => lp::Rel::Eq,
                    };
                    p.add_constraint(columns(&a.diff), rel, rhs);
                    atom_of_row.push(ai);
                }
            }
        }
        // Definitions, `column − terms = constant`.
        for (j, &v) in used.iter().enumerate().skip(decisions) {
            let def = &self.aux[v as usize - n].def;
            let mut coeffs: Vec<(usize, f64)> =
                def.terms.iter().map(|&(u, c)| (index[u as usize], -c)).collect();
            coeffs.push((j, 1.0));
            p.add_constraint(coeffs, lp::Rel::Eq, def.constant);
        }
        Lowered { problem: p, used, decisions, atom_of_row }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::build_problem;
    use sqlengine::ast::Statement;
    use sqlengine::{execute_script, parser};

    fn compiled<T>(db: &Database, sql: &str, f: impl FnOnce(&CompiledModel<'_>) -> T) -> T {
        let Statement::Solve(stmt) = parser::parse_statement(sql).unwrap() else {
            panic!("not a solve statement");
        };
        let prob = build_problem(db, &Ctes::new(), &stmt).unwrap();
        f(&compile_model(db, &Ctes::new(), &prob))
    }

    fn test_db() -> Database {
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE pars (p1 float8, p2 float8, p3 float8);
             INSERT INTO pars VALUES (NULL, NULL, NULL);
             CREATE TABLE input (x float8, y float8);
             INSERT INTO input VALUES (1, 10), (2, 20);",
        )
        .unwrap();
        db
    }

    #[test]
    fn symbolic_compile_of_paper_lr_problem() {
        // min sum(err) s.t. -err <= p1*x - y <= err (an L1 regression).
        let sql = "SOLVESELECT p(p1) AS (SELECT * FROM pars) \
                   WITH e(err) AS (SELECT x, y, NULL::float8 AS err FROM input) \
                   MINIMIZE (SELECT sum(err) FROM e) \
                   SUBJECTTO (SELECT -1*err <= (p1 * x - y) <= err FROM e, p) \
                   USING solverlp()";
        compiled(&test_db(), sql, |m| {
            assert!(m.minimize && m.first_failure().is_none());
            // Objective = err0 + err1.
            assert_eq!(m.linear_objective().unwrap().terms.len(), 2);
            // Two rows × one chain (two atoms each), all from rule 0.
            assert_eq!(m.atoms.len(), 4);
            assert!(m.atoms.iter().all(|a| a.rule == 0));
            let low = m.lowered();
            assert_eq!(low.used.len(), 3); // p1 + two errs (all referenced)
            assert_eq!(low.atom_of_row, vec![0, 1, 2, 3]);
            let sol = lp::solve(&low.problem);
            assert!(sol.is_optimal());
            // Perfect fit: p1 = 10, errors 0.
            let p1_idx = low.used.iter().position(|&v| m.prob.vars[v as usize].rel == 0).unwrap();
            assert!((sol.x[p1_idx] - 10.0).abs() < 1e-6);
            assert!(sol.objective.abs() < 1e-6);
        });
    }

    #[test]
    fn pruning_excludes_unreferenced_variables_and_bounds_are_not_rows() {
        let sql = "SOLVESELECT p(p1, p2, p3) AS (SELECT * FROM pars) \
                   MINIMIZE (SELECT sum(p1) FROM p) \
                   SUBJECTTO (SELECT p1 >= 1 FROM p) USING solverlp()";
        compiled(&test_db(), sql, |m| {
            let low = m.lowered();
            assert_eq!(low.used, vec![0]); // p2 and p3 pruned
            assert!(low.problem.constraints.is_empty() && low.atom_of_row.is_empty());
            assert_eq!(low.problem.lower, vec![1.0]);
        });
    }

    #[test]
    fn failures_are_typed_per_rule_and_the_rest_still_compiles() {
        let sql = "SOLVESELECT p(p1, p2) AS (SELECT * FROM pars) \
                   MINIMIZE (SELECT p1 * p2 FROM p) \
                   SUBJECTTO (SELECT 1 = 2), (SELECT p1 + p2 <= 4 FROM p), \
                             (SELECT p1 <> 3 FROM p), (SELECT p1 + 1 FROM p) \
                   USING solverlp()";
        compiled(&test_db(), sql, |m| {
            let kinds: Vec<Option<FailureKind>> =
                m.rules.iter().map(|r| r.as_ref().err().map(|f| f.kind)).collect();
            assert_eq!(
                kinds,
                vec![
                    Some(FailureKind::TriviallyFalse),
                    None,
                    Some(FailureKind::NonLinear),
                    Some(FailureKind::Other)
                ]
            );
            // The one good rule is there, attributed to its index.
            assert_eq!(m.atoms.len(), 1);
            assert_eq!(m.atoms[0].rule, 1);
            // Strict order: the objective's failure comes first.
            let first = m.first_failure().unwrap();
            assert_eq!(first.kind, FailureKind::NonLinear);
            assert!(first.error.to_string().contains("in MINIMIZE rule"), "{}", first.error);
            assert!(m.rule_failure().unwrap().error.to_string().contains("infeasible"));
        });
    }

    #[test]
    fn a_rule_over_a_nonlinear_derived_relation_is_nonlinear() {
        let sql = "SOLVESELECT p(p1, p2) AS (SELECT * FROM pars) \
                   WITH sq AS (SELECT p1 * p2 AS v FROM p) \
                   MINIMIZE (SELECT sum(v) FROM sq) \
                   SUBJECTTO (SELECT 0 <= p1 <= 1 FROM p), (SELECT v >= 0 FROM nosuch) \
                   USING swarmops.pso()";
        compiled(&test_db(), sql, |m| {
            let objective = m.objective.as_ref().unwrap().as_ref().unwrap_err();
            assert_eq!(objective.kind, FailureKind::NonLinear);
            assert!(objective.error.to_string().contains("'sq' does not exist"));
            assert!(m.rules[0].is_ok());
            // A relation that never existed is not a linearity matter.
            assert_eq!(m.rules[1].as_ref().unwrap_err().kind, FailureKind::Other);
        });
    }

    #[test]
    fn statements_without_rules_run_no_symbolic_pass() {
        let db = test_db();
        let Statement::Solve(stmt) =
            parser::parse_statement("SOLVESELECT p(p1) AS (SELECT * FROM pars) USING s()").unwrap()
        else {
            panic!("not a solve statement");
        };
        let prob = build_problem(&db, &Ctes::new(), &stmt).unwrap();
        let before = db.exec_counts();
        let m = compile_model(&db, &Ctes::new(), &prob);
        assert!(m.objective.is_none() && m.rules.is_empty() && m.atoms.is_empty());
        assert_eq!(m.lowered().problem.num_vars, 0);
        assert_eq!(db.exec_counts(), before);
    }
}
