//! From `SOLVESELECT` AST to a solvable problem instance.
//!
//! Implements the semantics of paper §4.1–§4.4: INLINE expansion
//! (Algorithm 2), ordered materialization of the decision relations with
//! the scoping rules of §4.1, decision-variable creation, output
//! assembly, and the prepared candidate evaluation used by black-box
//! solvers. (The symbolic compilation of the rules is [`crate::compile`].)
//!
//! Each decision relation runs once, at instantiation, and its table is
//! shared from then on. The symbolic pass, every black-box fitness
//! evaluation and `MODELEVAL` read the model through one call,
//! [`ProblemInstance::bind`], which re-runs only the relations an
//! assignment reaches and writes the decision cells. A relation that a
//! binding always re-runs and that has no decision cells of its own (a
//! simulation over the decision relations, say) is *deferred*: it runs
//! as instantiated only when something reads that table
//! ([`ProblemInstance::instantiated`]).

use crate::compile::{rule_error, CompiledModel};
use crate::model::expect_model;
use crate::symbolic::{ConstraintValue, Rel, VarId};
use sqlengine::ast::{
    Cte, DecCols, DecRel, Expr, NamedRule, Node, Query, Select, SelectItem, SolveStmt, TableRef,
};
use sqlengine::catalog::{Binding, Ctes, Database};
use sqlengine::error::{Error, Result};
use sqlengine::exec::{run_query, run_query_bound};
use sqlengine::hash::FastMap;
use sqlengine::table::{Schema, Table};
use sqlengine::types::{DataType, Value};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// One decision variable's placement and metadata.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Index into [`ProblemInstance::relations`].
    pub rel: usize,
    pub row: usize,
    /// Column index within the relation's table.
    pub col: usize,
    /// Initial value from the materialized cell (None when NULL).
    pub initial: Option<f64>,
    /// Integer-typed decision column.
    pub integer: bool,
}

impl VarInfo {
    /// The cell holding the value `v` of this variable (rounded when integer).
    pub fn cell(&self, v: f64) -> Value {
        if self.integer {
            Value::Int(v.round() as i64)
        } else {
            Value::Float(v)
        }
    }
}

/// A materialized decision relation D_i.
#[derive(Debug, Clone)]
pub struct DecRelInst {
    pub alias: Option<String>,
    pub query: Query,
    /// Decision column indexes within the table schema.
    pub dec_cols: Vec<usize>,
    /// The relation with its initial values, in the form its query
    /// produced it, shared by every binding that does not write into it;
    /// unset while the relation is deferred ([`DecRelInst::table`]).
    table: OnceLock<Arc<Binding>>,
    /// The row count every re-run must keep ([`check_cardinality`]).
    rows: OnceLock<usize>,
    /// Variable ids, `vars[row][k]` for the k-th decision column.
    pub vars: Vec<Vec<VarId>>,
    /// The earlier relations this one reads (possibly through a view)
    /// that an assignment changes: they hold decision cells or have
    /// inputs themselves. A binding re-runs a relation that has any.
    pub inputs: Vec<usize>,
}

impl DecRelInst {
    /// The relation as instantiated, as rows (pivoted once, the first
    /// time they are asked for). The input relation and every relation
    /// with decision columns are run by [`build_problem`]; a deferred
    /// relation is an error here until [`ProblemInstance::instantiated`]
    /// has run it.
    pub fn table(&self) -> Result<&Arc<Table>> {
        self.table.get().map(|b| b.table()).ok_or_else(|| {
            let name = self.alias.as_deref().unwrap_or("<input>");
            Error::solver(format!("relation {name} is deferred and has not been instantiated"))
        })
    }
}

/// A fully built problem instance: materialized relations, rules,
/// variables and solver parameters.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    pub relations: Vec<DecRelInst>,
    pub minimize: Option<Query>,
    pub maximize: Option<Query>,
    pub subjectto: Vec<NamedRule>,
    pub vars: Vec<VarInfo>,
    pub params: FastMap<String, Value>,
    /// Solver named in the `USING` clause.
    pub solver: Option<String>,
    pub method: Option<String>,
}

// A problem instance can be shared across threads: what is filled in
// on first read is a `OnceLock`, never a `RefCell`.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<ProblemInstance>();
};

impl ProblemInstance {
    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The input relation has decision columns and no rows, and no
    /// relation has a variable: solving returns the input as it is.
    pub fn is_no_op(&self) -> bool {
        self.num_vars() == 0 && !self.relations[0].dec_cols.is_empty()
    }

    /// Fetch a solver parameter as f64.
    pub fn param_f64(&self, name: &str) -> Option<Result<f64>> {
        self.params.get(name).map(|v| v.as_f64())
    }

    /// Fetch a solver parameter as a count: a non-negative integer.
    pub fn param_usize(&self, name: &str) -> Option<Result<usize>> {
        self.params.get(name).map(|v| {
            v.as_i64().ok().and_then(|n| usize::try_from(n).ok()).ok_or_else(|| {
                Error::solver(format!("parameter '{name}' must be a non-negative integer, got {v}"))
            })
        })
    }

    /// Fetch an on/off solver parameter: `on`, `off`, `true`, `false`, `1`
    /// or `0` in any case; `default` when it is not given.
    pub fn param_switch(&self, name: &str, default: bool) -> Result<bool> {
        let Some(v) = self.param_text(name) else { return Ok(default) };
        match v.to_ascii_lowercase().as_str() {
            "on" | "true" | "1" => Ok(true),
            "off" | "false" | "0" => Ok(false),
            _ => Err(Error::solver(format!("parameter '{name}' must be on or off, got '{v}'"))),
        }
    }

    pub fn param_text(&self, name: &str) -> Option<String> {
        self.params.get(name).map(|v| v.to_string())
    }
}

// ---------------------------------------------------------------------------
// INLINE expansion — Algorithm 2
// ---------------------------------------------------------------------------

/// Wrap a query with prologue CTEs `alias AS (SELECT * FROM prefixed)` so
/// imported inner-model expressions keep working unmodified (the scope
/// rewiring of Algorithm 2, lines 5 and 9).
fn add_prologue(query: &Query, mapping: &[(String, String)]) -> Query {
    let mut q = query.clone();
    let mut prologue: Vec<Cte> = mapping
        .iter()
        .map(|(orig, prefixed)| Cte {
            name: orig.clone(),
            columns: vec![],
            query: Query::simple(Select {
                distinct: false,
                projection: vec![SelectItem::Wildcard { qualifier: None }],
                from: vec![TableRef::Named { name: prefixed.clone(), alias: None }],
                where_: None,
                group_by: vec![],
                grouping_sets: None,
                having: None,
            }),
        })
        .collect();
    prologue.extend(q.with.drain(..));
    q.with = prologue;
    q
}

/// Expand all `INLINE` clauses of a statement (Algorithm 2), producing a
/// statement with the inner model's relations and rules imported under
/// `alias_`-prefixed names.
pub fn inline_models(db: &Database, ctes: &Ctes, stmt: &SolveStmt) -> Result<SolveStmt> {
    let mut out = stmt.clone();
    let mut imported_ctes: Vec<DecRel> = Vec::new();
    for (k, inl) in stmt.inlines.iter().enumerate() {
        let t = run_query(db, ctes, &inl.query, None)?;
        let mv = expect_model(&t.scalar()?)?;
        let malias = inl.alias.clone().unwrap_or_else(|| format!("m{k}"));
        let prefix = format!("{malias}_");

        // Relations of the inner model, input relation first.
        let mut inner: Vec<DecRel> = vec![mv.stmt.input.clone()];
        inner.extend(mv.stmt.ctes.iter().cloned());
        let mut mapping: Vec<(String, String)> = Vec::new();
        for (i, rel) in inner.iter().enumerate() {
            let Some(a) = rel.alias.clone() else {
                return Err(Error::solver(format!(
                    "cannot inline model '{malias}': relation {i} has no alias"
                )));
            };
            let prefixed = format!("{prefix}{a}");
            if out.ctes.iter().any(|c| c.alias.as_deref() == Some(prefixed.as_str()))
                || out.input.alias.as_deref() == Some(prefixed.as_str())
            {
                return Err(Error::solver(format!(
                    "inlined relation name '{prefixed}' collides with an existing relation"
                )));
            }
            let visible = mapping.clone(); // aliases a_j for j < i
            imported_ctes.push(DecRel {
                alias: Some(prefixed.clone()),
                dec_cols: rel.dec_cols.clone(),
                query: add_prologue(&rel.query, &visible),
            });
            mapping.push((a, prefixed));
        }

        // Rules: every inner alias is visible (scope rule of §4.1).
        for rule in &mv.stmt.subjectto {
            out.subjectto.push(NamedRule {
                alias: rule.alias.as_ref().map(|a| format!("{prefix}{a}")),
                query: add_prologue(&rule.query, &mapping),
            });
        }
        if let Some(m) = &mv.stmt.minimize {
            if out.minimize.is_some() {
                return Err(Error::solver(
                    "both the outer problem and an inlined model define MINIMIZE",
                ));
            }
            out.minimize = Some(add_prologue(m, &mapping));
        }
        if let Some(m) = &mv.stmt.maximize {
            if out.maximize.is_some() {
                return Err(Error::solver(
                    "both the outer problem and an inlined model define MAXIMIZE",
                ));
            }
            out.maximize = Some(add_prologue(m, &mapping));
        }
    }
    // Imported relations precede the outer CDTEs (they may be referenced
    // by them) and follow the input relation.
    imported_ctes.extend(out.ctes.drain(..));
    out.ctes = imported_ctes;
    out.inlines.clear();
    Ok(out)
}

// ---------------------------------------------------------------------------
// Problem construction
// ---------------------------------------------------------------------------

fn resolve_dec_cols(schema: &Schema, spec: &DecCols, alias: Option<&str>) -> Result<Vec<usize>> {
    match spec {
        DecCols::None => Ok(vec![]),
        DecCols::Star => Ok((0..schema.len()).collect()),
        DecCols::List(names) => names
            .iter()
            .map(|n| {
                schema.index_of(n).ok_or_else(|| {
                    Error::solver(format!(
                        "decision column '{n}' not found in relation {}",
                        alias.unwrap_or("<input>")
                    ))
                })
            })
            .collect(),
    }
}

/// Build a problem instance from an (already inline-expanded or raw)
/// `SOLVESELECT` statement. Evaluates solver parameters, materializes
/// every decision relation in order, and assigns variable ids.
pub fn build_problem(db: &Database, ctes: &Ctes, stmt: &SolveStmt) -> Result<ProblemInstance> {
    instantiate(db, ctes, stmt, None)
}

/// [`build_problem`], recording `rewrite` (model inlining) and
/// `instantiate` (relation materialization) stages into the trace.
pub(crate) fn instantiate(
    db: &Database,
    ctes: &Ctes,
    stmt: &SolveStmt,
    trace: Option<&obs::Trace>,
) -> Result<ProblemInstance> {
    let stmt = if stmt.inlines.is_empty() {
        Cow::Borrowed(stmt)
    } else {
        Cow::Owned(obs::trace::span_time(trace, "rewrite", || inline_models(db, ctes, stmt))?)
    };

    // Solver parameters: bare column names act as identifiers
    // (`features := outTemp`), everything else is evaluated as a
    // constant expression.
    let mut params = FastMap::default();
    let mut solver = None;
    let mut method = None;
    if let Some(u) = &stmt.using {
        solver = Some(u.solver.clone());
        method = u.method.clone();
        for (i, (name, expr)) in u.params.iter().enumerate() {
            let key = name.clone().unwrap_or_else(|| format!("${i}"));
            let value = match expr {
                Expr::Column { qualifier: None, name } => Value::text(name.as_str()),
                e => {
                    let q = Query::simple(Select {
                        distinct: false,
                        projection: vec![SelectItem::Expr { expr: e.clone(), alias: None }],
                        from: vec![],
                        where_: None,
                        group_by: vec![],
                        grouping_sets: None,
                        having: None,
                    });
                    run_query(db, ctes, &q, None)?.scalar()?
                }
            };
            params.insert(key, value);
        }
    }

    // Materialize D₁..D_N in order; each sees the previously materialized
    // relations (scope rule of §4.1). A relation without decision columns
    // that reads one an assignment changes is deferred: every binding
    // re-runs it, and the table as instantiated is run only when something
    // reads it.
    let inst_span = trace.map(|t| t.span("instantiate"));
    let mut prob = ProblemInstance {
        relations: Vec::new(),
        minimize: stmt.minimize.clone(),
        maximize: stmt.maximize.clone(),
        subjectto: stmt.subjectto.clone(),
        vars: Vec::new(),
        params,
        solver,
        method,
    };
    let specs = std::iter::once(&stmt.input).chain(&stmt.ctes);
    for (ri, spec) in specs.enumerate() {
        // Only a relation after one an assignment changes can have inputs
        // (the input relation reads only `ctes`).
        let changes = |r: &DecRelInst| !r.dec_cols.is_empty() || !r.inputs.is_empty();
        let reads = if prob.relations.iter().any(changes) {
            sqlengine::plan::relation_reads(db, &spec.query)
        } else {
            Default::default()
        };
        let read = |r: &DecRelInst| r.alias.as_ref().is_some_and(|a| reads.contains(a));
        let inputs: Vec<usize> =
            (0..ri).filter(|&j| changes(&prob.relations[j]) && read(&prob.relations[j])).collect();
        let deferred = matches!(spec.dec_cols, DecCols::None) && !inputs.is_empty();
        prob.relations.push(DecRelInst {
            alias: spec.alias.clone(),
            query: spec.query.clone(),
            dec_cols: vec![],
            table: OnceLock::new(),
            rows: OnceLock::new(),
            vars: vec![],
            inputs,
        });
        if deferred {
            continue;
        }
        let decisions = prob.instantiated(db, ctes, ri).and_then(|bound| {
            let dec_cols = resolve_dec_cols(bound.schema(), &spec.dec_cols, spec.alias.as_deref())?;
            Ok((bound.clone(), dec_cols))
        });
        let (bound, dec_cols) = match decisions {
            Ok(d) => d,
            Err(e) => {
                // Fail as if every earlier relation had run first.
                prob.relations.pop();
                prob.instantiate_all(db, ctes)?;
                return Err(e);
            }
        };
        // Only a relation with decision columns is read as rows here.
        let mut rel_vars: Vec<Vec<VarId>> = vec![Vec::new(); bound.num_rows()];
        let rows = if dec_cols.is_empty() { &[][..] } else { &bound.table().rows[..] };
        for (row_idx, row) in rows.iter().enumerate() {
            let mut ids = Vec::with_capacity(dec_cols.len());
            for &c in &dec_cols {
                let id = prob.vars.len() as VarId;
                let cell = &row[c];
                let initial = match cell {
                    Value::Null => None,
                    v => v.as_f64().ok(),
                };
                let integer = bound.schema().columns[c].ty == DataType::Int;
                prob.vars.push(VarInfo { rel: ri, row: row_idx, col: c, initial, integer });
                ids.push(id);
            }
            rel_vars[row_idx] = ids;
        }
        let rel = &mut prob.relations[ri];
        rel.dec_cols = dec_cols;
        rel.vars = rel_vars;
    }

    if let Some(s) = inst_span {
        let run = prob.relations.iter().filter_map(|r| r.table.get());
        s.rows(run.map(|t| t.num_rows() as u64).sum());
        s.note("relations", prob.relations.len());
        s.note("vars", prob.vars.len());
    }
    Ok(prob)
}

impl ProblemInstance {
    /// Relation `ri` as instantiated, with the initial values in its
    /// decision cells. A deferred relation runs here, once, the first time
    /// it is read: in `base` (the environment the problem was built in)
    /// and the earlier relations, each as instantiated.
    pub fn instantiated(&self, db: &Database, base: &Ctes, ri: usize) -> Result<&Arc<Binding>> {
        let rel = &self.relations[ri];
        if let Some(bound) = rel.table.get() {
            return Ok(bound);
        }
        // The earlier relations in scope; a deferred one only when this
        // one reads it (it then is one of its inputs).
        let mut env = base.clone();
        for (j, earlier) in self.relations[..ri].iter().enumerate() {
            let Some(a) = &earlier.alias else { continue };
            let bound = match earlier.table.get() {
                Some(b) => b.clone(),
                None if rel.inputs.contains(&j) => self.instantiated(db, base, j)?.clone(),
                None => continue,
            };
            env.bind(a, bound);
        }
        let bound = Arc::new(run_query_bound(db, &env, &rel.query, None)?);
        rel.rows.get_or_init(|| bound.num_rows());
        Ok(rel.table.get_or_init(|| bound))
    }

    /// Instantiate every relation still deferred, in order, failing with
    /// the first that fails. A statement that fails calls it before it
    /// reports, so it fails the way it would with every relation run up
    /// front.
    pub fn instantiate_all(&self, db: &Database, base: &Ctes) -> Result<()> {
        (0..self.relations.len()).try_for_each(|ri| self.instantiated(db, base, ri).map(drop))
    }

    /// Bind the decision relations under one assignment: `base` plus each
    /// aliased relation, in order, with `cell(id)` in each decision cell.
    /// A relation with [`DecRelInst::inputs`] is re-run in the environment
    /// built so far and must keep its row count; the others are taken as
    /// instantiated, copied only to write cells. With no `cell` nothing is
    /// re-run or written: every relation is read as instantiated, and the
    /// first that fails to instantiate is the error. A re-run relation
    /// whose query fails is left out and returned, in order, with its
    /// error.
    pub fn bind(
        &self,
        db: &Database,
        base: &Ctes,
        cell: Option<&dyn Fn(VarId) -> Value>,
    ) -> Result<(Ctes, Vec<(usize, Error)>)> {
        let mut env = base.clone();
        let mut failed = Vec::new();
        for (ri, rel) in self.relations.iter().enumerate() {
            let rerun = cell.is_some() && !rel.inputs.is_empty();
            let mut bound = match rerun.then(|| run_query_bound(db, &env, &rel.query, None)) {
                None => self.instantiated(db, base, ri)?.clone(),
                Some(Ok(b)) => Arc::new(check_cardinality(rel, b)?),
                Some(Err(e)) => {
                    failed.push((ri, e));
                    continue;
                }
            };
            if let Some(cell) = cell.filter(|_| !rel.dec_cols.is_empty()) {
                let mut table = Arc::try_unwrap(bound)
                    .map_or_else(|shared| Table::clone(shared.table()), Binding::into_table);
                for (row, ids) in table.rows.iter_mut().zip(&rel.vars) {
                    for (&col, &id) in rel.dec_cols.iter().zip(ids) {
                        row[col] = cell(id);
                    }
                }
                bound = Arc::new(Binding::rows(Arc::new(table)));
            }
            if let Some(a) = &rel.alias {
                env.bind(a, bound);
            }
        }
        Ok((env, failed))
    }
}

/// Variables are addressed by row, so a re-run relation must keep its row
/// count: the one it was instantiated with, or, for a deferred relation
/// not instantiated before, the one its first successful re-run had.
fn check_cardinality(rel: &DecRelInst, table: Binding) -> Result<Binding> {
    let rows = *rel.rows.get_or_init(|| table.num_rows());
    if table.num_rows() == rows {
        return Ok(table);
    }
    Err(Error::solver(format!(
        "relation {} changed cardinality during solving ({} vs {} rows); \
         decision relations must be stable",
        rel.alias.as_deref().unwrap_or("<input>"),
        table.num_rows(),
        rows
    )))
}

// ---------------------------------------------------------------------------
// Output assembly
// ---------------------------------------------------------------------------

/// Build the output relation: the input relation with solved decision
/// cells filled in. Variables without an assigned value keep their
/// original cell (NULL or the initial value) — pruned variables stay
/// untouched, as §4.3 specifies.
pub fn apply_solution(
    prob: &ProblemInstance,
    assignment: &dyn Fn(VarId) -> Option<f64>,
) -> Result<Table> {
    let rel = &prob.relations[0];
    let mut out = Table::clone(rel.table()?);
    for (row_idx, ids) in rel.vars.iter().enumerate() {
        for (k, &id) in ids.iter().enumerate() {
            if let Some(v) = assignment(id) {
                let col = rel.dec_cols[k];
                out.rows[row_idx][col] = prob.vars[id as usize].cell(v);
                // Column type may have been Unknown (all NULL); fix it up.
                if out.schema.columns[col].ty == DataType::Unknown {
                    out.schema.columns[col].ty = out.rows[row_idx][col].data_type();
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Black-box support
// ---------------------------------------------------------------------------

/// A black-box view of the problem, prepared once per solve: box bounds
/// per variable (extracted from single-variable linear constraints),
/// remaining constraints as penalties, and the evaluation of a candidate
/// — the objective query over the relations a candidate changes.
pub struct BlackboxProblem<'a> {
    pub space: globalopt::SearchSpace,
    /// Linear constraints not representable as bounds (penalized); they
    /// may read the model's auxiliary columns ([`CompiledModel::aux`]),
    /// valued after the decision variables.
    pub penalties: Vec<ConstraintValue>,
    pub objective: &'a Query,
    pub minimize: bool,
    /// Starting point from initial values (midpoint of bounds when NULL).
    pub start: Vec<f64>,
    /// Whether a candidate always scores the same within the statement:
    /// nothing an evaluation runs calls a registered UDF, which may not
    /// ([`calls_udf`]).
    pub(crate) pure: bool,
    model: &'a CompiledModel,
    /// The environment the relations are bound into.
    base: Ctes,
}

/// Build the black-box formulation: the compiled SUBJECTTO rules are
/// harvested for bounds; the objective stays a query re-evaluated per
/// candidate. The start point is evaluated here, so an objective that
/// can never be evaluated fails the solve instead of scoring every
/// candidate ∞; its plans stay in the engine's plan cache for the
/// candidates that follow.
pub fn build_blackbox<'a>(
    db: &Database,
    base: &Ctes,
    model: &'a CompiledModel,
) -> Result<BlackboxProblem<'a>> {
    let prob = &model.prob;
    let n = prob.num_vars();
    if n == 0 {
        return Err(Error::solver("problem has no decision variables"));
    }
    if let Some(failure) = model.rule_failure() {
        return Err(failure.error.clone());
    }

    let mut lower = vec![f64::NEG_INFINITY; n];
    let mut upper = vec![f64::INFINITY; n];
    let mut penalties = Vec::new();
    for c in model.rules.iter().flatten().flatten() {
        let mut as_bounds = Vec::new();
        let mut boundable = true;
        for (l, rel, r) in c.atoms() {
            let diff = l.sub(r);
            if matches!(diff.terms[..], [(v, _)] if !model.is_aux(v)) && rel != Rel::Eq {
                as_bounds.push((diff.terms[0], rel, -diff.constant));
            } else {
                boundable = false;
            }
        }
        if boundable {
            for ((v, coef), rel, rhs) in as_bounds {
                let bound = rhs / coef;
                let le = (rel == Rel::Le) == (coef > 0.0);
                let j = v as usize;
                if le {
                    upper[j] = upper[j].min(bound);
                } else {
                    lower[j] = lower[j].max(bound);
                }
            }
        } else {
            penalties.push(c.clone());
        }
    }
    let integer: Vec<bool> = prob.vars.iter().map(|v| v.integer).collect();
    let space = globalopt::SearchSpace { lower: lower.clone(), upper: upper.clone(), integer };

    let start: Vec<f64> = prob
        .vars
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.initial.unwrap_or_else(|| {
                let (l, u) = (lower[i], upper[i]);
                if l.is_finite() && u.is_finite() {
                    (l + u) / 2.0
                } else if l.is_finite() {
                    l
                } else if u.is_finite() {
                    u
                } else {
                    0.0
                }
            })
        })
        .collect();

    let (objective, minimize) = match (&prob.minimize, &prob.maximize) {
        (Some(q), None) => (q, true),
        (None, Some(q)) => (q, false),
        _ => {
            return Err(Error::solver(
                "black-box solvers need exactly one objective (MINIMIZE or MAXIMIZE)",
            ))
        }
    };

    // An evaluation runs the relations a binding re-runs and the objective.
    let rerun = prob.relations.iter().filter(|r| !r.inputs.is_empty()).map(|r| &r.query);
    let pure = !std::iter::once(objective).chain(rerun).any(|q| calls_udf(db, q));
    let base = base.clone();
    let bb = BlackboxProblem { space, penalties, objective, minimize, start, pure, model, base };
    bb.evaluate(db, &bb.start)?;
    Ok(bb)
}

/// Whether running `q` can call a registered UDF: `q` itself, or a view
/// it reads (through other views too).
fn calls_udf(db: &Database, q: &Query) -> bool {
    let direct = |q: &Query| {
        let mut found = false;
        Node::Query(q).walk(|n| {
            if let Node::Expr(e) = n {
                e.walk(&mut |e| {
                    found |= matches!(e, Expr::Func { name, .. } if db.udf(name).is_some())
                });
            }
            !found
        });
        found
    };
    direct(q)
        || sqlengine::plan::relation_reads(db, q)
            .iter()
            .filter_map(|v| db.view(v))
            .any(|v| direct(v))
}

/// Penalty weight applied per unit of constraint violation in black-box
/// fitness.
pub const PENALTY_WEIGHT: f64 = 1e9;

impl BlackboxProblem<'_> {
    /// The black-box fitness (minimization sense) of a candidate; ∞ when
    /// the candidate cannot be evaluated.
    pub fn fitness(&self, db: &Database, x: &[f64]) -> f64 {
        self.evaluate(db, x).unwrap_or(f64::INFINITY)
    }

    /// Evaluate a candidate: bind the decision relations to its values
    /// ([`ProblemInstance::bind`]), so derived relations (e.g. a
    /// recursive simulation CDTE) see them, then run the objective query
    /// and add the penalties (§5.3).
    pub fn evaluate(&self, db: &Database, x: &[f64]) -> Result<f64> {
        let prob = &self.model.prob;
        let cell = |id: VarId| prob.vars[id as usize].cell(x[id as usize]);
        let (env, failed) = prob.bind(db, &self.base, Some(&cell))?;
        if let Some((ri, e)) = failed.into_iter().next() {
            let name = prob.relations[ri].alias.as_deref().unwrap_or("<input>");
            return Err(Error::solver(format!("in relation {name}: {e}")));
        }
        let clause = if self.minimize { "MINIMIZE" } else { "MAXIMIZE" };
        let raw = run_query(db, &env, self.objective, None)
            .and_then(|t| t.scalar())
            .and_then(|v| v.as_f64())
            .map_err(|e| rule_error(clause, None, self.objective, e))?;
        let mut fitness = if self.minimize { raw } else { -raw };
        let mut values = x.to_vec();
        for aux in &self.model.aux {
            let v = aux.def.eval(&|v| values[v as usize]);
            values.push(v);
        }
        let getter = |v: VarId| values[v as usize];
        for p in &self.penalties {
            fitness += PENALTY_WEIGHT * p.violation(&getter);
        }
        Ok(fitness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::prepare;
    use sqlengine::ast::Statement;
    use sqlengine::{execute_script, parser};

    fn solve_stmt(sql: &str) -> SolveStmt {
        match parser::parse_statement(sql).unwrap() {
            Statement::Solve(s) => s,
            _ => panic!("not a solve statement"),
        }
    }

    fn test_db() -> Database {
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE pars (potemp float8, pmonth float8, peps float8);
             INSERT INTO pars VALUES (NULL, NULL, NULL);
             CREATE TABLE input (x float8, y float8);
             INSERT INTO input VALUES (1, 10), (2, 19), (3, 31);",
        )
        .unwrap();
        db
    }

    #[test]
    fn build_assigns_variables_in_order() {
        let db = test_db();
        let stmt = solve_stmt(
            "SOLVESELECT p(*) AS (SELECT * FROM pars) \
             WITH e(err) AS (SELECT x, NULL::float8 AS err FROM input) \
             MINIMIZE (SELECT sum(err) FROM e) USING solverlp()",
        );
        let prob = build_problem(&db, &Ctes::new(), &stmt).unwrap();
        assert_eq!(prob.relations.len(), 2);
        assert_eq!(prob.num_vars(), 3 + 3); // 3 params + 3 errors
        assert_eq!(prob.relations[0].dec_cols.len(), 3); // asterisk notation
        assert_eq!(prob.relations[1].dec_cols.len(), 1);
        assert!(prob.vars.iter().all(|v| v.initial.is_none()));
    }

    #[test]
    fn initial_values_and_integrality() {
        let mut db = Database::new();
        execute_script(&mut db, "CREATE TABLE t (a int, b float8); INSERT INTO t VALUES (3, 2.5)")
            .unwrap();
        let stmt = solve_stmt("SOLVESELECT q(a, b) AS (SELECT * FROM t) USING s()");
        let prob = build_problem(&db, &Ctes::new(), &stmt).unwrap();
        assert_eq!(prob.vars[0].initial, Some(3.0));
        assert!(prob.vars[0].integer);
        assert_eq!(prob.vars[1].initial, Some(2.5));
        assert!(!prob.vars[1].integer);
    }

    #[test]
    fn scoping_later_relations_see_earlier() {
        let db = test_db();
        let stmt = solve_stmt(
            "SOLVESELECT a(x) AS (SELECT 1.0 AS x) \
             WITH b(y) AS (SELECT x + 1.0 AS y FROM a) USING s()",
        );
        let prob = build_problem(&db, &Ctes::new(), &stmt).unwrap();
        let b = prob.instantiated(&db, &Ctes::new(), 1).unwrap();
        assert_eq!(b.table().value(0, 0), &Value::Float(2.0));
    }

    #[test]
    fn param_evaluation_modes() {
        let db = test_db();
        let stmt = solve_stmt(
            "SOLVESELECT t(x) AS (SELECT * FROM input) \
             USING arima.auto(predictions := 2 + 3, features := outtemp, \
                              win := (SELECT count(*) FROM input))",
        );
        let prob = build_problem(&db, &Ctes::new(), &stmt).unwrap();
        assert_eq!(prob.method.as_deref(), Some("auto"));
        assert_eq!(prob.params["predictions"], Value::Int(5));
        assert_eq!(prob.params["features"], Value::text("outtemp"));
        assert_eq!(prob.params["win"], Value::Int(3));
    }

    #[test]
    fn inline_imports_with_prefixes() {
        let mut db = test_db();
        // Store a model in a table.
        execute_script(&mut db, "CREATE TABLE model (m text)").unwrap();
        let mtext = "SOLVEMODEL pars AS (SELECT 2.0 AS k) \
                     WITH simul AS (SELECT k * 10.0 AS v FROM pars)";
        // Escape embedded quotes not needed (no quotes in text).
        execute_script(&mut db, &format!("INSERT INTO model VALUES ('{mtext}')")).unwrap();
        let stmt = solve_stmt(
            "SOLVESELECT t(x) AS (SELECT NULL::float8 AS x) \
             INLINE m AS (SELECT m FROM model) \
             MINIMIZE (SELECT sum(x) FROM t) \
             SUBJECTTO (SELECT x >= v FROM m_simul, t) \
             USING solverlp()",
        );
        let expanded = inline_models(&db, &Ctes::new(), &stmt).unwrap();
        let aliases: Vec<_> = expanded.ctes.iter().map(|c| c.alias.clone()).collect();
        assert_eq!(aliases, vec![Some("m_pars".into()), Some("m_simul".into())]);
        // The imported simul query is rewired to read m_pars via a prologue CTE.
        assert!(expanded.ctes[1].query.to_string().contains("m_pars"));

        // And the whole thing solves: x >= 20 minimized → 20.
        let model = prepare(&db, &Ctes::new(), &expanded, None).unwrap();
        assert!(model.first_failure().is_none());
        let sol = lp::solve(&model.lowered().problem);
        assert!(sol.is_optimal());
        assert!((sol.objective - 20.0).abs() < 1e-6);
    }

    #[test]
    fn blackbox_bounds_and_fitness() {
        let mut db = Database::new();
        execute_script(&mut db, "CREATE TABLE pars (a float8); INSERT INTO pars VALUES (NULL)")
            .unwrap();
        let stmt = solve_stmt(
            "SOLVESELECT p(a) AS (SELECT * FROM pars) \
             MINIMIZE (SELECT (a - 3.0) * (a - 3.0) FROM p) \
             SUBJECTTO (SELECT 0 <= a <= 10 FROM p) USING swarmops.pso()",
        );
        let model = prepare(&db, &Ctes::new(), &stmt, None).unwrap();
        let bb = build_blackbox(&db, &Ctes::new(), &model).unwrap();
        assert_eq!(bb.space.lower, vec![0.0]);
        assert_eq!(bb.space.upper, vec![10.0]);
        assert!(bb.penalties.is_empty());
        // Quadratic objective evaluated concretely per candidate.
        let f3 = bb.fitness(&db, &[3.0]);
        let f5 = bb.fitness(&db, &[5.0]);
        assert!(f3 < 1e-12);
        assert!((f5 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn blackbox_penalizes_multivar_constraints() {
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE pars (a float8, b float8); INSERT INTO pars VALUES (NULL, NULL)",
        )
        .unwrap();
        let stmt = solve_stmt(
            "SOLVESELECT p(a, b) AS (SELECT * FROM pars) \
             MINIMIZE (SELECT a + b FROM p) \
             SUBJECTTO (SELECT a + b >= 4 FROM p), (SELECT 0 <= a <= 10, 0 <= b <= 10 FROM p) \
             USING swarmops.de()",
        );
        let model = prepare(&db, &Ctes::new(), &stmt, None).unwrap();
        let bb = build_blackbox(&db, &Ctes::new(), &model).unwrap();
        assert_eq!(bb.penalties.len(), 1);
        let bad = bb.fitness(&db, &[1.0, 1.0]);
        assert!(bad > PENALTY_WEIGHT); // violated by 2
        let good = bb.fitness(&db, &[2.0, 2.0]);
        assert!((good - 4.0).abs() < 1e-9);
    }

    #[test]
    fn apply_solution_fills_only_assigned() {
        let db = test_db();
        let stmt = solve_stmt("SOLVESELECT p(potemp, pmonth) AS (SELECT * FROM pars) USING s()");
        let prob = build_problem(&db, &Ctes::new(), &stmt).unwrap();
        let out = apply_solution(&prob, &|v| if v == 0 { Some(7.5) } else { None }).unwrap();
        assert_eq!(out.value(0, 0), &Value::Float(7.5));
        assert!(out.value(0, 1).is_null()); // unassigned stays NULL
    }

    #[test]
    fn cardinality_instability_is_detected() {
        let mut db = Database::new();
        execute_script(&mut db, "CREATE TABLE t (x float8); INSERT INTO t VALUES (1)").unwrap();
        // A relation whose row count depends on its own decision value.
        let stmt = solve_stmt(
            "SOLVESELECT a(x) AS (SELECT * FROM t) \
             WITH b AS (SELECT x FROM a WHERE x > 0) \
             MINIMIZE (SELECT sum(x) FROM b) USING s()",
        );
        let model = prepare(&db, &Ctes::new(), &stmt, None).unwrap();
        let bb = build_blackbox(&db, &Ctes::new(), &model).unwrap();
        // With x = -1 the dependent relation b loses its row.
        let err = bb.evaluate(&db, &[-1.0]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "solver error: relation b changed cardinality during solving (0 vs 1 rows); \
             decision relations must be stable"
        );
        assert_eq!(bb.fitness(&db, &[-1.0]), f64::INFINITY);
    }
}
