//! The engine hook: routes `SOLVESELECT`, `SOLVEMODEL` expressions and
//! `MODELEVAL` from query execution into the solver framework.

use crate::check;
use crate::compile::prepare;
use crate::explain;
use crate::model::{expect_model, ModelValue};
use crate::problem::build_problem;
use crate::solver::{SolveContext, SolveControl, SolverRegistry};
use sqlengine::ast::{ExplainMode, Query, SolveKind, SolveStmt};
use sqlengine::catalog::{Ctes, Database, SolveHandler};
use sqlengine::diag::diagnostics_table;
use sqlengine::error::{Error, Result};
use sqlengine::exec::{plan_table, run_query};
use sqlengine::table::Table;
use sqlengine::types::{custom, Value};
use std::sync::Arc;

/// SolveDB+'s implementation of the engine's [`SolveHandler`] hook.
pub struct Handler {
    pub registry: Arc<SolverRegistry>,
}

impl Handler {
    pub fn new(registry: Arc<SolverRegistry>) -> Handler {
        Handler { registry }
    }
}

impl SolveHandler for Handler {
    fn solve_select(
        &self,
        db: &Database,
        stmt: &SolveStmt,
        ctes: &Ctes,
        trace: Option<&obs::Trace>,
    ) -> Result<Table> {
        let using = stmt
            .using
            .as_ref()
            .ok_or_else(|| Error::solver("SOLVESELECT requires a USING clause naming a solver"))?;
        let solver = self.registry.get(&using.solver)?;
        SolverRegistry::check_method(solver.as_ref(), &using.method)?;
        let model = prepare(db, ctes, stmt, trace)?;
        // An input relation with decision columns and no rows leaves no
        // variables: the solve is a no-op whatever the solver (SD018),
        // and its output is that relation, empty.
        if model.prob.is_no_op() {
            return Ok(Table::clone(model.prob.relations[0].table()?));
        }
        // Pre-solve static analysis. All findings go to the statement;
        // its result keeps only advisory (Warning/Note) severities —
        // Error-level findings predict a solver failure that the solve
        // call below reports in its own words.
        obs::trace::span_time(trace, "check", || {
            db.add_findings(check::check_problem(&model, trace))
        });
        let control = SolveControl::from_db(db);
        let ctx = SolveContext { db, ctes, trace, control: control.as_ref(), model: &model };
        let span = trace.map(|t| {
            let s = t.span("solve");
            s.note("solver", &using.solver);
            if let Some(m) = &using.method {
                s.note("method", m);
            }
            s
        });
        // A deferred relation has not run as instantiated; a solve that
        // fails runs it first, so it fails the way it did when every
        // relation ran up front.
        let out = solver.solve(&ctx).or_else(|e| {
            model.prob.instantiate_all(db, ctes)?;
            Err(e)
        });
        if let (Some(s), Ok(t)) = (span, &out) {
            s.rows(t.num_rows() as u64);
        }
        out
    }

    fn explain(
        &self,
        db: &Database,
        stmt: &SolveStmt,
        ctes: &Ctes,
        mode: ExplainMode,
    ) -> Result<Table> {
        let model = prepare(db, ctes, stmt, None)?;
        Ok(match mode {
            ExplainMode::Check => diagnostics_table(&check::check_problem(&model, None)),
            ExplainMode::Presolve => plan_table(check::presolve::reduce::explain_presolve(&model)),
            // `EXPLAIN`; the engine runs `EXPLAIN ANALYZE` as a solve.
            _ => plan_table(explain::explain(db, ctes, &model)?.lines()),
        })
    }

    fn solve_model(&self, _db: &Database, stmt: &SolveStmt, _ctes: &Ctes) -> Result<Value> {
        // A SOLVEMODEL (or SOLVESELECT used as a model expression) is pure
        // AST capture — nothing evaluates until instantiation/inlining.
        let mut s = stmt.clone();
        s.kind = SolveKind::Model;
        Ok(custom(ModelValue::new(s)))
    }

    fn model_eval(
        &self,
        db: &Database,
        select: &Query,
        model: &Query,
        ctes: &Ctes,
    ) -> Result<Table> {
        let mv = expect_model(&run_query(db, ctes, model, None)?.scalar()?)?;
        // Turn the model's relations into CTEs (as instantiated, with
        // their initial values) and evaluate the SELECT in that context.
        let prob = build_problem(db, ctes, &mv.stmt)?;
        run_query(db, &prob.bind(db, ctes, None)?.0, select, None)
    }
}
