//! The engine hook: routes `SOLVESELECT`, `SOLVEMODEL` expressions and
//! `MODELEVAL` from query execution into the solver framework.

use crate::check;
use crate::compile::compile_model;
use crate::explain;
use crate::model::{expect_model, ModelValue};
use crate::problem::{build_problem, build_problem_traced, initial_env};
use crate::solver::{SolveContext, SolveControl, SolverRegistry};
use sqlengine::ast::{Query, SolveKind, SolveStmt};
use sqlengine::catalog::{Ctes, Database, SolveHandler};
use sqlengine::diag::Diagnostic;
use sqlengine::error::{Error, Result};
use sqlengine::exec::run_query;
use sqlengine::table::{Column, Schema, Table};
use sqlengine::types::{custom, DataType, Value};
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
        warnings: &mut Vec<Diagnostic>,
        trace: Option<&obs::Trace>,
    ) -> Result<Table> {
        let using = stmt
            .using
            .as_ref()
            .ok_or_else(|| Error::solver("SOLVESELECT requires a USING clause naming a solver"))?;
        let (solver, prob) = {
            let _plan = trace.map(|t| t.span("plan"));
            let solver = self.registry.get(&using.solver)?;
            SolverRegistry::check_method(solver.as_ref(), &using.method)?;
            (solver, build_problem_traced(db, ctes, stmt, trace)?)
        };
        // The one symbolic evaluation of the rules; the analyzer and
        // the solver both read its result.
        let model = {
            let span = trace.map(|t| t.span("compile"));
            let model = compile_model(db, ctes, &prob);
            if let Some(s) = &span {
                s.note("bounds", model.bounds);
            }
            model
        };
        // Pre-solve static analysis. All findings go into the sink; the
        // executor keeps only advisory (Warning/Note) severities on the
        // result — Error-level findings predict a solver failure that
        // the solve call below reports in its own words.
        obs::trace::span_time(trace, "check", || {
            warnings.extend(check::check_problem(&model, trace));
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
        let out = solver.solve(&ctx, &prob);
        if let (Some(s), Ok(t)) = (span, &out) {
            s.rows(t.num_rows() as u64);
        }
        out
    }

    fn explain_solve(&self, db: &Database, stmt: &SolveStmt, ctes: &Ctes) -> Result<Table> {
        let e = explain::explain_stmt(db, ctes, stmt)?;
        let schema = Schema::new(vec![Column::new("plan", DataType::Text)]);
        let rows = e.render().lines().map(|l| vec![Value::text(l)]).collect();
        Ok(Table::with_rows(schema, rows))
    }

    fn check_solve(&self, db: &Database, stmt: &SolveStmt, ctes: &Ctes) -> Result<Vec<Diagnostic>> {
        check::check_stmt(db, ctes, stmt)
    }

    fn presolve_solve(&self, db: &Database, stmt: &SolveStmt, ctes: &Ctes) -> Result<Table> {
        let prob = build_problem(db, ctes, stmt)?;
        let lines = check::presolve::reduce::explain_presolve(&compile_model(db, ctes, &prob));
        let schema = Schema::new(vec![Column::new("plan", DataType::Text)]);
        let rows = lines.into_iter().map(|l| vec![Value::text(&l)]).collect();
        Ok(Table::with_rows(schema, rows))
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
        // Turn the model's relations into CTEs (materialized with their
        // initial values) and evaluate the SELECT in that context.
        let prob = build_problem(db, ctes, &mv.stmt)?;
        run_query(db, &initial_env(ctes, &prob), select, None)
    }
}
