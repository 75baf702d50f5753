//! `solvecheck` — a pre-solve static analyzer for `SOLVESELECT` models.
//!
//! SolveDB+'s pitch (paper §2) is that keeping the whole prescriptive
//! pipeline inside the DBMS makes problems *inspectable*. This module is
//! the layer that makes them *checkable*: it runs over a compiled
//! [`ProblemInstance`](crate::problem::ProblemInstance) before any solver is invoked and emits structured
//! [`Diagnostic`]s with stable `SD0xx` codes (catalogued in
//! `DIAGNOSTICS.md` at the repository root):
//!
//! | code  | severity | finding                                            |
//! |-------|----------|----------------------------------------------------|
//! | SD001 | warning  | decision variable unbounded in the objective direction |
//! | SD002 | error    | nonlinear rule but the linear solver is named      |
//! | SD003 | warning  | decision columns never referenced by any rule      |
//! | SD004 | error    | trivially infeasible constant constraint           |
//! | SD005 | warning/note | duplicate / shadowed constraints               |
//! | SD006 | warning  | objective contains no decision variables           |
//! | SD007 | error    | multiple objectives for a single-objective solver  |
//! | SD008 | error    | interval propagation proves the model infeasible   |
//! | SD009 | note     | decision variable implied fixed by propagation     |
//! | SD010 | warning/note | forcing / redundant constraint                 |
//! | SD011 | note     | empty or singleton constraint row                  |
//! | SD012 | warning  | pathological constraint coefficient range          |
//! | SD019 | note     | decomposable model: K independent blocks           |
//! | SD020 | note     | matrix classification: row-class census            |
//! | SD021 | note     | interval-matrix total unimodularity                |
//! | SD022 | note     | network-matrix total unimodularity                 |
//! | SD023 | note     | implied integrality of declared-integer variables  |
//! | SD024 | warning  | set-partitioning row over non-binary variables     |
//! | SD025 | warning  | knapsack item heavier than the row's capacity      |
//!
//! (SD013–SD018 are the *cross-statement* diagnostics of the whole-script
//! analyzer, `sqlengine::script` — see that module.)
//!
//! The analysis reads the statement's [`CompiledModel`] — the rules
//! evaluated once, per rule, over symbolic decision cells (§4.1) — so
//! one defective rule does not hide findings in the others, and the
//! checks inspect exactly the linear atoms, the linear program and the
//! interval fixpoint the solver goes on to use. Everything here is
//! advisory — the analyzer never fails a statement itself;
//! `Error`-level findings predict what the solver will reject.

pub mod matrixclass;
pub mod presolve;
pub mod rules;
pub mod structure;

use crate::compile::{both_objectives, prepare, CompiledModel, FailureKind, RuleFailure};
use sqlengine::ast::SolveStmt;
use sqlengine::catalog::{Ctes, Database};
use sqlengine::diag::{Diagnostic, Severity};
use sqlengine::error::Result;

/// Solvers whose rule system must compile to a *linear* program.
const LINEAR_SOLVERS: &[&str] = &["solverlp"];
/// Optimization solvers that accept exactly one objective.
const SINGLE_OBJECTIVE_SOLVERS: &[&str] = &["solverlp", "swarmops"];

/// Comparison tolerance for constant-constraint evaluation.
pub(crate) const TOL: f64 = 1e-9;

/// Per-code cap on individual findings; the rest fold into one summary.
const MAX_PER_CODE: usize = 8;

/// Emit up to [`MAX_PER_CODE`] individual findings, folding the rest
/// into one summary diagnostic so large models stay readable.
fn capped(diags: &mut Vec<Diagnostic>, items: &[String], mk: impl Fn(&str) -> Diagnostic) {
    for item in items.iter().take(MAX_PER_CODE) {
        diags.push(mk(item));
    }
    if items.len() > MAX_PER_CODE {
        let sample = mk(&items[0]);
        diags.push(Diagnostic {
            message: format!("... and {} more findings like it", items.len() - MAX_PER_CODE),
            detail: None,
            ..sample
        });
    }
}

/// SD002: a non-linear rule under a linear solver. `message` mirrors the
/// run-time wording so the diagnostic and the eventual solver error agree.
fn sd002(message: String) -> Diagnostic {
    Diagnostic::error("SD002", message).with_detail(
        "nonlinear rules need a black-box solver: \
         try USING swarmops.pso() instead of solverlp",
    )
}

/// Run the analyzer over a compiled model. Pure analysis: it executes
/// no query. With a trace, each pass over the atoms records a
/// `check.*` span — the per-rule attribution of the `check` stage.
///
/// A model the compiler could not evaluate at all simply yields no (or
/// only structural) findings, and the solver reports the failure at run
/// time.
pub fn check_problem(model: &CompiledModel, trace: Option<&obs::Trace>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let prob = &model.prob;
    let solver = prob.solver.as_deref();
    let linear_solver = solver.is_some_and(|s| LINEAR_SOLVERS.contains(&s));
    let clause = if model.minimize { "MINIMIZE" } else { "MAXIMIZE" };

    // No rules at all (predictive solvers, plain fills): nothing to
    // analyze — every variable is legitimately "unreferenced".
    if model.objective.is_none() && model.rules.is_empty() {
        return diags;
    }

    // SD007: multiple objectives for a single-objective solver.
    if prob.minimize.is_some()
        && prob.maximize.is_some()
        && solver.is_some_and(|s| SINGLE_OBJECTIVE_SOLVERS.contains(&s))
    {
        diags.push(Diagnostic::error("SD007", both_objectives(prob).message()).with_detail(
            "drop one objective, or fold it into the other as a weighted sum \
             (e.g. MINIMIZE cost - w * profit)",
        ));
    }

    match &model.objective {
        // SD006: objective with no decision variables.
        Some(Ok(lin)) if lin.is_constant() => {
            diags.push(
                Diagnostic::warning("SD006", "objective contains no decision variables")
                    .with_detail(format!(
                        "the {clause} expression evaluates to the constant {}; \
                         every feasible solution is equally optimal",
                        lin.constant
                    )),
            );
        }
        // SD002 (objective side).
        Some(Err(RuleFailure { kind: FailureKind::NonLinear, error })) if linear_solver => {
            diags.push(sd002(error.message().to_string()));
        }
        _ => {} // fine, or the solver's to report at run time
    }

    for failure in model.rules.iter().filter_map(|r| r.as_ref().err()) {
        match failure.kind {
            // SD004 (constant FALSE cell, caught during evaluation).
            FailureKind::TriviallyFalse => {
                diags.push(Diagnostic::error("SD004", failure.error.to_string()).with_detail(
                    "a constraint cell evaluated to constant FALSE; \
                     no assignment of the decision variables can satisfy it",
                ));
            }
            FailureKind::NonLinear if linear_solver => {
                diags.push(sd002(failure.error.to_string()));
            }
            // Other evaluation failures (unknown relations, type
            // errors) are the solver's to report.
            _ => {}
        }
    }

    // Not `presolve` / `matrixclass`: those name the solver's stages,
    // and stage times are summed by name over the whole tree.
    let passes: [(&str, fn(&CompiledModel, &mut Vec<Diagnostic>)); 7] = [
        ("check.constants", rules::sd004_infeasible_constants),
        ("check.duplicates", rules::sd005_duplicate_or_shadowed),
        ("check.unbounded", rules::sd001_unbounded_in_objective),
        ("check.unreferenced", rules::sd003_unreferenced_columns),
        ("check.propagate", presolve::diag::presolve_rules),
        ("check.structure", structure::sd019_decomposable),
        ("check.matrix", matrixclass::diag::matrix_rules),
    ];
    for (name, pass) in passes {
        obs::trace::span_time(trace, name, || pass(model, &mut diags));
    }

    diags.sort_by(|a, b| b.severity.cmp(&a.severity).then_with(|| a.code.cmp(&b.code)));
    diags
}

/// Prepare a `SOLVESELECT` as its solve does and run the analyzer (the
/// `EXPLAIN CHECK` entry point). Errors only when the solve would fail
/// before its own analysis runs.
pub fn check_stmt(db: &Database, ctes: &Ctes, stmt: &SolveStmt) -> Result<Vec<Diagnostic>> {
    Ok(check_problem(&prepare(db, ctes, stmt, None)?, None))
}

/// True when any diagnostic is `Error`-level (the model cannot solve as
/// written).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}
