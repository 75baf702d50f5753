//! Problem explainability (paper §2's explainability discussion):
//! inspect what a `SOLVESELECT` compiles to — decision variables,
//! objective, constraints — without running a solver. This is the
//! PA-pipeline analogue of `EXPLAIN`.

use crate::compile::{compile_model, Atom, CompiledModel, FailureKind};
use crate::problem::build_problem;
use crate::symbolic::{LinExpr, VarId};
use sqlengine::ast::{SolveStmt, Statement};
use sqlengine::catalog::{Ctes, Database};
use sqlengine::error::{Error, Result};
use sqlengine::parser;
use std::fmt::Write as _;

/// A human-readable account of a compiled problem.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// One line per decision relation: alias, rows, decision columns.
    pub relations: Vec<String>,
    /// Total decision variables (before pruning).
    pub variables: usize,
    /// Variables actually referenced by rules (after §4.3 pruning).
    pub used_variables: usize,
    /// Rendered objective, when linear.
    pub objective: Option<String>,
    pub minimize: bool,
    /// The first [`MAX_RENDERED`] constraints, rendered, when linear.
    pub constraints: Vec<String>,
    /// How many constraints there are in all.
    pub constraint_count: usize,
    /// Whether the rules compile to a linear program.
    pub linear: bool,
    /// When they do not for a reason other than non-linearity (a
    /// trivially false or non-boolean cell, an unknown relation, two
    /// objectives): the error of the first rule that failed.
    pub failure: Option<String>,
    /// The named solver and method.
    pub solver: Option<String>,
    /// Matrix-classification summary (row-class census, TU verdict,
    /// implied integrality), when the rules compile linear and the
    /// matrix has at least one row.
    pub matrix: Option<String>,
}

/// How many constraints an [`Explanation`] renders; [`Explanation::render`]
/// elides the rest with a `... and N more` line.
const MAX_RENDERED: usize = 20;

impl Explanation {
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "decision relations:");
        for r in &self.relations {
            let _ = writeln!(s, "  {r}");
        }
        let _ = writeln!(
            s,
            "variables: {} ({} referenced by rules)",
            self.variables, self.used_variables
        );
        if let Some(obj) = &self.objective {
            let _ = writeln!(
                s,
                "objective: {} {}",
                if self.minimize { "minimize" } else { "maximize" },
                obj
            );
        }
        let _ = writeln!(
            s,
            "constraints: {} ({})",
            self.constraint_count,
            match (self.linear, &self.failure) {
                (true, _) => "linear",
                (false, None) => "not linear — black-box evaluation",
                (false, Some(_)) => "not compiled",
            }
        );
        if let Some(f) = &self.failure {
            let _ = writeln!(s, "  {f}");
        }
        for c in &self.constraints {
            let _ = writeln!(s, "  {c}");
        }
        if self.linear && self.constraint_count > self.constraints.len() {
            let _ =
                writeln!(s, "  ... and {} more", self.constraint_count - self.constraints.len());
        }
        if let Some(mx) = &self.matrix {
            let _ = writeln!(s, "matrix: {mx}");
        }
        if let Some(sv) = &self.solver {
            let _ = writeln!(s, "solver: {sv}");
        }
        s
    }
}

/// One-line matrix summary for [`Explanation::matrix`]: census, TU
/// verdict and implied-integrality tally, comma-joined.
fn matrix_summary(model: &CompiledModel<'_>) -> Option<String> {
    let p = &model.lowered().problem;
    if p.constraints.is_empty() {
        return None;
    }
    let a = model.matrix_analysis();
    let mut parts = Vec::new();
    let census = a.census_label();
    if !census.is_empty() {
        parts.push(census);
    }
    if let Some(tu) = a.tu {
        parts.push(format!("totally unimodular ({})", tu.label()));
    }
    let declared = p.integer.iter().filter(|&&b| b).count();
    if declared > 0 && !a.relaxable.is_empty() {
        parts.push(format!("implied integrality {}/{declared}", a.relaxable.len()));
    }
    if parts.is_empty() {
        parts.push("no special structure".to_string());
    }
    Some(parts.join(", "))
}

/// The name of variable `v`: `alias[row].column` of its decision cell,
/// or, for an auxiliary column, of the recursive relation's cell it was.
pub(crate) fn var_name(m: &CompiledModel<'_>, v: VarId) -> String {
    let mut name = String::new();
    write_var_name(&mut name, m, v);
    name
}

fn write_var_name(out: &mut String, m: &CompiledModel<'_>, v: VarId) {
    let prob = m.prob;
    let Some(info) = prob.vars.get(v as usize) else {
        out.push_str(&m.aux[v as usize - prob.num_vars()].name);
        return;
    };
    let rel = &prob.relations[info.rel];
    let alias = rel.alias.as_deref().unwrap_or("input");
    let column = rel.table().map_or("", |t| t.schema.columns[info.col].name.as_str());
    _ = write!(out, "{alias}[{}].{column}", info.row);
}

/// The terms `c*name` joined by ` + `, with unit coefficients elided,
/// written onto `out`.
fn write_terms(out: &mut String, m: &CompiledModel<'_>, terms: impl Iterator<Item = (VarId, f64)>) {
    for (i, (v, c)) in terms.enumerate() {
        if i > 0 {
            out.push_str(" + ");
        }
        if c == -1.0 {
            out.push('-');
        } else if c != 1.0 {
            _ = write!(out, "{c}*");
        }
        write_var_name(out, m, v);
    }
}

/// Render `e` in decision variables, auxiliary columns expanded.
pub(crate) fn render_linexpr(m: &CompiledModel<'_>, e: &LinExpr) -> String {
    let e = m.expand(e);
    let mut out = String::new();
    write_terms(&mut out, m, e.terms.iter().copied());
    if e.constant != 0.0 || e.terms.is_empty() {
        if !e.terms.is_empty() {
            out.push_str(" + ");
        }
        _ = write!(out, "{}", e.constant);
    }
    out
}

/// Render an atom `diff ⋈ 0` back into readable form.
pub(crate) fn render_atom(m: &CompiledModel<'_>, a: &Atom) -> String {
    format!("{} {} 0", render_linexpr(m, &a.diff), a.rel)
}

/// Render a row `c*name + … ⋈ rhs` as it is, auxiliary columns by name.
pub(crate) fn render_row(
    m: &CompiledModel<'_>,
    terms: impl Iterator<Item = (VarId, f64)>,
    op: impl std::fmt::Display,
    rhs: f64,
) -> String {
    let mut out = String::new();
    write_terms(&mut out, m, terms);
    _ = write!(out, " {op} {rhs}");
    out
}

/// Render row `i` of the model's linear program in decision variables,
/// auxiliary columns expanded.
pub(crate) fn render_lp_row(m: &CompiledModel<'_>, i: usize) -> String {
    let low = m.lowered();
    let c = &low.problem.constraints[i];
    let terms = c.coeffs.iter().map(|&(j, a)| (low.used[j], a)).collect();
    let row = m.expand(&LinExpr { constant: 0.0, terms });
    render_row(m, row.terms.into_iter(), c.rel, c.rhs)
}

/// Compile (but do not solve) a `SOLVESELECT`, reporting its structure.
pub fn explain_stmt(db: &Database, ctes: &Ctes, stmt: &SolveStmt) -> Result<Explanation> {
    let prob = build_problem(db, ctes, stmt)?;
    // The listing reads every relation as instantiated.
    let relations = (0..prob.relations.len())
        .map(|ri| {
            let (r, table) = (&prob.relations[ri], prob.instantiated(db, ctes, ri)?);
            let dec: Vec<&str> =
                r.dec_cols.iter().map(|&c| table.schema().columns[c].name.as_str()).collect();
            Ok(format!(
                "{} — {} rows, decision columns: [{}]",
                r.alias.as_deref().unwrap_or("<input>"),
                table.num_rows(),
                dec.join(", ")
            ))
        })
        .collect::<Result<_>>()?;
    let model = compile_model(db, ctes, &prob);
    let solver = stmt.using.as_ref().map(|u| {
        let mut s = u.solver.clone();
        if let Some(m) = &u.method {
            s.push('.');
            s.push_str(m);
        }
        s
    });

    if let Some(failure) = model.first_failure() {
        return Ok(Explanation {
            relations,
            variables: prob.num_vars(),
            used_variables: prob.num_vars(),
            objective: None,
            minimize: model.minimize,
            constraints: vec![],
            constraint_count: prob.subjectto.len(),
            linear: false,
            failure: (failure.kind != FailureKind::NonLinear).then(|| failure.error.to_string()),
            solver,
            matrix: None,
        });
    }
    let atoms = || model.rules.iter().flatten().flatten().flat_map(|c| c.atoms());
    let constraints: Vec<String> = atoms()
        .take(MAX_RENDERED)
        .map(|(l, rel, r)| {
            format!("{} {rel} {}", render_linexpr(&model, l), render_linexpr(&model, r))
        })
        .collect();
    Ok(Explanation {
        relations,
        variables: prob.num_vars(),
        used_variables: model.lowered().decisions,
        objective: Some(
            model.linear_objective().map_or_else(|| "0".to_string(), |o| render_linexpr(&model, o)),
        ),
        minimize: model.minimize,
        constraint_count: atoms().count(),
        constraints,
        linear: true,
        failure: None,
        solver,
        matrix: matrix_summary(&model),
    })
}

/// Parse and explain a `SOLVESELECT` statement.
pub fn explain_sql(db: &Database, sql: &str) -> Result<Explanation> {
    match parser::parse_statement(sql)? {
        Statement::Solve(stmt) => explain_stmt(db, &Ctes::new(), &stmt),
        _ => Err(Error::solver("EXPLAIN is only defined for SOLVESELECT statements")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::execute_script;

    fn db() -> Database {
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE pars (a float8, b float8); INSERT INTO pars VALUES (NULL, NULL)",
        )
        .unwrap();
        db
    }

    #[test]
    fn explains_linear_problem() {
        let db = db();
        let e = explain_sql(
            &db,
            "SOLVESELECT p(a, b) AS (SELECT * FROM pars) \
             MINIMIZE (SELECT 2*a + b FROM p) \
             SUBJECTTO (SELECT a + b >= 4, a >= 0, b >= 0 FROM p) \
             USING solverlp.cbc()",
        )
        .unwrap();
        assert!(e.linear);
        assert_eq!(e.variables, 2);
        assert_eq!(e.used_variables, 2);
        assert_eq!(e.constraint_count, 3);
        assert!(e.objective.as_deref().unwrap().contains("2*p[0].a"));
        assert_eq!(e.solver.as_deref(), Some("solverlp.cbc"));
        let text = e.render();
        assert!(text.contains("minimize"));
        assert!(text.contains("p — 1 rows"));
    }

    #[test]
    fn reports_pruning() {
        let db = db();
        let e = explain_sql(
            &db,
            "SOLVESELECT p(a, b) AS (SELECT * FROM pars) \
             MINIMIZE (SELECT a FROM p) SUBJECTTO (SELECT a >= 1 FROM p) USING solverlp()",
        )
        .unwrap();
        assert_eq!(e.variables, 2);
        assert_eq!(e.used_variables, 1); // b pruned
    }

    #[test]
    fn nonlinear_problems_fall_back_to_blackbox_report() {
        let db = db();
        let e = explain_sql(
            &db,
            "SOLVESELECT p(a) AS (SELECT * FROM pars) \
             MINIMIZE (SELECT a * a FROM p) \
             SUBJECTTO (SELECT 0 <= a <= 1 FROM p) USING swarmops.pso()",
        )
        .unwrap();
        assert!(!e.linear && e.failure.is_none());
        assert!(e.render().contains("black-box"));
    }

    /// Only non-linearity earns the black-box label; any other rule
    /// failure is rendered with the rule and its error.
    #[test]
    fn other_rule_failures_are_rendered_not_called_nonlinear() {
        let db = db();
        for (rule, reason) in [
            ("SELECT 1 = 2", "trivially false"),
            ("SELECT a + 1 FROM p", "expected a constraint or boolean"),
            ("SELECT v >= 0 FROM nosuch", "in SUBJECTTO rule (SELECT (v >= 0) FROM nosuch)"),
        ] {
            let e = explain_sql(
                &db,
                &format!(
                    "SOLVESELECT p(a) AS (SELECT * FROM pars) MINIMIZE (SELECT a FROM p) \
                     SUBJECTTO (SELECT 0 <= a <= 1 FROM p), ({rule}) USING solverlp()"
                ),
            )
            .unwrap();
            assert!(!e.linear, "{rule}");
            let text = e.render();
            assert!(text.contains("constraints: 2 (not compiled)"), "{rule}:\n{text}");
            assert!(text.contains(reason), "{rule}:\n{text}");
            assert!(!text.contains("black-box"), "{rule}:\n{text}");
        }
    }

    #[test]
    fn rejects_plain_select() {
        let db = db();
        assert!(explain_sql(&db, "SELECT 1").is_err());
    }
}
