//! Problem explainability (paper §2's explainability discussion):
//! inspect what a `SOLVESELECT` compiles to — decision variables,
//! objective, constraints — without running a solver. This is the
//! PA-pipeline analogue of `EXPLAIN`.

use crate::compile::{Atom, CompiledModel, FailureKind};
use crate::symbolic::{LinExpr, VarId};
use sqlengine::catalog::{Ctes, Database};
use sqlengine::error::Result;
use std::fmt::Write as _;

/// How many constraints [`explain`] renders; a `... and N more` line
/// elides the rest.
const MAX_RENDERED: usize = 20;

/// One-line matrix summary for [`explain`], when the matrix has a row:
/// census, TU verdict and implied-integrality tally, comma-joined.
fn matrix_summary(model: &CompiledModel) -> Option<String> {
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
pub(crate) fn var_name(m: &CompiledModel, v: VarId) -> String {
    let mut name = String::new();
    write_var_name(&mut name, m, v);
    name
}

fn write_var_name(out: &mut String, m: &CompiledModel, v: VarId) {
    let prob = &m.prob;
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
fn write_terms(out: &mut String, m: &CompiledModel, terms: impl Iterator<Item = (VarId, f64)>) {
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
pub(crate) fn render_linexpr(m: &CompiledModel, e: &LinExpr) -> String {
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
pub(crate) fn render_atom(m: &CompiledModel, a: &Atom) -> String {
    format!("{} {} 0", render_linexpr(m, &a.diff), a.rel)
}

/// Render a row `c*name + … ⋈ rhs` as it is, auxiliary columns by name.
pub(crate) fn render_row(
    m: &CompiledModel,
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
pub(crate) fn render_lp_row(m: &CompiledModel, i: usize) -> String {
    let low = m.lowered();
    let c = &low.problem.constraints[i];
    let terms = c.coeffs().iter().map(|&(j, a)| (low.used[j], a)).collect();
    let row = m.expand(&LinExpr { constant: 0.0, terms });
    render_row(m, row.terms.into_iter(), c.rel, c.rhs)
}

/// Render the structure of a prepared `SOLVESELECT` without solving it:
/// the decision relations, the variables and how many the rules
/// reference (§4.3 pruning), and, when the rules compile linear, the
/// objective, the first constraints and the matrix summary; otherwise
/// the first failure that is not non-linearity, or that the solve is a
/// no-op ([`is_no_op`](crate::problem::ProblemInstance::is_no_op)). The
/// relation listing reads every relation as instantiated, so a deferred
/// relation runs here, and its failure is the error.
pub fn explain(db: &Database, ctes: &Ctes, model: &CompiledModel) -> Result<String> {
    let prob = &model.prob;
    let mut s = String::from("decision relations:\n");
    for (ri, r) in prob.relations.iter().enumerate() {
        let table = prob.instantiated(db, ctes, ri)?;
        let dec: Vec<&str> =
            r.dec_cols.iter().map(|&c| table.schema().columns[c].name.as_str()).collect();
        let alias = r.alias.as_deref().unwrap_or("<input>");
        let rows = table.num_rows();
        let _ = writeln!(s, "  {alias} — {rows} rows, decision columns: [{}]", dec.join(", "));
    }
    // A no-op, or a model whose objective or a rule did not compile,
    // renders neither.
    let linear = model.complete() && !prob.is_no_op();
    let used = if linear { model.lowered().decisions } else { prob.num_vars() };
    let _ = writeln!(s, "variables: {} ({used} referenced by rules)", prob.num_vars());
    if linear {
        let sense = if model.minimize { "minimize" } else { "maximize" };
        let o = model.linear_objective().map_or_else(|| "0".into(), |o| render_linexpr(model, o));
        let _ = writeln!(s, "objective: {sense} {o}");
    }
    let atoms = || model.rules.iter().flatten().flatten().flat_map(|c| c.atoms());
    let failure = model.first_failure().filter(|f| f.kind != FailureKind::NonLinear);
    let (count, kind) = match (linear, failure) {
        (true, _) => (atoms().count(), "linear"),
        _ if prob.is_no_op() => (prob.subjectto.len(), "not compiled — no variables, a no-op"),
        (false, None) => (prob.subjectto.len(), "not linear — black-box evaluation"),
        (false, Some(_)) => (prob.subjectto.len(), "not compiled"),
    };
    let _ = writeln!(s, "constraints: {count} ({kind})");
    if let Some(f) = failure {
        let _ = writeln!(s, "  {}", f.error);
    }
    if linear {
        for (l, rel, r) in atoms().take(MAX_RENDERED) {
            let _ =
                writeln!(s, "  {} {rel} {}", render_linexpr(model, l), render_linexpr(model, r));
        }
        if count > MAX_RENDERED {
            let _ = writeln!(s, "  ... and {} more", count - MAX_RENDERED);
        }
        if let Some(mx) = matrix_summary(model) {
            let _ = writeln!(s, "matrix: {mx}");
        }
    }
    if let Some(solver) = &prob.solver {
        let method = prob.method.as_ref().map(|m| format!(".{m}")).unwrap_or_default();
        let _ = writeln!(s, "solver: {solver}{method}");
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::prepare;
    use sqlengine::ast::Statement;
    use sqlengine::{execute_script, parser};

    fn explain_sql(db: &Database, sql: &str) -> Result<String> {
        let Statement::Solve(stmt) = parser::parse_statement(sql)? else {
            panic!("not a solve statement: {sql}");
        };
        explain(db, &Ctes::new(), &prepare(db, &Ctes::new(), &stmt, None)?)
    }

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
        let text = explain_sql(
            &db,
            "SOLVESELECT p(a, b) AS (SELECT * FROM pars) \
             MINIMIZE (SELECT 2*a + b FROM p) \
             SUBJECTTO (SELECT a + b >= 4, a >= 0, b >= 0 FROM p) \
             USING solverlp.cbc()",
        )
        .unwrap();
        for line in [
            "  p — 1 rows, decision columns: [a, b]",
            "variables: 2 (2 referenced by rules)",
            "objective: minimize 2*p[0].a + p[0].b",
            "constraints: 3 (linear)",
            "solver: solverlp.cbc",
        ] {
            assert!(text.lines().any(|l| l == line), "{line}:\n{text}");
        }
    }

    #[test]
    fn reports_pruning() {
        let db = db();
        let text = explain_sql(
            &db,
            "SOLVESELECT p(a, b) AS (SELECT * FROM pars) \
             MINIMIZE (SELECT a FROM p) SUBJECTTO (SELECT a >= 1 FROM p) USING solverlp()",
        )
        .unwrap();
        assert!(text.contains("variables: 2 (1 referenced by rules)"), "{text}");
        // b pruned
    }

    #[test]
    fn nonlinear_problems_fall_back_to_blackbox_report() {
        let db = db();
        let text = explain_sql(
            &db,
            "SOLVESELECT p(a) AS (SELECT * FROM pars) \
             MINIMIZE (SELECT a * a FROM p) \
             SUBJECTTO (SELECT 0 <= a <= 1 FROM p) USING swarmops.pso()",
        )
        .unwrap();
        assert!(text.contains("constraints: 1 (not linear — black-box evaluation)\n"), "{text}");
        assert!(!text.contains("objective:"), "{text}");
    }

    /// An input relation with decision columns and no rows leaves no
    /// variable: the solve returns it, and no rule is compiled.
    #[test]
    fn an_empty_input_is_explained_as_a_no_op() {
        let mut db = db();
        execute_script(&mut db, "DELETE FROM pars").unwrap();
        let text = explain_sql(
            &db,
            "SOLVESELECT p(a) AS (SELECT * FROM pars) MINIMIZE (SELECT sum(a) FROM p) \
             SUBJECTTO (SELECT a >= 1 FROM p) USING solverlp()",
        )
        .unwrap();
        assert!(text.contains("variables: 0 (0 referenced by rules)\n"), "{text}");
        assert!(text.contains("constraints: 1 (not compiled — no variables, a no-op)\n"), "{text}");
        assert!(!text.contains("objective:"), "{text}");
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
            let text = explain_sql(
                &db,
                &format!(
                    "SOLVESELECT p(a) AS (SELECT * FROM pars) MINIMIZE (SELECT a FROM p) \
                     SUBJECTTO (SELECT 0 <= a <= 1 FROM p), ({rule}) USING solverlp()"
                ),
            )
            .unwrap();
            assert!(text.contains("constraints: 2 (not compiled)"), "{rule}:\n{text}");
            assert!(text.contains(reason), "{rule}:\n{text}");
            assert!(!text.contains("black-box"), "{rule}:\n{text}");
        }
    }
}
