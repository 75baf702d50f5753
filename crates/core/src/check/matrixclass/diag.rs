//! The diagnostic face of the matrix classification pass: SD020–SD025.

use super::super::{capped, MAX_PER_CODE};
use crate::compile::CompiledModel;
use crate::explain::{render_lp_row, var_name};
use lp::matrix::{MatrixAnalysis, RowClass, TuCertificate};
use sqlengine::diag::Diagnostic;

/// Run the matrix classification over the checked model and report
/// SD020 (row-class census + matrix summary), SD021/SD022 (total
/// unimodularity), SD023 (implied integrality), SD024 (set row over
/// non-binary variables) and SD025 (knapsack item over capacity).
pub fn matrix_rules(m: &CompiledModel<'_>, diags: &mut Vec<Diagnostic>) {
    if !m.complete() || m.atoms.is_empty() {
        return;
    }
    // The classification serves integer machinery — cut separation,
    // integrality proofs, branching. On a pure LP it changes nothing,
    // so stay silent rather than annotate every continuous model.
    let p = &m.lowered().problem;
    if p.constraints.is_empty() || !p.has_integers() {
        return;
    }
    let a = m.matrix_analysis();

    sd020_census(m, a, diags);
    sd021_sd022_tu(m, a, diags);
    sd023_implied(m, a, diags);
    sd024_set_over_continuous(m, diags);
    sd025_oversized_item(m, a, diags);
}

/// Label of the rule behind LP row `i`.
fn row_rule<'a>(m: &'a CompiledModel<'_>, i: usize) -> &'a str {
    m.rule_label(m.atoms[m.lowered().atom_of_row[i]].rule)
}

/// SD020 — the census note. Its detail is the full matrix summary
/// (`EXPLAIN CHECK`'s matrix-summary section): per-class counts with an
/// example row each, the TU verdict, and the implied-integrality tally.
fn sd020_census(m: &CompiledModel<'_>, a: &MatrixAnalysis, diags: &mut Vec<Diagnostic>) {
    let census = a.census();
    if census.is_empty() {
        return;
    }
    let total = a.row_classes.len();
    let special = a.special_rows();
    let mut lines = vec![format!("rows: {total} total, {special} with special structure")];
    for &(class, count) in &census {
        let example = a
            .row_classes
            .iter()
            .position(|&c| c == class)
            .map(|i| format!("  e.g. {} (rule {})", render_lp_row(m, i), row_rule(m, i)))
            .unwrap_or_default();
        lines.push(format!("{} × {}{example}", count, class_name(class)));
    }
    lines.push(match a.tu {
        Some(TuCertificate::Interval) => {
            "total unimodularity: proven (interval matrix)".to_string()
        }
        Some(TuCertificate::Network) => "total unimodularity: proven (network matrix)".to_string(),
        None => "total unimodularity: not detected".to_string(),
    });
    let declared = m.lowered().problem.integer.iter().filter(|&&b| b).count();
    if declared > 0 {
        lines.push(format!(
            "implied integrality: {} of {declared} integer declaration(s) provable",
            a.relaxable.len()
        ));
    }
    lines.push(
        "classified rows are registered with the solver as cut-separation candidates".to_string(),
    );
    diags.push(
        Diagnostic::note(
            "SD020",
            format!("matrix classification: {special} of {total} rows have special structure"),
        )
        .with_detail(lines.join("\n")),
    );
}

/// SD021/SD022 — whole-matrix total unimodularity.
fn sd021_sd022_tu(m: &CompiledModel<'_>, a: &MatrixAnalysis, diags: &mut Vec<Diagnostic>) {
    let Some(tu) = a.tu else { return };
    let (code, shape) = match tu {
        TuCertificate::Interval => ("SD021", "an interval matrix (consecutive ones in every row)"),
        TuCertificate::Network => {
            ("SD022", "a network matrix (±1 entries, two per column, bipartition exists)")
        }
    };
    let has_integers = m.lowered().problem.has_integers();
    let detail = if !has_integers {
        "the model has no integer variables, so the proof changes nothing here; \
         it documents that every vertex the simplex visits is integral when the \
         data is"
            .to_string()
    } else if a.integral_data {
        "every right-hand side and finite bound is integral, so every vertex of \
         the LP relaxation is integral: solverlp solves the relaxation once and \
         skips branch-and-bound entirely (0 nodes)"
            .to_string()
    } else {
        "the matrix is totally unimodular, but a fractional right-hand side or \
         bound keeps the LP vertices fractional; branch-and-bound still runs"
            .to_string()
    };
    diags.push(
        Diagnostic::note(code, format!("the constraint matrix is {shape} — totally unimodular"))
            .with_detail(detail),
    );
}

/// SD023 — per-variable implied integrality (the partial case; a full
/// TU proof is SD021/SD022's story).
fn sd023_implied(m: &CompiledModel<'_>, a: &MatrixAnalysis, diags: &mut Vec<Diagnostic>) {
    if a.exactness_proof().is_some() || a.relaxable.is_empty() {
        return;
    }
    let names: Vec<String> =
        a.relaxable.iter().take(MAX_PER_CODE).map(|&j| var_name(m, m.lowered().used[j])).collect();
    let declared = m.lowered().problem.integer.iter().filter(|&&b| b).count();
    let all = a.relaxable.len() == declared;
    diags.push(
        Diagnostic::note(
            "SD023",
            format!(
                "integrality of {} integer declaration(s) is implied by equality constraints{}",
                a.relaxable.len(),
                if all { " — branch-and-bound is unnecessary" } else { "" }
            ),
        )
        .with_detail(format!(
            "{}{} take integral values in every solution where the remaining \
             integer variables do; solverlp relaxes them so branch-and-bound \
             never branches on them",
            names.join(", "),
            if a.relaxable.len() > MAX_PER_CODE {
                format!(", ... ({} more)", a.relaxable.len() - MAX_PER_CODE)
            } else {
                String::new()
            }
        )),
    );
}

/// SD024 — an all-ones row with right-hand side 1 over at least one
/// non-binary variable: the set-partitioning shape only means "pick
/// one" when the variables are binary. A row through an auxiliary
/// column (a definition such as `aux + b = 1` for a step's `1 − b`, or
/// a rule over a step's cell) states part of an expression, not a
/// shape, as in [`CompiledModel::matrix_analysis`].
fn sd024_set_over_continuous(m: &CompiledModel<'_>, diags: &mut Vec<Diagnostic>) {
    let low = m.lowered();
    let p = &low.problem;
    let is_binary = |j: usize| p.integer[j] && p.lower[j] == 0.0 && p.upper[j] == 1.0;
    let mut found: Vec<String> = Vec::new();
    for (i, c) in p.constraints.iter().enumerate() {
        let terms = c.coeffs();
        if terms.len() < 2 || c.rhs != 1.0 {
            continue;
        }
        if terms.iter().any(|&(j, _)| j >= low.decisions) {
            continue;
        }
        if !terms.iter().all(|&(_, a)| a == 1.0) {
            continue;
        }
        if terms.iter().all(|&(j, _)| is_binary(j)) {
            continue; // the genuine set row; SD020 counted it
        }
        found.push(format!("'{}' (rule {})", render_lp_row(m, i), row_rule(m, i)));
    }
    capped(diags, &found, |item| {
        Diagnostic::warning(
            "SD024",
            format!("set-partitioning-shaped constraint {item} ranges over non-binary variables"),
        )
        .with_detail(
            "a sum-to-one row only means \"choose one\" when its variables are \
             binary; as written, fractional splits satisfy it — declare the \
             decision columns int with bounds 0..1 if selection was intended",
        )
    });
}

/// SD025 — a knapsack item whose weight alone exceeds the capacity is
/// unselectable; the row silently forces it to zero.
fn sd025_oversized_item(m: &CompiledModel<'_>, a: &MatrixAnalysis, diags: &mut Vec<Diagnostic>) {
    let p = &m.lowered().problem;
    let mut found: Vec<String> = Vec::new();
    for (i, c) in p.constraints.iter().enumerate() {
        if a.row_classes.get(i) != Some(&RowClass::Knapsack) {
            continue;
        }
        for &(j, w) in c.coeffs() {
            // Nonnegative variable with weight above capacity: any
            // positive value violates the row on its own.
            if w > c.rhs && p.lower[j] >= 0.0 {
                found.push(format!(
                    "{} in '{}' (rule {}): weight {w} exceeds capacity {}",
                    var_name(m, m.lowered().used[j]),
                    render_lp_row(m, i),
                    row_rule(m, i),
                    c.rhs
                ));
            }
        }
    }
    capped(diags, &found, |item| {
        Diagnostic::warning("SD025", format!("unselectable knapsack item: {item}")).with_detail(
            "the item's weight alone exceeds the row's capacity, so the \
                 variable is forced to 0 in every feasible solution; drop the \
                 item or fix the data if selection was meant to be possible",
        )
    });
}

fn class_name(c: RowClass) -> &'static str {
    match c {
        RowClass::SetPartitioning => "set-partitioning (sum = 1 over binaries)",
        RowClass::SetPacking => "set-packing (sum <= 1 over binaries)",
        RowClass::SetCovering => "set-covering (sum >= 1 over binaries)",
        RowClass::Cardinality => "cardinality (sum ⋈ k over binaries)",
        RowClass::VariableBound => "variable bound (binary switches a variable)",
        RowClass::Knapsack => "knapsack (weighted sum <= capacity)",
        RowClass::Cover => "cover (weighted sum >= demand)",
        RowClass::FlowBalance => "flow balance (±1 equality)",
        RowClass::General => "general",
    }
}
