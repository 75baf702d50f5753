//! The diagnostic face of the presolve fixpoint: SD008–SD012.
//!
//! The engine runs over the compiled model's linear program — the very
//! rows and declared bounds `solverlp` presolves — so single-variable
//! non-equality atoms are initial bounds (and this pass never re-reports
//! what SD005 says about shadowed bounds) and everything else is a
//! propagation row. Findings derived from a subset of the constraints
//! remain valid for the whole model — propagation only shrinks
//! intervals, so an infeasibility, redundancy or fixing proven early can
//! never be retracted by more constraints.

use super::super::{capped, LINEAR_SOLVERS, MAX_PER_CODE};
use super::{intervals_of, Activity, Infeasibility, Row};
use crate::compile::CompiledModel;
use crate::explain::{render_atom, render_lp_row, var_name};
use crate::symbolic::Rel;
use sqlengine::diag::Diagnostic;

/// Coefficient magnitude ratio beyond which SD012 fires.
const COEFF_RATIO_LIMIT: f64 = 1e8;

/// Run interval propagation over the compiled model and report SD008
/// (proven infeasible), SD009 (implied-fixed variable), SD010
/// (redundant / forcing constraint), SD011 (empty or singleton row)
/// and SD012 (pathological coefficient range).
pub fn presolve_rules(m: &CompiledModel, diags: &mut Vec<Diagnostic>) {
    if m.atoms.is_empty() {
        return;
    }
    let low = m.lowered();
    let row_label = |i: usize| {
        let rule = m.rule_label(m.atoms[low.atom_of_row[i]].rule);
        format!("'{}' (rule {rule})", render_lp_row(m, i))
    };

    for a in &m.atoms {
        // Constant atoms: violated ones are SD004's; satisfied ones add
        // nothing and are worth a note.
        if a.diff.is_constant() {
            let violated = match a.rel {
                Rel::Le => a.diff.constant > super::FEAS,
                Rel::Ge => a.diff.constant < -super::FEAS,
                Rel::Eq => a.diff.constant.abs() > super::FEAS,
            };
            if !violated {
                diags.push(
                    Diagnostic::note(
                        "SD011",
                        format!(
                            "constraint in rule {} is trivially satisfied: {}",
                            m.rule_label(a.rule),
                            render_atom(m, a)
                        ),
                    )
                    .with_detail(
                        "the decision variables cancel out, leaving a constant \
                         comparison that always holds; the constraint can be removed",
                    ),
                );
            }
        }
    }

    // SD012 — pathological coefficient range (linear solvers factor the
    // matrix, its rows — atoms and auxiliary definitions; ranges this
    // wide destroy pivot accuracy).
    let (mut min_abs, mut max_abs) = (f64::INFINITY, 0.0f64);
    for &(_, c) in low.problem.constraints.iter().flat_map(|c| c.coeffs()) {
        min_abs = min_abs.min(c.abs());
        max_abs = max_abs.max(c.abs());
    }
    let linear_solver = m.prob.solver.as_deref().is_some_and(|s| LINEAR_SOLVERS.contains(&s));
    if linear_solver && min_abs > 0.0 && max_abs / min_abs > COEFF_RATIO_LIMIT {
        let orders = (max_abs / min_abs).log10().round();
        diags.push(
            Diagnostic::warning(
                "SD012",
                format!(
                    "constraint coefficients span {orders} orders of magnitude \
                     (|a| from {min_abs:e} to {max_abs:e})"
                ),
            )
            .with_detail(
                "rescale the model's units so coefficient magnitudes are comparable; \
                 ranges beyond 1e8 make simplex pivoting numerically unreliable",
            ),
        );
    }

    // First-pass classification: judge each row against the *declared*
    // bounds alone, so every finding is attributable to the single
    // constraint the user wrote. Cascaded reductions (normal presolve
    // work — clue pinning rippling through a one-hot encoding, say)
    // are healthy and render under `EXPLAIN PRESOLVE`, not as smells.
    let mut forcing: Vec<String> = Vec::new();
    let mut redundant: Vec<String> = Vec::new();
    let mut noop_singleton: Vec<String> = Vec::new();
    let declared = intervals_of(&low.problem);
    for (i, row) in low.problem.constraints.iter().map(Row::of).enumerate() {
        // A constant atom (handled above), or an auxiliary definition (no
        // constraint the user wrote).
        if row.is_empty() || i >= low.atom_of_row.len() {
            continue;
        }
        let act = Activity::of(row, &declared);
        let (minact, maxact) = (act.min(), act.max());
        let tol = super::FEAS * (1.0 + row.rhs.abs());
        if let Some((j, c)) = row.single() {
            // Only singleton *equalities* are rows (inequalities are
            // declared bounds). Pinning a cell is idiomatic — flag just
            // the no-op case where the declared bounds already say the
            // same thing.
            let iv = declared[j];
            if row.eq && iv.is_point() && (iv.lo - row.rhs / c).abs() <= tol {
                noop_singleton.push(row_label(i));
            }
            continue;
        }
        match row.eq {
            false => {
                if maxact <= row.rhs + tol {
                    redundant.push(row_label(i));
                } else if minact.is_finite() && minact >= row.rhs - tol {
                    forcing.push(row_label(i));
                }
            }
            true => {
                let pinned_lo = minact.is_finite() && (minact - row.rhs).abs() <= tol;
                let pinned_hi = maxact.is_finite() && (maxact - row.rhs).abs() <= tol;
                if pinned_lo && pinned_hi {
                    redundant.push(row_label(i));
                } else if pinned_lo || pinned_hi {
                    forcing.push(row_label(i));
                }
            }
        }
    }

    let out = m.propagated();

    // SD008 — propagation proves the model infeasible.
    if let Some(inf) = &out.infeasible {
        let detail = match inf {
            // A violated constant row is SD004's finding, already made.
            Infeasibility::RowActivity { row, .. }
                if low.problem.constraints[*row].coeffs().is_empty() =>
            {
                return;
            }
            Infeasibility::RowActivity { row, minact, maxact } if *row < low.atom_of_row.len() => {
                format!(
                    "constraint {} cannot be satisfied: its activity stays within \
                     [{minact}, {maxact}] under the propagated variable bounds",
                    row_label(*row)
                )
            }
            Infeasibility::EmptyBounds { var } if *var < low.decisions => format!(
                "bound propagation empties the domain of {}: the constraints imply \
                 contradictory lower and upper bounds",
                var_name(m, low.used[*var])
            ),
            // An auxiliary definition or column: no constraint or cell the
            // user wrote.
            _ => "a step of a recursive relation cannot be satisfied under the propagated \
                  variable bounds"
                .to_string(),
        };
        diags.push(
            Diagnostic::error("SD008", "interval propagation proves the model infeasible")
                .with_detail(detail),
        );
        // Reductions logged before the contradiction are unreliable
        // partial states; report only the proof.
        return;
    }

    // SD009 — the constraints fully determine every decision variable:
    // the model solves, but there is no decision left to make.
    let decisions = &out.fixed[..low.decisions];
    let every_variable = low.decisions == m.prob.num_vars();
    if every_variable && !decisions.is_empty() && decisions.iter().all(Option::is_some) {
        let values: Vec<String> = decisions
            .iter()
            .enumerate()
            .take(MAX_PER_CODE)
            .filter_map(|(j, f)| f.map(|x| format!("{} = {x}", var_name(m, low.used[j]))))
            .collect();
        diags.push(
            Diagnostic::warning(
                "SD009",
                "the constraints fix every decision variable before the solver runs",
            )
            .with_detail(format!(
                "bound propagation alone determines the unique feasible assignment \
                 ({}{}); the objective cannot influence the outcome",
                values.join(", "),
                if decisions.len() > MAX_PER_CODE { ", ..." } else { "" }
            )),
        );
    }

    // SD010 — forcing constraints (warning: satisfiable only with every
    // referenced variable at its declared bound, which usually means
    // the model is tighter than meant).
    capped(diags, &forcing, |item| {
        Diagnostic::warning("SD010", format!("constraint {item} is forcing")).with_detail(
            "under the declared bounds this constraint is satisfiable only with \
                 every variable it references pinned at a bound; if that is intended, \
                 fix the variables directly",
        )
    });

    // SD010 — redundant constraints (note).
    capped(diags, &redundant, |item| {
        Diagnostic::note("SD010", format!("constraint {item} is redundant")).with_detail(
            "the declared variable bounds already imply this constraint; it can \
                 be dropped without changing the feasible set",
        )
    });

    // SD011 — no-op singleton equalities.
    capped(diags, &noop_singleton, |item| {
        Diagnostic::note("SD011", format!("singleton equality {item} is a no-op")).with_detail(
            "the declared bounds already pin this variable to the same value; \
                 the constraint adds nothing",
        )
    });
}
