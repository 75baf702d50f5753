//! The structural checks: each inspects the [`CompiledModel`]'s atoms
//! and appends findings. All checks are conservative — when the model
//! could not be fully evaluated (a rule failed, the objective did not
//! compile) the reference- and bound-sensitive checks stay silent
//! rather than guess.

use super::TOL;
use crate::compile::{Atom, CompiledModel};
use crate::explain::{render_atom, var_name};
use crate::symbolic::{Rel, VarId};
use sqlengine::diag::Diagnostic;
use sqlengine::hash::{FastMap, FastState};
use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hasher};

// ---------------------------------------------------------------------------
// SD001 — decision variable unbounded in the objective direction
// ---------------------------------------------------------------------------

/// A variable with a nonzero objective coefficient whose improving
/// direction no constraint bounds makes the LP unbounded. The analysis
/// reads the LP the atoms lower to: it is exact for variables that
/// appear only in its bounds (single-variable inequality atoms); any
/// appearance in a row — a multi-variable or equality atom, an
/// auxiliary column's definition — disables the check for that
/// variable (the coupling may bound it indirectly).
pub fn sd001_unbounded_in_objective(m: &CompiledModel, diags: &mut Vec<Diagnostic>) {
    if !m.complete() || m.linear_objective().is_none() {
        return;
    }
    let low = m.lowered();
    let p = &low.problem;
    let mut coupled = vec![false; p.num_vars];
    p.constraints.iter().flat_map(|c| c.coeffs()).for_each(|&(j, _)| coupled[j] = true);
    for &(j, coef) in &p.objective {
        if coef == 0.0 || coupled[j] {
            continue;
        }
        // Which way does the objective push the variable?
        let wants_down = (m.minimize && coef > 0.0) || (!m.minimize && coef < 0.0);
        let (has_lower, has_upper) = (p.lower[j].is_finite(), p.upper[j].is_finite());
        let v = low.used[j];
        if if wants_down { !has_lower } else { !has_upper } {
            let name = var_name(m, v);
            let sense = if m.minimize { "minimized" } else { "maximized" };
            let dir = if wants_down { "below" } else { "above" };
            diags.push(
                Diagnostic::warning(
                    "SD001",
                    format!("decision variable {name} is unbounded in the objective direction"),
                )
                .with_detail(format!(
                    "the {sense} objective contains {coef}*{name}, but no constraint \
                     bounds {name} from {dir}; the problem is unbounded"
                )),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// SD003 — decision columns never referenced by any rule
// ---------------------------------------------------------------------------

/// A decision column none of whose variables appears in the objective
/// or any constraint is dead weight: §4.3's pruning removes the
/// variables before solving and their cells pass through unchanged,
/// which is rarely what the model author meant.
pub fn sd003_unreferenced_columns(m: &CompiledModel, diags: &mut Vec<Diagnostic>) {
    if !m.complete() {
        return;
    }
    let mut used = vec![false; m.prob.num_vars()];
    let low = m.lowered();
    low.used[..low.decisions].iter().for_each(|&v| used[v as usize] = true);
    // A column counts as referenced if any of its row-variables is.
    let mut referenced: BTreeMap<(usize, usize), bool> = BTreeMap::new();
    for (i, info) in m.prob.vars.iter().enumerate() {
        *referenced.entry((info.rel, info.col)).or_insert(false) |= used[i];
    }
    // Aggregate unreferenced columns per relation.
    let mut per_rel: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (&(rel, col), &hit) in &referenced {
        if !hit {
            let table = m.prob.relations[rel].table();
            let name = table.map_or_else(|_| String::new(), |t| t.schema.columns[col].name.clone());
            per_rel.entry(rel).or_default().push(name);
        }
    }
    for (rel, cols) in per_rel {
        let alias = m.prob.relations[rel].alias.as_deref().unwrap_or("<input>");
        let plural = if cols.len() == 1 { "column" } else { "columns" };
        diags.push(
            Diagnostic::warning(
                "SD003",
                format!(
                    "decision {plural} {} of relation '{alias}' {} never referenced by any rule",
                    cols.join(", "),
                    if cols.len() == 1 { "is" } else { "are" }
                ),
            )
            .with_detail(
                "unreferenced variables are pruned before solving (§4.3) and their \
                 cells pass through unchanged; drop them from the decision list or \
                 reference them in a rule",
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// SD004 — trivially infeasible constant constraints
// ---------------------------------------------------------------------------

/// An atom whose variables cancelled away entirely (`x - x <= -1`)
/// leaves a constant comparison; if it is violated, no assignment can
/// ever satisfy the model. (Constant comparisons that never touch a
/// decision variable, like `1 <= 0`, are caught earlier during rule
/// evaluation and reported from the driver.)
pub fn sd004_infeasible_constants(m: &CompiledModel, diags: &mut Vec<Diagnostic>) {
    for a in &m.atoms {
        if !a.diff.is_constant() {
            continue;
        }
        let c = a.diff.constant;
        let violated = match a.rel {
            Rel::Le => c > TOL,
            Rel::Ge => c < -TOL,
            Rel::Eq => c.abs() > TOL,
        };
        if violated {
            diags.push(
                Diagnostic::error(
                    "SD004",
                    format!(
                        "constraint in rule {} is trivially infeasible: {}",
                        m.rule_label(a.rule),
                        render_atom(m, a)
                    ),
                )
                .with_detail(
                    "the decision variables cancel out, leaving a constant comparison \
                     that is always false",
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// SD005 — duplicate / shadowed constraints
// ---------------------------------------------------------------------------

/// An atom as a stream of words on which two atoms stating the same
/// constraint agree: `Ge` is negated into `Le`, `Eq` is negated when
/// its first coefficient is negative. Fingerprint and comparison both
/// read it; no normalized copy of the atom is built.
fn identity(a: &Atom) -> impl Iterator<Item = u64> + '_ {
    let negate = match a.rel {
        Rel::Ge => true,
        Rel::Eq => a.diff.terms.first().is_some_and(|&(_, c)| c < 0.0),
        Rel::Le => false,
    };
    let signed = move |c: f64| if negate { -c } else { c }.to_bits();
    std::iter::once(u64::from(a.rel == Rel::Eq))
        .chain(a.diff.terms.iter().flat_map(move |&(v, c)| [u64::from(v), signed(c)]))
        .chain(std::iter::once(signed(a.diff.constant)))
}

/// The fingerprint of an atom's [`identity`]: its words, hashed.
fn fingerprint(state: &FastState, a: &Atom) -> u64 {
    let mut h = state.build_hasher();
    identity(a).for_each(|w| h.write_u64(w));
    h.finish()
}

/// Exact duplicate atoms add no information (warning); a single-variable
/// bound strictly dominated by a tighter bound on the same side is
/// shadowed (note).
pub fn sd005_duplicate_or_shadowed(m: &CompiledModel, diags: &mut Vec<Diagnostic>) {
    // -- exact duplicates ---------------------------------------------------
    // First occurrences in model order, with how often each recurs.
    let mut seen: Vec<(&Atom, usize)> = Vec::new();
    // Fingerprint → the latest entry of `seen` that has it; `next[i]` is
    // the entry before `i` with the same fingerprint.
    let state = FastState::default();
    let mut latest: FastMap<u64, usize> = FastMap::with_capacity_and_hasher(m.atoms.len(), state);
    let mut next: Vec<Option<usize>> = Vec::new();
    for a in &m.atoms {
        if a.diff.is_constant() {
            continue; // SD004 territory
        }
        let f = fingerprint(&state, a);
        let mut at = latest.get(&f).copied();
        while let Some(i) = at {
            if identity(seen[i].0).eq(identity(a)) {
                break;
            }
            at = next[i];
        }
        let i = at.unwrap_or_else(|| {
            next.push(latest.insert(f, seen.len()));
            seen.push((a, 0));
            seen.len() - 1
        });
        seen[i].1 += 1;
    }
    for (a, n) in &seen {
        if *n > 1 {
            diags.push(
                Diagnostic::warning(
                    "SD005",
                    format!("constraint '{}' appears {n} times", render_atom(m, a)),
                )
                .with_detail(format!(
                    "first occurrence in rule {}; duplicates add no information and \
                     enlarge the solver input",
                    m.rule_label(a.rule)
                )),
            );
        }
    }

    // -- shadowed single-variable bounds ------------------------------------
    // c·v + k ⋈ 0  ⇒  v ⋈' -k/c, an upper bound when (⋈ is <=) == (c > 0).
    let mut bounds: Vec<(VarId, bool, f64)> = m
        .atoms
        .iter()
        .filter(|a| a.rel != Rel::Eq && matches!(a.diff.terms[..], [(v, _)] if !m.is_aux(v)))
        .map(|a| {
            let (v, c) = a.diff.terms[0];
            (v, (a.rel == Rel::Le) == (c > 0.0), -a.diff.constant / c)
        })
        .collect();
    bounds.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2)));
    // Each (variable, side) is a run of the sorted list, and a bound that
    // appears twice is one note.
    let mut shadowed: Vec<(VarId, bool, f64, f64)> = Vec::new();
    for run in bounds.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (v, upper, _) = run[0];
        let binding = if upper {
            run.iter().map(|b| b.2).fold(f64::INFINITY, f64::min)
        } else {
            run.iter().map(|b| b.2).fold(f64::NEG_INFINITY, f64::max)
        };
        for &(_, _, b) in run {
            let slack = if upper { b - binding } else { binding - b };
            if slack > TOL && shadowed.last().is_none_or(|s| (s.0, s.1, s.2) != (v, upper, b)) {
                shadowed.push((v, upper, b, binding));
            }
        }
    }
    for (v, upper, loose, tight) in shadowed {
        let name = var_name(m, v);
        let op = if upper { "<=" } else { ">=" };
        diags.push(
            Diagnostic::note(
                "SD005",
                format!(
                    "bound '{name} {op} {loose}' is shadowed by the tighter '{name} {op} {tight}'"
                ),
            )
            .with_detail("the looser bound can never be binding and can be dropped"),
        );
    }
}
