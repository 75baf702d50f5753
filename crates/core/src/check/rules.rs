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
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;

// ---------------------------------------------------------------------------
// SD001 — decision variable unbounded in the objective direction
// ---------------------------------------------------------------------------

/// A variable with a nonzero objective coefficient whose improving
/// direction no constraint bounds makes the LP unbounded. The analysis
/// is exact for variables that appear only in single-variable
/// inequality atoms; any appearance in a multi-variable or equality
/// atom disables the check for that variable (the coupling may bound
/// it indirectly).
pub fn sd001_unbounded_in_objective(m: &CompiledModel<'_>, diags: &mut Vec<Diagnostic>) {
    if !m.complete() {
        return;
    }
    let Some(obj) = m.linear_objective() else { return };
    // What the atoms say about each variable, gathered in one pass.
    #[derive(Clone, Copy, Default)]
    struct Bounded {
        coupled: bool,
        lower: bool,
        upper: bool,
    }
    let mut bounded = vec![Bounded::default(); m.prob.num_vars()];
    for a in &m.atoms {
        match a.diff.terms[..] {
            // Single-variable atom c·v + k ⋈ 0.
            [(v, c)] if a.rel != Rel::Eq => {
                if (a.rel == Rel::Le) == (c > 0.0) {
                    bounded[v as usize].upper = true;
                } else {
                    bounded[v as usize].lower = true;
                }
            }
            _ => a.diff.vars().for_each(|v| bounded[v as usize].coupled = true),
        }
    }
    for &(v, coef) in &obj.terms {
        if coef == 0.0 {
            continue;
        }
        // Which way does the objective push v?
        let wants_down = (m.minimize && coef > 0.0) || (!m.minimize && coef < 0.0);
        let Bounded { coupled, lower: has_lower, upper: has_upper } = bounded[v as usize];
        if coupled {
            continue;
        }
        if if wants_down { !has_lower } else { !has_upper } {
            let name = var_name(m.prob, v);
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
pub fn sd003_unreferenced_columns(m: &CompiledModel<'_>, diags: &mut Vec<Diagnostic>) {
    if !m.complete() {
        return;
    }
    let mut used = vec![false; m.prob.num_vars()];
    if let Some(obj) = m.linear_objective() {
        for v in obj.vars() {
            used[v as usize] = true;
        }
    }
    for a in &m.atoms {
        for v in a.diff.vars() {
            used[v as usize] = true;
        }
    }
    // A column counts as referenced if any of its row-variables is.
    let mut referenced: BTreeMap<(usize, usize), bool> = BTreeMap::new();
    for (i, info) in m.prob.vars.iter().enumerate() {
        *referenced.entry((info.rel, info.col)).or_insert(false) |= used[i];
    }
    // Aggregate unreferenced columns per relation.
    let mut per_rel: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (&(rel, col), &hit) in &referenced {
        if !hit {
            let name = m.prob.relations[rel].table.schema.columns[col].name.clone();
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
pub fn sd004_infeasible_constants(m: &CompiledModel<'_>, diags: &mut Vec<Diagnostic>) {
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
                        render_atom(m.prob, a)
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

/// Exact duplicate atoms add no information (warning); a single-variable
/// bound strictly dominated by a tighter bound on the same side is
/// shadowed (note).
pub fn sd005_duplicate_or_shadowed(m: &CompiledModel<'_>, diags: &mut Vec<Diagnostic>) {
    // -- exact duplicates ---------------------------------------------------
    // First occurrences in model order, with how often each recurs.
    let mut seen: Vec<(&Atom, usize)> = Vec::new();
    // Fingerprint of `identity` → the entries of `seen` that have it.
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for a in &m.atoms {
        if a.diff.is_constant() {
            continue; // SD004 territory
        }
        let mut fingerprint = DefaultHasher::new();
        identity(a).for_each(|word| fingerprint.write_u64(word));
        let bucket = buckets.entry(fingerprint.finish()).or_default();
        let at = match bucket.iter().find(|&&i| identity(seen[i].0).eq(identity(a))) {
            Some(&i) => i,
            None => {
                seen.push((a, 0));
                bucket.push(seen.len() - 1);
                seen.len() - 1
            }
        };
        seen[at].1 += 1;
    }
    for (a, n) in &seen {
        if *n > 1 {
            diags.push(
                Diagnostic::warning(
                    "SD005",
                    format!("constraint '{}' appears {n} times", render_atom(m.prob, a)),
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
    let mut bounds: HashMap<(VarId, bool), Vec<f64>> = HashMap::new();
    for a in &m.atoms {
        if a.rel == Rel::Eq || a.diff.terms.len() != 1 {
            continue;
        }
        let (v, c) = a.diff.terms[0];
        let bound = -a.diff.constant / c;
        let upper = (a.rel == Rel::Le) == (c > 0.0);
        bounds.entry((v, upper)).or_default().push(bound);
    }
    let mut shadowed: Vec<(VarId, bool, f64, f64)> = Vec::new();
    for (&(v, upper), bs) in &bounds {
        let binding = if upper {
            bs.iter().cloned().fold(f64::INFINITY, f64::min)
        } else {
            bs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        };
        for &b in bs {
            let slack = if upper { b - binding } else { binding - b };
            if slack > TOL {
                shadowed.push((v, upper, b, binding));
            }
        }
    }
    shadowed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    shadowed.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1 && a.2 == b.2);
    for (v, upper, loose, tight) in shadowed {
        let name = var_name(m.prob, v);
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
