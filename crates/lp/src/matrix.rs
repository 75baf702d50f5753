//! Constraint-matrix classification: row taxonomy, total-unimodularity
//! certificates, and per-variable implied integrality.
//!
//! A MIP engine that can *see* the constraint matrix can prove facts a
//! generic branch-and-bound never exploits: a set-partitioning row is a
//! future cut separator's raw material, an interval or network matrix
//! makes the LP relaxation exact (every vertex is integral), and a
//! variable whose integrality is implied by an equality over other
//! integer variables never needs to be branched on. This module is that
//! eye: [`analyze`] runs a static pass over a [`Problem`] and returns a
//! [`MatrixAnalysis`] whose claims downstream code *acts on* — the
//! `solverlp` driver skips branch-and-bound outright on a full
//! integrality certificate and relaxes implied-integral variables
//! otherwise; the classified rows ([`MatrixAnalysis::row_classes`]) are
//! what a knapsack / clique cut separator would read.
//!
//! Everything here is a *certificate*, not a heuristic: each claim is
//! checkable (the proptest harness re-verifies TU claims by brute-force
//! subdeterminant enumeration), and the solver additionally verifies
//! the integrality of any shortcut solution before accepting it, so an
//! unsound claim can cost time but never correctness.

use crate::{Constraint, Problem, Rel};

/// Tolerance for "this floating-point value is an integer".
const INT_EPS: f64 = 1e-9;

/// Structural class of one constraint row.
///
/// Classification is mutually exclusive with a fixed precedence (the
/// most specific class wins); rows that match nothing are `General`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowClass {
    /// `sum(x_B) = 1` over binary variables.
    SetPartitioning,
    /// `sum(x_B) <= 1` over binary variables.
    SetPacking,
    /// `sum(x_B) >= 1` over binary variables.
    SetCovering,
    /// `sum(x_B) ⋈ k` over binaries with integral `k >= 2`.
    Cardinality,
    /// Two-term inequality linking a variable to a binary indicator
    /// (e.g. `x - U*y <= 0`).
    VariableBound,
    /// Positive coefficients (not all 1) over integer variables,
    /// `<= b` with `b > 0` — the knapsack shape cut separators feed on.
    Knapsack,
    /// The `>= b` mirror of a knapsack (covering) row.
    Cover,
    /// All coefficients ±1 in an equality — a flow-conservation shape.
    FlowBalance,
    /// No special structure detected.
    General,
}

impl RowClass {
    /// Short stable label used in telemetry and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            RowClass::SetPartitioning => "setpart",
            RowClass::SetPacking => "setpack",
            RowClass::SetCovering => "setcover",
            RowClass::Cardinality => "card",
            RowClass::VariableBound => "varbound",
            RowClass::Knapsack => "knapsack",
            RowClass::Cover => "cover",
            RowClass::FlowBalance => "flow",
            RowClass::General => "general",
        }
    }

    /// All classes, in census/display order.
    pub const ALL: [RowClass; 9] = [
        RowClass::SetPartitioning,
        RowClass::SetPacking,
        RowClass::SetCovering,
        RowClass::Cardinality,
        RowClass::VariableBound,
        RowClass::Knapsack,
        RowClass::Cover,
        RowClass::FlowBalance,
        RowClass::General,
    ];
}

/// A whole-matrix total-unimodularity certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuCertificate {
    /// 0/1 matrix with consecutive ones in every row (under the given
    /// column order) — an interval matrix, TU by the classical result.
    Interval,
    /// ±1 entries, at most two nonzeros per column, and the rows admit
    /// a Heller–Tompkins bipartition (two same-sign entries of a column
    /// in different parts, opposite-sign in the same part).
    Network,
}

impl TuCertificate {
    pub fn label(self) -> &'static str {
        match self {
            TuCertificate::Interval => "interval-tu",
            TuCertificate::Network => "network-tu",
        }
    }
}

/// Result of the classification pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixAnalysis {
    /// Per-row class, parallel to `Problem::constraints`.
    pub row_classes: Vec<RowClass>,
    /// Whole-matrix TU certificate, when one of the recognizers fires.
    pub tu: Option<TuCertificate>,
    /// Every constraint rhs and every finite variable bound is integral
    /// (the data-side requirement for TU ⇒ integral vertices).
    pub integral_data: bool,
    /// Per-variable: integrality of this variable is implied — by the
    /// whole-matrix certificate, or by an equality row of ±1 coefficient
    /// on the variable, integral data, and otherwise integer terms.
    pub implied_integral: Vec<bool>,
    /// Indices of *declared-integer* variables whose declaration is
    /// implied and can be relaxed without changing the solved set.
    pub relaxable: Vec<usize>,
}

impl MatrixAnalysis {
    /// Number of rows classified into something other than `General`.
    pub fn special_rows(&self) -> usize {
        self.row_classes.iter().filter(|c| **c != RowClass::General).count()
    }

    /// `(class, count)` census over the non-`General` classes, in
    /// display order, zero-count classes omitted.
    pub fn census(&self) -> Vec<(RowClass, usize)> {
        RowClass::ALL
            .iter()
            .filter(|c| **c != RowClass::General)
            .map(|&c| (c, self.row_classes.iter().filter(|r| **r == c).count()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Compact census string for telemetry, e.g. `"setpart:8 varbound:4"`.
    /// Empty when no row has special structure.
    pub fn census_label(&self) -> String {
        self.census()
            .iter()
            .map(|&(c, n)| format!("{}:{n}", c.label()))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The integrality proof that lets a solver skip branch-and-bound
    /// for the whole model: a TU certificate over integral data. The
    /// LP relaxation then has integral optimal vertices, so a vertex
    /// solver (simplex) solves the MIP exactly.
    pub fn exactness_proof(&self) -> Option<TuCertificate> {
        if self.integral_data {
            self.tu
        } else {
            None
        }
    }

    /// Stable label of the strongest integrality fact, for telemetry:
    /// the TU proof when exact, `"implied"` when some declared-integer
    /// variables are relaxable, empty otherwise.
    pub fn proof_label(&self, p: &Problem) -> String {
        if let Some(tu) = self.exactness_proof() {
            if p.has_integers() {
                return tu.label().to_string();
            }
        }
        if !self.relaxable.is_empty() {
            return "implied".to_string();
        }
        String::new()
    }
}

fn is_integral(v: f64) -> bool {
    v.is_finite() && (v - v.round()).abs() <= INT_EPS
}

/// A variable is *binary* when declared integer with bounds [0, 1].
fn is_binary(p: &Problem, j: usize) -> bool {
    p.integer[j] && p.lower[j] == 0.0 && p.upper[j] == 1.0
}

/// The relation of a row multiplied by -1.
fn flip(rel: Rel) -> Rel {
    match rel {
        Rel::Le => Rel::Ge,
        Rel::Ge => Rel::Le,
        Rel::Eq => Rel::Eq,
    }
}

/// Merge duplicate variables and drop zero coefficients, preserving
/// ascending variable order.
fn merged(c: &Constraint) -> Vec<(usize, f64)> {
    let mut terms: Vec<(usize, f64)> = c.coeffs.clone();
    terms.sort_unstable_by_key(|&(j, _)| j);
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
    for (j, a) in terms {
        match out.last_mut() {
            Some((pj, pa)) if *pj == j => *pa += a,
            _ => out.push((j, a)),
        }
    }
    out.retain(|&(_, a)| a != 0.0);
    out
}

/// Classify one row. `terms` is the merged, sorted coefficient list.
fn classify_row(p: &Problem, terms: &[(usize, f64)], rel: Rel, rhs: f64) -> RowClass {
    if terms.is_empty() {
        return RowClass::General;
    }
    // An all-negative row is a negated row (presolve folds Ge into Le
    // that way); flip it back — multiplying a row by -1 changes neither
    // its feasible set nor its combinatorial class.
    if terms.iter().all(|&(_, a)| a < 0.0) {
        let flipped: Vec<(usize, f64)> = terms.iter().map(|&(j, a)| (j, -a)).collect();
        return classify_row(p, &flipped, flip(rel), -rhs);
    }
    let all_binary = terms.iter().all(|&(j, _)| is_binary(p, j));
    let all_ones = terms.iter().all(|&(_, a)| a == 1.0);
    let all_pm1 = terms.iter().all(|&(_, a)| a == 1.0 || a == -1.0);

    if all_binary && all_ones && terms.len() >= 2 {
        if rhs == 1.0 {
            return match rel {
                Rel::Eq => RowClass::SetPartitioning,
                Rel::Le => RowClass::SetPacking,
                Rel::Ge => RowClass::SetCovering,
            };
        }
        if is_integral(rhs) && rhs >= 2.0 {
            return RowClass::Cardinality;
        }
    }
    if terms.len() == 2
        && rel != Rel::Eq
        && terms.iter().any(|&(j, _)| is_binary(p, j))
        && terms.iter().any(|&(j, _)| !is_binary(p, j))
    {
        return RowClass::VariableBound;
    }
    if all_pm1 && rel == Rel::Eq && terms.len() >= 2 {
        return RowClass::FlowBalance;
    }
    let all_pos = terms.iter().all(|&(_, a)| a > 0.0);
    let all_int_vars = terms.iter().all(|&(j, _)| p.integer[j]);
    // Unit weights only disqualify a knapsack/cover when the variables
    // are binary (there the all-ones shapes are the set classes above).
    if all_pos && all_int_vars && !(all_ones && all_binary) && terms.len() >= 2 {
        if rel == Rel::Le && rhs > 0.0 {
            return RowClass::Knapsack;
        }
        if rel == Rel::Ge && rhs > 0.0 {
            return RowClass::Cover;
        }
    }
    RowClass::General
}

/// Interval-matrix recognizer: every row all-ones (or all-minus-ones —
/// a negated row, as presolve emits for Ge rows) over a contiguous run
/// of the *used* column list (columns referenced by at least one row,
/// in index order). Box bounds live outside the row matrix and — being
/// identity rows — never break total unimodularity.
fn interval_certificate(rows: &[Vec<(usize, f64)>]) -> bool {
    if rows.iter().all(|r| r.is_empty()) {
        return false;
    }
    // Rank of each used column among the used columns.
    let mut used: Vec<usize> = rows.iter().flatten().map(|&(j, _)| j).collect();
    used.sort_unstable();
    used.dedup();
    let rank = |j: usize| used.binary_search(&j).unwrap_or(usize::MAX);
    for r in rows {
        // All-ones or all-minus-ones: a negated interval row is still an
        // interval row (row negation preserves total unimodularity).
        if r.iter().any(|&(_, a)| a != 1.0) && r.iter().any(|&(_, a)| a != -1.0) {
            return false;
        }
        // Terms are sorted by column; consecutive ranks required.
        for w in r.windows(2) {
            if rank(w[1].0) != rank(w[0].0) + 1 {
                return false;
            }
        }
    }
    true
}

/// Heller–Tompkins network recognizer: entries ±1, at most two nonzeros
/// per column, and the rows 2-color such that a column's two same-sign
/// entries land in different parts and opposite-sign entries in the
/// same part. Implemented as a parity union-find over rows.
fn network_certificate(rows: &[Vec<(usize, f64)>], num_vars: usize) -> bool {
    if rows.iter().all(|r| r.is_empty()) {
        return false;
    }
    let mut col_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_vars];
    for (i, r) in rows.iter().enumerate() {
        for &(j, a) in r {
            if a != 1.0 && a != -1.0 {
                return false;
            }
            col_rows[j].push((i, a));
            if col_rows[j].len() > 2 {
                return false;
            }
        }
    }
    // Parity union-find: parity 1 = "rows must be in different parts".
    let mut parent: Vec<usize> = (0..rows.len()).collect();
    let mut parity: Vec<u8> = vec![0; rows.len()];
    fn find(parent: &mut [usize], parity: &mut [u8], x: usize) -> (usize, u8) {
        if parent[x] == x {
            return (x, 0);
        }
        let (root, par) = find(parent, parity, parent[x]);
        parent[x] = root;
        parity[x] ^= par;
        (root, parity[x])
    }
    for pair in &col_rows {
        if let [(r1, a1), (r2, a2)] = pair[..] {
            let want = u8::from(a1 == a2); // same sign → different parts
            let (root1, p1) = find(&mut parent, &mut parity, r1);
            let (root2, p2) = find(&mut parent, &mut parity, r2);
            if root1 == root2 {
                if p1 ^ p2 != want {
                    return false;
                }
            } else {
                parent[root1] = root2;
                parity[root1] = p1 ^ p2 ^ want;
            }
        }
    }
    true
}

/// Relaxable declared-integer variables: greedily prove, one variable at
/// a time, that an equality row pins the variable to an integral affine
/// combination of *kept* integer variables — ±1 coefficient on the
/// variable, integral coefficients on the others, integral rhs, every
/// other variable integer-declared and not itself already relaxed. Such
/// a variable is integral in any solution where the kept integers are,
/// so branch-and-bound never needs to branch on it.
fn relaxable_integers(p: &Problem, rows: &[(Vec<(usize, f64)>, Rel, f64)]) -> Vec<usize> {
    let mut relaxed = vec![false; p.num_vars];
    loop {
        let mut progressed = false;
        for (terms, rel, rhs) in rows {
            if *rel != Rel::Eq || !is_integral(*rhs) {
                continue;
            }
            // A row proves one variable at a time; find a candidate.
            for &(j, a) in terms {
                if !p.integer[j] || relaxed[j] || (a != 1.0 && a != -1.0) {
                    continue;
                }
                let others_ok = terms
                    .iter()
                    .all(|&(k, b)| k == j || (p.integer[k] && !relaxed[k] && is_integral(b)));
                if others_ok {
                    relaxed[j] = true;
                    progressed = true;
                    break; // one proof per row per round keeps this acyclic
                }
            }
        }
        if !progressed {
            break;
        }
    }
    (0..p.num_vars).filter(|&j| relaxed[j]).collect()
}

/// Number of independent variable blocks of the constraint matrix: the
/// connected components, under "appears in the same row", of the
/// variables referenced by at least one constraint. Zero when no row
/// references a variable. This is the lp-level mirror of the SD019
/// block detection that runs over the symbolic model.
pub fn block_count(p: &Problem) -> usize {
    let mut parent: Vec<usize> = (0..p.num_vars).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut used = vec![false; p.num_vars];
    for c in &p.constraints {
        let mut first: Option<usize> = None;
        for &(j, a) in &c.coeffs {
            if a == 0.0 || j >= p.num_vars {
                continue;
            }
            used[j] = true;
            match first {
                None => first = Some(j),
                Some(f) => {
                    let (ra, rb) = (find(&mut parent, f), find(&mut parent, j));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
    }
    let mut roots: Vec<usize> =
        (0..p.num_vars).filter(|&j| used[j]).map(|j| find(&mut parent, j)).collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// Run the classification pass over a problem.
pub fn analyze(p: &Problem) -> MatrixAnalysis {
    // Normalize every row once: merged sorted terms, Ge folded into Le
    // only where a check wants it (classification keeps the raw rel).
    let rows: Vec<(Vec<(usize, f64)>, Rel, f64)> =
        p.constraints.iter().map(|c| (merged(c), c.rel, c.rhs)).collect();

    let row_classes: Vec<RowClass> =
        rows.iter().map(|(t, rel, rhs)| classify_row(p, t, *rel, *rhs)).collect();

    let integral_data = rows.iter().all(|(_, _, rhs)| is_integral(*rhs))
        && (0..p.num_vars).all(|j| {
            (p.lower[j].is_infinite() || is_integral(p.lower[j]))
                && (p.upper[j].is_infinite() || is_integral(p.upper[j]))
        });

    // TU recognizers run on the coefficient lists only (relations and
    // rhs don't affect unimodularity of the matrix).
    let coeff_rows: Vec<Vec<(usize, f64)>> = rows.iter().map(|(t, _, _)| t.clone()).collect();
    let tu = if interval_certificate(&coeff_rows) {
        Some(TuCertificate::Interval)
    } else if network_certificate(&coeff_rows, p.num_vars) {
        Some(TuCertificate::Network)
    } else {
        None
    };

    let mut implied_integral = vec![false; p.num_vars];
    if tu.is_some() && integral_data {
        implied_integral.iter_mut().for_each(|b| *b = true);
    } else {
        // Column never referenced by a row, integral (or infinite)
        // bounds: a vertex solver leaves it at a bound.
        let mut in_rows = vec![false; p.num_vars];
        for (t, _, _) in &rows {
            for &(j, _) in t {
                in_rows[j] = true;
            }
        }
        for j in 0..p.num_vars {
            if !in_rows[j]
                && (p.lower[j].is_infinite() || is_integral(p.lower[j]))
                && (p.upper[j].is_infinite() || is_integral(p.upper[j]))
            {
                implied_integral[j] = true;
            }
        }
        for j in relaxable_integers(p, &rows) {
            implied_integral[j] = true;
        }
    }

    let relaxable: Vec<usize> =
        (0..p.num_vars).filter(|&j| p.integer[j] && implied_integral[j]).collect();

    MatrixAnalysis { row_classes, tu, integral_data, implied_integral, relaxable }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binary_problem(n: usize) -> Problem {
        let mut p = Problem::maximize(n);
        for j in 0..n {
            p.set_bounds(j, 0.0, 1.0);
            p.integer[j] = true;
        }
        p
    }

    #[test]
    fn classifies_set_rows() {
        let mut p = binary_problem(4);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Eq, 1.0);
        p.add_constraint(vec![(1, 1.0), (2, 1.0)], Rel::Le, 1.0);
        p.add_constraint(vec![(2, 1.0), (3, 1.0)], Rel::Ge, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Rel::Le, 2.0);
        let a = analyze(&p);
        assert_eq!(
            a.row_classes,
            vec![
                RowClass::SetPartitioning,
                RowClass::SetPacking,
                RowClass::SetCovering,
                RowClass::Cardinality
            ]
        );
        assert_eq!(a.census_label(), "setpart:1 setpack:1 setcover:1 card:1");
    }

    #[test]
    fn classifies_knapsack_and_cover() {
        let mut p = binary_problem(3);
        p.add_constraint(vec![(0, 3.0), (1, 5.0), (2, 4.0)], Rel::Le, 10.0);
        p.add_constraint(vec![(0, 3.0), (1, 5.0)], Rel::Ge, 2.0);
        let a = analyze(&p);
        assert_eq!(a.row_classes, vec![RowClass::Knapsack, RowClass::Cover]);
    }

    #[test]
    fn classifies_variable_bound_and_flow() {
        let mut p = Problem::minimize(3);
        p.set_bounds(0, 0.0, 1.0);
        p.integer[0] = true;
        p.set_bounds(1, 0.0, 100.0);
        p.set_bounds(2, 0.0, 100.0);
        p.add_constraint(vec![(1, 1.0), (0, -50.0)], Rel::Le, 0.0);
        p.add_constraint(vec![(1, 1.0), (2, -1.0)], Rel::Eq, 0.0);
        let a = analyze(&p);
        assert_eq!(a.row_classes, vec![RowClass::VariableBound, RowClass::FlowBalance]);
    }

    #[test]
    fn assignment_matrix_is_network_tu() {
        // 3×3 assignment: rows i: sum_j x[i][j] = 1; cols j: sum_i = 1.
        let n = 3;
        let mut p = binary_problem(n * n);
        for i in 0..n {
            p.add_constraint((0..n).map(|j| (i * n + j, 1.0)).collect(), Rel::Eq, 1.0);
        }
        for j in 0..n {
            p.add_constraint((0..n).map(|i| (i * n + j, 1.0)).collect(), Rel::Eq, 1.0);
        }
        let a = analyze(&p);
        assert_eq!(a.tu, Some(TuCertificate::Network));
        assert!(a.integral_data);
        assert_eq!(a.exactness_proof(), Some(TuCertificate::Network));
        assert!(a.implied_integral.iter().all(|&b| b));
        assert_eq!(a.relaxable.len(), n * n);
    }

    #[test]
    fn consecutive_ones_matrix_is_interval_tu() {
        // Staffing-style coverage: shifts cover contiguous hour windows.
        let mut p = Problem::minimize(4);
        for j in 0..4 {
            p.set_bounds(j, 0.0, 10.0);
            p.integer[j] = true;
        }
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Ge, 2.0);
        p.add_constraint(vec![(1, 1.0), (2, 1.0), (3, 1.0)], Rel::Ge, 3.0);
        p.add_constraint(vec![(2, 1.0), (3, 1.0)], Rel::Ge, 1.0);
        let a = analyze(&p);
        assert_eq!(a.tu, Some(TuCertificate::Interval));
        assert!(a.integral_data);
    }

    #[test]
    fn gap_in_ones_defeats_interval_but_may_still_be_network() {
        let mut p = binary_problem(3);
        // Row references columns 0 and 2 while column 1 is also used —
        // not contiguous; but ≤2 nonzeros per column keeps it network.
        p.add_constraint(vec![(0, 1.0), (2, 1.0)], Rel::Eq, 1.0);
        p.add_constraint(vec![(1, 1.0), (2, 1.0)], Rel::Eq, 1.0);
        let a = analyze(&p);
        assert_ne!(a.tu, Some(TuCertificate::Interval));
    }

    #[test]
    fn odd_cycle_defeats_network() {
        // Each column has two +1 entries; the row conflict graph is an
        // odd cycle → no Heller–Tompkins bipartition. This matrix has a
        // 3×3 submatrix with determinant ±2 (not TU).
        let mut p = binary_problem(3);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Le, 1.0);
        p.add_constraint(vec![(1, 1.0), (2, 1.0)], Rel::Le, 1.0);
        p.add_constraint(vec![(0, 1.0), (2, 1.0)], Rel::Le, 1.0);
        let a = analyze(&p);
        assert_eq!(a.tu, None);
    }

    #[test]
    fn fractional_data_blocks_the_exactness_proof() {
        let mut p = binary_problem(2);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Rel::Eq, 0.5);
        let a = analyze(&p);
        assert!(!a.integral_data);
        assert_eq!(a.exactness_proof(), None);
    }

    #[test]
    fn aggregate_integer_is_relaxable() {
        // w = 3 z0 + 5 z1 with z binary, w declared integer: w's
        // integrality is implied, the z's are not relaxable through the
        // same row (their coefficients are not ±1... z0 is ±1? 3 and 5
        // are not ±1, so neither z qualifies via this row).
        let mut p = Problem::maximize(3);
        p.set_bounds(0, 0.0, 1.0);
        p.integer[0] = true;
        p.set_bounds(1, 0.0, 1.0);
        p.integer[1] = true;
        p.set_bounds(2, 0.0, 8.0);
        p.integer[2] = true;
        p.add_constraint(vec![(2, 1.0), (0, -3.0), (1, -5.0)], Rel::Eq, 0.0);
        let a = analyze(&p);
        assert_eq!(a.relaxable, vec![2]);
        assert!(a.implied_integral[2]);
        assert!(!a.implied_integral[0]);
    }

    #[test]
    fn continuous_term_blocks_relaxation() {
        let mut p = Problem::maximize(2);
        p.set_bounds(0, 0.0, 1.0); // continuous
        p.set_bounds(1, 0.0, 8.0);
        p.integer[1] = true;
        p.add_constraint(vec![(1, 1.0), (0, -3.0)], Rel::Eq, 0.0);
        let a = analyze(&p);
        assert!(a.relaxable.is_empty());
    }

    #[test]
    fn duplicate_coefficients_merge_before_classification() {
        let mut p = binary_problem(2);
        // 0.5 x0 + 0.5 x0 + x1 = 1 is an all-ones set-partitioning row.
        p.constraints.push(Constraint::new(vec![(0, 0.5), (0, 0.5), (1, 1.0)], Rel::Eq, 1.0));
        let a = analyze(&p);
        assert_eq!(a.row_classes, vec![RowClass::SetPartitioning]);
    }

    #[test]
    fn block_count_counts_components() {
        let mut p = Problem::minimize(5);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Le, 1.0);
        p.add_constraint(vec![(2, 1.0), (3, 1.0)], Rel::Le, 1.0);
        assert_eq!(block_count(&p), 2); // var 4 unreferenced
        p.add_constraint(vec![(1, 1.0), (2, 1.0)], Rel::Le, 1.0);
        assert_eq!(block_count(&p), 1);
        assert_eq!(block_count(&Problem::minimize(3)), 0);
    }

    #[test]
    fn negated_rows_classify_and_certify_like_their_originals() {
        // Presolve folds `x + y >= 1` into `-x - y <= -1`; the class and
        // the interval-TU certificate must survive the negation.
        let mut p = binary_problem(3);
        p.add_constraint(vec![(0, -1.0), (1, -1.0)], Rel::Le, -1.0);
        p.add_constraint(vec![(1, -1.0), (2, -1.0)], Rel::Le, -1.0);
        let a = analyze(&p);
        assert_eq!(a.row_classes, vec![RowClass::SetCovering, RowClass::SetCovering]);
        assert_eq!(a.tu, Some(TuCertificate::Interval));
    }

    #[test]
    fn unit_weight_rows_over_general_integers_are_covers() {
        // All-ones only means "set row" over binaries; over wider
        // integer ranges the same shape is a cover/knapsack.
        let mut p = Problem::minimize(3);
        for j in 0..3 {
            p.integer[j] = true;
            p.lower[j] = 0.0;
            p.upper[j] = 10.0;
        }
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Rel::Ge, 3.0);
        p.add_constraint(vec![(1, 1.0), (2, 1.0)], Rel::Le, 5.0);
        let a = analyze(&p);
        assert_eq!(a.row_classes, vec![RowClass::Cover, RowClass::Knapsack]);
    }

    #[test]
    fn empty_matrix_claims_nothing() {
        let p = binary_problem(3);
        let a = analyze(&p);
        assert!(a.row_classes.is_empty());
        assert_eq!(a.tu, None);
        assert_eq!(a.census_label(), "");
        // With no rows, every integral-bounded column is implied.
        assert_eq!(a.relaxable, vec![0, 1, 2]);
    }
}
