//! The simplex basis as a sparse LU factorization plus a product-form
//! eta file: B₀ = L·U for the basis last factorized, and one eta matrix
//! per column exchanged since, B = B₀·E₁·…·E_k.
//!
//! Rows are constraint indices, columns are basis positions. A
//! factorization is a sequence of m pivots (row pₖ, position qₖ):
//!
//! * a **column singleton** — a column with one entry among the rows not
//!   yet pivoted — pivots without elimination: its entries in pivoted
//!   rows are a column of U and there is nothing below to eliminate;
//! * a **row singleton** — a row with one entry among the columns not yet
//!   pivoted — eliminates that column's other unpivoted entries (an L
//!   eta) and, the row being otherwise empty, changes no other column;
//! * what survives both (the *nucleus*) is eliminated left-looking in
//!   ascending column count; the pivot row is the one with the fewest
//!   nucleus entries among those within [`THRESHOLD`] of the column's
//!   largest (Markowitz's row count under threshold partial pivoting).
//!
//! Simplex bases are mostly slacks and near-triangular, so the nucleus is
//! small and the factors have about as many nonzeros as the basis itself.
//! L is kept as column etas in pivot order, U by column with the diagonal
//! apart, so FTRAN scatters and BTRAN gathers.

/// A pivot smaller than this makes the basis singular.
const SINGULAR_TOL: f64 = 1e-12;
/// Nucleus pivots are at least this share of their column's largest
/// eligible entry.
const THRESHOLD: f64 = 0.1;
/// Refactorize once the eta file holds this many times the nonzeros of
/// the fresh factor: from there on a solve spends more on the updates
/// than on the factor they update.
const ETA_GROWTH: usize = 2;
/// Refactorize after this many updates whatever their size: every eta
/// compounds the rounding error of the ones before it.
const ETA_CAP: usize = 64;

/// A list of sparse vectors in one arena: vector `e` is
/// `idx[start[e]..start[e + 1]]` with the matching `val`.
struct SparseVecs {
    start: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl SparseVecs {
    fn new() -> SparseVecs {
        SparseVecs { start: vec![0], idx: Vec::new(), val: Vec::new() }
    }

    fn clear(&mut self) {
        self.start.clear();
        self.start.push(0);
        self.idx.clear();
        self.val.clear();
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn nnz(&self) -> usize {
        self.idx.len()
    }

    fn push_entry(&mut self, i: usize, v: f64) {
        self.idx.push(i);
        self.val.push(v);
    }

    /// Close the vector the last `push_entry` calls built.
    fn finish(&mut self) {
        self.start.push(self.idx.len());
    }

    /// The same, unless no entry was pushed; returns whether one was.
    fn finish_nonempty(&mut self) -> bool {
        let nonempty = self.idx.len() > self.start[self.len()];
        if nonempty {
            self.finish();
        }
        nonempty
    }

    /// x ← x − t·vₑ.
    #[inline]
    fn scatter(&self, e: usize, t: f64, x: &mut [f64]) {
        let (lo, hi) = (self.start[e], self.start[e + 1]);
        for (&i, &v) in self.idx[lo..hi].iter().zip(&self.val[lo..hi]) {
            x[i] -= v * t;
        }
    }

    /// vₑ·x.
    #[inline]
    fn dot(&self, e: usize, x: &[f64]) -> f64 {
        let (lo, hi) = (self.start[e], self.start[e + 1]);
        self.idx[lo..hi].iter().zip(&self.val[lo..hi]).map(|(&i, &v)| v * x[i]).sum()
    }
}

/// A factorized basis. All buffers are sized once and reused, so neither
/// a solve nor a refactorization allocates in the steady state.
pub(crate) struct Factor {
    m: usize,
    /// Pivot k eliminated row `prow[k]` with the column at basis
    /// position `pcol[k]`; `diag[k]` is the pivot element.
    prow: Vec<usize>,
    pcol: Vec<usize>,
    diag: Vec<f64>,
    /// Column k of U above its diagonal: entries in rows pivoted before k.
    u: SparseVecs,
    /// The L etas in pivot order: eta e subtracts `l`ₑ times the value at
    /// row `l_row[e]` from the rows below.
    l: SparseVecs,
    l_row: Vec<usize>,
    /// The eta file: update e replaced basis position `eta_pos[e]`; the
    /// entering column was `eta_pivot[e]` there and `eta`ₑ elsewhere, in
    /// the coordinates of the basis before it.
    eta: SparseVecs,
    eta_pos: Vec<usize>,
    eta_pivot: Vec<f64>,
    /// Row-indexed scratch of the solves and of the nucleus elimination.
    work: Vec<f64>,

    // Factorization scratch.
    row_count: Vec<usize>,
    col_count: Vec<usize>,
    row_done: Vec<bool>,
    col_done: Vec<bool>,
    /// The basis pattern by row: positions with an entry in row i are
    /// `row_cols[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<usize>,
    row_cols: Vec<usize>,
    row_stack: Vec<usize>,
    col_stack: Vec<usize>,
    nucleus: Vec<usize>,
    touched: Vec<usize>,
    marked: Vec<bool>,
    /// Positions the last factorization found no pivot for.
    rejected: Vec<usize>,
}

impl Factor {
    /// An unfactorized basis of dimension `m`; [`Factor::factorize`]
    /// comes before any solve.
    pub(crate) fn new(m: usize) -> Factor {
        Factor {
            m,
            prow: Vec::with_capacity(m),
            pcol: Vec::with_capacity(m),
            diag: Vec::with_capacity(m),
            u: SparseVecs::new(),
            l: SparseVecs::new(),
            l_row: Vec::new(),
            eta: SparseVecs::new(),
            eta_pos: Vec::new(),
            eta_pivot: Vec::new(),
            work: vec![0.0; m],
            row_count: vec![0; m],
            col_count: vec![0; m],
            row_done: vec![false; m],
            col_done: vec![false; m],
            row_start: vec![0; m + 1],
            row_cols: Vec::new(),
            row_stack: Vec::new(),
            col_stack: Vec::new(),
            nucleus: Vec::new(),
            touched: Vec::new(),
            marked: vec![false; m],
            rejected: Vec::new(),
        }
    }

    /// Factorize the basis whose position k holds `cols[basis[k]]`
    /// (sparse (row, coefficient), rows distinct) and empty the eta file.
    /// Returns false if it is singular: the columns that found no pivot
    /// were passed over, and the factor is unusable until
    /// [`Factor::replace_rejected`] puts unit columns in their place.
    pub(crate) fn factorize(&mut self, cols: &[Vec<(usize, f64)>], basis: &[usize]) -> bool {
        let m = self.m;
        self.prow.clear();
        self.pcol.clear();
        self.diag.clear();
        self.u.clear();
        self.l.clear();
        self.l_row.clear();
        self.eta.clear();
        self.eta_pos.clear();
        self.eta_pivot.clear();
        self.rejected.clear();

        // Counts, and the pattern by row.
        self.row_count.fill(0);
        for (k, &j) in basis.iter().enumerate() {
            self.col_count[k] = cols[j].len();
            for &(i, _) in &cols[j] {
                self.row_count[i] += 1;
            }
        }
        for i in 0..m {
            self.row_start[i + 1] = self.row_start[i] + self.row_count[i];
        }
        self.row_cols.clear();
        self.row_cols.resize(self.row_start[m], 0);
        // Each row fills from its end, counting `row_count` down to 0.
        for (k, &j) in basis.iter().enumerate() {
            for &(i, _) in &cols[j] {
                self.row_count[i] -= 1;
                self.row_cols[self.row_start[i] + self.row_count[i]] = k;
            }
        }
        for i in 0..m {
            self.row_count[i] = self.row_start[i + 1] - self.row_start[i];
        }

        self.row_done.fill(false);
        self.col_done.fill(false);
        self.row_stack.clear();
        self.col_stack.clear();
        // An empty row or column is found when the singletons run out
        // of entries to pivot on: the column is rejected, the row left
        // without a pivot.
        self.col_stack.extend((0..m).filter(|&k| self.col_count[k] <= 1));
        self.row_stack.extend((0..m).filter(|&i| self.row_count[i] <= 1));

        // Singletons, cascading. No entry of a still-active column is
        // ever changed here, so U and L take the original coefficients.
        loop {
            if let Some(k) = self.col_stack.pop() {
                if self.col_done[k] {
                    continue;
                }
                let col = &cols[basis[k]];
                let active = col.iter().find(|&&(i, _)| !self.row_done[i]);
                let Some(&(i, a)) = active.filter(|&&(_, a)| a.abs() >= SINGULAR_TOL) else {
                    self.reject(col, k);
                    continue;
                };
                self.pivot_singleton(col, i, k, a);
                // Row i leaves the active part of every other column.
                for p in self.row_start[i]..self.row_start[i + 1] {
                    let k2 = self.row_cols[p];
                    if !self.col_done[k2] {
                        self.col_count[k2] -= 1;
                        if self.col_count[k2] <= 1 {
                            self.col_stack.push(k2);
                        }
                    }
                }
            } else if let Some(i) = self.row_stack.pop() {
                if self.row_done[i] {
                    continue;
                }
                let row = &self.row_cols[self.row_start[i]..self.row_start[i + 1]];
                let Some(&k) = row.iter().find(|&&k| !self.col_done[k]) else {
                    continue;
                };
                let col = &cols[basis[k]];
                let entry = col.iter().find(|&&(r, _)| r == i);
                let Some(&(_, a)) = entry.filter(|&&(_, a)| a.abs() >= SINGULAR_TOL) else {
                    self.reject(col, k);
                    continue;
                };
                self.pivot_singleton(col, i, k, a);
                // Column k leaves the active part of every other row.
                for &(i2, _) in col {
                    if !self.row_done[i2] {
                        self.row_count[i2] -= 1;
                        if self.row_count[i2] <= 1 {
                            self.row_stack.push(i2);
                        }
                    }
                }
            } else {
                break;
            }
        }

        self.nucleus.clear();
        self.nucleus.extend((0..m).filter(|&k| !self.col_done[k]));
        if !self.nucleus.is_empty() {
            self.nucleus.sort_by_key(|&k| self.col_count[k]);
            // The solves leave `work` as they finished with it.
            self.work.fill(0.0);
            for n in 0..self.nucleus.len() {
                let k = self.nucleus[n];
                if !self.eliminate(&cols[basis[k]], k) {
                    self.rejected.push(k);
                }
            }
        }
        debug_assert_eq!(self.prow.len() + self.rejected.len(), m);
        self.rejected.is_empty()
    }

    /// Pass over the column at position `k` in the singleton phase: it
    /// leaves the active part of every row.
    fn reject(&mut self, col: &[(usize, f64)], k: usize) {
        self.col_done[k] = true;
        self.rejected.push(k);
        for &(i, _) in col {
            if !self.row_done[i] {
                self.row_count[i] -= 1;
                if self.row_count[i] <= 1 {
                    self.row_stack.push(i);
                }
            }
        }
    }

    /// After a [`Factor::factorize`] that returned false: complete the
    /// factor as that of the basis with, at every position found without
    /// a pivot, the unit column of a row no column pivoted on. Returns
    /// those (position, row) pairs; the caller's basis must follow them.
    pub(crate) fn replace_rejected(&mut self) -> Vec<(usize, usize)> {
        let unpivoted = (0..self.m).filter(|&i| !self.row_done[i]);
        let pairs: Vec<(usize, usize)> = self.rejected.drain(..).zip(unpivoted).collect();
        // A unit column of an unpivoted row is untouched by the L etas
        // and has nothing in a pivoted row: an empty U column, no eta.
        for &(k, i) in &pairs {
            self.close_pivot(i, k, 1.0);
        }
        debug_assert_eq!(self.prow.len(), self.m);
        pairs
    }

    /// Record the singleton pivot (row i, position k, element a) of
    /// `col`: its entries in pivoted rows go to U, those in other active
    /// rows (none for a column singleton) are eliminated by an L eta.
    fn pivot_singleton(&mut self, col: &[(usize, f64)], i: usize, k: usize, a: f64) {
        for &(r, v) in col {
            if self.row_done[r] {
                self.u.push_entry(r, v);
            } else if r != i {
                self.l.push_entry(r, v / a);
            }
        }
        self.close_pivot(i, k, a);
    }

    /// Close the U column and L eta just pushed as those of the pivot
    /// (row i, position k, element a).
    fn close_pivot(&mut self, i: usize, k: usize, a: f64) {
        self.u.finish();
        if self.l.finish_nonempty() {
            self.l_row.push(i);
        }
        self.prow.push(i);
        self.pcol.push(k);
        self.diag.push(a);
        self.row_done[i] = true;
        self.col_done[k] = true;
    }

    /// Eliminate nucleus column `col` at position `k`: apply the L etas
    /// so far, pick the pivot row, split the result into a U column and
    /// a new L eta.
    fn eliminate(&mut self, col: &[(usize, f64)], k: usize) -> bool {
        self.touched.clear();
        for &(i, a) in col {
            self.work[i] = a;
            self.marked[i] = true;
            self.touched.push(i);
        }
        // Etas of singleton rows find a zero (a nucleus column has no
        // entry in such a row) and are skipped like any other.
        for e in 0..self.l.len() {
            let t = self.work[self.l_row[e]];
            if t != 0.0 {
                for p in self.l.start[e]..self.l.start[e + 1] {
                    let i = self.l.idx[p];
                    if !self.marked[i] {
                        self.marked[i] = true;
                        self.touched.push(i);
                    }
                    self.work[i] -= self.l.val[p] * t;
                }
            }
        }
        let largest = self
            .touched
            .iter()
            .filter(|&&i| !self.row_done[i])
            .map(|&i| self.work[i].abs())
            .fold(0.0, f64::max);
        let mut pivot: Option<(usize, usize, f64)> = None; // (row, row count, |element|)
        if largest >= SINGULAR_TOL {
            for &i in &self.touched {
                let size = self.work[i].abs();
                if self.row_done[i] || size < THRESHOLD * largest {
                    continue;
                }
                let count = self.row_count[i];
                if pivot.map_or(true, |(_, c, s)| count < c || (count == c && size > s)) {
                    pivot = Some((i, count, size));
                }
            }
        }
        if let Some((r, _, _)) = pivot {
            let a = self.work[r];
            for &i in &self.touched {
                let v = self.work[i];
                if v == 0.0 || i == r {
                    continue;
                }
                if self.row_done[i] {
                    self.u.push_entry(i, v);
                } else {
                    self.l.push_entry(i, v / a);
                }
            }
            self.close_pivot(r, k, a);
        }
        for &i in &self.touched {
            self.work[i] = 0.0;
            self.marked[i] = false;
        }
        pivot.is_some()
    }

    /// x ← B⁻¹·x: in, a vector indexed by row; out, by basis position.
    pub(crate) fn ftran(&mut self, x: &mut [f64]) {
        let work = &mut self.work[..];
        work.copy_from_slice(x);
        for (e, &r) in self.l_row.iter().enumerate() {
            let t = work[r];
            if t != 0.0 {
                self.l.scatter(e, t, work);
            }
        }
        for k in (0..self.m).rev() {
            let t = work[self.prow[k]];
            if t == 0.0 {
                x[self.pcol[k]] = 0.0;
                continue;
            }
            let xk = t / self.diag[k];
            x[self.pcol[k]] = xk;
            self.u.scatter(k, xk, work);
        }
        for (e, &r) in self.eta_pos.iter().enumerate() {
            if x[r] != 0.0 {
                let xr = x[r] / self.eta_pivot[e];
                x[r] = xr;
                self.eta.scatter(e, xr, x);
            }
        }
    }

    /// x' ← x'·B⁻¹: in, a vector indexed by basis position; out, by row.
    pub(crate) fn btran(&mut self, x: &mut [f64]) {
        for (e, &r) in self.eta_pos.iter().enumerate().rev() {
            let rest = self.eta.dot(e, x);
            x[r] = (x[r] - rest) / self.eta_pivot[e];
        }
        let work = &mut self.work[..];
        for k in 0..self.m {
            let z = (x[self.pcol[k]] - self.u.dot(k, work)) / self.diag[k];
            work[self.prow[k]] = z;
        }
        for (e, &r) in self.l_row.iter().enumerate().rev() {
            let below = self.l.dot(e, work);
            work[r] -= below;
        }
        x.copy_from_slice(work);
    }

    /// The column whose FTRAN is `w` replaces basis position `r`.
    pub(crate) fn update(&mut self, r: usize, w: &[f64]) {
        for (i, &v) in w.iter().enumerate() {
            if v != 0.0 && i != r {
                self.eta.push_entry(i, v);
            }
        }
        self.eta.finish();
        self.eta_pos.push(r);
        self.eta_pivot.push(w[r]);
    }

    /// Whether the eta file has outgrown the factor it updates.
    pub(crate) fn wants_refactor(&self) -> bool {
        let fresh = self.m + self.l.nnz() + self.u.nnz();
        self.eta_pos.len() >= ETA_CAP || self.eta.nnz() > ETA_GROWTH * fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Columns = Vec<Vec<(usize, f64)>>;

    /// The kernel's basis inverse before this module: dense row-major
    /// B⁻¹ by Gauss–Jordan with partial pivoting, `None` when singular.
    /// Kept as the oracle the factor must agree with.
    fn dense_inverse(cols: &Columns, basis: &[usize]) -> Option<Vec<f64>> {
        let m = basis.len();
        let mut mat = vec![0.0; m * m];
        for (k, &j) in basis.iter().enumerate() {
            for &(r, a) in &cols[j] {
                mat[r * m + k] = a;
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            let mut piv = col;
            let mut best = mat[col * m + col].abs();
            for r in (col + 1)..m {
                let v = mat[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if piv != col {
                for c in 0..m {
                    mat.swap(col * m + c, piv * m + c);
                    inv.swap(col * m + c, piv * m + c);
                }
            }
            let d = mat[col * m + col];
            for c in 0..m {
                mat[col * m + c] /= d;
                inv[col * m + c] /= d;
            }
            for r in 0..m {
                if r != col {
                    let f = mat[r * m + col];
                    if f != 0.0 {
                        for c in 0..m {
                            mat[r * m + c] -= f * mat[col * m + c];
                            inv[r * m + c] -= f * inv[col * m + c];
                        }
                    }
                }
            }
        }
        Some(inv)
    }

    /// A random column over `m` rows: a single entry, a handful, or —
    /// with probability `dense` — all.
    fn random_column(rng: &mut StdRng, m: usize, dense: f64) -> Vec<(usize, f64)> {
        let entries = if rng.gen_bool(dense) {
            m
        } else if rng.gen_bool(0.4) {
            1
        } else {
            rng.gen_range(1..=m.min(4))
        };
        let mut rows: Vec<usize> = (0..m).collect();
        for i in 0..entries {
            let j = rng.gen_range(i..m);
            rows.swap(i, j);
        }
        rows.truncate(entries);
        rows.sort_unstable();
        rows.into_iter()
            .map(|r| {
                let a: f64 = rng.gen_range(0.5..4.0);
                (r, if rng.gen_bool(0.5) { a } else { -a })
            })
            .collect()
    }

    /// A random basis of dimension `m` that is regular by construction:
    /// a scaled row permutation, and on top of it in most columns the
    /// entries of a random column shrunk below the permutation's. The
    /// seed picks how many columns are dense (none, a few, a tenth), so
    /// the corpus runs from all-singleton bases to ones that are all
    /// nucleus. `near_singular` makes column 1 a copy of column 0 up to
    /// 1e-7 in its own permuted row. Followed by `spare` more columns to
    /// exchange in.
    fn random_basis(seed: u64, m: usize, near_singular: bool, spare: usize) -> Columns {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = [0.0, 0.03, 0.1][(seed % 3) as usize];
        let mut perm: Vec<usize> = (0..m).collect();
        for i in 0..m {
            let j = rng.gen_range(i..m);
            perm.swap(i, j);
        }
        let mut cols: Columns = Vec::new();
        for k in 0..m {
            let mut col = vec![(perm[k], rng.gen_range(1.0..5.0))];
            if rng.gen_bool(0.6) {
                col.extend(
                    random_column(&mut rng, m, dense)
                        .into_iter()
                        .filter(|&(r, _)| r != perm[k])
                        .map(|(r, a)| (r, a / (4.0 * m as f64))),
                );
            }
            col.sort_by_key(|&(r, _)| r);
            cols.push(col);
        }
        if near_singular && m >= 2 {
            let mut twin = cols[0].clone();
            match twin.iter_mut().find(|(r, _)| *r == perm[1]) {
                Some(entry) => entry.1 += 1e-7,
                None => twin.push((perm[1], 1e-7)),
            }
            twin.sort_by_key(|&(r, _)| r);
            cols[1] = twin;
        }
        for _ in 0..spare {
            cols.push(random_column(&mut rng, m, dense));
        }
        cols
    }

    fn norm(x: &[f64]) -> f64 {
        x.iter().fold(0.0, |n, v| n.max(v.abs()))
    }

    /// B·x for the basis at `basis`, x by position.
    fn times(cols: &Columns, basis: &[usize], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; basis.len()];
        for (&j, &xk) in basis.iter().zip(x) {
            for &(r, a) in &cols[j] {
                out[r] += a * xk;
            }
        }
        out
    }

    /// y'·B, y by row.
    fn times_left(cols: &Columns, basis: &[usize], y: &[f64]) -> Vec<f64> {
        basis.iter().map(|&j| cols[j].iter().map(|&(r, a)| y[r] * a).sum()).collect()
    }

    /// Both solves of `f` invert the basis: B·ftran(a) = a and
    /// btran(c)·B = c, to 1e-9 of the sizes involved.
    fn assert_inverts(
        f: &mut Factor,
        cols: &Columns,
        basis: &[usize],
        rng: &mut StdRng,
    ) -> Result<(), TestCaseError> {
        let m = basis.len();
        let scale = basis
            .iter()
            .map(|&j| cols[j].iter().map(|&(_, a)| a.abs()).sum::<f64>())
            .fold(0.0, f64::max);
        for _ in 0..3 {
            let a: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut w = a.clone();
            f.ftran(&mut w);
            let back = times(cols, basis, &w);
            let tol = 1e-9 * (norm(&a) + scale * norm(&w));
            for (got, want) in back.iter().zip(&a) {
                prop_assert!((got - want).abs() <= tol, "B·ftran(a): {} vs {}", got, want);
            }
            let mut y = a.clone();
            f.btran(&mut y);
            let back = times_left(cols, basis, &y);
            let tol = 1e-9 * (norm(&a) + scale * norm(&y));
            for (got, want) in back.iter().zip(&a) {
                prop_assert!((got - want).abs() <= tol, "btran(c)·B: {} vs {}", got, want);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A fresh factor inverts the basis and agrees with the dense
        /// inverse it replaced.
        #[test]
        fn a_fresh_factor_inverts_the_basis(seed in 0u64..1_000_000, m in 1usize..=120, twin in 0u8..4) {
            let near_singular = twin == 0;
            let cols = random_basis(seed, m, near_singular, 0);
            let basis: Vec<usize> = (0..m).collect();
            let mut f = Factor::new(m);
            prop_assert!(f.factorize(&cols, &basis), "regular basis reported singular");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFAC7);
            assert_inverts(&mut f, &cols, &basis, &mut rng)?;
            if !near_singular {
                let inv = dense_inverse(&cols, &basis).expect("regular");
                let a: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
                let mut w = a.clone();
                f.ftran(&mut w);
                for i in 0..m {
                    let dense: f64 = (0..m).map(|r| inv[i * m + r] * a[r]).sum();
                    prop_assert!((w[i] - dense).abs() <= 1e-9 * (1.0 + dense.abs()), "{} vs {}", w[i], dense);
                }
            }
        }

        /// After k column exchanges through the eta file the solves
        /// still invert the (new) basis, and refactorizing it from its
        /// columns gives the same x_B.
        #[test]
        fn eta_updates_track_the_basis(seed in 0u64..1_000_000, m in 1usize..=120, k in 1usize..40) {
            let cols = random_basis(seed, m, false, k);
            let mut basis: Vec<usize> = (0..m).collect();
            let mut f = Factor::new(m);
            prop_assert!(f.factorize(&cols, &basis));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xE7A);
            let mut w = vec![0.0; m];
            for q in m..m + k {
                w.fill(0.0);
                for &(r, a) in &cols[q] {
                    w[r] = a;
                }
                f.ftran(&mut w);
                // Leave on the largest element, as a ratio test that
                // breaks ties by size tends to.
                let r = (0..m).fold(0, |best, i| if w[i].abs() > w[best].abs() { i } else { best });
                if w[r].abs() < 1e-3 {
                    continue;
                }
                f.update(r, &w);
                basis[r] = q;
            }
            assert_inverts(&mut f, &cols, &basis, &mut rng)?;

            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut updated = b.clone();
            f.ftran(&mut updated);
            prop_assert!(f.factorize(&cols, &basis), "exchanged basis reported singular");
            let mut fresh = b;
            f.ftran(&mut fresh);
            for (u, v) in updated.iter().zip(&fresh) {
                prop_assert!((u - v).abs() <= 1e-9 * (1.0 + norm(&fresh)), "x_B {} vs {}", u, v);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A basis with repeated and emptied columns is reported
        /// singular, and `replace_rejected` leaves the factor of the
        /// basis it describes: unit columns at the positions it names.
        /// (How well conditioned that basis is, is the caller's to check:
        /// the rows left over are the ones the pivot order left.)
        #[test]
        fn rejected_columns_give_way_to_unit_columns(seed in 0u64..1_000_000, m in 2usize..=80, spoiled in 1usize..6) {
            let mut cols = random_basis(seed, m, false, 0);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5BAD);
            for _ in 0..spoiled {
                let (k, from) = (rng.gen_range(0..m), rng.gen_range(0..m));
                cols[k] = if rng.gen_bool(0.2) { Vec::new() } else { cols[from].clone() };
            }
            let mut basis: Vec<usize> = (0..m).collect();
            let mut f = Factor::new(m);
            let regular = f.factorize(&cols, &basis);
            prop_assert_eq!(regular, dense_inverse(&cols, &basis).is_some());
            if !regular {
                let pairs = f.replace_rejected();
                prop_assert!(!pairs.is_empty());
                for (k, i) in pairs {
                    basis[k] = cols.len();
                    cols.push(vec![(i, 1.0)]);
                }
            }
            assert_inverts(&mut f, &cols, &basis, &mut rng)?;
        }
    }

    #[test]
    fn the_corpus_reaches_every_kind_of_pivot() {
        let m = 60;
        let (mut singletons, mut row_singletons, mut nucleus) = (0, 0, 0);
        for seed in 0..30 {
            let cols = random_basis(seed, m, false, 0);
            let mut f = Factor::new(m);
            assert!(f.factorize(&cols, &(0..m).collect::<Vec<_>>()));
            nucleus += f.nucleus.len();
            singletons += m - f.nucleus.len();
            // A nucleus column leaves at most one L eta; the rest are
            // row singletons'.
            row_singletons += f.l_row.len().saturating_sub(f.nucleus.len());
        }
        assert!(singletons > 1000 && row_singletons > 30 && nucleus > 100);
    }

    #[test]
    fn singular_bases_are_reported() {
        // Two equal columns.
        let cols: Columns = vec![vec![(0, 1.0)], vec![(0, 1.0)], vec![(1, 1.0)]];
        assert!(!Factor::new(3).factorize(&cols, &[0, 0, 2]));
        assert!(!Factor::new(3).factorize(&cols, &[0, 1, 2]), "row 2 is empty");
        // The twin gives way to the unit column of the row left over.
        let mut f = Factor::new(3);
        assert!(!f.factorize(&cols, &[0, 1, 2]));
        let replaced = f.replace_rejected();
        assert_eq!(replaced.len(), 1);
        assert!(replaced[0].0 < 2 && replaced[0].1 == 2, "{replaced:?}");
        // An empty column.
        let cols: Columns = vec![vec![(0, 1.0), (1, 2.0)], vec![]];
        assert!(!Factor::new(2).factorize(&cols, &[0, 1]));
        // No singleton anywhere and rank 2: found by the nucleus.
        let cols: Columns = vec![
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            vec![(0, 1.0), (1, 2.0), (2, 3.0)],
            vec![(0, 2.0), (1, 3.0), (2, 4.0)],
        ];
        assert!(dense_inverse(&cols, &[0, 1, 2]).is_none());
        assert!(!Factor::new(3).factorize(&cols, &[0, 1, 2]));
        // The same factor recovers on a regular basis.
        let mut f = Factor::new(3);
        assert!(!f.factorize(&cols, &[0, 1, 2]));
        let regular: Columns = vec![
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            vec![(0, 1.0), (1, 2.0), (2, 3.0)],
            vec![(0, 2.0), (1, 3.0), (2, 5.0)],
        ];
        assert!(f.factorize(&regular, &[0, 1, 2]));
        let mut x = vec![4.0, 6.0, 9.0];
        f.ftran(&mut x);
        for (got, want) in x.iter().zip([1.0, 1.0, 1.0]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn the_eta_file_is_bounded_by_the_factor_it_updates() {
        // Identity basis, dense entering columns: each update adds m − 1
        // nonzeros to the eta file against a fresh factor of m.
        let m = 50;
        let mut cols: Columns = (0..m).map(|i| vec![(i, 1.0)]).collect();
        for u in 0..8 {
            cols.push((0..m).map(|i| (i, 1.0 + ((7 * i + 13 * u) % 11) as f64)).collect());
        }
        let basis: Vec<usize> = (0..m).collect();
        let mut f = Factor::new(m);
        assert!(f.factorize(&cols, &basis));
        let mut w = vec![0.0; m];
        let mut updates = 0;
        while !f.wants_refactor() {
            w.fill(0.0);
            for &(r, a) in &cols[m + updates] {
                w[r] = a;
            }
            f.ftran(&mut w);
            f.update(updates, &w);
            updates += 1;
        }
        assert_eq!(updates, 3, "dense updates against an identity factor");
        // Singleton updates never outgrow it; the cap ends them.
        assert!(f.factorize(&cols, &basis));
        let mut updates = 0;
        while !f.wants_refactor() {
            w.fill(0.0);
            w[updates % m] = 2.0;
            f.ftran(&mut w);
            f.update(updates % m, &w);
            updates += 1;
        }
        assert_eq!(updates, ETA_CAP);
    }
}
