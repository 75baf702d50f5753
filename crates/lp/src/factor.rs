//! The simplex basis as a sparse LU factorization kept current by
//! Forrest–Tomlin updates: B = L·R₁⁻¹·…·R_k⁻¹·U, where L·U factorized
//! the basis last built from its columns and each of the k columns
//! exchanged since rewrote one column of U and left one row eta Rₑ.
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
//! apart and, for the updates and [`Factor::btran_unit`], by row as well.
//! FTRAN scatters and BTRAN gathers; the R file sits between them, after
//! L in FTRAN and, in reverse, before it in BTRAN.
//!
//! **The update** (Forrest and Tomlin, *Updated triangular factors of the
//! basis to maintain sparsity in the product form simplex method*, 1972).
//! FTRAN of an entering column keeps the vector it holds after L and the
//! R file, the *spike*: the column the entering variable would have in U.
//! Exchanging basis position r puts the spike in U in place of the column
//! that pivoted at r, on row ρ, and moves that pivot to the end of the
//! pivot order. The entries row ρ holds in the columns pivoted after it
//! would then lie below the diagonal, so they are eliminated, in pivot
//! order, with the rows those columns pivoted on, found through U's row
//! index; the multipliers are the row eta R, ρ ← ρ − Σ fₛ·prowₛ. Only row
//! ρ of U changes, and its new diagonal is the spike's ρ entry after R.
//! In exact arithmetic that is w_r times the old diagonal (w = B⁻¹a_q,
//! the ratio test's column); where the two disagree beyond
//! [`STABILITY_TOL`] the update is refused and the basis is factorized
//! again.
//!
//! A spike has the sparsity of the entering column after L, so U grows by
//! about what the fresh factor holds per column, where a product-form eta
//! per exchange held all of B⁻¹a_q — which the three dense coefficient
//! columns of an L1 fit make dense. The row etas are the part that grows:
//! row ρ always meets the dense columns, the rows those pivot on meet the
//! spikes that touched them, and so on, so on an L1 fit a row eta holds
//! about one entry per earlier update. [`R_FILL`] bounds the R file
//! against the factor, [`UPDATE_CAP`] the number of updates.

use std::ops::Index;

/// A pivot smaller than this makes the basis singular.
const SINGULAR_TOL: f64 = 1e-12;
/// Nucleus pivots are at least this share of their column's largest
/// eligible entry.
const THRESHOLD: f64 = 0.1;
/// Refactorize after this many updates whatever their size: every update
/// compounds the rounding error of the ones before it.
const UPDATE_CAP: usize = 64;
/// Refactorize once the R file holds this share of the nonzeros of the
/// factor it updates. Where every spike meets the rows of the basis's
/// dense columns, a row eta eliminates every spike before it and the R
/// file grows with the square of the updates; on the L1 fits at m = 240
/// half the fresh factor is reached after about thirty.
const R_FILL: f64 = 0.5;
/// An update is refused when its new diagonal differs from w_r times the
/// old one by more than this share: the row elimination cancelled.
const STABILITY_TOL: f64 = 1e-8;

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

/// Sparse columns in one arena: column j is the (row, coefficient) pairs
/// `entries[start[j]..start[j + 1]]`, rows distinct.
pub(crate) struct Cols {
    pub(crate) start: Vec<usize>,
    pub(crate) entries: Vec<(usize, f64)>,
}

impl Index<usize> for Cols {
    type Output = [(usize, f64)];

    fn index(&self, j: usize) -> &[(usize, f64)] {
        &self.entries[self.start[j]..self.start[j + 1]]
    }
}

/// The columns of U, one arena segment per slot: slot s's entries are
/// `idx[begin[s]..end[s]]` with the matching `val`. Entries never move, so
/// an arena index names an entry for as long as it lives: an update
/// zeroes the entries it removes and writes the column it puts in at the
/// end of the arena. The next factorization starts over.
struct Columns {
    begin: Vec<usize>,
    end: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl Columns {
    fn new() -> Columns {
        Columns { begin: Vec::new(), end: Vec::new(), idx: Vec::new(), val: Vec::new() }
    }

    fn clear(&mut self) {
        self.begin.clear();
        self.end.clear();
        self.idx.clear();
        self.val.clear();
    }

    fn push_entry(&mut self, i: usize, v: f64) {
        self.idx.push(i);
        self.val.push(v);
    }

    /// Close the column the last `push_entry` calls built as that of the
    /// next slot.
    fn finish(&mut self) {
        self.begin.push(self.end.last().copied().unwrap_or(0));
        self.end.push(self.idx.len());
    }

    /// Whether arena entry q is a nonzero of slot s's column.
    #[inline]
    fn live(&self, s: usize, q: usize) -> bool {
        self.begin[s] <= q && q < self.end[s] && self.val[q] != 0.0
    }

    /// x ← x − t·(column s).
    #[inline]
    fn scatter(&self, s: usize, t: f64, x: &mut [f64]) {
        let (lo, hi) = (self.begin[s], self.end[s]);
        for (&i, &v) in self.idx[lo..hi].iter().zip(&self.val[lo..hi]) {
            x[i] -= v * t;
        }
    }

    /// (column s)·x.
    #[inline]
    fn dot(&self, s: usize, x: &[f64]) -> f64 {
        let (lo, hi) = (self.begin[s], self.end[s]);
        self.idx[lo..hi].iter().zip(&self.val[lo..hi]).map(|(&i, &v)| v * x[i]).sum()
    }
}

/// A factorized basis. All buffers are sized once and reused, so neither
/// a solve nor a refactorization allocates in the steady state.
pub(crate) struct Factor {
    m: usize,
    /// Slot s pivots row `prow[s]` with the column at basis position
    /// `pcol[s]`; `inv_diag[s]` is the reciprocal of the pivot element, so
    /// that the solves multiply. A factorization numbers the slots in its
    /// pivot order. An update keeps every slot's row and position and
    /// changes one slot's column and its place in `order`, the slots in
    /// pivot order; `at[s]` is slot s's index there. `slot[k]` is the
    /// slot of basis position k.
    prow: Vec<usize>,
    pcol: Vec<usize>,
    inv_diag: Vec<f64>,
    order: Vec<usize>,
    at: Vec<usize>,
    slot: Vec<usize>,
    /// The column of U of each slot above its diagonal: entries in rows
    /// pivoted before it.
    u: Columns,
    /// U by row: row i's entries as (slot, arena index) pairs, kept by
    /// the updates. A pair whose entry no longer lives is passed over.
    u_rows: Vec<Vec<(usize, usize)>>,
    /// The L etas in pivot order: eta e subtracts `l`ₑ times the value at
    /// row `l_row[e]` from the rows below.
    l: SparseVecs,
    l_row: Vec<usize>,
    /// The R file, one row eta per update in update order: eta e
    /// subtracts `r`ₑ·x from row `r_row[e]`.
    r: SparseVecs,
    r_row: Vec<usize>,
    /// Updates since the last factorization.
    updates: usize,
    /// Nonzeros of L and U as factorized, and one per pivot.
    fresh_nnz: usize,
    /// The right-hand side of the last [`Factor::ftran_spike`] after L
    /// and the R file.
    spike: Vec<f64>,
    /// Row-indexed scratch of the solves and the nucleus elimination.
    work: Vec<f64>,
    /// Slot-indexed scratch of [`Factor::btran_unit`] and
    /// [`Factor::update`], zero between calls.
    acc: Vec<f64>,

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
            inv_diag: Vec::with_capacity(m),
            order: Vec::with_capacity(m),
            at: vec![0; m],
            slot: vec![0; m],
            u: Columns::new(),
            u_rows: vec![Vec::new(); m],
            l: SparseVecs::new(),
            l_row: Vec::new(),
            r: SparseVecs::new(),
            r_row: Vec::new(),
            updates: 0,
            fresh_nnz: 0,
            spike: vec![0.0; m],
            work: vec![0.0; m],
            acc: vec![0.0; m],
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
    /// (sparse (row, coefficient), rows distinct) and empty the R file.
    /// Returns false if it is singular: the columns that found no pivot
    /// were passed over, and the factor is unusable until
    /// [`Factor::replace_rejected`] puts unit columns in their place.
    pub(crate) fn factorize<C>(&mut self, cols: &C, basis: &[usize]) -> bool
    where
        C: Index<usize> + ?Sized,
        C::Output: AsRef<[(usize, f64)]>,
    {
        let m = self.m;
        self.prow.clear();
        self.pcol.clear();
        self.inv_diag.clear();
        self.u.clear();
        self.l.clear();
        self.l_row.clear();
        self.r.clear();
        self.r_row.clear();
        self.updates = 0;
        self.rejected.clear();

        // Counts, and the pattern by row.
        self.row_count.fill(0);
        for (k, &j) in basis.iter().enumerate() {
            self.col_count[k] = cols[j].as_ref().len();
            for &(i, _) in cols[j].as_ref() {
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
            for &(i, _) in cols[j].as_ref() {
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
                let col = cols[basis[k]].as_ref();
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
                let col = cols[basis[k]].as_ref();
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
            self.nucleus.sort_unstable_by_key(|&k| (self.col_count[k], k));
            // The solves leave `work` as they finished with it.
            self.work.fill(0.0);
            for n in 0..self.nucleus.len() {
                let k = self.nucleus[n];
                if !self.eliminate(cols[basis[k]].as_ref(), k) {
                    self.rejected.push(k);
                }
            }
        }
        debug_assert_eq!(self.prow.len() + self.rejected.len(), m);
        if self.rejected.is_empty() {
            self.index_slots();
        }
        self.rejected.is_empty()
    }

    /// Once every position has its pivot: the slots in pivot order, the
    /// slot of each position and row, and U by row.
    fn index_slots(&mut self) {
        self.fresh_nnz = self.m + self.l.idx.len() + self.u.idx.len();
        self.order.clear();
        self.order.extend(0..self.m);
        for s in 0..self.m {
            self.at[s] = s;
            self.slot[self.pcol[s]] = s;
        }
        for row in &mut self.u_rows {
            row.clear();
        }
        for s in 0..self.m {
            for q in self.u.begin[s]..self.u.end[s] {
                self.u_rows[self.u.idx[q]].push((s, q));
            }
        }
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
        self.index_slots();
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
        self.inv_diag.push(1.0 / a);
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
        self.forward(x, false);
    }

    /// The same for the column about to enter the basis: keeps its spike
    /// for the [`Factor::update`] that follows.
    pub(crate) fn ftran_spike(&mut self, x: &mut [f64]) {
        self.forward(x, true);
    }

    fn forward(&mut self, x: &mut [f64], keep_spike: bool) {
        let work = &mut self.work[..];
        work.copy_from_slice(x);
        for (e, &r) in self.l_row.iter().enumerate() {
            let t = work[r];
            if t != 0.0 {
                self.l.scatter(e, t, work);
            }
        }
        for (e, &r) in self.r_row.iter().enumerate() {
            work[r] -= self.r.dot(e, work);
        }
        if keep_spike {
            self.spike.copy_from_slice(work);
        }
        for &s in self.order.iter().rev() {
            let t = work[self.prow[s]];
            if t == 0.0 {
                x[self.pcol[s]] = 0.0;
                continue;
            }
            let xs = t * self.inv_diag[s];
            x[self.pcol[s]] = xs;
            self.u.scatter(s, xs, work);
        }
    }

    /// x' ← x'·B⁻¹: in, a vector indexed by basis position; out, by row.
    pub(crate) fn btran(&mut self, x: &mut [f64]) {
        let work = &mut self.work[..];
        for &s in &self.order {
            work[self.prow[s]] = (x[self.pcol[s]] - self.u.dot(s, work)) * self.inv_diag[s];
        }
        x.copy_from_slice(work);
        self.r_and_l_transposed(x);
    }

    /// The BTRAN steps after U: the R file, last update first, then L.
    fn r_and_l_transposed(&self, x: &mut [f64]) {
        for (e, &r) in self.r_row.iter().enumerate().rev() {
            let t = x[r];
            if t != 0.0 {
                self.r.scatter(e, t, x);
            }
        }
        for (e, &r) in self.l_row.iter().enumerate().rev() {
            x[r] -= self.l.dot(e, x);
        }
    }

    /// Whether the factor has taken no update since it was factorized.
    pub(crate) fn fresh(&self) -> bool {
        self.updates == 0
    }

    /// Whether the next exchange is to factorize the new basis from its
    /// columns instead of updating: at the update cap, or once the R file
    /// has grown past [`R_FILL`].
    pub(crate) fn full(&self) -> bool {
        self.updates + 1 >= UPDATE_CAP || self.r.idx.len() as f64 > R_FILL * self.fresh_nnz as f64
    }

    /// x' ← e_r'·B⁻¹, row r of the inverse for basis position r: in, `x`
    /// all zero; out, by row. U is solved along its rows from r's pivot
    /// on, so only the pivots the answer reaches cost anything beyond a
    /// test for zero.
    pub(crate) fn btran_unit(&mut self, r: usize, x: &mut [f64]) {
        let z = &mut self.acc;
        let first = self.slot[r];
        z[first] = 1.0;
        for &s in &self.order[self.at[first]..] {
            let t = std::mem::take(&mut z[s]);
            if t == 0.0 {
                continue;
            }
            let zs = t * self.inv_diag[s];
            x[self.prow[s]] = zs;
            for &(t2, q) in &self.u_rows[self.prow[s]] {
                if self.u.live(t2, q) {
                    z[t2] -= self.u.val[q] * zs;
                }
            }
        }
        self.r_and_l_transposed(x);
    }

    /// The column of the last [`Factor::ftran_spike`], whose solve put
    /// `w_r` at position r, replaces basis position r (the module header).
    /// Returns false when the new diagonal fails the stability test; the
    /// factor is then unusable until [`Factor::factorize`].
    pub(crate) fn update(&mut self, r: usize, w_r: f64) -> bool {
        let s = self.slot[r];
        let rho = self.prow[s];
        let from = self.at[s];
        // Row ρ leaves U: its entries, by slot, are eliminated in pivot
        // order, each with the row its slot pivots on, which adds that
        // row's entries further right.
        let row = &mut self.acc;
        for &(t, q) in &self.u_rows[rho] {
            if self.u.live(t, q) {
                row[t] += self.u.val[q];
                self.u.val[q] = 0.0;
            }
        }
        self.u_rows[rho].clear();
        let mut diag = self.spike[rho];
        for &t in &self.order[from + 1..] {
            let v = std::mem::take(&mut row[t]);
            if v == 0.0 {
                continue;
            }
            let f = v * self.inv_diag[t];
            let i = self.prow[t];
            self.r.push_entry(i, f);
            diag -= f * self.spike[i];
            for &(t2, q) in &self.u_rows[i] {
                if self.u.live(t2, q) {
                    row[t2] -= f * self.u.val[q];
                }
            }
        }
        if self.r.finish_nonempty() {
            self.r_row.push(rho);
        }
        let want = w_r / self.inv_diag[s];
        let stable =
            diag.abs() >= SINGULAR_TOL && (diag - want).abs() <= STABILITY_TOL * want.abs();
        if !stable {
            return false;
        }
        self.u.begin[s] = self.u.idx.len();
        for (i, &v) in self.spike.iter().enumerate() {
            if v != 0.0 && i != rho {
                self.u_rows[i].push((s, self.u.idx.len()));
                self.u.push_entry(i, v);
            }
        }
        self.u.end[s] = self.u.idx.len();
        self.inv_diag[s] = 1.0 / diag;
        self.order.remove(from);
        self.order.push(s);
        for p in from..self.m {
            self.at[self.order[p]] = p;
        }
        self.updates += 1;
        true
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

    /// Both solves of `f` agree with the dense inverse of the basis, to
    /// 1e-9 of the size of the answer.
    fn assert_matches_oracle(
        f: &mut Factor,
        cols: &Columns,
        basis: &[usize],
        rng: &mut StdRng,
    ) -> Result<(), TestCaseError> {
        let m = basis.len();
        let Some(inv) = dense_inverse(cols, basis) else {
            return Err(TestCaseError::fail("the exchanged basis is singular"));
        };
        let a: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut w = a.clone();
        f.ftran(&mut w);
        let want: Vec<f64> = (0..m).map(|i| (0..m).map(|r| inv[i * m + r] * a[r]).sum()).collect();
        for (got, want) in w.iter().zip(&want) {
            prop_assert!(
                (got - want).abs() <= 1e-9 * (1.0 + norm(&w)),
                "ftran {} vs {}",
                got,
                want
            );
        }
        let mut y = a.clone();
        f.btran(&mut y);
        let want: Vec<f64> = (0..m).map(|r| (0..m).map(|i| a[i] * inv[i * m + r]).sum()).collect();
        for (got, want) in y.iter().zip(&want) {
            prop_assert!(
                (got - want).abs() <= 1e-9 * (1.0 + norm(&y)),
                "btran {} vs {}",
                got,
                want
            );
        }
        // Row k of the inverse, solved along the rows of U.
        let k = rng.gen_range(0..m);
        let mut row = vec![0.0; m];
        f.btran_unit(k, &mut row);
        for (got, want) in row.iter().zip(&inv[k * m..(k + 1) * m]) {
            prop_assert!(
                (got - want).abs() <= 1e-9 * (1.0 + norm(&row)),
                "btran_unit {} vs {}",
                got,
                want
            );
        }
        Ok(())
    }

    /// Draw a column and `ftran_spike` it into `w`. If it can leave on
    /// its largest element (as a ratio test that prefers large pivots
    /// tends to) and that is not small, append it to `cols`, put it in
    /// `basis` there and return the position.
    fn exchange(
        f: &mut Factor,
        cols: &mut Columns,
        basis: &mut [usize],
        rng: &mut StdRng,
        dense: f64,
        w: &mut [f64],
    ) -> Option<usize> {
        let a = random_column(rng, basis.len(), dense);
        w.fill(0.0);
        for &(i, x) in &a {
            w[i] = x;
        }
        f.ftran_spike(w);
        let r = (0..w.len()).fold(0, |best, i| if w[i].abs() > w[best].abs() { i } else { best });
        if w[r].abs() < 1e-3 {
            return None;
        }
        basis[r] = cols.len();
        cols.push(a);
        Some(r)
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

        /// Exchanges up to the update cap, none refused, track the
        /// basis: after every one both solves agree with the dense
        /// inverse of the basis it made. The exchange at the cap is
        /// factorized from the columns and agrees with the oracle too.
        #[test]
        fn updates_track_the_basis_up_to_the_cap(seed in 0u64..1_000_000, m in 1usize..=40) {
            let mut cols = random_basis(seed, m, false, 0);
            let mut basis: Vec<usize> = (0..m).collect();
            let mut f = Factor::new(m);
            prop_assert!(f.factorize(&cols, &basis));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xE7A);
            let dense = [0.05, 0.2][(seed % 2) as usize];
            let mut w = vec![0.0; m];
            let mut updates = 0;
            while !f.full() {
                let r = exchange(&mut f, &mut cols, &mut basis, &mut rng, dense, &mut w);
                let Some(r) = r else { continue };
                prop_assert!(f.update(r, w[r]), "update {} refused", updates + 1);
                updates += 1;
                assert_matches_oracle(&mut f, &cols, &basis, &mut rng)?;
            }
            prop_assert!(updates == UPDATE_CAP - 1 || f.r.idx.len() as f64 > R_FILL * f.fresh_nnz as f64);
            while exchange(&mut f, &mut cols, &mut basis, &mut rng, dense, &mut w).is_none() {}

            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut fresh = b.clone();
            let inv = dense_inverse(&cols, &basis).expect("regular");
            prop_assert!(f.factorize(&cols, &basis), "exchanged basis reported singular");
            f.ftran(&mut fresh);
            for i in 0..m {
                let dense: f64 = (0..m).map(|k| inv[i * m + k] * b[k]).sum();
                prop_assert!((fresh[i] - dense).abs() <= 1e-9 * (1.0 + norm(&fresh)), "x_B {} vs {}", fresh[i], dense);
            }
        }

        /// An exchange that leaves the basis singular but for rounding —
        /// the entering column is B·v with v_r = 0 — is refused by the
        /// stability test, after any number of good updates; the basis it
        /// would have made is reported singular when factorized, so no
        /// solve is answered from it.
        #[test]
        fn a_near_singular_exchange_is_refused(seed in 0u64..1_000_000, m in 2usize..=40, good in 0usize..20) {
            let mut cols = random_basis(seed, m, false, 0);
            let mut basis: Vec<usize> = (0..m).collect();
            let mut f = Factor::new(m);
            prop_assert!(f.factorize(&cols, &basis));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51A6);
            let mut w = vec![0.0; m];
            let mut done = 0;
            while done < good {
                if let Some(r) = exchange(&mut f, &mut cols, &mut basis, &mut rng, 0.1, &mut w) {
                    prop_assert!(f.update(r, w[r]));
                    done += 1;
                }
            }
            let r = rng.gen_range(0..m);
            let v: Vec<f64> = (0..m).map(|k| if k == r { 0.0 } else { rng.gen_range(-2.0..2.0) }).collect();
            let a = times(&cols, &basis, &v);
            let a: Vec<(usize, f64)> = a.iter().enumerate().filter(|e| *e.1 != 0.0).map(|(i, &x)| (i, x)).collect();
            w.fill(0.0);
            for &(i, x) in &a {
                w[i] = x;
            }
            f.ftran_spike(&mut w);
            prop_assert!(!f.fresh() || good == 0);
            prop_assert!(!f.update(r, w[r]), "w_r = {} accepted", w[r]);
            basis[r] = cols.len();
            cols.push(a);
            prop_assert!(!f.factorize(&cols, &basis), "a singular basis factorized");
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
    fn dense_exchanges_keep_the_factor_sparse_to_the_cap() {
        // Identity basis, dense entering columns: a product-form eta would
        // add m − 1 nonzeros a pivot. Here row ρ of U has an entry only in
        // the spikes pivoted after it, so an R eta holds at most the
        // number of exchanges before it, and every update is accepted
        // until the cap.
        let m = 50;
        let mut cols: Columns = (0..m).map(|i| vec![(i, 1.0)]).collect();
        for u in 0..UPDATE_CAP {
            cols.push((0..m).map(|i| (i, 1.0 + ((7 * i + 13 * u) % 11) as f64)).collect());
        }
        let mut basis: Vec<usize> = (0..m).collect();
        let mut f = Factor::new(m);
        assert!(f.factorize(&cols, &basis));
        let mut rng = StdRng::seed_from_u64(7);
        let mut w = vec![0.0; m];
        let mut u = 0;
        while !f.full() {
            w.fill(0.0);
            for &(r, a) in &cols[m + u] {
                w[r] = a;
            }
            f.ftran_spike(&mut w);
            let r = (0..m).fold(0, |best, i| if w[i].abs() > w[best].abs() { i } else { best });
            assert!(f.update(r, w[r]), "update {u} refused");
            basis[r] = m + u;
            assert_eq!(f.r_row.len(), f.r.len());
            let last = f.r.len().checked_sub(1).map_or(0, |e| f.r.start[e + 1] - f.r.start[e]);
            assert!(last <= u, "an R eta of {last} entries after {u} exchanges");
            assert_inverts(&mut f, &cols, &basis, &mut rng).expect("inverts");
            u += 1;
        }
        assert!(u == UPDATE_CAP - 1 || f.r.idx.len() as f64 > R_FILL * f.fresh_nnz as f64, "{u}");
    }
}
