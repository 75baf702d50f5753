//! Per-table statistics for cost-based planning.
//!
//! Statistics belong to one version of a table's rows: the row count is
//! taken when the planner first asks a [`StoredTable`] for them, and they
//! live beside its columnar image, so a catalog table's statistics are
//! shared by every plan over that version and gone with it — every write
//! starts the next version without any. Ephemeral relations get theirs
//! once per plan: a view or subquery result through the private
//! `StoredTable` the plan wraps around it, a CTE binding directly.
//! Statistics are advisory (they steer plan choice, never results).
//!
//! A column's distinct count is estimated the first time an estimate
//! reads it — only a pushed predicate or a join edge does — from the
//! first [`SAMPLE_ROWS`] rows of the version, which the reader passes in
//! (a stored table's first chunk): the statistics hold no rows, so they
//! never stand in the way of an in-place write. Most scans are read by no
//! estimate and count nothing.
//!
//! A custom value — a symbolic decision cell — has no key but its
//! rendered text, and a column of them is as large as a model (the 288
//! linear expressions a recursive CDTE binds hold 41 000 terms). Each
//! one counts as one more distinct value, unrendered. GROUP BY,
//! DISTINCT and join keys over custom values keep
//! [`Value::group_key`] and its semantics.
//!
//! [`StoredTable`]: super::image::StoredTable

use super::columnar::BATCH_SIZE;
use super::image::StoredTable;
use super::keys::KeyIndex;
use crate::table::{Row, TableRef};
use crate::types::Value;
use std::sync::{Arc, OnceLock};

/// How many rows to sample when estimating per-column distinct counts:
/// the first, a stored table's first chunk.
const SAMPLE_ROWS: usize = BATCH_SIZE;

/// Summary statistics for one table version.
#[derive(Debug)]
pub struct TableStats {
    /// Exact row count of the version.
    pub row_count: usize,
    /// Estimated distinct values per column, each on first read.
    distinct: Vec<OnceLock<f64>>,
}

impl TableStats {
    /// Statistics of a version of `row_count` rows and `columns`
    /// columns: a column's distinct count is counted when
    /// [`Self::distinct_of`] first reads it.
    pub fn new(row_count: usize, columns: usize) -> TableStats {
        TableStats { row_count, distinct: (0..columns).map(|_| OnceLock::new()).collect() }
    }

    /// Distinct estimate for column `col`, from `sample`, the first
    /// [`SAMPLE_ROWS`] rows (or all of them) of the version these
    /// statistics describe (≥ 1.0 for non-empty tables), estimated on
    /// first read. A column out of range (synthetic relations) defaults
    /// to a third of the rows.
    pub fn distinct_of(&self, sample: &[Row], col: usize) -> f64 {
        match self.distinct.get(col) {
            Some(d) => *d.get_or_init(|| {
                let sample = &sample[..sample.len().min(SAMPLE_ROWS)];
                debug_assert_eq!(
                    sample.len(),
                    self.row_count.min(SAMPLE_ROWS),
                    "statistics of another version"
                );
                distinct_count(sample, self.row_count, col)
            }),
            None => self.a_third(),
        }
    }

    fn a_third(&self) -> f64 {
        (self.row_count as f64 / 3.0).max(1.0)
    }

    /// How many columns have had their distinct count estimated.
    #[cfg(test)]
    fn estimated(&self) -> usize {
        self.distinct.iter().filter(|d| d.get().is_some()).count()
    }
}

/// A relation's statistics next to the rows they sample, as a plan
/// build reads them.
pub(crate) struct Described {
    stats: Arc<TableStats>,
    /// The table holding the first rows: a stored table's first chunk, a
    /// CTE binding's rows; `None` for a relation estimated at one row and
    /// not read.
    sample: Option<TableRef>,
}

impl Described {
    /// A stored table's statistics, shared by every plan of its version.
    pub(crate) fn stored(t: &StoredTable) -> Described {
        let first = t.chunks().first().cloned().unwrap_or_default();
        Described { stats: t.stats(), sample: Some(first) }
    }

    /// Statistics of `rows` for one plan (a CTE binding).
    pub(crate) fn rows(rows: &TableRef) -> Described {
        let stats = Arc::new(TableStats::new(rows.num_rows(), rows.num_columns()));
        Described { stats, sample: Some(rows.clone()) }
    }

    /// A relation that is estimated at one row and not read.
    pub(crate) fn one_row() -> Described {
        Described { stats: Arc::new(TableStats::new(1, 0)), sample: None }
    }

    pub(crate) fn row_count(&self) -> f64 {
        self.stats.row_count as f64
    }

    pub(crate) fn distinct_of(&self, col: usize) -> f64 {
        match &self.sample {
            Some(t) => self.stats.distinct_of(&t.rows, col),
            None => self.stats.a_third(),
        }
    }
}

/// The distinct values of column `c` among the `sample` rows, scaled to
/// the table's `row_count`.
fn distinct_count(sample: &[Row], row_count: usize, c: usize) -> f64 {
    let mut seen = KeyIndex::default();
    let mut custom = 0usize;
    for row in sample {
        match &row[c] {
            Value::Custom(_) => custom += 1,
            v => _ = seen.insert(std::slice::from_ref(v)),
        }
    }
    let sample = sample.len();
    let seen = (seen.len() + custom) as f64;
    let d = if sample == 0 {
        0.0
    } else if sample < row_count {
        // Scale the sampled distinct count linearly, capped at the row
        // count — crude, but stable and monotone.
        (seen * row_count as f64 / sample as f64).min(row_count as f64)
    } else {
        seen
    };
    d.max(if row_count == 0 { 0.0 } else { 1.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::table::Table;
    use crate::types::{custom, CustomValue};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn collect_counts_rows_and_distincts() {
        let t = Table::from_rows(
            &["a", "b"],
            vec![
                vec![Value::Int(1), Value::text("x")],
                vec![Value::Int(1), Value::text("y")],
                vec![Value::Int(2), Value::text("x")],
                vec![Value::Null, Value::text("x")],
            ],
        );
        let s = TableStats::new(t.num_rows(), t.num_columns());
        assert_eq!(s.row_count, 4);
        assert_eq!(s.estimated(), 0, "distinct counts wait for a reader");
        // a: {1, 2, NULL} -> 3 distinct keys; b: {x, y} -> 2.
        assert_eq!(s.distinct_of(&t.rows, 0), 3.0);
        assert_eq!(s.estimated(), 1);
        assert_eq!(s.distinct_of(&t.rows, 1), 2.0);
        // Out of range: a third of the rows.
        assert_eq!(s.distinct_of(&t.rows, 2), 4.0 / 3.0);
        assert_eq!(s.estimated(), 2);
    }

    /// A custom value that counts how often it is rendered.
    #[derive(Debug)]
    struct Rendered(&'static str, Arc<AtomicUsize>);

    impl CustomValue for Rendered {
        fn type_name(&self) -> &str {
            "rendered"
        }
        fn to_text(&self) -> String {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.to_string()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn custom_cells_count_as_distinct_without_being_rendered() {
        let renders = Arc::new(AtomicUsize::new(0));
        let cell = |text| custom(Rendered(text, Arc::clone(&renders)));
        let t = Table::from_rows(
            &["sym", "mixed"],
            vec![
                vec![cell("x0"), Value::Int(1)],
                vec![cell("x1"), cell("x2")],
                vec![cell("x3"), Value::Int(1)],
                vec![cell("x4"), Value::Null],
            ],
        );
        let s = TableStats::new(t.num_rows(), t.num_columns());
        // sym: four symbolic cells; mixed: {1, NULL} and one symbolic cell.
        assert_eq!((s.distinct_of(&t.rows, 0), s.distinct_of(&t.rows, 1)), (4.0, 3.0));
        assert_eq!(renders.load(Ordering::Relaxed), 0, "statistics rendered a custom cell");
        // The grouping key of a custom value is still its text.
        assert_eq!(cell("x0").group_key(), cell("x0").group_key());
        assert_eq!(renders.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn statistics_belong_to_one_table_version() {
        let mut db = Database::new();
        db.create_table("t", Table::from_rows(&["a"], vec![vec![Value::Int(1)]]), false).unwrap();
        let s1 = db.stored_table("t").unwrap().stats();
        assert_eq!(s1.row_count, 1);
        let again = db.stored_table("t").unwrap().stats();
        assert!(Arc::ptr_eq(&s1, &again), "collected once per version");
        db.append_rows("t", vec![vec![Value::Int(2)]]).unwrap();
        assert_eq!(db.stored_table("t").unwrap().stats().row_count, 2);
        // An in-place DELETE + INSERT of equal count keeps the row count
        // and may keep the allocation; the statistics are new all the same.
        crate::exec::execute_script(&mut db, "DELETE FROM t WHERE a = 1; INSERT INTO t VALUES (2)")
            .unwrap();
        let stored = db.stored_table("t").unwrap();
        let s3 = stored.stats();
        assert_eq!((s3.row_count, s3.distinct_of(&stored.chunks()[0].rows, 0)), (2, 1.0));
    }

    /// Only a pushed predicate or a join edge reads a distinct count, and
    /// only of the columns it names.
    #[test]
    fn distinct_counts_are_estimated_for_the_columns_an_estimate_reads() {
        let mut db = Database::new();
        crate::exec::execute_script(
            &mut db,
            "CREATE TABLE t (a int, b int, c text);
             INSERT INTO t VALUES (1, 2, 'x'), (1, 3, 'y'), (2, 3, 'z');
             CREATE TABLE u (b int, d int);
             INSERT INTO u VALUES (3, 4)",
        )
        .unwrap();
        let estimated =
            |db: &Database, name: &str| db.stored_table(name).unwrap().stats().estimated();
        crate::exec::execute_sql(&mut db, "SELECT sum(a), count(*) FROM t GROUP BY c").unwrap();
        assert_eq!(estimated(&db, "t"), 0, "no estimate read a column");
        crate::exec::execute_sql(&mut db, "SELECT c FROM t WHERE a = 1").unwrap();
        assert_eq!(estimated(&db, "t"), 1, "the filtered column");
        crate::exec::execute_sql(&mut db, "SELECT t.c, u.d FROM t JOIN u ON u.b = t.b").unwrap();
        assert_eq!((estimated(&db, "t"), estimated(&db, "u")), (2, 1), "the join keys");
    }

    /// Working tables and other CTE bindings are ephemeral: a long
    /// recursion plans its step once and collects the statistics of each
    /// relation once, not once per step.
    #[test]
    fn recursion_collects_statistics_of_catalog_tables_once() {
        let mut db = Database::new();
        crate::exec::execute_script(
            &mut db,
            "CREATE TABLE u (step int, v float8);
             INSERT INTO u WITH RECURSIVE g(n) AS (SELECT 0 UNION ALL SELECT n + 1 FROM g WHERE n < 999)
                           SELECT n, 1.0 FROM g",
        )
        .unwrap();
        let before = db.stored_table("u").unwrap().stats();
        let t = crate::exec::execute_sql(
            &mut db,
            "WITH RECURSIVE sim(step, x) AS (
                SELECT 0, 10.0
                UNION ALL
                SELECT s.step + 1, 0.5 * s.x + n.v FROM sim s JOIN u n ON n.step = s.step)
             SELECT count(*) FROM sim",
        )
        .unwrap()
        .into_table()
        .unwrap();
        assert_eq!(t.value(0, 0), &Value::Int(1001), "1000 recursive steps ran");
        let after = db.stored_table("u").unwrap().stats();
        assert!(Arc::ptr_eq(&before, &after), "`u` was not written: same version, same statistics");
    }
}
