//! Per-table statistics for cost-based planning.
//!
//! Statistics belong to one version of a table's rows: they are
//! collected the first time the planner asks a [`StoredTable`] for them
//! and live beside its columnar image, so a catalog table's statistics
//! are shared by every plan over that version and gone with it — every
//! write starts the next version without any. Ephemeral relations are
//! collected once per plan: a view or subquery result through the
//! private `StoredTable` the plan wraps around it, a CTE binding
//! directly. Statistics are advisory (they steer plan choice, never
//! results).
//!
//! A custom value — a symbolic decision cell — has no key but its
//! rendered text, and a column of them is as large as a model (the 288
//! linear expressions a recursive CDTE binds hold 41 000 terms). Each
//! one counts as one more distinct value, unrendered. GROUP BY,
//! DISTINCT and join keys over custom values keep
//! [`Value::group_key`] and its semantics.
//!
//! [`StoredTable`]: super::image::StoredTable

use super::keys::KeyIndex;
use crate::types::Value;

/// How many rows to sample when estimating per-column distinct counts.
const SAMPLE_ROWS: usize = 1024;

/// Summary statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Exact row count at collection time.
    pub row_count: usize,
    /// Estimated distinct values per column (sampled; ≥ 1.0 for
    /// non-empty tables).
    pub distinct: Vec<f64>,
}

impl TableStats {
    /// Collect statistics by scanning at most [`SAMPLE_ROWS`] rows.
    pub fn collect(table: &crate::table::Table) -> TableStats {
        let row_count = table.rows.len();
        let sample = row_count.min(SAMPLE_ROWS);
        let ncols = table.schema.len();
        let mut distinct = Vec::with_capacity(ncols);
        for c in 0..ncols {
            let mut seen = KeyIndex::default();
            let mut custom = 0usize;
            for row in table.rows.iter().take(sample) {
                match &row[c] {
                    Value::Custom(_) => custom += 1,
                    v => _ = seen.insert(std::slice::from_ref(v)),
                }
            }
            let seen = (seen.len() + custom) as f64;
            let d = if sample == 0 {
                0.0
            } else if sample < row_count {
                // Scale the sampled distinct count linearly, capped at the
                // row count — crude, but stable and monotone.
                (seen * row_count as f64 / sample as f64).min(row_count as f64)
            } else {
                seen
            };
            distinct.push(d.max(if row_count == 0 { 0.0 } else { 1.0 }));
        }
        TableStats { row_count, distinct }
    }

    /// Distinct estimate for a column, defaulting to a third of the rows
    /// when the column is out of range (synthetic relations).
    pub fn distinct_of(&self, col: usize) -> f64 {
        self.distinct.get(col).copied().unwrap_or_else(|| (self.row_count as f64 / 3.0).max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::table::Table;
    use crate::types::{custom, CustomValue};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
        let s = TableStats::collect(&t);
        assert_eq!(s.row_count, 4);
        assert_eq!(s.distinct.len(), 2);
        // a: {1, 2, NULL} -> 3 distinct keys; b: {x, y} -> 2.
        assert_eq!(s.distinct[0], 3.0);
        assert_eq!(s.distinct[1], 2.0);
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
        let s = TableStats::collect(&t);
        assert_eq!(renders.load(Ordering::Relaxed), 0, "statistics rendered a custom cell");
        // sym: four symbolic cells; mixed: {1, NULL} and one symbolic cell.
        assert_eq!(s.distinct, vec![4.0, 3.0]);
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
        let s3 = db.stored_table("t").unwrap().stats();
        assert_eq!((s3.row_count, s3.distinct[0]), (2, 1.0));
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
