//! Per-table statistics for cost-based planning.
//!
//! Statistics of *catalog* tables are computed lazily the first time
//! the planner sees the table and cached on the [`Database`] under the
//! table's name, stamped with the allocation identity `(Arc pointer, row
//! count)` they were collected from. Tables are copy-on-write
//! (`Arc<Table>`), so any mutation produces a new allocation, the stamp
//! no longer matches and the entry is recollected in place — the cache
//! never holds more entries than the catalog has had table names.
//! Ephemeral relations (CTE bindings, view and subquery results) are
//! never cached: the planner collects their statistics once per plan.
//! Statistics are advisory (they steer plan choice, never results).

use crate::catalog::Database;
use crate::table::TableRef;
use crate::types::Value;
use std::collections::HashSet;
use std::sync::Arc;

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
            let mut seen: HashSet<crate::types::GroupKey> = HashSet::new();
            for row in table.rows.iter().take(sample) {
                let v: &Value = &row[c];
                seen.insert(v.group_key());
            }
            let d = if sample == 0 {
                0.0
            } else if sample < row_count {
                // Scale the sampled distinct count linearly, capped at the
                // row count — crude, but stable and monotone.
                (seen.len() as f64 * row_count as f64 / sample as f64).min(row_count as f64)
            } else {
                seen.len() as f64
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

impl Database {
    /// Statistics for the catalog table `name` (currently `table`),
    /// computed on first use and cached until the table is mutated.
    pub(crate) fn table_stats(&self, name: &str, table: &TableRef) -> Arc<TableStats> {
        let stamp = (Arc::as_ptr(table) as usize, table.rows.len());
        if let Ok(cache) = self.stats_cache.lock() {
            if let Some((s, stats)) = cache.get(name) {
                if *s == stamp {
                    return stats.clone();
                }
            }
        }
        let stats = Arc::new(TableStats::collect(table));
        if let Ok(mut cache) = self.stats_cache.lock() {
            cache.insert(name.to_string(), (stamp, stats.clone()));
        }
        stats
    }

    /// Number of tables with cached statistics (observability, tests).
    pub fn stats_cache_len(&self) -> usize {
        self.stats_cache.lock().map(|c| c.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

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

    #[test]
    fn stats_cache_invalidates_on_copy_on_write() {
        let mut db = Database::new();
        db.create_table("t", Table::from_rows(&["a"], vec![vec![Value::Int(1)]]), false).unwrap();
        let s1 = db.table_stats("t", db.table("t").unwrap());
        assert_eq!(s1.row_count, 1);
        db.append_rows("t", vec![vec![Value::Int(2)]]).unwrap();
        let s2 = db.table_stats("t", db.table("t").unwrap());
        assert_eq!(s2.row_count, 2);
        assert_eq!(db.stats_cache_len(), 1, "the table's entry is replaced, not added to");
    }

    /// Working tables and other CTE bindings are ephemeral: a long
    /// recursion must not push entries into the cache (it used to insert
    /// one per step and evict the catalog tables' statistics).
    #[test]
    fn recursion_caches_statistics_of_catalog_tables_only() {
        let mut db = Database::new();
        crate::exec::execute_script(
            &mut db,
            "CREATE TABLE u (step int, v float8);
             INSERT INTO u WITH RECURSIVE g(n) AS (SELECT 0 UNION ALL SELECT n + 1 FROM g WHERE n < 999)
                           SELECT n, 1.0 FROM g",
        )
        .unwrap();
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
        assert!(db.stats_cache_len() <= 1, "only `u` is a catalog table");
    }
}
