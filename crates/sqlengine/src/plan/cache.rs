//! Plan cache: optimized plans keyed by `(catalog epoch, bound CTE
//! names, exact query rendering)`, in two lifetimes.
//!
//! Plans embed the stored tables they scan — catalog tables, and the
//! materialized results of views and FROM subqueries
//! (`ScanSource::Table`) — so a cached plan is only valid for the exact
//! catalog state it was built against. Rather than tracking fine-grained
//! dependencies, the key includes the catalog epoch — a monotone counter
//! [`Database::bump_epoch`] advances on *every* catalog mutation (DDL,
//! DML, wholesale replacement) — and the bump drops both maps: no entry
//! of an older epoch can hit again, and each would pin the version of
//! every table it scans, forcing the next write to copy the table and
//! keeping dead copies alive. Table statistics belong to the table
//! version a plan scans, so the epoch also covers stats changes.
//!
//! CTEs are not embedded: a plan scans them through *slots*
//! (`ScanSource::Slot`) resolved at execute time, so a query under a
//! CTE environment — every query of a `SOLVESELECT`, whose decision
//! relations are CTEs — is cacheable too. Its key carries the names the
//! environment binds (which names resolve to a CTE rather than the
//! catalog is part of the plan), a hit is honoured only when every slot
//! is bound to a relation of the planned schema, and a plan that
//! captured rows read from a bound CTE (a FROM subquery or view over
//! it) is never cached. Neither is a plan that scanned a *virtual*
//! table (`sdb_stat_statements`, `sdb_metrics`, …), directly or through
//! a view: its rows are a snapshot of telemetry that moves without the
//! catalog epoch moving. A CTE environment belongs to one statement, and
//! so do these plans: they sit in a map of their own that the statement
//! layer empties when the statement ends
//! ([`Database::end_statement_plans`]). Within the statement they are
//! what lets a black-box solver plan its objective and simulation
//! relations once and re-execute them per candidate, and lets the
//! symbolic passes of one `SOLVESELECT` share their plans.
//!
//! The key stores the full `Debug` rendering of the query, not a hash
//! of it: `HashMap` compares keys on lookup, so two distinct queries
//! can never alias one cache slot — a hash-only key would silently
//! execute the wrong plan on a 64-bit collision. The rendering is
//! literal-sensitive: `SELECT a FROM t WHERE b = 1` and `... b = 2`
//! cache separately. That is deliberate — constant folding bakes
//! literals into the optimized plan, so plans cannot be shared across
//! literal variants (unlike `sdb_stat_statements`, whose shape key
//! masks literals to group statements).

use super::build::outside_planner;
use super::{plan_select, PlannedQuery};
use crate::ast::{Expr, OrderItem, Select};
use crate::catalog::{Ctes, Database};
use crate::error::Result;
use std::collections::HashMap;
use std::sync::Arc;

/// Clear a map once it holds this many plans: a read-only session that
/// varies its literals would otherwise grow the map without bound.
const MAX_CACHED_PLANS: usize = 256;

/// Full plan-cache key: catalog epoch, the CTE names in scope and the
/// exact rendered query. Hash collisions between different queries land
/// in the same bucket but fail the equality check, so a lookup can never
/// return another query's plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    epoch: u64,
    ctes: Vec<String>,
    query: String,
}

/// The two plan maps of a [`Database`].
#[derive(Default)]
pub(crate) struct PlanCache {
    /// Plans of CTE-free queries; live until the next catalog mutation
    /// (or the size bound) clears them.
    session: HashMap<PlanCacheKey, Arc<PlannedQuery>>,
    /// Plans of queries under a CTE environment; live until the
    /// statement ends.
    statement: HashMap<PlanCacheKey, Arc<PlannedQuery>>,
}

impl PlanCache {
    fn map(&mut self, statement_scoped: bool) -> &mut HashMap<PlanCacheKey, Arc<PlannedQuery>> {
        if statement_scoped {
            &mut self.statement
        } else {
            &mut self.session
        }
    }
}

impl Database {
    /// Cache key for a plannable SELECT under the current catalog epoch
    /// and the CTE names `ctes` binds.
    pub(crate) fn plan_cache_key(
        &self,
        ctes: &Ctes,
        sel: &Select,
        order_by: &[OrderItem],
        limit: &Option<Expr>,
        offset: &Option<Expr>,
    ) -> PlanCacheKey {
        let mut names: Vec<String> = ctes.names().map(str::to_string).collect();
        names.sort_unstable();
        PlanCacheKey {
            epoch: self.catalog_epoch(),
            ctes: names,
            query: format!("{sel:?}|{order_by:?}|{limit:?}|{offset:?}"),
        }
    }

    /// The plan for a `SELECT` under `ctes`, and whether it came from
    /// the cache (`Some(true)`), was planned now and cached
    /// (`Some(false)`), or was planned now but cannot be cached because
    /// it captured rows that depend on a bound CTE or come from a
    /// virtual table (`None`). `Ok(None)` and `Err` mean what they mean
    /// for [`plan_select`].
    pub(crate) fn plan_cached(
        &self,
        ctes: &Ctes,
        sel: &Select,
        order_by: &[OrderItem],
        limit: &Option<Expr>,
        offset: &Option<Expr>,
    ) -> Result<Option<(Arc<PlannedQuery>, Option<bool>)>> {
        if outside_planner(sel, order_by, limit, offset) {
            return Ok(None);
        }
        let key = self.plan_cache_key(ctes, sel, order_by, limit, offset);
        let statement_scoped = !key.ctes.is_empty();
        let hit = self
            .plan_cache
            .lock()
            .ok()
            .and_then(|mut c| c.map(statement_scoped).get(&key).cloned());
        if let Some(planned) = hit {
            // Only a plan made under a CTE environment has slots to check.
            if !statement_scoped || planned.slots_bound(ctes) {
                return Ok(Some((planned, Some(true))));
            }
        }
        let Some(planned) = plan_select(self, ctes, sel, order_by, limit, offset)? else {
            return Ok(None);
        };
        let planned = Arc::new(planned);
        let stale = |name: &String| ctes.get(name).is_some() || self.serves_virtual(name);
        if planned.captured_reads.iter().any(stale) {
            return Ok(Some((planned, None)));
        }
        if let Ok(mut cache) = self.plan_cache.lock() {
            let map = cache.map(statement_scoped);
            if map.len() >= MAX_CACHED_PLANS {
                map.clear();
            }
            map.insert(key, planned.clone());
        }
        Ok(Some((planned, Some(false))))
    }

    /// The catalog changed: no cached plan can hit again.
    pub(crate) fn drop_plans(&self) {
        if let Ok(mut cache) = self.plan_cache.lock() {
            cache.session.clear();
            cache.statement.clear();
        }
    }

    /// The statement is over: drop the plans of its CTE environments.
    pub(crate) fn end_statement_plans(&self) {
        if let Ok(mut cache) = self.plan_cache.lock() {
            cache.statement.clear();
        }
    }

    /// Number of plans currently cached (observability).
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.lock().map(|c| c.session.len() + c.statement.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_sql;
    use crate::table::Table;
    use crate::types::Value;

    fn db_with_table() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Table::from_rows(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]),
            false,
        )
        .unwrap();
        db
    }

    fn key_for(db: &Database, sql: &str) -> PlanCacheKey {
        let stmt = crate::parser::parse_statement(sql).unwrap();
        let crate::ast::Statement::Query(q) = stmt else { panic!("expected query") };
        let crate::ast::SetExpr::Select(sel) = &q.body else { panic!("expected select") };
        db.plan_cache_key(&Ctes::new(), sel, &q.order_by, &q.limit, &q.offset)
    }

    #[test]
    fn repeat_query_hits_cache() {
        let mut db = db_with_table();
        execute_sql(&mut db, "SELECT a FROM t WHERE a > 1").unwrap();
        let n = db.plan_cache_len();
        assert!(n >= 1, "first execution should populate the cache");
        execute_sql(&mut db, "SELECT a FROM t WHERE a > 1").unwrap();
        assert_eq!(db.plan_cache_len(), n, "repeat execution should not add entries");
    }

    #[test]
    fn mutation_invalidates_cached_plan() {
        let mut db = db_with_table();
        execute_sql(&mut db, "SELECT a FROM t").unwrap();
        let epoch = db.catalog_epoch();
        execute_sql(&mut db, "INSERT INTO t VALUES (3)").unwrap();
        assert!(db.catalog_epoch() > epoch, "DML must advance the epoch");
        // Same SQL now keys differently; results reflect the new row.
        let t = execute_sql(&mut db, "SELECT a FROM t").unwrap().into_table().unwrap();
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn literal_variants_cache_separately() {
        let db = db_with_table();
        let k1 = key_for(&db, "SELECT a FROM t WHERE a = 1");
        let k2 = key_for(&db, "SELECT a FROM t WHERE a = 2");
        assert_ne!(k1, k2, "plan-cache key must be literal-sensitive");
    }

    /// The key carries the full query text: distinct queries compare
    /// unequal even if they were to hash alike, so a lookup can never
    /// serve another query's plan.
    #[test]
    fn key_stores_full_query_material() {
        let db = db_with_table();
        let k1 = key_for(&db, "SELECT a FROM t");
        let k1_again = key_for(&db, "SELECT a FROM t");
        assert_eq!(k1, k1_again, "same query, same epoch: identical key");
        let k2 = key_for(&db, "SELECT a FROM t ORDER BY a");
        assert_ne!(k1, k2);
        db.bump_epoch();
        let k3 = key_for(&db, "SELECT a FROM t");
        assert_ne!(k1, k3, "epoch changes must change the key");
    }
}
