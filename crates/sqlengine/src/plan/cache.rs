//! Plan cache: optimized plans keyed by `(bound CTE names, outer scope
//! chain, exact query rendering)`, in two lifetimes.
//!
//! Plans embed the stored tables they scan — catalog tables, and the
//! materialized results of views and FROM subqueries
//! (`ScanSource::Table`) — so a cached plan is only valid while the
//! relations it read are the ones it was built against. A plan carries
//! them as its [`ReadSet`] ([`PlannedQuery::reads`]): every name it
//! scans, views followed, and every name a view or FROM subquery it
//! captured or re-runs reads, each with the table version or view it
//! resolved to. A lookup serves a plan only while its `ReadSet` still
//! holds. A commit point that writes a name first drops every entry whose
//! `ReadSet` names it, and [`Database::adopt`] keeps only the entries the
//! adopted relations still hold: an entry left behind could never hit
//! again, and would pin the version of every table it scans, forcing the
//! next write to copy the table and keeping dead copies alive. A write to
//! a relation the plan does not read leaves it cached. Table statistics
//! belong to the table version a plan scans, so the `ReadSet` also covers
//! stats changes.
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
//! a view: its rows are a snapshot of telemetry that moves without any
//! relation changing. A CTE environment belongs to one statement, and
//! so do these plans: they sit in a map of their own that the statement
//! layer empties when the statement ends
//! ([`Database::end_statement`]). Within the statement they are
//! what lets a black-box solver plan its objective and simulation
//! relations once and re-execute them per candidate, and lets the
//! symbolic passes of one `SOLVESELECT` share their plans.
//!
//! A block under an enclosing block's row — a correlated subquery, run
//! once per outer row — binds some of its names in that row's scope
//! chain, so the key carries the chain's column names: the block is
//! planned once per statement, not once per outer row. The plan holds
//! none of the row's *values* (they are read by each execution), and a
//! relation that might is not captured (`ScanSource::Derived`). A plan
//! that captured a solve's answer ([`PlannedQuery::captured_solve`]) is
//! never cached: nothing versions a solver run.
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
//!
//! Rendering is most of what a hit costs, and a block under an outer row
//! is looked up once per row, so a statement remembers the renderings it
//! made by the address of the `Select` they were made of. An address may
//! be reused by another query, so it only finds the entry: the entry is
//! used when the `Select` there *equals* the one it was rendered from.

use super::{plan_select, PlannedQuery};
use crate::ast::{Expr, OrderItem, Select};
use crate::catalog::{Ctes, Database, ReadSet};
use crate::error::Result;
use crate::exec::eval::Env;
use crate::exec::subquery::KeptSubquery;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError};

/// The exact rendering of a block and the ORDER BY / LIMIT / OFFSET of
/// the query it is the body of.
fn render(
    sel: &Select,
    order_by: &[OrderItem],
    limit: &Option<Expr>,
    offset: &Option<Expr>,
) -> Arc<str> {
    format!("{sel:?}|{order_by:?}|{limit:?}|{offset:?}").into()
}

/// Clear a map once it holds this many plans: a read-only session that
/// varies its literals would otherwise grow the map without bound.
const MAX_CACHED_PLANS: usize = 256;

/// Full plan-cache key: the CTE names in scope, the column names of the
/// outer scope chain (innermost scope first) and the exact rendered
/// query. Hash collisions between different queries land in the same
/// bucket but fail the equality check, so a lookup can never return
/// another query's plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    /// The bound CTE names, sorted, each followed by [`SEP`].
    ctes: String,
    /// Per scope of the outer chain its `qualifier.name` columns, each
    /// followed by [`SEP`], and a `;`.
    outer: String,
    query: Arc<str>,
}

/// Ends a name in a rendered list; no identifier contains it.
const SEP: char = '\u{1f}';

/// A `Select` block with the query it is the body of, and the rendering
/// of the four made for a key.
struct Rendered {
    sel: Select,
    order_by: Vec<OrderItem>,
    limit: Option<Expr>,
    offset: Option<Expr>,
    text: Arc<str>,
}

/// The two plan maps of a [`Database`].
#[derive(Default)]
pub(crate) struct PlanCache {
    /// Plans of CTE-free queries; live until a write to a relation they
    /// read (or the size bound) drops them.
    session: HashMap<PlanCacheKey, Arc<PlannedQuery>>,
    /// Plans of queries under a CTE environment; live until the
    /// statement ends.
    statement: HashMap<PlanCacheKey, Arc<PlannedQuery>>,
    /// The renderings this statement made, by the address of the `Select`
    /// rendered — a hint, confirmed by comparing the `Select`s.
    rendered: HashMap<usize, Rendered>,
    /// Plan-cache outcome of this statement's last cache-eligible block
    /// to finish: `Some(true)` = hit, `Some(false)` = planned fresh.
    event: Option<bool>,
    /// This statement's subquery sites and their kept results, by the
    /// address of the site's `Query` (`exec::subquery`).
    subqueries: HashMap<usize, KeptSubquery>,
}

impl PlanCache {
    fn map(&mut self, statement_scoped: bool) -> &mut HashMap<PlanCacheKey, Arc<PlannedQuery>> {
        if statement_scoped {
            &mut self.statement
        } else {
            &mut self.session
        }
    }

    /// The statement is over: drop its plans and renderings, and return
    /// its event. The maps go with their capacity: between statements a
    /// session holds only its session plans.
    pub(crate) fn end_statement(&mut self) -> Option<bool> {
        (self.statement, self.rendered, self.subqueries) = Default::default();
        self.event.take()
    }
}

impl Database {
    /// Cache key for a SELECT under the CTE names `ctes` binds and the
    /// scopes of the `outer` chain.
    pub(crate) fn plan_cache_key(
        &self,
        ctes: &Ctes,
        sel: &Select,
        order_by: &[OrderItem],
        limit: &Option<Expr>,
        offset: &Option<Expr>,
        outer: Option<&Env<'_>>,
    ) -> PlanCacheKey {
        let mut names: Vec<&str> = ctes.names().collect();
        names.sort_unstable();
        let mut bound = String::new();
        for name in names {
            bound.push_str(name);
            bound.push(SEP);
        }
        let mut chain = String::new();
        for env in std::iter::successors(outer, |env| env.parent) {
            for c in &env.scope.cols {
                chain.push_str(c.qualifier.as_deref().unwrap_or(""));
                chain.push('.');
                chain.push_str(&c.name);
                chain.push(SEP);
            }
            chain.push(';');
        }
        // A block under neither an outer row nor a CTE environment is a
        // statement's own: looked up once, nothing to remember.
        let query = if outer.is_some() || !ctes.is_empty() {
            self.rendered(sel, order_by, limit, offset)
        } else {
            render(sel, order_by, limit, offset)
        };
        PlanCacheKey { ctes: bound, outer: chain, query }
    }

    /// [`render`], done once per statement for the `Select` at one
    /// address.
    fn rendered(
        &self,
        sel: &Select,
        order_by: &[OrderItem],
        limit: &Option<Expr>,
        offset: &Option<Expr>,
    ) -> Arc<str> {
        let at = sel as *const Select as usize;
        let same = |r: &Rendered| {
            r.sel == *sel && r.order_by == order_by && r.limit == *limit && r.offset == *offset
        };
        let mut cache = self.plan_cache.lock().ok();
        if let Some(r) = cache.as_ref().and_then(|c| c.rendered.get(&at)).filter(|r| same(r)) {
            return r.text.clone();
        }
        let text = render(sel, order_by, limit, offset);
        if let Some(cache) = &mut cache {
            if cache.rendered.len() >= MAX_CACHED_PLANS {
                cache.rendered.clear();
            }
            let (sel, order_by) = (sel.clone(), order_by.to_vec());
            let (limit, offset, text) = (limit.clone(), offset.clone(), text.clone());
            cache.rendered.insert(at, Rendered { sel, order_by, limit, offset, text });
        }
        text
    }

    /// The plan for a `SELECT` under `ctes` and the `outer` chain, and
    /// whether it came from the cache (`Some(true)`), was planned now and
    /// cached (`Some(false)`), or was planned now but cannot be cached
    /// because it captured rows that depend on a bound CTE, come from a
    /// virtual table or are a solve's answer (`None`).
    pub(crate) fn plan_cached(
        &self,
        ctes: &Ctes,
        sel: &Select,
        order_by: &[OrderItem],
        limit: &Option<Expr>,
        offset: &Option<Expr>,
        outer: Option<&Env<'_>>,
    ) -> Result<(Arc<PlannedQuery>, Option<bool>)> {
        let key = self.plan_cache_key(ctes, sel, order_by, limit, offset, outer);
        let statement_scoped = !ctes.is_empty();
        let hit = self
            .plan_cache
            .lock()
            .ok()
            .and_then(|mut c| c.map(statement_scoped).get(&key).cloned());
        if let Some(planned) = hit {
            // Only a plan made under a CTE environment has slots to check.
            let slots = !statement_scoped || planned.slots_bound(ctes);
            if slots && planned.reads.still_valid(self.relations(), ctes) {
                return Ok((planned, Some(true)));
            }
        }
        let scopes = Env::scopes(outer);
        let planned = Arc::new(plan_select(self, ctes, sel, order_by, limit, offset, &scopes)?);
        let stale = |name: &str| ctes.get(name).is_some() || self.serves_virtual(name);
        if planned.captured_solve || planned.reads.names().any(stale) {
            return Ok((planned, None));
        }
        if let Ok(mut cache) = self.plan_cache.lock() {
            let map = cache.map(statement_scoped);
            if map.len() >= MAX_CACHED_PLANS {
                map.clear();
            }
            map.insert(key, planned.clone());
        }
        Ok((planned, Some(false)))
    }

    /// Keep the cached plans and kept subquery results whose [`ReadSet`]
    /// `keep` accepts, and drop the rest.
    pub(crate) fn retain_reads(&self, keep: impl Fn(&ReadSet) -> bool) {
        let mut cache = self.plan_cache.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = &mut *cache;
        cache.session.retain(|_, planned| keep(&planned.reads));
        cache.statement.retain(|_, planned| keep(&planned.reads));
        cache.subqueries.retain(|_, kept| kept.reads().is_none_or(&keep));
    }

    /// `f` of the entry of the subquery site at `site`, if the statement
    /// has one.
    pub(crate) fn with_kept_subquery<T>(
        &self,
        site: usize,
        f: impl FnOnce(Option<&mut KeptSubquery>) -> T,
    ) -> T {
        let mut cache = self.plan_cache.lock().unwrap_or_else(PoisonError::into_inner);
        f(cache.subqueries.get_mut(&site))
    }

    /// Enter the subquery site at `site` for the rest of the statement.
    pub(crate) fn keep_subquery(&self, site: usize, kept: KeptSubquery) {
        let mut cache = self.plan_cache.lock().unwrap_or_else(PoisonError::into_inner);
        if cache.subqueries.len() >= MAX_CACHED_PLANS {
            cache.subqueries.clear();
        }
        cache.subqueries.insert(site, kept);
    }

    /// A block of the current statement finished on a plan the cache
    /// served (`hit`) or planned and kept.
    pub(crate) fn note_plan_cache_event(&self, hit: bool) {
        if let Ok(mut cache) = self.plan_cache.lock() {
            cache.event = Some(hit);
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
        for name in ["t", "u"] {
            let rows = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
            db.create_table(name, Table::from_rows(&["a"], rows), false).unwrap();
        }
        db
    }

    fn key_for(db: &Database, sql: &str) -> PlanCacheKey {
        let stmt = crate::parser::parse_statement(sql).unwrap();
        let crate::ast::Statement::Query(q) = stmt else { panic!("expected query") };
        let crate::ast::SetExpr::Select(sel) = &q.body else { panic!("expected select") };
        db.plan_cache_key(&Ctes::new(), sel, &q.order_by, &q.limit, &q.offset, None)
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

    /// A write to `u` keeps the plan that reads only `t`; a write to `t`
    /// retires it. Each read returns the rows committed before it.
    #[test]
    fn mutation_invalidates_cached_plan() {
        let mut db = db_with_table();
        let read = |db: &mut Database| {
            let r = execute_sql(db, "SELECT a FROM t").unwrap();
            (r.plan_cache_hit, r.into_table().unwrap().num_rows())
        };
        assert_eq!(read(&mut db), (Some(false), 2));
        execute_sql(&mut db, "INSERT INTO u VALUES (3)").unwrap();
        assert_eq!(read(&mut db), (Some(true), 2), "a write to u keeps the plan on t");
        execute_sql(&mut db, "INSERT INTO t VALUES (3)").unwrap();
        assert_eq!(read(&mut db), (Some(false), 3), "a write to t retires it");
    }

    /// A FROM subquery under an outer row is run by each execution, but
    /// its columns are the plan's: a write to what it reads retires the
    /// plan, which would otherwise expect `u`'s old columns.
    #[test]
    fn a_write_to_what_a_rerun_subquery_reads_retires_the_plan() {
        let mut db = db_with_table();
        let sql = "SELECT t.a, s.n FROM t, LATERAL \
                   (SELECT count(*) AS n FROM (SELECT * FROM u) b WHERE b.a = t.a) s ORDER BY 1";
        let read = |db: &mut Database| {
            let r = execute_sql(db, sql).unwrap();
            (r.plan_cache_hit, format!("{:?}", r.into_table().unwrap().rows))
        };
        let counts =
            |n1: i64, n2: i64| format!("{:?}", [[1, n1], [2, n2]].map(|r| r.map(Value::Int)));
        assert_eq!(read(&mut db), (Some(false), counts(1, 1)));
        assert_eq!(read(&mut db), (Some(true), counts(1, 1)));
        let recreate = "DROP TABLE u; CREATE TABLE u (z int8, a int8); INSERT INTO u VALUES (2, 1)";
        crate::exec::execute_script(&mut db, recreate).unwrap();
        assert_eq!(read(&mut db), (Some(false), counts(1, 0)));
    }

    #[test]
    fn literal_variants_cache_separately() {
        let db = db_with_table();
        let k1 = key_for(&db, "SELECT a FROM t WHERE a = 1");
        let k2 = key_for(&db, "SELECT a FROM t WHERE a = 2");
        assert_ne!(k1, k2, "plan-cache key must be literal-sensitive");
    }

    /// A block executed again in place — the anchor of a recursive CTE,
    /// once per candidate of a black-box solve — finds the rendering the
    /// statement made of it: the same text, not an equal one. A clone of
    /// the block is another address and renders anew.
    #[test]
    fn a_block_looked_up_again_in_place_is_rendered_once() {
        let db = db_with_table();
        let stmt = crate::parser::parse_statement("SELECT a FROM t WHERE a > 1").unwrap();
        let crate::ast::Statement::Query(q) = stmt else { panic!("expected query") };
        let crate::ast::SetExpr::Select(sel) = &q.body else { panic!("expected select") };
        let under_a_cte = Ctes::new().with("c", Arc::new(Table::from_rows(&["x"], vec![])));
        let key =
            |sel: &Select| db.plan_cache_key(&under_a_cte, sel, &[], &None, &None, None).query;
        let first = key(sel);
        assert!(Arc::ptr_eq(&first, &key(sel)));
        let moved = sel.clone();
        let again = key(&moved);
        assert!(!Arc::ptr_eq(&first, &again) && first == again);
        db.end_statement();
        assert!(!Arc::ptr_eq(&first, &key(sel)), "the next statement starts over");
    }

    /// The key carries the full query text: distinct queries compare
    /// unequal even if they were to hash alike, so a lookup can never
    /// serve another query's plan.
    /// What the plan read is its `ReadSet`'s to check, not the key's: a
    /// write to `t` leaves the key of a read of `t` as it was.
    #[test]
    fn key_stores_full_query_material() {
        let mut db = db_with_table();
        let k1 = key_for(&db, "SELECT a FROM t");
        let k1_again = key_for(&db, "SELECT a FROM t");
        assert_eq!(k1, k1_again, "same query: identical key");
        let k2 = key_for(&db, "SELECT a FROM t ORDER BY a");
        assert_ne!(k1, k2);
        execute_sql(&mut db, "INSERT INTO t VALUES (3)").unwrap();
        assert_eq!(k1, key_for(&db, "SELECT a FROM t"), "a write leaves the key as it is");
    }
}
