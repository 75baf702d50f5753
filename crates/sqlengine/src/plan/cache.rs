//! Plan cache: optimized plans keyed by the query they were planned
//! from, in two lifetimes.
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
//! (`Database::end_statement`). Within the statement they are
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
//! A statement-scoped plan that runs more than once in its statement —
//! a black-box solver's objective and simulation, once per candidate —
//! also keeps, from its second run on, the hash-join build sides whose
//! subtree reads nothing but the tables the plan holds (`plan::exec`):
//! they are the same in every run. The entry holds the plan's `Arc`, so
//! the node addresses keying the builds stay that plan's; it is valid
//! while the plan is, goes with it when a write retires the plan, and is
//! dropped with the statement's plans. A plan that runs once keeps
//! nothing.
//!
//! The key is the query itself (`PlanKey`): an entry owns the block,
//! the ORDER BY / LIMIT / OFFSET of its query, the bound CTE names and
//! the outer chain's column names, and a lookup borrows them. The map
//! hashes a lookup's parts once and serves an entry only when its parts
//! *equal* them, so two distinct queries that hash alike never share a
//! plan. Equality is exact down to the literals — a float by its bits —
//! so `SELECT a FROM t WHERE b = 1` and `... b = 2` cache separately.
//! That is deliberate: constant folding bakes literals into the
//! optimized plan, so plans cannot be shared across literal variants
//! (unlike `sdb_stat_statements`, whose shape key masks literals to group
//! statements).

use super::exec::JoinBuild;
use super::{plan_select, PlanNode, PlannedQuery};
use crate::ast::{Expr, OrderItem, Select};
use crate::catalog::{Ctes, Database, ReadSet};
use crate::error::Result;
use crate::exec::eval::{Env, ScopeCol};
use crate::exec::subquery::KeptSubquery;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError};

/// Clear a map once it holds this many plans: a read-only session that
/// varies its literals would otherwise grow the map without bound.
const MAX_CACHED_PLANS: usize = 256;

/// What a plan was planned from: the CTE names in scope (sorted), the
/// `(qualifier, name)` of every column of the outer scope chain (per
/// scope, innermost first), and the block with the ORDER BY, LIMIT and
/// OFFSET of the query it is the body of. A lookup borrows every part;
/// an entry owns them.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey<'a> {
    ctes: Vec<Cow<'a, str>>,
    outer: Vec<Vec<Column<'a>>>,
    sel: Cow<'a, Select>,
    order_by: Cow<'a, [OrderItem]>,
    limit: Cow<'a, Option<Expr>>,
    offset: Cow<'a, Option<Expr>>,
}

/// A column of an outer scope: its qualifier and name.
type Column<'a> = (Option<Cow<'a, str>>, Cow<'a, str>);

impl<'a> PlanKey<'a> {
    /// The key of a SELECT under the CTE names `ctes` binds and the
    /// scopes of the `outer` chain, borrowing every part.
    pub(crate) fn new(
        ctes: &'a Ctes,
        sel: &'a Select,
        order_by: &'a [OrderItem],
        limit: &'a Option<Expr>,
        offset: &'a Option<Expr>,
        outer: Option<&'a Env<'_>>,
    ) -> PlanKey<'a> {
        let mut names: Vec<Cow<str>> = ctes.names().map(Cow::Borrowed).collect();
        names.sort_unstable();
        let column =
            |c: &'a ScopeCol| (c.qualifier.as_deref().map(Cow::Borrowed), c.name[..].into());
        PlanKey {
            ctes: names,
            outer: std::iter::successors(outer, |env| env.parent)
                .map(|env| env.scope.cols.iter().map(column).collect())
                .collect(),
            sel: Cow::Borrowed(sel),
            order_by: Cow::Borrowed(order_by),
            limit: Cow::Borrowed(limit),
            offset: Cow::Borrowed(offset),
        }
    }

    /// This key with every part owned, for an entry.
    fn into_owned(self) -> PlanKey<'static> {
        let scope =
            |cols: Vec<Column>| cols.into_iter().map(|(q, n)| (q.map(own), own(n))).collect();
        PlanKey {
            ctes: self.ctes.into_iter().map(own).collect(),
            outer: self.outer.into_iter().map(scope).collect(),
            sel: own(self.sel),
            order_by: own(self.order_by),
            limit: own(self.limit),
            offset: own(self.offset),
        }
    }
}

/// `part`, owned.
fn own<T: ToOwned + ?Sized + 'static>(part: Cow<'_, T>) -> Cow<'static, T> {
    Cow::Owned(part.into_owned())
}

type PlanMap = HashMap<PlanKey<'static>, Arc<PlannedQuery>>;

/// The two plan maps of a [`Database`].
#[derive(Default)]
pub(crate) struct PlanCache {
    /// Plans of CTE-free queries; live until a write to a relation they
    /// read (or the size bound) drops them.
    session: PlanMap,
    /// Plans of queries under a CTE environment; live until the
    /// statement ends.
    statement: PlanMap,
    /// Plan-cache outcome of this statement's last cache-eligible block
    /// to finish: `Some(true)` = hit, `Some(false)` = planned fresh.
    event: Option<bool>,
    /// This statement's subquery sites and their kept results, by the
    /// address of the site's `Query` (`exec::subquery`).
    subqueries: HashMap<usize, KeptSubquery>,
    /// The statement-scoped plans that ran in this statement, by address.
    runs: HashMap<usize, PlanRuns>,
}

/// A statement-scoped plan that ran in the statement, and the build sides
/// kept for it.
struct PlanRuns {
    /// Held so that the addresses keying the entry stay this plan's.
    plan: Arc<PlannedQuery>,
    runs: u32,
    /// By the address of the node each is built over.
    builds: Vec<(usize, Arc<JoinBuild>)>,
}

impl PlanCache {
    fn map(&mut self, statement_scoped: bool) -> &mut PlanMap {
        if statement_scoped {
            &mut self.statement
        } else {
            &mut self.session
        }
    }

    /// The statement is over: drop its plans and kept subqueries, and
    /// return its event. The maps go with their capacity: between
    /// statements a session holds only its session plans.
    pub(crate) fn end_statement(&mut self) -> Option<bool> {
        (self.statement, self.subqueries, self.runs) = Default::default();
        self.event.take()
    }
}

impl Database {
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
        let key = PlanKey::new(ctes, sel, order_by, limit, offset, outer);
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
            map.insert(key.into_owned(), planned.clone());
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
        cache.runs.retain(|_, ran| keep(&ran.plan.reads));
    }

    /// Count a run of `planned`, which [`Self::plan_cached`] returned under
    /// `ctes` with `event`: whether the run keeps the plan's build sides
    /// that read only its tables. It does from the second run in the
    /// statement of a statement-scoped cached plan on, outside a symbolic
    /// pass (whose step hook has effects of its own).
    pub(crate) fn keeps_builds(
        &self,
        ctes: &Ctes,
        planned: &Arc<PlannedQuery>,
        event: Option<bool>,
    ) -> bool {
        if event.is_none() || ctes.is_empty() || ctes.step_hook().is_some() {
            return false;
        }
        let mut cache = self.plan_cache.lock().unwrap_or_else(PoisonError::into_inner);
        if cache.runs.len() >= MAX_CACHED_PLANS {
            cache.runs.clear();
        }
        let at = Arc::as_ptr(planned) as usize;
        let ran = cache.runs.entry(at).or_insert_with(|| PlanRuns {
            plan: planned.clone(),
            runs: 0,
            builds: Vec::new(),
        });
        ran.runs += 1;
        ran.runs > 1
    }

    /// The build side over `node` of `plan` that the statement keeps.
    pub(crate) fn kept_build(
        &self,
        plan: &PlannedQuery,
        node: &PlanNode,
    ) -> Option<Arc<JoinBuild>> {
        let cache = self.plan_cache.lock().unwrap_or_else(PoisonError::into_inner);
        let ran = cache.runs.get(&(plan as *const PlannedQuery as usize))?;
        let at = node as *const PlanNode as usize;
        ran.builds.iter().find(|(node, _)| *node == at).map(|(_, build)| build.clone())
    }

    /// Keep `build`, over `node` of `plan`, for the rest of the statement.
    pub(crate) fn keep_build(&self, plan: &PlannedQuery, node: &PlanNode, build: Arc<JoinBuild>) {
        let mut cache = self.plan_cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ran) = cache.runs.get_mut(&(plan as *const PlannedQuery as usize)) {
            ran.builds.push((node as *const PlanNode as usize, build));
        }
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
    use crate::ast::Query;
    use crate::exec::eval::{Scope, ScopeCol};
    use crate::exec::execute_sql;
    use crate::table::Table;
    use crate::types::{DataType, Value};

    fn db_with_table() -> Database {
        let mut db = Database::new();
        for name in ["t", "u"] {
            let rows = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
            db.create_table(name, Table::from_rows(&["a"], rows), false).unwrap();
        }
        db
    }

    fn query(sql: &str) -> Query {
        let stmt = crate::parser::parse_statement(sql).unwrap();
        let crate::ast::Statement::Query(q) = stmt else { panic!("expected query") };
        q
    }

    fn key_for(sql: &str) -> PlanKey<'static> {
        let q = query(sql);
        let crate::ast::SetExpr::Select(sel) = &q.body else { panic!("expected select") };
        PlanKey::new(&Ctes::new(), sel, &q.order_by, &q.limit, &q.offset, None).into_owned()
    }

    /// Whether the cache served `sql`'s block under `ctes` and `outer`.
    fn hit(db: &Database, sql: &str, ctes: &Ctes, outer: Option<&Env<'_>>) -> Option<bool> {
        let q = query(sql);
        let crate::ast::SetExpr::Select(sel) = &q.body else { panic!("expected select") };
        db.plan_cached(ctes, sel, &q.order_by, &q.limit, &q.offset, outer).unwrap().1
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
        let k1 = key_for("SELECT a FROM t WHERE a = 1");
        let k2 = key_for("SELECT a FROM t WHERE a = 2");
        assert_ne!(k1, k2, "plan-cache key must be literal-sensitive");
    }

    /// The key carries the full query: distinct queries compare unequal
    /// even if they were to hash alike, so a lookup can never serve
    /// another query's plan. What the plan read is its `ReadSet`'s to check, not the key's: a
    /// write to `t` leaves the key of a read of `t` as it was.
    #[test]
    fn key_stores_full_query_material() {
        let mut db = db_with_table();
        let k1 = key_for("SELECT a FROM t");
        let k1_again = key_for("SELECT a FROM t");
        assert_eq!(k1, k1_again, "same query: identical key");
        let k2 = key_for("SELECT a FROM t ORDER BY a");
        assert_ne!(k1, k2);
        execute_sql(&mut db, "INSERT INTO t VALUES (3)").unwrap();
        assert_eq!(k1, key_for("SELECT a FROM t"), "a write leaves the key as it is");
    }

    /// `-0.0` and `0.0` are two literals: each block plans its own, and
    /// each returns its own zero.
    #[test]
    fn a_negative_zero_literal_is_a_key_of_its_own() {
        let mut db = db_with_table();
        let mut zero = |sql| {
            let r = execute_sql(&mut db, sql).unwrap();
            let hit = r.plan_cache_hit;
            let t = r.into_table().unwrap();
            let Value::Float(z) = t.rows[0][0] else { panic!("expected a float") };
            (hit, z.to_bits())
        };
        let (first, negative) = zero("SELECT -0.0 AS z");
        let (second, positive) = zero("SELECT 0.0 AS z");
        assert_eq!((first, second), (Some(false), Some(false)), "the second lookup must miss");
        assert_eq!((negative, positive), ((-0.0f64).to_bits(), 0.0f64.to_bits()));
    }

    /// Which names resolve to a CTE is part of the plan: the same block
    /// under other bound names is planned anew.
    #[test]
    fn blocks_under_other_cte_names_share_no_entry() {
        let db = db_with_table();
        let under = |name| Ctes::new().with(name, Arc::new(Table::from_rows(&["x"], vec![])));
        let (c, d) = (under("c"), under("d"));
        let sql = "SELECT a FROM t";
        assert_eq!(hit(&db, sql, &c, None), Some(false));
        assert_eq!(hit(&db, sql, &d, None), Some(false), "other CTE names must miss");
        assert_eq!(hit(&db, sql, &c, None), Some(true));
    }

    /// A block under an outer row binds names in the outer chain: one
    /// other column name there is another key.
    #[test]
    fn blocks_under_other_outer_columns_share_no_entry() {
        let db = db_with_table();
        let scope = |name: &str| {
            let col =
                ScopeCol { qualifier: Some("o".into()), name: name.into(), ty: DataType::Int };
            Scope::new(vec![col])
        };
        let (x, y) = (scope("x"), scope("y"));
        let row = [Value::Int(1)];
        let env = |scope| Env { scope, row: &row, parent: None };
        let sql = "SELECT a FROM t WHERE a = 1";
        assert_eq!(hit(&db, sql, &Ctes::new(), Some(&env(&x))), Some(false));
        assert_eq!(hit(&db, sql, &Ctes::new(), Some(&env(&y))), Some(false), "o.y must miss");
        assert_eq!(hit(&db, sql, &Ctes::new(), Some(&env(&x))), Some(true));
    }
}
