//! A subquery that reads no outer row, run again only when a relation it
//! reads has changed.
//!
//! Every execution of a subquery site — a scalar, `IN` or `EXISTS`
//! subquery, or a FROM subquery a plan re-runs — goes through
//! [`run_subquery`]. A site is the `Query` a bound expression or plan node
//! holds; the statement keeps, per site, its last result together with the
//! `Arc`s of what each relation name it reads resolved to: the CTE
//! binding, the view, the catalog table. The entry holds those `Arc`s and
//! the site's own, so no address it compares can be reused while it
//! exists. The next execution under an outer chain none of whose columns
//! the subquery could name, and with every name resolving to the same
//! `Arc`s, returns the kept result instead of running.
//!
//! A site is never kept when what it runs is not a function of the
//! relations it reads: it scans a virtual `sdb_*` table (telemetry moves
//! without any relation changing), captures a solve, or calls a
//! registered UDF (which may count its calls, or keep state). Nothing is
//! kept under a symbolic pass's step hook (the hook has effects of its
//! own), nor on the reference row interpreter, which stays the plain
//! definition the executor is compared against. The entries live in the
//! statement state next to the statement's plans: a catalog commit point
//! drops them with the plans, and so does [`Database::end_statement`].

use crate::ast::{Expr, Node, Query};
use crate::catalog::{Binding, Database};
use crate::error::Result;
use crate::exec::eval::{Env, EvalCtx};
use crate::exec::select::run_query;
use crate::plan::relation_reads;
use crate::plan::StoredTable;
use crate::table::Table;
use std::sync::Arc;

/// One subquery site of the statement, by the address of its `Query`.
pub(crate) struct KeptSubquery {
    /// Held so that the address keying the entry stays this site's.
    _query: Arc<Query>,
    /// `None` for a site that is never kept.
    closed: Option<Closed>,
}

/// What a site's entry says about one execution.
enum Lookup {
    /// Run the query: the site is never kept, or could read the outer row.
    Run,
    /// The kept result still holds.
    Kept(Arc<Table>),
    /// Run the query and keep what it returns, with what it read.
    Miss(Vec<Resolved>),
}

/// What decides whether a kept result still holds.
struct Closed {
    /// Every column reference in the query, at any depth: an outer chain
    /// with no column any of them could name is one the query cannot read.
    columns: Vec<(Option<String>, String)>,
    /// The relation names it reads, views followed.
    names: Vec<String>,
    /// The last result and what each name resolved to when it ran.
    last: Option<(Vec<Resolved>, Arc<Table>)>,
}

/// What one relation name resolved to: the CTE binding, the view and the
/// catalog table version of that name, compared by address.
struct Resolved {
    cte: Option<Arc<Binding>>,
    view: Option<Arc<Query>>,
    table: Option<StoredTable>,
}

impl Resolved {
    fn of(ctx: &EvalCtx<'_>, name: &str) -> Resolved {
        Resolved {
            cte: ctx.ctes.get(name).cloned(),
            view: ctx.db.view(name).cloned(),
            table: ctx.db.stored_table_if_any(name).cloned(),
        }
    }

    fn same(&self, other: &Resolved) -> bool {
        fn same<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
            match (a, b) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
        }
        let table = StoredTable::same_versions(self.table.as_ref(), other.table.as_ref());
        same(&self.cte, &other.cte) && same(&self.view, &other.view) && table
    }
}

impl Closed {
    /// The site `q`, or `None` when it is never kept. A view it reads
    /// cannot name the outer row, but can call a UDF or solve.
    fn of(db: &Database, q: &Query) -> Option<Closed> {
        let names: Vec<String> = relation_reads(db, q).into_iter().collect();
        let mut kept = !names.iter().any(|n| db.serves_virtual(n));
        let mut columns = Vec::new();
        let views = names.iter().filter_map(|n| db.view(n)).map(|v| (&**v, false));
        for (query, own) in std::iter::once((q, true)).chain(views) {
            Node::Query(query).walk(|n| {
                match n {
                    Node::Solve(_) => kept = false,
                    Node::Expr(e) => e.walk(&mut |e| match e {
                        Expr::Column { qualifier, name } if own => {
                            columns.push((qualifier.clone(), name.clone()))
                        }
                        Expr::Func { name, .. } if db.udf(name).is_some() => kept = false,
                        _ => {}
                    }),
                    Node::Query(_) | Node::Relation { .. } => {}
                }
                kept
            });
        }
        kept.then_some(Closed { columns, names, last: None })
    }

    /// Could the query read a column of the `outer` chain?
    fn reads_outer(&self, outer: Option<&Env<'_>>) -> bool {
        let scopes = std::iter::successors(outer, |env| env.parent).map(|env| env.scope);
        scopes.flat_map(|s| &s.cols).any(|c| {
            self.columns.iter().any(|(qualifier, name)| {
                *name == c.name
                    && qualifier.as_ref().is_none_or(|q| c.qualifier.as_ref() == Some(q))
            })
        })
    }

    /// What an execution under `outer`, in `ctx`, does.
    fn lookup(&self, ctx: &EvalCtx<'_>, outer: Option<&Env<'_>>) -> Lookup {
        if self.reads_outer(outer) {
            return Lookup::Run;
        }
        let reads: Vec<Resolved> = self.names.iter().map(|n| Resolved::of(ctx, n)).collect();
        match &self.last {
            Some((seen, table)) if seen.iter().zip(&reads).all(|(a, b)| a.same(b)) => {
                Lookup::Kept(table.clone())
            }
            _ => Lookup::Miss(reads),
        }
    }
}

/// Run the subquery `q` under `outer`, or return the result its site kept
/// from an earlier run that read the same relations (see the module
/// documentation).
pub(crate) fn run_subquery(
    ctx: &EvalCtx<'_>,
    q: &Arc<Query>,
    outer: Option<&Env<'_>>,
) -> Result<Arc<Table>> {
    let db = ctx.db;
    let run = || run_query(db, ctx.ctes, q, outer).map(Arc::new);
    if db.force_row_interpreter() || ctx.ctes.step_hook().is_some() {
        return run();
    }
    let site = Arc::as_ptr(q) as usize;
    let lookup = |closed: Option<&Closed>| closed.map_or(Lookup::Run, |c| c.lookup(ctx, outer));
    let found = db.with_kept_subquery(site, |kept| kept.map(|k| lookup(k.closed.as_ref())));
    let found = found.unwrap_or_else(|| {
        let closed = Closed::of(db, q);
        let found = lookup(closed.as_ref());
        db.keep_subquery(site, KeptSubquery { _query: q.clone(), closed });
        found
    });
    match found {
        Lookup::Run => run(),
        Lookup::Kept(table) => {
            db.count_subquery_reused();
            Ok(table)
        }
        Lookup::Miss(reads) => {
            let table = run()?;
            db.with_kept_subquery(site, |kept| {
                if let Some(closed) = kept.and_then(|k| k.closed.as_mut()) {
                    closed.last = Some((reads, table.clone()));
                }
            });
            Ok(table)
        }
    }
}
