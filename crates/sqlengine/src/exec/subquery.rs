//! A subquery that reads no outer row, run again only when a relation it
//! reads has changed.
//!
//! Every execution of a subquery site — a scalar, `IN` or `EXISTS`
//! subquery, or a FROM subquery a plan re-runs — goes through
//! [`run_subquery`]. A site is the `Query` a bound expression or plan node
//! holds; the statement keeps, per site, its last result together with the
//! [`ReadSet`] of what it read: each relation name with the CTE binding,
//! view or catalog table version it resolved to. The entry holds that and
//! the site's own `Arc`, so no address it compares can be reused while it
//! exists. The next execution under an outer chain none of whose columns
//! the subquery could name, and while the `ReadSet` still holds, returns
//! the kept result instead of running.
//!
//! A site is never kept when what it runs is not a function of the
//! relations it reads: it scans a virtual `sdb_*` table (telemetry moves
//! without any relation changing), captures a solve, or calls a
//! registered UDF (which may count its calls, or keep state). Nothing is
//! kept under a symbolic pass's step hook (the hook has effects of its
//! own), nor on the reference row interpreter, which stays the plain
//! definition the executor is compared against. The entries live in the
//! statement state next to the statement's plans: a commit point drops
//! the results whose `ReadSet` names what it writes, as it drops such
//! plans, and [`Database::end_statement`] drops them all.

use crate::ast::{Expr, Node, Query};
use crate::catalog::{Database, ReadSet, Work};
use crate::error::Result;
use crate::exec::eval::{Env, EvalCtx};
use crate::exec::select::run_query;
use crate::plan::relation_reads;
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
    Miss,
}

/// What decides whether a kept result still holds.
struct Closed {
    /// Every column reference in the query, at any depth: an outer chain
    /// with no column any of them could name is one the query cannot read.
    columns: Vec<(Option<String>, String)>,
    /// The relation names it reads, views followed.
    names: Vec<String>,
    /// The last result and what it read.
    last: Option<(ReadSet, Arc<Table>)>,
}

impl KeptSubquery {
    /// What the kept result read, when the site holds one.
    pub(crate) fn reads(&self) -> Option<&ReadSet> {
        self.closed.as_ref()?.last.as_ref().map(|(reads, _)| reads)
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
        match &self.last {
            Some((reads, table)) if reads.still_valid(ctx.db.relations(), ctx.ctes) => {
                Lookup::Kept(table.clone())
            }
            _ => Lookup::Miss,
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
            db.count(ctx.ctes, Work::SubqueriesReused, 1);
            Ok(table)
        }
        Lookup::Miss => {
            let table = run()?;
            db.with_kept_subquery(site, |kept| {
                if let Some(closed) = kept.and_then(|k| k.closed.as_mut()) {
                    let reads = ReadSet::of(db.relations(), ctx.ctes, closed.names.iter().cloned());
                    closed.last = Some((reads, table.clone()));
                }
            });
            Ok(table)
        }
    }
}
