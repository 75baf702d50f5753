//! The relation footprint of one statement.
//!
//! The whole-script analyzer reasons about statements purely through the
//! relation names they touch. [`statement_rwset`] collects five sets:
//!
//! * `reads` — relations the statement consumes when it executes,
//! * `lazy_reads` — relations a `CREATE VIEW` definition references
//!   (views are stored unevaluated, so these are only *read* when the
//!   view itself is read; they still order statements in the DAG),
//! * `writes` — existing relations the statement mutates in place
//!   (`INSERT`/`UPDATE`/`DELETE` targets),
//! * `creates` / `drops` — relations brought into or removed from the
//!   catalog.
//!
//! [`executed_solves`] lists the solves the statement runs (SD018) and
//! [`statement_kind`] labels it. All three read the statement through
//! [`Statement::walk`]: a relation is read when the walk reports it
//! unbound, so names bound locally — WITH members, solve aliases — stay
//! out, with the walk's deliberately over-approximate solve rule (binding
//! too much can at worst hide a read, never invent one, so the
//! cross-statement checks stay free of false positives).

use crate::ast::{Node, Query, SolveKind, SolveStmt, Statement};
use std::collections::BTreeSet;

/// The relation footprint of one statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwSet {
    pub reads: BTreeSet<String>,
    /// View-definition reads: deferred until the view is read, but still
    /// dependency-ordering for the DAG.
    pub lazy_reads: BTreeSet<String>,
    pub writes: BTreeSet<String>,
    pub creates: BTreeSet<String>,
    pub drops: BTreeSet<String>,
}

impl RwSet {
    /// Every relation this statement writes in the broad sense: mutates,
    /// creates, or drops.
    pub fn touched(&self) -> BTreeSet<String> {
        self.writes.iter().chain(self.creates.iter()).chain(self.drops.iter()).cloned().collect()
    }

    /// Every relation read either eagerly or through a stored view
    /// definition.
    pub fn all_reads(&self) -> BTreeSet<String> {
        self.reads.union(&self.lazy_reads).cloned().collect()
    }

    /// True when `self` and `other` commute: neither reads what the
    /// other writes, and their write sets are disjoint.
    pub fn independent(&self, other: &RwSet) -> bool {
        let (wa, wb) = (self.touched(), other.touched());
        wa.is_disjoint(&other.all_reads())
            && wb.is_disjoint(&self.all_reads())
            && wa.is_disjoint(&wb)
    }
}

/// Short display label for a statement ("CREATE TABLE", "SOLVESELECT", ...).
pub fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Query(_) if !executed_solves(stmt).is_empty() => "SOLVESELECT",
        Statement::Query(_) => "SELECT",
        Statement::Solve(_) => "SOLVESELECT",
        Statement::Explain { .. } | Statement::ExplainQuery { .. } => "EXPLAIN",
        Statement::ExplainScript { .. } => "EXPLAIN SCRIPT",
        Statement::ModelEval { .. } => "MODELEVAL",
        Statement::Insert { .. } => "INSERT",
        Statement::Update { .. } => "UPDATE",
        Statement::Delete { .. } => "DELETE",
        Statement::CreateTable { as_query: Some(_), .. } => "CREATE TABLE AS",
        Statement::CreateTable { .. } => "CREATE TABLE",
        Statement::CreateView { .. } => "CREATE VIEW",
        Statement::DropTable { .. } => "DROP TABLE",
        Statement::DropView { .. } => "DROP VIEW",
        Statement::Checkpoint => "CHECKPOINT",
        Statement::Set { .. } => "SET",
        Statement::Cancel { .. } => "CANCEL",
    }
}

/// Compute the relation footprint of a statement.
pub fn statement_rwset(stmt: &Statement) -> RwSet {
    let mut rw = RwSet::default();
    match stmt {
        Statement::Insert { table, .. } => {
            rw.writes.insert(table.clone());
        }
        Statement::Update { table, .. } | Statement::Delete { table, .. } => {
            rw.writes.insert(table.clone());
            rw.reads.insert(table.clone());
        }
        Statement::CreateTable { name, .. } | Statement::CreateView { name, .. } => {
            rw.creates.insert(name.clone());
        }
        Statement::DropTable { name, .. } | Statement::DropView { name, .. } => {
            rw.drops.insert(name.clone());
        }
        _ => {}
    }
    let reads = match stmt {
        Statement::CreateView { .. } => &mut rw.lazy_reads,
        _ => &mut rw.reads,
    };
    stmt.walk(unbound_into(reads));
    rw
}

/// Every relation a stored view definition reads.
pub(crate) fn view_reads(def: &Query) -> BTreeSet<String> {
    let mut reads = BTreeSet::new();
    Node::Query(def).walk(unbound_into(&mut reads));
    reads
}

/// A walk visitor that adds every relation it is shown unbound to `reads`.
fn unbound_into(reads: &mut BTreeSet<String>) -> impl FnMut(Node<'_>) -> bool + '_ {
    |n| {
        if let Node::Relation { name, bound: false } = n {
            reads.insert(name.to_string());
        }
        true
    }
}

/// Every solve the statement carries outside a `SOLVEMODEL` value, in
/// syntax order: each `SOLVESELECT`, wherever it sits — the body, a FROM
/// subquery, a WITH member, an expression's subquery, a member of another
/// solve — and the statement's own solve whatever its keyword (a
/// `SOLVEMODEL` statement is solved too). A `SOLVEMODEL` value is
/// packaged, not run, and so is everything inside it.
pub fn solves(stmt: &Statement) -> Vec<&SolveStmt> {
    let own = match stmt {
        Statement::Solve(s) => Some(s),
        Statement::Explain { stmt, .. } => Some(&**stmt),
        _ => None,
    };
    let mut out = Vec::new();
    stmt.walk(|n| match n {
        Node::Solve(s)
            if s.kind == SolveKind::Select || own.is_some_and(|o| std::ptr::eq(o, s)) =>
        {
            out.push(s);
            true
        }
        Node::Solve(_) => false,
        Node::Query(_) | Node::Relation { .. } | Node::Expr(_) => true,
    });
    out
}

/// The [`solves`] this statement runs when it executes: none for a view
/// definition (it runs when the view is read) or an `EXPLAIN`. Used by the
/// statically-empty-input check (SD018).
pub fn executed_solves(stmt: &Statement) -> Vec<&SolveStmt> {
    match stmt {
        Statement::CreateView { .. }
        | Statement::Explain { .. }
        | Statement::ExplainQuery { .. } => Vec::new(),
        _ => solves(stmt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn rw(sql: &str) -> RwSet {
        statement_rwset(&parse_statement(sql).expect("parse"))
    }

    #[test]
    fn select_reads_tables_not_ctes() {
        let s = rw("WITH c AS (SELECT * FROM t) SELECT * FROM c JOIN u ON c.x = u.x");
        assert_eq!(s.reads, ["t", "u"].iter().map(|s| s.to_string()).collect());
        assert!(s.touched().is_empty());
    }

    #[test]
    fn insert_reads_source_writes_target() {
        let s = rw("INSERT INTO t SELECT * FROM src WHERE x IN (SELECT x FROM other)");
        assert!(s.writes.contains("t"));
        assert!(s.reads.contains("src") && s.reads.contains("other"));
    }

    #[test]
    fn ctas_creates_and_reads() {
        let s = rw("CREATE TABLE out AS SELECT * FROM base");
        assert!(s.creates.contains("out"));
        assert!(s.reads.contains("base"));
    }

    #[test]
    fn view_reads_are_lazy() {
        let s = rw("CREATE VIEW v AS SELECT * FROM base");
        assert!(s.creates.contains("v"));
        assert!(s.lazy_reads.contains("base") && !s.reads.contains("base"));
    }

    #[test]
    fn solve_aliases_are_bound() {
        let s = rw("SOLVESELECT t(x) AS (SELECT * FROM input) \
                    WITH u(y) AS (SELECT * FROM aux) \
                    MINIMIZE (SELECT sum(x) FROM t) \
                    SUBJECTTO (SELECT x >= y FROM t, u) \
                    USING solverlp()");
        assert_eq!(s.reads, ["aux", "input"].iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn independence_is_symmetric_and_conflicts_detected() {
        let a = rw("INSERT INTO t VALUES (1)");
        let b = rw("SELECT * FROM t");
        let c = rw("SELECT * FROM u");
        assert!(!a.independent(&b) && !b.independent(&a));
        assert!(a.independent(&c) && c.independent(&a));
    }

    #[test]
    fn solves_are_found_at_any_depth_but_not_inside_a_model_value() {
        let solve = "SOLVESELECT q(x) AS (SELECT * FROM v) USING solverlp()";
        let model = "SOLVEMODEL q(x) AS (SELECT * FROM (SOLVESELECT r(y) AS (SELECT 1 AS y) \
                     USING solverlp()) z) USING solverlp()";
        let sql = format!("SELECT (SELECT count(*) FROM ({solve}) s), ({model}) FROM v");
        let stmt = parse_statement(&sql).expect("parse");
        assert_eq!(solves(&stmt).len(), 1);
        assert_eq!(statement_kind(&stmt), "SOLVESELECT");
        // A view definition and an EXPLAIN carry their solves, but run none.
        let view = parse_statement(&format!("CREATE VIEW w AS SELECT * FROM ({solve}) s")).unwrap();
        assert_eq!((solves(&view).len(), executed_solves(&view).len()), (1, 0));
        // A SOLVEMODEL statement is solved like a SOLVESELECT.
        let top = parse_statement(model).unwrap();
        assert_eq!(executed_solves(&top).len(), 2);
    }

    #[test]
    fn update_delete_read_and_write_target() {
        let s = rw("UPDATE t SET x = (SELECT max(y) FROM m) WHERE x < 0");
        assert!(s.writes.contains("t") && s.reads.contains("t") && s.reads.contains("m"));
        let d = rw("DELETE FROM t WHERE x IN (SELECT x FROM dead)");
        assert!(d.writes.contains("t") && d.reads.contains("dead"));
    }
}
