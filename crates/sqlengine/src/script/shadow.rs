//! The statically derived catalog state ("shadow catalog").
//!
//! As the script analyzer steps through statements it keeps the catalog
//! the script builds: a [`Database`] that starts as the session's
//! relations and takes each statement's DDL through the engine's own
//! commit points (a created table is an empty table of its schema). Every
//! schema is the engine's binder's (`exec::head::query_schema`); a query
//! that does not bind — it reads a name only the session knows, say —
//! leaves the schema unknown. Beside it, per relation name, is what that
//! catalog cannot say: where the script created or dropped it, whether a
//! statement read it, a row-count estimate, and — where every inserted
//! value was a numeric literal — per-column value intervals in the spirit
//! of the presolve interval domain. Everything here is conservative:
//! `None`/`Unknown` means "cannot tell", and downstream checks stay silent
//! rather than guess.

use crate::ast::{Expr, Literal, Query, SetExpr, Statement};
use crate::catalog::{Ctes, Database};
use crate::exec::declared_schema;
use crate::exec::head::query_schema;
use crate::hash::FastMap;
use crate::table::{Schema, Table};
use crate::types::BinOp;

/// What kind of relation a name is at one script point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelKind {
    Table,
    View,
    /// A name the script reads but never creates: assumed to exist in
    /// the session catalog at run time (never diagnosed).
    External,
}

/// Statically derived row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowEstimate {
    Known(usize),
    Unknown,
}

/// Inclusive numeric interval for a column, derived from literal
/// `INSERT ... VALUES` rows. `nullable` records whether a `NULL` was
/// ever inserted (NULLs never satisfy a comparison, so they do not
/// widen the interval but are tracked for honesty in messages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColRange {
    pub lo: f64,
    pub hi: f64,
    pub nullable: bool,
}

/// What the catalog cannot say about one relation at one script point.
#[derive(Debug, Clone)]
pub struct DerivedRel {
    pub rows: RowEstimate,
    /// Statement index (0-based) that created it; `None` = pre-existing.
    pub created_at: Option<usize>,
    /// Statement index that dropped it, when dropped and not recreated.
    pub dropped_at: Option<usize>,
    /// Set once any later statement reads it (directly or through a view).
    pub ever_read: bool,
    /// Literal-derived per-column intervals; `None` = intervals lost.
    pub ranges: Option<FastMap<String, ColRange>>,
}

impl DerivedRel {
    /// A relation no statement has touched yet: the session table's row
    /// count, if it is one.
    fn untouched(db: &Database, name: &str) -> DerivedRel {
        let rows = db
            .stored_table(name)
            .map_or(RowEstimate::Unknown, |t| RowEstimate::Known(t.num_rows()));
        DerivedRel { rows, created_at: None, dropped_at: None, ever_read: false, ranges: None }
    }

    pub fn is_dropped(&self) -> bool {
        self.dropped_at.is_some()
    }
}

/// The shadow catalog: the catalog the script builds, plus the derived
/// state of every name a statement has touched.
#[derive(Debug, Default)]
pub struct ShadowCatalog {
    pub(crate) db: Database,
    rels: FastMap<String, DerivedRel>,
}

impl ShadowCatalog {
    pub fn new(db: Database) -> ShadowCatalog {
        ShadowCatalog { db, rels: FastMap::default() }
    }

    /// What is known of `name`; `None` when neither a statement nor the
    /// catalog has met it.
    pub fn get(&self, name: &str) -> Option<DerivedRel> {
        match self.rels.get(name) {
            Some(rel) => Some(rel.clone()),
            None => self.db.relations().has(name).then(|| DerivedRel::untouched(&self.db, name)),
        }
    }

    /// The derived state of every name a statement has touched.
    pub fn touched(&self) -> impl Iterator<Item = (&String, &DerivedRel)> {
        self.rels.iter()
    }

    fn entry(&mut self, name: &str) -> &mut DerivedRel {
        let db = &self.db;
        self.rels.entry(name.to_string()).or_insert_with(|| DerivedRel::untouched(db, name))
    }

    fn known_mut(&mut self, name: &str) -> Option<&mut DerivedRel> {
        let known = self.rels.contains_key(name) || self.db.relations().has(name);
        known.then(|| self.entry(name))
    }

    /// Record a read of `name`, materializing an external entry for
    /// never-created names.
    pub fn mark_read(&mut self, name: &str) {
        self.entry(name).ever_read = true;
    }

    /// What `name` is here. A table the script created from a query that
    /// did not bind is not in the catalog, but it is a table.
    pub fn kind(&self, name: &str) -> RelKind {
        if self.db.view(name).is_some() {
            RelKind::View
        } else if self.db.has_table(name)
            || self.rels.get(name).is_some_and(|r| r.created_at.is_some())
        {
            RelKind::Table
        } else {
            RelKind::External
        }
    }

    fn dropped(&self, name: &str) -> bool {
        self.rels.get(name).is_some_and(DerivedRel::is_dropped)
    }

    /// True when `name` is a live table or view here (an external name is
    /// only assumed to exist).
    pub fn exists(&self, name: &str) -> bool {
        self.kind(name) != RelKind::External && !self.dropped(name)
    }

    /// What `q` returns, as the engine binds it here; `None` when it does
    /// not bind.
    pub fn query_schema(&self, q: &Query) -> Option<Schema> {
        query_schema(&self.db, &Ctes::new(), q, &[]).ok()
    }

    /// The schema of table or view `name`, when it is known.
    pub fn schema(&self, name: &str) -> Option<Schema> {
        match self.db.view(name) {
            Some(q) => self.query_schema(q),
            None => self.db.stored_table(name).ok().map(|t| t.schema().clone()),
        }
    }

    /// Apply the catalog effects of `stmt` (index `idx`) to the shadow
    /// state: a statement the engine would refuse changes nothing.
    /// Diagnostics never happen here — this is pure transition.
    pub fn apply(&mut self, idx: usize, stmt: &Statement) {
        match stmt {
            Statement::CreateTable { name, columns, as_query, .. } => {
                if self.exists(name) {
                    return; // IF NOT EXISTS is a no-op, a plain duplicate fails
                }
                let (schema, rows) = match as_query {
                    None => (Some(declared_schema(columns)), Some(0)),
                    Some(q) => (self.query_schema(q), insert_row_count(q)),
                };
                if let Some(schema) = schema {
                    let _ = self.db.create_table(name, Table::new(schema), false);
                }
                self.rels.insert(
                    name.clone(),
                    DerivedRel {
                        rows: rows.map_or(RowEstimate::Unknown, RowEstimate::Known),
                        created_at: Some(idx),
                        dropped_at: None,
                        ever_read: false,
                        ranges: Some(FastMap::default()),
                    },
                );
            }
            Statement::CreateView { name, query, or_replace } => {
                if self.db.create_view(name, query.clone(), *or_replace).is_ok() {
                    self.rels.insert(
                        name.clone(),
                        DerivedRel {
                            rows: RowEstimate::Unknown,
                            created_at: Some(idx),
                            dropped_at: None,
                            ever_read: false,
                            ranges: None,
                        },
                    );
                }
            }
            Statement::DropTable { name, .. } | Statement::DropView { name, .. } => {
                let view = matches!(stmt, Statement::DropView { .. });
                let kind = self.kind(name);
                // Dropping twice, or a table as a view, drops nothing.
                if self.dropped(name)
                    || (kind != RelKind::External && (kind == RelKind::View) != view)
                {
                    return;
                }
                let _ = match view {
                    true => self.db.drop_view(name, true),
                    false => self.db.drop_table(name, true),
                };
                self.entry(name).dropped_at = Some(idx);
            }
            Statement::Insert { table, columns, source } => {
                let added = insert_row_count(source);
                let literal_rows = literal_values_rows(source);
                let schema = self.schema(table);
                if let Some(rel) = self.known_mut(table) {
                    rel.rows = match (rel.rows, added) {
                        (RowEstimate::Known(n), Some(m)) => RowEstimate::Known(n + m),
                        _ => RowEstimate::Unknown,
                    };
                    // Interval update: only full-width literal inserts
                    // keep the ranges sound; anything else drops them.
                    match (&literal_rows, columns.is_empty(), schema) {
                        (Some(rows), true, Some(schema)) => {
                            merge_literal_ranges(rel, rows, &schema)
                        }
                        _ => rel.ranges = None,
                    }
                }
            }
            Statement::Update { table, assignments, .. } => {
                if let Some(ranges) = self.known_mut(table).and_then(|r| r.ranges.as_mut()) {
                    for (col, _) in assignments {
                        ranges.remove(col);
                    }
                }
            }
            Statement::Delete { table, where_ } => {
                if let Some(rel) = self.known_mut(table) {
                    match where_ {
                        None => {
                            rel.rows = RowEstimate::Known(0);
                            rel.ranges = Some(FastMap::default());
                        }
                        // Deleting rows can only shrink intervals; keep
                        // them (they stay a sound over-approximation).
                        Some(_) => rel.rows = RowEstimate::Unknown,
                    }
                }
            }
            _ => {}
        }
    }
}

fn merge_literal_ranges(rel: &mut DerivedRel, rows: &[Vec<Literal>], schema: &Schema) {
    let Some(ranges) = rel.ranges.as_mut() else { return };
    if rows.iter().any(|r| r.len() != schema.len()) {
        rel.ranges = None; // fewer values pad with NULL, more are SD015: either way, give up
        return;
    }
    for (ci, col) in schema.columns.iter().enumerate() {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut nullable = false;
        let mut numeric = true;
        for row in rows {
            match &row[ci] {
                Literal::Int(i) => {
                    lo = lo.min(*i as f64);
                    hi = hi.max(*i as f64);
                }
                Literal::Float(x) => {
                    lo = lo.min(*x);
                    hi = hi.max(*x);
                }
                Literal::Null => nullable = true,
                _ => numeric = false,
            }
        }
        if !numeric {
            ranges.remove(&col.name);
            continue;
        }
        let entry = ranges.entry(col.name.clone()).or_insert(ColRange { lo, hi, nullable });
        entry.lo = entry.lo.min(lo);
        entry.hi = entry.hi.max(hi);
        entry.nullable |= nullable;
    }
}

/// Number of rows a query contributes, when statically countable.
fn insert_row_count(q: &Query) -> Option<usize> {
    if q.limit.is_some() || q.offset.is_some() {
        return None;
    }
    body_row_count(&q.body)
}

fn body_row_count(body: &SetExpr) -> Option<usize> {
    match body {
        SetExpr::Values(rows) => Some(rows.len()),
        SetExpr::Query(q) => insert_row_count(q),
        SetExpr::Select(s)
            if s.from.is_empty()
                && s.where_.is_none()
                && s.group_by.is_empty()
                && s.having.is_none()
                && !s.distinct =>
        {
            Some(1) // SELECT <exprs> with no FROM yields exactly one row
        }
        _ => None,
    }
}

/// When the source is a plain `VALUES` of literals, return its rows.
fn literal_values_rows(q: &Query) -> Option<Vec<Vec<Literal>>> {
    if !q.with.is_empty() || q.limit.is_some() || q.offset.is_some() {
        return None;
    }
    let SetExpr::Values(rows) = &q.body else { return None };
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|e| match e {
                    Expr::Literal(l) => Some(l.clone()),
                    Expr::UnOp { op: crate::types::UnOp::Neg, expr } => match expr.as_ref() {
                        Expr::Literal(Literal::Int(i)) => Some(Literal::Int(-i)),
                        Expr::Literal(Literal::Float(x)) => Some(Literal::Float(-x)),
                        _ => None,
                    },
                    _ => None,
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Static emptiness
// ---------------------------------------------------------------------------

/// Try to prove that `WHERE where_` selects no row of `rel`, using the
/// literal-derived column intervals. Returns the human-readable reason
/// on success. Sound but very incomplete: only conjunctions of
/// column-vs-literal comparisons (and comparison chains) are examined.
pub fn where_provably_empty(where_: &Expr, rel: &DerivedRel) -> Option<String> {
    match where_ {
        Expr::Literal(Literal::Bool(false)) => Some("the WHERE clause is constant FALSE".into()),
        Expr::BinOp { op: BinOp::And, lhs, rhs } => {
            where_provably_empty(lhs, rel).or_else(|| where_provably_empty(rhs, rel))
        }
        Expr::BinOp { op, lhs, rhs } if op.is_comparison() => comparison_unsat(*op, lhs, rhs, rel),
        Expr::Chain { first, rest } => {
            let mut prev = first.as_ref();
            for (op, next) in rest {
                if let Some(reason) = comparison_unsat(*op, prev, next, rel) {
                    return Some(reason);
                }
                prev = next;
            }
            None
        }
        _ => None,
    }
}

fn comparison_unsat(op: BinOp, lhs: &Expr, rhs: &Expr, rel: &DerivedRel) -> Option<String> {
    // Normalize to column ⋈ constant.
    let (col, c, op) = match (column_name(lhs), numeric_literal(rhs)) {
        (Some(col), Some(c)) => (col, c, op),
        _ => match (numeric_literal(lhs), column_name(rhs)) {
            (Some(c), Some(col)) => (col, c, flip(op)?),
            _ => return None,
        },
    };
    let range = rel.ranges.as_ref()?.get(col)?;
    let (lo, hi) = (range.lo, range.hi);
    if lo > hi {
        return None; // no numeric rows recorded
    }
    let unsat = match op {
        BinOp::Lt => lo >= c,
        BinOp::Le => lo > c,
        BinOp::Gt => hi <= c,
        BinOp::Ge => hi < c,
        BinOp::Eq => c < lo || c > hi,
        _ => false,
    };
    unsat.then(|| {
        format!(
            "every inserted value of '{col}' lies in [{lo}, {hi}], so '{col} {} {c}' \
             matches no row",
            op.symbol()
        )
    })
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        BinOp::Eq => BinOp::Eq,
        _ => return None,
    })
}

fn column_name(e: &Expr) -> Option<&str> {
    match e {
        Expr::Column { name, .. } => Some(name),
        _ => None,
    }
}

fn numeric_literal(e: &Expr) -> Option<f64> {
    match e {
        Expr::Literal(Literal::Int(i)) => Some(*i as f64),
        Expr::Literal(Literal::Float(x)) => Some(*x),
        Expr::UnOp { op: crate::types::UnOp::Neg, expr } => numeric_literal(expr).map(|v| -v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::types::DataType;

    fn apply_all(sql: &str) -> ShadowCatalog {
        let mut shadow = ShadowCatalog::default();
        for (i, piece) in crate::parser::split_statements(sql).iter().enumerate() {
            let stmt = parse_statement(piece).expect("parse");
            shadow.apply(i, &stmt);
        }
        shadow
    }

    #[test]
    fn create_insert_tracks_rows_and_ranges() {
        let s = apply_all(
            "CREATE TABLE t (x float8, y int4); \
             INSERT INTO t VALUES (1.5, 10), (2.5, 20), (NULL, 30)",
        );
        let rel = s.get("t").expect("t");
        assert_eq!(rel.rows, RowEstimate::Known(3));
        let ranges = rel.ranges.as_ref().expect("ranges");
        let x = ranges.get("x").expect("x range");
        assert_eq!((x.lo, x.hi, x.nullable), (1.5, 2.5, true));
        assert_eq!(ranges.get("y").map(|r| (r.lo, r.hi)), Some((10.0, 30.0)));
    }

    #[test]
    fn delete_without_where_empties() {
        let s = apply_all("CREATE TABLE t (x int4); INSERT INTO t VALUES (1); DELETE FROM t");
        assert_eq!(s.get("t").expect("t").rows, RowEstimate::Known(0));
    }

    #[test]
    fn non_literal_insert_drops_ranges_keeps_count_unknown() {
        let s = apply_all("CREATE TABLE t (x int4); INSERT INTO t SELECT x FROM src");
        let rel = s.get("t").expect("t");
        assert_eq!(rel.rows, RowEstimate::Unknown);
        assert!(rel.ranges.is_none());
    }

    #[test]
    fn where_contradiction_is_proven() {
        let s = apply_all("CREATE TABLE t (x int4); INSERT INTO t VALUES (1), (5)");
        let rel = s.get("t").expect("t");
        let pred = |sql: &str| {
            let stmt = parse_statement(&format!("SELECT * FROM t WHERE {sql}")).expect("parse");
            let crate::ast::Statement::Query(q) = stmt else { panic!("query") };
            let SetExpr::Select(sel) = q.body else { panic!("select") };
            sel.where_.clone().expect("where")
        };
        assert!(where_provably_empty(&pred("x < 0"), &rel).is_some());
        assert!(where_provably_empty(&pred("x > 5"), &rel).is_some());
        assert!(where_provably_empty(&pred("x = 3 AND x < 99"), &rel).is_none());
        assert!(where_provably_empty(&pred("x = 7"), &rel).is_some());
        assert!(where_provably_empty(&pred("0 > x"), &rel).is_some());
        assert!(where_provably_empty(&pred("x >= 1"), &rel).is_none());
    }

    #[test]
    fn ctas_schema_derived_from_named_source() {
        let s = apply_all(
            "CREATE TABLE base (a int4, b text); \
             CREATE TABLE derived AS SELECT a, b AS label, 1.5 AS w FROM base; \
             CREATE TABLE c (a int4, y float8); \
             CREATE TABLE joined AS SELECT * FROM base JOIN c USING (a); \
             CREATE TABLE w AS WITH m AS (SELECT * FROM c) SELECT * FROM m; \
             CREATE TABLE ext AS SELECT * FROM not_in_the_script",
        );
        let schema = s.schema("derived").expect("schema");
        assert_eq!(schema.names(), ["a", "label", "w"]);
        assert_eq!(schema.columns[0].ty, DataType::Int);
        assert_eq!(schema.columns[2].ty, DataType::Float);
        // `*` over USING keeps both key columns, as the engine returns them.
        assert_eq!(s.schema("joined").expect("joined").names(), ["a", "b", "a", "y"]);
        assert_eq!(s.schema("w").expect("w").names(), ["a", "y"]);
        // A query that does not bind: a table of unknown schema.
        assert!(s.schema("ext").is_none());
        assert_eq!(s.kind("ext"), RelKind::Table);
    }
}
