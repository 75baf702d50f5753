//! The CDTE → single-input-relation rewrite of paper §4.3.
//!
//! SolveDB+ evaluates `SOLVESELECT` queries with decision-bearing CDTEs
//! either natively (the default path in [`crate::problem`]) or by
//! rewriting them to a *single* input relation: all decision-bearing
//! relations are row-aligned into one table `__l` with a bit-string
//! `c_mask` column marking which relation(s) each row belongs to
//! (Table 5), and each original relation is reconstructed as a plain
//! CDTE projecting `__l` filtered by its mask bit. The paper prefers
//! this path because it is transparent to every registered solver; here
//! it serves as a semantics cross-check and an ablation subject.

use crate::problem::{build_problem, inline_models};
use sqlengine::ast::{
    DecCols, DecRel, Expr, Literal, Query, Select, SelectItem, SolveStmt, TableRef,
};
use sqlengine::catalog::{Ctes, Database};
use sqlengine::error::{Error, Result};
use sqlengine::table::{Column, Schema, Table};
use sqlengine::types::{BinOp, BitString, DataType, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Name of the synthetic combined relation.
pub const COMBINED: &str = "__l";
/// Name of the mask column (paper Table 5).
pub const C_MASK: &str = "c_mask";

/// Result of the rewrite: a transformed statement plus the materialized
/// combined relation to expose as a CTE.
pub struct CdteRewrite {
    pub stmt: SolveStmt,
    pub combined: Table,
    /// The input relation's schema as instantiated: the shape
    /// [`solve_via_rewrite`] projects the output back to.
    pub input_schema: Schema,
    /// The input relation's `c_mask` bit, when it has decision columns
    /// (it is then the first relation of the combined table).
    pub input_mask: Option<BitString>,
}

/// Does the statement have more than one decision-bearing relation
/// (i.e. would the rewrite change anything)?
pub fn needs_rewrite(stmt: &SolveStmt) -> bool {
    let mut n = usize::from(!stmt.input.dec_cols.is_none());
    n += stmt.ctes.iter().filter(|c| !c.dec_cols.is_none()).count();
    n > 1
}

/// Apply the §4.3 rewrite. The decision-bearing relations are
/// materialized once (by [`build_problem`]), row-aligned into
/// the combined table with prefixed column names and a `c_mask`, and the
/// statement is rewritten so its only decision relation is
/// `SELECT * FROM __l` while the original aliases become mask-filtered
/// projections.
pub fn rewrite_cdtes(db: &Database, ctes: &Ctes, stmt: &SolveStmt) -> Result<CdteRewrite> {
    // Expand INLINE once; the problem is built from the expanded statement.
    let stmt = if stmt.inlines.is_empty() {
        Cow::Borrowed(stmt)
    } else {
        Cow::Owned(inline_models(db, ctes, stmt)?)
    };
    let prob = build_problem(db, ctes, &stmt)?;

    // Decision-bearing relations, in order.
    let mut dec_rels = Vec::new(); // (relation, alias, table)
    for rel in &prob.relations {
        if !rel.dec_cols.is_empty() {
            let alias = rel
                .alias
                .clone()
                .ok_or_else(|| Error::solver("the CDTE rewrite requires aliased relations"))?;
            dec_rels.push((rel, alias, rel.table()?));
        }
    }
    if dec_rels.len() < 2 {
        return Err(Error::solver(
            "the CDTE rewrite applies only with two or more decision relations",
        ));
    }
    if dec_rels.len() > 64 {
        return Err(Error::solver("c_mask supports at most 64 decision relations"));
    }
    let width = dec_rels.len() as u8;

    // Build the combined schema: alias__col for every column of every
    // decision relation, plus c_mask.
    let mut columns: Vec<Column> = Vec::new();
    let mut col_offsets: Vec<usize> = Vec::new();
    for (_, alias, t) in &dec_rels {
        col_offsets.push(columns.len());
        for c in &t.schema.columns {
            columns.push(Column::new(format!("{alias}__{}", c.name), c.ty.clone()));
        }
    }
    let mask_col = columns.len();
    columns.push(Column::new(C_MASK, DataType::Bits));

    // Row-align: row r of the combined table carries row r of each
    // relation that is long enough; the mask records membership.
    let max_rows = dec_rels.iter().map(|(_, _, t)| t.num_rows()).max().unwrap_or(0);
    let mut rows = Vec::with_capacity(max_rows);
    for r in 0..max_rows {
        let mut row: Vec<Value> = vec![Value::Null; columns.len()];
        let mut mask = 0u64;
        for (k, (_, _, t)) in dec_rels.iter().enumerate() {
            if r < t.num_rows() {
                mask |= 1u64 << (width - 1 - k as u8);
                for (ci, v) in t.rows[r].iter().enumerate() {
                    row[col_offsets[k] + ci] = v.clone();
                }
            }
        }
        row[mask_col] = Value::Bits(BitString::new(width, mask)?);
        rows.push(row);
    }
    let combined = Table::with_rows(Schema::new(columns), rows);

    // Decision columns of the combined relation.
    let mut dec_col_names = Vec::new();
    for (rel, alias, t) in &dec_rels {
        for &c in &rel.dec_cols {
            dec_col_names.push(format!("{alias}__{}", t.schema.columns[c].name));
        }
    }

    // Rewritten statement: input = SELECT * FROM __l with the combined
    // decision columns; each original alias becomes a mask-filtered
    // projection CDTE; decision-free CDTEs keep their original queries.
    let mut new_stmt = SolveStmt::clone(&stmt);
    new_stmt.input = DecRel {
        alias: Some("l".to_string()),
        dec_cols: DecCols::List(dec_col_names),
        query: Query::simple(Select {
            distinct: false,
            projection: vec![SelectItem::Wildcard { qualifier: None }],
            from: vec![TableRef::Named { name: COMBINED.into(), alias: None }],
            where_: None,
            group_by: vec![],
            grouping_sets: None,
            having: None,
        }),
    };
    let mut new_ctes: Vec<DecRel> = Vec::new();
    for (k, (_, alias, t)) in dec_rels.iter().enumerate() {
        let mask = BitString::single(width, k as u8)?;
        let zero = BitString::new(width, 0)?;
        // SELECT l.<alias>__c AS c, ... FROM l WHERE (c_mask & b'mask') <> b'0..0'
        let projection: Vec<SelectItem> = t
            .schema
            .columns
            .iter()
            .map(|c| SelectItem::Expr {
                expr: Expr::Column { qualifier: None, name: format!("{alias}__{}", c.name) },
                alias: Some(c.name.clone()),
            })
            .collect();
        let filter = Expr::BinOp {
            op: BinOp::Ne,
            lhs: Box::new(Expr::BinOp {
                op: BinOp::BitAnd,
                lhs: Box::new(Expr::col(C_MASK)),
                rhs: Box::new(Expr::Literal(Literal::BitStr(mask.to_string()))),
            }),
            rhs: Box::new(Expr::Literal(Literal::BitStr(zero.to_string()))),
        };
        new_ctes.push(DecRel {
            alias: Some(alias.clone()),
            dec_cols: DecCols::None,
            query: Query::simple(Select {
                distinct: false,
                projection,
                from: vec![TableRef::Named { name: "l".into(), alias: None }],
                where_: Some(filter),
                group_by: vec![],
                grouping_sets: None,
                having: None,
            }),
        });
    }
    // Keep decision-free CDTEs (they may derive from the reconstructed
    // relations).
    for cte in &stmt.ctes {
        if cte.dec_cols.is_none() {
            new_ctes.push(cte.clone());
        }
    }
    new_stmt.ctes = new_ctes;

    let input_schema = prob.relations[0].table()?.schema.clone();
    let input_mask = (!prob.relations[0].dec_cols.is_empty())
        .then(|| BitString::single(width, 0))
        .transpose()?;
    Ok(CdteRewrite { stmt: new_stmt, combined, input_schema, input_mask })
}

/// Execute a `SOLVESELECT` through the rewrite path and return the
/// output in the original input relation's shape.
pub fn solve_via_rewrite(db: &Database, ctes: &Ctes, stmt: &SolveStmt) -> Result<Table> {
    let handler = db.solve_handler()?;
    let rw = rewrite_cdtes(db, ctes, stmt)?;
    let env = ctes.with(COMBINED, Arc::new(rw.combined));
    let solved = handler.solve_select(db, &rw.stmt, &env, None)?;

    // Project the combined output back to the original input relation.
    let orig_alias = stmt
        .input
        .alias
        .clone()
        .ok_or_else(|| Error::solver("rewrite requires an aliased input relation"))?;
    let prefix = format!("{orig_alias}__");
    let mut keep: Vec<(usize, String)> = Vec::new();
    for (i, c) in solved.schema.columns.iter().enumerate() {
        if let Some(orig) = c.name.strip_prefix(&prefix) {
            keep.push((i, orig.to_string()));
        }
    }
    let mask_idx = solved
        .schema
        .index_of(C_MASK)
        .ok_or_else(|| Error::solver("rewritten output lost its c_mask column"))?;
    let sel_mask = rw.input_mask.ok_or_else(|| {
        Error::solver("the input relation has no decision columns; rewrite not applicable")
    })?;
    let input = &rw.input_schema;
    let schema_cols: Vec<Column> = keep
        .iter()
        .map(|(_, name)| input.columns[input.index_of(name).unwrap_or(0)].clone())
        .collect();
    let mut rows = Vec::new();
    for row in &solved.rows {
        let Value::Bits(mask) = &row[mask_idx] else {
            return Err(Error::solver("c_mask column is not a bit string"));
        };
        if mask.and(&sel_mask)?.is_zero() {
            continue;
        }
        rows.push(keep.iter().map(|(i, _)| row[*i].clone()).collect());
    }
    Ok(Table::with_rows(Schema::new(schema_cols), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::ast::Statement;
    use sqlengine::parser;

    fn solve_stmt(sql: &str) -> SolveStmt {
        match parser::parse_statement(sql).unwrap() {
            Statement::Solve(s) => s,
            _ => panic!(),
        }
    }

    #[test]
    fn needs_rewrite_detection() {
        let single = solve_stmt("SOLVESELECT t(x) AS (SELECT 1 AS x) USING s()");
        assert!(!needs_rewrite(&single));
        let multi = solve_stmt(
            "SOLVESELECT t(x) AS (SELECT 1 AS x) WITH e(y) AS (SELECT 2 AS y) USING s()",
        );
        assert!(needs_rewrite(&multi));
        let no_dec_cte =
            solve_stmt("SOLVESELECT t(x) AS (SELECT 1 AS x) WITH e AS (SELECT 2 AS y) USING s()");
        assert!(!needs_rewrite(&no_dec_cte));
    }

    #[test]
    fn combined_table_shape_matches_table5() {
        use sqlengine::execute_script;
        let mut db = Database::new();
        execute_script(
            &mut db,
            "CREATE TABLE pars (a float8); INSERT INTO pars VALUES (NULL);
             CREATE TABLE obs (x float8, err float8);
             INSERT INTO obs VALUES (1, NULL), (2, NULL), (3, NULL);",
        )
        .unwrap();
        let stmt = solve_stmt(
            "SOLVESELECT p(a) AS (SELECT * FROM pars) \
             WITH e(err) AS (SELECT * FROM obs) \
             MINIMIZE (SELECT sum(err) FROM e) \
             SUBJECTTO (SELECT -1*err <= a * x - 2 * x <= err FROM e, p) \
             USING solverlp()",
        );
        let rw = rewrite_cdtes(&db, &Ctes::new(), &stmt).unwrap();
        let t = &rw.combined;
        // max(1, 3) rows; columns p__a, e__x, e__err, c_mask.
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.schema.names(), vec!["p__a", "e__x", "e__err", C_MASK]);
        // Row 0 belongs to both relations; rows 1-2 only to e (Table 5).
        assert_eq!(t.value(0, 3).to_string(), "11");
        assert_eq!(t.value(1, 3).to_string(), "01");
        assert_eq!(t.value(2, 3).to_string(), "01");
        // The rewritten statement has a single decision relation.
        assert!(!needs_rewrite(&rw.stmt));
        assert_eq!(rw.stmt.input.dec_cols, DecCols::List(vec!["p__a".into(), "e__err".into()]));
    }

    #[test]
    fn rewrite_path_matches_native_solution() {
        use crate::Session;
        // L1 regression: fit a so that a*x ≈ y, with y = 2x exactly.
        let setup = "CREATE TABLE pars (a float8); INSERT INTO pars VALUES (NULL);
             CREATE TABLE obs (x float8, y float8);
             INSERT INTO obs VALUES (1, 2), (2, 4), (3, 6);";
        let sql = "SOLVESELECT p(a) AS (SELECT * FROM pars) \
             WITH e(err) AS (SELECT x, y, NULL::float8 AS err FROM obs) \
             MINIMIZE (SELECT sum(err) FROM e) \
             SUBJECTTO (SELECT -1*err <= a * x - y <= err FROM e, p) \
             USING solverlp()";

        // Native path.
        let mut s = Session::new();
        s.execute_script(setup).unwrap();
        let native = s.query(sql).unwrap();

        // Rewrite path.
        let stmt = solve_stmt(sql);
        let rewritten = solve_via_rewrite(s.db(), &Ctes::new(), &stmt).unwrap();

        assert_eq!(native.schema.names(), rewritten.schema.names());
        assert_eq!(native.num_rows(), rewritten.num_rows());
        let a_native = native.value_by_name(0, "a").unwrap().as_f64().unwrap();
        let a_rewritten = rewritten.value_by_name(0, "a").unwrap().as_f64().unwrap();
        assert!((a_native - 2.0).abs() < 1e-6);
        assert!((a_native - a_rewritten).abs() < 1e-9);
    }

    #[test]
    fn rewrite_rejects_single_relation() {
        let db = Database::new();
        let stmt = solve_stmt("SOLVESELECT t(x) AS (SELECT 1.0 AS x) USING s()");
        assert!(rewrite_cdtes(&db, &Ctes::new(), &stmt).is_err());
    }
}
