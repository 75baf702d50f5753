//! Statement-shape fingerprinting for the metrics layer.
//!
//! `sdb_stat_statements` aggregates executions of the *same statement
//! shape*: the canonical form of the statement with every literal
//! masked as `?`. Two queries differing only in constants (`SELECT x
//! FROM t WHERE x > 3` vs `... > 7`) share one row; queries differing
//! structurally do not.

use crate::ast::Statement;
use crate::lexer::{tokenize, Token};
use std::fmt::Write;

/// Canonical shape of a statement: the AST's display form, re-lexed
/// and written token by token, space-separated, into one string, with
/// literal tokens replaced by `?`.
pub fn statement_shape(stmt: &Statement) -> String {
    let canonical = stmt.to_string();
    // The canonical form should always lex; fall back to it verbatim.
    let Ok(tokens) = tokenize(&canonical) else { return canonical };
    let mut shape = String::with_capacity(canonical.len());
    for (i, t) in tokens.iter().filter(|t| !matches!(t, Token::Eof)).enumerate() {
        if i > 0 {
            shape.push(' ');
        }
        match t {
            Token::Int(_) | Token::Float(_) | Token::Str(_) | Token::BitStr(_) => shape.push('?'),
            other => _ = write!(shape, "{other}"),
        }
    }
    shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn shape_of(sql: &str) -> String {
        statement_shape(&parse_statement(sql).unwrap())
    }

    /// The shape as a `String` per token, joined.
    fn joined(stmt: &Statement) -> String {
        let canonical = stmt.to_string();
        tokenize(&canonical)
            .unwrap()
            .iter()
            .filter(|t| !matches!(t, Token::Eof))
            .map(|t| match t {
                Token::Int(_) | Token::Float(_) | Token::Str(_) | Token::BitStr(_) => {
                    "?".to_string()
                }
                other => other.to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn the_shape_is_the_tokens_joined_by_spaces() {
        for sql in [
            "SELECT 1",
            "SELECT \"Quoted\".x, 'it''s', b'0101', -2.5e3, x::float8 FROM \"Quoted\" WHERE y <> 3",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (NULL, interval '1 hour')",
            "WITH RECURSIVE r(k) AS (SELECT 1 UNION ALL SELECT k + 1 FROM r WHERE k < 5) \
             SELECT k, k % 2, k || 'a' FROM r ORDER BY k DESC LIMIT 3",
            "SOLVESELECT q(x) AS (SELECT * FROM v) MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT 0 <= x <= 4 FROM q) USING solverlp.cbc(n := 2)",
        ] {
            let stmt = parse_statement(sql).unwrap();
            assert_eq!(statement_shape(&stmt), joined(&stmt), "{sql}");
        }
    }

    #[test]
    fn literals_are_masked() {
        let a = shape_of("SELECT x FROM t WHERE x > 3");
        let b = shape_of("SELECT x FROM t WHERE x > 17");
        assert_eq!(a, b);
        assert!(a.contains('?'), "shape: {a}");
        assert!(!a.contains('3'), "shape: {a}");
    }

    #[test]
    fn strings_and_floats_are_masked() {
        let a = shape_of("SELECT 'alpha', 1.5");
        let b = shape_of("SELECT 'beta', 99.25");
        assert_eq!(a, b);
    }

    #[test]
    fn different_structure_gets_different_shapes() {
        assert_ne!(shape_of("SELECT x FROM t"), shape_of("SELECT y FROM t"));
        assert_ne!(shape_of("SELECT x FROM t"), shape_of("SELECT x FROM t WHERE x > 1"));
    }

    #[test]
    fn whitespace_and_case_normalize() {
        let a = shape_of("select   X from T where x > 1");
        let b = shape_of("SELECT x FROM t WHERE x > 2");
        assert_eq!(a, b);
    }

    #[test]
    fn solve_statements_have_shapes() {
        let a = shape_of(
            "SOLVESELECT q(x) AS (SELECT * FROM v) MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x <= 4 FROM q) USING solverlp()",
        );
        let b = shape_of(
            "SOLVESELECT q(x) AS (SELECT * FROM v) MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x <= 9 FROM q) USING solverlp()",
        );
        assert_eq!(a, b);
        assert!(a.to_lowercase().contains("solveselect"), "shape: {a}");
    }
}
