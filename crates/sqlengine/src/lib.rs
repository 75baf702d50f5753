//! # sqlengine — the relational substrate of the SolveDB+ reproduction
//!
//! An in-memory SQL engine (PostgreSQL-flavoured subset) with the
//! SolveDB+ language extensions parsed natively: `SOLVESELECT`,
//! `SOLVEMODEL`, common decision table expressions, `INLINE`,
//! `MODELEVAL`, named solver parameters and comparison chains.
//!
//! The engine is deliberately self-contained: lexer → parser → binder →
//! executor over in-memory tables — row-major `Table::rows` are the
//! source of truth, and each table version carries a lazily built
//! columnar image of them that planned scans read
//! ([`plan::StoredTable`]). The SolveDB+ semantics
//! (solver framework, symbolic evaluation, model management) live in the
//! `solvedbplus-core` crate and plug in through [`catalog::SolveHandler`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every engine hash table hashes with `hash::FastState` (clippy.toml).
#![deny(clippy::disallowed_types)]

pub mod ast;
pub mod catalog;
pub mod diag;
pub mod error;
pub mod exec;
pub mod hash;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod script;
pub mod shape;
pub mod table;
pub mod types;
pub mod wire;

pub use catalog::{
    Binding, CatalogMutation, Ctes, Database, DurabilityHook, ExecCounts, ScalarUdf, SolveHandler,
    StepCell, StepHook, VirtualTableProvider,
};
pub use diag::{Diagnostic, Severity};
pub use error::{Error, Result};
pub use exec::{
    execute_script, execute_sql, execute_statement, execute_statement_timed, run_query, ExecResult,
    Outcome,
};
pub use shape::statement_shape;
pub use table::{Column, Row, Schema, Table};
pub use types::{DataType, Value};
