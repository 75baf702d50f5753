//! Planned, vectorized query execution.
//!
//! Every `SELECT` block is compiled into a small logical plan IR
//! (`ir`), improved by a cost-based optimizer (predicate pushdown,
//! projection pruning, greedy join ordering from per-table statistics —
//! `build`/`stats`), and executed by a columnar batch executor
//! (`columnar`/`exec`) that processes typed column vectors with null
//! bitmaps in fixed-size batches. Scans take those batches from the
//! columnar image kept with each stored table (`image`).
//!
//! [`plan_select`] is total: a block at any depth, under any outer row,
//! with or without FROM, with `USING`, LATERAL or SOLVE constructs in it
//! gets a plan or the statement gets its error. What is not a block —
//! the set operation over its arms, `VALUES`, ORDER BY / LIMIT over those
//! — is assembled in `exec::select` from arms that are planned one by
//! one. The reference row interpreter (`exec::oracle`), which tests reach
//! through the database's switch `Database::set_force_row_interpreter`,
//! produces identical results by construction: both read the same front
//! end (`exec::head`) and share the binder, the expression evaluator (for
//! non-vectorizable expressions), the aggregate accumulators and the sort
//! comparator.

pub mod build;
pub mod cache;
pub mod columnar;
pub mod exec;
pub mod image;
pub mod ir;
pub(crate) mod keys;
pub mod stats;

pub use build::{plan_select, relation_reads};
pub use exec::execute;
pub use image::{Rewrite, RowChunk, StoredTable};
pub use ir::{PlanNode, PlannedQuery};
pub use stats::TableStats;

/// FNV-1a 64-bit hash — used for plan fingerprints.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
