//! Planned, vectorized query execution.
//!
//! Plain `SELECT` queries are compiled into a small logical plan IR
//! (`ir`), improved by a cost-based optimizer (predicate pushdown,
//! projection pruning, greedy join ordering from per-table statistics —
//! `build`/`stats`), and executed by a columnar batch executor
//! (`columnar`/`exec`) that processes typed column vectors with null
//! bitmaps in fixed-size batches. Scans take those batches from the
//! columnar image kept with each stored table (`image`).
//!
//! The planner is conservative: any shape it does not understand
//! (LATERAL, a block with an outer column in reach, SOLVE constructs in
//! expressions, …) returns `None` from [`plan_select`] and the row
//! interpreter in `exec::select` runs the block instead; set operations
//! are assembled by the row interpreter from arms that are planned one
//! by one. Both paths produce identical results by construction — the
//! executor reuses the interpreter's binder, expression evaluator (for
//! non-vectorizable expressions), aggregate accumulators and sort
//! comparators.

pub mod build;
pub mod cache;
pub mod columnar;
pub mod exec;
pub mod image;
pub mod ir;
pub mod stats;

pub use build::{plan_select, relation_reads};
pub use exec::execute;
pub use image::StoredTable;
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
