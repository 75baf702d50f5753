//! Matrix classification of the checked model: SD020–SD025.
//!
//! The analyzers up to SD019 reason about bounds, references and block
//! structure; this pass looks at the *constraint matrix itself*, the
//! way a modern MIP engine would. It runs [`lp::matrix::analyze`] over
//! the compiled model's linear program — the one `solverlp` starts
//! from — so the classification `EXPLAIN CHECK` reports is over the
//! rows the solver sees (before its presolve).
//!
//! The findings (emitted by [`diag`]):
//!
//! - **SD020** (note) — row-class census: how many rows have special
//!   structure (set-partitioning/-packing/-covering, cardinality,
//!   knapsack/cover, variable bounds, flow balance). The detail is the
//!   full matrix-summary section.
//! - **SD021** (note) — the matrix is an interval matrix (consecutive
//!   ones), hence totally unimodular.
//! - **SD022** (note) — the matrix is a network matrix
//!   (Heller–Tompkins), hence totally unimodular.
//! - **SD023** (note) — integrality of some declared-integer variables
//!   is implied by equality rows; branch-and-bound need not branch on
//!   them.
//! - **SD024** (warning) — a set-partitioning-shaped row ranges over
//!   non-binary variables (usually a missing integer declaration).
//! - **SD025** (warning) — a knapsack row carries an item heavier than
//!   the capacity; the variable is forced to zero.

pub mod diag;
