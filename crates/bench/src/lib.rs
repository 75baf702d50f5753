//! # bench — the reproduction harness for the paper's evaluation (§5)
//!
//! One module per concern: [`eloc`] implements the implementation-size
//! metric, [`setup`] prepares sessions/datasets, [`uc1`]/[`uc2`] run the
//! SolveDB+ pipelines from the checked-in SQL scripts, [`figures`]
//! regenerates every figure's data series, and [`sweep`] walks the
//! static-analysis corpus. The `reproduce` binary prints them.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod eloc;
pub mod figures;
pub mod setup;
pub mod sweep;
pub mod uc1;
pub mod uc2;

/// Benchmark-grade unwrapping: the harness aborts on a broken setup
/// step, but every abort names the step. This is the lint-wall-approved
/// replacement for `unwrap`/`expect` in bench code — panicking is the
/// right response (a benchmark with missing inputs must not report
/// numbers), silently losing the context is not.
pub trait OrDie<T> {
    /// Unwrap, panicking with `what` as context on failure.
    fn or_die(self, what: &str) -> T;
}

impl<T, E: std::fmt::Debug> OrDie<T> for Result<T, E> {
    fn or_die(self, what: &str) -> T {
        match self {
            Ok(v) => v,
            Err(e) => panic!("bench: {what}: {e:?}"),
        }
    }
}

impl<T> OrDie<T> for Option<T> {
    fn or_die(self, what: &str) -> T {
        match self {
            Some(v) => v,
            None => panic!("bench: {what}: missing value"),
        }
    }
}

/// Crew-rostering set-partitioning model, shared by the `analyze`
/// sweep, the matrix figure and (mirrored in Rust) by
/// `examples/crew_rostering.rs`: choose pairings so that every flight
/// leg is covered by exactly one chosen pairing. Every coverage row is
/// a pure set-partitioning row — the SD020 census and the cut-separator
/// registration see the structure on a realistic model. Some pairings
/// span three legs, so the matrix is deliberately *not* an interval or
/// network matrix: the census fires without a whole-matrix TU proof.
pub const CREW_SETUP: &str = "
    CREATE TABLE pairings (pid int, pcost float8, pick int);
    INSERT INTO pairings VALUES
      (1, 9, NULL), (2, 14, NULL), (3, 8, NULL), (4, 5, NULL),
      (5, 10, NULL), (6, 11, NULL), (7, 9, NULL), (8, 10, NULL),
      (9, 13, NULL), (10, 12, NULL), (11, 7, NULL), (12, 15, NULL);
    CREATE TABLE legs (pid int, flight int);
    INSERT INTO legs VALUES
      (1, 1), (1, 2),
      (2, 3), (2, 4), (2, 5),
      (3, 6), (3, 7),
      (4, 8),
      (5, 1), (5, 3),
      (6, 2), (6, 4),
      (7, 5), (7, 6),
      (8, 7), (8, 8),
      (9, 1), (9, 2), (9, 3),
      (10, 4), (10, 5), (10, 6),
      (11, 7), (11, 8),
      (12, 2), (12, 5), (12, 8)";

/// The crew-rostering solve statement over [`CREW_SETUP`]'s tables.
pub const CREW_SOLVE: &str = "SOLVESELECT p(pick) AS (SELECT * FROM pairings) \
     MINIMIZE (SELECT sum(pcost * pick) FROM p) \
     SUBJECTTO (SELECT sum(pick) = 1 FROM p JOIN legs ON p.pid = legs.pid \
                  GROUP BY legs.flight), \
               (SELECT 0 <= pick <= 1 FROM p) \
     USING solverlp.cbc()";
