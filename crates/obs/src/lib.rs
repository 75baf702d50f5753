//! # obs — observability substrate for the SolveDB+ reproduction
//!
//! A dependency-free tracing and metrics layer shared by the SQL
//! engine, the solver framework, the network server and the bench
//! harness. Three pieces:
//!
//! * **Stage tracing** — [`Trace`] records a per-query tree of timed
//!   stages (parse → plan → rewrite → instantiate → solve →
//!   post-process) plus per-solver telemetry, and freezes into a
//!   plain-data [`QueryTrace`] that can be rendered, shipped over the
//!   wire, or aggregated. A trace is `Send`: work on another thread
//!   records into its own and the statement's trace
//!   [adopts](Trace::adopt) it.
//! * **Solver telemetry** — [`SolverStats`]: simplex iterations, MIP
//!   branch-and-bound nodes explored/pruned with the incumbent
//!   trajectory, and evaluation/restart counts for the derivative-free
//!   solvers.
//! * **Registries** — [`MetricsRegistry`] accumulates per-statement-
//!   shape and per-solver cumulative counters (backing the
//!   `sdb_stat_statements` / `sdb_solver_stats` virtual tables);
//!   [`SessionRegistry`] tracks live server sessions for
//!   `sdb_sessions`.
//!
//! Everything here is `std`-only, mirroring the repo's vendored-deps
//! policy.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod hist;
pub mod metrics;
pub mod progress;
pub mod slowlog;
pub mod trace;

pub use hist::Histogram;
pub use metrics::{
    MetricsRegistry, SessionCounters, SessionRegistry, SessionSnapshot, SolverAgg, StatementStats,
};
pub use progress::ProgressEvent;
pub use slowlog::{slow_query_line, SlowQuery};
pub use trace::{timed, QueryTrace, SolverStats, Span, Stage, Trace};
