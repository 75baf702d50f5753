//! # solvedbplus-core — the SolveDB+ layer
//!
//! Implements the paper's contributions on top of the `sqlengine`
//! substrate: the solver framework and registry (§4.1), symbolic
//! compilation of rules into one [`CompiledModel`] that the analyzers
//! and the solvers read, shared problem models with
//! instantiation (`<<`, Algorithm 1) and inlining (`INLINE`,
//! Algorithm 2), `MODELEVAL`, the CDTE machinery incl. the `c_mask`
//! rewrite (§4.3), and the in-DBMS Predictive Framework (§3).
//!
//! Entry point: [`Session`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every hash table hashes with `sqlengine::hash::FastState` (clippy.toml).
#![deny(clippy::disallowed_types)]

pub mod check;
pub mod compile;
pub mod explain;
pub mod handler;
pub mod model;
pub mod obs_tables;
pub mod problem;
pub mod rewrite;
pub mod session;
pub mod solver;
pub mod solvers;
pub mod symbolic;

pub use check::check_stmt;
pub use compile::{compile_model, prepare, CompiledModel};
pub use model::ModelValue;
pub use obs_tables::ObsTables;
pub use problem::{build_problem, ProblemInstance};
pub use session::{Session, SharedSolvers};
pub use solver::{SolveContext, Solver, SolverRegistry};
