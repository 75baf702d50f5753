//! Built-in solvers: LP/MIP, black-box global optimization, and the
//! predictive framework.

mod lp_solver;
mod predict;
mod swarmops;

pub use lp_solver::LpSolver;
pub use predict::{
    prepare, search_arima_order, ArimaSolver, LrSolver, OrderSearch, PredictiveAdvisor,
};
pub use swarmops::SwarmOps;
