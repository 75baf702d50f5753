//! The six workloads. Each module's header says what the workload runs
//! and which layer it was chosen to stress.

pub mod serve_mix;
pub mod sql_mix;
pub mod uc1;
pub mod uc2;

use crate::harness::{Built, RunOptions};

/// Name and the one-sentence reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 6] = [
    ("uc1_regress", "UC1 P1+P2: an L1-regression LP (123 vars, 240 rows) per op, about 90 % in lp::simplex: the LP kernel's workload"),
    ("uc1_fit", "UC1 P3: simulated annealing over SQL-evaluated fitness (a recursive CTE over 336 rows per evaluation), zero LP"),
    ("uc1_plan", "UC1 P4 at the paper's 288-step horizon: the only workload where model building (instantiate, check, compile) dominates"),
    ("uc2_knapsack", "UC2 P4: six 60-item knapsack SOLVESELECTs per op; branch-and-bound that cold-starts the simplex at every node"),
    ("sql_mix", "no solver: rounds of 2 writes and 8 reads (point, aggregate, join+group, rollup) on 40000 order rows; parser, plan cache, columnar path"),
    ("serve_mix", "solvedbd with 2 workers, 2 closed-loop clients: reads, WAL-logged inserts, small solves and reconnects through server, wire and storage"),
];

pub fn build(opts: &RunOptions) -> Result<Built, String> {
    match opts.workload.as_str() {
        "uc1_regress" => uc1::build(uc1::Phase::Regress, opts),
        "uc1_fit" => uc1::build(uc1::Phase::Fit, opts),
        "uc1_plan" => uc1::build(uc1::Phase::Plan, opts),
        "uc2_knapsack" => uc2::build(opts),
        "sql_mix" => sql_mix::build(opts),
        "serve_mix" => serve_mix::build(opts),
        other => Err(format!("unknown workload '{other}'")),
    }
}
