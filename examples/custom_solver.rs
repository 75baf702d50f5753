//! Installing a user-defined solver (the paper's RC3 extensibility):
//! a greedy interval scheduler exposed as `USING greedy_scheduler()`.
//! A solver reads the statement's prepared model on its context:
//! `ctx.model.prob` is the problem instance (the decision relations as
//! instantiated, the parameters), `ctx.model` its rules compiled once.
//!
//! Run with: `cargo run --example custom_solver`

use solvedbplus::{Session, SolveContext, Solver, Table, Value};
use std::sync::Arc;

/// Picks a maximum set of non-overlapping intervals (classic greedy by
/// earliest finish time) and marks them in the `pick` decision column.
struct GreedyScheduler;

impl Solver for GreedyScheduler {
    fn name(&self) -> &str {
        "greedy_scheduler"
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> sqlengine::Result<Table> {
        let rel = &ctx.model.prob.relations[0];
        let t = rel.table()?;
        let start = t.schema.index_of("start_at").expect("start_at column");
        let finish = t.schema.index_of("finish_at").expect("finish_at column");
        let pick = t.schema.index_of("pick").expect("pick column");
        let mut order: Vec<usize> = (0..t.num_rows()).collect();
        order.sort_by(|&a, &b| t.rows[a][finish].cmp_total(&t.rows[b][finish]));
        let mut out = Table::clone(t);
        let mut cursor = f64::NEG_INFINITY;
        for r in order {
            let s = t.rows[r][start].as_f64().unwrap_or(0.0);
            let f = t.rows[r][finish].as_f64().unwrap_or(0.0);
            let take = s >= cursor;
            if take {
                cursor = f;
            }
            out.rows[r][pick] = Value::Int(take as i64);
        }
        out.schema.columns[pick].ty = sqlengine::DataType::Int;
        Ok(out)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut s = Session::new();
    s.install_solver(Arc::new(GreedyScheduler));

    s.execute("CREATE TABLE meetings (title text, start_at float8, finish_at float8, pick int)")?;
    for (title, a, b) in [
        ("standup", 9.0, 9.5),
        ("design review", 9.25, 11.0),
        ("1:1", 10.0, 10.5),
        ("lunch", 12.0, 13.0),
        ("retro", 10.25, 12.25),
        ("planning", 13.0, 14.0),
    ] {
        s.execute(&format!("INSERT INTO meetings VALUES ('{title}', {a}, {b}, NULL)"))?;
    }

    let schedule =
        s.query("SOLVESELECT m(pick) AS (SELECT * FROM meetings) USING greedy_scheduler()")?;
    println!("Schedule (pick = attend):\n{schedule}");
    let attended = s.query_scalar(
        "SELECT count(*) FROM (SOLVESELECT m(pick) AS (SELECT * FROM meetings) \
         USING greedy_scheduler()) x WHERE pick = 1",
    )?;
    println!("Meetings attended: {attended}");
    Ok(())
}
