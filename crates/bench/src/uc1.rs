//! SolveDB+ implementations of UC1 (paper §5.3): the three
//! configurations S-3SS, S-shared and S-solvers, executed from the
//! checked-in SQL scripts (the same files the eLOC figures measure).

use baselines::PhaseTimes;
use obs::timed;
use solvedbplus_core::Session;
use sqlengine::error::Result;

pub const S_3SS_P1: &str = include_str!("../scripts/uc1/s_3ss_p1.sql");
pub const S_3SS_P2: &str = include_str!("../scripts/uc1/s_3ss_p2.sql");
pub const S_3SS_P3: &str = include_str!("../scripts/uc1/s_3ss_p3.sql");
pub const S_3SS_P4: &str = include_str!("../scripts/uc1/s_3ss_p4.sql");
pub const S_SHARED_MODEL: &str = include_str!("../scripts/uc1/s_shared_model.sql");
pub const S_SHARED_P3: &str = include_str!("../scripts/uc1/s_shared_p3.sql");
pub const S_SHARED_P4: &str = include_str!("../scripts/uc1/s_shared_p4.sql");
pub const S_SOLVERS: &str = include_str!("../scripts/uc1/s_solvers.sql");
pub const MATLAB_NATIVE_M: &str = include_str!("../scripts/uc1/matlab_native.m");
pub const MATLAB_YALMIP_M: &str = include_str!("../scripts/uc1/matlab_yalmip.m");
pub const MADLIB_PYTHON_PY: &str = include_str!("../scripts/uc1/madlib_python.py");

/// Run a script with an optional cap on P3 annealing iterations (the
/// scripts bake in 400; benches can scale it down).
fn run(s: &mut Session, script: &str, p3_iterations: Option<usize>) -> Result<()> {
    let sql = match p3_iterations {
        Some(n) => script.replace("iterations := 400", &format!("iterations := {n}")),
        None => script.to_string(),
    };
    s.execute_script(&sql)?;
    Ok(())
}

/// S-3SS: three independent SOLVESELECTs linked by temp tables.
pub fn run_s3ss(s: &mut Session, p3_iterations: Option<usize>) -> Result<PhaseTimes> {
    let (r, p1) = timed(|| run(s, S_3SS_P1, None));
    r?;
    let (r, p2) = timed(|| run(s, S_3SS_P2, None));
    r?;
    let (r, p3) = timed(|| run(s, S_3SS_P3, p3_iterations));
    r?;
    let (r, p4) = timed(|| run(s, S_3SS_P4, None));
    r?;
    Ok(PhaseTimes { p1, p2, p3, p4 })
}

/// Simplex pivots of P2's regression LP over the session's `hist`: the
/// script's `SOLVESELECT` run again on its own (a solve inside `CREATE
/// TABLE … AS` reports no telemetry), outside any phase time. The crash
/// is deterministic, so this is the count the phase paid.
pub fn p2_pivots(s: &mut Session) -> Result<u64> {
    let stmts = sqlengine::parser::parse_statements(S_3SS_P2)?;
    let solve = stmts.iter().flat_map(sqlengine::script::rwset::solves).next();
    let solve = solve.ok_or_else(|| sqlengine::error::Error::eval("P2 has no SOLVESELECT"))?;
    let r = s.execute_statement(&sqlengine::ast::Statement::Solve(solve.clone()))?;
    Ok(r.trace.iter().flat_map(|t| &t.solvers).map(|st| st.iterations).sum())
}

/// S-shared: same pipeline, but P3/P4 reuse the stored LTI model.
/// Model installation counts into P3 (the paper splits the shared model
/// evenly between its users; attributing it to P3 keeps the comparison
/// conservative).
pub fn run_sshared(s: &mut Session, p3_iterations: Option<usize>) -> Result<PhaseTimes> {
    let (r, p1) = timed(|| run(s, S_3SS_P1, None));
    r?;
    let (r, p2) = timed(|| run(s, S_3SS_P2, None));
    r?;
    let (r, p3) = timed(|| {
        run(s, S_SHARED_MODEL, None)?;
        run(s, S_SHARED_P3, p3_iterations)
    });
    r?;
    let (r, p4) = timed(|| run(s, S_SHARED_P4, None));
    r?;
    Ok(PhaseTimes { p1, p2, p3, p4 })
}

/// S-solvers: one SOLVESELECT invoking the composite scheduler.
/// The composite does P2-P4 internally; its time is reported as P4 = 0
/// split: everything lands in one number, so we time the single call and
/// report it under p2..p4 proportionally measured inside? The paper
/// reports the whole composite call as "optimization"; we report the
/// single statement's time as p4 and the (trivial) setup as p1.
pub fn run_ssolvers(s: &mut Session, fit_iterations: usize) -> Result<PhaseTimes> {
    let sql = S_SOLVERS
        .replace("price := 0.12)", &format!("price := 0.12, fit_iterations := {fit_iterations})"));
    let (r, total) = timed(|| s.execute_script(&sql));
    r?;
    Ok(PhaseTimes {
        p1: std::time::Duration::ZERO,
        p2: std::time::Duration::ZERO,
        p3: std::time::Duration::ZERO,
        p4: total,
    })
}

/// Validate a produced plan: all horizon loads within limits.
pub fn validate_plan(s: &mut Session) -> Result<()> {
    let t = s.query("SELECT hload, intemp FROM plan")?;
    for row in &t.rows {
        if let Ok(h) = row[0].as_f64() {
            assert!((0.0..=17_000.0 + 1e-6).contains(&h), "load {h} out of range");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::uc1_session;

    #[test]
    fn s3ss_pipeline_runs_end_to_end() {
        let (mut s, _) = uc1_session(24 * 4, 12, 17);
        let times = run_s3ss(&mut s, Some(60)).unwrap();
        assert!(times.total().as_nanos() > 0);
        validate_plan(&mut s).unwrap();
        // Forecast exists for every horizon hour.
        assert_eq!(
            s.query_scalar("SELECT count(*) FROM pv_forecast").unwrap(),
            sqlengine::Value::Int(12)
        );
        // The comfort band held on all but the final state.
        let t = s.query("SELECT intemp FROM plan ORDER BY time").unwrap();
        for (i, row) in t.rows.iter().enumerate() {
            let x = row[0].as_f64().unwrap();
            let _ = i;
            assert!((20.0 - 1e-6..=25.0 + 1e-6).contains(&x), "intemp {x}");
        }
    }

    #[test]
    fn sshared_matches_s3ss_solution() {
        let (mut a, _) = uc1_session(24 * 4, 12, 17);
        run_s3ss(&mut a, Some(60)).unwrap();
        let plan_a = a.query("SELECT hload FROM plan ORDER BY time").unwrap();

        let (mut b, _) = uc1_session(24 * 4, 12, 17);
        run_sshared(&mut b, Some(60)).unwrap();
        let plan_b = b.query("SELECT hload FROM plan ORDER BY time").unwrap();

        assert_eq!(plan_a.num_rows(), plan_b.num_rows());
        // Same P3 seed and data → identical fitted params → identical LP.
        for (ra, rb) in plan_a.rows.iter().zip(&plan_b.rows) {
            let (x, y) = (ra[0].as_f64().unwrap(), rb[0].as_f64().unwrap());
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn ssolvers_produces_complete_plan() {
        let (mut s, _) = uc1_session(24 * 4, 12, 17);
        run_ssolvers(&mut s, 200).unwrap();
        let t = s.query("SELECT count(*) FROM plan").unwrap();
        assert_eq!(t.scalar().unwrap(), sqlengine::Value::Int(24 * 4 + 12));
    }
}
