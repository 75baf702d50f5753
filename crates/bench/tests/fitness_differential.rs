//! Differential tests for the planned evaluation paths: for every
//! shipped black-box (`swarmops`) script the fitness of seeded candidates
//! is bit-identical whether the planner (recursive term planned once,
//! join builds reused, one-row steps on the row pipeline, plans served
//! from the plan cache) or the forced row interpreter evaluates it, and
//! the symbolic compilation of P4 — which runs the same recursive
//! simulation CDTE, over symbolic values — yields the identical linear
//! program on both paths. The planned path answers closed subqueries from
//! what their sites kept; the reference interpreter runs every one.

use bench::figures::{P3_CDTE, P3_NOCDTE, P3_SHARED, P4_CDTE, P4_NOCDTE, P4_SHARED};
use bench::uc1::{S_3SS_P3, S_3SS_P4, S_SHARED_P3, S_SHARED_P4};
use solvedbplus_core::problem::build_blackbox;
use solvedbplus_core::{prepare, Session};
use sqlengine::ast::{SolveStmt, Statement};
use sqlengine::{Ctes, Database};

/// The script's `SOLVESELECT`, without any `CREATE TABLE … AS` around it.
fn solve_stmt(script: &str) -> SolveStmt {
    let start = match script.find("\nSOLVESELECT") {
        Some(i) => i + 1,
        None => panic!("script has no SOLVESELECT"),
    };
    let end = script[start..].find(';').map_or(script.len(), |i| start + i);
    match sqlengine::parser::parse_statement(&script[start..end]).expect("parse") {
        Statement::Solve(s) => s,
        other => panic!("not a solve statement: {other:?}"),
    }
}

/// Run `f` on the session's database with the row interpreter forced,
/// restoring the setting.
fn forced_rows<T>(s: &mut Session, f: impl FnOnce(&Database) -> T) -> T {
    let was = s.db_mut().set_force_row_interpreter(true);
    let out = f(s.db());
    s.db_mut().set_force_row_interpreter(was);
    out
}

/// `count` candidates inside the box `[lower, upper]`, from a fixed LCG.
fn candidates(lower: &[f64], upper: &[f64], count: usize) -> Vec<Vec<f64>> {
    let mut state = 0x5DEECE66Du64;
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| lower.iter().zip(upper).map(|(l, u)| l + (u - l) * unit()).collect())
        .collect()
}

#[test]
fn blackbox_fitness_is_bit_identical_to_the_row_interpreter() {
    let mut s: Session = bench::setup::feature_session().expect("feature session");
    let ctes = Ctes::new();
    for (name, script) in [
        ("uc1/s_3ss_p3", S_3SS_P3),
        ("uc1/s_shared_p3", S_SHARED_P3),
        ("features/p3_cdte", P3_CDTE),
        ("features/p3_nocdte", P3_NOCDTE),
        ("features/p3_shared", P3_SHARED),
    ] {
        let stmt = solve_stmt(script);
        let model = prepare(s.db(), &ctes, &stmt, None).expect(name);
        let bb = build_blackbox(s.db(), &ctes, &model).expect(name);
        let xs = candidates(&bb.space.lower, &bb.space.upper, 24);
        let before = s.db().exec_counts();
        let planned: Vec<u64> = xs.iter().map(|x| bb.fitness(s.db(), x).to_bits()).collect();
        let work = s.db().exec_counts().since(&before);
        let rows: Vec<u64> =
            forced_rows(&mut s, |db| xs.iter().map(|x| bb.fitness(db, x).to_bits()).collect());
        // The reference interpreter kept no subquery result.
        assert_eq!(s.db().exec_counts().since(&before).subqueries_reused, work.subqueries_reused);
        assert_eq!(planned, rows, "{name}");
        assert!(planned.iter().all(|b| f64::from_bits(*b).is_finite()), "{name}");
        // The planned path really is the prepared one: the simulation
        // steps ran on kept builds — all but the one per candidate that
        // builds them on one row — and nothing was planned per candidate.
        assert!(work.recursive_steps > 0 && work.builds_reused > 0, "{name}: {work:?}");
        assert_eq!(work.row_steps, work.recursive_steps - xs.len() as u64, "{name}: {work:?}");
        assert_eq!(work.plans_built, 0, "{name}: {work:?}");
        // Every simulation anchors on closed subqueries. The planned path
        // answers them from what their sites kept — except in a shared
        // model, whose prologue (`data AS (SELECT * FROM m_data)`) binds
        // what they read anew in every evaluation.
        let kept = !name.contains("shared");
        assert_eq!(work.subqueries_reused, if kept { 3 * xs.len() as u64 } else { 0 }, "{name}");
    }
}

#[test]
fn p4_symbolic_compile_yields_the_identical_lp() {
    let mut s: Session = bench::setup::feature_session().expect("feature session");
    let ctes = Ctes::new();
    for (name, script) in [
        ("uc1/s_3ss_p4", S_3SS_P4),
        ("uc1/s_shared_p4", S_SHARED_P4),
        ("features/p4_cdte", P4_CDTE),
        ("features/p4_nocdte", P4_NOCDTE),
        ("features/p4_shared", P4_SHARED),
    ] {
        let stmt = solve_stmt(script);
        let lp_text = |db: &Database| {
            let model = prepare(db, &ctes, &stmt, None).expect(name);
            assert!(model.first_failure().is_none(), "{name}");
            let lowered = model.lowered();
            format!("{:?}", (&lowered.problem, &lowered.used, &lowered.atom_of_row))
        };
        let before = s.db().exec_counts();
        let planned = lp_text(s.db());
        // Symbolic values went through the row pipeline's evaluator
        // (`p4_nocdte` states its dynamics without a recursion).
        let work = s.db().exec_counts().since(&before);
        assert_eq!(work.row_steps > 0, work.recursive_steps > 0, "{name}: {work:?}");
        assert_eq!(work.recursive_steps > 0, name != "features/p4_nocdte", "{name}");
        assert_eq!(planned, forced_rows(&mut s, lp_text), "{name}");
        assert!(planned.contains("constraints"), "{name}");
    }
}
