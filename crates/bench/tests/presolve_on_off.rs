//! Presolve — interval propagation, reduction, nonzero cancellation —
//! changes how a model reaches the kernel, never its answer: every P4
//! script of the sweep (the three-step script, the shared-model one and
//! the three feature variants; all but `p4_nocdte` state the dynamics as
//! a recursive CDTE, whose rows the cancellation rewrites) yields the
//! same plan with presolve on and with `presolve := off`.

use bench::figures::presolve_off;
use bench::sweep::for_each_script;
use solvedbplus_core::Session;
use sqlengine::Table;

/// The plan a P4 script leaves: its own result relation when the
/// script ends in a bare `SOLVESELECT`, the `plan` table it creates
/// otherwise.
fn plan_of(s: &mut Session, name: &str, sql: &str) -> Table {
    match s.execute_script(sql).unwrap_or_else(|e| panic!("{name}: {e}")).into_table() {
        Ok(t) => t,
        Err(_) => s.query("SELECT * FROM plan ORDER BY time").expect(name),
    }
}

#[test]
fn p4_plans_are_the_same_with_presolve_on_and_off() {
    let mut compared = Vec::new();
    let mut cancelled = 0;
    for_each_script(&mut |_, _| {}, &mut |s: &mut Session, name, sql| {
        if !name.contains("p4") {
            s.execute_script(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
            return;
        }
        let off_sql = presolve_off(sql);
        assert_ne!(off_sql, sql, "{name}: no solverlp.cbc() clause to switch presolve off in");
        let off = plan_of(s, name, &off_sql);
        let on = plan_of(s, name, sql);
        assert_eq!(on.num_rows(), off.num_rows(), "{name}: plan length");
        for col in ["hload", "intemp"] {
            let floats = |t: &Table| -> Vec<f64> {
                t.column_values(col).expect(col).iter().map(|v| v.as_f64().expect(col)).collect()
            };
            for (i, (x, y)) in floats(&on).into_iter().zip(floats(&off)).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
                    "{name}: {col}[{i}] is {x} with presolve on, {y} with presolve off"
                );
            }
        }
        let solve = &sql[sql.find("SOLVESELECT").expect(name)..];
        let report = s.query(&format!("EXPLAIN PRESOLVE {}", solve.trim().trim_end_matches(';')));
        let report = report.expect(name).column_values("plan").expect("plan column");
        cancelled +=
            report.iter().filter(|l| l.to_string().starts_with("nonzeros cancelled")).count();
        compared.push(name.to_string());
    })
    .expect("sweep sessions");
    assert_eq!(
        compared,
        [
            "uc1/s_3ss_p4.sql",
            "uc1/s_shared_p4.sql",
            "features/p4_nocdte.sql",
            "features/p4_cdte.sql",
            "features/p4_shared.sql"
        ]
    );
    // Every variant but the one that states the recurrence row by row.
    assert_eq!(cancelled, 4);
    assert_eq!(lp::simplex::not_converged_total(), 0, "a P4 solve did not converge");
}
