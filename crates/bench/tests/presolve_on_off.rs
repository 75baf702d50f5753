//! Presolve — interval propagation and reduction, the substitution of
//! free columns among it — changes how a model reaches the kernel, never
//! its answer: every P4 script of the sweep (the three-step script, the
//! shared-model one and the three feature variants; all but `p4_nocdte`
//! state the dynamics as a recursive CDTE, which compiles to one
//! auxiliary column per step) yields the same plan with presolve on and
//! with `presolve := off`, and reaches the kernel as a staircase either
//! way.

use bench::figures::{kernel_rows, presolve_off};
use bench::sweep::for_each_script;
use solvedbplus_core::{prepare, Session};
use sqlengine::ast::Statement;
use sqlengine::{Ctes, Table};

/// For a solve statement: the terms of its compiled model — the rows'
/// atoms and the auxiliary columns' definitions — per row of its input
/// relation (one per step of the dynamics).
fn terms_per_step(s: &Session, solve: &str) -> f64 {
    let Statement::Solve(stmt) = sqlengine::parser::parse_statement(solve).unwrap() else {
        panic!("not a solve statement: {solve}");
    };
    let model = prepare(s.db(), &Ctes::new(), &stmt, None).unwrap();
    let rows = model.atoms.iter().map(|a| &a.diff).filter(|d| d.terms.len() > 1);
    let terms: usize = rows.chain(model.aux.iter().map(|a| &a.def)).map(|e| e.terms.len()).sum();
    terms as f64 / model.prob.relations[0].table().unwrap().num_rows() as f64
}

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
        // A step of the dynamics is at most four terms of the model —
        // `intemp_k = x_k` and `x_k = a1·x_{k−1} + b2·hload_{k−1} + c`
        // for a CDTE — and at most three nonzeros of a kernel row.
        let solve = &sql[sql.find("SOLVESELECT").expect(name)..];
        let solve = solve.trim().trim_end_matches(';');
        let terms = terms_per_step(s, solve);
        assert!(terms <= 4.0, "{name}: {terms} terms per step");
        for rows in kernel_rows(s, solve) {
            assert!(rows.iter().all(|&n| n <= 3), "{name}: kernel rows of {rows:?} nonzeros");
        }
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
    assert_eq!(lp::simplex::not_converged_total(), 0, "a P4 solve did not converge");
}
