//! The corpus of the static-analysis sweep, shared by the `analyze`
//! binary and the golden model-report test: which scripts are visited,
//! and on which prepared sessions. The solves inside a statement are the
//! engine's own answer (`sqlengine::script::rwset::solves`).

use crate::setup::{feature_session, uc1_session, uc2_session};
use crate::{figures, uc1, uc2};
use solvedbplus_core::Session;

/// Walk the sweep's corpus: the checked-in benchmark scripts and the
/// models of the runnable examples, each group on a session prepared
/// the way the benchmarks prepare it. `prepare` sees every fresh
/// session (with a tag naming its group) before `visit` is handed the
/// group's scripts in order as `(session, script name, SQL)`; the
/// visitor executes the script, so later scripts of a group see the
/// tables earlier ones create. Errors only when a session cannot be
/// set up.
pub fn for_each_script(
    prepare: &mut dyn FnMut(&mut Session, &str),
    visit: &mut dyn FnMut(&mut Session, &str, &str),
) -> Result<(), String> {
    // Annealing iteration counts are scaled down exactly like the quick
    // benches scale them — the analyzers don't depend on fit quality.
    let quick = |sql: &str| sql.replace("iterations := 400", "iterations := 40");

    // UC1: the full pipeline, phase by phase, then the shared-model and
    // composite-solver variants on top of the same session.
    let (mut s, _) = uc1_session(96, 12, 33);
    prepare(&mut s, "uc1");
    for (name, sql) in [
        ("uc1/s_3ss_p1.sql", uc1::S_3SS_P1),
        ("uc1/s_3ss_p2.sql", uc1::S_3SS_P2),
        ("uc1/s_3ss_p3.sql", uc1::S_3SS_P3),
        ("uc1/s_3ss_p4.sql", uc1::S_3SS_P4),
        ("uc1/s_shared_model.sql", uc1::S_SHARED_MODEL),
        ("uc1/s_shared_p3.sql", uc1::S_SHARED_P3),
        ("uc1/s_shared_p4.sql", uc1::S_SHARED_P4),
        ("uc1/s_indbms_p2.sql", include_str!("../scripts/uc1/s_indbms_p2.sql")),
    ] {
        visit(&mut s, name, &quick(sql));
    }
    let solvers = uc1::S_SOLVERS.replace("price := 0.12)", "price := 0.12, fit_iterations := 40)");
    visit(&mut s, "uc1/s_solvers.sql", &solvers);

    // Feature scripts, on the session the feature benches use.
    let mut s = feature_session().map_err(|e| format!("feature session setup failed: {e}"))?;
    prepare(&mut s, "features");
    for (name, sql) in [
        ("features/p2_nocdte.sql", figures::P2_NOCDTE),
        ("features/p2_cdte.sql", figures::P2_CDTE),
        ("features/p2_wrapped.sql", figures::P2_WRAPPED),
        ("features/p3_nocdte.sql", figures::P3_NOCDTE),
        ("features/p3_cdte.sql", figures::P3_CDTE),
        ("features/p3_shared.sql", figures::P3_SHARED),
        ("features/p4_nocdte.sql", figures::P4_NOCDTE),
        ("features/p4_cdte.sql", figures::P4_CDTE),
        ("features/p4_shared.sql", figures::P4_SHARED),
    ] {
        visit(&mut s, name, &quick(sql));
    }

    // UC2: the script runs per item in the harness; one item id stands
    // in for the $ITEM placeholder here.
    let (mut s, items) = uc2_session(4, 24, 7);
    prepare(&mut s, "uc2");
    let uc2_sql = uc2::UC2_SQL.replace("$ITEM", &items[0].item_id.to_string());
    visit(&mut s, "uc2/solvedb.sql", &uc2_sql);

    // The models of the runnable examples (examples/*.rs embed their
    // SQL in Rust, so the statements are mirrored here; the sudoku
    // one-hot MIP is the most constraint-heavy model in the repo).
    let mut s = Session::new();
    prepare(&mut s, "quickstart");
    visit(
        &mut s,
        "examples/quickstart.rs",
        "CREATE TABLE products (name text, profit float8, hours float8, qty float8);
         INSERT INTO products VALUES ('a', 25, 2, NULL), ('b', 40, 4, NULL);
         SOLVESELECT p(qty) AS (SELECT * FROM products)
         MAXIMIZE (SELECT sum(profit * qty) FROM p)
         SUBJECTTO (SELECT sum(hours * qty) <= 120 FROM p),
                   (SELECT 0 <= qty <= 40 FROM p)
         USING solverlp();
         CREATE TABLE cargo (item text, value float8, weight float8, take int);
         INSERT INTO cargo VALUES
           ('laptop', 60, 10, NULL), ('camera', 100, 20, NULL),
           ('drone', 120, 30, NULL), ('books', 40, 25, NULL);
         SOLVESELECT c(take) AS (SELECT * FROM cargo)
         MAXIMIZE (SELECT sum(value * take) FROM c)
         SUBJECTTO (SELECT sum(weight * take) <= 50 FROM c),
                   (SELECT 0 <= take <= 1 FROM c)
         USING solverlp.cbc()",
    );

    let mut s = Session::new();
    prepare(&mut s, "sudoku");
    let mut sudoku_setup =
        String::from("CREATE TABLE cells (r int, c int, v int, box int, pick int);");
    for r in 1..=4 {
        for c in 1..=4 {
            let b = ((r - 1) / 2) * 2 + (c - 1) / 2 + 1;
            for v in 1..=4 {
                sudoku_setup.push_str(&format!("INSERT INTO cells VALUES ({r},{c},{v},{b},NULL);"));
            }
        }
    }
    sudoku_setup.push_str(
        "CREATE TABLE clues (r int, c int, v int);
         INSERT INTO clues VALUES (1,1,1), (1,2,2), (2,1,3), (2,3,1), (3,2,1), (4,4,1);
         SOLVESELECT g(pick) AS (SELECT * FROM cells)
         MAXIMIZE (SELECT sum(pick) FROM g)
         SUBJECTTO
           (SELECT sum(pick) = 1 FROM g GROUP BY r, c),
           (SELECT sum(pick) = 1 FROM g GROUP BY r, v),
           (SELECT sum(pick) = 1 FROM g GROUP BY c, v),
           (SELECT sum(pick) = 1 FROM g GROUP BY box, v),
           (SELECT pick = 1 FROM g JOIN clues ON g.r = clues.r
              AND g.c = clues.c AND g.v = clues.v),
           (SELECT 0 <= pick <= 1 FROM g)
         USING solverlp.cbc()",
    );
    visit(&mut s, "examples/sudoku.rs", &sudoku_setup);

    // Crew rostering: the set-partitioning model (every coverage row is
    // a `sum(pick) = 1` over binaries), so this is the script on which
    // the matrix-classification diagnostics (SD020+) fire in the sweep.
    let mut s = Session::new();
    prepare(&mut s, "crew");
    let crew = format!("{};\n{}", crate::CREW_SETUP, crate::CREW_SOLVE);
    visit(&mut s, "examples/crew_rostering.rs", &crew);
    Ok(())
}
