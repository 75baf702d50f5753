//! Every feature script under scripts/features is executable and the
//! variants produce consistent solutions.

use bench::figures::{
    P2_CDTE, P2_NOCDTE, P2_WRAPPED, P3_CDTE, P3_NOCDTE, P3_SHARED, P4_CDTE, P4_NOCDTE, P4_SHARED,
};
use solvedbplus_core::Session;
use sqlengine::Table;

/// Prepare a session with all tables the feature scripts need.
fn prepared() -> Session {
    bench::setup::feature_session().expect("feature session")
}

fn floats(t: &Table, col: &str) -> Vec<f64> {
    t.column_values(col).unwrap().iter().map(|v| v.as_f64().unwrap()).collect()
}

#[test]
fn p2_variants_agree_on_coefficients() {
    let mut s = prepared();
    let nocdte = s.execute_script(P2_NOCDTE).unwrap().into_table().unwrap();
    let cdte = s.execute_script(P2_CDTE).unwrap().into_table().unwrap();
    // The no-CDTE output is the combined relation; compare its parameter
    // row against the CDTE output.
    let b1_cdte = cdte.value_by_name(0, "b1").unwrap().as_f64().unwrap();
    let b1_nocdte = nocdte
        .rows
        .iter()
        .find(|r| r[0].as_i64() == Ok(0))
        .map(|r| r[2].as_f64().unwrap())
        .expect("parameter row");
    assert!((b1_cdte - b1_nocdte).abs() < 1e-4, "b1: {b1_cdte} vs {b1_nocdte}");
    // The wrapped solver runs too and fills the series.
    let wrapped = s.execute_script(P2_WRAPPED).unwrap().into_table().unwrap();
    assert!(wrapped.column_values("y").unwrap().iter().all(|v| !v.is_null()));
}

#[test]
fn p3_variants_fit_the_generator() {
    let mut s = prepared();
    for (name, script) in [("nocdte", P3_NOCDTE), ("cdte", P3_CDTE), ("shared", P3_SHARED)] {
        let sql = script.replace("iterations := 400", "iterations := 60");
        let t = s.execute_script(&sql).unwrap().into_table().unwrap();
        let a1 = t.value_by_name(0, "a1").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&a1), "{name}: a1 = {a1}");
    }
}

#[test]
fn p4_variants_agree() {
    let mut s = prepared();
    let nocdte = s.execute_script(P4_NOCDTE).unwrap().into_table().unwrap();
    let cdte = s.execute_script(P4_CDTE).unwrap().into_table().unwrap();
    let shared = s.execute_script(P4_SHARED).unwrap().into_table().unwrap();
    let a = floats(&nocdte, "hload");
    let b = floats(&cdte, "hload");
    let c = floats(&shared, "hload");
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    for i in 0..a.len() {
        assert!((a[i] - b[i]).abs() < 1e-3, "step {i}: nocdte {} vs cdte {}", a[i], b[i]);
        assert!((b[i] - c[i]).abs() < 1e-3, "step {i}: cdte {} vs shared {}", b[i], c[i]);
    }
    // Comfort band holds everywhere.
    for x in floats(&cdte, "intemp") {
        assert!((20.0 - 1e-6..=25.0 + 1e-6).contains(&x), "intemp {x}");
    }
    assert_eq!(lp::simplex::not_converged_total(), 0, "a feature script's LP did not converge");
}
