//! Property-based checks of the SolveDB+ layer: symbolic evaluation
//! agrees with numeric evaluation, model instantiation is lawful, and
//! the CDTE rewrite preserves solutions.

use proptest::prelude::*;
use solvedbplus_core::model::ModelValue;
use solvedbplus_core::symbolic::{as_linexpr, sym_value, LinExpr};
use solvedbplus_core::Session;
use sqlengine::types::{BinOp, Value};

// ---------------------------------------------------------------------------
// Symbolic algebra vs numeric oracle
// ---------------------------------------------------------------------------

/// A random linear computation applied both numerically and symbolically.
#[derive(Debug, Clone)]
enum LinOp {
    AddVar(u32),
    AddConst(f64),
    Scale(f64),
    SubVar(u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<LinOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..4).prop_map(LinOp::AddVar),
            (-50i32..50).prop_map(|c| LinOp::AddConst(c as f64)),
            (-3i32..4).prop_map(|k| LinOp::Scale(k as f64)),
            (0u32..4).prop_map(LinOp::SubVar),
        ],
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Building an expression symbolically and evaluating under an
    /// assignment equals running the same computation numerically.
    #[test]
    fn symbolic_matches_numeric(ops in arb_ops(), assign in prop::collection::vec(-10i32..10, 4)) {
        let a = |v: u32| assign[v as usize] as f64;
        // Numeric.
        let mut num = 0.0f64;
        for op in &ops {
            match op {
                LinOp::AddVar(v) => num += a(*v),
                LinOp::AddConst(c) => num += c,
                LinOp::Scale(k) => num *= k,
                LinOp::SubVar(v) => num -= a(*v),
            }
        }
        // Symbolic through the Value operator hooks.
        let mut sym = Value::Float(0.0);
        for op in &ops {
            sym = match op {
                LinOp::AddVar(v) =>
                    Value::binop(BinOp::Add, &sym, &sym_value(LinExpr::var(*v))).unwrap(),
                LinOp::AddConst(c) =>
                    Value::binop(BinOp::Add, &sym, &Value::Float(*c)).unwrap(),
                LinOp::Scale(k) =>
                    Value::binop(BinOp::Mul, &sym, &Value::Float(*k)).unwrap(),
                LinOp::SubVar(v) =>
                    Value::binop(BinOp::Sub, &sym, &sym_value(LinExpr::var(*v))).unwrap(),
            };
        }
        let lin = as_linexpr(&sym).unwrap();
        let got = lin.eval(&|v| a(v));
        prop_assert!((got - num).abs() < 1e-6, "sym {} vs num {}", got, num);
    }

    /// LinExpr add/sub/scale satisfy basic vector-space laws.
    #[test]
    fn linexpr_laws(c1 in -10i32..10, c2 in -10i32..10, k in -5i32..5) {
        let a = LinExpr { constant: c1 as f64, terms: vec![(0, 1.0), (2, -2.0)] };
        let b = LinExpr { constant: c2 as f64, terms: vec![(1, 3.0), (2, 1.0)] };
        // Commutativity of add.
        prop_assert_eq!(a.add(&b), b.add(&a));
        // a - a = 0.
        let zero = a.sub(&a);
        prop_assert!(zero.is_constant() && zero.constant == 0.0);
        // Distributivity of scale over add.
        let lhs = a.add(&b).scale(k as f64);
        let rhs = a.scale(k as f64).add(&b.scale(k as f64));
        for v in 0..4u32 {
            let x = |i: u32| (i as f64) + 0.5;
            prop_assert!((lhs.eval(&x) - rhs.eval(&x)).abs() < 1e-9);
            let _ = v;
        }
    }

    /// Instantiation: `m << m` is idempotent on relation aliases, and
    /// instantiating with an unrelated model only appends.
    #[test]
    fn instantiation_laws(k in 0.0f64..10.0) {
        let m = ModelValue::parse(
            "SOLVEMODEL pars AS (SELECT 1.0 AS a) WITH data AS (SELECT 2.0 AS b)",
        ).unwrap();
        let self_inst = m.instantiate(&m);
        prop_assert_eq!(self_inst.aliases(), m.aliases());

        let delta = ModelValue::parse(
            &format!("SOLVEMODEL extra AS (SELECT {k} AS z)"),
        ).unwrap();
        let appended = m.instantiate(&delta);
        prop_assert_eq!(appended.aliases().len(), m.aliases().len() + 1);
        // The original members are untouched.
        prop_assert_eq!(appended.stmt.input.query.clone(), m.stmt.input.query.clone());
    }

    /// The LP solved through SQL equals the closed form for the
    /// one-dimensional bounded problem min c·x, lo ≤ x ≤ hi.
    #[test]
    fn one_dim_lp_closed_form(c in -5i32..5, lo in -10i32..0, span in 1i32..20) {
        prop_assume!(c != 0);
        let hi = lo + span;
        let mut s = Session::new();
        s.execute_script("CREATE TABLE v (x float8); INSERT INTO v VALUES (NULL)").unwrap();
        let t = s.query(&format!(
            "SOLVESELECT q(x) AS (SELECT * FROM v) \
             MINIMIZE (SELECT {c} * x FROM q) \
             SUBJECTTO (SELECT {lo} <= x <= {hi} FROM q) USING solverlp()"
        )).unwrap();
        let got = t.value(0, 0).as_f64().unwrap();
        let expect = if c > 0 { lo as f64 } else { hi as f64 };
        prop_assert!((got - expect).abs() < 1e-6, "got {} expect {}", got, expect);
    }
}

/// The CDTE rewrite produces the same optimum as the native path over
/// randomized L1-regression instances.
#[test]
fn cdte_rewrite_equivalence_randomized() {
    use solvedbplus_core::rewrite::solve_via_rewrite;
    use sqlengine::ast::Statement;

    for seed in 0..8u64 {
        let slope = 1.0 + seed as f64 * 0.5;
        let mut s = Session::new();
        s.execute_script(
            "CREATE TABLE pars (a float8); INSERT INTO pars VALUES (NULL);
             CREATE TABLE obs (x float8, y float8);",
        )
        .unwrap();
        for i in 1..=6 {
            let x = i as f64;
            let y = slope * x + if i % 2 == 0 { 0.1 } else { -0.1 };
            s.execute(&format!("INSERT INTO obs VALUES ({x}, {y})")).unwrap();
        }
        let sql = "SOLVESELECT p(a) AS (SELECT * FROM pars) \
             WITH e(err) AS (SELECT x, y, NULL::float8 AS err FROM obs) \
             MINIMIZE (SELECT sum(err) FROM e) \
             SUBJECTTO (SELECT -1*err <= a * x - y <= err FROM e, p) \
             USING solverlp()";
        let native = s.query(sql).unwrap();
        let stmt = match sqlengine::parser::parse_statement(sql).unwrap() {
            Statement::Solve(sv) => sv,
            _ => unreachable!(),
        };
        let rewritten = solve_via_rewrite(s.db(), &sqlengine::Ctes::new(), &stmt).unwrap();
        let a1 = native.value_by_name(0, "a").unwrap().as_f64().unwrap();
        let a2 = rewritten.value_by_name(0, "a").unwrap().as_f64().unwrap();
        assert!((a1 - a2).abs() < 1e-6, "seed {seed}: {a1} vs {a2}");
        assert!((a1 - slope).abs() < 0.2, "seed {seed}: slope {a1} vs {slope}");
    }
}

// ---------------------------------------------------------------------------
// One binding: relations no assignment reaches are not re-run
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D) % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// `pars` with 1–3 rows: `a` (float) and `b` (int) hold the input's
/// initial values, NULL or not, `w` is data. `vw1`..`vw3` read the
/// statement's relations `r1`..`r3` (a view body resolves against the
/// statement's relations where it is read).
fn binding_database(rng: &mut Rng) -> sqlengine::Database {
    let rows: Vec<String> = (0..1 + rng.below(3))
        .map(|i| {
            let a = rng.pick(&["NULL", "1.5", "-2"]);
            let b = rng.pick(&["NULL", "3", "0"]);
            let w = rng.pick(&["2.5", "-1", "0", "4"]);
            format!("({i}, {a}, {b}, {w})")
        })
        .collect();
    let mut db = sqlengine::Database::new();
    sqlengine::execute_script(
        &mut db,
        &format!(
            "CREATE TABLE pars (id int, a float8, b int, w float8);
             INSERT INTO pars VALUES {};
             CREATE VIEW vw1 AS SELECT id, v FROM r1;
             CREATE VIEW vw2 AS SELECT id, v FROM r2;
             CREATE VIEW vw3 AS SELECT id, v FROM r3",
            rows.join(", ")
        ),
    )
    .unwrap();
    db
}

/// A random `SOLVESELECT` over 2–4 relations, each with columns `id` and
/// `v` (and a decision column `e` on some): the input `p`, with or
/// without decision cells, then `r1`.. drawn from fresh decision cells,
/// data, a linear read of an earlier relation (directly or through its
/// view), a non-linear one, one whose row count follows the decision
/// values, and decision cells over a read. An objective and one to three
/// rules over random relations.
fn binding_statement(rng: &mut Rng) -> String {
    let mut rels: Vec<(String, bool)> = Vec::new(); // (alias, has `e`)
    let input = match rng.below(3) {
        0 => "p(v) AS (SELECT id, a AS v, w FROM pars)",
        1 => "p(v) AS (SELECT id, b AS v, w FROM pars)",
        _ => "p AS (SELECT id, w AS v, w FROM pars)",
    };
    let boxed = !input.starts_with("p AS");
    rels.push(("p".into(), false));
    let mut ctes = Vec::new();
    for i in 1..2 + rng.below(3) as usize {
        let alias = format!("r{i}");
        let j = rng.below(i as u64) as usize;
        let (earlier, _) = &rels[j];
        let from = if j > 0 && rng.below(3) == 0 { format!("vw{j}") } else { earlier.clone() };
        let (head, body, e) = match rng.below(7) {
            0 => (format!("{alias}(v)"), "SELECT id, NULL::float8 AS v FROM pars".into(), false),
            1 => (alias.clone(), "SELECT id, w * 2.0 AS v FROM pars".into(), false),
            2 | 3 => (alias.clone(), format!("SELECT id, 2.0 * v + 1.0 AS v FROM {from}"), false),
            4 => (alias.clone(), format!("SELECT id, v * v AS v FROM {from}"), false),
            5 => (alias.clone(), format!("SELECT id, v FROM {from} WHERE v > 0"), false),
            _ => (
                format!("{alias}(e)"),
                format!("SELECT id, v, NULL::float8 AS e FROM {from}"),
                true,
            ),
        };
        ctes.push(format!("{head} AS ({body})"));
        rels.push((alias, e));
    }
    let (k, ke) = rels[rng.below(rels.len() as u64) as usize].clone();
    let sense = rng.pick(&["MINIMIZE", "MAXIMIZE"]);
    let objective =
        if ke { format!("SELECT sum(e) FROM {k}") } else { format!("SELECT sum(v) FROM {k}") };
    let mut rules = Vec::new();
    if boxed {
        rules.push("(SELECT -4 <= v <= 4 FROM p)".to_string());
    }
    for _ in 0..1 + rng.below(2) {
        let (k, ke) = rels[rng.below(rels.len() as u64) as usize].clone();
        rules.push(match rng.below(3) {
            0 if ke => format!("(SELECT -1 * e <= v - 1.0 <= e FROM {k})"),
            0 | 1 => format!("(SELECT v >= -10 FROM {k})"),
            _ => format!("(SELECT sum(v) <= 50 FROM {k})"),
        });
    }
    format!(
        "SOLVESELECT {input} WITH {} {sense} ({objective}) SUBJECTTO {} USING swarmops.pso()",
        ctes.join(", "),
        rules.join(", ")
    )
}

/// The reference binding: every relation after the input is re-run. Its
/// inputs are the earlier relations it reads, found by name, plus the
/// input relation — never re-run, so it never fails and lends no failure
/// kind, but it makes every binding re-run the relation.
fn rerun_every_relation(
    db: &sqlengine::Database,
    prob: &solvedbplus_core::ProblemInstance,
) -> solvedbplus_core::ProblemInstance {
    let mut every = prob.clone();
    for ri in 1..every.relations.len() {
        let reads = sqlengine::plan::relation_reads(db, &every.relations[ri].query);
        let mut inputs = vec![0];
        inputs.extend(
            (1..ri)
                .filter(|&j| every.relations[j].alias.as_ref().is_some_and(|a| reads.contains(a))),
        );
        every.relations[ri].inputs = inputs;
    }
    every
}

/// What a compiled model is, to compare: objective, rules (failure kinds
/// and error texts included), atoms and the rules read as bounds; then
/// the black-box fitness at `points`, bit for bit, or why the black-box
/// formulation failed.
fn bound_outcome(
    db: &sqlengine::Database,
    prob: solvedbplus_core::ProblemInstance,
    points: &[Vec<f64>],
) -> (String, Result<Vec<u64>, String>) {
    use solvedbplus_core::compile::compile_model;
    use solvedbplus_core::problem::build_blackbox;
    let ctes = sqlengine::Ctes::new();
    let m = compile_model(db, &ctes, prob);
    let atoms: Vec<_> = m.atoms.iter().map(|a| (&a.diff, a.rel, a.rule)).collect();
    let model = format!("{:?}\n{:?}\n{atoms:?}\n{}", m.objective, m.rules, m.bounds);
    let fitness = build_blackbox(db, &ctes, &m)
        .map(|bb| points.iter().map(|x| bb.fitness(db, x).to_bits()).collect())
        .map_err(|e| e.to_string());
    (model, fitness)
}

fn binding_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(binding_cases()))]

    /// `compile_model` and the black-box fitness read the same model
    /// whether a binding re-runs only the relations an assignment reaches
    /// or every relation after the input. The workspace run takes 64
    /// cases; `PROPTEST_CASES` sets how many where it is set (the
    /// vendored proptest does not read it; the `analyze` CI job runs
    /// 20 000).
    #[test]
    fn binding_reruns_only_what_an_assignment_reaches(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed | 1);
        let db = binding_database(&mut rng);
        let sql = binding_statement(&mut rng);
        let sqlengine::ast::Statement::Solve(stmt) = sqlengine::parser::parse_statement(&sql).unwrap() else {
            panic!("not a solve statement: {sql}");
        };
        let prob = solvedbplus_core::build_problem(&db, &sqlengine::Ctes::new(), &stmt).unwrap();
        let points: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..prob.num_vars()).map(|_| rng.below(81) as f64 / 10.0 - 4.0).collect())
            .collect();
        let every = rerun_every_relation(&db, &prob);
        prop_assert_eq!(bound_outcome(&db, prob, &points), bound_outcome(&db, every, &points), "{}", sql);
    }
}
