//! A SUBJECTTO rule of the box shape (`SELECT 0 <= x <= 1 FROM d` over a
//! decision relation `d`) is read off the relation's variable ids without
//! running its query. The property: a random rule compiles to the same
//! constraint cells and the same atoms as the same rule with `WHERE
//! TRUE`, which is not of the shape and runs. The generator draws int and
//! float literals (negative ones, `-0.0`, 2^53 + 1), every comparison
//! operator, chains of up to four operands, several items per rule, `d.col`
//! qualifiers, both decision relations of the statement (the input and a
//! CDTE), and the shapes that must run instead: `<>`, an alias, a column
//! that is not a decision column, two constants compared.
//!
//! The workspace run takes 64 cases; `PROPTEST_CASES` sets how many where
//! it is set (the vendored proptest does not read it; the `analyze` CI job
//! runs 20 000).

use proptest::prelude::*;
use solvedbplus_core::compile::{compile_model, rule_label, CompiledModel};
use solvedbplus_core::problem::build_problem;
use sqlengine::ast::Statement;
use sqlengine::catalog::{Ctes, Database};
use sqlengine::{execute_script, parser};

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

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// `pars` with 0–4 rows: `a`, `b`, `c` are the input's decision columns
/// (float, int, float), `id` and `w` are data; the CDTE `e` adds the
/// decision column `err`.
fn database(rng: &mut Rng) -> Database {
    let rows: Vec<String> = (0..rng.below(5))
        .map(|i| {
            let w = ["NULL", "2.5", "-1", "0"][rng.below(4) as usize];
            format!("({i}, NULL, NULL, NULL, {w})")
        })
        .collect();
    let mut db = Database::new();
    let mut sql = "CREATE TABLE pars (id int, a float8, b int, c float8, w float8);".to_string();
    if !rows.is_empty() {
        sql.push_str(&format!("INSERT INTO pars VALUES {}", rows.join(", ")));
    }
    execute_script(&mut db, &sql).unwrap();
    db
}

#[derive(Clone, Copy, PartialEq)]
enum Operand {
    Literal,
    Decision,
    Data,
}

/// One operand: a literal half of the time, else a column (qualified by
/// `qualifier` one time in three). `data` says whether a non-decision
/// column may be drawn.
fn operand(rng: &mut Rng, decision: &[&str], data: bool, qualifier: &str) -> (String, Operand) {
    if rng.one_in(2) {
        let literal = match rng.below(6) {
            0 => rng.pick(&["0", "1", "-1", "-0.0", "9007199254740993", "-0.001"]).to_string(),
            1 | 2 => format!("{}", rng.below(41) as i64 - 20),
            _ => format!("{:.2}", (rng.below(161) as f64 - 80.0) / 4.0),
        };
        return (literal, Operand::Literal);
    }
    let (col, kind) = if data && rng.one_in(3) {
        (rng.pick(&["w", "id"]), Operand::Data)
    } else {
        (decision[rng.below(decision.len() as u64) as usize], Operand::Decision)
    };
    let col = if rng.one_in(3) { format!("{qualifier}.{col}") } else { col.to_string() };
    (col, kind)
}

/// A rule and whether it is of the box shape.
fn rule(rng: &mut Rng) -> (String, bool) {
    let (rel, decision): (&str, &[&str]) =
        if rng.one_in(3) { ("e", &["err"]) } else { ("p", &["a", "b", "c"]) };
    // At most one way out of the shape besides two constants compared.
    let way_out = rng.below(8);
    let (ne, aliased, data) = (way_out == 0, way_out == 1, way_out == 2);
    let qualifier = if aliased { "q" } else { rel };
    let mut shape = !(ne || aliased);
    let mut items = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let n = 2 + rng.below(3) as usize;
        let (mut text, mut prev) = operand(rng, decision, data, qualifier);
        shape &= prev != Operand::Data;
        for i in 1..n {
            let op = if ne && i == 1 { "<>" } else { rng.pick(&["<=", "<", ">=", ">", "="]) };
            let (next, kind) = operand(rng, decision, data, qualifier);
            shape &= kind != Operand::Data && (prev, kind) != (Operand::Literal, Operand::Literal);
            text = format!("{text} {op} {next}");
            prev = kind;
        }
        items.push(text);
    }
    let from = if aliased { format!("{rel} q") } else { rel.to_string() };
    (format!("SELECT {} FROM {from}", items.join(", ")), shape)
}

fn compiled<T>(db: &Database, rule: &str, f: impl FnOnce(&CompiledModel) -> T) -> T {
    let sql = format!(
        "SOLVESELECT p(a, b, c) AS (SELECT * FROM pars) \
         WITH e(err) AS (SELECT id, w, NULL::float8 AS err FROM pars) \
         SUBJECTTO ({rule}) USING solverlp()"
    );
    let Statement::Solve(stmt) = parser::parse_statement(&sql).unwrap() else {
        panic!("not a solve statement: {sql}");
    };
    // Compiled whatever the input's row count: `prepare` compiles no rule
    // of a statement whose input relation is empty.
    let prob = build_problem(db, &Ctes::new(), &stmt).unwrap();
    f(&compile_model(db, &Ctes::new(), prob))
}

/// What a compiled rule is, to compare: its cells, or the kind of its
/// failure and the error without the rule's label; then its atoms.
fn outcome(m: &CompiledModel) -> (String, String) {
    let rule = match &m.rules[0] {
        Ok(cells) => format!("{cells:?}"),
        Err(f) => {
            let label = rule_label(None, &m.prob.subjectto[0].query);
            format!("{:?}: {}", f.kind, f.error.to_string().replace(&label, "<rule>"))
        }
    };
    let atoms: Vec<_> = m.atoms.iter().map(|a| (&a.diff, a.rel, a.rule)).collect();
    (rule, format!("{atoms:?}"))
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn box_rules_compile_to_what_their_query_evaluates_to(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed | 1);
        let db = database(&mut rng);
        for _ in 0..4 {
            let (rule, shape) = rule(&mut rng);
            let (read, bounds) = compiled(&db, &rule, |m| (outcome(m), m.bounds));
            let (run, run_bounds) =
                compiled(&db, &format!("{rule} WHERE TRUE"), |m| (outcome(m), m.bounds));
            prop_assert_eq!(bounds, usize::from(shape), "{}", rule);
            prop_assert_eq!(run_bounds, 0, "{}", rule);
            prop_assert_eq!(read, run, "{}", rule);
        }
    }
}

#[test]
fn the_knapsack_box_is_read_as_bounds() {
    let mut db = Database::new();
    execute_script(
        &mut db,
        "CREATE TABLE pars (id int, a float8, b int, c float8, w float8);
         INSERT INTO pars VALUES (0, NULL, NULL, NULL, 1), (1, NULL, NULL, NULL, 2)",
    )
    .unwrap();
    let (cells, bounds) = compiled(&db, "SELECT 0 <= b <= 1 FROM p", |m| {
        (m.rules[0].as_ref().map(Vec::len).unwrap(), m.bounds)
    });
    assert_eq!((cells, bounds), (2, 1));
    for fallback in [
        "SELECT 0 <= q.b <= 1 FROM p q",
        "SELECT 0 <= b <> 1 FROM p",
        "SELECT 0 <= w FROM p",
        "SELECT 0 <= 1 FROM p",
        "SELECT 0 <= b FROM p WHERE TRUE",
        "SELECT DISTINCT 0 <= b FROM p",
        "SELECT 0 <= b FROM p ORDER BY 1",
        "SELECT b + 1 <= 2 FROM p",
    ] {
        assert_eq!(compiled(&db, fallback, |m| m.bounds), 0, "{fallback}");
    }
}
