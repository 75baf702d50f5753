//! `sum` and `avg` over symbolic cells add every value once, at the end
//! ([`CustomValue::sum`], which `SymValue` overrides with one merge of
//! all terms). The property: over a random column, the result equals, bit
//! for bit — constant, term order and every coefficient — the pairwise
//! fold `((v₀ + v₁) + v₂) + …` through `Value::binop` that `AggState`
//! ran before. The generator draws NULLs, int and float cells (so a
//! numeric prefix comes before the first symbolic cell, and numbers
//! between them), symbolic cells over a few variables in any order and
//! repeated, with coefficients that cancel to zero part way (`0.5` and
//! `-0.5`, `0.1 + 0.2 - 0.3`), constants of `-0.0`, `DISTINCT`, and one
//! group or two; on the planned executor and on the reference row
//! interpreter.
//!
//! The workspace run takes 64 cases; `PROPTEST_CASES` sets how many where
//! it is set (the vendored proptest does not read it; the `analyze` CI job
//! runs 20 000).
//!
//! [`CustomValue::sum`]: sqlengine::types::CustomValue::sum

use proptest::prelude::*;
use solvedbplus_core::symbolic::{LinExpr, SymValue, VarId};
use sqlengine::catalog::Database;
use sqlengine::exec::run_query;
use sqlengine::table::{Column, Schema, Table};
use sqlengine::types::{custom, downcast, BinOp, DataType, GroupKey, Value};
use sqlengine::{parser, Ctes};
use std::collections::HashSet;

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

/// Coefficients and constants: pairs that cancel exactly, sums that
/// cancel only up to rounding, magnitudes far apart.
const NUMBERS: [f64; 12] = [1.0, -1.0, 0.5, -0.5, 0.1, 0.2, -0.3, 3.0, -3.0, 1e16, -1e16, 2.5];

/// A symbolic cell over variables 0..5: 1–4 distinct variables, nonzero
/// coefficients, sorted as a `LinExpr` keeps them.
fn symbolic(rng: &mut Rng) -> Value {
    let mut vars: Vec<VarId> = (0..1 + rng.below(4)).map(|_| rng.below(6) as VarId).collect();
    vars.sort_unstable();
    vars.dedup();
    let terms = vars.into_iter().map(|v| (v, rng.pick(&NUMBERS))).collect();
    let constant = rng.pick(&[0.0, -0.0, 1.0, -2.5, 0.1]);
    custom(SymValue(LinExpr { constant, terms }))
}

fn cell(rng: &mut Rng) -> Value {
    match rng.below(10) {
        0 => Value::Null,
        1 | 2 => Value::Int(rng.below(7) as i64 - 3),
        3 | 4 => Value::Float(rng.pick(&NUMBERS)),
        _ => symbolic(rng),
    }
}

/// `cells (g int, c)`: 0–40 rows in one or two groups. Symbolic cells
/// repeat an earlier one now and then, for `DISTINCT` to fold.
fn cells(rng: &mut Rng) -> Table {
    let groups = 1 + rng.below(2) as i64;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for _ in 0..rng.below(41) {
        let c = match rows.len() {
            n if n > 0 && rng.below(6) == 0 => rows[rng.below(n as u64) as usize][1].clone(),
            _ => cell(rng),
        };
        rows.push(vec![Value::Int(rng.below(groups as u64) as i64), c]);
    }
    let schema = Schema::new(vec![
        Column::new("g", DataType::Int),
        Column::new("c", DataType::Named("linexpr".into())),
    ]);
    Table::with_rows(schema, rows)
}

/// The pairwise fold, the reference: the non-NULL values of `column` (the
/// first of each key under `DISTINCT`), added left to right.
fn folded(column: &[Value], distinct: bool) -> Result<(Value, i64), String> {
    let mut seen: HashSet<GroupKey> = HashSet::new();
    let values = column.iter().filter(|v| !v.is_null());
    let values: Vec<&Value> = values.filter(|v| !distinct || seen.insert(v.group_key())).collect();
    let mut sum: Option<Value> = None;
    for v in &values {
        sum = Some(match sum {
            None => (*v).clone(),
            Some(s) => Value::binop(BinOp::Add, &s, v).map_err(|e| e.to_string())?,
        });
    }
    Ok((sum.unwrap_or(Value::Null), values.len() as i64))
}

/// `avg` of a fold: the total over the count, an integer total as float.
fn averaged(sum: Value, n: i64) -> Result<Value, String> {
    let total = match sum {
        Value::Null => return Ok(Value::Null),
        Value::Int(i) => Value::Float(i as f64),
        other => other,
    };
    Value::binop(BinOp::Div, &total, &Value::Int(n)).map_err(|e| e.to_string())
}

/// A value to compare bit for bit: a float by its bits, a symbolic value
/// by its constant's bits and each term's variable and coefficient bits.
fn exact(v: &Value) -> String {
    match (v, downcast::<SymValue>(v)) {
        (_, Some(s)) => {
            let terms: Vec<(VarId, u64)> =
                s.0.terms.iter().map(|&(v, c)| (v, c.to_bits())).collect();
            format!("linexpr {:x} {terms:?}", s.0.constant.to_bits())
        }
        (Value::Float(f), _) => format!("float {:x}", f.to_bits()),
        (other, _) => format!("{other:?}"),
    }
}

fn run(db: &Database, sql: &str) -> Result<Vec<Vec<String>>, String> {
    let sqlengine::ast::Statement::Query(q) = parser::parse_statement(sql).unwrap() else {
        panic!("not a query: {sql}");
    };
    let t = run_query(db, &Ctes::new(), &q, None).map_err(|e| e.to_string())?;
    Ok(t.rows.iter().map(|r| r.iter().map(exact).collect()).collect())
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn a_symbolic_sum_is_the_pairwise_fold(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed | 1);
        let table = cells(&mut rng);
        let mut db = Database::new();
        db.put_table("cells", table.clone());
        let distinct = rng.below(3) == 0;
        let d = if distinct { "DISTINCT " } else { "" };
        let sql = format!("SELECT g, sum({d}c), avg({d}c) FROM cells GROUP BY g ORDER BY g");
        let mut groups: Vec<i64> = table.rows.iter().filter_map(|r| r[0].as_i64().ok()).collect();
        groups.sort_unstable();
        groups.dedup();
        let expected: Result<Vec<Vec<String>>, String> = groups
            .iter()
            .map(|&g| {
                let column: Vec<Value> = table
                    .rows
                    .iter()
                    .filter(|r| r[0] == Value::Int(g))
                    .map(|r| r[1].clone())
                    .collect();
                let (sum, n) = folded(&column, distinct)?;
                let avg = averaged(sum.clone(), n)?;
                Ok(vec![exact(&Value::Int(g)), exact(&sum), exact(&avg)])
            })
            .collect();
        for reference in [false, true] {
            db.set_force_row_interpreter(reference);
            let got = run(&db, &sql);
            prop_assert_eq!(&got, &expected, "{} (reference executor: {})", sql, reference);
        }
    }
}
