//! Random interleavings of INSERT / DELETE / UPDATE / SELECT on a table
//! that spans several scan chunks, checked three ways after every step:
//!
//! - the table equals a native model of it (same rows, same order) —
//!   DELETE and UPDATE evaluate WHERE over the table's columnar image and
//!   rewrite the rows in place or as a copy, INSERT extends the image;
//! - a corpus of SELECTs (pruned and full-width scans, filters,
//!   aggregates, a join) returns the same rows through the planner — off
//!   the image — and through the row interpreter — off `Table::rows`;
//! - a durable twin, fed only the emitted `CatalogMutation`s, holds
//!   identical tables. The twin keeps the handles `PutTable` records
//!   carry, so writes meet both a shared table (copied) and, after an
//!   INSERT has copied it, one nobody else holds (written in place).
//!
//! A statement that fails — WHERE or SET dividing by zero on a late row,
//! a value that does not coerce — leaves the table untouched and reports
//! the row interpreter's error.

use proptest::prelude::*;
use sqlengine::table::{Column, Schema};
use sqlengine::{
    execute_sql, CatalogMutation, DataType, Database, DurabilityHook, Error, Row, Table, Value,
};
use std::sync::{Arc, Mutex};

/// Rows per scan chunk (`plan::columnar::BATCH_SIZE`).
const CHUNK: usize = 1024;
/// The table starts two rows into its third chunk.
const START_ROWS: usize = 2 * CHUNK + 2;

// Column positions of `t (id INT, g INT, v FLOAT8, s TEXT, m <untyped>)`.
const ID: usize = 0;
const G: usize = 1;
const V: usize = 2;
const S: usize = 3;
const M: usize = 4;

// ---------------------------------------------------------------------------
// Native three-valued model
// ---------------------------------------------------------------------------

fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn float(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Text(s) => Some(s),
        _ => None,
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

#[derive(Debug, Clone)]
enum Pred {
    GLt(i64),
    IdIn(Vec<i64>),
    GInOrNull(i64),
    GNotIn(i64, i64),
    VBetween(i64, f64),
    VNotBetween(i64, i64),
    SEq(&'static str),
    SIsNull,
    /// Rows of the tail chunk only.
    IdGt(i64),
    /// Not vectorised: evaluated row by row inside the batch.
    SLike,
    /// A subquery: WHERE sees the full-width row.
    GIsMinOfD,
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    fn sql(&self) -> String {
        match self {
            Pred::GLt(k) => format!("g < {k}"),
            Pred::IdIn(ids) => {
                format!("id IN ({})", ids.iter().map(i64::to_string).collect::<Vec<_>>().join(", "))
            }
            Pred::GInOrNull(k) => format!("g IN ({k}, NULL)"),
            Pred::GNotIn(a, b) => format!("g NOT IN ({a}, {b})"),
            Pred::VBetween(lo, hi) => format!("v BETWEEN {lo} AND {hi:?}"),
            Pred::VNotBetween(lo, hi) => format!("v NOT BETWEEN {lo} AND {hi}"),
            Pred::SEq(s) => format!("s = '{s}'"),
            Pred::SIsNull => "s IS NULL".into(),
            Pred::IdGt(k) => format!("id > {k}"),
            Pred::SLike => "s LIKE 'r%'".into(),
            Pred::GIsMinOfD => "g = (SELECT min(g) FROM d)".into(),
            Pred::And(a, b) => format!("({} AND {})", a.sql(), b.sql()),
            Pred::Or(a, b) => format!("({} OR {})", a.sql(), b.sql()),
            Pred::Not(a) => format!("NOT ({})", a.sql()),
        }
    }

    fn eval(&self, row: &Row) -> Option<bool> {
        let (id, g, v, s) = (int(&row[ID]), int(&row[G]), float(&row[V]), text(&row[S]));
        match self {
            Pred::GLt(k) => g.map(|g| g < *k),
            Pred::IdIn(ids) => id.map(|id| ids.contains(&id)),
            Pred::GInOrNull(k) => g.and_then(|g| (g == *k).then_some(true)),
            Pred::GNotIn(a, b) => g.map(|g| g != *a && g != *b),
            Pred::VBetween(lo, hi) => v.map(|v| v >= *lo as f64 && v <= *hi),
            Pred::VNotBetween(lo, hi) => v.map(|v| !(v >= *lo as f64 && v <= *hi as f64)),
            Pred::SEq(want) => s.map(|s| s == *want),
            Pred::SIsNull => Some(s.is_none()),
            Pred::IdGt(k) => id.map(|id| id > *k),
            Pred::SLike => s.map(|s| s.starts_with('r')),
            Pred::GIsMinOfD => g.map(|g| g == 0),
            Pred::And(a, b) => and3(a.eval(row), b.eval(row)),
            Pred::Or(a, b) => and3(a.eval(row).map(|x| !x), b.eval(row).map(|x| !x)).map(|x| !x),
            Pred::Not(a) => a.eval(row).map(|x| !x),
        }
    }

    fn hits(&self, row: &Row) -> bool {
        self.eval(row) == Some(true)
    }
}

#[derive(Debug, Clone, Copy)]
enum SetClause {
    VPlus(i64),
    VFromId,
    GNull,
    GPlusOne,
    STag,
    MText,
    MFromG,
}

impl SetClause {
    fn sql(&self) -> String {
        match self {
            SetClause::VPlus(x) => format!("v = v + {x}"),
            SetClause::VFromId => "v = id * 0.5".into(),
            SetClause::GNull => "g = NULL".into(),
            SetClause::GPlusOne => "g = g + 1".into(),
            SetClause::STag => "s = 'upd'".into(),
            SetClause::MText => "m = 'txt'".into(),
            SetClause::MFromG => "m = g".into(),
        }
    }

    /// The assignment as `(column, new value)` computed from the old row.
    fn apply(&self, old: &Row) -> (usize, Value) {
        let opt = |v: Option<Value>| v.unwrap_or(Value::Null);
        match self {
            SetClause::VPlus(x) => (V, opt(float(&old[V]).map(|v| Value::Float(v + *x as f64)))),
            SetClause::VFromId => (V, opt(int(&old[ID]).map(|i| Value::Float(i as f64 * 0.5)))),
            SetClause::GNull => (G, Value::Null),
            SetClause::GPlusOne => (G, opt(int(&old[G]).map(|g| Value::Int(g + 1)))),
            SetClause::STag => (S, Value::text("upd")),
            SetClause::MText => (M, Value::text("txt")),
            SetClause::MFromG => (M, old[G].clone()),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `INSERT … VALUES` of this many generated rows.
    Insert(usize, u64),
    /// `INSERT … SELECT` from the table itself.
    InsertSelect(i64),
    Delete(Pred),
    DeleteAll,
    Update(Vec<SetClause>, Option<Pred>),
    /// Statements that must fail and change nothing.
    DeleteDividesByZero,
    UpdateDividesByZero,
    UpdateDoesNotCoerce,
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// One generated row; every column but `id` is NULL now and then, and
/// `m` holds ints, floats and text side by side.
fn gen_row(id: i64, bits: u64) -> Row {
    let pick = |shift: u32, n: u64| (bits >> shift) % n;
    let g = if pick(0, 10) == 0 { Value::Null } else { Value::Int(pick(4, 8) as i64) };
    let v = if pick(8, 9) == 0 { Value::Null } else { Value::Float(pick(12, 1000) as f64 / 8.0) };
    let s = match pick(24, 5) {
        0 => Value::Null,
        1 => Value::text("red"),
        2 => Value::text("green"),
        3 => Value::text("rose"),
        _ => Value::text("blue"),
    };
    let m = match pick(32, 4) {
        0 => Value::Null,
        1 => Value::Int(pick(36, 50) as i64),
        2 => Value::Float(pick(36, 50) as f64 + 0.5),
        _ => Value::text(format!("k{}", pick(36, 7))),
    };
    vec![Value::Int(id), g, v, s, m]
}

fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x.wrapping_mul(0x94D0_49BB_1331_11EB)
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{s}'"),
        other => panic!("no literal for {other:?}"),
    }
}

fn arb_leaf() -> impl Strategy<Value = Pred> {
    prop_oneof![
        (0i64..9).prop_map(Pred::GLt),
        prop::collection::vec(0i64..(START_ROWS as i64 + 50), 1..5).prop_map(Pred::IdIn),
        (0i64..8).prop_map(Pred::GInOrNull),
        (0i64..8, 0i64..8).prop_map(|(a, b)| Pred::GNotIn(a, b)),
        (0i64..100, 0i64..250).prop_map(|(lo, hi)| Pred::VBetween(lo, hi as f64 / 2.0)),
        (0i64..100, 20i64..125).prop_map(|(lo, hi)| Pred::VNotBetween(lo, hi)),
        prop_oneof![Just("red"), Just("blue"), Just("upd")].prop_map(Pred::SEq),
        Just(Pred::SIsNull),
        (0i64..60).prop_map(|back| Pred::IdGt(START_ROWS as i64 - back)),
        Just(Pred::SLike),
        Just(Pred::GIsMinOfD),
    ]
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    prop_oneof![
        arb_leaf(),
        arb_leaf(),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| Pred::And(Box::new(a), Box::new(b))),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| Pred::Or(Box::new(a), Box::new(b))),
        arb_leaf().prop_map(|a| Pred::Not(Box::new(a))),
    ]
}

fn arb_set() -> impl Strategy<Value = SetClause> {
    prop_oneof![
        (1i64..20).prop_map(SetClause::VPlus),
        Just(SetClause::VFromId),
        Just(SetClause::GNull),
        Just(SetClause::GPlusOne),
        Just(SetClause::STag),
        Just(SetClause::MText),
        Just(SetClause::MFromG),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Appends that stay inside the tail chunk, and ones that cross it.
    let inside = (1usize..20, any::<u64>()).prop_map(|(n, seed)| Op::Insert(n, seed));
    let across = (prop_oneof![Just(300usize), Just(CHUNK + 70)], any::<u64>())
        .prop_map(|(n, seed)| Op::Insert(n, seed));
    let update = |p: Option<Pred>| {
        prop::collection::vec(arb_set(), 1..3).prop_map(move |sets| Op::Update(sets, p.clone()))
    };
    prop_oneof![
        inside,
        across,
        (0i64..400).prop_map(Op::InsertSelect),
        arb_pred().prop_map(Op::Delete),
        arb_pred().prop_map(Op::Delete),
        Just(Op::DeleteAll),
        (prop::collection::vec(arb_set(), 1..3), arb_pred())
            .prop_map(|(sets, p)| Op::Update(sets, Some(p))),
        update(None),
        Just(Op::DeleteDividesByZero),
        Just(Op::UpdateDividesByZero),
        Just(Op::UpdateDoesNotCoerce),
    ]
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Records what the catalog emits, as `crates/storage` would.
#[derive(Default)]
struct Recorder(Mutex<Vec<CatalogMutation>>);

impl DurabilityHook for Recorder {
    fn record(&self, mutation: CatalogMutation) {
        self.0.lock().unwrap().push(mutation);
    }

    fn checkpoint(&self, _: &mut Database, _: Option<&obs::Trace>) -> Result<Table, Error> {
        Err(Error::unsupported("the recorder takes no checkpoints"))
    }
}

struct Harness {
    db: Database,
    twin: Database,
    log: Arc<Recorder>,
    /// What `t` must hold, in order.
    model: Vec<Row>,
    next_id: i64,
}

impl Harness {
    fn new() -> Harness {
        let mut db = Database::new();
        let log = Arc::new(Recorder::default());
        db.set_durability_hook(log.clone());
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("g", DataType::Int),
            Column::new("v", DataType::Float),
            Column::new("s", DataType::Text),
            Column::new("m", DataType::Unknown),
        ]);
        db.create_table("t", Table::new(schema), false).unwrap();
        let model: Vec<Row> =
            (0..START_ROWS as i64).map(|i| gen_row(i, mix(0xFEED, i as u64))).collect();
        db.append_rows("t", model.clone()).unwrap();
        let d = (0..8).map(|g| vec![Value::Int(g), Value::text(format!("grp{}", g % 3))]).collect();
        db.create_table("d", Table::from_rows(&["g", "name"], d), false).unwrap();
        let mut h = Harness { db, twin: Database::new(), log, model, next_id: START_ROWS as i64 };
        h.check("set-up");
        h
    }

    fn error_of(&mut self, sql: &str) -> String {
        match execute_sql(&mut self.db, sql) {
            Ok(r) => panic!("expected an error, got {:?}: {sql}", r.outcome),
            Err(e) => e.to_string(),
        }
    }

    /// What the row interpreter reports for a SELECT over the same
    /// expression — it evaluates it row by row like the DML loop did.
    fn interpreter_error_of(&mut self, select: &str) -> String {
        let prev = self.db.set_force_row_interpreter(true);
        let e = self.error_of(select);
        self.db.set_force_row_interpreter(prev);
        e
    }

    fn run(&mut self, op: &Op) {
        let count = |db: &mut Database, sql: &str| -> usize {
            execute_sql(db, sql).unwrap_or_else(|e| panic!("{e}: {sql}")).row_count().unwrap()
        };
        match op {
            Op::Insert(n, seed) => {
                let rows: Vec<Row> = (0..*n as u64)
                    .map(|k| gen_row(self.next_id + k as i64, mix(*seed, k)))
                    .collect();
                self.next_id += *n as i64;
                let values: Vec<String> = rows
                    .iter()
                    .map(|r| format!("({})", r.iter().map(literal).collect::<Vec<_>>().join(", ")))
                    .collect();
                let sql = format!("INSERT INTO t VALUES {}", values.join(", "));
                assert_eq!(count(&mut self.db, &sql), *n);
                self.model.extend(rows);
            }
            Op::InsertSelect(below) => {
                let base = self.next_id;
                let sql = format!(
                    "INSERT INTO t SELECT id + {base}, g, v, s, m FROM t WHERE id < {below}"
                );
                let copies: Vec<Row> = self
                    .model
                    .iter()
                    .filter(|r| int(&r[ID]).unwrap() < *below)
                    .map(|r| {
                        let mut r = r.clone();
                        r[ID] = Value::Int(int(&r[ID]).unwrap() + base);
                        r
                    })
                    .collect();
                // Ids stay unique: the largest copy is below `2 * base`.
                self.next_id = 2 * base + 1;
                assert_eq!(count(&mut self.db, &sql), copies.len());
                self.model.extend(copies);
            }
            Op::Delete(p) => {
                let sql = format!("DELETE FROM t WHERE {}", p.sql());
                let before = self.model.len();
                self.model.retain(|r| !p.hits(r));
                assert_eq!(count(&mut self.db, &sql), before - self.model.len(), "{sql}");
            }
            Op::DeleteAll => {
                assert_eq!(count(&mut self.db, "DELETE FROM t"), self.model.len());
                self.model.clear();
            }
            Op::Update(sets, p) => {
                let list = sets.iter().map(SetClause::sql).collect::<Vec<_>>().join(", ");
                let sql = match p {
                    Some(p) => format!("UPDATE t SET {list} WHERE {}", p.sql()),
                    None => format!("UPDATE t SET {list}"),
                };
                let mut touched = 0;
                for row in &mut self.model {
                    if p.as_ref().is_some_and(|p| !p.hits(row)) {
                        continue;
                    }
                    let old = row.clone();
                    for set in sets {
                        let (col, v) = set.apply(&old);
                        row[col] = v;
                    }
                    touched += 1;
                }
                assert_eq!(count(&mut self.db, &sql), touched, "{sql}");
            }
            // The division fails on the table's last row only.
            Op::DeleteDividesByZero | Op::UpdateDividesByZero => {
                let Some(last) = self.model.last().map(|r| int(&r[ID]).unwrap()) else { return };
                let (sql, select) = if matches!(op, Op::DeleteDividesByZero) {
                    let p = format!("100 / (id - {last}) > 0");
                    (format!("DELETE FROM t WHERE {p}"), format!("SELECT id FROM t WHERE {p}"))
                } else {
                    let e = format!("100 / (id - {last})");
                    (format!("UPDATE t SET s = 'lost', v = {e}"), format!("SELECT {e} FROM t"))
                };
                let got = self.error_of(&sql);
                assert_eq!(got, self.interpreter_error_of(&select), "{sql}");
                assert!(got.contains("division by zero"), "{got}");
            }
            Op::UpdateDoesNotCoerce => {
                if self.model.is_empty() {
                    return;
                }
                let got = self.error_of("UPDATE t SET s = 'lost', g = 'seven'");
                assert_eq!(got, self.interpreter_error_of("SELECT cast('seven' AS int) FROM t"));
            }
        }
    }

    /// The three checks of the module comment.
    fn check(&mut self, after: &str) {
        // Strictly: `Value`'s own equality lets Int(2) equal Float(2.0).
        let same = |a: &[Row], b: &[Row]| {
            a.len() == b.len()
                && a.iter()
                    .flatten()
                    .zip(b.iter().flatten())
                    .all(|(x, y)| std::mem::discriminant(x) == std::mem::discriminant(y) && x == y)
        };
        let stored = self.db.table("t").unwrap();
        assert!(same(&stored.rows, &self.model), "table and model differ after {after}");

        for m in self.log.0.lock().unwrap().drain(..) {
            m.apply(&mut self.twin).unwrap();
        }
        for name in ["t", "d"] {
            let (ours, theirs) = (self.db.table(name).unwrap(), self.twin.table(name).unwrap());
            assert!(
                ours.schema == theirs.schema && same(&ours.rows, &theirs.rows),
                "twin: {after}"
            );
        }

        let (lo, hi) = (self.next_id / 3, self.next_id / 2);
        let corpus = [
            "SELECT * FROM t".to_string(),
            "SELECT count(*) FROM t".to_string(),
            "SELECT id, m FROM t WHERE g IN (1, 3, NULL)".to_string(),
            "SELECT g, count(*), sum(v), min(id), max(s) FROM t GROUP BY g".to_string(),
            format!(
                "SELECT d.name, count(*), avg(t.v) FROM t JOIN d ON t.g = d.g \
                 WHERE t.id BETWEEN {lo} AND {hi} GROUP BY d.name"
            ),
            "SELECT s, g, sum(v) FROM t WHERE v NOT BETWEEN 10 AND 50.5 GROUP BY ROLLUP (s, g)"
                .to_string(),
            "SELECT id, v, m FROM t WHERE s LIKE 'r%' AND id NOT IN (3, 5, 2050) \
             ORDER BY id DESC LIMIT 25"
                .to_string(),
        ];
        for sql in &corpus {
            let planned = execute_sql(&mut self.db, sql).unwrap();
            assert!(planned.plan_fingerprint.is_some(), "not planned: {sql}");
            let prev = self.db.set_force_row_interpreter(true);
            let rows = execute_sql(&mut self.db, sql).unwrap();
            self.db.set_force_row_interpreter(prev);
            let sorted = |t: Table| {
                let mut keys: Vec<String> = t.rows.iter().map(|r| format!("{r:?}")).collect();
                keys.sort();
                keys
            };
            let (planned, rows) = (planned.into_table().unwrap(), rows.into_table().unwrap());
            assert!(planned.schema == rows.schema, "schemas differ after {after}: {sql}");
            assert!(sorted(planned) == sorted(rows), "rows differ after {after}: {sql}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn writes_and_reads_agree_with_the_model(ops in prop::collection::vec(arb_op(), 6..12)) {
        let mut h = Harness::new();
        for (k, op) in ops.iter().enumerate() {
            h.run(op);
            h.check(&format!("step {k} of {ops:?}"));
        }
    }
}

/// The sequence the generator reaches only by luck: empty the table,
/// read it, refill it across a chunk boundary, fail, go on.
#[test]
fn empty_tables_and_failures_in_sequence() {
    let mut h = Harness::new();
    let ops = [
        Op::UpdateDividesByZero,
        Op::DeleteAll,
        Op::DeleteDividesByZero,
        Op::Update(vec![SetClause::GNull], None),
        Op::Delete(Pred::SIsNull),
        Op::Insert(3, 1),
        Op::UpdateDoesNotCoerce,
        Op::DeleteDividesByZero,
        Op::Insert(CHUNK + 70, 2),
        Op::InsertSelect(i64::MAX),
        Op::Update(
            vec![SetClause::VPlus(1), SetClause::MFromG],
            Some(Pred::IdGt(START_ROWS as i64)),
        ),
        Op::Delete(Pred::Not(Box::new(Pred::GInOrNull(2)))),
        Op::DeleteAll,
    ];
    for (k, op) in ops.iter().enumerate() {
        h.run(op);
        h.check(&format!("step {k}: {op:?}"));
    }
    assert!(h.model.is_empty());
}
