//! The UC2 pipeline's answers, pinned to the bit: an FNV-1a digest over
//! every forecast (`demand_forecast`) and every pick (`production_plan`),
//! each ordered by `item_id`. A change that moves one forecast in its last
//! bit, or one pick, moves the digest.
//!
//! The 100-item run is part of the workspace run; the 2000-item one (the
//! paper's largest Fig 9 size) is `#[ignore]`d, and the `analyze` CI job
//! runs it in release with `-- --ignored`.

use bench::setup::uc2_session;
use bench::uc2::run_uc2;
use solvedbplus_core::Session;
use sqlengine::Value;

struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: [u8; 8]) {
        for b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// An `int` hashes its little-endian bytes, a `float8` those of its bits.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.bytes(i.to_le_bytes()),
            Value::Float(f) => self.bytes(f.to_bits().to_le_bytes()),
            other => panic!("unexpected value {other:?}"),
        }
    }
}

/// Run UC2 over `items` items (80 months of orders, seed 9) and digest
/// its forecasts and picks.
fn uc2_digest(items: usize) -> u64 {
    let (mut s, catalog) = uc2_session(items, 80, 9);
    let ids: Vec<i64> = catalog.iter().map(|i| i.item_id).collect();
    run_uc2(&mut s, &ids).unwrap();
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    digest(&mut s, "SELECT item_id, qty FROM demand_forecast ORDER BY item_id", &mut h);
    digest(&mut s, "SELECT item_id, pick FROM production_plan ORDER BY item_id", &mut h);
    h.0
}

fn digest(s: &mut Session, sql: &str, h: &mut Fnv1a) {
    let t = s.query(sql).unwrap();
    assert!(t.num_rows() > 0, "{sql}: no rows");
    for row in &t.rows {
        row.iter().for_each(|v| h.value(v));
    }
}

#[test]
fn uc2_answers_are_pinned_at_100_items() {
    assert_eq!(format!("{:016x}", uc2_digest(100)), "5722fcad43aff9e0");
}

#[test]
#[ignore = "the paper's 2000 items: run in release with -- --ignored"]
fn uc2_answers_are_pinned_at_2000_items() {
    assert_eq!(format!("{:016x}", uc2_digest(2000)), "67b81d6fc7321ba3");
}
