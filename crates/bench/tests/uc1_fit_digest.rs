//! UC1 P3's answer, pinned to the bit: an FNV-1a digest over the fitted
//! thermal model `hvac_pars (a1, b1, b2)` after `s_3ss_p3.sql` (simulated
//! annealing over the SQL-evaluated fitness). A change that moves one
//! fitness value in its last bit moves the annealing path, and with it the
//! digest.
//!
//! The 96-hour run (10 iterations) is part of the workspace run. The
//! `#[ignore]`d case runs the script's own 400 iterations at `uc1_fit`'s
//! 336 hours over three seeds (ten iterations can accept the same moves on
//! two data sets); the `analyze` CI job runs it in release with
//! `-- --ignored`.

use bench::setup::uc1_session;
use bench::uc1::{S_3SS_P1, S_3SS_P3};
use sqlengine::Value;

struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: [u8; 8]) {
        for b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Fit P3 with `iterations` annealing steps over `history` hours of data
/// seed `seed` (12 horizon hours), annealing seed `seed`, and digest the
/// bits of its three parameters.
fn p3_digest(history: usize, seed: u64, iterations: usize) -> u64 {
    let (mut s, _) = uc1_session(history, 12, seed);
    s.execute_script(S_3SS_P1).unwrap();
    let p3 = S_3SS_P3
        .replace("iterations := 400", &format!("iterations := {iterations}"))
        .replace("seed := 5", &format!("seed := {seed}"));
    s.execute_script(&p3).unwrap();
    let t = s.query("SELECT a1, b1, b2 FROM hvac_pars").unwrap();
    assert_eq!(t.num_rows(), 1, "hvac_pars: {t:?}");
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for v in &t.rows[0] {
        match v {
            Value::Float(f) => h.bytes(f.to_bits().to_le_bytes()),
            other => panic!("unexpected value {other:?}"),
        }
    }
    h.0
}

#[test]
fn uc1_p3_answer_is_pinned_at_96_hours() {
    assert_eq!(format!("{:016x}", p3_digest(96, 17, 10)), "691015882f2215a5");
}

#[test]
#[ignore = "uc1_fit's 336 hours over three seeds: run in release with -- --ignored"]
fn uc1_p3_answers_are_pinned_at_336_hours() {
    let got: Vec<String> =
        [3, 17, 29].iter().map(|&seed| format!("{:016x}", p3_digest(336, seed, 400))).collect();
    assert_eq!(got, ["b40b94e0077019c4", "576f67fea0dee09e", "ce83079405eb30ce"]);
}
