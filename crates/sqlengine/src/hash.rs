//! The one hasher of the engine's hash tables: the key index of every
//! hash operator, the plan and build caches, CTE environments, the
//! catalog and the SolveDB+ layer's maps are [`FastMap`]s and
//! [`FastSet`]s. Only the reference interpreter (`exec/oracle.rs`) keeps
//! std's SipHash, because it is the independent check the planner's
//! operators are compared against.
//!
//! A word is hashed with one folded multiply: the state xor the word,
//! times a fixed odd constant, the 128-bit product's high half xor its
//! low half. A byte string is its length and then its little-endian
//! words, the last one zero-padded. The state starts at a seed drawn
//! once per process from std's [`RandomState`], so every map of one
//! process hashes a key alike and no two processes are likely to.
//!
//! Why not SipHash: it is a keyed pseudo-random function, about 20 ns
//! for one `u64`, and the hash join's probe of a fixed-width key paid it
//! at every step of a recursion. A folded multiply is one `mul`.
//!
//! HashDoS: the keys these tables hash come from the engine's own data —
//! a statement's rows, its text, relation names — and a `solvedbd`
//! client chooses them. It does not see the seed, and the seed is drawn
//! when the process starts, so it cannot compute ahead of time a key set
//! that collides in a server it has not yet talked to. The hash is not a
//! cryptographic one: a client that could observe a table's bucket
//! layout could search for collisions, which would slow its own
//! statement's hash operators towards a linear scan. Equality decides
//! every lookup, so no collision changes an answer.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` that hashes with [`FastHasher`].
#[allow(clippy::disallowed_types)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;

/// A `HashSet` that hashes with [`FastHasher`].
#[allow(clippy::disallowed_types)]
pub type FastSet<K> = std::collections::HashSet<K, FastState>;

/// An odd 64-bit constant with its bits spread (the fractional part of
/// the golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 128-bit product of `a` and `b`, its high half xor its low half.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product >> 64) as u64 ^ product as u64
}

/// The process's seed, drawn the first time a map is made.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// What a [`FastMap`] or [`FastSet`] builds its hashers from: the
/// process's seed.
#[derive(Clone, Copy, Debug)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> FastState {
        FastState { seed: seed() }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.seed }
    }
}

/// One folded multiply per `u64` word.
#[derive(Clone, Debug)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, MULTIPLIER);
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::value::num_bits;
    use crate::types::GroupKey;

    /// The hashes of the engine's own key spaces, 4096 keys each: lone
    /// fixed-width keys as the key index hashes them (the integer, the
    /// microseconds, a float's `num_bits`), and short texts as
    /// `GroupKey`s.
    fn key_spaces(state: &FastState) -> Vec<(&'static str, Vec<u64>)> {
        const HOUR_US: u64 = 3_600_000_000;
        let words = |f: &dyn Fn(u64) -> u64| (0..4096).map(|k| state.hash_one(f(k))).collect();
        let text = |k| state.hash_one(GroupKey::Text(format!("item{k}").into()));
        vec![
            ("hourly timestamps", words(&|k| 1_600_000_000_000_000 + k * HOUR_US)),
            ("consecutive ints", words(&|k| k)),
            ("multiples of 2^32", words(&|k| k << 32)),
            ("num_bits(k / 2)", words(&|k| num_bits(k as f64 / 2.0))),
            ("short texts", (0..4096).map(text).collect()),
        ]
    }

    /// The low 12 bits are the bucket of a 4096-slot table, the top 7
    /// hashbrown's control byte: both spread over each key space about
    /// as a uniform hash would (it fills ≈ 63 % of 4096 buckets with
    /// 4096 keys, and all 128 control values).
    #[test]
    fn the_engine_key_spaces_spread_over_buckets_and_control_bytes() {
        for (name, hashes) in key_spaces(&FastState::default()) {
            let buckets: FastSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
            let control: FastSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(buckets.len() * 100 >= 55 * 4096, "{name}: {} buckets", buckets.len());
            assert!(control.len() >= 100, "{name}: {} control values", control.len());
        }
    }

    /// One seed per process: two maps hash a key alike, whether a word or
    /// a derived `Hash`.
    #[test]
    fn two_maps_of_one_process_hash_a_key_alike() {
        let (a, b) = (FastState::default(), FastState::default());
        for key in [GroupKey::Ts(7), GroupKey::Text("x".into()), GroupKey::Null] {
            assert_eq!(a.hash_one(&key), b.hash_one(&key));
        }
        assert_eq!(a.hash_one(42u64), b.hash_one(42u64));
        let mut map: FastMap<u64, u32> = FastMap::default();
        map.insert(42, 1);
        assert_eq!(map.get(&42), Some(&1));
    }

    /// A byte string hashes its length: texts that differ only in
    /// trailing zero bytes, or where one word ends, hash apart.
    #[test]
    fn byte_strings_hash_their_length() {
        let state = FastState::default();
        let of = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(of(b"ab"), of(b"ab\0"));
        assert_ne!(of(b"abcdefg"), of(b"abcdefg\0"));
        assert_ne!(of(b""), of(b"\0"));
    }
}
