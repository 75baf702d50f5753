//! One key index for every hash operator of the batch executor: the hash
//! join's build, GROUP BY, DISTINCT, a `UNION` recursion's duplicate
//! elimination and the set operations map each row's key to a dense id
//! through a [`KeyIndex`], and nothing else outside the reference
//! interpreter hashes a key.
//!
//! A key is the [`GroupKey`] of each of its columns: `1` is `1.0`, `-0.0`
//! is `0.0`, an integer that no `f64` holds is only itself, values of two
//! kinds are two keys, and NULL is a key like any other (a join leaves
//! such rows out itself). A lone key column of a fixed-width kind is keyed
//! as one `u64` in that kind's space ([`KeyKind`]) — the same equality,
//! without a `GroupKey` per row.

use super::columnar::ColumnVec;
use crate::hash::FastMap;
use crate::types::value::{exact_f64, exact_i64, num_bits, Scalar};
use crate::types::{GroupKey, Value};
use std::sync::Arc;

/// The distinct keys of the rows inserted, each with a dense `u32` id in
/// the order they were first seen. The keys of one index all have the
/// same number of columns.
#[derive(Default)]
pub(crate) struct KeyIndex {
    /// Decided by the first key inserted: the kind of a lone key column,
    /// when it is of a fixed-width kind.
    kind: Option<Option<KeyKind>>,
    /// The keys that kind holds, by their `u64`.
    fixed: FastMap<u64, u32>,
    /// Every other key: several columns, a column of another kind, and a
    /// value the kind cannot hold (`2.5` in an `Int` index) — which under
    /// `GroupKey` equality equals nothing `fixed` holds, so a key column
    /// may change representation from one batch or step to the next.
    keys: FastMap<Vec<GroupKey>, u32>,
    /// Scratch for a key about to be looked up in `keys`.
    scratch: Vec<GroupKey>,
}

impl KeyIndex {
    /// An index over keys of the columns `cols`, whose kind it takes even
    /// when they have no rows, sized for `capacity` keys so that it does
    /// not rehash below that.
    pub(crate) fn for_columns(cols: &[Arc<ColumnVec>], capacity: usize) -> KeyIndex {
        let kind = Slot(cols, 0).kind();
        let mut index = KeyIndex { kind: Some(kind), ..KeyIndex::default() };
        match kind {
            Some(_) => index.fixed.reserve(capacity),
            None => index.keys.reserve(capacity),
        }
        index
    }

    pub(crate) fn len(&self) -> usize {
        self.fixed.len() + self.keys.len()
    }

    /// The id of `key`, a new one when it was not in the index.
    pub(crate) fn insert(&mut self, key: impl Key) -> u32 {
        let next = self.len() as u32;
        if let Some(k) =
            self.kind.get_or_insert_with(|| key.kind()).and_then(|kind| key.fixed(kind))
        {
            return *self.fixed.entry(k).or_insert(next);
        }
        self.scratch.clear();
        key.group_keys(&mut self.scratch);
        // The key of no columns is the one key there is: not hashed again.
        if self.scratch.is_empty() && next > 0 {
            return 0;
        }
        if let Some(&id) = self.keys.get(self.scratch.as_slice()) {
            return id;
        }
        self.keys.insert(self.scratch.clone(), next);
        next
    }

    /// [`Self::insert`]: was `key` new?
    pub(crate) fn is_new(&mut self, key: impl Key) -> bool {
        let next = self.len() as u32;
        self.insert(key) == next
    }

    /// The id of `key`, if it is in the index; `scratch` is scratch.
    pub(crate) fn get(&self, key: impl Key, scratch: &mut Vec<GroupKey>) -> Option<u32> {
        if let Some(k) = self.kind.flatten().and_then(|kind| key.fixed(kind)) {
            return self.fixed.get(&k).copied();
        }
        scratch.clear();
        key.group_keys(scratch);
        self.keys.get(scratch.as_slice()).copied()
    }

    /// What `EXPLAIN ANALYZE` calls the index over keys of `columns`
    /// columns: `num`, `ts` or `iv` for a lone column of that kind,
    /// `generic` for a lone column of another, `multi` for several and
    /// `none` for none.
    pub(crate) fn label(&self, columns: usize) -> &'static str {
        match (self.kind.flatten(), columns) {
            (Some(kind), _) => kind.name(),
            (None, 0) => "none",
            (None, 1) => "generic",
            (None, _) => "multi",
        }
    }
}

/// A key as [`KeyIndex`] reads it: a row of batch columns ([`Slot`]) or
/// a row of values.
pub(crate) trait Key: Copy {
    /// The kind an index takes from this key when it is the first.
    fn kind(self) -> Option<KeyKind>;
    /// The key in `kind`'s space, when it is one column whose value that
    /// kind holds.
    fn fixed(self, kind: KeyKind) -> Option<u64>;
    /// One `GroupKey` per column, onto `out`.
    fn group_keys(self, out: &mut Vec<GroupKey>);
}

impl Key for &[Scalar] {
    fn kind(self) -> Option<KeyKind> {
        match self {
            [s] => KeyKind::of_value(&s.value()),
            _ => None,
        }
    }

    fn fixed(self, kind: KeyKind) -> Option<u64> {
        match self {
            [s] => kind.key_of(*s),
            _ => None,
        }
    }

    fn group_keys(self, out: &mut Vec<GroupKey>) {
        out.extend(self.iter().map(|s| s.value().group_key()));
    }
}

/// Row `.1` of the key columns `.0`.
#[derive(Clone, Copy)]
pub(crate) struct Slot<'a>(pub &'a [Arc<ColumnVec>], pub usize);

impl Key for Slot<'_> {
    fn kind(self) -> Option<KeyKind> {
        match self.0 {
            [col] => KeyKind::of(col),
            _ => None,
        }
    }

    fn fixed(self, kind: KeyKind) -> Option<u64> {
        match self.0 {
            [col] => kind.key_at(col, self.1),
            _ => None,
        }
    }

    fn group_keys(self, out: &mut Vec<GroupKey>) {
        out.extend(self.0.iter().map(|c| c.get(self.1).group_key()));
    }
}

impl Key for &[Value] {
    fn kind(self) -> Option<KeyKind> {
        match self {
            [v] => KeyKind::of_value(v),
            _ => None,
        }
    }

    fn fixed(self, kind: KeyKind) -> Option<u64> {
        match self {
            [v] => kind.key(v),
            _ => None,
        }
    }

    fn group_keys(self, out: &mut Vec<GroupKey>) {
        out.extend(self.iter().map(Value::group_key));
    }
}

/// The kind of a lone key column of fixed width, and with it the `u64`
/// space its keys are in: the integer itself, the bits [`GroupKey::Num`]
/// holds for a float, the microseconds of a timestamp or an interval. A
/// value meets exactly the values whose `GroupKey` equals its own, so `1`
/// meets `1.0` and a value of another kind (`ts = 5`) none of them.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum KeyKind {
    Int,
    Float,
    Ts,
    Iv,
}

#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
impl KeyKind {
    fn of(col: &ColumnVec) -> Option<KeyKind> {
        match col {
            ColumnVec::Int(..) => Some(KeyKind::Int),
            ColumnVec::Float(..) => Some(KeyKind::Float),
            ColumnVec::Ts(..) => Some(KeyKind::Ts),
            ColumnVec::Iv(..) => Some(KeyKind::Iv),
            ColumnVec::Bool(..) | ColumnVec::Text(..) | ColumnVec::Any(..) => None,
        }
    }

    fn of_value(v: &Value) -> Option<KeyKind> {
        match v {
            Value::Int(_) => Some(KeyKind::Int),
            Value::Float(_) => Some(KeyKind::Float),
            Value::Timestamp(_) => Some(KeyKind::Ts),
            Value::Interval(_) => Some(KeyKind::Iv),
            Value::Null | Value::Bool(_) | Value::Text(_) | Value::Bits(_) | Value::Custom(_) => {
                None
            }
        }
    }

    /// The key of `v` in this kind's space; `None` for NULL and for a
    /// value that no value of the kind equals.
    fn key(self, v: &Value) -> Option<u64> {
        Scalar::of(v).and_then(|s| self.key_of(s))
    }

    /// [`Self::key`] of a scalar.
    fn key_of(self, s: Scalar) -> Option<u64> {
        use KeyKind::{Float, Int, Iv, Ts};
        match s {
            Scalar::Int(i) => match self {
                Int => Some(i as u64),
                Float => exact_f64(i).map(num_bits),
                Ts | Iv => None,
            },
            Scalar::Float(f) => match self {
                Int => exact_i64(f).map(|i| i as u64),
                Float => Some(num_bits(f)),
                Ts | Iv => None,
            },
            Scalar::Ts(t) => (self == Ts).then_some(t as u64),
            Scalar::Iv(t) => (self == Iv).then_some(t as u64),
            Scalar::Bool(_) => None,
        }
    }

    /// [`Self::key`] of slot `i` of `col`, read in place where the column
    /// is of this kind; any other column goes by its value.
    fn key_at(self, col: &ColumnVec, i: usize) -> Option<u64> {
        match (self, col) {
            (KeyKind::Int, ColumnVec::Int(v, valid))
            | (KeyKind::Ts, ColumnVec::Ts(v, valid))
            | (KeyKind::Iv, ColumnVec::Iv(v, valid)) => valid.get(i).then(|| v[i] as u64),
            (KeyKind::Float, ColumnVec::Float(v, valid)) => valid.get(i).then(|| num_bits(v[i])),
            _ => self.key(&col.get(i)),
        }
    }

    fn name(self) -> &'static str {
        match self {
            KeyKind::Int | KeyKind::Float => "num",
            KeyKind::Ts => "ts",
            KeyKind::Iv => "iv",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::columnar::Batch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const HOUR_US: i64 = 3_600_000_000;
    /// 2^53 + 1, an integer no `f64` holds.
    const PAST_F64: i64 = (1 << 53) + 1;

    /// A value of kind `kind`, from a pool small enough that keys repeat:
    /// integers (2^53 + 1 and its neighbours among them), floats (`-0.0`
    /// beside `0.0`, `1.0` beside `1`, NaN), timestamps at an hourly µs
    /// stride, intervals of the same microseconds, texts and NULL.
    fn value(rng: &mut StdRng, kind: u8) -> Value {
        fn pick<T: Copy>(rng: &mut StdRng, pool: &[T]) -> T {
            pool[rng.gen_range(0..pool.len())]
        }
        let rare = rng.gen_bool(0.125);
        match kind {
            0 if rare => Value::Int(pick(rng, &[PAST_F64, PAST_F64 - 1, -PAST_F64, i64::MAX])),
            0 => Value::Int(rng.gen_range(-3..4)),
            1 if rare => Value::Float(pick(rng, &[-0.0, 2.5, f64::NAN, (1i64 << 53) as f64])),
            1 => Value::Float(rng.gen_range(-3..4) as f64),
            2 => Value::Timestamp(1_600_000_000_000_000 + rng.gen_range(0..8i64) * HOUR_US),
            3 => Value::Interval(rng.gen_range(0..4i64) * HOUR_US),
            4 => Value::text(pick(rng, &["a", "b", "1"])),
            _ => Value::Null,
        }
    }

    /// A stream of keys of `width` columns: each column has a kind of its
    /// own that most of its values take, the rest of any kind — so the
    /// first key decides the index's kind and later ones change
    /// representation.
    fn stream(rng: &mut StdRng, width: usize, len: usize) -> Vec<Vec<Value>> {
        let home: Vec<u8> = (0..width).map(|_| rng.gen_range(0..6)).collect();
        let mut column = |&home: &u8| {
            let kind = if rng.gen_bool(0.85) { home } else { rng.gen_range(0..6) };
            value(rng, kind)
        };
        (0..len).map(|_| home.iter().map(&mut column).collect()).collect()
    }

    /// Dense first-seen ids under `GroupKey` equality, by linear scan.
    struct Reference(Vec<Vec<GroupKey>>);

    impl Reference {
        fn get(&self, key: &[Value]) -> Option<u32> {
            let key: Vec<GroupKey> = key.iter().map(Value::group_key).collect();
            self.0.iter().position(|k| *k == key).map(|id| id as u32)
        }

        fn insert(&mut self, key: &[Value]) -> u32 {
            self.get(key).unwrap_or_else(|| {
                self.0.push(key.iter().map(Value::group_key).collect());
                self.0.len() as u32 - 1
            })
        }
    }

    /// Random key streams inserted into a `KeyIndex` as rows of values
    /// and as slots of batches (the kind taken from the first batch's
    /// columns, one batch per random chunk) get the reference's ids, and
    /// `get` — of values, of scalars where every column is one, of slots
    /// — agrees with it for every key inserted and for keys that were not.
    #[test]
    fn key_index_ids_match_a_linear_scan_reference() {
        let mut rng = StdRng::seed_from_u64(0x6b65_7973);
        for _ in 0..400 {
            let (width, len) = (rng.gen_range(1..4), rng.gen_range(1..120));
            let keys = stream(&mut rng, width, len);
            let mut reference = Reference(Vec::new());
            let expected: Vec<u32> = keys.iter().map(|k| reference.insert(k)).collect();

            let mut by_value = KeyIndex::default();
            let ids: Vec<u32> = keys.iter().map(|k| by_value.insert(&k[..])).collect();
            assert_eq!(ids, expected, "values: {keys:?}");

            let mut batches = Vec::new();
            let mut rest = &keys[..];
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.gen_range(1..40usize).min(rest.len()));
                batches.push(Batch::from_rows(chunk, None));
                rest = tail;
            }
            let mut by_slot = KeyIndex::for_columns(&batches[0].cols, keys.len());
            let slots = batches.iter().flat_map(|b| (0..b.len).map(|i| Slot(&b.cols, i)));
            let ids: Vec<u32> = slots.map(|slot| by_slot.insert(slot)).collect();
            assert_eq!(ids, expected, "slots: {keys:?}");

            let probes = [keys.clone(), stream(&mut rng, width, 20)].concat();
            let probe_batch = Batch::from_rows(&probes, None);
            let mut scratch = Vec::new();
            for (i, probe) in probes.iter().enumerate() {
                let want = reference.get(probe);
                for index in [&by_value, &by_slot] {
                    assert_eq!(index.get(&probe[..], &mut scratch), want, "{probe:?}");
                    let slot = Slot(&probe_batch.cols, i);
                    assert_eq!(index.get(slot, &mut scratch), want, "{probe:?}");
                    if let Some(scalars) = probe.iter().map(Scalar::of).collect::<Option<Vec<_>>>()
                    {
                        assert_eq!(index.get(&scalars[..], &mut scratch), want, "{probe:?}");
                    }
                }
            }
        }
    }
}
