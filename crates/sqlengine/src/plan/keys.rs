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
use crate::types::value::{exact_f64, exact_i64, num_bits};
use crate::types::{GroupKey, Value};
use std::collections::HashMap;
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
    fixed: HashMap<u64, u32>,
    /// Every other key: several columns, a column of another kind, and a
    /// value the kind cannot hold (`2.5` in an `Int` index) — which under
    /// `GroupKey` equality equals nothing `fixed` holds, so a key column
    /// may change representation from one batch or step to the next.
    keys: HashMap<Vec<GroupKey>, u32>,
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
        use KeyKind::{Float, Int, Iv, Ts};
        match v {
            Value::Int(i) => match self {
                Int => Some(*i as u64),
                Float => exact_f64(*i).map(num_bits),
                Ts | Iv => None,
            },
            Value::Float(f) => match self {
                Int => exact_i64(*f).map(|i| i as u64),
                Float => Some(num_bits(*f)),
                Ts | Iv => None,
            },
            Value::Timestamp(t) => (self == Ts).then_some(*t as u64),
            Value::Interval(t) => (self == Iv).then_some(*t as u64),
            Value::Null | Value::Bool(_) | Value::Text(_) | Value::Bits(_) | Value::Custom(_) => {
                None
            }
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
