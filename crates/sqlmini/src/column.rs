//! One heap column, stored by type, and the kernels that read it.
//!
//! A [`Column`] keeps its values in the narrowest form their type has:
//! `Int` as `i64`, `Float` as `f64`, `Date` as `i32`, `Bool` as packed
//! bits, and `Str` as a `u32` code into one dictionary of `Arc<str>` per
//! column (so a row's string costs four bytes, and equal strings share a
//! code). Beside the values sits a null bitmap. The first value that is
//! not NULL picks the representation; nothing is enforced on write, so a
//! column that then receives a value of another variant (an `Int` in a
//! `Float` column, a string in an `Int` column) or a NaN moves, for good,
//! to per-value storage: one [`Value`] a slot, exactly as written. Every
//! value reads back as the variant it was written as, in every
//! representation.
//!
//! The kernels answer the executor's questions over a whole column
//! without building a `Value`: `Filter` evaluates `column op operand`
//! for one slot or for 64 at a time, exactly as [`CmpOp::eval`] would on
//! the stored value; `Column::word` gives each value a 64-bit word whose
//! equality is `Value`'s equality within the column, for grouping and
//! join keys; `Column::image` gives it an order-preserving image for
//! the index build's sort. NaN is why a float column falls back: under
//! `Value`'s order a NaN equals every number, which no word can say.

use crate::exec::WordState;
use crate::query::CmpOp;
use crate::types::{str_position, Value, ValueType};
use std::collections::HashMap;
use std::sync::Arc;

/// A vector of bits, 64 to a word; the bits of the last word past the
/// length are zero.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub(crate) fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    pub(crate) fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, bit);
    }

    /// Bits `64 w .. 64 w + 64`, the first in the lowest place.
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Number of words: `len` rounded up to a multiple of 64, over 64.
    pub(crate) fn n_words(&self) -> usize {
        self.words.len()
    }

    /// Indices of the set bits from `start` on, rising.
    pub(crate) fn ones_from(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        let first = start / 64;
        let words = self.words.iter().enumerate().skip(first);
        words.flat_map(move |(w, &word)| {
            let word = if w == first && !start.is_multiple_of(64) {
                word & !((1u64 << (start % 64)) - 1)
            } else {
                word
            };
            set_bits(word).map(move |b| w * 64 + b)
        })
    }

    pub(crate) fn reserve(&mut self, additional: usize) {
        let words = (self.len + additional).div_ceil(64);
        self.words
            .reserve_exact(words.saturating_sub(self.words.len()));
    }

    /// Append `n` copies of `bit`.
    pub(crate) fn extend(&mut self, n: usize, bit: bool) {
        // Word at a time where the words are whole.
        let mut left = n;
        while left > 0 && !self.len.is_multiple_of(64) {
            self.push(bit);
            left -= 1;
        }
        let fill = if bit { u64::MAX } else { 0 };
        while left >= 64 {
            self.words.push(fill);
            self.len += 64;
            left -= 64;
        }
        for _ in 0..left {
            self.push(bit);
        }
    }
}

/// Positions of the set bits of `word`, rising.
pub(crate) fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// A column's strings, each once, with the code each goes by.
#[derive(Debug, Clone, Default)]
struct Dict {
    strings: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32, WordState>,
}

impl Dict {
    fn code(&mut self, s: Arc<str>) -> u32 {
        if let Some(&c) = self.codes.get(&s) {
            return c;
        }
        let c = u32::try_from(self.strings.len()).expect("fewer than 2^32 strings in a column");
        self.strings.push(s.clone());
        self.codes.insert(s, c);
        c
    }
}

/// How a column holds its values (see the module doc).
#[derive(Debug, Clone, Default)]
enum Data {
    /// Nothing but NULLs so far.
    #[default]
    Nulls,
    Int(Vec<i64>),
    /// Never a NaN.
    Float(Vec<f64>),
    Date(Vec<i32>),
    Bool(Bits),
    Str(Vec<u32>, Dict),
    /// Values of more than one variant, or a NaN: one `Value` a slot.
    Values(Vec<Value>),
}

/// One column of a heap: a value per slot, stored by type (module doc).
/// A NULL slot holds a zero (code 0 for strings) under its null bit.
#[derive(Debug, Clone, Default)]
pub struct Column {
    data: Data,
    /// Bit `i` set: slot `i` is NULL.
    nulls: Bits,
}

impl Column {
    /// An empty column.
    pub fn new() -> Column {
        Column::default()
    }

    /// An empty column already in the representation of `ty`, with room
    /// for `capacity` values: what a generator that knows the type uses.
    pub fn of_type(ty: ValueType, capacity: usize) -> Column {
        let data = match ty {
            ValueType::Int => Data::Int(Vec::with_capacity(capacity)),
            ValueType::Float => Data::Float(Vec::with_capacity(capacity)),
            ValueType::Date => Data::Date(Vec::with_capacity(capacity)),
            ValueType::Bool => Data::Bool(Bits::default()),
            ValueType::Str => Data::Str(Vec::with_capacity(capacity), Dict::default()),
        };
        let mut nulls = Bits::default();
        nulls.reserve(capacity);
        Column { data, nulls }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the column holds one `Value` a slot: it received values of
    /// more than one variant, or a NaN.
    pub fn is_per_value(&self) -> bool {
        matches!(self.data, Data::Values(_))
    }

    /// Whether slot `i` is NULL.
    pub(crate) fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i)
    }

    /// The value at slot `i`, as it was written.
    pub fn value(&self, i: usize) -> Value {
        if self.nulls.get(i) {
            return Value::Null;
        }
        match &self.data {
            Data::Nulls => Value::Null,
            Data::Int(v) => Value::Int(v[i]),
            Data::Float(v) => Value::Float(v[i]),
            Data::Date(v) => Value::Date(v[i]),
            Data::Bool(v) => Value::Bool(v.get(i)),
            Data::Str(v, d) => Value::Str(d.strings[v[i] as usize].clone()),
            Data::Values(v) => v[i].clone(),
        }
    }

    /// Append a value.
    #[inline]
    pub fn push(&mut self, v: Value) {
        let null = v.is_null();
        if !null && !self.fits(&v) {
            self.make_room_for(&v);
        }
        self.nulls.push(null);
        match &mut self.data {
            Data::Nulls => {}
            Data::Int(c) => c.push(if let Value::Int(x) = v { x } else { 0 }),
            Data::Float(c) => c.push(if let Value::Float(x) = v { x } else { 0.0 }),
            Data::Date(c) => c.push(if let Value::Date(x) = v { x } else { 0 }),
            Data::Bool(c) => c.push(matches!(v, Value::Bool(true))),
            Data::Str(c, d) => c.push(if let Value::Str(s) = v { d.code(s) } else { 0 }),
            Data::Values(c) => c.push(v),
        }
    }

    /// Write a value over slot `i`.
    pub(crate) fn set(&mut self, i: usize, v: Value) {
        let null = v.is_null();
        if !null && !self.fits(&v) {
            self.make_room_for(&v);
        }
        self.nulls.set(i, null);
        match &mut self.data {
            Data::Nulls => {}
            Data::Int(c) => c[i] = if let Value::Int(x) = v { x } else { 0 },
            Data::Float(c) => c[i] = if let Value::Float(x) = v { x } else { 0.0 },
            Data::Date(c) => c[i] = if let Value::Date(x) = v { x } else { 0 },
            Data::Bool(c) => c.set(i, matches!(v, Value::Bool(true))),
            Data::Str(c, d) => c[i] = if let Value::Str(s) = v { d.code(s) } else { 0 },
            Data::Values(c) => c[i] = v,
        }
    }

    /// The code of `s` in a string column's dictionary, added if new.
    /// With [`push_code`](Self::push_code), a generator drawing from a
    /// fixed set of strings looks each up once, not once a row.
    ///
    /// # Panics
    /// If the column does not hold strings by code.
    pub fn intern(&mut self, s: Arc<str>) -> u32 {
        match &mut self.data {
            Data::Str(_, d) => d.code(s),
            _ => panic!("intern on a column that is not a string column"),
        }
    }

    /// Append the string with dictionary code `code` ([`intern`](Self::intern)).
    pub fn push_code(&mut self, code: u32) {
        match &mut self.data {
            Data::Str(c, d) if (code as usize) < d.strings.len() => c.push(code),
            _ => panic!("push_code of an unknown code"),
        }
        self.nulls.push(false);
    }

    /// Make room for `additional` more values.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.nulls.reserve(additional);
        match &mut self.data {
            Data::Nulls => {}
            Data::Int(c) => c.reserve_exact(additional),
            Data::Float(c) => c.reserve_exact(additional),
            Data::Date(c) => c.reserve_exact(additional),
            Data::Bool(c) => c.reserve(additional),
            Data::Str(c, _) => c.reserve_exact(additional),
            Data::Values(c) => c.reserve_exact(additional),
        }
    }

    /// Whether `v` (not NULL) can be stored as it is.
    fn fits(&self, v: &Value) -> bool {
        match (&self.data, v) {
            (Data::Int(_), Value::Int(_))
            | (Data::Date(_), Value::Date(_))
            | (Data::Bool(_), Value::Bool(_))
            | (Data::Str(..), Value::Str(_))
            | (Data::Values(_), _) => true,
            (Data::Float(_), Value::Float(x)) => !x.is_nan(),
            _ => false,
        }
    }

    /// Change representation so that `v`, which does not fit, does: an
    /// all-NULL column takes `v`'s type, any other goes per value.
    fn make_room_for(&mut self, v: &Value) {
        let n = self.len();
        self.data = match (&self.data, v) {
            (Data::Nulls, Value::Int(_)) => Data::Int(vec![0; n]),
            (Data::Nulls, Value::Float(x)) if !x.is_nan() => Data::Float(vec![0.0; n]),
            (Data::Nulls, Value::Date(_)) => Data::Date(vec![0; n]),
            (Data::Nulls, Value::Bool(_)) => {
                let mut bits = Bits::default();
                bits.extend(n, false);
                Data::Bool(bits)
            }
            (Data::Nulls, Value::Str(_)) => Data::Str(vec![0; n], Dict::default()),
            _ => Data::Values((0..n).map(|i| self.value(i)).collect()),
        };
    }

    /// A word for the value at slot `i` (not NULL) such that, within this
    /// column, two values are equal under `Value`'s order exactly when
    /// their words are: `-0.0` and `0.0` share one.
    ///
    /// # Panics
    /// If the values have no words ([`word_kind`](Self::word_kind) is `None`).
    pub(crate) fn word(&self, i: usize) -> u64 {
        match &self.data {
            Data::Int(v) => v[i] as u64,
            Data::Float(v) if v[i] == 0.0 => 0,
            Data::Float(v) => v[i].to_bits(),
            Data::Date(v) => v[i] as u32 as u64,
            Data::Bool(v) => u64::from(v.get(i)),
            Data::Str(v, _) => u64::from(v[i]),
            Data::Nulls | Data::Values(_) => unreachable!("no words in {:?}", self.data),
        }
    }

    /// What the words of [`word`](Self::word) mean, or `None` where it
    /// has none: two columns' words compare only under one kind, and a
    /// code never equals another dictionary's code.
    pub(crate) fn word_kind(&self) -> Option<WordKind> {
        Some(match &self.data {
            Data::Int(_) => WordKind::Int,
            Data::Float(_) => WordKind::Float,
            Data::Date(_) => WordKind::Date,
            Data::Bool(_) => WordKind::Bool,
            Data::Str(_, d) => WordKind::Code(d.strings.len()),
            Data::Nulls | Data::Values(_) => return None,
        })
    }

    /// Every value, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(|i| self.value(i))
    }

    /// The values of a per-value column.
    pub(crate) fn as_values(&self) -> Option<&[Value]> {
        match &self.data {
            Data::Values(v) => Some(v),
            _ => None,
        }
    }

    /// For a string column, each code's rank among the dictionary's
    /// strings in order (the images [`image`](Self::image) gives them);
    /// empty for any other column.
    pub(crate) fn code_ranks(&self) -> Vec<u64> {
        let Data::Str(_, d) = &self.data else {
            return Vec::new();
        };
        let mut order: Vec<u32> = (0..d.strings.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| d.strings[a as usize].cmp(&d.strings[b as usize]));
        let mut ranks = vec![0; order.len()];
        for (rank, &code) in order.iter().enumerate() {
            ranks[code as usize] = rank as u64;
        }
        ranks
    }

    /// An order-preserving 64-bit image of the value at slot `i` (not
    /// NULL), exact within the column: images compare as the values do
    /// under `Value`'s order. `ranks` is [`code_ranks`](Self::code_ranks).
    /// `None` for a column stored per value or all NULL.
    pub(crate) fn image(&self, i: usize, ranks: &[u64]) -> Option<u64> {
        const SIGN: u64 = 1 << 63;
        Some(match &self.data {
            Data::Int(v) => v[i] as u64 ^ SIGN,
            Data::Float(v) => float_image(v[i]),
            Data::Date(v) => i64::from(v[i]) as u64 ^ SIGN,
            Data::Bool(v) => u64::from(v.get(i)),
            Data::Str(v, _) => ranks[v[i] as usize],
            Data::Nulls | Data::Values(_) => return None,
        })
    }

    /// The numeric projection (`Value::as_f64`) of each value at `slots`
    /// that is not NULL, in order, and the number of NULLs among them:
    /// the input of a column's statistics.
    pub(crate) fn positions(&self, slots: &[usize]) -> (Vec<f64>, usize) {
        fn of(slots: &[usize], nulls: &Bits, f: impl Fn(usize) -> f64) -> Vec<f64> {
            let mut out = Vec::with_capacity(slots.len());
            out.extend(slots.iter().filter(|&&i| !nulls.get(i)).map(|&i| f(i)));
            out
        }
        let nulls = &self.nulls;
        let out = match &self.data {
            Data::Nulls => Vec::new(),
            Data::Int(v) => of(slots, nulls, |i| v[i] as f64),
            Data::Float(v) => of(slots, nulls, |i| v[i]),
            Data::Date(v) => of(slots, nulls, |i| f64::from(v[i])),
            Data::Bool(v) => of(slots, nulls, |i| f64::from(u8::from(v.get(i)))),
            Data::Str(v, d) => {
                let of_code: Vec<f64> = d.strings.iter().map(|s| str_position(s)).collect();
                of(slots, nulls, |i| of_code[v[i] as usize])
            }
            Data::Values(v) => of(slots, nulls, |i| v[i].as_f64()),
        };
        let nulls = slots.len() - out.len();
        (out, nulls)
    }

    /// `column op rhs`, compiled against this column's representation.
    pub(crate) fn filter(&self, op: CmpOp, rhs: &Value) -> Filter<'_> {
        use Value as V;
        // An operand of a type that ranks apart from the column's orders
        // the same against every value that is not NULL.
        let rank = |sample: Value| {
            if op.holds(sample.cmp(rhs)) {
                Test::NotNull
            } else {
                Test::Never
            }
        };
        let test = match (&self.data, rhs) {
            (_, V::Null) if op == CmpOp::Eq => Test::Null,
            (_, V::Null) | (Data::Nulls, _) => Test::Never,
            (Data::Values(v), _) => Test::Values(v, op, rhs.clone()),
            (Data::Int(v), V::Int(y)) => Test::Int(v, op, *y),
            (Data::Int(v), V::Float(y)) => Test::IntAsFloat(v, op, *y),
            (Data::Int(_), _) => rank(V::Int(0)),
            (Data::Float(v), V::Float(y)) => Test::Float(v, op, *y),
            (Data::Float(v), V::Int(y)) => Test::Float(v, op, *y as f64),
            (Data::Float(_), _) => rank(V::Float(0.0)),
            (Data::Date(v), V::Date(y)) => Test::Date(v, op, *y),
            (Data::Date(_), _) => rank(V::Date(0)),
            (Data::Bool(v), V::Bool(y)) => Test::Bool(v, [false, true].map(|x| op.holds(x.cmp(y)))),
            (Data::Bool(_), _) => rank(V::Bool(false)),
            // No string written yet: every slot is NULL (and code 0
            // names no string).
            (Data::Str(_, d), _) if d.strings.is_empty() => Test::Never,
            (Data::Str(v, d), V::Str(y)) => {
                let pass = d.strings.iter().map(|s| op.holds((**s).cmp(&**y)));
                Test::Codes(v, pass.collect())
            }
            (Data::Str(..), _) => rank(V::Str("".into())),
        };
        Filter {
            nulls: &self.nulls,
            test,
        }
    }
}

impl FromIterator<Value> for Column {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Column {
        let mut col = Column::new();
        values.into_iter().for_each(|v| col.push(v));
        col
    }
}

/// What the words of a column mean ([`Column::word_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WordKind {
    Int,
    Float,
    Date,
    Bool,
    /// Dictionary codes below the given count.
    Code(usize),
}

/// `f64` (not NaN) to a `u64` of the same order; `-0.0` equals `0.0`.
pub(crate) fn float_image(f: f64) -> u64 {
    let bits = if f == 0.0 { 0 } else { f.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A predicate `column op operand` compiled against the column's
/// representation ([`Column::filter`]). It holds on a slot exactly when
/// `op.eval(value, operand)` does.
pub(crate) struct Filter<'c> {
    nulls: &'c Bits,
    test: Test<'c>,
}

enum Test<'c> {
    /// Holds on no slot.
    Never,
    /// Holds on the NULL slots (`= NULL`).
    Null,
    /// Holds on every slot that is not NULL.
    NotNull,
    Int(&'c [i64], CmpOp, i64),
    /// An `Int` column against a `Float` operand: compared as `f64`, a
    /// NaN operand equal to every value, as `Value` compares them.
    IntAsFloat(&'c [i64], CmpOp, f64),
    /// A `Float` column against a number (an `Int` taken as `f64`).
    Float(&'c [f64], CmpOp, f64),
    Date(&'c [i32], CmpOp, i32),
    /// Whether the predicate holds on `false` and on `true`.
    Bool(&'c Bits, [bool; 2]),
    /// Whether the predicate holds on each dictionary code's string.
    Codes(&'c [u32], Vec<bool>),
    Values(&'c [Value], CmpOp, Value),
}

/// `op` between `x` and `y` as `Value` orders numbers: a pair that
/// `partial_cmp` cannot order (a NaN) counts as equal, so `<=` is "not
/// greater", never `<=` on floats.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord, clippy::double_comparisons)]
fn holds<T: PartialOrd>(op: CmpOp, x: T, y: T) -> bool {
    match op {
        CmpOp::Eq => !(x < y) && !(x > y),
        CmpOp::Ne => x < y || x > y,
        CmpOp::Lt => x < y,
        CmpOp::Le => !(x > y),
        CmpOp::Gt => x > y,
        CmpOp::Ge => !(x < y),
    }
}

/// Bit `i` set where `hit(&vals[i])`.
#[inline(always)]
fn mask_of<T>(vals: &[T], hit: impl Fn(&T) -> bool) -> u64 {
    let mut m = 0u64;
    for (i, x) in vals.iter().enumerate() {
        m |= u64::from(hit(x)) << i;
    }
    m
}

/// Bit `i` set where `op` holds between `conv(vals[i])` and `y`, with
/// the operator chosen once for the whole slice.
#[inline(always)]
fn mask<T: Copy, U: PartialOrd + Copy>(vals: &[T], conv: impl Fn(T) -> U, op: CmpOp, y: U) -> u64 {
    match op {
        CmpOp::Eq => mask_of(vals, |&x| holds(CmpOp::Eq, conv(x), y)),
        CmpOp::Ne => mask_of(vals, |&x| holds(CmpOp::Ne, conv(x), y)),
        CmpOp::Lt => mask_of(vals, |&x| conv(x) < y),
        CmpOp::Le => mask_of(vals, |&x| holds(CmpOp::Le, conv(x), y)),
        CmpOp::Gt => mask_of(vals, |&x| conv(x) > y),
        CmpOp::Ge => mask_of(vals, |&x| holds(CmpOp::Ge, conv(x), y)),
    }
}

impl Filter<'_> {
    /// Whether the predicate holds on slot `i`.
    pub(crate) fn test(&self, i: usize) -> bool {
        match &self.test {
            Test::Never => false,
            Test::Null => self.nulls.get(i),
            Test::Values(v, op, y) => op.eval(&v[i], y),
            _ if self.nulls.get(i) => false,
            Test::NotNull => true,
            Test::Int(v, op, y) => holds(*op, v[i], *y),
            Test::IntAsFloat(v, op, y) => holds(*op, v[i] as f64, *y),
            Test::Float(v, op, y) => holds(*op, v[i], *y),
            Test::Date(v, op, y) => holds(*op, v[i], *y),
            Test::Bool(v, pass) => pass[usize::from(v.get(i))],
            Test::Codes(v, pass) => pass[v[i] as usize],
        }
    }

    /// Where the predicate holds among slots `64 w .. 64 w + 64`: bit `i`
    /// for slot `64 w + i`, zero past the column's end.
    pub(crate) fn word(&self, w: usize) -> u64 {
        let (lo, hi) = (w * 64, (w * 64 + 64).min(self.nulls.len()));
        let nulls = self.nulls.word(w);
        let valid = if hi - lo == 64 {
            u64::MAX
        } else {
            (1u64 << (hi - lo)) - 1
        };
        let hits = match &self.test {
            Test::Never => return 0,
            Test::Null => return nulls,
            Test::Values(v, op, y) => return mask_of(&v[lo..hi], |x| op.eval(x, y)),
            Test::NotNull => valid,
            Test::Int(v, op, y) => mask(&v[lo..hi], |x| x, *op, *y),
            Test::IntAsFloat(v, op, y) => mask(&v[lo..hi], |x| x as f64, *op, *y),
            Test::Float(v, op, y) => mask(&v[lo..hi], |x| x, *op, *y),
            Test::Date(v, op, y) => mask(&v[lo..hi], |x| x, *op, *y),
            Test::Bool(v, [on_false, on_true]) => {
                let b = v.word(w);
                let t = if *on_true { b } else { 0 };
                let f = if *on_false { !b } else { 0 };
                (t | f) & valid
            }
            Test::Codes(v, pass) => mask_of(&v[lo..hi], |&c| pass[c as usize]),
        };
        hits & !nulls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every operand the kernels must agree with `CmpOp::eval` on: each
    /// variant, `Int` against `Float` (numeric), `-0.0` beside `0.0`, NaN,
    /// the ends of `i64`, and ints past 2^53 beside the floats nearest them.
    fn operands() -> Vec<Value> {
        let big = (1i64 << 53) + 1;
        vec![
            Value::Int(-4),
            Value::Int(0),
            Value::Int(3),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Int(big),
            Value::Int(big - 1),
            Value::Float(-4.0),
            Value::Float(2.5),
            Value::Float(3.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(big as f64),
            Value::Float(i64::MAX as f64),
            Value::Float(f64::INFINITY),
            Value::Null,
            Value::Str("a".into()),
            Value::Str("b".into()),
            Value::Str("".into()),
            Value::Str("ab\0".into()),
            Value::Bool(false),
            Value::Bool(true),
            Value::Date(-1),
            Value::Date(3),
        ]
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// A column of each representation, its slots holding `vals` (NULLs
    /// included), 70 slots long so that a word boundary falls inside.
    fn columns() -> Vec<(Column, Vec<Value>)> {
        let ops = operands();
        let of = |pick: &dyn Fn(&Value) -> bool| -> Vec<Value> {
            let mut vals: Vec<Value> = ops.iter().filter(|v| pick(v)).cloned().collect();
            vals.push(Value::Null);
            (0..70).map(|i| vals[i * 7 % vals.len()].clone()).collect()
        };
        let is_float = |v: &Value| matches!(v, Value::Float(x) if !x.is_nan());
        let sets: Vec<Vec<Value>> = vec![
            of(&|v| matches!(v, Value::Int(_))),
            of(&is_float),
            of(&|v| matches!(v, Value::Date(_))),
            of(&|v| matches!(v, Value::Bool(_))),
            of(&|v| matches!(v, Value::Str(_))),
            of(&|_| false),
            // Per value: every operand, NaN included.
            of(&|_| true),
        ];
        let mut cols: Vec<_> = sets
            .into_iter()
            .map(|vals| {
                let mut col = Column::new();
                for v in &vals {
                    col.push(v.clone());
                }
                (col, vals)
            })
            .collect();
        // All NULL in a representation taken before any value came (a
        // string column with nothing in its dictionary among them).
        for ty in [
            ValueType::Int,
            ValueType::Float,
            ValueType::Date,
            ValueType::Bool,
            ValueType::Str,
        ] {
            let mut col = Column::of_type(ty, 70);
            (0..70).for_each(|_| col.push(Value::Null));
            cols.push((col, vec![Value::Null; 70]));
        }
        cols
    }

    /// Each typed predicate kernel agrees with `CmpOp::eval` on every
    /// operand pair, one slot at a time and a word at a time.
    #[test]
    fn kernels_agree_with_eval_on_every_operand_pair() {
        let cols = columns();
        let kinds: Vec<_> = cols
            .iter()
            .map(|(c, _)| std::mem::discriminant(&c.data))
            .collect();
        assert_eq!(
            kinds.iter().collect::<std::collections::HashSet<_>>().len(),
            7,
            "one column of each representation"
        );
        for (col, vals) in &cols {
            for rhs in operands() {
                for op in OPS {
                    let f = col.filter(op, &rhs);
                    let want: Vec<bool> = vals.iter().map(|v| op.eval(v, &rhs)).collect();
                    for (i, &w) in want.iter().enumerate() {
                        assert_eq!(f.test(i), w, "{:?} {op} {rhs:?}", vals[i]);
                    }
                    for w in 0..col.nulls.n_words() {
                        let bits: u64 = want
                            .iter()
                            .enumerate()
                            .skip(w * 64)
                            .take(64)
                            .filter(|(_, &hit)| hit)
                            .fold(0, |m, (i, _)| m | 1 << (i % 64));
                        assert_eq!(f.word(w), bits, "word {w}: {op} {rhs:?} on {:?}", col.data);
                    }
                }
            }
        }
    }

    /// Words are equal exactly where `Value` says the values are, and
    /// images order as the values do, in every typed representation.
    #[test]
    fn words_and_images_follow_value_order() {
        for (col, vals) in columns() {
            let Some(_) = col.word_kind() else {
                assert!(col.is_per_value() || vals.iter().all(Value::is_null));
                continue;
            };
            let ranks = col.code_ranks();
            for (i, a) in vals.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                for (j, b) in vals.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                    assert_eq!(col.word(i) == col.word(j), a == b, "{a:?} {b:?}");
                    let (x, y) = (col.image(i, &ranks), col.image(j, &ranks));
                    assert_eq!(x.cmp(&y), a.cmp(b), "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn bits_extend_and_iterate() {
        let mut b = Bits::default();
        b.extend(3, true);
        b.extend(130, false);
        b.push(true);
        b.extend(70, true);
        assert_eq!(b.len(), 204);
        let ones: Vec<usize> = b.ones_from(0).collect();
        assert_eq!(ones.len(), 74);
        assert_eq!(&ones[..4], &[0, 1, 2, 133]);
        assert!((0..204).all(|i| b.get(i) == ones.contains(&i)));
        assert_eq!(b.ones_from(2).next(), Some(2));
        assert_eq!(b.ones_from(3).next(), Some(133));
        assert_eq!(b.ones_from(140).count(), 64);
    }
}
