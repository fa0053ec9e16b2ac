//! Values stored by type, and the kernels that read them: one heap
//! column, or one column of a B+tree node.
//!
//! `Typed` keeps a run of values in the form its column's declared
//! [`ValueType`] gives them: `Int` as `i64`, `Float` as `f64`, `Date` as
//! `i32`, `Bool` as packed bits, and `Str` as a `u32` code into a
//! dictionary of `Arc<str>` kept by the owner (so a string costs four
//! bytes, and equal strings share a code). Beside the values sits a null
//! bitmap; a NULL slot holds a zero under its null bit. Both storages
//! keep rows as a slice of runs, one per column, beside one dictionary
//! per column: a heap its columns ([`crate::heap`]), a B+tree node its
//! columns with one dictionary per column for the whole tree
//! ([`crate::btree`]). A [`Column`] is one run and its dictionary, the
//! unit a load or a bulk build is handed.
//!
//! The type is fixed when a run is made, and a value written to it must
//! already fit: NULL, or a value of that type that is not a NaN. The
//! engine makes each value fit once, where a statement or a load writes
//! it ([`ValueType::fit`]); a run handed anything else panics. A column
//! therefore keeps one representation for its whole life, and every
//! value reads back as the variant of its column's type.
//!
//! The kernels answer the executor's questions over a run without
//! building a `Value`: a `Test` evaluates `value op operand` for one
//! slot or for 64 at a time, exactly as [`CmpOp::eval`] would on the
//! stored value, and `select` runs tests over a stretch of rows, heap or
//! leaf alike; an `Operand` orders a slot against a value, exactly as
//! `Value::cmp` would (the tree's probes); `Typed::word` gives each
//! value a 64-bit word whose equality is `Value`'s equality within the
//! column, for grouping and join keys; `Typed::image` gives it an
//! order-preserving image for the index build's sort. No column stores a
//! NaN because neither could then exist: under `Value`'s order a NaN
//! equals every number, which no word or image can say. An operand may
//! still be a NaN; the kernels compare against it as `Value` does.

use crate::exec::WordState;
use crate::query::CmpOp;
use crate::types::{str_position, Value, ValueType};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// A vector of bits, 64 to a word; the bits of the last word past the
/// length are zero.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    pub(crate) fn with_capacity(bits: usize) -> Bits {
        Bits {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
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

    /// Insert `bit` at `i`, moving the bits from `i` on up by one.
    pub(crate) fn insert(&mut self, i: usize, bit: bool) {
        debug_assert!(i <= self.len);
        self.push(false);
        let (w0, b) = (i / 64, i % 64);
        for w in (w0 + 1..self.words.len()).rev() {
            self.words[w] = self.words[w] << 1 | self.words[w - 1] >> 63;
        }
        let low = (1u64 << b) - 1;
        let word = self.words[w0];
        self.words[w0] = word & low | (word & !low) << 1 | u64::from(bit) << b;
    }

    /// Remove the bit at `i`, moving the bits after it down by one.
    pub(crate) fn remove(&mut self, i: usize) -> bool {
        let bit = self.get(i);
        let (w0, b) = (i / 64, i % 64);
        let low = (1u64 << b) - 1;
        let word = self.words[w0];
        self.words[w0] = word & low | (word >> 1) & !low;
        for w in w0 + 1..self.words.len() {
            self.words[w - 1] |= self.words[w] << 63;
            self.words[w] >>= 1;
        }
        self.truncate(self.len - 1);
        bit
    }

    /// Keep the first `n` bits.
    pub(crate) fn truncate(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.len = n;
        self.words.truncate(n.div_ceil(64));
        if !n.is_multiple_of(64) {
            self.words[n / 64] &= (1u64 << (n % 64)) - 1;
        }
    }

    /// The 64 bits from bit `start` on, the first in the lowest place;
    /// zero past the end.
    fn bits_from(&self, start: usize) -> u64 {
        let (w, b) = (start / 64, start % 64);
        let lo = self.words.get(w).map_or(0, |x| x >> b);
        let hi = match self.words.get(w + 1) {
            Some(x) if b > 0 => x << (64 - b),
            _ => 0,
        };
        lo | hi
    }

    /// Bits `at..` moved into new bits with room for `capacity`.
    pub(crate) fn split_off(&mut self, at: usize, capacity: usize) -> Bits {
        let mut right = Bits::with_capacity(capacity);
        let n = self.len - at;
        right
            .words
            .extend((0..n.div_ceil(64)).map(|k| self.bits_from(at + 64 * k)));
        right.len = n;
        if !n.is_multiple_of(64) {
            right.words[n / 64] &= (1u64 << (n % 64)) - 1;
        }
        self.truncate(at);
        right
    }

    /// Append every bit of `other`, leaving it empty.
    pub(crate) fn append(&mut self, other: &mut Bits) {
        let b = self.len % 64;
        for &word in &other.words {
            if b == 0 {
                self.words.push(word);
            } else {
                *self.words.last_mut().expect("a partial last word") |= word << b;
                self.words.push(word >> (64 - b));
            }
        }
        // The last high part may open a word no bit reaches.
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
        other.truncate(0);
    }

    /// Bits `64 w .. 64 w + 64`, the first in the lowest place.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
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

/// The strings of a column, each once, with the code each goes by.
///
/// A clone shares the strings: an index built on a heap column starts
/// from the heap column's dictionary, and whichever of the two first adds
/// a string copies the dictionary for itself. Codes already handed out
/// name the same strings in both.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dict(Arc<Strings>);

#[derive(Debug, Clone, Default)]
struct Strings {
    strings: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32, WordState>,
}

impl Dict {
    fn code(&mut self, s: &Arc<str>) -> u32 {
        if let Some(c) = self.code_of(s) {
            return c;
        }
        let d = Arc::make_mut(&mut self.0);
        let c = u32::try_from(d.strings.len()).expect("fewer than 2^32 strings in a column");
        d.strings.push(s.clone());
        d.codes.insert(s.clone(), c);
        c
    }

    /// The code of `s`, if the dictionary holds it.
    fn code_of(&self, s: &str) -> Option<u32> {
        self.0.codes.get(s).copied()
    }

    /// The strings, by code.
    fn strings(&self) -> &[Arc<str>] {
        &self.0.strings
    }

    /// Number of strings.
    pub(crate) fn len(&self) -> usize {
        self.0.strings.len()
    }

    /// Each code's rank among the strings in order: the images
    /// [`Typed::image`] gives a string column's values.
    pub(crate) fn ranks(&self) -> Vec<u64> {
        let d = self.strings();
        let mut order: Vec<u32> = (0..d.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| d[a as usize].cmp(&d[b as usize]));
        let mut ranks = vec![0; order.len()];
        for (rank, &code) in order.iter().enumerate() {
            ranks[code as usize] = rank as u64;
        }
        ranks
    }
}

/// A run's values, in the form of its type.
#[derive(Debug, Clone)]
enum Data {
    Int(Vec<i64>),
    /// Never a NaN.
    Float(Vec<f64>),
    Date(Vec<i32>),
    Bool(Bits),
    /// Codes into the owner's [`Dict`].
    Str(Vec<u32>),
}

/// Where a write into a run goes: after its last slot, before slot `i`
/// (moving the slots from `i` on up by one), or over slot `i`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum At {
    End,
    Before(usize),
    Over(usize),
}

impl At {
    #[inline]
    pub(crate) fn vec<T>(self, c: &mut Vec<T>, x: T) {
        match self {
            At::End => c.push(x),
            At::Before(i) => c.insert(i, x),
            At::Over(i) => c[i] = x,
        }
    }

    #[inline]
    fn bits(self, c: &mut Bits, x: bool) {
        match self {
            At::End => c.push(x),
            At::Before(i) => c.insert(i, x),
            At::Over(i) => c.set(i, x),
        }
    }
}

/// A run of values of one type, beside a null bitmap (module doc). A
/// NULL slot holds a zero (code 0 for strings) under its null bit. String
/// codes index a [`Dict`] its owner keeps; every method that reads or
/// writes a string takes it.
#[derive(Debug, Clone)]
pub(crate) struct Typed {
    data: Data,
    /// Bit `i` set: slot `i` is NULL.
    nulls: Bits,
}

impl Typed {
    /// An empty run of type `ty`, with room for `capacity` values.
    pub(crate) fn new(ty: ValueType, capacity: usize) -> Typed {
        let data = match ty {
            ValueType::Int => Data::Int(Vec::with_capacity(capacity)),
            ValueType::Float => Data::Float(Vec::with_capacity(capacity)),
            ValueType::Date => Data::Date(Vec::with_capacity(capacity)),
            ValueType::Bool => Data::Bool(Bits::with_capacity(capacity)),
            ValueType::Str => Data::Str(Vec::with_capacity(capacity)),
        };
        Typed {
            data,
            nulls: Bits::with_capacity(capacity),
        }
    }

    #[inline]
    pub(crate) fn ty(&self) -> ValueType {
        match self.data {
            Data::Int(_) => ValueType::Int,
            Data::Float(_) => ValueType::Float,
            Data::Date(_) => ValueType::Date,
            Data::Bool(_) => ValueType::Bool,
            Data::Str(_) => ValueType::Str,
        }
    }

    /// Number of slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.nulls.len()
    }

    /// Whether slot `i` is NULL.
    #[inline]
    pub(crate) fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i)
    }

    /// Whether the values agree in number with the null bits, no float is
    /// a NaN, and every string code names a string of `dict`.
    pub(crate) fn is_well_formed(&self, dict: &Dict) -> bool {
        let n = self.len();
        match &self.data {
            Data::Int(v) => v.len() == n,
            Data::Float(v) => v.len() == n && v.iter().all(|x| !x.is_nan()),
            Data::Date(v) => v.len() == n,
            Data::Bool(v) => v.len() == n,
            Data::Str(v) => v.len() == n && v.iter().all(|&c| (c as usize) < dict.len().max(1)),
        }
    }

    /// The value at slot `i`.
    pub(crate) fn value(&self, i: usize, dict: &Dict) -> Value {
        if self.nulls.get(i) {
            return Value::Null;
        }
        match &self.data {
            Data::Int(v) => Value::Int(v[i]),
            Data::Float(v) => Value::Float(v[i]),
            Data::Date(v) => Value::Date(v[i]),
            Data::Bool(v) => Value::Bool(v.get(i)),
            Data::Str(v) => Value::Str(dict.strings()[v[i] as usize].clone()),
        }
    }

    /// Write `v` where `at` says.
    ///
    /// # Panics
    /// If `v` does not fit the run: it is neither NULL nor a value of the
    /// run's type that is not a NaN (module doc).
    #[inline]
    pub(crate) fn store(&mut self, at: At, v: &Value, dict: &mut Dict) {
        let ty = self.ty();
        match (&mut self.data, v) {
            (Data::Int(c), Value::Int(x)) => at.vec(c, *x),
            (Data::Float(c), Value::Float(x)) if !x.is_nan() => at.vec(c, *x),
            (Data::Date(c), Value::Date(x)) => at.vec(c, *x),
            (Data::Bool(c), Value::Bool(x)) => at.bits(c, *x),
            (Data::Str(c), Value::Str(s)) => at.vec(c, dict.code(s)),
            (Data::Int(c), Value::Null) => at.vec(c, 0),
            (Data::Float(c), Value::Null) => at.vec(c, 0.0),
            (Data::Date(c), Value::Null) => at.vec(c, 0),
            (Data::Bool(c), Value::Null) => at.bits(c, false),
            (Data::Str(c), Value::Null) => at.vec(c, 0),
            _ => panic!("{v:?} does not fit a {ty} column"),
        }
        at.bits(&mut self.nulls, v.is_null());
    }

    /// Write a copy of slot `j` of `src`, a run of the same type and
    /// dictionary, where `at` says.
    pub(crate) fn copy(&mut self, at: At, src: &Typed, j: usize) {
        at.bits(&mut self.nulls, src.nulls.get(j));
        match (&mut self.data, &src.data) {
            (Data::Int(c), Data::Int(s)) => at.vec(c, s[j]),
            (Data::Float(c), Data::Float(s)) => at.vec(c, s[j]),
            (Data::Date(c), Data::Date(s)) => at.vec(c, s[j]),
            (Data::Bool(c), Data::Bool(s)) => at.bits(c, s.get(j)),
            (Data::Str(c), Data::Str(s)) => at.vec(c, s[j]),
            _ => unreachable!("a copy between types"),
        }
    }

    /// Append copies of `src`'s slots `slots`, in order (as for
    /// [`copy`](Self::copy)): the index build's gather.
    pub(crate) fn extend_from(&mut self, src: &Typed, slots: &[u32]) {
        let nulls = &src.nulls;
        slots
            .iter()
            .for_each(|&j| self.nulls.push(nulls.get(j as usize)));
        let at = |j: &u32| *j as usize;
        match (&mut self.data, &src.data) {
            (Data::Int(c), Data::Int(s)) => c.extend(slots.iter().map(|j| s[at(j)])),
            (Data::Float(c), Data::Float(s)) => c.extend(slots.iter().map(|j| s[at(j)])),
            (Data::Date(c), Data::Date(s)) => c.extend(slots.iter().map(|j| s[at(j)])),
            (Data::Bool(c), Data::Bool(s)) => slots.iter().for_each(|j| c.push(s.get(at(j)))),
            (Data::Str(c), Data::Str(s)) => c.extend(slots.iter().map(|j| s[at(j)])),
            _ => unreachable!("a copy between types"),
        }
    }

    /// Make room for `additional` more values.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.nulls.reserve(additional);
        match &mut self.data {
            Data::Int(c) => c.reserve_exact(additional),
            Data::Float(c) => c.reserve_exact(additional),
            Data::Date(c) => c.reserve_exact(additional),
            Data::Bool(c) => c.reserve(additional),
            Data::Str(c) => c.reserve_exact(additional),
        }
    }

    /// The numeric projection (`Value::as_f64`) of each value at `slots`
    /// that is not NULL, in order, and the number of NULLs among them:
    /// the input of a column's statistics. `dict` is the run's dictionary.
    pub(crate) fn positions(&self, slots: &[usize], dict: &Dict) -> (Vec<f64>, usize) {
        fn of(slots: &[usize], nulls: &Bits, f: impl Fn(usize) -> f64) -> Vec<f64> {
            let mut out = Vec::with_capacity(slots.len());
            out.extend(slots.iter().filter(|&&i| !nulls.get(i)).map(|&i| f(i)));
            out
        }
        let nulls = &self.nulls;
        let out = match &self.data {
            Data::Int(v) => of(slots, nulls, |i| v[i] as f64),
            Data::Float(v) => of(slots, nulls, |i| v[i]),
            Data::Date(v) => of(slots, nulls, |i| f64::from(v[i])),
            Data::Bool(v) => of(slots, nulls, |i| f64::from(u8::from(v.get(i)))),
            Data::Str(v) => {
                let of_code: Vec<f64> = dict.strings().iter().map(|s| str_position(s)).collect();
                of(slots, nulls, |i| of_code[v[i] as usize])
            }
        };
        let nulls = slots.len() - out.len();
        (out, nulls)
    }

    /// Remove slot `i`.
    pub(crate) fn remove(&mut self, i: usize) {
        self.nulls.remove(i);
        match &mut self.data {
            Data::Int(c) => drop(c.remove(i)),
            Data::Float(c) => drop(c.remove(i)),
            Data::Date(c) => drop(c.remove(i)),
            Data::Bool(c) => drop(c.remove(i)),
            Data::Str(c) => drop(c.remove(i)),
        }
    }

    /// Slots `at..` moved into a new run with room for `capacity`.
    pub(crate) fn split_off(&mut self, at: usize, capacity: usize) -> Typed {
        fn tail<T>(v: &mut Vec<T>, at: usize, capacity: usize) -> Vec<T> {
            let mut right = Vec::with_capacity(capacity);
            right.extend(v.drain(at..));
            right
        }
        let data = match &mut self.data {
            Data::Int(c) => Data::Int(tail(c, at, capacity)),
            Data::Float(c) => Data::Float(tail(c, at, capacity)),
            Data::Date(c) => Data::Date(tail(c, at, capacity)),
            Data::Bool(c) => Data::Bool(c.split_off(at, capacity)),
            Data::Str(c) => Data::Str(tail(c, at, capacity)),
        };
        Typed {
            data,
            nulls: self.nulls.split_off(at, capacity),
        }
    }

    /// Append every slot of `other`, a run of the same type and
    /// dictionary, leaving it empty.
    pub(crate) fn append(&mut self, other: &mut Typed) {
        self.nulls.append(&mut other.nulls);
        match (&mut self.data, &mut other.data) {
            (Data::Int(c), Data::Int(o)) => c.append(o),
            (Data::Float(c), Data::Float(o)) => c.append(o),
            (Data::Date(c), Data::Date(o)) => c.append(o),
            (Data::Bool(c), Data::Bool(o)) => c.append(o),
            (Data::Str(c), Data::Str(o)) => c.append(o),
            _ => unreachable!("an append between types"),
        }
    }

    /// A word for the value at slot `i` (not NULL) such that, within this
    /// run and every run of its dictionary, two values are equal under
    /// `Value`'s order exactly when their words are: `-0.0` and `0.0`
    /// share one.
    #[inline]
    pub(crate) fn word(&self, i: usize) -> u64 {
        match &self.data {
            Data::Int(v) => v[i] as u64,
            Data::Float(v) if v[i] == 0.0 => 0,
            Data::Float(v) => v[i].to_bits(),
            Data::Date(v) => v[i] as u32 as u64,
            Data::Bool(v) => u64::from(v.get(i)),
            Data::Str(v) => u64::from(v[i]),
        }
    }

    /// An order-preserving 64-bit image of the value at slot `i` (not
    /// NULL), exact within the run: images compare as the values do under
    /// `Value`'s order. `ranks` is [`Dict::ranks`] of the run's dictionary.
    pub(crate) fn image(&self, i: usize, ranks: &[u64]) -> u64 {
        const SIGN: u64 = 1 << 63;
        match &self.data {
            Data::Int(v) => v[i] as u64 ^ SIGN,
            Data::Float(v) => float_image(v[i]),
            Data::Date(v) => i64::from(v[i]) as u64 ^ SIGN,
            Data::Bool(v) => u64::from(v.get(i)),
            Data::Str(v) => ranks[v[i] as usize],
        }
    }

    /// How the value at slot `i` orders against the operand of `key`
    /// (compiled for this run's type and `dict`): exactly
    /// `stored.cmp(operand)`.
    #[inline]
    pub(crate) fn cmp_at(&self, i: usize, key: &Operand, dict: &Dict) -> Ordering {
        if self.nulls.get(i) {
            return if matches!(key, Operand::Null) {
                Ordering::Equal
            } else {
                Ordering::Less
            };
        }
        let unordered = |o: Option<Ordering>| o.unwrap_or(Ordering::Equal);
        match (key, &self.data) {
            (Operand::Null, _) => Ordering::Greater,
            (Operand::Rank(o), _) => *o,
            (Operand::Int(y), Data::Int(v)) => v[i].cmp(y),
            (Operand::IntAsFloat(y), Data::Int(v)) => unordered((v[i] as f64).partial_cmp(y)),
            (Operand::Float(y), Data::Float(v)) => unordered(v[i].partial_cmp(y)),
            (Operand::Date(y), Data::Date(v)) => v[i].cmp(y),
            (Operand::Bool(y), Data::Bool(v)) => v.get(i).cmp(y),
            (Operand::Str(_, Some(code)), Data::Str(v)) if v[i] == *code => Ordering::Equal,
            (Operand::Str(y, _), Data::Str(v)) => (*dict.strings()[v[i] as usize]).cmp(*y),
            _ => unreachable!("an operand compiled for another type"),
        }
    }
}

/// A value to order slots against, compiled for one type
/// ([`Typed::cmp_at`]): a key column's part of a B+tree probe.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand<'v> {
    Null,
    /// An operand of a type that ranks apart from the run's: every value
    /// that is not NULL orders thus against it.
    Rank(Ordering),
    Int(i64),
    /// A `Float` operand against an `Int` run: compared as `f64`, a NaN
    /// equal to every value, as `Value` compares them.
    IntAsFloat(f64),
    /// A number against a `Float` run (an `Int` taken as `f64`).
    Float(f64),
    Date(i32),
    Bool(bool),
    /// A string, and its code where the dictionary holds it: a slot of
    /// that code is equal without comparing the strings.
    Str(&'v str, Option<u32>),
}

impl<'v> Operand<'v> {
    /// Whether more than one stored value can equal the operand: a NaN
    /// equals every number, and a float of magnitude 2^53 or more every
    /// int that rounds to it. Entries equal to such an operand need not
    /// be in order in the columns after it.
    pub(crate) fn equals_several(&self) -> bool {
        const EXACT: f64 = (1u64 << 53) as f64;
        match *self {
            Operand::IntAsFloat(y) => y.is_nan() || y.abs() >= EXACT,
            Operand::Float(y) => y.is_nan(),
            _ => false,
        }
    }

    /// `v` compiled for runs of type `ty` whose string codes index `dict`.
    pub(crate) fn new(ty: ValueType, dict: &Dict, v: &'v Value) -> Operand<'v> {
        use Value as V;
        use ValueType as T;
        let rank = |sample: Value| Operand::Rank(sample.cmp(v));
        match (ty, v) {
            (_, V::Null) => Operand::Null,
            (T::Int, V::Int(y)) => Operand::Int(*y),
            (T::Int, V::Float(y)) => Operand::IntAsFloat(*y),
            (T::Int, _) => rank(V::Int(0)),
            (T::Float, V::Float(y)) => Operand::Float(*y),
            (T::Float, V::Int(y)) => Operand::Float(*y as f64),
            (T::Float, _) => rank(V::Float(0.0)),
            (T::Date, V::Date(y)) => Operand::Date(*y),
            (T::Date, _) => rank(V::Date(0)),
            (T::Bool, V::Bool(y)) => Operand::Bool(*y),
            (T::Bool, _) => rank(V::Bool(false)),
            (T::Str, V::Str(y)) => Operand::Str(y, dict.code_of(y)),
            (T::Str, _) => rank(V::Str("".into())),
        }
    }
}

/// One column handed to a load or a bulk build: a value per slot, stored
/// by its type (module doc), and the dictionary of its strings.
#[derive(Debug, Clone)]
pub struct Column {
    vals: Typed,
    dict: Dict,
}

impl Column {
    /// An empty column of type `ty`, with room for `capacity` values.
    pub fn of_type(ty: ValueType, capacity: usize) -> Column {
        Column {
            vals: Typed::new(ty, capacity),
            dict: Dict::default(),
        }
    }

    /// The column's type.
    pub fn ty(&self) -> ValueType {
        self.vals.ty()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed values, and the dictionary their string codes index.
    pub(crate) fn parts(&self) -> (&Typed, &Dict) {
        (&self.vals, &self.dict)
    }

    /// The typed values and their dictionary, taken apart.
    pub(crate) fn into_parts(self) -> (Typed, Dict) {
        (self.vals, self.dict)
    }

    /// The value at slot `i`.
    pub fn value(&self, i: usize) -> Value {
        self.vals.value(i, &self.dict)
    }

    /// Append a value.
    ///
    /// # Panics
    /// If `v` does not fit the column: it is neither NULL nor a value of
    /// the column's type that is not a NaN ([`ValueType::fit`] makes one
    /// fit).
    #[inline]
    pub fn push(&mut self, v: Value) {
        self.vals.store(At::End, &v, &mut self.dict);
    }

    /// The code of `s` in a string column's dictionary, added if new.
    /// With [`push_code`](Self::push_code), a generator drawing from a
    /// fixed set of strings looks each up once, not once a row.
    ///
    /// # Panics
    /// If the column is not a string column.
    pub fn intern(&mut self, s: Arc<str>) -> u32 {
        match &self.vals.data {
            Data::Str(_) => self.dict.code(&s),
            _ => panic!("intern on a column that is not a string column"),
        }
    }

    /// Append the string with dictionary code `code` ([`intern`](Self::intern)).
    pub fn push_code(&mut self, code: u32) {
        match &mut self.vals.data {
            Data::Str(c) if (code as usize) < self.dict.len() => c.push(code),
            _ => panic!("push_code of an unknown code"),
        }
        self.vals.nulls.push(false);
    }

    /// Every value, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(|i| self.value(i))
    }
}

/// `f64` (not NaN) to a `u64` of the same order; `-0.0` equals `0.0`.
fn float_image(f: f64) -> u64 {
    let bits = if f == 0.0 { 0 } else { f.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A predicate `value op operand` compiled against one type and
/// dictionary, bound to no values: it holds on a slot of a run of that
/// type exactly when `op.eval(value, operand)` does.
pub(crate) enum Test {
    /// Holds on no slot.
    Never,
    /// Holds on the NULL slots (`= NULL`).
    Null,
    /// Holds on every slot that is not NULL.
    NotNull,
    Int(CmpOp, i64),
    /// An `Int` run against a `Float` operand: compared as `f64`, a NaN
    /// operand equal to every value, as `Value` compares them.
    IntAsFloat(CmpOp, f64),
    /// A `Float` run against a number (an `Int` taken as `f64`).
    Float(CmpOp, f64),
    Date(CmpOp, i32),
    /// Whether the predicate holds on `false` and on `true`.
    Bool([bool; 2]),
    /// Whether the predicate holds on each dictionary code's string.
    Codes(Vec<bool>),
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

impl Test {
    /// `value op rhs` compiled for runs of type `ty` whose string codes
    /// index `dict`.
    pub(crate) fn new(ty: ValueType, dict: &Dict, op: CmpOp, rhs: &Value) -> Test {
        use Value as V;
        use ValueType as T;
        // An operand of a type that ranks apart from the run's orders the
        // same against every value that is not NULL.
        let rank = |sample: Value| {
            if op.holds(sample.cmp(rhs)) {
                Test::NotNull
            } else {
                Test::Never
            }
        };
        match (ty, rhs) {
            (_, V::Null) if op == CmpOp::Eq => Test::Null,
            (_, V::Null) => Test::Never,
            (T::Int, V::Int(y)) => Test::Int(op, *y),
            (T::Int, V::Float(y)) => Test::IntAsFloat(op, *y),
            (T::Int, _) => rank(V::Int(0)),
            (T::Float, V::Float(y)) => Test::Float(op, *y),
            (T::Float, V::Int(y)) => Test::Float(op, *y as f64),
            (T::Float, _) => rank(V::Float(0.0)),
            (T::Date, V::Date(y)) => Test::Date(op, *y),
            (T::Date, _) => rank(V::Date(0)),
            (T::Bool, V::Bool(y)) => Test::Bool([false, true].map(|x| op.holds(x.cmp(y)))),
            (T::Bool, _) => rank(V::Bool(false)),
            // No string written yet: every slot is NULL (and code 0
            // names no string).
            (T::Str, _) if dict.len() == 0 => Test::Never,
            (T::Str, V::Str(y)) => {
                let pass = dict.strings().iter().map(|s| op.holds((**s).cmp(&**y)));
                Test::Codes(pass.collect())
            }
            (T::Str, _) => rank(V::Str("".into())),
        }
    }

    /// Whether the predicate holds on slot `i` of `vals`.
    #[inline]
    pub(crate) fn holds(&self, vals: &Typed, i: usize) -> bool {
        match (self, &vals.data) {
            (Test::Never, _) => false,
            (Test::Null, _) => vals.nulls.get(i),
            _ if vals.nulls.get(i) => false,
            (Test::NotNull, _) => true,
            (Test::Int(op, y), Data::Int(v)) => holds(*op, v[i], *y),
            (Test::IntAsFloat(op, y), Data::Int(v)) => holds(*op, v[i] as f64, *y),
            (Test::Float(op, y), Data::Float(v)) => holds(*op, v[i], *y),
            (Test::Date(op, y), Data::Date(v)) => holds(*op, v[i], *y),
            (Test::Bool(pass), Data::Bool(v)) => pass[usize::from(v.get(i))],
            (Test::Codes(pass), Data::Str(v)) => pass[v[i] as usize],
            _ => unreachable!("a test compiled for another type"),
        }
    }

    /// Where the predicate holds among slots `64 w .. 64 w + 64` of
    /// `vals`: bit `i` for slot `64 w + i`, zero past the run's end.
    #[inline]
    pub(crate) fn word(&self, vals: &Typed, w: usize) -> u64 {
        let (lo, hi) = (w * 64, (w * 64 + 64).min(vals.len()));
        let nulls = vals.nulls.word(w);
        let valid = if hi - lo == 64 {
            u64::MAX
        } else {
            (1u64 << (hi - lo)) - 1
        };
        let hits = match (self, &vals.data) {
            (Test::Never, _) => return 0,
            (Test::Null, _) => return nulls,
            (Test::NotNull, _) => valid,
            (Test::Int(op, y), Data::Int(v)) => mask(&v[lo..hi], |x| x, *op, *y),
            (Test::IntAsFloat(op, y), Data::Int(v)) => mask(&v[lo..hi], |x| x as f64, *op, *y),
            (Test::Float(op, y), Data::Float(v)) => mask(&v[lo..hi], |x| x, *op, *y),
            (Test::Date(op, y), Data::Date(v)) => mask(&v[lo..hi], |x| x, *op, *y),
            (Test::Bool([on_false, on_true]), Data::Bool(v)) => {
                let b = v.word(w);
                let t = if *on_true { b } else { 0 };
                let f = if *on_false { !b } else { 0 };
                (t | f) & valid
            }
            (Test::Codes(pass), Data::Str(v)) => mask_of(&v[lo..hi], |&c| pass[c as usize]),
            _ => unreachable!("a test compiled for another type"),
        };
        hits & !nulls
    }
}

/// The positions in `range` on which every test of `tests` holds — a
/// `(slot, test)` pair tests run `runs[slot]` — and, given a `live` mask,
/// whose bit is set, rising: the rows of one stretch of a heap or of a
/// leaf. Each test runs over its typed run 64 positions at a time, the
/// later ones only on words where some position survives the earlier.
pub(crate) fn select(
    runs: &[Typed],
    tests: &[(usize, Test)],
    range: Range<usize>,
    live: Option<&Bits>,
    mut emit: impl FnMut(usize),
) {
    if tests.is_empty() && live.is_none() {
        return range.for_each(emit);
    }
    let (first, end) = (range.start / 64, range.end.div_ceil(64));
    // The first test outside the slice, so that its dispatch on type and
    // operator can leave the loop.
    let (head, rest) = match tests.split_first() {
        Some(((s, t), rest)) => (Some((&runs[*s], t)), rest),
        None => (None, tests),
    };
    for w in first..end {
        let mut hits = live.map_or(u64::MAX, |live| live.word(w));
        if let Some((run, t)) = head {
            hits &= t.word(run, w);
        }
        if w == first {
            hits &= u64::MAX << (range.start % 64);
        }
        if w + 1 == end && !range.end.is_multiple_of(64) {
            hits &= (1 << (range.end % 64)) - 1;
        }
        for (s, t) in rest {
            if hits == 0 {
                break;
            }
            hits &= t.word(&runs[*s], w);
        }
        set_bits(hits).for_each(|b| emit(w * 64 + b));
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

    const TYPES: [ValueType; 5] = [
        ValueType::Int,
        ValueType::Float,
        ValueType::Date,
        ValueType::Bool,
        ValueType::Str,
    ];

    /// Two columns of each type, 70 slots long so that a word boundary
    /// falls inside, and the values their slots hold: one holding every
    /// operand of its type that fits it (NaN does not) and NULLs, and one
    /// all NULL (a string column with nothing in its dictionary among
    /// them).
    fn columns() -> Vec<(Column, Vec<Value>)> {
        let mut cols = Vec::new();
        for ty in TYPES {
            let fits = |v: &Value| v.value_type() == Some(ty) && ty.fit(v.clone()).is_ok();
            let mut vals: Vec<Value> = operands().into_iter().filter(fits).collect();
            vals.push(Value::Null);
            for vals in [
                (0..70).map(|i| vals[i * 7 % vals.len()].clone()).collect(),
                vec![Value::Null; 70],
            ] {
                let mut col = Column::of_type(ty, 70);
                vals.iter().for_each(|v| col.push(v.clone()));
                cols.push((col, vals));
            }
        }
        cols
    }

    /// Each typed predicate kernel agrees with `CmpOp::eval` on every
    /// operand pair, one slot at a time and a word at a time.
    #[test]
    fn kernels_agree_with_eval_on_every_operand_pair() {
        for (col, vals) in &columns() {
            for rhs in operands() {
                for op in OPS {
                    let t = Test::new(col.ty(), &col.dict, op, &rhs);
                    let want: Vec<bool> = vals.iter().map(|v| op.eval(v, &rhs)).collect();
                    for (i, &w) in want.iter().enumerate() {
                        assert_eq!(t.holds(&col.vals, i), w, "{:?} {op} {rhs:?}", vals[i]);
                    }
                    for w in 0..vals.len().div_ceil(64) {
                        let bits: u64 = want
                            .iter()
                            .enumerate()
                            .skip(w * 64)
                            .take(64)
                            .filter(|(_, &hit)| hit)
                            .fold(0, |m, (i, _)| m | 1 << (i % 64));
                        assert_eq!(
                            t.word(&col.vals, w),
                            bits,
                            "word {w}: {op} {rhs:?} on {:?}",
                            col.vals.data
                        );
                    }
                }
            }
        }
    }

    /// Words are equal exactly where `Value` says the values are, and
    /// images order as the values do, in every type.
    #[test]
    fn words_and_images_follow_value_order() {
        for (col, vals) in columns() {
            let ranks = col.dict.ranks();
            for (i, a) in vals.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                for (j, b) in vals.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                    assert_eq!(col.vals.word(i) == col.vals.word(j), a == b, "{a:?} {b:?}");
                    let (x, y) = (col.vals.image(i, &ranks), col.vals.image(j, &ranks));
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

    /// Every compiled operand orders each slot of every type exactly as
    /// `Value::cmp` orders the stored value against it.
    #[test]
    fn operands_order_as_value_does_on_every_pair() {
        for (col, vals) in columns() {
            let (typed, dict) = col.parts();
            for rhs in operands() {
                let key = Operand::new(typed.ty(), dict, &rhs);
                for (i, v) in vals.iter().enumerate() {
                    let got = typed.cmp_at(i, &key, dict);
                    assert_eq!(got, v.cmp(&rhs), "{v:?} against {rhs:?} in {}", typed.ty());
                }
            }
        }
    }

    /// The one selection kernel against a filter that tests each position
    /// alone: over runs of every type (NULLs among them, and an all-NULL
    /// run of each), a range that may start and end inside a word or
    /// cover none, with and without a live mask, and none to three tests
    /// of any operator and operand, each on any run. Salted with
    /// `CHAOS_SEED`.
    #[test]
    fn select_equals_a_filter_by_position() {
        use proptest::prelude::*;
        const LEN: usize = 150;
        let mut runs = Vec::new();
        let mut dicts = Vec::new();
        for ty in TYPES {
            let fits = |v: &Value| v.value_type() == Some(ty) && ty.fit(v.clone()).is_ok();
            let mut vals: Vec<Value> = operands().into_iter().filter(fits).collect();
            vals.push(Value::Null);
            for all_null in [false, true] {
                let mut col = Column::of_type(ty, LEN);
                for i in 0..LEN {
                    let v = if all_null {
                        Value::Null
                    } else {
                        vals[i * 7 % vals.len()].clone()
                    };
                    col.push(v);
                }
                let (run, dict) = col.into_parts();
                runs.push(run);
                dicts.push(dict);
            }
        }
        let (operands, seed) = (operands(), std::env::var("CHAOS_SEED").unwrap_or_default());
        proptest::run_prop_test(
            &format!("select_equals_a_filter_by_position/{seed}"),
            &ProptestConfig::with_cases(512),
            (0..=LEN, 0..=LEN, 0usize..4, any::<u64>()),
            |(a, b, n, salt)| {
                let mut x = salt | 1;
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as usize
                };
                let range = a.min(b)..a.max(b);
                let tests: Vec<(usize, Test)> = (0..n)
                    .map(|_| {
                        let s = next() % runs.len();
                        let (op, rhs) = (OPS[next() % 6], &operands[next() % operands.len()]);
                        (s, Test::new(runs[s].ty(), &dicts[s], op, rhs))
                    })
                    .collect();
                let mut live = Bits::default();
                (0..LEN).for_each(|_| live.push(next() % 3 > 0));
                for mask in [None, Some(&live)] {
                    let mut got = Vec::new();
                    select(&runs, &tests, range.clone(), mask, |i| got.push(i));
                    let want: Vec<usize> = (range.clone())
                        .filter(|&i| mask.is_none_or(|l| l.get(i)))
                        .filter(|&i| tests.iter().all(|(s, t)| t.holds(&runs[*s], i)))
                        .collect();
                    let masked = mask.is_some();
                    prop_assert!(got == want, "{range:?}, mask {masked}: {got:?} != {want:?}");
                }
                Ok(())
            },
        );
    }

    /// Bit vectors against a `Vec<bool>` model: inserts and removes at
    /// every position, splits and appends across word boundaries, with
    /// the bits past the length kept zero (the word kernels read them).
    #[test]
    fn bits_insert_remove_split_append_as_a_vec_does() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let tidy = |b: &Bits| {
            b.words.len() == b.len.div_ceil(64)
                && (b.len.is_multiple_of(64) || b.words[b.len / 64] >> (b.len % 64) == 0)
        };
        let mut bits = Bits::default();
        let mut model: Vec<bool> = Vec::new();
        for step in 0..4_000 {
            let r = next();
            let at = (r >> 20) as usize % (model.len() + 1);
            match r % 5 {
                0 | 1 => {
                    let bit = r >> 40 & 1 == 1;
                    bits.insert(at, bit);
                    model.insert(at, bit);
                }
                2 if !model.is_empty() => {
                    let at = at % model.len();
                    assert_eq!(bits.remove(at), model.remove(at), "step {step}");
                }
                3 => {
                    let mut right = bits.split_off(at, 8);
                    let tail = model.split_off(at);
                    assert!(tidy(&bits) && tidy(&right), "split at {at}, step {step}");
                    assert!((0..tail.len()).all(|i| right.get(i) == tail[i]));
                    bits.append(&mut right);
                    model.extend(tail);
                    assert_eq!(right.len(), 0);
                }
                _ => {}
            }
            assert!(tidy(&bits), "step {step}");
            assert_eq!(bits.len(), model.len());
            assert!(
                (0..model.len()).all(|i| bits.get(i) == model[i]),
                "step {step}"
            );
        }
    }

    /// A run moves exactly: copies, splits and appends keep every
    /// value's variant and bits.
    #[test]
    fn typed_runs_copy_split_and_append_exactly() {
        let same = |a: &Value, b: &Value| format!("{a:?}") == format!("{b:?}");
        for (col, vals) in columns() {
            let (src, dict) = col.parts();
            let mut run = Typed::new(src.ty(), 4);
            let slots: Vec<u32> = (0..vals.len() as u32).rev().collect();
            run.extend_from(src, &slots);
            let mut want: Vec<Value> = vals.iter().rev().cloned().collect();
            let mut right = run.split_off(33, 64);
            right.remove(3);
            want.remove(36);
            run.copy(At::Before(5), &right, 0);
            want.insert(5, want[33].clone());
            run.append(&mut right);
            run.copy(At::Over(0), src, 1);
            want[0] = vals[1].clone();
            assert!(run.is_well_formed(dict));
            assert!((0..want.len()).all(|i| same(&run.value(i, dict), &want[i])));
        }
    }

    /// A run takes NULL and values of its type, and refuses anything
    /// else: another type, or a NaN in a float column.
    #[test]
    fn a_run_stores_only_what_fits_its_type() {
        for (v, ty) in [
            (Value::Int(3), ValueType::Float),
            (Value::Float(3.0), ValueType::Int),
            (Value::Str("x".into()), ValueType::Int),
            (Value::Float(f64::NAN), ValueType::Float),
            (Value::Date(1), ValueType::Bool),
        ] {
            let stored = std::panic::catch_unwind(|| {
                let mut col = Column::of_type(ty, 1);
                col.push(v.clone());
            });
            assert!(stored.is_err(), "{v:?} in a {ty} column");
        }
        for ty in TYPES {
            let mut col = Column::of_type(ty, 1);
            col.push(Value::Null);
            assert_eq!(col.ty(), ty, "an all-NULL column keeps its type");
        }
    }
}
