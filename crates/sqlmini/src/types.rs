//! Value types and runtime values.
//!
//! The engine supports a deliberately small scalar type system — integers,
//! floats, fixed-precision decimals are folded into floats, strings, booleans,
//! and dates (days since epoch) — enough to express the index-relevant
//! predicate shapes (equality, inequality, range, IN) that the auto-indexing
//! service reasons about.

use std::cmp::Ordering;
use std::fmt;

/// The scalar type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Variable-length UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Date, stored as days since an arbitrary epoch.
    Date,
}

impl ValueType {
    /// Average in-row storage width in bytes, used by the size estimator.
    pub(crate) fn avg_width(self) -> u64 {
        match self {
            ValueType::Int => 8,
            ValueType::Float => 8,
            ValueType::Str => 24,
            ValueType::Bool => 1,
            ValueType::Date => 4,
        }
    }

    /// `v` as a column of this type stores it: NULL and a value of this
    /// type as they are, an `Int` in a `Float` column as its `f64` (SQL's
    /// implicit conversion) when that is exact; `Err(v)` for a value of
    /// another type, an `Int` no `f64` equals, and a NaN, which no column
    /// stores.
    pub fn fit(self, v: Value) -> Result<Value, Value> {
        match (self, v) {
            (_, Value::Float(x)) if x.is_nan() => Err(Value::Float(x)),
            (ValueType::Float, Value::Int(i)) if cmp_int_float(i, i as f64).is_eq() => {
                Ok(Value::Float(i as f64))
            }
            (_, v) if v.value_type().is_none_or(|t| t == self) => Ok(v),
            (_, v) => Err(v),
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "INT",
            ValueType::Float => "FLOAT",
            ValueType::Str => "VARCHAR",
            ValueType::Bool => "BOOL",
            ValueType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A runtime scalar value.
///
/// `Value` has a total order: `Null` first, then `Bool`, the numbers,
/// `Date` and `Str`, each by value. An `Int` and a `Float` compare exactly
/// (`cmp_int_float`: no int is rounded), `-0.0` equals `0.0`, and a NaN
/// equals only a NaN and ranks above every number, as in PostgreSQL.
/// `Eq` and `Hash` agree with the order, so a query finds the same rows
/// whether a hash table, a sort or an index seek matches its keys.
///
/// `Value` is the engine's edge, not its storage: a table and every
/// B+tree node keep their values by typed column (`crate::column`) —
/// `i64`, `f64`, `i32`, bits, or a `u32` dictionary code for a string,
/// as the column's declared type says — and build a `Value` only where
/// one is asked for: a row read or written through the API, an index
/// entry handed to maintenance, a result row at `Database::query`'s sink,
/// and the executor's join keys of two types, seek keys and ORDER BY. A value is made to fit its
/// column once, where it is written ([`ValueType::fit`]). Strings are
/// reference-counted (`Arc<str>`), so a string value built from a
/// dictionary is a refcount bump. The typed kernels and the B+tree's
/// compiled probes take each constant into the column's own type and
/// reproduce this type's order and equality exactly.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(std::sync::Arc<str>),
    Bool(bool),
    Date(i32),
}

impl Value {
    /// SQL-style type of this value, or `None` for NULL.
    pub(crate) fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Date(_) => Some(ValueType::Date),
        }
    }

    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view for cost/selectivity math. Strings hash to a stable
    /// pseudo-position so histograms can bucket them.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Null => f64::NEG_INFINITY,
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Date(d) => *d as f64,
            Value::Str(s) => str_position(s),
        }
    }

    /// Rank used to order heterogeneous values deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // ints and floats compare by value
            Value::Date(_) => 3,
            Value::Str(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a
                .partial_cmp(b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan())),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // As the int it equals, if one does, so that Int(3) and
                // Float(3.0) hash alike; every NaN as one value.
                if cmp_int_float(*f as i64, *f).is_eq() {
                    (*f as i64).hash(state);
                } else if f.is_nan() {
                    f64::NAN.to_bits().hash(state);
                } else {
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => write!(f, "DATE({d})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// `Int(i)` against `Float(f)`, exactly: `i` is never rounded, and a NaN
/// ranks above every number.
pub(crate) fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return Ordering::Less;
    }
    // `t as i128` is exact where `t` could equal an `i64`, and stays past
    // the ends of `i64` where it cannot (it saturates only past 2^127);
    // `t` has `f`'s sign, so `total_cmp` is the numeric order here.
    let t = f.trunc();
    i128::from(i).cmp(&(t as i128)).then(t.total_cmp(&f))
}

/// A string's numeric view ([`Value::as_f64`]): its first 8 bytes as a
/// float, monotone in lexicographic order, so range selectivity over
/// strings is meaningful.
pub(crate) fn str_position(s: &str) -> f64 {
    let mut acc: u64 = 0;
    for (i, b) in s.bytes().take(8).enumerate() {
        acc |= (b as u64) << (56 - 8 * i);
    }
    acc as f64
}

/// A row is a vector of values positionally matching a table's columns.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_total_order_null_first() {
        let mut vs = [
            Value::Int(3),
            Value::Null,
            Value::Str("a".into()),
            Value::Bool(true),
            Value::Float(1.5),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(*vs.last().unwrap(), Value::Str("a".into()));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(3).cmp(&Value::Float(3.0)), Ordering::Equal);
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(4.5) > Value::Int(4));
        let big = 1i64 << 53;
        assert!(Value::Int(big + 1) > Value::Float(big as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Float(f64::NAN) > Value::Float(f64::INFINITY));
        assert_eq!(Value::Float(f64::NAN), Value::Float(-f64::NAN));
    }

    #[test]
    fn str_as_f64_is_monotone() {
        let a = Value::Str("apple".into()).as_f64();
        let b = Value::Str("banana".into()).as_f64();
        let c = Value::Str("cherry".into()).as_f64();
        assert!(a < b && b < c);
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("x".into()).to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    /// Values that compare equal hash equal, under std's default hasher
    /// and under the executor's word hasher; strings that differ in their
    /// last byte, or in a trailing zero byte, hash apart. Over a pool of
    /// numbers at the edges of exactness (the ends of `i64`, ints at and
    /// past 2^53 beside the float between them, ±2^63, ±0.0, the
    /// infinities, a NaN) and a value of every other type, the order is
    /// transitive and antisymmetric and equal values hash alike.
    #[test]
    fn hash_consistent_with_eq_for_int_float() {
        use crate::exec::WordState;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{BuildHasher, BuildHasherDefault};

        let big = 1i64 << 53;
        let edge = 2f64.powi(63);
        let mut pool: Vec<Value> = [i64::MIN, i64::MAX, big, -big, big + 1, -big - 1, 2, 3]
            .map(Value::Int)
            .to_vec();
        pool.extend(
            [big as f64, edge, -edge, 0.0, -0.0, 2.5, f64::INFINITY]
                .into_iter()
                .chain([f64::NEG_INFINITY, f64::NAN])
                .map(Value::Float),
        );
        pool.extend([
            Value::Null,
            Value::Bool(true),
            Value::Date(3),
            Value::Str("a".into()),
        ]);
        for a in &pool {
            for b in &pool {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} against {b:?}");
                for c in &pool {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }

        fn check(hasher: impl BuildHasher, pool: &[Value]) {
            let h = |v: &Value| hasher.hash_one(v);
            for a in pool {
                for b in pool.iter().filter(|b| a == *b) {
                    assert_eq!(h(a), h(b), "{a:?} == {b:?}");
                }
            }
            assert_eq!(Value::Int(7), Value::Float(7.0));
            assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
            assert_eq!(Value::Float(0.0), Value::Float(-0.0));
            assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
            assert_eq!(h(&Value::Int(0)), h(&Value::Float(-0.0)));
            assert_ne!(h(&Value::Int(7)), h(&Value::Float(7.5)));
            for n in [1, 8, 9, 17] {
                let text: String = (0..n).map(|i| (b'a' + i as u8) as char).collect();
                // Two allocations of one text hash as one value.
                let (a, b) = (Value::Str(text.as_str().into()), Value::from(text.clone()));
                assert_eq!(a, b);
                assert_eq!(h(&a), h(&b), "{n} bytes");
                let mut last = text.clone();
                last.pop();
                last.push('~');
                assert_ne!(h(&a), h(&Value::from(last)), "{n} bytes, last byte changed");
                assert_ne!(h(&a), h(&Value::from(text + "\0")), "{n} bytes and a zero");
            }
        }
        check(BuildHasherDefault::<DefaultHasher>::default(), &pool);
        check(WordState::default(), &pool);
    }

    /// NULL and a value of the type fit as they are; an `Int` fits a
    /// `Float` column as its `f64`, if that is exact; another type, or a
    /// NaN, does not.
    #[test]
    fn fit_converts_ints_for_floats_and_refuses_misfits() {
        use ValueType as T;
        let same =
            |a: Result<Value, Value>, b: Result<Value, Value>| format!("{a:?}") == format!("{b:?}");
        assert!(same(T::Float.fit(Value::Int(3)), Ok(Value::Float(3.0))));
        assert!(same(T::Int.fit(Value::Int(3)), Ok(Value::Int(3))));
        assert!(same(T::Str.fit(Value::Null), Ok(Value::Null)));
        assert!(same(
            T::Float.fit(Value::Float(-0.0)),
            Ok(Value::Float(-0.0))
        ));
        assert!(same(T::Int.fit(Value::Float(3.0)), Err(Value::Float(3.0))));
        assert!(same(
            T::Date.fit(Value::Str("d".into())),
            Err(Value::Str("d".into()))
        ));
        assert!(T::Float.fit(Value::Float(f64::NAN)).is_err());
        let past = Value::Int((1 << 53) + 1);
        assert!(same(T::Float.fit(past.clone()), Err(past)));
    }

    #[test]
    fn avg_widths_are_positive() {
        for t in [
            ValueType::Int,
            ValueType::Float,
            ValueType::Str,
            ValueType::Bool,
            ValueType::Date,
        ] {
            assert!(t.avg_width() > 0);
        }
    }
}
