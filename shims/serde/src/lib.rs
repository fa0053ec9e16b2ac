//! Offline shim for the `serde` crate (see `shims/README.md`).
//!
//! Real serde abstracts over serializers; this shim serializes through a
//! self-describing [`Value`] tree instead, which is all `serde_json`
//! (the only serializer in this workspace) needs. The derive macro
//! re-exported here generates `to_value` implementations mirroring
//! serde's externally-tagged data model, so the canonical tenant lines,
//! telemetry exports and API views look like the real thing. Nothing in
//! the workspace reads its own JSON back: [`Deserialize`] is implemented
//! for [`Value`] alone, so free-form documents can still be parsed.

pub use serde_derive::Serialize;

use std::collections::BTreeMap;

/// A self-describing serialized value (the JSON data model, plus a
/// distinct signed/unsigned/float split so integers round-trip exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object (field order = declaration order).
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field lookup in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    pub fn msg(m: impl Into<String>) -> Error {
        Error(m.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

pub trait Serialize {
    fn to_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
    )*};
}
impl_serde_uint!(u32, u64, usize);

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        Value::Int(*self)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )*};
}
impl_serde_tuple! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C, 3 D)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}
