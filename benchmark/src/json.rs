//! A thin layer over the `serde` shim's `Value` tree: the benchmark
//! reads and writes free-form JSON documents, which the shim's derive
//! macros do not cover.

use serde::{Deserialize, Serialize, Value};

/// A JSON document. Serializes to and from any JSON text.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, serde::Error> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str::<Json>(text).map_err(|e| e.to_string())
    }

    pub fn read(path: &std::path::Path) -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn compact(&self) -> String {
        serde_json::to_string(self).expect("a value tree serializes")
    }

    pub fn pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("a value tree serializes")
    }

    pub fn get(&self, key: &str) -> Option<Json> {
        self.0.get(key).cloned().map(Json)
    }

    /// Follow a path of object keys.
    pub fn at(&self, path: &[&str]) -> Option<Json> {
        path.iter()
            .try_fold(self.clone(), |node, key| node.get(key))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            Value::Float(f) => Some(f),
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        self.0.as_str()
    }

    pub fn entries(&self) -> Vec<(String, Json)> {
        self.0
            .as_object()
            .map(|fields| {
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), Json(v.clone())))
                    .collect()
            })
            .unwrap_or_default()
    }

    pub fn items(&self) -> Vec<Json> {
        self.0
            .as_array()
            .map(|items| items.iter().cloned().map(Json).collect())
            .unwrap_or_default()
    }
}

/// An object from `(key, value)` pairs, keeping their order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn arr(items: impl IntoIterator<Item = Value>) -> Value {
    Value::Array(items.into_iter().collect())
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn uint(v: u64) -> Value {
    Value::UInt(v)
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}
