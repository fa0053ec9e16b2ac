//! Offline shim for `serde_json` (see `shims/README.md`).
//!
//! Prints and parses real JSON text against the shim `serde` crate's
//! [`serde::Value`] model: `to_string`, `to_string_pretty`, `from_str`.
//! Output conventions follow serde_json (floats always carry a decimal
//! point or exponent, non-finite floats become `null`, objects keep
//! field order).

use serde::{Deserialize, Serialize, Value};
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.0)
    }
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        // serde_json convention: non-finite floats serialize as null.
        out.push_str("null");
        return;
    }
    let s = f.to_string();
    out.push_str(&s);
    // Keep the value recognizably a float on re-parse.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )));
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )));
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs for astral-plane chars.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.pos += 1; // past 'u'; expect "\uXXXX" low half
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                self.pos -= 1; // parse_hex4 advances past 'u' itself
                                let lo = self.parse_hex4()?;
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("bad surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| Error::new("bad \\u escape"))?
                            };
                            out.push(c);
                            // parse_hex4 leaves pos on the last hex digit.
                        }
                        other => {
                            return Err(Error::new(format!(
                                "bad escape {:?}",
                                other.map(|c| c as char)
                            )));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8 by
                    // construction: we came from &str).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| Error::new("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parse 4 hex digits after a `u` escape. On entry `pos` is at the
    /// `u`; on exit it is at the final hex digit (caller advances past).
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos = end - 1;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("bad number {text:?}")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("bad number {text:?}")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                // Integers beyond u64 degrade to float, like serde_json
                // does with arbitrary_precision off.
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| Error::new(format!("bad number {text:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_map() {
        let m = Value::Object(vec![
            ("alpha".to_string(), Value::UInt(3)),
            ("beta".to_string(), Value::UInt(0)),
        ]);
        let text = to_string_pretty(&m).unwrap();
        assert!(text.contains("\"alpha\": 3"));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn parses_nested() {
        let v: Value = from_str("[[1,2],[]]").unwrap();
        let expected = Value::Array(vec![
            Value::Array(vec![Value::UInt(1), Value::UInt(2)]),
            Value::Array(vec![]),
        ]);
        assert_eq!(v, expected);
        assert_eq!(to_string(&v).unwrap(), "[[1,2],[]]");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = Value::Str("line\n\"quoted\"\tτ✓".to_string());
        let text = to_string(&s).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn floats_keep_their_type() {
        let text = to_string(&Value::Float(2.0)).unwrap();
        assert_eq!(text, "2.0");
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, Value::Float(2.0));
    }

    #[test]
    fn negative_and_large_numbers() {
        let back: Value = from_str("-42").unwrap();
        assert_eq!(back, Value::Int(-42));
        let back: Value = from_str("18446744073709551615").unwrap();
        assert_eq!(back, Value::UInt(u64::MAX));
    }
}
