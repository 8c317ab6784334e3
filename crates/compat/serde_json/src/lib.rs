//! Offline, std-only stand-in for the `serde_json` crate: a JSON
//! printer and recursive-descent parser over the serde shim's
//! [`Value`] data model.
//!
//! Numeric fidelity: floats print via Rust's shortest-roundtrip `f64`
//! formatting, so every finite `f32`/`f64` round-trips bit-for-bit
//! (an `f32` widens exactly to `f64` and narrows back exactly).

use std::fmt::{self, Write as _};
use std::io::{Read, Write};

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization failure.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(format!("io error: {e}"))
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---- serialization ----

/// Appends `x`'s `Display` form — the bytes `x.to_string()` would hold,
/// formatted straight into `out` instead of through a heap `String`
/// per number (256 of them in one journal record).
fn push_display(out: &mut String, x: impl fmt::Display) {
    write!(out, "{x}").expect("writing to a String cannot fail");
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                push_display(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => push_display(out, n),
        Value::Int(n) => push_display(out, n),
        Value::Float(f) => {
            if f.is_finite() {
                push_display(out, f);
            } else {
                // Real serde_json refuses non-finite floats; none occur
                // in this workspace, so degrade to null rather than fail.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

/// Roughly how many bytes `v` prints to, so the output buffer is sized
/// once instead of doubling its way up through a multi-megabyte
/// snapshot. A number is budgeted at 20 bytes: an `f32` widened to
/// `f64` prints 17 significant digits.
fn estimated_len(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 5,
        Value::UInt(_) | Value::Int(_) | Value::Float(_) => 20,
        Value::Str(s) => s.len() + 2,
        Value::Array(items) => 2 + items.iter().map(|i| estimated_len(i) + 1).sum::<usize>(),
        Value::Object(fields) => {
            2 + fields
                .iter()
                .map(|(k, v)| k.len() + 4 + estimated_len(v))
                .sum::<usize>()
        }
    }
}

/// Serializes `value` as a compact JSON string.
///
/// # Errors
/// Never fails for the shim's data model; the `Result` matches the real
/// crate's signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let value = value.serialize();
    let mut out = String::with_capacity(estimated_len(&value));
    write_value(&mut out, &value);
    Ok(out)
}

/// Serializes `value` as compact JSON into `writer`.
///
/// # Errors
/// Propagates I/O failures from `writer`.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    let s = to_string(value)?;
    writer.write_all(s.as_bytes())?;
    Ok(())
}

// ---- deserialization ----

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::new(format!("{} at byte {}", msg.into(), self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
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

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the
                            // writer; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?;
                            s.push(c);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("invalid number `{text}`")))
        } else {
            // Integer-looking literal. Magnitudes beyond 64 bits occur
            // when a large float printed without an exponent (Rust's
            // shortest f64 form); fall back to Float for those.
            let as_int = if text.starts_with('-') {
                text.parse::<i64>().map(Value::Int).ok()
            } else {
                text.parse::<u64>().map(Value::UInt).ok()
            };
            match as_int {
                Some(v) => Ok(v),
                None => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err(format!("invalid number `{text}`"))),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
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
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses a `T` from a JSON string.
///
/// # Errors
/// Returns [`Error`] on malformed JSON or shape mismatch.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T> {
    let mut parser = Parser::new(input);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters"));
    }
    Ok(T::deserialize(&value)?)
}

/// Parses a `T` from JSON bytes.
///
/// # Errors
/// Returns [`Error`] on invalid UTF-8, malformed JSON, or shape mismatch.
pub fn from_slice<T: Deserialize>(input: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(input).map_err(|_| Error::new("invalid utf-8"))?;
    from_str(s)
}

/// Reads `reader` to the end and parses a `T` from the JSON it holds.
///
/// # Errors
/// Returns [`Error`] on I/O failure, invalid UTF-8, malformed JSON, or
/// shape mismatch.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    from_slice(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(from_str::<u64>("123").unwrap(), 123);
        assert_eq!(from_str::<f64>("1.5e3").unwrap(), 1500.0);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn float_bits_roundtrip() {
        for x in [0.1f32, -3.25, f32::MIN_POSITIVE, 1e30, std::f32::consts::PI] {
            let s = to_string(&x).unwrap();
            let back: f32 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s} -> {back}");
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v: Vec<Vec<f32>> = vec![vec![1.0, 2.5], vec![], vec![-0.125]];
        let s = to_string(&v).unwrap();
        let back: Vec<Vec<f32>> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn unicode_and_escapes_roundtrip() {
        let s = "héllo \"wörld\" — tab:\t ctrl:\u{1}".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(from_str::<Value>("not json at all").is_err());
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("123 tail").is_err());
    }

    #[test]
    fn value_preserves_object_access() {
        let v: Value = from_str("{\"config\": {}, \"vocab\": [1]}").unwrap();
        assert!(v.get("config").is_some());
        assert!(v.get("vocab").is_some());
        assert!(v.get("model").is_none());
    }

    #[test]
    fn whitespace_tolerated() {
        let v: Value = from_str(" {\n\t\"a\" : [ 1 , 2 ] , \"b\" : null }\r\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Value::Null));
    }
}
