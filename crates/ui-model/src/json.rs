//! Minimal JSON support for persisted and wire documents.
//!
//! The build environment has no access to crates.io, so the workspace
//! carries its own small JSON layer instead of `serde_json`: a [`Value`]
//! tree with a recursive-descent parser and a compact writer. Each crate
//! converts its own types (fault plans, campaign specs, checkpoints, wire
//! messages) to and from [`Value`].
//!
//! Integers are kept exact: values without a fraction or exponent parse
//! into [`Value::UInt`] / [`Value::Int`], never through `f64`, because
//! abstract-screen ids are 64-bit hashes that must roundtrip bit-for-bit.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Value::parse`] accepts. The parser is
/// recursive descent, so without a bound a request body of a few MB of
/// `[` overflows the stack and aborts the process; the documents this
/// workspace writes nest a few dozen levels at most.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent.
    UInt(u64),
    /// A negative integer without fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is preserved.
    Object(Vec<(String, Value)>),
}

/// A parse or conversion failure, with a byte offset for parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input (0 for conversion errors).
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset,
        }
    }

    /// A conversion (non-parse) error.
    pub fn conversion(message: impl Into<String>) -> Self {
        JsonError::new(message, 0)
    }
}

impl Value {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first problem,
    /// including nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new("trailing data after document", p.pos));
        }
        Ok(v)
    }

    /// Serializes compactly (no whitespace).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => write_uint(*n, out),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => {
                if x.is_finite() {
                    let s = x.to_string();
                    out.push_str(&s);
                    // Keep the float-ness visible so it reparses as Float.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no Inf/NaN; null is the least-bad encoding.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Field lookup on an `Object` (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Like [`Value::get`] but with a conversion-style error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] naming the missing field.
    pub fn require(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::conversion(format!("missing field `{key}`")))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::UInt(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::UInt(n as u64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::UInt(n as u64)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        if n >= 0 {
            Value::UInt(n as u64)
        } else {
            Value::Int(n)
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Appends `n` in decimal, as [`Value::UInt`] serializes it, without an
/// intermediate `String`.
pub fn write_uint(n: u64, out: &mut String) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
}

/// Appends `s` as a quoted, escaped JSON string — the one escaper behind
/// [`Value::Str`] and every object key, exposed for writers that stream
/// a document instead of building a [`Value`] tree.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                format!("expected `{}`", b as char),
                self.pos,
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::new(
                format!("unexpected byte `{}`", other as char),
                self.pos,
            )),
            None => Err(JsonError::new("unexpected end of input", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to open
    /// more than [`MAX_DEPTH`] levels.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::new("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(JsonError::new("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy runs of plain bytes at once.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::new("invalid UTF-8 in string", start))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    return Err(JsonError::new("unescaped control character", self.pos));
                }
                None => return Err(JsonError::new("unterminated string", self.pos)),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let b = self
            .peek()
            .ok_or_else(|| JsonError::new("unterminated escape", self.pos))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect \uXXXX low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                    } else {
                        return Err(JsonError::new("lone high surrogate", self.pos));
                    }
                } else {
                    hi
                };
                char::from_u32(code)
                    .ok_or_else(|| JsonError::new("invalid \\u escape", self.pos))?
            }
            other => {
                return Err(JsonError::new(
                    format!("unknown escape `\\{}`", other as char),
                    self.pos - 1,
                ));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(JsonError::new("truncated \\u escape", self.pos));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| JsonError::new("invalid \\u escape", self.pos))?;
        let code = u32::from_str_radix(s, 16)
            .map_err(|_| JsonError::new("invalid \\u escape", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number", start))?;
        if !fractional {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(n) = rest.parse::<u64>() {
                    if let Ok(i) = i64::try_from(n) {
                        return Ok(Value::Int(-i));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| JsonError::new(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "18446744073709551615",
            "\"hi\"",
            "\"a\\u001fb\\\"\\\\\"",
        ] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.to_json_string(), text);
        }
        assert_eq!(Value::parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(Value::Float(2.0).to_json_string(), "2.0");
        assert_eq!(Value::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            Value::Int(i64::MIN).to_json_string(),
            "-9223372036854775808"
        );
        let mut out = String::new();
        write_uint(u64::MAX, &mut out);
        write_escaped("\u{1}é", &mut out);
        assert_eq!(out, "18446744073709551615\"\\u0001é\"");
    }

    #[test]
    fn u64_hash_ids_are_exact() {
        // A value that f64 cannot represent exactly.
        let id = 0xDEAD_BEEF_CAFE_F00Du64 | 1;
        let text = Value::from(id).to_json_string();
        assert_eq!(Value::parse(&text).unwrap().as_u64(), Some(id));
    }

    #[test]
    fn structures_and_escapes_roundtrip() {
        let v = Value::Object(vec![
            ("quote\"\\".to_owned(), Value::from("line\nbreak\ttab")),
            ("unicode".to_owned(), Value::from("héllo ☃")),
            ("items".to_owned(), Value::from(vec![1u64, 2, 3])),
            (
                "nested".to_owned(),
                Value::Object(vec![("x".to_owned(), Value::Null)]),
            ),
        ]);
        let text = v.to_json_string();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_parse() {
        let v = Value::parse("\"\\ud83d\\ude00 ok\"").unwrap();
        assert_eq!(v.as_str(), Some("😀 ok"));
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("tru").is_err());
        let err = Value::parse("[1] trailing").unwrap_err();
        assert!(
            err.offset >= 3,
            "offset {} should be past the array",
            err.offset
        );
    }

    #[test]
    fn hostile_nesting_is_a_clean_error() {
        // ~1 MB of either opener would overflow an unbounded recursive
        // descent; both must come back as an error, not an abort.
        for (opener, closer) in [("[", "]"), ("{\"a\":", "}")] {
            let hostile = opener.repeat((1 << 20) / opener.len());
            let err = Value::parse(&hostile).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            // The limit itself is fine; one level past it is not.
            let at_limit = format!("{}0{}", opener.repeat(MAX_DEPTH), closer.repeat(MAX_DEPTH));
            assert!(Value::parse(&at_limit).is_ok());
            let past = format!("{opener}{at_limit}{closer}");
            assert!(Value::parse(&past).is_err());
        }
    }
}
