//! Dependency-free JSON values, pretty printing, and a small parser.
//!
//! The offline build environment rules out `serde_json`, so this module
//! implements what the engine's observability layer needs: a [`Value`]
//! tree, `From` conversions for the primitive types the exporters use, a
//! stable two-space pretty printer, and — since the trace and slow-dump
//! validators must read emitted artifacts back — a
//! recursive-descent [`parse`] with typed accessors ([`Value::as_str`],
//! [`Value::as_u64`], ...). Object keys keep insertion order so exported
//! artifacts diff cleanly.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer (emitted without a decimal point).
    Int(i64),
    /// Unsigned integer — counters are u64 and must not lose precision.
    UInt(u64),
    /// Floating-point number; non-finite values print as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, for builder-style construction with [`Value::set`].
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// An empty array.
    pub fn array() -> Value {
        Value::Array(Vec::new())
    }

    /// Builder-style field insertion; replaces an existing key in place.
    /// Panics when `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        self.set(key, value);
        self
    }

    /// Inserts or replaces a field. Panics when `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        let Value::Object(fields) = self else {
            panic!("Value::set on a non-object");
        };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
    }

    /// Appends an element. Panics when `self` is not an array.
    pub fn push(&mut self, value: impl Into<Value>) {
        let Value::Array(items) = self else {
            panic!("Value::push on a non-array");
        };
        items.push(value.into());
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, when this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64` — accepts `UInt`, non-negative `Int`, and
    /// integral non-negative `Float` (a reparsed `2.0` should still count).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) => u64::try_from(i).ok(),
            Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Float(f) => Some(f),
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// The boolean content, when this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements, when this is a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, when this is a [`Value::Object`].
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline, the
    /// format all Orion-RS JSON artifacts use.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                })
            }
            Value::Object(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1)
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::UInt(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}

/// Parses a JSON document. Integers without fraction/exponent parse as
/// [`Value::UInt`]/[`Value::Int`] (so `u64` counters round-trip exactly);
/// everything else numeric parses as [`Value::Float`]. Errors carry a byte
/// offset and a short description.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
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
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates (emitted only for astral chars,
                            // which our writer never escapes) map to the
                            // replacement character rather than an error.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    // ASCII fast path: extend over the whole run so long
                    // plain strings cost one memcpy, not a push per byte.
                    let start = self.pos;
                    while matches!(self.bytes.get(self.pos), Some(&b) if b < 0x80 && b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
                Some(_) => {
                    // Multi-byte scalar: the input is a &str and `pos` sits
                    // on a char boundary, so slicing here is O(1) — no
                    // re-validation of the remaining input.
                    let c = self.text[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>().map(Value::Float).map_err(|_| format!("bad number at byte {start}"))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::Int).map_err(|_| format!("bad number at byte {start}"))
        } else {
            text.parse::<u64>().map(Value::UInt).map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Value::Null.to_string_compact(), "null");
        assert_eq!(Value::from(true).to_string_compact(), "true");
        assert_eq!(Value::from(-3i64).to_string_compact(), "-3");
        assert_eq!(Value::from(u64::MAX).to_string_compact(), "18446744073709551615");
        assert_eq!(Value::from(2.5).to_string_compact(), "2.5");
        assert_eq!(Value::from(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn strings_escape() {
        let v = Value::from("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_string_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn builder_and_pretty_shape() {
        let v = Value::object()
            .with("name", "scan")
            .with("rows", 3u64)
            .with("children", Vec::<Value>::new());
        assert_eq!(v.to_string_compact(), r#"{"name":"scan","rows":3,"children":[]}"#);
        let pretty = v.to_string_pretty();
        assert!(pretty.starts_with("{\n  \"name\": \"scan\",\n"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut v = Value::object().with("k", 1u64);
        v.set("k", 2u64);
        assert_eq!(v.get("k"), Some(&Value::UInt(2)));
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Value::object()
            .with("name", "scan \"x\"\n")
            .with("rows", u64::MAX)
            .with("delta", -7i64)
            .with("frac", 2.5)
            .with("flag", true)
            .with("nothing", Value::Null)
            .with("items", vec![Value::UInt(1), Value::Str("two".into())]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn parse_accepts_escapes_and_rejects_garbage() {
        let v = parse(r#"{"s": "aA\t/", "e": 1.5e3, "neg": [-1, 2]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("aA\t/"));
        assert_eq!(v.get("e").and_then(Value::as_f64), Some(1500.0));
        let neg = v.get("neg").and_then(Value::as_array).unwrap();
        assert_eq!(neg[0].as_u64(), None);
        assert_eq!(neg[0].as_f64(), Some(-1.0));
        assert_eq!(neg[1].as_u64(), Some(2));

        for bad in ["{", "[1,", "\"open", "{\"k\" 1}", "tru", "1 2", "{\"k\":}", ""] {
            assert!(parse(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn parse_strings_mix_ascii_runs_escapes_and_multibyte() {
        // Exercises the ASCII-run fast path and its boundaries: runs broken
        // by escapes, multi-byte scalars (2–4 bytes), and adjacency of all
        // three. The fast path must stop exactly at `"`, `\`, and non-ASCII.
        let v = Value::object()
            .with("plain", "a".repeat(100))
            .with("mixed", "run1\\\"é∑𝄞\\run2\tend")
            .with("unicode_only", "é∑𝄞");
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
        // Large document: string parsing must stay linear (a quadratic
        // rescan here turns this test into a multi-minute hang).
        let mut big = Value::array();
        for i in 0..2000 {
            big.push(Value::object().with("name", format!("span-{i}-{}", "x".repeat(100))));
        }
        let text = big.to_string_pretty();
        assert!(text.len() > 200_000);
        assert_eq!(parse(&text).unwrap(), big);
    }

    #[test]
    fn accessors_are_typed() {
        assert_eq!(Value::UInt(3).as_u64(), Some(3));
        assert_eq!(Value::Int(3).as_u64(), Some(3));
        assert_eq!(Value::Int(-3).as_u64(), None);
        assert_eq!(Value::Float(2.0).as_u64(), Some(2));
        assert_eq!(Value::Float(2.5).as_u64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("x".into()).as_u64(), None);
        assert!(Value::object().as_object().is_some());
        assert!(Value::array().as_array().is_some());
    }

    #[test]
    fn nested_array_pretty() {
        let mut rows = Value::array();
        rows.push(Value::object().with("n", 1u64));
        let text = Value::object()
            .with(
                "rows",
                Value::Array(match rows {
                    Value::Array(v) => v,
                    _ => unreachable!(),
                }),
            )
            .to_string_pretty();
        assert!(text.contains("\"rows\": [\n    {\n      \"n\": 1\n    }\n  ]"));
    }
}
