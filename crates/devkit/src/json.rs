//! A minimal JSON value type, parser and writer — the workspace's one
//! JSON encoder. The daemon's line-delimited protocol, the CLI's JSON
//! reports (lint, opt, rule) and the `BENCH_*.json` files all build a
//! [`Json`] value and serialize it here, so every surface escapes
//! strings and formats numbers by the same rule.
//!
//! Design constraints inherited from the protocol:
//!
//! - **Deterministic output.** Objects serialize in insertion order and
//!   numbers in a canonical form, so a response's bytes are a pure
//!   function of its value — the thread-invariance tests compare raw
//!   transcript bytes. [`Json::to_line`] is the canonical single-line
//!   form; [`Json::to_rows`] is the same bytes with each element of a
//!   top-level array on its own line, for reports read by people and
//!   line-oriented tools.
//! - **Bounded parsing.** Input depth is limited (64 levels) so a
//!   malicious request line cannot overflow the worker's stack; any
//!   parse failure is a recoverable [`JsonError`], never a panic.
//! - **Integer-exact ids.** Numbers are stored as `f64` but written as
//!   integers whenever they are integral and within the safe `i64`
//!   range, so request ids round-trip byte-identically.

use std::fmt;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see the module docs for integer formatting).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved and significant for output.
    Obj(Vec<(String, Json)>),
}

/// A recoverable parse failure, with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input line.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from an unsigned integer.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Looks up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Appends the field `key: value` to an object.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn push(&mut self, key: &str, value: Json) {
        let Json::Obj(pairs) = self else {
            panic!("Json::push on a non-object")
        };
        pairs.push((key.to_owned(), value));
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Serializes to the canonical single-line form (no added whitespace).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes like [`to_line`](Json::to_line), except that each
    /// element of a top-level array — the value itself, or a field of a
    /// top-level object — goes on its own line, indented two spaces:
    ///
    /// ```text
    /// {"binary":"tables","records":[
    ///   {"group":"E1","min_ns":1234},
    ///   {"group":"E2","min_ns":null}
    /// ]}
    /// ```
    ///
    /// An empty array stays `[]`. No trailing newline is added.
    pub fn to_rows(&self) -> String {
        let mut out = String::new();
        match self {
            Json::Arr(items) => write_rows(items, &mut out),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, &mut out);
                    out.push(':');
                    match v {
                        Json::Arr(items) => write_rows(items, &mut out),
                        v => v.write(&mut out),
                    }
                }
                out.push('}');
            }
            v => v.write(&mut out),
        }
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                // Canonical: integral safe values print without a dot.
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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
}

/// Decodes the JSON string literal whose opening quote is byte `at` of
/// `input`, by the parser's own string rule. `None` when no literal
/// starts there or it does not decode. The daemon's shard hint reads
/// single fields of a request line this way without parsing the line.
pub fn decode_str_at(input: &str, at: usize) -> Option<String> {
    Parser {
        bytes: input.as_bytes(),
        pos: at,
    }
    .string()
    .ok()
}

/// One array element per line, indented two spaces (see [`Json::to_rows`]).
fn write_rows(items: &[Json], out: &mut String) {
    out.push('[');
    for (i, v) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        v.write(out);
    }
    out.push_str(if items.is_empty() { "]" } else { "\n]" });
}

/// Writes `s` as a JSON string literal: the one string escaper.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
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

    fn eat(&mut self, token: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{token}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(self.err("expected `:` after object key"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte 0x{b:02x}"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.pos += 1; // past the low 'u' digit block start
                                self.eat("\\u")
                                    .map_err(|_| self.err("unpaired UTF-16 surrogate"))?;
                                self.pos -= 1; // hex4 advances from the digits
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Reads the 4 hex digits after a `\u` escape; `self.pos` is on the
    /// `u` when called and on the last digit when returning.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let line = r#"{"v":1,"id":42,"op":"analyze","source":"fun id x = x;","deadline_ms":250}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("analyze"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(42));
        assert_eq!(v.to_line(), line, "canonical form round-trips");
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#"{"s":"a\"b\\c\nd\u00e9\ud83d\ude00"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\ndé😀"));
        // Output escapes control characters but passes unicode through.
        assert_eq!(Json::str("x\ny").to_line(), r#""x\ny""#);
        assert_eq!(Json::str("dé").to_line(), "\"dé\"");
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "nul",
            "-",
            "\"\\q\"",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err(), "must not recurse unboundedly");
    }

    #[test]
    fn numbers_canonicalize() {
        assert_eq!(Json::parse("3.0").unwrap().to_line(), "3");
        assert_eq!(Json::parse("-7").unwrap().to_line(), "-7");
        assert_eq!(Json::parse("2.5").unwrap().to_line(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
        assert_eq!(Json::parse("1e3").unwrap().to_line(), "1000");
    }

    #[test]
    fn rows_put_each_top_level_element_on_its_own_line() {
        let rows = Json::Arr(vec![
            Json::num(1),
            Json::obj(vec![("a", Json::Arr(vec![]))]),
        ]);
        assert_eq!(rows.to_rows(), "[\n  1,\n  {\"a\":[]}\n]");
        assert_eq!(Json::Arr(vec![]).to_rows(), "[]");
        let report = Json::obj(vec![
            ("binary", Json::str("t")),
            ("records", Json::Arr(vec![Json::num(1), Json::num(2)])),
        ]);
        assert_eq!(
            report.to_rows(),
            "{\"binary\":\"t\",\"records\":[\n  1,\n  2\n]}"
        );
        // Without a line break the two layouts are the same bytes.
        let flat = Json::obj(vec![("x", Json::num(1))]);
        assert_eq!(flat.to_rows(), flat.to_line());
        for v in [rows, report] {
            assert_eq!(Json::parse(&v.to_rows()).unwrap(), v, "rows re-parse");
        }
    }

    #[test]
    fn decode_str_at_reads_one_literal() {
        let line = r#"{"source":"a\"b","x":1}"#;
        assert_eq!(decode_str_at(line, 10).as_deref(), Some("a\"b"));
        assert_eq!(decode_str_at(line, 1).as_deref(), Some("source"));
        assert_eq!(decode_str_at(line, 0), None);
    }

    #[test]
    fn object_lookup_and_order() {
        let mut v = Json::obj(vec![("b", Json::num(2)), ("a", Json::num(1))]);
        assert_eq!(v.to_line(), r#"{"b":2,"a":1}"#, "insertion order preserved");
        v.push("c", Json::Null);
        assert_eq!(v.to_line(), r#"{"b":2,"a":1,"c":null}"#, "push appends");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("missing"), None);
    }
}
