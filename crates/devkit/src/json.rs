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

use std::borrow::Cow;
use std::fmt;

use crate::bytes::string_run_end;

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
        let mut p = Parser::new(input);
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

/// A JSON string literal inside a larger text, still encoded: the bytes
/// from its opening quote through its closing quote, borrowed. Found by
/// [`members`], whose scan has already run the parser's own string rule
/// over it, so it is known to decode, and for a line [`Json::parse`]
/// accepts it decodes to exactly the string the parsed value holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawStr<'a> {
    literal: &'a str,
    /// The decoded text's length in bytes, counted by the scan.
    decoded_len: usize,
}

impl<'a> RawStr<'a> {
    /// The decoded text's length in bytes.
    pub fn decoded_len(&self) -> usize {
        self.decoded_len
    }

    /// Decodes the literal piece by piece into `sink` without allocating:
    /// each plain run as a slice of the input, each escape as its
    /// character. The pieces concatenate to the decoded text.
    pub fn decode_pieces(&self, mut sink: impl FnMut(&str)) -> Result<(), JsonError> {
        Parser::new(self.literal).string_pieces(&mut sink)
    }

    /// The decoded text: borrowed from the input when the literal has no
    /// escape, decoded into a new string otherwise. (`None` only if the
    /// decoder refused it, which the scan has ruled out.)
    pub fn decode(&self) -> Option<Cow<'a, str>> {
        let body = &self.literal[1..self.literal.len() - 1];
        // Every escape decodes to fewer bytes than it is written with,
        // so a literal whose decoded length is its body's has none.
        if self.decoded_len == body.len() {
            return Some(Cow::Borrowed(body));
        }
        Parser::new(self.literal).string().ok().map(Cow::Owned)
    }
}

/// Scans the top-level object of `line` member by member without
/// parsing the rest of it: yields each member's name and, when the
/// member's value is a string, that literal (`None` for any other
/// value), in line order, duplicates included.
///
/// Every string on the way, names and values, nested or not, is stepped
/// over by the parser's own decoder, which counts the bytes it decodes to
/// and passes plain runs eight bytes per step; nested arrays and objects
/// are skipped with a depth counter, not recursion. The scan allocates
/// nothing, never panics and takes time linear in the line; it stops at
/// the first byte that cannot continue a JSON object, or at a string that
/// does not decode. For a line [`Json::parse`] accepts as an object it
/// yields exactly that object's members, so the first member of a name
/// is what [`Json::get`] returns. A line the parser rejects yields some
/// prefix of what it looks like; nothing stronger is promised for it.
pub fn members(line: &str) -> Members<'_> {
    Members {
        parser: Parser::new(line),
        state: Scan::Open,
    }
}

/// The iterator [`members`] returns.
pub struct Members<'a> {
    parser: Parser<'a>,
    state: Scan,
}

/// Where a [`Members`] scan stands.
enum Scan {
    /// Before the object's opening brace.
    Open,
    /// After a member: a comma or the closing brace comes next.
    Between,
    /// The object closed, or the line stopped looking like one.
    Done,
}

impl<'a> Iterator for Members<'a> {
    type Item = (RawStr<'a>, Option<RawStr<'a>>);

    fn next(&mut self) -> Option<Self::Item> {
        let member = self.member();
        self.state = if member.is_some() {
            Scan::Between
        } else {
            Scan::Done
        };
        member
    }
}

impl<'a> Members<'a> {
    /// Consumes `byte` after whitespace, or reports that it is absent.
    fn eat(&mut self, byte: u8) -> Option<()> {
        self.parser.skip_ws();
        (self.parser.peek() == Some(byte)).then(|| self.parser.pos += 1)
    }

    fn member(&mut self) -> Option<(RawStr<'a>, Option<RawStr<'a>>)> {
        match self.state {
            Scan::Open => {
                self.eat(b'{')?;
                self.parser.skip_ws();
                if self.parser.peek() == Some(b'}') {
                    return None;
                }
            }
            Scan::Between => self.eat(b',')?,
            Scan::Done => return None,
        }
        self.parser.skip_ws();
        let name = self.string()?;
        self.eat(b':')?;
        self.parser.skip_ws();
        let value = if self.parser.peek() == Some(b'"') {
            Some(self.string()?)
        } else {
            self.skip_value()?;
            None
        };
        Some((name, value))
    }

    /// Steps over the string literal at the scan position with the
    /// decoder, counting the bytes it decodes to instead of keeping them;
    /// a literal that does not decode ends the scan.
    fn string(&mut self) -> Option<RawStr<'a>> {
        let open = self.parser.pos;
        let mut decoded_len = 0;
        self.parser
            .string_pieces(&mut |piece| decoded_len += piece.len())
            .ok()?;
        Some(RawStr {
            // Both ends are quotes, so the slice is on char boundaries.
            literal: &self.parser.text[open..self.parser.pos],
            decoded_len,
        })
    }

    /// Skips one non-string value: a scalar up to the next delimiter, or
    /// a whole array or object, counting brackets instead of recursing.
    fn skip_value(&mut self) -> Option<()> {
        let mut depth = 0usize;
        while let Some(b) = self.parser.peek() {
            match b {
                b'"' => {
                    self.string()?;
                    continue;
                }
                b'[' | b'{' => depth += 1,
                b']' | b'}' if depth == 0 => break,
                b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        self.parser.pos += 1;
                        break;
                    }
                }
                b',' | b' ' | b'\t' | b'\n' | b'\r' if depth == 0 => break,
                _ => {}
            }
            self.parser.pos += 1;
        }
        Some(())
    }
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
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

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
        let mut out = String::new();
        self.string_pieces(&mut |piece| out.push_str(piece))?;
        Ok(out)
    }

    /// Decodes the string literal whose opening quote is at `self.pos`,
    /// handing `sink` each plain run as a slice of the input and each
    /// escape as the character it stands for, and leaves `self.pos`
    /// past the closing quote: the one string and escape rule, behind
    /// [`Json::parse`] and [`RawStr`] alike. A plain run starts after a
    /// quote or an escape and stops at a quote, a backslash or a control
    /// byte, all ASCII, so every slice falls on character boundaries.
    fn string_pieces(&mut self, sink: &mut impl FnMut(&str)) -> Result<(), JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        loop {
            let start = self.pos;
            self.pos = string_run_end(self.bytes, start);
            if self.pos > start {
                sink(&self.text[start..self.pos]);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            if (0xD800..0xDC00).contains(&cp) {
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
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    sink(c.encode_utf8(&mut [0; 4]));
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
    fn members_yield_the_top_level_members_the_parser_sees() {
        let line = concat!(
            r#" { "source" : "a\"b" , "meta":{"source":"x","op":["evict",{"a":"}"}]},"#,
            r#""n":-1.5e3,"sour\u0063e":"y","t":true,"arr":[[],"]",{}],"e":{} } "#
        );
        let got: Vec<(String, Option<String>)> = members(line)
            .map(|(name, value)| {
                let decoded = |s: RawStr| s.decode().expect("decodes").into_owned();
                (decoded(name), value.map(decoded))
            })
            .collect();
        let parsed = Json::parse(line).expect("a valid line");
        let Json::Obj(pairs) = &parsed else {
            panic!("an object")
        };
        let want: Vec<(String, Option<String>)> = pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().map(str::to_owned)))
            .collect();
        assert_eq!(got, want);
        assert_eq!(got[0], ("source".to_owned(), Some("a\"b".to_owned())));
        assert_eq!(got[3], ("source".to_owned(), Some("y".to_owned())));
        assert_eq!(members("{}").count(), 0);
        assert_eq!(members(" [1] ").count(), 0);
        // Malformed lines stop the scan; none panics it.
        for bad in [
            "",
            "{",
            "{\"a\"",
            "{\"a\":\"\\",
            "{\"a\":\"x\\",
            "{\"a\":1 \"b\":2}",
            "{\"a\":\"\u{1}\"}",
            "{\"a\":[\"]}",
            "{\"a\":}",
            "\"x\"",
        ] {
            assert!(members(bad).count() <= 1, "{bad:?}");
        }
        assert_eq!(members("{\"a\":1 \"b\":2}").count(), 1);
    }

    #[test]
    fn raw_strings_decode_by_the_parsers_rule() {
        for body in [
            "plain",
            r#"a\"b\\c\/d\b\f\n\r\t"#,
            r#"caf\u00e9 \ud83d\ude00 \u0000 \u001f"#,
            "dé😀 and a long plain run past one eight-byte word",
            "",
        ] {
            let line = format!(r#"{{"s":"{body}"}}"#);
            let want = Json::parse(&line)
                .expect("valid")
                .get("s")
                .and_then(Json::as_str)
                .map(str::to_owned);
            let (_, literal) = members(&line).next().expect("one member");
            let literal = literal.expect("a string value");
            assert_eq!(literal.decode().as_deref(), want.as_deref());
            assert_eq!(Some(literal.decoded_len()), want.as_ref().map(String::len));
            let mut pieces = String::new();
            literal
                .decode_pieces(|p| pieces.push_str(p))
                .expect("decodes");
            assert_eq!(Some(pieces), want);
        }
        // A literal the decoder refuses ends the scan there.
        for body in [r#"\q"#, r#"\ud800x"#, r#"\u12"#, "\u{1}"] {
            let line = format!(r#"{{"a":1,"s":"{body}","b":2}}"#);
            assert!(Json::parse(&line).is_err());
            assert_eq!(members(&line).count(), 1, "{body}");
        }
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
