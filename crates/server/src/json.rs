//! A minimal JSON value, parser and encoder.
//!
//! The workspace builds fully offline (no serde), and the wire protocol
//! needs only a small, well-behaved JSON subset: objects, arrays, strings,
//! numbers, booleans and null. The parser is a bounds- and depth-checked
//! recursive descent; the encoder escapes control characters and always
//! emits one line (no pretty printing), which is exactly what the
//! line-delimited framing wants. It writes each run of a string that needs
//! no escape in one call, and splices [`Json::Raw`] text verbatim: the
//! server writes hot payloads (job results, verdicts) straight to text and
//! hands the encoded list to a reply that way, instead of building a tree
//! per result.
//!
//! 64-bit identities (design hashes, property hashes) are transported as
//! strings, never as numbers — JSON numbers are doubles and silently lose
//! integer precision above 2^53.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as a double, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
    /// JSON text already encoded, written verbatim by the encoder. The
    /// parser never produces it, and the accessors see nothing in it.
    Raw(String),
}

/// Why a frame failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound: a frame deeper than this is hostile, not a request.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value from an unsigned counter.
    ///
    /// # Panics
    ///
    /// Panics above 2^53, where doubles stop being exact — identities that
    /// large must travel as strings.
    pub fn num(n: u64) -> Json {
        assert!(n <= (1 << 53), "counter too large for a JSON number");
        Json::Num(n as f64)
    }

    /// Member lookup on an object; `None` on other values.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
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

    /// The number as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(n) => write_number(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    value.fmt(f)?;
                }
                f.write_str("}")
            }
            Json::Raw(text) => f.write_str(text),
        }
    }
}

/// Writes a number as [`Json::Num`] encodes it: an integral value below
/// 9e15 without a fraction, any other finite value in Rust's shortest
/// round-trip form, and `null` for NaN and the infinities.
pub(crate) fn write_number<W: fmt::Write>(out: &mut W, n: f64) -> fmt::Result {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        write!(out, "{}", n as i64)
    } else if n.is_finite() {
        write!(out, "{n}")
    } else {
        out.write_str("null") // JSON has no NaN/inf
    }
}

/// Writes `s` as a JSON string. Each run of bytes that needs no escape goes
/// out in one `write_str`; the escaped bytes are all ASCII, so every run
/// ends on a char boundary.
pub(crate) fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.write_str(&s[run..at])?;
        match byte {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{byte:04x}")?,
        }
        run = at + 1;
    }
    out.write_str(&s[run..])?;
    out.write_str("\"")
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
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
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
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
            self.expect(b':', "expected ':'")?;
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
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are rejected rather than paired; the
                            // protocol never emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.error("raw control character")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte. Those are ASCII and never occur inside a
                    // multi-byte UTF-8 sequence, so both ends of the run are
                    // char boundaries of the (already valid) input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let run = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| self.error("bad utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let value = Json::obj(vec![
            ("op", Json::str("submit_batch")),
            ("count", Json::num(3)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "jobs",
                Json::Arr(vec![Json::str("a \"quoted\" name\nline2"), Json::num(0)]),
            ),
        ]);
        let encoded = value.to_string();
        assert!(!encoded.contains('\n'), "one line per frame: {encoded}");
        assert_eq!(Json::parse(&encoded).expect("reparse"), value);
    }

    #[test]
    fn parses_whitespace_numbers_and_unicode() {
        let parsed =
            Json::parse(" { \"a\" : [ 1.5 , -2 , 1e3 ] , \"s\" : \"π\\u00e9\" } ").expect("parse");
        assert_eq!(
            parsed.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(1000.0)
        );
        assert_eq!(parsed.get("s").unwrap().as_str(), Some("πé"));
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn rejects_malformed_frames() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "{\"a\":1} trailing",
            "nul",
            "--3",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn escapes_next_to_multi_byte_characters() {
        let frame = "\"π\\n€\\u00e9😀\\\"ü\\\\\"";
        assert_eq!(
            Json::parse(frame).expect("parse").as_str(),
            Some("π\n€é😀\"ü\\")
        );
        let value = Json::str("€\"π\\\n😀\u{1}é");
        assert_eq!(Json::parse(&value.to_string()).expect("reparse"), value);
        // A raw control byte right after a multi-byte character is still
        // rejected.
        assert!(Json::parse("\"é\u{1}\"").is_err());
    }

    #[test]
    fn every_control_byte_is_escaped() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let escaped = Json::str(controls.clone()).to_string();
        assert_eq!(
            escaped,
            concat!(
                r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007"#,
                r#"\u0008\t\n\u000b\u000c\r\u000e\u000f"#,
                r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
                r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f""#,
            )
        );
        // Runs around the escapes are copied whole, multi-byte characters
        // included.
        let inner = &escaped[1..escaped.len() - 1];
        assert_eq!(
            Json::str(format!("é{controls}π")).to_string(),
            format!("\"é{inner}π\"")
        );
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 256 KiB of mixed-width text in one string member (a Verilog
        // source can be this long): the scan must not revisit the frame.
        let text = "ab€π😀 ".repeat(256 * 1024 / 12 + 1);
        assert!(text.len() >= 256 * 1024);
        let frame = Json::obj(vec![("source", Json::str(text.clone()))]).to_string();
        let started = std::time::Instant::now();
        let parsed = Json::parse(&frame).expect("parse");
        let elapsed = started.elapsed();
        assert_eq!(parsed.get("source").and_then(Json::as_str), Some(&*text));
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "a {} byte string took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn depth_bound_rejects_hostile_nesting() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn u64_helpers_guard_precision() {
        assert_eq!(Json::Num(12.0).as_u64(), Some(12));
        assert_eq!(Json::Num(12.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(9.1e18).as_u64(), None);
    }
}
