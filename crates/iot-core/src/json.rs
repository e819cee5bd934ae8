//! Minimal JSON value type, emitter, and parser.
//!
//! Replaces `serde_json` for report emission. Two properties matter more
//! than speed here:
//!
//! 1. **Stable bytes.** Object members keep insertion order (callers
//!    insert in a deterministic order, or use [`Json::sort_keys`] when
//!    building from a hash map), and `f64` values print via the shortest
//!    round-trip form with a trailing `.0` for integral values — so the
//!    same report always serialises to the same bytes.
//! 2. **No deps.** Everything in-tree, including the recursive-descent
//!    [`Json::parse`] that `bench_pipeline` uses to round-trip the run
//!    report, read the committed `BENCH_pipeline.json` baseline and
//!    compare the live `/progress` document with the pipeline report.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integers (exact, no float round-trip).
    Int(i64),
    /// Unsigned integers that may exceed `i64::MAX`.
    UInt(u64),
    /// Floating point; non-finite values emit as `null` (JSON has no
    /// NaN/Infinity) — see [`fmt_f64`].
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) a member. Returns `self` for chaining.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        let Json::Obj(members) = self else {
            panic!("Json::set on a non-object");
        };
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => members.push((key.to_string(), value)),
        }
        self
    }

    /// Fetch a member by key (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object members in insertion order (objects only).
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Array items (arrays only).
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric value as `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric value as `u64` (floats only when exactly integral).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::UInt(u) => Some(*u),
            Json::Num(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses a JSON document. The parser accepts exactly what the
    /// emitter produces (plus standard JSON it never emits, like
    /// `\uXXXX` escapes); trailing garbage after the value is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Recursively sort object members by key. Use when an object was
    /// built by iterating a hash map in arbitrary order.
    pub fn sort_keys(&mut self) {
        match self {
            Json::Obj(members) => {
                members.sort_by(|a, b| a.0.cmp(&b.0));
                for (_, v) in members {
                    v.sort_keys();
                }
            }
            Json::Arr(items) => {
                for v in items {
                    v.sort_keys();
                }
            }
            _ => {}
        }
    }

    /// Compact serialisation (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Pretty serialisation with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(f) => out.push_str(&fmt_f64(*f)),
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Stable `f64` formatting: Rust's shortest round-trip `Display`, with
/// `.0` appended to integral values so they stay recognisably floats,
/// and `null` for non-finite values (JSON cannot represent them).
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let mut s = format!("{v}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    s
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`Json::parse`]: byte offset and a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth bound; reports are shallow, this only guards against
/// stack exhaustion on hostile input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            msg,
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

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v << 4 | u16::from(d);
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped UTF-8 runs wholesale.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so slicing on byte positions that
                // stop at ASCII delimiters stays on char boundaries.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u', "unpaired surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| ParseError {
                offset: start,
                msg: "invalid number",
            })
    }
}

/// Conversion into [`Json`]; the in-tree analogue of `serde::Serialize`.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}
to_json_int!(i8, i16, i32, i64, u8, u16, u32);

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_round_trip_shape() {
        let mut j = Json::obj();
        j.set("b", Json::Int(1));
        j.set("a", Json::Arr(vec![Json::Null, Json::Bool(true)]));
        assert_eq!(j.dump(), r#"{"b":1,"a":[null,true]}"#);
        j.sort_keys();
        assert_eq!(j.dump(), r#"{"a":[null,true],"b":1}"#);
    }

    #[test]
    fn set_replaces_existing_member() {
        let mut j = Json::obj();
        j.set("k", Json::Int(1));
        j.set("k", Json::Int(2));
        assert_eq!(j.dump(), r#"{"k":2}"#);
        assert_eq!(j.get("k"), Some(&Json::Int(2)));
    }

    #[test]
    fn escaping() {
        let j = Json::Str("a\"b\\c\n\t\u{01}π".to_string());
        assert_eq!(j.dump(), "\"a\\\"b\\\\c\\n\\t\\u0001π\"");
    }

    #[test]
    fn f64_formats_are_stable_and_round_trip() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.0), "0.0");
        assert_eq!(fmt_f64(-2.5), "-2.5");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        // Shortest form must parse back to the identical bits.
        for v in [0.1, 1.0 / 3.0, 66.66666666666667, 2f64.powi(-40), 123456.789] {
            let s = fmt_f64(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s} did not round-trip");
        }
    }

    #[test]
    fn pretty_nests_with_two_space_indent() {
        let mut inner = Json::obj();
        inner.set("x", Json::Num(0.5));
        let mut j = Json::obj();
        j.set("a", Json::Arr(vec![Json::Int(1), Json::Int(2)]));
        j.set("o", inner);
        j.set("e", Json::Arr(vec![]));
        let expected = "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"o\": {\n    \"x\": 0.5\n  },\n  \"e\": []\n}";
        assert_eq!(j.pretty(), expected);
    }

    #[test]
    fn parse_round_trips_emitter_output() {
        let mut inner = Json::obj();
        inner.set("x", Json::Num(0.5));
        inner.set("neg", Json::Int(-42));
        inner.set("big", Json::UInt(u64::MAX));
        let mut j = Json::obj();
        j.set("a", Json::Arr(vec![Json::Int(1), Json::Null, Json::Bool(true)]));
        j.set("o", inner);
        j.set("s", Json::Str("a\"b\\c\nπ\u{01}".to_string()));
        j.set("e", Json::Arr(vec![]));
        for text in [j.dump(), j.pretty()] {
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed, j, "{text}");
            assert_eq!(parsed.dump(), j.dump());
        }
    }

    #[test]
    fn parse_number_types() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("-2e3").unwrap(), Json::Num(-2000.0));
        assert_eq!(Json::parse("1.0").unwrap(), Json::Num(1.0));
    }

    #[test]
    fn parse_unicode_escapes() {
        // Literal multibyte UTF-8 passes through; \uXXXX escapes decode.
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".to_string()));
        assert_eq!(
            Json::parse(r#""A\u00e9""#).unwrap(),
            Json::Str("Aé".to_string())
        );
        // Surrogate pair → U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"k\":}", "tru", "1 2", "{\"k\" 1}", "\"unterminated",
            "[1]]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = Json::parse("[1,]").unwrap_err();
        assert!(err.to_string().contains("parse error"), "{err}");
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"n":3,"f":1.5,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(j.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(j.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(j.get("f").unwrap().as_u64(), None);
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("a").unwrap().items().unwrap().len(), 1);
        assert_eq!(j.members().unwrap().len(), 5);
    }

    #[test]
    fn to_json_impls() {
        assert_eq!(3u64.to_json().dump(), "3");
        assert_eq!((-3i32).to_json().dump(), "-3");
        assert_eq!("hi".to_json().dump(), "\"hi\"");
        assert_eq!(Some(1.5f64).to_json().dump(), "1.5");
        assert_eq!(None::<u32>.to_json().dump(), "null");
        assert_eq!(vec!["a", "b"].to_json().dump(), r#"["a","b"]"#);
    }
}
