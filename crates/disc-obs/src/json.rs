//! A dependency-free JSON value tree with deterministic rendering.
//!
//! The repo's policy is no external crates beyond the vendored stand-ins,
//! so structured output is rendered by hand. This module centralizes
//! that: build a [`Json`] tree, render it compact (JSONL) or pretty
//! (reports). Object keys keep insertion order so output is byte-stable
//! run to run.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (the common case for counters).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float; non-finite values render as `null` since JSON has no NaN.
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience object constructor from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Array of unsigned counters.
    pub fn u64s(values: impl IntoIterator<Item = u64>) -> Json {
        Json::Arr(values.into_iter().map(Json::U64).collect())
    }

    /// Appends a key to this value if it is an object; panics otherwise.
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Renders on one line with no extraneous whitespace (JSONL form).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the JSONL form into a caller-provided buffer (appending),
    /// so hot paths can reuse one allocation across many renders instead
    /// of paying a fresh `String` per line. Byte-identical to
    /// [`Json::render`].
    pub fn render_into(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Renders with 2-space indentation and a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `write!` into the String formats numbers in place; sample
            // lines are mostly numbers, so avoiding a `to_string`
            // allocation per number matters on the wire path.
            Json::U64(v) => {
                use std::fmt::Write;
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                use std::fmt::Write;
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` round-trips f64 exactly and always includes a
                    // decimal point or exponent, keeping the value a JSON
                    // number distinguishable from an integer.
                    use std::fmt::Write;
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }
}

/// Where and why [`Json::parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parses a JSON document (the inverse of [`Json::render`]).
    ///
    /// Integral numbers become [`Json::U64`] (or [`Json::I64`] when
    /// negative); anything with a fraction or exponent becomes
    /// [`Json::F64`]. Duplicate object keys are kept in order, matching
    /// the renderer's insertion-order semantics. Trailing non-whitespace
    /// after the document is an error, so a wire protocol can trust that
    /// one line holds exactly one value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] with the byte offset of the first
    /// offending character.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, at: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer ([`Json::U64`], or a
    /// non-negative [`Json::I64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a float (any numeric variant widens).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            at: self.at,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.at..];
            let Some(&c) = rest.first() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                b'"' => {
                    self.at += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.at += 1;
                    let Some(&esc) = self.bytes.get(self.at) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low
                                // surrogate is required.
                                if self.bytes[self.at..].starts_with(b"\\u") {
                                    self.at += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            match char::from_u32(cp) {
                                Some(ch) => out.push(ch),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err(format!("bad escape {:?}", esc as char))),
                    }
                }
                _ => {
                    // Consume one UTF-8 character (input is a &str, so
                    // the boundaries are valid by construction).
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s.chars().next().expect("non-empty");
                    if (ch as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(ch);
                    self.at += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let Some(hex) = self.bytes.get(self.at..self.at + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let s = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.at += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::F64(v)),
            Err(_) => {
                self.at = start;
                Err(self.err(format!("invalid number {text:?}")))
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_single_line() {
        let j = Json::obj([
            ("a", Json::U64(1)),
            ("b", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("c", Json::str("x\"y\n")),
        ]);
        assert_eq!(j.render(), r#"{"a":1,"b":[null,true],"c":"x\"y\n"}"#);
    }

    #[test]
    fn pretty_rendering_indents_and_terminates() {
        let j = Json::obj([("k", Json::u64s([1, 2]))]);
        assert_eq!(j.render_pretty(), "{\n  \"k\": [\n    1,\n    2\n  ]\n}\n");
    }

    #[test]
    fn floats_render_finite_or_null() {
        assert_eq!(Json::F64(0.5).render(), "0.5");
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn control_characters_escape() {
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn parse_round_trips_render() {
        let doc = Json::obj([
            ("counts", Json::u64s([0, 1, u64::MAX])),
            ("neg", Json::I64(-42)),
            ("rate", Json::F64(0.125)),
            ("name", Json::str("x\"y\\z\n\t\u{1}é")),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
            ("nested", Json::obj([("empty_arr", Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
    }

    #[test]
    fn parse_numbers_pick_natural_variants() {
        assert_eq!(Json::parse("7").unwrap(), Json::U64(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("7.5").unwrap(), Json::F64(7.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
    }

    #[test]
    fn parse_unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::str("A"));
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::str("\u{1f600}")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "01x",
            "\"\u{1}\"",
            "{} {}",
            "[1 2]",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc = Json::parse(r#"{"verb":"run","session":3,"deep":{"x":[1,2.5,true]}}"#).unwrap();
        assert_eq!(doc.get("verb").and_then(Json::as_str), Some("run"));
        assert_eq!(doc.get("session").and_then(Json::as_u64), Some(3));
        let arr = doc.get("deep").and_then(|d| d.get("x")).unwrap();
        let items = arr.as_arr().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_bool(), Some(true));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let err = Json::parse("{\"a\": nope}").unwrap_err();
        assert_eq!(err.at, 6);
        assert!(err.to_string().contains("byte 6"));
    }
}
