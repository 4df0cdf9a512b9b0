//! Minimal JSON serialization.
//!
//! The workspace builds with no registry access, so there is no serde;
//! this module provides the small subset the observability layer needs:
//! string escaping and push-style object/array builders that produce
//! compact single-line JSON (one line per JSONL record).

/// Largest integer `n` such that every integer in `0..=n` parses to an
/// exact f64: `2^53 − 1`. [`Value::as_u64`] refuses anything above it.
pub const MAX_SAFE_INTEGER: u64 = (1 << 53) - 1;

/// Escapes `s` into `buf` as the *contents* of a JSON string (no quotes).
pub fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

/// Formats a float as a JSON value. Non-finite values have no JSON
/// representation and become `null` (consumers treat that as "guard
/// tripped" — see the non-finite-loss accounting in the run manifest).
pub fn push_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 round-trips and never produces exponents for the
        // magnitudes we log; integral values print without ".0", which is
        // still valid JSON.
        buf.push_str(&format!("{v}"));
    } else {
        buf.push_str("null");
    }
}

/// Push-style JSON object builder producing a compact single line.
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        push_f64(&mut self.buf, v);
        self
    }

    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Inserts pre-serialized JSON (a nested object or array) verbatim.
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

/// Push-style JSON array builder.
#[derive(Debug)]
pub struct Arr {
    buf: String,
    first: bool,
}

impl Arr {
    pub fn new() -> Self {
        Self {
            buf: String::from("["),
            first: true,
        }
    }

    fn sep(&mut self) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
    }

    pub fn push_raw(mut self, json: &str) -> Self {
        self.sep();
        self.buf.push_str(json);
        self
    }

    pub fn push_str(mut self, v: &str) -> Self {
        self.sep();
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    pub fn push_f64(mut self, v: f64) -> Self {
        self.sep();
        push_f64(&mut self.buf, v);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

impl Default for Arr {
    fn default() -> Self {
        Self::new()
    }
}

/// Parsed JSON value — the reader half of this module, used by the serve
/// codec, the golden comparator and `adaptraj doctor` (health streams,
/// manifests, perfbench outputs). Object members keep insertion order;
/// duplicate keys keep the last value on lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (last duplicate wins); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is one that survived the
    /// f64 parse exactly: integral and at most [`MAX_SAFE_INTEGER`].
    /// Larger literals may have been rounded (`2^53 + 1` parses as
    /// `2^53`), so they are refused rather than silently changed.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_SAFE_INTEGER as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_chars() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn object_builder_produces_compact_json() {
        let j = Obj::new()
            .str("name", "x")
            .u64("count", 3)
            .f64("v", 1.5)
            .bool("ok", true)
            .raw("nested", "[1,2]")
            .finish();
        assert_eq!(
            j,
            r#"{"name":"x","count":3,"v":1.5,"ok":true,"nested":[1,2]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let j = Obj::new()
            .f64("bad", f64::NAN)
            .f64("inf", f64::INFINITY)
            .finish();
        assert_eq!(j, r#"{"bad":null,"inf":null}"#);
    }

    #[test]
    fn array_builder() {
        let a = Arr::new()
            .push_str("a")
            .push_f64(2.0)
            .push_raw("{}")
            .finish();
        assert_eq!(a, r#"["a",2,{}]"#);
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(Arr::new().finish(), "[]");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let written = Obj::new()
            .str("name", "x\"y\\z\n")
            .u64("count", 3)
            .f64("v", -1.5)
            .bool("ok", true)
            .f64("bad", f64::NAN)
            .raw("nested", "[1,2,{\"a\":[]}]")
            .finish();
        let v = Value::parse(&written).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("x\"y\\z\n"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("v").unwrap().as_f64(), Some(-1.5));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("bad"), Some(&Value::Null));
        let nested = v.get("nested").unwrap().as_array().unwrap();
        assert_eq!(nested.len(), 3);
        assert_eq!(nested[2].get("a").unwrap().as_array(), Some(&[][..]));
    }

    #[test]
    fn parser_handles_whitespace_escapes_and_exponents() {
        let v = Value::parse(" { \"a\" : [ 1e2 , -0.5 , null , \"\\u0041\\t\" ] , \"b\" : { } } ")
            .unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(100.0));
        assert_eq!(a[1].as_f64(), Some(-0.5));
        assert_eq!(a[2], Value::Null);
        assert_eq!(a[3].as_str(), Some("A\t"));
        assert_eq!(v.get("b"), Some(&Value::Obj(vec![])));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "\"unterminated",
            "tru",
            "1.2.3",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parser_non_object_lookups_are_none() {
        let v = Value::parse("[1,2]").unwrap();
        assert!(v.get("a").is_none());
        assert!(v.as_str().is_none());
        assert_eq!(Value::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(
            Value::parse("9007199254740991").unwrap().as_u64(),
            Some(MAX_SAFE_INTEGER)
        );
        for rounded in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
        ] {
            assert_eq!(Value::parse(rounded).unwrap().as_u64(), None, "{rounded}");
        }
    }
}
