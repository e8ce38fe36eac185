//! A minimal recursive-descent JSON parser for the bench-compare gate.
//!
//! The build environment is fully offline (DESIGN.md §11), so instead of
//! serde this module implements exactly the subset the baseline files
//! need: the full JSON grammar into an owned tree with `BTreeMap` objects
//! (deterministic iteration order; `clippy.toml` bans hash containers).
//! It is a reader for trusted, repo-generated artefacts — errors
//! carry byte offsets for debugging, not resilience against adversarial
//! input.

use std::collections::BTreeMap;

/// An owned JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`; the counters this repo compares
    /// stay far below 2^53, where `f64` is exact.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // lint:allow(float-ord): exactness probe — a lossless u64 round-trips bit-identically
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
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

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why parsing failed, with the byte offset of the defect.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn eat(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are absent from this repo's
                            // artefacts; map lone surrogates to U+FFFD
                            // rather than failing the whole compare.
                            out.push(char::from_u32(u32::from(code)).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // slicing at char boundaries is safe).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid utf-8 in string")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + u16::from(d);
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            offset: start,
            message: "invalid utf-8 in number".to_string(),
        })?;
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number '{text}'"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("false"), Ok(Json::Bool(false)));
        assert_eq!(parse("42"), Ok(Json::Num(42.0)));
        assert_eq!(parse("-1.5e3"), Ok(Json::Num(-1500.0)));
        assert_eq!(parse("\"hi\""), Ok(Json::Str("hi".to_string())));
    }

    #[test]
    fn parses_structures() {
        let doc = parse(r#"{"a": [1, 2, {"b": null}], "c": "x\ny"}"#).expect("valid");
        assert_eq!(
            doc.get("a").and_then(|a| a.as_array()).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x\ny"));
    }

    #[test]
    fn exact_integer_extraction() {
        let v = parse("9007199254740992").expect("valid"); // 2^53
        assert_eq!(v.as_u64(), Some(1 << 53));
        assert_eq!(parse("1.5").expect("valid").as_u64(), None);
        assert_eq!(parse("-3").expect("valid").as_u64(), None);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""Aé""#).expect("valid").as_str(), Some("Aé"));
        assert_eq!(parse("\"\\u0041z\"").expect("valid").as_str(), Some("Az"));
        assert_eq!(
            parse(r#""Ax\t\"é""#).expect("valid").as_str(),
            Some("Ax\t\"é")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("true false").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn roundtrips_baseline_shape() {
        let doc = parse(
            r#"{"schema": "uavdc-planner-baseline/2", "entries": [
                {"figure": "fig4", "delta_m": 5, "seed": 39582,
                 "plans_identical": true, "plan_hash": "00ff",
                 "lazy": {"evaluations": 1234, "loop_ns": 56789}}
            ]}"#,
        )
        .expect("valid");
        let entry = &doc.get("entries").and_then(|e| e.as_array()).expect("arr")[0];
        assert_eq!(
            entry.get("plans_identical").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            entry
                .get("lazy")
                .and_then(|l| l.get("evaluations"))
                .and_then(Json::as_u64),
            Some(1234)
        );
    }
}
