//! The workspace's one JSON module: a minimal, strict parser and the
//! string escape for JSON output — hand-rolled because the workspace has
//! no external dependencies (no `serde`).
//!
//! `serve` parses request bodies and escapes response strings with it,
//! `bench_diff` parses `BENCH_*.json` reports with it, and every report
//! writer escapes its labels and failure reasons with [`escape`]. The
//! writers keep their own `format!` layouts: their bytes are the contract.
//!
//! The parser is recursive descent over bytes with a hard depth cap, and
//! every failure is a typed `Err` carrying the byte offset — a malformed
//! request body must become a `400` and a malformed report an exit-3
//! diagnostic, never a panic (pinned by `crates/serve/tests/server.rs`
//! and `crates/sim/tests/bench_diff_cli.rs`). Numbers parse as `f64`,
//! which is exact for every integer the request schemas use (uop
//! budgets, future-bit counts — all far below 2^53).

/// Maximum nesting depth the parser accepts. Request bodies are flat
/// (two levels in practice) and the deepest `BENCH_*.json` report nests
/// five; the cap exists so a pathological `[[[[…]]]]` input exhausts the
/// error path, not the stack.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (exact for |n| < 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order. Duplicate keys are kept;
    /// [`Json::get`] returns the first match.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (`None` for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in
    /// `u64` range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure: message plus the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// A [`ParseError`] naming the malformation and its byte offset.
pub fn parse(input: &[u8]) -> Result<Json, ParseError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.input[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
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
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: accept, combine; a lone
                            // surrogate decodes to U+FFFD rather than
                            // failing the whole request body.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                self.low_surrogate(cp)
                            } else if (0xDC00..0xE000).contains(&cp) {
                                '\u{FFFD}'
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn low_surrogate(&mut self, high: u32) -> char {
        let rewind = self.pos;
        if self.input[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            if let Ok(low) = self.hex4() {
                if (0xDC00..0xE000).contains(&low) {
                    let cp = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(cp).unwrap_or('\u{FFFD}');
                }
            }
        }
        self.pos = rewind;
        '\u{FFFD}'
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.input.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.input[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Escapes a string for embedding in JSON output (quotes not included).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shapes() {
        let body = br#"{"spec": {"prophet": "2Bc-gskew", "future_bits": 3,
                         "confident_override": true},
                        "benchmarks": ["gzip", "gcc"], "cycles": false}"#;
        let v = parse(body).unwrap();
        assert_eq!(
            v.get("spec").unwrap().get("prophet").unwrap().as_str(),
            Some("2Bc-gskew")
        );
        assert_eq!(
            v.get("spec").unwrap().get("future_bits").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(v.get("cycles").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("benchmarks").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn rejects_malformations_with_offsets() {
        for bad in [
            &b"{"[..],
            b"[1, 2",
            b"{\"a\" 1}",
            b"\"unterminated",
            b"nul",
            b"01x",
            b"{} trailing",
            b"\x80\x80",
            b"1e999",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn depth_cap_errors_instead_of_overflowing() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = parse(deep.as_bytes()).unwrap_err();
        assert!(err.message.contains("deep"));
    }

    #[test]
    fn unicode_escapes_decode() {
        let wire = "\"a\u{e9}\u{1F600}b\\udc00 pair\\ud83d\\ude00\"";
        let v = parse(wire.as_bytes()).unwrap();
        assert_eq!(v.as_str(), Some("a\u{e9}\u{1F600}b\u{FFFD} pair\u{1F600}"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "tab\t quote\" back\\ newline\n ctrl\u{1}";
        let wire = format!("\"{}\"", escape(original));
        assert_eq!(parse(wire.as_bytes()).unwrap().as_str(), Some(original));
    }
}
