//! The workspace's one JSON reader and string escaper.
//!
//! The vendored `serde` is a no-op stub (the build environment has no
//! registry access), so JSON is written by hand-rolled string assembly
//! and read back by the small recursive-descent parser here: [`parse`]
//! turns a document into a [`JsonVal`] tree, [`validate_json_line`]
//! checks that a flight-recorder or export dump line is exactly one
//! well-formed value, and [`push_escaped`] is the escaper every writer
//! shares.
//!
//! Object member order is preserved (members are a `Vec`, not a map):
//! artifact rows put their key column first.

/// Appends `s` to `out` with JSON string escaping (no surrounding
/// quotes).
pub fn push_escaped(out: &mut String, s: &str) {
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
}

/// Validates that `line` is exactly one well-formed JSON value (object,
/// array, string, number, boolean, or null) with nothing trailing.
/// Returns a position-tagged error on malformed input.
pub fn validate_json_line(line: &str) -> Result<(), String> {
    parse(line).map(|_| ())
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonVal>),
    /// An object, in source member order.
    Obj(Vec<(String, JsonVal)>),
}

impl JsonVal {
    /// Looks up `key` in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonVal> {
        match self {
            JsonVal::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonVal]> {
        match self {
            JsonVal::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members in source order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonVal)]> {
        match self {
            JsonVal::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses a JSON document. Errors carry the byte offset of the problem.
pub fn parse(input: &str) -> Result<JsonVal, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonVal) -> Result<JsonVal, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonVal, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonVal::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonVal::Bool(true)),
            Some(b'f') => self.literal("false", JsonVal::Bool(false)),
            Some(b'n') => self.literal("null", JsonVal::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonVal, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonVal::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonVal::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonVal, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonVal::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonVal::Arr(items));
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
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let hex = std::str::from_utf8(hex).expect("ASCII hex digits");
                            let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                            self.pos += 4;
                            // Surrogates never appear in the ASCII-ish
                            // artifacts this reads; map them to U+FFFD
                            // rather than implementing pairing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                Some(0x00..=0x1f) => {
                    return Err(format!("unescaped control byte at byte {}", self.pos));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // slicing at char boundaries is safe to find).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    out.push_str(std::str::from_utf8(&rest[..len]).map_err(|_| "bad UTF-8")?);
                    self.pos += len;
                }
            }
        }
    }

    /// Consumes a run of ASCII digits; `false` when there was none.
    fn digits(&mut self) -> bool {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > from
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?` — the JSON number
    /// grammar, so forms `f64::from_str` would also take (`1.`, `-.5`,
    /// `1e`) are rejected.
    fn number(&mut self) -> Result<JsonVal, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !self.digits() {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(format!("expected fraction digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(format!("expected exponent digits at byte {}", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        text.parse::<f64>().map(JsonVal::Num).map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_lines() {
        for line in [
            r#"{"type":"span","ns":12}"#,
            r#"{"a":{"b":[1,2.5,-3,1e9]},"c":"x\"y\n","d":null,"e":true,"f":false}"#,
            r#"[]"#,
            r#"  {}  "#,
            r#""just a string""#,
            r#"-0.5e-3"#,
        ] {
            validate_json_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        for line in [
            "",
            "{",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{'a':1}"#,
            r#"{"a":1} trailing"#,
            "[1,]",
            r#""unterminated"#,
            "01x",
            "nul",
            "{\"a\":\"raw\ncontrol\"}",
        ] {
            assert!(validate_json_line(line).is_err(), "accepted malformed: {line:?}");
        }
    }

    #[test]
    fn escaping_round_trips_through_validation() {
        let mut out = String::from("{\"v\":\"");
        push_escaped(&mut out, "quote\" slash\\ nl\n tab\t ctrl\u{1} done");
        out.push_str("\"}");
        validate_json_line(&out).unwrap();
    }

    #[test]
    fn parser_holds_the_grammar_where_rust_parsing_is_looser() {
        // `f64::from_str` and `u32::from_str_radix` accept these; JSON
        // does not.
        for bad in ["1.", "-.5", "1e", "1e+", "--1", "\"\\u+abc\"", "\"raw\ttab\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse("-0.5E+2").unwrap(), JsonVal::Num(-50.0));
        assert_eq!(parse("\"\\u00e9\"").unwrap().as_str(), Some("\u{e9}"));
    }
}
