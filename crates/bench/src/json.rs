//! A minimal JSON reader for experiment artifacts.
//!
//! The vendored `serde` is a no-op stub (the build environment has no
//! registry access), and the artifact *writer* in this crate
//! ([`crate::artifact_json`]) is hand-rolled string assembly. Readers of
//! JSON documents (the `histbench` benchmark's result sets and
//! `BENCHMARK.json`) need the other direction, so this module implements
//! a small recursive-descent parser for the full JSON grammar, plus
//! helpers for walking objects and arrays.
//!
//! Object member order is preserved (members are a `Vec`, not a map):
//! artifact rows put their key column first.

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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
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

    fn number(&mut self) -> Result<JsonVal, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonVal::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{artifact_json, Table};

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        assert_eq!(parse("null").unwrap(), JsonVal::Null);
        assert_eq!(parse(" true ").unwrap(), JsonVal::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), JsonVal::Num(-1250.0));
        let doc = parse(r#"{"a":[1,{"b":"x"},false],"c":null}"#).unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("c"), Some(&JsonVal::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn member_order_is_preserved() {
        let doc = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = parse(r#""a \"q\" \n \t \\ A""#).unwrap();
        assert_eq!(doc.as_str(), Some("a \"q\" \n \t \\ A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1} x", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn reads_back_the_writer_shape() {
        let mut t = Table::new(&["fleet", "merges_per_sec"]);
        t.row(&["10000", "123.4"]);
        t.row(&["100000", "98.7"]);
        let doc = parse(&artifact_json("exp_scale", &[("scale", &t)])).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("exp_scale"));
        let rows = doc.get("tables").unwrap().get("scale").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        // The key column is the first member of every row object.
        assert_eq!(rows[0].as_obj().unwrap()[0].0, "fleet");
        assert_eq!(rows[1].get("merges_per_sec").unwrap().as_str(), Some("98.7"));
    }
}
