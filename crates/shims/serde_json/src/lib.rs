//! Offline stand-in for the `serde_json` crate.
//!
//! Serialization streams through the vendored serde shim's [`Serializer`];
//! parsing builds its [`Value`] tree. Numbers round-trip exactly: integers
//! are emitted verbatim and floats use Rust's shortest round-trippable
//! `Display` form. Both directions are linear in the document size.

use serde::{DeError, Deserialize, Serialize, Serializer, Value};

pub use serde::Value as JsonValue;

/// Errors from serialization or deserialization.
pub type Error = DeError;

/// A `Result` alias matching upstream's shape.
pub type Result<T> = std::result::Result<T, Error>;

/// Deepest nesting of arrays and objects [`parse`] accepts, as in upstream
/// `serde_json`; deeper input is an error rather than a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Serializes `value` to a compact JSON string.
///
/// # Errors
///
/// Returns an error if the value contains a non-finite float (JSON has no
/// representation for NaN or infinities).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut s = Serializer::compact();
    value.serialize(&mut s)?;
    Ok(s.into_string())
}

/// Serializes `value` to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Returns an error if the value contains a non-finite float.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut s = Serializer::pretty();
    value.serialize(&mut s)?;
    Ok(s.into_string())
}

/// Parses a value of type `T` from a JSON string.
///
/// # Errors
///
/// Returns an error on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::from_value(&value)
}

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns an error describing the first syntax problem encountered,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<Value> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(DeError::msg(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Parses one value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(DeError::msg(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ))),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(DeError::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(DeError::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(DeError::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let s = std::str::from_utf8(&rest[..run])
                .map_err(|_| DeError::msg("invalid UTF-8 in string"))?;
            out.push_str(s);
            self.pos += run;
            match self.peek() {
                None => return Err(DeError::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: an escape.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_literal("\\u") {
                                    return Err(DeError::msg("lone leading surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(DeError::msg("invalid trailing surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| DeError::msg("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| DeError::msg("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 consumed pos already
                        }
                        other => {
                            return Err(DeError::msg(format!(
                                "invalid escape {:?}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(DeError::msg("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| DeError::msg("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| DeError::msg("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DeError::msg("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| DeError::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        let s: String = from_str("\"hey \\u00e9\\n\"").unwrap();
        assert_eq!(s, "hey \u{e9}\n");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1f64, 1.0 / 3.0, 1e-12, 6.02e23, -0.0, 12.5, 3.0] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {json}");
        }
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn integral_floats_stay_floats() {
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        let back: f64 = from_str("3.0").unwrap();
        assert_eq!(back, 3.0);
    }

    #[test]
    fn maps_round_trip_with_numeric_keys() {
        let mut m: BTreeMap<u32, f64> = BTreeMap::new();
        m.insert(3, 1.5);
        m.insert(1, 2.5);
        let json = to_string(&m).unwrap();
        assert_eq!(json, "{\"1\":2.5,\"3\":1.5}");
        let back: BTreeMap<u32, f64> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v: Vec<(u32, String, Option<f64>)> =
            vec![(1, "a".into(), Some(0.5)), (2, "b\"quoted\"".into(), None)];
        let json = to_string(&v).unwrap();
        let back: Vec<(u32, String, Option<f64>)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_is_indented_and_parseable() {
        let mut m: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        m.insert("xs".into(), vec![1, 2]);
        let pretty = to_string_pretty(&m).unwrap();
        assert!(pretty.contains("\n  \"xs\": [\n    1,\n    2\n  ]"));
        let back: BTreeMap<String, Vec<u32>> = from_str(&pretty).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    fn parse_str(json: &str) -> Result<String> {
        from_str(json)
    }

    #[test]
    fn strings_copy_multibyte_runs_whole() {
        // 1-, 2-, 3- and 4-byte UTF-8 sequences inside one run.
        assert_eq!(parse_str("\"aé€😀z\"").unwrap(), "aé€😀z");
        assert_eq!(parse_str("\"😀\"").unwrap(), "😀");
        assert_eq!(parse_str("\"\"").unwrap(), "");
    }

    #[test]
    fn escapes_next_to_raw_runs() {
        assert_eq!(parse_str(r#""a\"é\u00e9b""#).unwrap(), "a\"ééb");
        assert_eq!(parse_str(r#""\\€\n\t\/""#).unwrap(), "\\€\n\t/");
        assert_eq!(parse_str(r#""\u20ac€\u20ac""#).unwrap(), "€€€");
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(parse_str(r#""\ud83d\ude00x""#).unwrap(), "😀x");
        assert_eq!(parse_str(r#""é\uD83D\uDE00é""#).unwrap(), "é😀é");
        assert!(parse_str(r#""\ud83d""#).is_err());
        assert!(parse_str(r#""\ud83dx""#).is_err());
        assert!(parse_str(r#""\ud83d\u0041""#).is_err());
    }

    #[test]
    fn bad_strings_are_errors() {
        let long = format!("\"{}", "é".repeat(10_000));
        assert_eq!(parse(&long), Err(DeError::msg("unterminated string")));
        assert_eq!(parse("\"ab\\"), Err(DeError::msg("invalid escape None")));
        assert!(parse(r#""\q""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\u12g4""#).is_err());
    }

    #[test]
    fn string_parsing_is_linear() {
        let chunk = "abcdefghijklmnopqrstuvwxyzé€😀\\n\\u00e9";
        let reps = (4 << 20) / chunk.len() + 1;
        let doc = format!("[\"{}\"]", chunk.repeat(reps));
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        // The old per-character scan re-validated the rest of the
        // document each time: about 10^13 byte checks for this input.
        let secs = start.elapsed().as_secs_f64();
        assert!(secs < 1.0, "4 MB string took {secs:.2} s");
        let decoded = "abcdefghijklmnopqrstuvwxyzé€😀\né";
        assert_eq!(
            v.as_array().unwrap()[0].as_str(),
            Some(&*decoded.repeat(reps))
        );
    }

    #[test]
    fn nesting_is_limited() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&nested(200_000)).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(200_000), "}".repeat(200_000));
        assert!(parse(&objects).is_err());
        let mixed = format!(
            "{}null{}",
            "{\"a\":[".repeat(MAX_DEPTH / 2),
            "]}".repeat(MAX_DEPTH / 2)
        );
        assert!(parse(&mixed).is_ok());
    }
}
