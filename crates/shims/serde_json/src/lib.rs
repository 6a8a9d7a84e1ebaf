//! Offline stand-in for the `serde_json` crate.
//!
//! Serialization streams through the vendored serde shim's [`Serializer`];
//! parsing pulls tokens from its [`Deserializer`], the one lexer and the
//! one nesting rule ([`MAX_DEPTH`]) every reader shares. [`from_str`]
//! builds the target type directly; [`parse`] builds a [`Value`] tree for
//! callers that want one. Numbers round-trip exactly: integers are emitted
//! verbatim and floats use Rust's shortest round-trippable `Display` form.
//! Both directions are linear in the document size.

use serde::{DeError, Deserialize, Serialize, Serializer, Value};

pub use serde::Value as JsonValue;
pub use serde::{Deserializer, MAX_DEPTH};

/// Errors from serialization or deserialization.
pub type Error = DeError;

/// A `Result` alias matching upstream's shape.
pub type Result<T> = std::result::Result<T, Error>;

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
    let mut d = Deserializer::from_slice(s.as_bytes());
    let value = T::deserialize(&mut d);
    d.end(value)
}

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns an error describing the first syntax problem encountered,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<Value> {
    from_str(s)
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

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
    struct Id(u32);

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Tier {
        Gold,
        Tin,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Pair(u32, String);

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Row {
        id: Id,
        tier: Tier,
        note: Option<String>,
        by_id: BTreeMap<Id, Tier>,
        pair: Pair,
    }

    #[test]
    fn derived_types_read_what_they_write() {
        let row = Row {
            id: Id(7),
            tier: Tier::Tin,
            note: None,
            by_id: BTreeMap::from([(Id(2), Tier::Gold)]),
            pair: Pair(1, "a".into()),
        };
        let json = to_string(&row).unwrap();
        assert_eq!(from_str::<Row>(&json).unwrap(), row);
        // Keys in any order, unknown keys skipped, a repeated key keeps its
        // first value, and an absent `Option` field reads as `None`.
        let text = r#"{"pair": [1, "a"], "extra": {"x": [1]}, "by_id": {"2": "Gold"},
            "tier": "Tin", "id": 7, "tier": "Gold"}"#;
        assert_eq!(from_str::<Row>(text).unwrap(), row);
    }

    #[test]
    fn derived_read_errors_name_the_field() {
        let err = |text: &str| from_str::<Row>(text).unwrap_err().to_string();
        let row = |id: &str, pair: &str| {
            format!(r#"{{"id": {id}, "tier": "Tin", "by_id": {{}}, "pair": {pair}}}"#)
        };
        assert_eq!(
            err(&row("4294967296", "[1, \"a\"]")),
            "field `id` of Row: 4294967296 out of range for u32"
        );
        assert_eq!(
            err(&row("1", "[1]")),
            "field `pair` of Row: expected a 2-element array"
        );
        assert_eq!(
            err(&row("1", "[1, \"a\", 2]")),
            "field `pair` of Row: expected a 2-element array"
        );
        assert_eq!(
            err(r#"{"id": 1, "tier": "Lead"}"#),
            "field `tier` of Row: unknown Tier variant `Lead`"
        );
        assert_eq!(err(r#"{"id": 1}"#), "missing field `tier` in Row");
        assert_eq!(err("[]"), "expected object while reading Row, found array");
    }

    /// A stream that hands out one byte per read, so every token of a
    /// document crosses a read boundary.
    struct Trickle<'a>(&'a [u8]);

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    fn parse_stream(doc: &str) -> Result<Value> {
        let mut d = Deserializer::from_reader(Trickle(doc.as_bytes()));
        let value = Value::deserialize(&mut d);
        d.end(value)
    }

    #[test]
    fn a_stream_read_byte_by_byte_parses_like_a_string() {
        let doc = r#" {"a": [1, -2, 3.5, 1e3, -0.0, 18446744073709551615, 1E-7, 2.5E+2],
            "é\u00e9😀\ud83d\ude00\n": "x\"y\\z\/", "t": [true, false, null, {}, [[]]]} "#;
        assert!(parse(doc).is_ok());
        let malformed = [
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{,}",
            "tru",
            "nul",
            "1.5e",
            "-",
            "[\"ab\\",
            "\"\\ud83dx\"",
            "\"\\u12g4\"",
            "[1] x",
            "",
        ];
        let prefixes = (0..doc.len()).filter(|&n| doc.is_char_boundary(n));
        for text in malformed.into_iter().chain(prefixes.map(|n| &doc[..n])) {
            assert_eq!(parse_stream(text), parse(text), "{text:?}");
        }
        assert_eq!(parse_stream(doc), parse(doc));
    }

    #[test]
    fn a_read_error_is_reported_over_the_syntax_error_it_causes() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        let mut d = Deserializer::from_reader(std::io::Read::chain(&b"[1, 2"[..], Failing));
        let value = Value::deserialize(&mut d);
        assert_eq!(d.end(value), Err(DeError::msg("read error: disk gone")));
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
