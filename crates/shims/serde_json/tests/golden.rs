//! Golden bytes of the serializer: exact compact and pretty output for
//! every value kind and for the edge cases reports and traces rely on.

use serde::{Serialize, Value};
use serde_json::{to_string, to_string_pretty};
use std::collections::{BTreeMap, HashMap};

/// Asserts the exact compact and pretty renderings of `v`.
fn golden<T: Serialize + ?Sized>(v: &T, compact: &str, pretty: &str) {
    assert_eq!(to_string(v).unwrap(), compact);
    assert_eq!(to_string_pretty(v).unwrap(), pretty);
}

#[test]
fn scalar_value_kinds() {
    golden(&Value::Null, "null", "null");
    golden(&Value::Bool(true), "true", "true");
    golden(&Value::Bool(false), "false", "false");
    golden(&Value::Int(-42), "-42", "-42");
    golden(
        &Value::Int(i64::MIN),
        "-9223372036854775808",
        "-9223372036854775808",
    );
    golden(
        &Value::UInt(u64::MAX),
        "18446744073709551615",
        "18446744073709551615",
    );
    golden(&u64::MAX, "18446744073709551615", "18446744073709551615");
    golden(&Value::Float(2.5), "2.5", "2.5");
    golden(&Value::Str("hi".into()), "\"hi\"", "\"hi\"");
}

#[test]
fn float_forms() {
    golden(&3.0f64, "3.0", "3.0");
    golden(&-0.0f64, "-0.0", "-0.0");
    golden(&0.1f64, "0.1", "0.1");
    golden(&1e-7f64, "0.0000001", "0.0000001");
    golden(
        &999999999999999.0f64,
        "999999999999999.0",
        "999999999999999.0",
    );
    // From 1e15 up, integral floats print without the `.0` suffix.
    golden(&1e15f64, "1000000000000000", "1000000000000000");
    golden(&-2e16f64, "-20000000000000000", "-20000000000000000");
    golden(&1.5f32, "1.5", "1.5");
}

#[test]
fn string_escapes() {
    let s = "q\"b\\n\nr\rt\tb\u{08}f\u{0c}c\u{01}\u{1f}d\u{7f}é€😀";
    let want = "\"q\\\"b\\\\n\\nr\\rt\\tb\\bf\\fc\\u0001\\u001fd\u{7f}é€😀\"";
    golden(s, want, want);
    golden(&'\u{0}', "\"\\u0000\"", "\"\\u0000\"");
}

#[test]
fn arrays_and_objects() {
    let v = Value::Object(vec![
        ("a".into(), Value::Array(vec![Value::Int(1), Value::Null])),
        ("empty_a".into(), Value::Array(vec![])),
        ("empty_o".into(), Value::Object(vec![])),
        (
            "nest".into(),
            Value::Object(vec![(
                "deep".into(),
                Value::Array(vec![Value::Array(vec![Value::Float(1.0)])]),
            )]),
        ),
        ("k\"ey".into(), Value::Str("v".into())),
    ]);
    golden(
        &v,
        "{\"a\":[1,null],\"empty_a\":[],\"empty_o\":{},\"nest\":{\"deep\":[[1.0]]},\"k\\\"ey\":\"v\"}",
        "{\n  \"a\": [\n    1,\n    null\n  ],\n  \"empty_a\": [],\n  \"empty_o\": {},\n  \
         \"nest\": {\n    \"deep\": [\n      [\n        1.0\n      ]\n    ]\n  },\n  \
         \"k\\\"ey\": \"v\"\n}",
    );
    golden(&Value::Array(vec![]), "[]", "[]");
    golden(&Value::Object(vec![]), "{}", "{}");
    golden(&Vec::<u32>::new(), "[]", "[]");
    golden(&BTreeMap::<u32, u32>::new(), "{}", "{}");
}

#[test]
fn std_containers() {
    golden(
        &(1u8, "x", Some(2.0f64), None::<u32>),
        "[1,\"x\",2.0,null]",
        "[\n  1,\n  \"x\",\n  2.0,\n  null\n]",
    );
    golden(&[true, false], "[true,false]", "[\n  true,\n  false\n]");
    golden(
        &std::collections::BTreeSet::from([3u16, 1]),
        "[1,3]",
        "[\n  1,\n  3\n]",
    );
}

#[test]
fn hash_map_keys_come_out_sorted_as_strings() {
    let m: HashMap<u32, bool> = [(9, true), (100, false), (10, true)].into_iter().collect();
    golden(
        &m,
        "{\"10\":true,\"100\":false,\"9\":true}",
        "{\n  \"10\": true,\n  \"100\": false,\n  \"9\": true\n}",
    );
    let m: HashMap<String, u8> = [("b".into(), 2), ("a\n".into(), 1)].into_iter().collect();
    golden(
        &m,
        "{\"a\\n\":1,\"b\":2}",
        "{\n  \"a\\n\": 1,\n  \"b\": 2\n}",
    );
}

#[derive(Serialize, PartialEq, Eq, PartialOrd, Ord)]
struct Id(u32);

#[derive(Serialize, PartialEq, Eq, PartialOrd, Ord)]
enum Color {
    Red,
    Green,
}

#[test]
fn newtype_and_enum_keys() {
    let m: BTreeMap<Id, &str> = [(Id(10), "ten"), (Id(2), "two")].into_iter().collect();
    golden(
        &m,
        "{\"2\":\"two\",\"10\":\"ten\"}",
        "{\n  \"2\": \"two\",\n  \"10\": \"ten\"\n}",
    );
    let m: BTreeMap<Color, u8> = [(Color::Green, 1), (Color::Red, 0)].into_iter().collect();
    golden(
        &m,
        "{\"Red\":0,\"Green\":1}",
        "{\n  \"Red\": 0,\n  \"Green\": 1\n}",
    );
}

/// Renders a `u32` as a hex string, through the `with` contract.
mod hex {
    use serde::{DeError, Serializer};

    pub fn serialize(v: &u32, s: &mut Serializer) -> Result<(), DeError> {
        s.write_str(&format!("{v:#x}"));
        Ok(())
    }
}

#[derive(Serialize)]
struct Pair(i32, String);

#[derive(Serialize)]
struct Record {
    name: String,
    #[serde(with = "hex")]
    mask: u32,
    id: Id,
    pair: Pair,
    color: Color,
    tags: Vec<Id>,
    missing: Option<u8>,
    nested: Empty,
}

#[derive(Serialize)]
struct Empty {}

#[test]
fn derived_struct_with_a_with_field() {
    let r = Record {
        name: "n".into(),
        mask: 255,
        id: Id(7),
        pair: Pair(-1, "p".into()),
        color: Color::Green,
        tags: vec![Id(1), Id(2)],
        missing: None,
        nested: Empty {},
    };
    golden(
        &r,
        "{\"name\":\"n\",\"mask\":\"0xff\",\"id\":7,\"pair\":[-1,\"p\"],\"color\":\"Green\",\
         \"tags\":[1,2],\"missing\":null,\"nested\":{}}",
        "{\n  \"name\": \"n\",\n  \"mask\": \"0xff\",\n  \"id\": 7,\n  \"pair\": [\n    -1,\n    \
         \"p\"\n  ],\n  \"color\": \"Green\",\n  \"tags\": [\n    1,\n    2\n  ],\n  \
         \"missing\": null,\n  \"nested\": {}\n}",
    );
}

#[test]
fn nested_non_finite_floats_are_errors() {
    let deep = vec![BTreeMap::from([(1u32, vec![None, Some(f64::NAN)])])];
    assert!(to_string(&deep).is_err());
    assert!(to_string_pretty(&deep).is_err());
    let v = Value::Array(vec![Value::Object(vec![(
        "x".into(),
        Value::Float(f64::INFINITY),
    )])]);
    assert!(to_string(&v).is_err());
    assert!(to_string_pretty(&v).is_err());
    assert!(to_string(&f64::NEG_INFINITY).is_err());
}
