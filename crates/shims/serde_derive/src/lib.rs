//! Offline vendored `#[derive(Serialize, Deserialize)]` for the serde shim.
//!
//! Implemented directly over `proc_macro` token trees (the environment has
//! no syn/quote). Supports the shapes this workspace actually uses:
//!
//! * structs with named fields (objects, declaration order)
//! * tuple structs — one field serializes as a newtype (inner value),
//!   several fields as an array
//! * enums whose variants are all unit variants (variant-name strings)
//! * the `#[serde(with = "module")]` field attribute: the module must
//!   provide `serialize(&T, &mut Serializer) -> Result<(), DeError>`
//!   (writing exactly one JSON value) and
//!   `deserialize(&mut Deserializer) -> Result<T, DeError>` (reading one)
//!
//! `Serialize` writes straight into the `serde::Serializer` and
//! `Deserialize` reads straight from the `serde::Deserializer`; a struct
//! field's read error names the field. Newtypes and unit enums also
//! implement `write_key` and `from_key`, so they can key a map.
//!
//! Anything else (generics, lifetimes, data-carrying enum variants) is a
//! compile error pointing here, so unsupported shapes fail fast instead of
//! serializing wrongly.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named struct field.
struct Field {
    name: String,
    /// Module path from `#[serde(with = "path")]`, if present.
    with: Option<String>,
}

/// The item shapes the derives understand.
enum Shape {
    Named { name: String, fields: Vec<Field> },
    Tuple { name: String, arity: usize },
    UnitEnum { name: String, variants: Vec<String> },
}

/// Extracts `with = "path"` from a `#[serde(...)]` attribute group, if the
/// bracket group at `tokens[idx]` is one.
fn serde_with_of_attr(group: &proc_macro::Group) -> Option<String> {
    let inner: Vec<TokenTree> = group.stream().into_iter().collect();
    match inner.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let args = match inner.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        _ => return None,
    };
    let args: Vec<TokenTree> = args.into_iter().collect();
    let mut i = 0;
    while i < args.len() {
        if let TokenTree::Ident(id) = &args[i] {
            if id.to_string() == "with" {
                if let (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) =
                    (args.get(i + 1), args.get(i + 2))
                {
                    if eq.as_char() == '=' {
                        let s = lit.to_string();
                        return Some(s.trim_matches('"').to_string());
                    }
                }
            }
        }
        i += 1;
    }
    None
}

/// Skips an attribute (`#` + bracket group) at `i`, returning the new index
/// and any `serde(with = ...)` path found.
fn skip_attr(tokens: &[TokenTree], i: usize) -> (usize, Option<String>) {
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '#' {
            if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                if g.delimiter() == Delimiter::Bracket {
                    return (i + 2, serde_with_of_attr(g));
                }
            }
        }
    }
    (i, None)
}

/// Skips a visibility modifier (`pub`, `pub(crate)`, ...) at `i`.
fn skip_vis(tokens: &[TokenTree], i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                if g.delimiter() == Delimiter::Parenthesis {
                    return i + 2;
                }
            }
            return i + 1;
        }
    }
    i
}

/// Parses the fields of a brace-delimited (named-field) struct body.
fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut with = None;
        loop {
            let (next, w) = skip_attr(&tokens, i);
            if next == i {
                break;
            }
            if w.is_some() {
                with = w;
            }
            i = next;
        }
        i = skip_vis(&tokens, i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, with });
    }
    Ok(fields)
}

/// Counts the fields of a parenthesized (tuple) struct body.
fn parse_tuple_arity(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut depth = 0i32;
    let mut trailing = false;
    for (idx, t) in tokens.iter().enumerate() {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    if idx + 1 == tokens.len() {
                        trailing = true;
                    } else {
                        arity += 1;
                    }
                }
                _ => {}
            }
        }
    }
    let _ = trailing;
    arity
}

/// Parses the variants of an enum body; all must be unit variants.
fn parse_unit_variants(body: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        loop {
            let (next, _) = skip_attr(&tokens, i);
            if next == i {
                break;
            }
            i = next;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        if let Some(TokenTree::Group(_)) = tokens.get(i) {
            return Err(format!(
                "variant `{name}` carries data; the vendored serde derive only supports unit variants"
            ));
        }
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            other => {
                return Err(format!(
                    "expected `,` after variant `{name}`, found {other:?}"
                ))
            }
        }
        variants.push(name);
    }
    Ok(variants)
}

/// Parses the derive input item into one of the supported shapes.
fn parse_item(input: TokenStream) -> Result<Shape, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let kind = loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                let (next, _) = skip_attr(&tokens, i);
                i = next;
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    i += 1;
                    break s;
                }
                if s != "pub" {
                    return Err(format!("unsupported item modifier `{s}`"));
                }
                i = skip_vis(&tokens, i);
            }
            other => return Err(format!("unexpected token before item keyword: {other:?}")),
        }
    };
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, found {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "`{name}` is generic; the vendored serde derive does not support generics"
            ));
        }
    }
    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if kind == "struct" {
                Ok(Shape::Named {
                    name,
                    fields: parse_named_fields(g.stream())?,
                })
            } else {
                Ok(Shape::UnitEnum {
                    name,
                    variants: parse_unit_variants(g.stream())?,
                })
            }
        }
        Some(TokenTree::Group(g))
            if g.delimiter() == Delimiter::Parenthesis && kind == "struct" =>
        {
            Ok(Shape::Tuple {
                name,
                arity: parse_tuple_arity(g.stream()),
            })
        }
        other => Err(format!("unsupported item body for `{name}`: {other:?}")),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Derives `serde::Serialize` (the vendored, streaming flavor).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = match parse_item(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    // `body` writes the value into `s`; `key` (newtypes and unit enums
    // only) is the `write_key` method letting the type key a map.
    let (name, body, key) = match shape {
        Shape::Named { name, fields } => {
            let mut body = String::from("s.begin_object();\n");
            for f in &fields {
                body.push_str(&match &f.with {
                    Some(path) => {
                        format!(
                            "s.key(\"{0}\");\n{path}::serialize(&self.{0}, s)?;\n",
                            f.name
                        )
                    }
                    None => format!("s.field(\"{0}\", &self.{0})?;\n", f.name),
                });
            }
            body.push_str("s.end_object();\n::std::result::Result::Ok(())");
            (name, body, String::new())
        }
        Shape::Tuple { name, arity: 1 } => (
            name,
            "::serde::Serialize::serialize(&self.0, s)".to_string(),
            "fn write_key(&self, out: &mut ::std::string::String) {\n\
                 ::serde::Serialize::write_key(&self.0, out)\n\
             }"
            .to_string(),
        ),
        Shape::Tuple { name, arity } => {
            let mut body = String::from("s.begin_array();\n");
            for i in 0..arity {
                body.push_str(&format!("s.element(&self.{i})?;\n"));
            }
            body.push_str("s.end_array();\n::std::result::Result::Ok(())");
            (name, body, String::new())
        }
        Shape::UnitEnum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => \"{v}\""))
                .collect();
            let text = format!("match self {{ {} }}", arms.join(","));
            (
                name,
                format!("s.write_str({text});\n::std::result::Result::Ok(())"),
                format!("fn write_key(&self, out: &mut ::std::string::String) {{ out.push_str({text}) }}"),
            )
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, s: &mut ::serde::Serializer)\n\
                 -> ::std::result::Result<(), ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
             {key}\n\
         }}"
    )
    .parse()
    .unwrap()
}

/// Derives `serde::Deserialize` (the vendored, streaming flavor).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = match parse_item(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    // `body` reads the value from `d`; `key` (newtypes and unit enums only)
    // is the `from_key` method letting the type key a map.
    let (name, body, key) = match shape {
        Shape::Named { name, fields } => {
            // One slot per field; a repeated key keeps its first value, and
            // unknown keys are skipped.
            let mut body = String::new();
            let mut arms = String::new();
            let mut inits = String::new();
            for f in &fields {
                let (field, slot) = (&f.name, format!("field_{}", f.name));
                body.push_str(&format!("let mut {slot} = ::std::option::Option::None;\n"));
                let read = match &f.with {
                    Some(path) => format!("{path}::deserialize(d)"),
                    None => "::serde::Deserialize::deserialize(d)".to_string(),
                };
                arms.push_str(&format!(
                    "\"{field}\" if {slot}.is_none() => {slot} = ::std::option::Option::Some(\n\
                         {read}.map_err(|e| e.in_field(\"{field}\", \"{name}\"))?),\n"
                ));
                let missing = match &f.with {
                    Some(_) => "::std::option::Option::None",
                    None => "::serde::Deserialize::missing()",
                };
                inits.push_str(&format!(
                    "{field}: match {slot} {{\n\
                         ::std::option::Option::Some(v) => v,\n\
                         ::std::option::Option::None => {missing}.ok_or_else(||\n\
                             ::serde::DeError::msg(\"missing field `{field}` in {name}\"))?,\n\
                     }},\n"
                ));
            }
            body.push_str(&format!(
                "let mut more = d.begin_object(\"{name}\")?;\n\
                 while more {{\n\
                     match d.key()? {{\n\
                         {arms}\
                         _ => d.skip_value()?,\n\
                     }}\n\
                     more = d.next_entry()?;\n\
                 }}\n\
                 ::std::result::Result::Ok({name} {{ {inits} }})"
            ));
            (name, body, String::new())
        }
        Shape::Tuple { name, arity: 1 } => (
            name.clone(),
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(d)?))"),
            format!(
                "fn from_key(key: &str) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                     ::std::result::Result::Ok({name}(::serde::Deserialize::from_key(key)?))\n\
                 }}"
            ),
        ),
        Shape::Tuple { name, arity } => {
            let items = vec![format!("::serde::element(d, &mut more, {arity})?"); arity];
            let body = format!(
                "let mut more = d.begin_array(\"{name}\")?;\n\
                 let v = {name}({});\n\
                 ::serde::end_elements(more, {arity})?;\n\
                 ::std::result::Result::Ok(v)",
                items.join(", ")
            );
            (name, body, String::new())
        }
        Shape::UnitEnum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v})"))
                .collect();
            let arms = arms.join(",\n");
            (
                name.clone(),
                format!(
                    "match <::serde::Value as ::serde::Deserialize>::deserialize(d)? {{\n\
                         ::serde::Value::Str(s) => <Self as ::serde::Deserialize>::from_key(&s),\n\
                         v => ::std::result::Result::Err(\n\
                             ::serde::DeError::expected(\"string\", \"{name}\", &v)),\n\
                     }}"
                ),
                format!(
                    "fn from_key(key: &str) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match key {{\n\
                             {arms},\n\
                             other => ::std::result::Result::Err(::serde::DeError::msg(\n\
                                 ::std::format!(\"unknown {name} variant `{{other}}`\"))),\n\
                         }}\n\
                     }}"
                ),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(d: &mut ::serde::Deserializer<'_>)\n\
                 -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
             {key}\n\
         }}"
    )
    .parse()
    .unwrap()
}
