//! Serialization: types write themselves as JSON through a [`Serializer`].

use crate::de::DeError;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{Display, Write as _};
use std::rc::Rc;
use std::sync::Arc;

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` into `s` as one JSON value.
    ///
    /// # Errors
    ///
    /// Returns an error if the value holds a non-finite float (JSON has no
    /// representation for NaN or infinities).
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError>;

    /// Appends the raw (unquoted, unescaped) text of `self` used as a map
    /// key. Only implemented for strings, integers, booleans, and types
    /// forwarding to them.
    fn write_key(&self, _out: &mut String) {
        panic!(
            "unsupported map key type: {}",
            std::any::type_name::<Self>()
        );
    }
}

/// A JSON writer producing compact or pretty (two-space indent) output.
#[derive(Default)]
pub struct Serializer {
    out: String,
    pretty: bool,
    /// Nesting depth of the container being written.
    depth: usize,
    /// Whether the container being written has no element yet.
    first: bool,
    /// Scratch buffer for rendering map keys.
    key_buf: String,
}

impl Serializer {
    /// A writer for compact output.
    pub fn compact() -> Self {
        Self::default()
    }

    /// A writer for pretty-printed output.
    pub fn pretty() -> Self {
        Serializer {
            pretty: true,
            ..Self::default()
        }
    }

    /// The JSON written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `v`'s `Display` form verbatim: literals, integers, booleans.
    fn raw(&mut self, v: impl Display) {
        let _ = write!(self.out, "{v}");
    }

    /// Writes a float in Rust's shortest round-trippable `Display` form;
    /// integral floats below 1e15 gain a `.0` so they re-parse as floats.
    fn write_f64(&mut self, f: f64) -> Result<(), DeError> {
        if !f.is_finite() {
            return Err(DeError::msg("cannot serialize non-finite float as JSON"));
        }
        if f.fract() == 0.0 && f.abs() < 1e15 {
            let _ = write!(self.out, "{f:.1}");
        } else {
            self.raw(f);
        }
        Ok(())
    }

    /// Writes an escaped string literal.
    pub fn write_str(&mut self, s: &str) {
        let out = &mut self.out;
        out.push('"');
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0..=0x1f => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so `i` and `i + 1` are char boundaries.
            out.push_str(&s[start..i]);
            if esc.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(esc);
            }
            start = i + 1;
        }
        out.push_str(&s[start..]);
        out.push('"');
    }

    /// Opens a JSON array; follow with [`element`](Self::element) calls and
    /// [`end_array`](Self::end_array).
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Writes one array element, propagating its serialization error.
    pub fn element<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), DeError> {
        self.separate();
        v.serialize(self)
    }

    /// Closes the array opened by [`begin_array`](Self::begin_array).
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Opens a JSON object; follow with [`field`](Self::field) (or
    /// [`key`](Self::key) plus one value) calls and
    /// [`end_object`](Self::end_object).
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Writes the key of the next object entry; the caller writes its value.
    pub fn key(&mut self, k: &str) {
        self.separate();
        self.write_str(k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Writes one object entry, propagating its serialization error.
    pub fn field<T: Serialize + ?Sized>(&mut self, k: &str, v: &T) -> Result<(), DeError> {
        self.key(k);
        v.serialize(self)
    }

    /// Closes the object opened by [`begin_object`](Self::begin_object).
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Writes an array of `items`.
    fn seq<'a, T: Serialize + 'a>(
        &mut self,
        items: impl IntoIterator<Item = &'a T>,
    ) -> Result<(), DeError> {
        self.begin_array();
        for item in items {
            self.element(item)?;
        }
        self.end_array();
        Ok(())
    }

    /// Writes an object of `entries`, in iteration order.
    fn map<'a, K: Serialize + 'a, V: Serialize + 'a>(
        &mut self,
        entries: impl IntoIterator<Item = (&'a K, &'a V)>,
    ) -> Result<(), DeError> {
        self.begin_object();
        for (k, v) in entries {
            let mut key = std::mem::take(&mut self.key_buf);
            key.clear();
            k.write_key(&mut key);
            self.field(&key, v)?;
            self.key_buf = key;
        }
        self.end_object();
        Ok(())
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    /// Writes the separator and, when pretty, the line break and indent
    /// that precede a container element.
    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        // An empty container closes on the same line: `[]`, `{}`.
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat(' ').take(2 * self.depth));
        }
    }
}

macro_rules! ser_display {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
                s.raw(self);
                Ok(())
            }

            fn write_key(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

ser_display!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, bool);

impl Serialize for f64 {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.write_f64(*self)
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.write_f64(*self as f64)
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.write_str(self);
        Ok(())
    }

    fn write_key(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        self.as_str().serialize(s)
    }

    fn write_key(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.write_str(self.encode_utf8(&mut [0; 4]));
        Ok(())
    }

    fn write_key(&self, out: &mut String) {
        out.push(*self);
    }
}

impl Serialize for crate::Value {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        use crate::Value;
        match self {
            Value::Null => s.raw("null"),
            Value::Bool(b) => s.raw(b),
            Value::Int(i) => s.raw(i),
            Value::UInt(u) => s.raw(u),
            Value::Float(f) => s.write_f64(*f)?,
            Value::Str(v) => s.write_str(v),
            Value::Array(items) => s.seq(items)?,
            Value::Object(entries) => {
                s.begin_object();
                for (k, v) in entries {
                    s.field(k, v)?;
                }
                s.end_object();
            }
        }
        Ok(())
    }
}

macro_rules! ser_deref {
    ($($ptr:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr<T> {
            fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
                (**self).serialize(s)
            }

            fn write_key(&self, out: &mut String) {
                (**self).write_key(out)
            }
        }
    )*};
}

ser_deref!(Box, Arc, Rc);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        (**self).serialize(s)
    }

    fn write_key(&self, out: &mut String) {
        (**self).write_key(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        match self {
            Some(v) => v.serialize(s),
            None => {
                s.raw("null");
                Ok(())
            }
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.seq(self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.seq(self)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.seq(self)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.seq(self)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.map(self)
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        // Sort by key text for deterministic output.
        let mut entries: Vec<(String, &V)> = self
            .iter()
            .map(|(k, v)| {
                let mut key = String::new();
                k.write_key(&mut key);
                (key, v)
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        s.map(entries.iter().map(|(k, v)| (k, *v)))
    }
}

macro_rules! ser_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
                s.begin_array();
                $(s.element(&self.$idx)?;)+
                s.end_array();
                Ok(())
            }
        }
    };
}

ser_tuple!(A: 0);
ser_tuple!(A: 0, B: 1);
ser_tuple!(A: 0, B: 1, C: 2);
ser_tuple!(A: 0, B: 1, C: 2, D: 3);
ser_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
ser_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
