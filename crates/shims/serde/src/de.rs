//! Deserialization: types read themselves from a pull [`Deserializer`].

use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read};
use std::sync::Arc;

/// Deepest nesting of arrays and objects the reader accepts, as in upstream
/// `serde_json`; deeper input is an error rather than a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Bytes read from a stream at a time.
const CHUNK: usize = 64 * 1024;

/// A deserialization error: what was expected and what was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// Builds an error from a message.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }

    /// Builds an "expected X while reading Y, found Z" error.
    pub fn expected(what: &str, context: &str, found: &Value) -> Self {
        DeError(format!(
            "expected {what} while reading {context}, found {}",
            found.kind()
        ))
    }

    /// Prefixes the error with the struct field whose value it is about.
    pub fn in_field(self, field: &str, ty: &str) -> Self {
        DeError(format!("field `{field}` of {ty}: {}", self.0))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one JSON value from `d` as `Self`.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or a value of the wrong shape.
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError>;

    /// Reads `Self` from the text of a JSON object key, the inverse of
    /// `Serialize::write_key`. Only implemented for strings, integers and
    /// types forwarding to them.
    fn from_key(key: &str) -> Result<Self, DeError> {
        Err(DeError::msg(format!(
            "unsupported map key type {} (key `{key}`)",
            std::any::type_name::<Self>()
        )))
    }

    /// The value to use when a struct field of this type is absent from the
    /// serialized object. `None` means "absence is an error"; `Option<T>`
    /// overrides this so missing fields read as `None`.
    fn missing() -> Option<Self> {
        None
    }
}

/// A pull reader of one JSON document, from a string or a byte stream.
///
/// Callers walk the document in order: [`peek`](Self::peek) at the next
/// value, open containers with [`begin_array`](Self::begin_array) and
/// [`begin_object`](Self::begin_object), read scalars through
/// `Value::deserialize`, and close with [`end`](Self::end). A stream is
/// read 64 KiB at a time, so memory does not grow with the document. A
/// syntax error gives its byte offset, and nesting deeper than
/// [`MAX_DEPTH`] is an error. Each method returns the first error it meets.
pub struct Deserializer<'a> {
    /// The bytes not yet discarded: the whole document for a slice, the
    /// current chunk for a stream.
    buf: Cow<'a, [u8]>,
    /// Bytes of `buf` that hold input; a stream's buffer is longer.
    filled: usize,
    /// Read position in `buf`.
    pos: usize,
    /// Bytes discarded before `buf`, so errors give document offsets.
    base: usize,
    /// The stream chunks come from; `None` for a slice.
    reader: Option<Box<dyn Read + 'a>>,
    /// The first read error, which [`end`](Self::end) reports in place of
    /// the syntax error it caused.
    io_error: Option<io::Error>,
    /// Arrays and objects open around the read position.
    depth: usize,
    /// Reused buffer for the text of strings.
    scratch: Vec<u8>,
}

impl<'a> Deserializer<'a> {
    /// A reader over a whole document in memory.
    pub fn from_slice(bytes: &'a [u8]) -> Self {
        Deserializer {
            buf: Cow::Borrowed(bytes),
            filled: bytes.len(),
            pos: 0,
            base: 0,
            reader: None,
            io_error: None,
            depth: 0,
            scratch: Vec::new(),
        }
    }

    /// A reader over a byte stream. It buffers the stream itself, so
    /// wrapping `r` in a `BufReader` gains nothing.
    pub fn from_reader(r: impl Read + 'a) -> Self {
        Deserializer {
            buf: Cow::Owned(Vec::new()),
            reader: Some(Box::new(r)),
            ..Deserializer::from_slice(&[])
        }
    }

    /// Finishes the document whose reading gave `value`: a read error of
    /// the stream comes first (it caused whatever `value` says), then
    /// `value`'s own error, then anything but whitespace after the value.
    pub fn end<T>(&mut self, value: Result<T, DeError>) -> Result<T, DeError> {
        if let Some(e) = self.io_error.take() {
            return Err(DeError::msg(format!("read error: {e}")));
        }
        let value = value?;
        match self.peek() {
            None => Ok(value),
            Some(_) => Err(self.syntax("trailing characters")),
        }
    }

    /// The next byte after any whitespace, without consuming it; `None` at
    /// the end of the input.
    pub fn peek(&mut self) -> Option<u8> {
        loop {
            let rest = &self.buf[self.pos..self.filled];
            if let Some(n) = rest
                .iter()
                .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += n;
                return Some(rest[n]);
            }
            self.pos = self.filled;
            if !self.fill() {
                return None;
            }
        }
    }

    /// Opens the array a `context` value must be; returns whether an
    /// element follows. Read each element, then call
    /// [`next_element`](Self::next_element).
    pub fn begin_array(&mut self, context: &str) -> Result<bool, DeError> {
        self.open(b'[', b']', "array", context)
    }

    /// After an array element: whether another follows.
    pub fn next_element(&mut self) -> Result<bool, DeError> {
        self.next_or_close(b']', false)
    }

    /// Opens the object a `context` value must be; returns whether an entry
    /// follows. Read each entry's [`key`](Self::key) and value, then call
    /// [`next_entry`](Self::next_entry).
    pub fn begin_object(&mut self, context: &str) -> Result<bool, DeError> {
        self.open(b'{', b'}', "object", context)
    }

    /// Reads an object entry's key and the `:` after it.
    pub fn key(&mut self) -> Result<&str, DeError> {
        self.peek();
        self.scan_string()?;
        self.peek();
        self.expect(b':')?;
        self.scratch_str()
    }

    /// After an object entry: whether another follows.
    pub fn next_entry(&mut self) -> Result<bool, DeError> {
        self.next_or_close(b'}', false)
    }

    /// Reads past the next value, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        Value::deserialize(self).map(drop)
    }

    /// The error for a next value that is not the `what` a `context`
    /// expects: it names the value's kind, or is the syntax error if the
    /// value is malformed.
    fn mismatch(&mut self, what: &str, context: &str) -> DeError {
        match Value::deserialize(self) {
            Ok(v) => DeError::expected(what, context, &v),
            Err(e) => e,
        }
    }

    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn syntax(&self, what: &str) -> DeError {
        DeError::msg(format!("{what} at byte {}", self.offset()))
    }

    /// Makes `buf[pos]` readable, reading on in the stream once the buffer
    /// is used up; false at the end of the input.
    #[inline]
    fn fill(&mut self) -> bool {
        self.pos < self.filled || self.read_more()
    }

    /// Discards the consumed bytes and appends the stream's next chunk to
    /// the rest; false if nothing more was read (at the end of the stream,
    /// or after a read error, which is kept for [`end`](Self::end)).
    fn read_more(&mut self) -> bool {
        let (Some(reader), None) = (&mut self.reader, &self.io_error) else {
            return false;
        };
        let buf = self.buf.to_mut();
        buf.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.base += self.pos;
        self.pos = 0;
        if buf.len() < self.filled + CHUNK {
            buf.resize(self.filled + CHUNK, 0);
        }
        loop {
            match reader.read(&mut buf[self.filled..]) {
                Ok(n) => {
                    self.filled += n;
                    return n > 0;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.io_error = Some(e);
                    return false;
                }
            }
        }
    }

    /// The byte at the read position, whitespace included.
    #[inline]
    fn byte(&mut self) -> Option<u8> {
        self.fill().then(|| self.buf[self.pos])
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(&format!("expected `{}`", b as char)))
        }
    }

    /// Consumes `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        for &b in lit.as_bytes() {
            if self.byte() != Some(b) {
                return false;
            }
            self.pos += 1;
        }
        true
    }

    fn open(&mut self, open: u8, close: u8, what: &str, context: &str) -> Result<bool, DeError> {
        if self.peek() != Some(open) {
            return Err(self.mismatch(what, context));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.syntax(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.next_or_close(close, true)
    }

    /// Consumes a `close` (ending the container) or, unless the container
    /// was just opened, a `,`; returns whether a member follows.
    fn next_or_close(&mut self, close: u8, opened: bool) -> Result<bool, DeError> {
        match self.peek() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if opened => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.syntax(&format!("expected `,` or `{}`", close as char))),
        }
    }

    /// The string in `scratch`, checked to be UTF-8.
    fn scratch_str(&self) -> Result<&str, DeError> {
        std::str::from_utf8(&self.scratch).map_err(|_| DeError::msg("invalid UTF-8 in string"))
    }

    /// Reads a string literal's decoded bytes into `scratch`.
    fn scan_string(&mut self) -> Result<(), DeError> {
        self.expect(b'"')?;
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        let res = loop {
            // Copy the run up to the next quote or backslash in one step.
            let rest = &self.buf[self.pos..self.filled];
            let run = (rest.iter())
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.extend_from_slice(&rest[..run]);
            self.pos += run;
            match self.byte() {
                None => break Err(DeError::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    break Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.escape() {
                        Ok(c) => out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
                        Err(e) => break Err(e),
                    }
                }
                // Only the stream's next chunk was missing.
                Some(_) => {}
            }
        };
        self.scratch = out;
        res
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, DeError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode();
            }
            other => {
                return Err(DeError::msg(format!(
                    "invalid escape {:?}",
                    other.map(|b| b as char)
                )))
            }
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes the hex digits of a `\u` escape, and a surrogate pair's
    /// second escape.
    fn unicode(&mut self) -> Result<char, DeError> {
        let hi = self.hex4()?;
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi).ok_or_else(|| DeError::msg("invalid \\u escape"));
        }
        if !self.eat("\\u") {
            return Err(DeError::msg("lone leading surrogate"));
        }
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(DeError::msg("invalid trailing surrogate"));
        }
        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        char::from_u32(code).ok_or_else(|| DeError::msg("invalid surrogate pair"))
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let mut hex = [0u8; 4];
        for h in &mut hex {
            *h = self
                .byte()
                .ok_or_else(|| DeError::msg("truncated \\u escape"))?;
            self.pos += 1;
        }
        (std::str::from_utf8(&hex).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| DeError::msg("invalid \\u escape"))
    }

    /// Reads a number: an integer if it has no fraction or exponent and
    /// fits `i64` or `u64`, otherwise a float.
    fn number(&mut self) -> Result<Value, DeError> {
        // The bytes a number can hold; a stream reads on until they end
        // inside the buffer, so the number's text is one slice.
        let mut run = 0;
        loop {
            let rest = &self.buf[self.pos + run..self.filled];
            let n = (rest.iter())
                .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
            run += n.unwrap_or(rest.len());
            if n.is_some() || !self.read_more() {
                break;
            }
        }
        // The grammar: `-`? digits (`.` digits)? ([eE] [+-]? digits)?
        let text = &self.buf[self.pos..self.pos + run];
        let digits = |i: usize| i + text[i..].iter().take_while(|b| b.is_ascii_digit()).count();
        let mut len = digits(usize::from(text.first() == Some(&b'-')));
        let mut is_float = false;
        if text.get(len) == Some(&b'.') {
            is_float = true;
            len = digits(len + 1);
        }
        if matches!(text.get(len), Some(b'e' | b'E')) {
            is_float = true;
            len += 1;
            if matches!(text.get(len), Some(b'+' | b'-')) {
                len += 1;
            }
            len = digits(len);
        }
        let text = std::str::from_utf8(&text[..len]).expect("number bytes are ASCII");
        let int = (!is_float)
            .then(|| (text.parse().map(Value::Int)).or_else(|_| text.parse().map(Value::UInt)))
            .and_then(Result::ok);
        let value = match int {
            Some(v) => v,
            None => (text.parse().map(Value::Float))
                .map_err(|_| DeError::msg(format!("invalid number `{text}`")))?,
        };
        self.pos += len;
        Ok(value)
    }

    /// Reads `true`, `false` or `null`.
    fn literal(&mut self) -> Result<Value, DeError> {
        let (found, at) = (self.peek(), self.offset());
        match found {
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            _ => Err(DeError::msg(format!(
                "unexpected {:?} at byte {at}",
                found.map(|b| b as char)
            ))),
        }
    }
}

/// Reads any JSON value, building the tree.
impl Deserialize for Value {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        match d.peek() {
            Some(b'{') => {
                let mut entries = Vec::new();
                let mut more = d.begin_object("Value")?;
                while more {
                    let key = d.key()?.to_string();
                    entries.push((key, Value::deserialize(d)?));
                    more = d.next_entry()?;
                }
                Ok(Value::Object(entries))
            }
            Some(b'[') => Vec::deserialize(d).map(Value::Array),
            Some(b'"') => {
                d.scan_string()?;
                d.scratch_str().map(|s| Value::Str(s.to_string()))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => d.number(),
            _ => d.literal(),
        }
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
                let v = Value::deserialize(d)?;
                let n = v
                    .as_i64()
                    .ok_or_else(|| DeError::expected("integer", stringify!($t), &v))?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(format!("{n} out of range for {}", stringify!($t))))
            }

            fn from_key(key: &str) -> Result<Self, DeError> {
                int_key(key)
            }
        }
    )*};
}

de_int!(u16, u32);

fn int_key<T: std::str::FromStr>(key: &str) -> Result<T, DeError> {
    key.parse().map_err(|_| {
        DeError::msg(format!(
            "map key `{key}` is not a {}",
            std::any::type_name::<T>()
        ))
    })
}

impl Deserialize for u64 {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let v = Value::deserialize(d)?;
        v.as_u64()
            .ok_or_else(|| DeError::expected("unsigned integer", "u64", &v))
    }

    fn from_key(key: &str) -> Result<Self, DeError> {
        int_key(key)
    }
}

impl Deserialize for usize {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let n = u64::deserialize(d)?;
        usize::try_from(n).map_err(|_| DeError::msg(format!("{n} out of range for usize")))
    }

    fn from_key(key: &str) -> Result<Self, DeError> {
        int_key(key)
    }
}

impl Deserialize for f64 {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let v = Value::deserialize(d)?;
        v.as_f64()
            .ok_or_else(|| DeError::expected("number", "f64", &v))
    }
}

impl Deserialize for bool {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let v = Value::deserialize(d)?;
        v.as_bool()
            .ok_or_else(|| DeError::expected("bool", "bool", &v))
    }
}

impl Deserialize for String {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        match Value::deserialize(d)? {
            Value::Str(s) => Ok(s),
            v => Err(DeError::expected("string", "String", &v)),
        }
    }

    fn from_key(key: &str) -> Result<Self, DeError> {
        Ok(key.to_string())
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        if d.peek() == Some(b'n') {
            return d.skip_value().map(|()| None);
        }
        T::deserialize(d).map(Some)
    }

    fn missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        T::deserialize(d).map(Arc::new)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let mut out = Vec::new();
        let mut more = d.begin_array("Vec")?;
        while more {
            out.push(T::deserialize(d)?);
            more = d.next_element()?;
        }
        Ok(out)
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let mut out = BTreeMap::new();
        let mut more = d.begin_object("BTreeMap")?;
        while more {
            let key = K::from_key(d.key()?)?;
            out.insert(key, V::deserialize(d)?);
            more = d.next_entry()?;
        }
        Ok(out)
    }
}

/// Reads element `i` of a `len`-element array; `more` says whether one
/// follows and is updated after it. Used by tuples and derived tuple
/// structs, which then call [`end_elements`].
pub fn element<T: Deserialize>(
    d: &mut Deserializer<'_>,
    more: &mut bool,
    len: usize,
) -> Result<T, DeError> {
    if !*more {
        return Err(arity(len));
    }
    let v = T::deserialize(d)?;
    *more = d.next_element()?;
    Ok(v)
}

/// Checks that a `len`-element array ended after its last element.
pub fn end_elements(more: bool, len: usize) -> Result<(), DeError> {
    if more {
        Err(arity(len))
    } else {
        Ok(())
    }
}

fn arity(len: usize) -> DeError {
    DeError::msg(format!("expected a {len}-element array"))
}

macro_rules! de_tuple {
    ($len:literal; $($name:ident),+) => {
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
                let mut more = d.begin_array("tuple")?;
                let v = ($(element::<$name>(d, &mut more, $len)?,)+);
                end_elements(more, $len)?;
                Ok(v)
            }
        }
    };
}

de_tuple!(2; A, B);
de_tuple!(3; A, B, C);
