//! Offline drop-in replacement for `serde` with `derive`.
//!
//! Instead of the visitor-based Serializer/Deserializer machinery, this
//! shim speaks JSON directly: `Serialize` streams a value as JSON text
//! into a [`Serializer`], and `Deserialize` rebuilds one from an owned
//! JSON-like [`Value`] tree that the `serde_json` shim parses. The
//! derive macros (re-exported from `serde_derive`) cover plain structs
//! with named fields and unit-variant enums — exactly the shapes this
//! workspace derives.

pub use serde_derive::{Deserialize, Serialize};

/// Deserialization error: a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl Error {
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

/// Owned JSON-like value tree. Object fields keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on objects; `Null` when missing or not an object.
    pub fn get_field(&self, name: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get_field(key)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

/// A JSON text writer that [`Serialize`] implementations stream into.
///
/// Compact by default; [`Serializer::pretty`] puts every container entry
/// on its own line, indented two spaces per level. An array is written by
/// [`Serializer::seq`]; an object is [`Serializer::begin_object`], one
/// [`Serializer::field`] per entry, then [`Serializer::end_object`]. The
/// writer places the separators and prints `[]`/`{}` for empty
/// containers. One `first` flag is enough state for any nesting: opening
/// a container sets it, the first entry clears it, and closing a
/// container leaves the parent with at least one entry.
pub struct Serializer {
    out: String,
    pretty: bool,
    level: usize,
    first: bool,
}

impl Serializer {
    /// A writer with no whitespace between tokens.
    pub fn compact() -> Self {
        Serializer {
            out: String::new(),
            pretty: false,
            level: 0,
            first: false,
        }
    }

    /// A writer that indents nested containers by two spaces per level.
    pub fn pretty() -> Self {
        Serializer {
            pretty: true,
            ..Serializer::compact()
        }
    }

    /// The JSON text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a number. Non-finite values print as `null`; integral
    /// values below 9e15 in magnitude print without a fraction; anything
    /// else prints in Rust's shortest round-trip form.
    pub fn number(&mut self, n: f64) {
        use std::fmt::Write as _;
        if !n.is_finite() {
            self.null();
        } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
            let _ = write!(self.out, "{}", n as i64);
        } else {
            let _ = write!(self.out, "{n}");
        }
    }

    /// Writes a quoted string, escaping `"`, `\` and control characters.
    /// Everything else, non-ASCII text included, is copied verbatim.
    pub fn string(&mut self, s: &str) {
        use std::fmt::Write as _;
        self.out.push('"');
        let mut start = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `b` is ASCII, so `i` is a character boundary.
            self.out.push_str(&s[start..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{:04x}", b);
            } else {
                self.out.push_str(escape);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    pub fn begin_object(&mut self) {
        self.open('{');
    }

    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Writes one object entry.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.entry();
        self.string(key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        value.serialize(self);
    }

    /// Writes an array of `items`.
    pub fn seq<'a, T: Serialize + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        self.open('[');
        for item in items {
            self.entry();
            item.serialize(self);
        }
        self.close(']');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.level += 1;
        self.first = true;
    }

    fn entry(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline_indent();
    }

    fn close(&mut self, bracket: char) {
        self.level -= 1;
        if !self.first {
            self.newline_indent();
        }
        self.first = false;
        self.out.push(bracket);
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.level {
                self.out.push_str("  ");
            }
        }
    }
}

/// Types that write themselves as JSON text.
pub trait Serialize {
    fn serialize(&self, ser: &mut Serializer);
}

pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, ser: &mut Serializer) {
                ser.number(*self as f64);
            }
        }

        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) if n.fract() == 0.0 => Ok(*n as $t),
                    other => Err(Error::msg(format!(
                        "expected integer, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}
serialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, ser: &mut Serializer) {
        ser.number(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(*n),
            // Non-finite floats serialize as null (like serde_json's
            // lossy modes); round-trip them as NaN.
            Value::Null => Ok(f64::NAN),
            other => Err(Error::msg(format!("expected number, found {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self, ser: &mut Serializer) {
        ser.number(*self as f64);
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|n| n as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, ser: &mut Serializer) {
        ser.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::msg(format!("expected bool, found {v:?}")))
    }
}

impl Serialize for String {
    fn serialize(&self, ser: &mut Serializer) {
        ser.string(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::msg(format!("expected string, found {v:?}")))
    }
}

impl Serialize for str {
    fn serialize(&self, ser: &mut Serializer) {
        ser.string(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, ser: &mut Serializer) {
        (**self).serialize(ser);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, ser: &mut Serializer) {
        ser.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::msg(format!("expected array, found {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, ser: &mut Serializer) {
        ser.seq(self);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, ser: &mut Serializer) {
        match self {
            Some(inner) => inner.serialize(ser),
            None => ser.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl Serialize for Value {
    fn serialize(&self, ser: &mut Serializer) {
        match self {
            Value::Null => ser.null(),
            Value::Bool(b) => ser.bool(*b),
            Value::Number(n) => ser.number(*n),
            Value::String(s) => ser.string(s),
            Value::Array(items) => ser.seq(items),
            Value::Object(fields) => {
                ser.begin_object();
                for (key, value) in fields {
                    ser.field(key, value);
                }
                ser.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
