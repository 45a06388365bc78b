//! In-tree stand-in for the `serde` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the small slice of serde's API it actually uses. Instead of serde's
//! visitor-based zero-copy design, serialization goes through an owned
//! [`Value`] tree: `Serialize` renders a value into the tree and
//! `Deserialize` rebuilds one from it. `serde_json` (also shimmed) maps
//! the tree to and from JSON text. The derive macros in `serde_derive`
//! generate impls against these traits using serde's external-tagging
//! conventions, so the wire format of derived types matches what the real
//! serde_json would produce for the same definitions.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing value tree both shimmed traits speak.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map with string keys (field order is preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Borrows the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrows the string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric coercion to `f64` (accepts any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(n) => Some(n),
            _ => None,
        }
    }

    /// Numeric coercion to `u64` (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) if n >= 0 => Some(n as u64),
            Value::F64(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// Numeric coercion to `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::U64(n) if n <= i64::MAX as u64 => Some(n as i64),
            Value::I64(n) => Some(n),
            Value::F64(n)
                if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&n) =>
            {
                Some(n as i64)
            }
            _ => None,
        }
    }
}

/// Serialization/deserialization error (shared with `serde_json`).
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error with a free-form message.
    pub fn msg(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    /// A type-mismatch error (`expected` while deserializing `what`).
    pub fn ty(what: &str, expected: &str) -> Self {
        Error { msg: format!("invalid value for {what}: expected {expected}") }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Renders a value into the [`Value`] tree.
pub trait Serialize {
    /// The value as a tree.
    fn to_value(&self) -> Value;
}

/// Rebuilds a value from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses the tree, failing on shape or type mismatches.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Marker matching serde's `DeserializeOwned` bound.
pub trait DeserializeOwned: Deserialize {}

impl<T: Deserialize> DeserializeOwned for T {}

/// Mirror of serde's `de` module for `serde::de::DeserializeOwned` paths.
pub mod de {
    pub use super::{Deserialize, DeserializeOwned, Error};
}

/// Looks a field up in an object's entries (derive-macro helper).
pub fn field<'v>(fields: &'v [(String, Value)], name: &str) -> Result<&'v Value, Error> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::msg(format!("missing field `{name}`")))
}

// --- Primitive impls ---

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::ty(stringify!($t), "unsigned integer"))?;
                <$t>::try_from(n).map_err(|_| Error::ty(stringify!($t), "in-range integer"))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::U64(n as u64)
                } else {
                    Value::I64(n)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| Error::ty(stringify!($t), "integer"))?;
                <$t>::try_from(n).map_err(|_| Error::ty(stringify!($t), "in-range integer"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::ty("f64", "number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.as_f64().ok_or_else(|| Error::ty("f32", "number"))? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::ty("bool", "boolean")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_owned).ok_or_else(|| Error::ty("String", "string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

// --- Container impls ---

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array().ok_or_else(|| Error::ty("Vec", "array"))?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        <[T; N]>::try_from(items).map_err(|_| Error::msg(format!("expected array of length {N}")))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(Error::ty("tuple", "2-element array")),
        }
    }
}

/// Maps serialize as arrays of `[key, value]` pairs: keys are arbitrary
/// serializable types, which JSON object keys could not represent.
impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter().map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()])).collect(),
        )
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        let pairs: Vec<(K, V)> = Vec::from_value(v)?;
        Ok(pairs.into_iter().collect())
    }
}

/// Ordered maps use the same `[key, value]`-pair encoding as
/// `HashMap`, but iteration — and therefore the serialized byte stream
/// — is key-ordered and deterministic.
impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter().map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()])).collect(),
        )
    }
}

impl<K, V> Deserialize for std::collections::BTreeMap<K, V>
where
    K: Deserialize + Ord,
    V: Deserialize,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        let pairs: Vec<(K, V)> = Vec::from_value(v)?;
        Ok(pairs.into_iter().collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
