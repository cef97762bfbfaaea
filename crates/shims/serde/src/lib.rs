//! Vendored, API-compatible subset of [`serde`].
//!
//! The build container has no crates.io access, so this shim provides the
//! slice of serde the workspace uses: `#[derive(Serialize, Deserialize)]`
//! on named-field structs (with the `rename`, `default`,
//! `skip_serializing_if` and `with` attributes), fieldless enums, and
//! newtypes, consumed through `serde_json`'s string round-trip.
//!
//! Instead of serde's visitor architecture, serialization goes through an
//! explicit self-describing [`Value`] tree — dramatically simpler, and
//! fully adequate for JSON persistence of experiment reports.
//!
//! [`serde`]: https://crates.io/crates/serde

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

// Derive macros; `use serde::{Serialize, Deserialize}` picks up both the
// traits below and these macros, exactly like upstream serde's `derive`
// feature.
pub use serde_derive::{Deserialize, Serialize};

/// A self-describing data tree: the intermediate representation between
/// Rust values and wire formats.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    String(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// A key-value map preserving insertion order (so serialized structs
    /// keep declaration field order).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The fields of an object, or `None` for any other variant.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements of an array, or `None` for any other variant.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload, or `None` for any other variant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for the variant, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Error produced when a [`Value`] tree does not match the requested type.
#[derive(Clone, Debug, PartialEq)]
pub struct DeError(String);

impl DeError {
    /// A free-form error.
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError(msg.to_string())
    }

    /// An "expected X while deserializing Y, found Z" error.
    pub fn expected(what: &str, context: &str, found: &Value) -> Self {
        DeError(format!(
            "expected {what} while deserializing {context}, found {}",
            found.kind()
        ))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Look up a struct field in an object's field list. An explicit `null`
/// counts as absent, as an omitted field does. A key that occurs more
/// than once is a "duplicate field `name`" error, as upstream serde's
/// derive reports it, whatever the values.
pub fn find_field<'v>(
    fields: &'v [(String, Value)],
    name: &str,
) -> Result<Option<&'v Value>, DeError> {
    let mut found = fields.iter().filter(|(k, _)| k == name).map(|(_, v)| v);
    let first = found.next();
    if found.next().is_some() {
        return Err(DeError(format!("duplicate field `{name}`")));
    }
    Ok(first.filter(|v| !matches!(v, Value::Null)))
}

/// Look up a required struct field: absent or `null` is a
/// "missing field `name` in context" error, a repeated key
/// [`find_field`]'s duplicate error.
pub fn get_field<'v>(
    fields: &'v [(String, Value)],
    name: &str,
    context: &str,
) -> Result<&'v Value, DeError> {
    find_field(fields, name)?.ok_or_else(|| DeError(format!("missing field `{name}` in {context}")))
}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Convert `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from `value`.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", "bool", other)),
        }
    }
}

macro_rules! impl_serde_signed {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let wide: i64 = match value {
                    Value::Int(i) => *i,
                    Value::UInt(u) => i64::try_from(*u)
                        .map_err(|_| DeError::custom(format!("{u} out of range for {}", stringify!($t))))?,
                    Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => *f as i64,
                    other => return Err(DeError::expected("integer", stringify!($t), other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_serde_unsigned {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::UInt(wide),
                }
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let wide: u64 = match value {
                    Value::Int(i) => u64::try_from(*i)
                        .map_err(|_| DeError::custom(format!("{i} out of range for {}", stringify!($t))))?,
                    Value::UInt(u) => *u,
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f < 1.9e16 => *f as u64,
                    other => return Err(DeError::expected("integer", stringify!($t), other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_signed!(i8, i16, i32, i64, isize);
impl_serde_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_float {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    other => Err(DeError::expected("number", stringify!($t), other)),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", "String", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", "Vec", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value.as_array() {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(DeError::expected("2-element array", "tuple", value)),
        }
    }
}

impl<K: Serialize + Ord, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| {
                    let key = match k.to_value() {
                        Value::String(s) => s,
                        other => to_key_string(&other),
                    };
                    (key, v.to_value())
                })
                .collect(),
        )
    }
}

fn to_key_string(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::String(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [0usize, 1, 4096, usize::MAX >> 12] {
            assert_eq!(usize::from_value(&v.to_value()).unwrap(), v);
        }
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let v = vec![1.0f64, 2.5, -3.0];
        assert_eq!(Vec::<f64>::from_value(&v.to_value()).unwrap(), v);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn type_mismatch_is_an_error() {
        assert!(usize::from_value(&Value::String("x".into())).is_err());
        assert!(bool::from_value(&Value::Int(1)).is_err());
        assert!(Vec::<f64>::from_value(&Value::Null).is_err());
    }

    #[test]
    fn missing_field_reports_context() {
        let fields = vec![("a".to_string(), Value::Int(1))];
        let err = get_field(&fields, "b", "Demo").unwrap_err();
        assert_eq!(err.to_string(), "missing field `b` in Demo");
    }
}
