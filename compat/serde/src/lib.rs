//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! a miniature serialization framework with the same surface syntax:
//! `#[derive(Serialize, Deserialize)]`, the `rename` / `default` /
//! `skip_serializing_if` field attributes, and a JSON backend in the
//! sibling `serde_json` stub. Instead of upstream's visitor architecture,
//! everything round-trips through an owned [`Value`] tree — simpler, and
//! plenty for the corpus/model (de)serialization this repo does.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An owned JSON-like value tree. Object entries preserve insertion order
/// so serialized field order matches declaration order, like serde.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All numbers ride as f64; integers up to 2^53 round-trip exactly,
    /// which covers every index/count this workspace serializes.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error: a human-readable path + expectation.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    pub fn new(msg: impl Into<String>) -> DeError {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Convert a value into the [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;

    /// A borrowed view of `self` when it already *is* a [`Value`] tree,
    /// so a serializer can render it in place instead of cloning it
    /// through [`Serialize::to_value`]. `None` (the default) for every
    /// other type.
    fn as_value(&self) -> Option<&Value> {
        None
    }
}

/// Rebuild a value from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Rebuild from an owned tree. The default borrows it through
    /// [`Deserialize::from_value`]; [`Value`] itself overrides this to
    /// move the tree instead of cloning it.
    fn from_owned(v: Value) -> Result<Self, DeError> {
        Self::from_value(&v)
    }

    /// What to produce when a struct field is absent from the input
    /// object. `None` means "absence is an error" (serde's default);
    /// `Option<T>` overrides this to tolerate missing fields.
    fn absent() -> Option<Self> {
        None
    }
}

// ---- primitive impls ----------------------------------------------------

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Num(n) if n.fract() == 0.0 => Ok(*n as $t),
                    other => Err(DeError::new(format!(
                        "expected integer, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Num(n) => Ok(*n as $t),
                    other => Err(DeError::new(format!("expected number, found {other:?}"))),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

// Identity impls so callers can round-trip untyped JSON trees
// (`serde_json::from_str::<serde::Value>` — the shape-gate idiom the
// bench bins use to validate what they just wrote).
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Option<&Value> {
        Some(self)
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn from_owned(v: Value) -> Result<Self, DeError> {
        Ok(v)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::new(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Option<&Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::new(format!("expected array, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Obj(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(DeError::new(format!("expected object, found {other:?}"))),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort for output stability — serde users here never rely on
        // hash order anyway.
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Obj(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(DeError::new(format!("expected object, found {other:?}"))),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Arr(items) => {
                        let mut it = items.iter();
                        Ok(($({
                            let _ = $n; // positional: consume in order
                            $t::from_value(
                                it.next().ok_or_else(|| DeError::new("tuple too short"))?,
                            )?
                        },)+))
                    }
                    other => Err(DeError::new(format!("expected array, found {other:?}"))),
                }
            }
        }
    )+};
}

impl_serde_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(usize::from_value(&42usize.to_value()).unwrap(), 42);
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Vec::<u8>::from_value(&vec![1u8, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn value_trees_are_borrowed_and_moved_not_cloned() {
        let tree = Value::Arr(vec![Value::Str("x".to_string())]);
        assert!(std::ptr::eq(tree.as_value().unwrap(), &tree));
        assert!(std::ptr::eq((&&tree).as_value().unwrap(), &tree));
        assert!(42u32.as_value().is_none());
        let Value::Arr(items) = &tree else {
            unreachable!()
        };
        let heap = items.as_ptr();
        let Value::Arr(moved) = Value::from_owned(tree).unwrap() else {
            unreachable!()
        };
        assert_eq!(moved.as_ptr(), heap);
        assert_eq!(u32::from_owned(Value::Num(7.0)).unwrap(), 7);
    }

    #[test]
    fn absent_fields_only_ok_for_option() {
        assert!(<Option<u32> as Deserialize>::absent().is_some());
        assert!(<u32 as Deserialize>::absent().is_none());
    }

    #[test]
    fn maps_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1usize);
        m.insert("b".to_string(), 2usize);
        let back = BTreeMap::<String, usize>::from_value(&m.to_value()).unwrap();
        assert_eq!(m, back);
    }
}
