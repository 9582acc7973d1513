//! Compile-time attribute values attached to operations.
//!
//! Attributes model values that are "known and fixed at compile time" (paper §3.1):
//! parallel factors, partition fashions, tile sizes, memory placements, symbol names
//! and so on.
//!
//! An [`Attribute`] is `Copy`: scalars sit in place, and a string, array or
//! type payload is an [`Interned`] handle — uniqued process-wide, immutable
//! and never freed (see [`crate::intern`]). Building one from a payload
//! already seen is a table probe and no allocation; copying one is copying
//! 16 bytes; the accessors hand out `&'static` data.
//!
//! An op's attributes live in its [`Context`](crate::Context)'s attribute
//! arena, one run of `(key, value)` pairs per op sorted by the key
//! **string** (not by where the key was interned), so printing and
//! fingerprinting iterate them in a deterministic order. [`Attrs`] is the
//! read view of one run; [`Context::set_attr`](crate::Context::set_attr) is
//! the writer, and it *replaces* the value under a key — a clone of the
//! context that shares nothing with this one keeps its own.

use crate::intern::{Intern, Interned, Interner, KeyHasher, Symbol};
use crate::types::Type;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A compile-time constant attached to an operation under a string key.
///
/// Build the payload variants through the `From` impls below or from an
/// [`Interned`] handle (`[1, 2].into()`, `"cyclic".into()`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attribute {
    /// Unit attribute — presence alone carries meaning (e.g. `pipeline`).
    Unit,
    /// Boolean flag.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (symbol names, fashion names, ...).
    Str(Symbol),
    /// Homogeneous list of integers (factors, shapes, maps).
    IntArray(Interned<[i64]>),
    /// Homogeneous list of floats (scaling maps).
    FloatArray(Interned<[f64]>),
    /// List of strings (partition fashions per dimension, argument names).
    StrArray(Interned<[Symbol]>),
    /// Nested attribute list.
    Array(Interned<[Attribute]>),
    /// A type used as an attribute value (e.g. function signatures).
    TypeAttr(Type),
}

impl Attribute {
    /// Returns the integer payload if this is an [`Attribute::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload if this is an [`Attribute::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attribute::Float(v) => Some(*v),
            Attribute::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the boolean payload if this is an [`Attribute::Bool`] or [`Attribute::Unit`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(v) => Some(*v),
            Attribute::Unit => Some(true),
            _ => None,
        }
    }

    /// Returns the string payload if this is an [`Attribute::Str`].
    pub fn as_str(&self) -> Option<&'static str> {
        match self {
            Attribute::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the integer-array payload if this is an [`Attribute::IntArray`].
    pub fn as_int_array(&self) -> Option<&'static [i64]> {
        match self {
            Attribute::IntArray(v) => Some(v.get()),
            _ => None,
        }
    }

    /// Returns the string-array payload if this is an [`Attribute::StrArray`].
    pub fn as_str_array(&self) -> Option<&'static [Symbol]> {
        match self {
            Attribute::StrArray(v) => Some(v.get()),
            _ => None,
        }
    }

    /// True when `self` and `other` are one value: what `==` says, except
    /// that floats compare by bit pattern (the identity an attribute list is
    /// interned under).
    fn same(&self, other: &Attribute) -> bool {
        match (self, other) {
            (Attribute::Float(a), Attribute::Float(b)) => a.to_bits() == b.to_bits(),
            (Attribute::FloatArray(a), Attribute::FloatArray(b)) => a.ptr_eq(*b),
            (Attribute::Array(a), Attribute::Array(b)) => a.ptr_eq(*b),
            _ => self == other,
        }
    }
}

impl Intern for [Attribute] {
    fn table() -> &'static Interner<[Attribute]> {
        static TABLE: Interner<[Attribute]> = Interner::new();
        &TABLE
    }

    fn hash_key(&self, state: &mut KeyHasher) {
        state.write_usize(self.len());
        for attr in self {
            std::mem::discriminant(attr).hash(state);
            match attr {
                Attribute::Unit => {}
                Attribute::Bool(v) => v.hash(state),
                Attribute::Int(v) => v.hash(state),
                Attribute::Float(v) => v.to_bits().hash(state),
                Attribute::Str(v) => v.hash(state),
                Attribute::IntArray(v) => v.hash(state),
                Attribute::FloatArray(v) => v.get().as_ptr().hash(state),
                Attribute::StrArray(v) => v.hash(state),
                Attribute::Array(v) => v.get().as_ptr().hash(state),
                Attribute::TypeAttr(v) => v.hash(state),
            }
        }
    }

    fn same(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.same(b))
    }

    fn leak(&self) -> &'static [Attribute] {
        Box::leak(Box::from(self))
    }
}

impl From<i64> for Attribute {
    fn from(v: i64) -> Self {
        Attribute::Int(v)
    }
}

impl From<bool> for Attribute {
    fn from(v: bool) -> Self {
        Attribute::Bool(v)
    }
}

impl From<f64> for Attribute {
    fn from(v: f64) -> Self {
        Attribute::Float(v)
    }
}

impl From<&str> for Attribute {
    fn from(v: &str) -> Self {
        Attribute::Str(v.into())
    }
}

impl From<String> for Attribute {
    fn from(v: String) -> Self {
        Attribute::Str(v.into())
    }
}

impl From<&[i64]> for Attribute {
    fn from(v: &[i64]) -> Self {
        Attribute::IntArray(v.into())
    }
}

impl<const N: usize> From<[i64; N]> for Attribute {
    fn from(v: [i64; N]) -> Self {
        Attribute::IntArray(v.into())
    }
}

impl From<Vec<i64>> for Attribute {
    fn from(v: Vec<i64>) -> Self {
        Attribute::IntArray(v.into())
    }
}

impl From<&[f64]> for Attribute {
    fn from(v: &[f64]) -> Self {
        Attribute::FloatArray(v.into())
    }
}

impl From<Vec<f64>> for Attribute {
    fn from(v: Vec<f64>) -> Self {
        Attribute::FloatArray(v.into())
    }
}

impl From<Type> for Attribute {
    fn from(v: Type) -> Self {
        Attribute::TypeAttr(v)
    }
}

/// The named attributes of one operation, as its context stores them: a run
/// of `(key, value)` pairs sorted by key string. `Copy`; lookups are a
/// linear scan (an op carries a handful of attributes, and `str ==`
/// short-circuits on length), iteration is allocation-free and already in
/// the order the printer and the fingerprint walk need.
#[derive(Debug, Clone, Copy)]
pub struct Attrs<'a> {
    run: &'a [(Symbol, Attribute)],
}

impl<'a> Attrs<'a> {
    pub(crate) fn new(run: &'a [(Symbol, Attribute)]) -> Self {
        Attrs { run }
    }

    /// Number of attributes.
    pub fn len(self) -> usize {
        self.run.len()
    }

    /// True when no attribute is set.
    pub fn is_empty(self) -> bool {
        self.run.is_empty()
    }

    /// Returns the attribute stored under `key`.
    #[inline]
    pub fn get(self, key: &str) -> Option<&'a Attribute> {
        self.run
            .iter()
            .find(|(k, _)| k.as_str() == key)
            .map(|(_, value)| value)
    }

    /// True when an attribute is stored under `key`.
    pub fn contains_key(self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterates `(key, value)` pairs in key-string order, allocation-free.
    pub fn iter(self) -> impl Iterator<Item = (&'static str, &'a Attribute)> {
        self.run.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates the keys in key-string order.
    pub fn keys(self) -> impl Iterator<Item = &'static str> + 'a {
        self.run.iter().map(|(k, _)| k.as_str())
    }
}

/// Writes a float so it can never be mistaken for an integer literal: values
/// whose `Display` form has no fractional part (`1`, `-3`) gain a trailing
/// `.0`, keeping `Float(1.0)` and `Int(1)` distinguishable after a
/// parse/print round-trip (they hash differently in the structural
/// fingerprint).
fn write_float(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
    let s = v.to_string();
    if s.bytes().all(|b| b.is_ascii_digit() || b == b'-') {
        write!(f, "{s}.0")
    } else {
        write!(f, "{s}")
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribute::Unit => write!(f, "unit"),
            Attribute::Bool(v) => write!(f, "{v}"),
            Attribute::Int(v) => write!(f, "{v}"),
            Attribute::Float(v) => write_float(f, *v),
            Attribute::Str(s) => write!(f, "\"{s}\""),
            Attribute::IntArray(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Attribute::FloatArray(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write_float(f, *x)?;
                }
                write!(f, "]")
            }
            Attribute::StrArray(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "\"{x}\"")?;
                }
                write!(f, "]")
            }
            Attribute::Array(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Attribute::TypeAttr(t) => write!(f, "{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // What makes a `Context` flat: an attribute and a type are plain
    // values, safe to copy into and read from any thread.
    const _: fn() = || {
        fn copy_send_sync<T: Copy + Send + Sync>() {}
        fn copy<T: Copy>() {}
        copy_send_sync::<Attribute>();
        copy::<Type>();
    };

    #[test]
    fn an_attribute_is_two_words() {
        assert_eq!(std::mem::size_of::<Symbol>(), 8);
        assert_eq!(std::mem::size_of::<Attribute>(), 16);
    }

    #[test]
    fn accessors_return_expected_payloads() {
        assert_eq!(Attribute::Int(3).as_int(), Some(3));
        assert_eq!(Attribute::Int(3).as_float(), Some(3.0));
        assert_eq!(Attribute::Float(0.5).as_float(), Some(0.5));
        assert_eq!(Attribute::Bool(true).as_bool(), Some(true));
        assert_eq!(Attribute::Unit.as_bool(), Some(true));
        assert_eq!(Attribute::Str("bram".into()).as_str(), Some("bram"));
        assert_eq!(
            Attribute::from([4, 4]).as_int_array(),
            Some(&[4_i64, 4][..])
        );
        assert_eq!(Attribute::Int(3).as_str(), None);
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Attribute::from(7_i64), Attribute::Int(7));
        assert_eq!(Attribute::from(true), Attribute::Bool(true));
        assert_eq!(Attribute::from("cyclic"), Attribute::Str("cyclic".into()));
        assert_eq!(
            Attribute::from(vec![1_i64, 2]),
            Attribute::IntArray([1, 2].into())
        );
        assert_eq!(
            Attribute::from([1_i64, 2]),
            Attribute::from(&[1_i64, 2][..])
        );
        assert_eq!(Attribute::from(Type::i8()), Attribute::TypeAttr(Type::i8()));
    }

    #[test]
    fn attribute_lists_intern_by_identity() {
        let list = |float: f64| -> Interned<[Attribute]> {
            [
                Attribute::Float(float),
                Attribute::from("x"),
                Attribute::from([1, 2]),
            ]
            .into()
        };
        assert!(list(1.5).ptr_eq(list(1.5)));
        assert!(!list(0.0).ptr_eq(list(-0.0)));
        assert_eq!(list(0.0), list(-0.0), "equal as floats, two payloads");
        let nested = |inner: Interned<[Attribute]>| -> Interned<[Attribute]> {
            [Attribute::Array(inner), Attribute::TypeAttr(Type::i8())].into()
        };
        assert!(nested(list(2.0)).ptr_eq(nested(list(2.0))));
        assert!(!nested(list(0.0)).ptr_eq(nested(list(-0.0))));
    }

    #[test]
    fn float_display_is_never_an_integer_literal() {
        assert_eq!(Attribute::Float(1.0).to_string(), "1.0");
        assert_eq!(Attribute::Float(-3.0).to_string(), "-3.0");
        assert_eq!(Attribute::Float(0.5).to_string(), "0.5");
        assert_eq!(Attribute::from(vec![1.0, 0.25]).to_string(), "[1.0, 0.25]");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Attribute::Int(5).to_string(), "5");
        assert_eq!(Attribute::from([1, 2, 3]).to_string(), "[1, 2, 3]");
        assert_eq!(
            Attribute::StrArray(["cyclic".into(), "block".into()].into()).to_string(),
            "[\"cyclic\", \"block\"]"
        );
        assert_eq!(Attribute::Str("x".into()).to_string(), "\"x\"");
    }
}
