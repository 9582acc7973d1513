//! Compile-time attribute values attached to operations.
//!
//! Attributes model values that are "known and fixed at compile time" (paper §3.1):
//! parallel factors, partition fashions, tile sizes, memory placements, symbol names
//! and so on. They are stored in an [`AttrMap`] on each [`Operation`] — a small
//! sorted vector with interned [`Symbol`] keys, iterated in key-string order so
//! printing and fingerprinting are deterministic.
//!
//! An attribute value is immutable: strings and arrays sit behind an [`Arc`],
//! so copying an attribute — with its op, with its whole
//! [`Context`](crate::Context) — copies a handle, and
//! [`Operation::set_attr`](crate::Operation::set_attr) *replaces* the value
//! under a key; it never writes into a payload another holder shares.
//!
//! [`Operation`]: crate::Operation

use crate::intern::Symbol;
use crate::types::Type;
use std::fmt;
use std::sync::Arc;

/// A compile-time constant attached to an operation under a string key.
///
/// Build the array variants straight from what is at hand — a slice, an
/// array literal, an exact-size iterator (`Arc<[T]>` collects one without an
/// intermediate `Vec`) — or through the `From` impls below.
#[derive(Debug, Clone, PartialEq)]
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
    Str(Arc<str>),
    /// Homogeneous list of integers (factors, shapes, maps).
    IntArray(Arc<[i64]>),
    /// Homogeneous list of floats (scaling maps).
    FloatArray(Arc<[f64]>),
    /// List of strings (partition fashions per dimension, argument names).
    StrArray(Arc<[Arc<str>]>),
    /// Nested attribute list.
    Array(Arc<[Attribute]>),
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
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer-array payload if this is an [`Attribute::IntArray`].
    pub fn as_int_array(&self) -> Option<&[i64]> {
        match self {
            Attribute::IntArray(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the string-array payload if this is an [`Attribute::StrArray`].
    pub fn as_str_array(&self) -> Option<&[Arc<str>]> {
        match self {
            Attribute::StrArray(v) => Some(v),
            _ => None,
        }
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

/// The named attributes of one operation: a small vector of `(interned key,
/// value)` pairs kept sorted by the key **string** (not the symbol id, which
/// is process-execution-dependent — see [`crate::intern`]).
///
/// Operations carry a handful of attributes, so a sorted vector beats a tree
/// or hash map on every axis that matters here: lookups are a linear scan
/// over a dense key array, and iteration is allocation-free and already in
/// the canonical order the printer and the fingerprint walk need. A clone
/// (hot in [`Context::clone_op`](crate::Context::clone_op) and whole-context
/// clones) allocates the two vectors — none for an op without attributes —
/// and copies every [`Attribute`] as a handle: scalars by value, strings,
/// arrays and aggregate types by bumping the reference count of the
/// immutable payload both maps then share.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrMap {
    /// Keys sorted by string, parallel to `values`. Kept separate from the
    /// (much larger) `Attribute` payloads so a key probe scans a dense array
    /// of small entries — the same cache-tightness a `BTreeMap` node's packed
    /// key slab gave the old representation.
    keys: Vec<AttrKey>,
    /// Attribute payloads, parallel to `keys`.
    values: Vec<Attribute>,
}

/// One attribute key: the interned symbol plus its cached resolution, so
/// string-keyed lookups (`get("depth")` in the estimator's hot loops) are
/// plain `&str` comparisons — no per-probe symbol resolution — while
/// symbol-keyed lookups compare 4-byte ids.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AttrKey {
    sym: Symbol,
    text: &'static str,
}

impl AttrMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no attribute is set.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Index of `key`, if present. Operations carry a handful of attributes,
    /// so a linear scan beats binary search here: the key array is one or two
    /// cache lines, and `str ==` short-circuits on length before touching any
    /// bytes (most attribute keys differ in length).
    #[inline]
    fn position(&self, key: &str) -> Option<usize> {
        self.keys.iter().position(|k| k.text == key)
    }

    /// Insertion point that keeps `keys` sorted by string.
    fn insertion_point(&self, key: &str) -> usize {
        self.keys.partition_point(|k| k.text < key)
    }

    /// Returns the attribute stored under `key`.
    pub fn get(&self, key: &str) -> Option<&Attribute> {
        self.position(key).map(|at| &self.values[at])
    }

    /// Returns the attribute stored under an already-interned key: a linear
    /// scan comparing symbol ids — the path for hot, fixed keys.
    pub fn get_sym(&self, key: Symbol) -> Option<&Attribute> {
        self.keys
            .iter()
            .position(|k| k.sym == key)
            .map(|at| &self.values[at])
    }

    /// True when an attribute is stored under `key`.
    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_some()
    }

    /// Inserts (or replaces) `value` under `key`, returning the previous
    /// value if one was set.
    pub fn insert(&mut self, key: impl AsRef<str>, value: Attribute) -> Option<Attribute> {
        let key = key.as_ref();
        match self.position(key) {
            Some(at) => Some(std::mem::replace(&mut self.values[at], value)),
            None => {
                let at = self.insertion_point(key);
                let sym = Symbol::intern(key);
                self.keys.insert(
                    at,
                    AttrKey {
                        sym,
                        text: sym.as_str(),
                    },
                );
                self.values.insert(at, value);
                None
            }
        }
    }

    /// Iterates `(key, value)` pairs in key-string order, allocation-free.
    /// Keys come out pre-resolved so walk-shaped consumers (printer,
    /// fingerprint) never touch the intern table.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Attribute)> {
        self.keys
            .iter()
            .zip(self.values.iter())
            .map(|(k, v)| (k.text, v))
    }

    /// Iterates the keys in key-string order.
    pub fn keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.keys.iter().map(|k| k.text)
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
