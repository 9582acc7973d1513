//! The [`Operation`] — the minimal unit of code in the IR (paper §3.1).
//!
//! Each operation accepts typed operands, produces typed results, carries named
//! attributes, and may own nested regions. Operations are stored in and identified
//! through the [`Context`](crate::Context); this module defines their payload.

use crate::attributes::{AttrMap, Attribute};
use crate::ids::{BlockId, RegionId, ValueId};
use crate::intern::Symbol;
use crate::storage::IdList;
use std::fmt;

/// Fully-qualified name of an operation, e.g. `"hida.node"` or `"affine.for"`.
///
/// Names use the MLIR convention `dialect.op`. The type is a copyable wrapper
/// over an interned [`Symbol`], so name comparisons are single integer
/// compares and creating an operation with a known name allocates nothing.
/// The resolved string is cached alongside the symbol, so `as_str` (the
/// workhorse of `Operation::is` and every name `match`) is a field read, not
/// an intern-table resolution. Ordering (`Ord`) follows the resolved string,
/// never the symbol id, so name-sorted output stays deterministic across
/// processes.
#[derive(Clone, Copy)]
pub struct OpName {
    sym: Symbol,
    text: &'static str,
}

impl OpName {
    /// Creates (interning on first sight) an operation name from its
    /// fully-qualified string form.
    pub fn new(name: impl AsRef<str>) -> Self {
        let sym = Symbol::intern(name.as_ref());
        OpName {
            sym,
            text: sym.as_str(),
        }
    }

    /// Returns the fully-qualified name (`dialect.op`).
    #[inline]
    pub fn as_str(&self) -> &'static str {
        self.text
    }

    /// Returns the bare operation name (the part after the first `.`).
    pub fn op(&self) -> &str {
        let text = self.as_str();
        match text.split_once('.') {
            Some((_, op)) => op,
            None => text,
        }
    }
}

impl fmt::Debug for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpName({:?})", self.as_str())
    }
}

impl PartialEq for OpName {
    fn eq(&self, other: &Self) -> bool {
        self.sym == other.sym
    }
}

impl Eq for OpName {}

impl std::hash::Hash for OpName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sym.hash(state);
    }
}

impl PartialOrd for OpName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OpName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Symbol ids are first-intern-ordered (nondeterministic under
        // threaded interning); the string is the canonical order.
        self.as_str().cmp(other.as_str())
    }
}

impl From<&str> for OpName {
    fn from(s: &str) -> Self {
        OpName::new(s)
    }
}

impl From<String> for OpName {
    fn from(s: String) -> Self {
        OpName::new(s)
    }
}

impl From<Symbol> for OpName {
    fn from(sym: Symbol) -> Self {
        OpName {
            sym,
            text: sym.as_str(),
        }
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<&str> for OpName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// An operation: operands, results, attributes and nested regions.
///
/// The fields are public because the [`Context`](crate::Context) mediates all
/// structural mutation (use lists, parent links); passes read these fields directly
/// and mutate through context APIs.
#[derive(Debug, Clone)]
pub struct Operation {
    /// Fully-qualified operation name (interned, copyable).
    pub name: OpName,
    /// SSA operands consumed by this operation, in order.
    pub operands: IdList<ValueId>,
    /// SSA results produced by this operation, in order.
    pub results: IdList<ValueId>,
    /// Named compile-time attributes (interned keys, key-string iteration
    /// order for deterministic printing).
    pub attributes: AttrMap,
    /// Nested regions owned by this operation.
    pub regions: IdList<RegionId>,
    /// Block containing this operation, if attached.
    pub parent_block: Option<BlockId>,
    /// Whether the operation's regions are isolated from the enclosing context.
    ///
    /// Functional dataflow ops (`dispatch`/`task`) are transparent (false); Structural
    /// ops (`schedule`/`node`) and functions are isolated (true), so values defined
    /// outside must be passed in as arguments (paper §5.2).
    pub isolated: bool,
}

impl Operation {
    /// Creates a detached operation with the given name and no operands/results.
    pub fn new(name: impl Into<OpName>) -> Self {
        Operation {
            name: name.into(),
            operands: IdList::new(),
            results: IdList::new(),
            attributes: AttrMap::new(),
            regions: IdList::new(),
            parent_block: None,
            isolated: false,
        }
    }

    /// Returns the attribute stored under `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&Attribute> {
        self.attributes.get(key)
    }

    /// Returns the integer attribute stored under `key`, if present.
    pub fn attr_int(&self, key: &str) -> Option<i64> {
        self.attributes.get(key).and_then(Attribute::as_int)
    }

    /// Returns the string attribute stored under `key`, if present.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attributes.get(key).and_then(Attribute::as_str)
    }

    /// Returns the integer-array attribute stored under `key`, if present.
    pub fn attr_int_array(&self, key: &str) -> Option<&[i64]> {
        self.attributes.get(key).and_then(Attribute::as_int_array)
    }

    /// Returns true when a unit/bool attribute under `key` is present and truthy.
    pub fn has_flag(&self, key: &str) -> bool {
        self.attributes
            .get(key)
            .and_then(Attribute::as_bool)
            .unwrap_or(false)
    }

    /// Sets (or replaces) the attribute stored under `key`.
    pub fn set_attr(&mut self, key: impl AsRef<str>, value: impl Into<Attribute>) {
        self.attributes.insert(key, value.into());
    }

    /// Returns true if this operation's name equals `name`.
    pub fn is(&self, name: &str) -> bool {
        self.name.as_str() == name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_name_splits_dialect_and_op() {
        let n = OpName::new("hida.node");
        assert_eq!(n.op(), "node");
        assert_eq!(n.as_str(), "hida.node");
        assert_eq!(n, "hida.node");
        assert_eq!(OpName::new("module").op(), "module");
    }

    #[test]
    fn op_name_is_copyable_and_string_ordered() {
        let a = OpName::new("zeta.op");
        let b = OpName::new("alpha.op");
        let copied = a; // Copy, no clone needed
        assert_eq!(copied, a);
        assert!(b < a, "ordering must follow the string, not intern order");
        assert_eq!(a, OpName::new("zeta.op"));
    }

    #[test]
    fn attribute_accessors() {
        let mut op = Operation::new("affine.for");
        op.set_attr("lower_bound", 0_i64);
        op.set_attr("upper_bound", 16_i64);
        op.set_attr("fashion", "cyclic");
        op.set_attr("factors", vec![4_i64, 4]);
        op.set_attr("pipeline", Attribute::Unit);

        assert_eq!(op.attr_int("lower_bound"), Some(0));
        assert_eq!(op.attr_int("upper_bound"), Some(16));
        assert_eq!(op.attr_str("fashion"), Some("cyclic"));
        assert_eq!(op.attr_int_array("factors"), Some(&[4_i64, 4][..]));
        assert!(op.has_flag("pipeline"));
        assert!(!op.has_flag("unroll"));
        assert!(op.is("affine.for"));
    }

    #[test]
    fn attributes_iterate_in_key_string_order() {
        let mut op = Operation::new("test.op");
        op.set_attr("zeta", 1_i64);
        op.set_attr("alpha", 2_i64);
        op.set_attr("mid", 3_i64);
        let keys: Vec<&str> = op.attributes.keys().collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn new_operation_is_detached_and_transparent() {
        let op = Operation::new("hida.task");
        assert!(op.parent_block.is_none());
        assert!(!op.isolated);
        assert!(op.operands.is_empty());
        assert!(op.results.is_empty());
        assert!(op.regions.is_empty());
    }
}
