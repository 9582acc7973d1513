//! The [`Operation`] — the minimal unit of code in the IR (paper §3.1).
//!
//! Each operation accepts typed operands, produces typed results, carries named
//! attributes, and may own nested regions. Operations are stored in and identified
//! through the [`Context`](crate::Context); this module defines their payload and
//! [`OpRef`], the view [`Context::op`](crate::Context::op) hands out — the payload
//! together with the op's attributes, which live in the context's attribute arena.

use crate::attributes::{Attribute, Attrs};
use crate::ids::{BlockId, RegionId, ValueId};
use crate::intern::Symbol;
use crate::storage::IdList;
use std::fmt;
use std::ops::{Deref, Range};

/// Fully-qualified name of an operation, e.g. `"hida.node"` or `"affine.for"`.
///
/// Names use the MLIR convention `dialect.op`. The type is a copyable wrapper
/// over an interned [`Symbol`], so name comparisons are pointer compares,
/// `as_str` is one load, and creating an operation with a known name
/// allocates nothing. Ordering (`Ord`) follows the string, so name-sorted
/// output stays deterministic across processes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpName(Symbol);

impl OpName {
    /// Creates (interning on first sight) an operation name from its
    /// fully-qualified string form.
    pub fn new(name: impl AsRef<str>) -> Self {
        OpName(Symbol::intern(name.as_ref()))
    }

    /// Returns the fully-qualified name (`dialect.op`).
    #[inline]
    pub fn as_str(&self) -> &'static str {
        self.0.as_str()
    }

    /// Whether the regions of an op of this name are isolated from the
    /// enclosing scope: values defined outside must be passed in as operands
    /// (paper §5.2). Functional dataflow ops (`dispatch`/`task`) are
    /// transparent; Structural ops (`schedule`/`node`), functions and modules
    /// are isolated. Like an MLIR trait it is a property of the name, so the
    /// printer does not render it, and the verifier, the structural
    /// fingerprint and every op built or parsed read this one list.
    #[inline]
    pub fn is_isolated(self) -> bool {
        ISOLATED_OPS.contains(&self.as_str())
    }
}

/// The names [`OpName::is_isolated`] accepts.
const ISOLATED_OPS: [&str; 4] = ["builtin.module", "func.func", "hida.schedule", "hida.node"];

impl fmt::Debug for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpName({:?})", self.as_str())
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
        OpName(sym)
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

/// Where an op's attributes sit in its context's attribute arena: the run
/// `start..start + len`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AttrSpan {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl AttrSpan {
    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// An operation: operands, results and nested regions, plus where its
/// attributes sit in the owning context.
///
/// The fields are public because the [`Context`](crate::Context) mediates all
/// structural mutation (use lists, parent links); passes read these fields directly
/// and mutate through context APIs. Attributes are read through the
/// [`OpRef`] that [`Context::op`](crate::Context::op) returns and written with
/// [`Context::set_attr`](crate::Context::set_attr); a detached operation has
/// none until it is created.
#[derive(Debug, Clone)]
pub struct Operation {
    /// Fully-qualified operation name (interned, copyable).
    pub name: OpName,
    /// SSA operands consumed by this operation, in order.
    pub operands: IdList<ValueId>,
    /// SSA results produced by this operation, in order.
    pub results: IdList<ValueId>,
    /// Nested regions owned by this operation.
    pub regions: IdList<RegionId>,
    /// Block containing this operation, if attached.
    pub parent_block: Option<BlockId>,
    /// This op's run in the context's attribute arena.
    pub(crate) attrs: AttrSpan,
}

impl Operation {
    /// Creates a detached operation with the given name and no operands/results.
    pub fn new(name: impl Into<OpName>) -> Self {
        Operation {
            name: name.into(),
            operands: IdList::new(),
            results: IdList::new(),
            regions: IdList::new(),
            parent_block: None,
            attrs: AttrSpan::default(),
        }
    }

    /// Returns true if this operation's name equals `name`.
    pub fn is(&self, name: &str) -> bool {
        self.name.as_str() == name
    }
}

/// An operation as its context sees it: the [`Operation`] payload (which it
/// derefs to) and the op's attributes. `Copy`, borrowed from the context.
#[derive(Clone, Copy)]
pub struct OpRef<'a> {
    op: &'a Operation,
    attrs: Attrs<'a>,
}

impl<'a> OpRef<'a> {
    pub(crate) fn new(op: &'a Operation, attrs: Attrs<'a>) -> Self {
        OpRef { op, attrs }
    }

    /// The payload, borrowed for as long as the context is.
    pub fn payload(self) -> &'a Operation {
        self.op
    }

    /// The named attributes, in key-string order.
    pub fn attributes(self) -> Attrs<'a> {
        self.attrs
    }

    /// Returns the attribute stored under `key`, if present.
    pub fn attr(self, key: &str) -> Option<&'a Attribute> {
        self.attrs.get(key)
    }

    /// Returns the integer attribute stored under `key`, if present.
    pub fn attr_int(self, key: &str) -> Option<i64> {
        self.attr(key).and_then(Attribute::as_int)
    }

    /// Returns the string attribute stored under `key`, if present.
    pub fn attr_str(self, key: &str) -> Option<&'static str> {
        self.attr_symbol(key).map(Symbol::as_str)
    }

    /// Returns the string attribute stored under `key` as its interned
    /// handle, if present: a name that outlives the context, copied in one
    /// word.
    pub fn attr_symbol(self, key: &str) -> Option<Symbol> {
        match self.attr(key) {
            Some(&Attribute::Str(symbol)) => Some(symbol),
            _ => None,
        }
    }

    /// Returns the integer-array attribute stored under `key`, if present.
    pub fn attr_int_array(self, key: &str) -> Option<&'static [i64]> {
        self.attr(key).and_then(Attribute::as_int_array)
    }

    /// Returns true when a unit/bool attribute under `key` is present and truthy.
    pub fn has_flag(self, key: &str) -> bool {
        self.attr(key).and_then(Attribute::as_bool).unwrap_or(false)
    }
}

impl Deref for OpRef<'_> {
    type Target = Operation;

    #[inline]
    fn deref(&self) -> &Operation {
        self.op
    }
}

impl fmt::Debug for OpRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpRef")
            .field("op", self.op)
            .field("attributes", &self.attrs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Context;

    #[test]
    fn op_name_is_copyable_and_string_ordered() {
        let n = OpName::new("hida.node");
        assert_eq!(n.as_str(), "hida.node");
        assert_eq!(n, "hida.node");
        let a = OpName::new("zeta.op");
        let b = OpName::new("alpha.op");
        let copied = a; // Copy, no clone needed
        assert_eq!(copied, a);
        assert!(b < a, "ordering must follow the string, not intern order");
        assert_eq!(a, OpName::new("zeta.op"));
    }

    #[test]
    fn attribute_accessors() {
        let mut ctx = Context::new();
        let op = ctx.create_op(Operation::new("affine.for"));
        ctx.set_attr(op, "lower_bound", 0_i64);
        ctx.set_attr(op, "upper_bound", 16_i64);
        ctx.set_attr(op, "fashion", "cyclic");
        ctx.set_attr(op, "factors", vec![4_i64, 4]);
        ctx.set_attr(op, "pipeline", Attribute::Unit);

        let op = ctx.op(op);
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
        let mut ctx = Context::new();
        let op = ctx.create_op(Operation::new("test.op"));
        ctx.set_attr(op, "zeta", 1_i64);
        ctx.set_attr(op, "alpha", 2_i64);
        ctx.set_attr(op, "mid", 3_i64);
        let keys: Vec<&str> = ctx.op(op).attributes().keys().collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
        // Keys that share first bytes, and the empty key, sort as strings.
        for key in ["pipeline_ii", "p", "partition_fashions", "", "pipeline"] {
            ctx.set_attr(op, key, 4_i64);
        }
        ctx.set_attr(op, "partition_factors", 5_i64);
        let keys: Vec<&str> = ctx.op(op).attributes().keys().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 9);
    }

    #[test]
    fn new_operation_is_detached_and_transparent() {
        let op = Operation::new("hida.task");
        assert!(op.parent_block.is_none());
        assert!(!op.name.is_isolated());
        assert!(op.operands.is_empty());
        assert!(op.results.is_empty());
        assert!(op.regions.is_empty());
        let mut ctx = Context::new();
        let id = ctx.create_op(op);
        assert!(ctx.op(id).attributes().is_empty());
    }
}
