//! Structural fingerprints of IR subtrees, and the stable hasher behind them.
//!
//! [`structural_fingerprint`] is a 128-bit hash of the op subtree rooted at
//! an operation, covering operation names, attributes, types, the *shape* of
//! the operand/result wiring and the nested region structure. It is the
//! identity check of a round trip: a module printed and re-parsed, rebuilt
//! in a fresh context or cloned must fingerprint exactly as the original
//! (the `.hir` parser's tests, the fuzzer and the storage properties compare
//! them). The hash is computed from a canonical serialization that never
//! touches [`OpId`]/[`crate::ValueId`] indices or the context id, so it is
//! invariant under
//!
//! * op/value/block **renumbering** (the same structure built in a different
//!   creation order, or after unrelated IR was built first), and
//! * **context identity** (the same structure rebuilt in a fresh [`Context`]).
//!
//! SSA values are encoded positionally: values defined inside the subtree get
//! sequential local ordinals in walk order, values flowing in from outside get
//! sequential external ordinals in first-use order and contribute their type.
//! Two subtrees therefore collide only when they are wired identically, not
//! merely when they contain the same ops.
//!
//! [`StableHasher`] is the process- and platform-independent hasher the
//! fingerprint is built on; the estimate cache and store key their entries
//! with it.

use crate::attributes::Attribute;
use crate::context::Context;
use crate::ids::{OpId, ValueId};
use crate::storage::EntityMap;
use std::fmt::{self, Write as _};

/// A 128-bit content hash of an op subtree. Two lanes of 64 bits are mixed
/// independently, making accidental collisions vanishingly unlikely even over
/// millions of cached subtrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// splitmix64 finalizer: the avalanche step both hash lanes are built from.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Deterministic streaming hasher producing a [`Fingerprint`].
///
/// Unlike `std::hash::DefaultHasher`, the mixing function is spelled out here
/// and uses only fixed constants and wrapping integer arithmetic, so the
/// digest is stable across processes, platforms and toolchain versions — a
/// requirement for content-addressed caches that may outlive one process.
pub struct StableHasher {
    a: u64,
    b: u64,
    /// Where [`StableHasher::write_display`] renders; kept for its capacity.
    text: String,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Creates a hasher with the fixed seed.
    pub fn new() -> Self {
        StableHasher {
            a: 0x9E37_79B9_7F4A_7C15,
            b: 0xC2B2_AE3D_27D4_EB4F,
            text: String::new(),
        }
    }

    /// Absorbs one 64-bit word.
    pub fn write_u64(&mut self, word: u64) {
        self.a = mix(self.a ^ word);
        self.b = mix(self.b.rotate_left(23) ^ word.wrapping_mul(0x2545_F491_4F6C_DD1D));
    }

    /// Absorbs a signed 64-bit word.
    pub fn write_i64(&mut self, word: i64) {
        self.write_u64(word as u64);
    }

    /// Absorbs a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0_u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Absorbs a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, text: &str) {
        self.write_bytes(text.as_bytes());
    }

    /// Absorbs what [`StableHasher::write_str`] absorbs for
    /// `value.to_string()`, without a `String` per call.
    pub fn write_display(&mut self, value: &dyn fmt::Display) {
        let mut text = std::mem::take(&mut self.text);
        text.clear();
        write!(text, "{value}").expect("formatting into a String cannot fail");
        self.write_str(&text);
        self.text = text;
    }

    /// Finishes the digest.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint {
            hi: mix(self.a ^ self.b.rotate_left(32)),
            lo: mix(self.b ^ self.a.rotate_left(32)),
        }
    }
}

/// Hashes the structural content of the subtree rooted at `root`.
///
/// External values (operands defined outside the subtree) contribute their
/// first-use ordinal and their type.
///
/// # Example
///
/// ```
/// use hida_ir_core::{fingerprint::structural_fingerprint, Context, OpBuilder, Type};
///
/// let build = |ctx: &mut Context| {
///     let module = ctx.create_module("m");
///     let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
///     OpBuilder::at_end_of(ctx, func).create_constant_int(7, Type::i32());
///     func
/// };
/// let mut a = Context::new();
/// let fa = build(&mut a);
/// let mut b = Context::new();
/// b.create_module("unrelated"); // shifts every id in ctx b
/// let fb = build(&mut b);
/// assert_eq!(
///     structural_fingerprint(&a, fa),
///     structural_fingerprint(&b, fb)
/// );
/// ```
pub fn structural_fingerprint(ctx: &Context, root: OpId) -> Fingerprint {
    let mut walker = Walker {
        ctx,
        hasher: StableHasher::new(),
        locals: EntityMap::new(),
        externals: EntityMap::new(),
    };
    walker.hash_op(root);
    walker.hasher.finish()
}

struct Walker<'c> {
    ctx: &'c Context,
    hasher: StableHasher,
    /// Values defined inside the subtree -> local ordinal (walk order).
    locals: EntityMap<ValueId, u64>,
    /// Values defined outside the subtree -> external ordinal (first-use order).
    externals: EntityMap<ValueId, u64>,
}

impl Walker<'_> {
    fn define_local(&mut self, value: ValueId) {
        let ordinal = self.locals.len() as u64;
        self.locals.insert(value, ordinal);
    }

    fn hash_value_use(&mut self, value: ValueId) {
        if let Some(&ordinal) = self.locals.get(value) {
            self.hasher.write_u64(0);
            self.hasher.write_u64(ordinal);
            return;
        }
        self.hasher.write_u64(1);
        match self.externals.get(value) {
            Some(&ordinal) => self.hasher.write_u64(ordinal),
            None => {
                let ordinal = self.externals.len() as u64;
                self.externals.insert(value, ordinal);
                self.hasher.write_u64(ordinal);
                self.hasher.write_display(self.ctx.value_type(value));
            }
        }
    }

    fn hash_attr(&mut self, attr: &Attribute) {
        let h = &mut self.hasher;
        match attr {
            Attribute::Unit => h.write_u64(0),
            Attribute::Bool(v) => {
                h.write_u64(1);
                h.write_u64(*v as u64);
            }
            Attribute::Int(v) => {
                h.write_u64(2);
                h.write_i64(*v);
            }
            Attribute::Float(v) => {
                h.write_u64(3);
                h.write_u64(v.to_bits());
            }
            Attribute::Str(s) => {
                h.write_u64(4);
                h.write_str(s);
            }
            // Empty arrays of every flavor hash alike (tag 8): the textual form
            // `[]` carries no element type, so the fingerprint must not depend on
            // which empty-array variant produced it.
            Attribute::IntArray(v) => {
                h.write_u64(if v.is_empty() { 8 } else { 5 });
                h.write_u64(v.len() as u64);
                for x in v.iter() {
                    h.write_i64(*x);
                }
            }
            Attribute::FloatArray(v) => {
                h.write_u64(if v.is_empty() { 8 } else { 6 });
                h.write_u64(v.len() as u64);
                for x in v.iter() {
                    h.write_u64(x.to_bits());
                }
            }
            Attribute::StrArray(v) => {
                h.write_u64(if v.is_empty() { 8 } else { 7 });
                h.write_u64(v.len() as u64);
                for s in v.iter() {
                    h.write_str(s);
                }
            }
            // A generic array whose elements are all ints / floats / strings
            // prints exactly like the corresponding typed array, so it must
            // hash like one too (the parser canonicalizes on re-read).
            Attribute::Array(v)
                if !v.is_empty() && v.iter().all(|a| matches!(a, Attribute::Int(_))) =>
            {
                h.write_u64(5);
                h.write_u64(v.len() as u64);
                for a in v.iter() {
                    if let Attribute::Int(x) = a {
                        h.write_i64(*x);
                    }
                }
            }
            Attribute::Array(v)
                if !v.is_empty() && v.iter().all(|a| matches!(a, Attribute::Float(_))) =>
            {
                h.write_u64(6);
                h.write_u64(v.len() as u64);
                for a in v.iter() {
                    if let Attribute::Float(x) = a {
                        h.write_u64(x.to_bits());
                    }
                }
            }
            Attribute::Array(v)
                if !v.is_empty() && v.iter().all(|a| matches!(a, Attribute::Str(_))) =>
            {
                h.write_u64(7);
                h.write_u64(v.len() as u64);
                for a in v.iter() {
                    if let Attribute::Str(s) = a {
                        h.write_str(s);
                    }
                }
            }
            Attribute::Array(v) => {
                self.hasher.write_u64(8);
                self.hasher.write_u64(v.len() as u64);
                for nested in v.iter() {
                    self.hash_attr(nested);
                }
            }
            Attribute::TypeAttr(t) => {
                h.write_u64(9);
                h.write_display(t);
            }
        }
    }

    fn hash_op(&mut self, op: OpId) {
        // `ctx` is an independent `&'c Context`, so borrowing op payloads from
        // it does not freeze `self`.
        let ctx = self.ctx;
        let data = ctx.op(op);
        self.hasher.write_str(data.name.as_str());
        // Isolation follows from the name; it is still hashed, so every
        // fingerprint (and each estimate-store key made from one) keeps its
        // value.
        self.hasher.write_u64(data.name.is_isolated() as u64);

        // Attribute iteration is in key-string order (each op's run in the
        // attribute arena is kept sorted), so the serialization is canonical.
        let attributes = data.attributes();
        self.hasher.write_u64(attributes.len() as u64);
        for (key, value) in attributes.iter() {
            self.hasher.write_str(key);
            self.hash_attr(value);
        }

        self.hasher.write_u64(data.operands.len() as u64);
        for &operand in &data.operands {
            self.hash_value_use(operand);
        }

        self.hasher.write_u64(data.results.len() as u64);
        for &result in &data.results {
            self.hasher.write_display(ctx.value_type(result));
            self.define_local(result);
        }

        self.hasher.write_u64(data.regions.len() as u64);
        for &region in &data.regions {
            let blocks = &ctx.region(region).blocks;
            self.hasher.write_u64(blocks.len() as u64);
            for &block in blocks {
                let args = &ctx.block(block).args;
                self.hasher.write_u64(args.len() as u64);
                for &arg in args {
                    self.hasher.write_display(ctx.value_type(arg));
                    self.define_local(arg);
                }
                let ops = &ctx.block(block).ops;
                self.hasher.write_u64(ops.len() as u64);
                for &nested in ops {
                    self.hash_op(nested);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;

    /// Builds `module { func f { c0; c1; add(c0, c1) } }` and returns the func.
    fn build_func(ctx: &mut Context, constant: i64) -> OpId {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let body = ctx.body_block(func);
        let (c0, c1) = {
            let mut b = OpBuilder::at_block_end(ctx, body);
            (
                b.create_constant_int(constant, Type::i32()),
                b.create_constant_int(1, Type::i32()),
            )
        };
        ctx.build_op(body, "arith.addi", vec![c0, c1], vec![Type::i32()], vec![]);
        func
    }

    #[test]
    fn identical_structure_hashes_identically_across_contexts() {
        let mut a = Context::new();
        let fa = build_func(&mut a, 7);
        let mut b = Context::new();
        // Shift every id in context b before building the same structure.
        for i in 0..5 {
            b.create_module(&format!("junk{i}"));
        }
        let fb = build_func(&mut b, 7);
        assert_eq!(
            structural_fingerprint(&a, fa),
            structural_fingerprint(&b, fb)
        );
    }

    #[test]
    fn attribute_and_shape_changes_change_the_fingerprint() {
        let mut a = Context::new();
        let fa = build_func(&mut a, 7);
        let mut b = Context::new();
        let fb = build_func(&mut b, 8);
        assert_ne!(
            structural_fingerprint(&a, fa),
            structural_fingerprint(&b, fb)
        );

        // An extra attribute on the root changes it too.
        let mut c = Context::new();
        let fc = build_func(&mut c, 7);
        c.set_attr(fc, "parallel_factor", 4_i64);
        assert_ne!(
            structural_fingerprint(&a, fa),
            structural_fingerprint(&c, fc)
        );
    }

    #[test]
    fn operand_wiring_is_part_of_the_hash() {
        let build = |ctx: &mut Context, swap: bool| {
            let module = ctx.create_module("m");
            let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
            let body = ctx.body_block(func);
            let (c0, c1) = {
                let mut b = OpBuilder::at_block_end(ctx, body);
                (
                    b.create_constant_int(0, Type::i32()),
                    b.create_constant_int(1, Type::i32()),
                )
            };
            let (x, y) = if swap { (c1, c0) } else { (c0, c1) };
            ctx.build_op(body, "arith.subi", vec![x, y], vec![Type::i32()], vec![]);
            func
        };
        let mut a = Context::new();
        let fa = build(&mut a, false);
        let mut b = Context::new();
        let fb = build(&mut b, true);
        assert_ne!(
            structural_fingerprint(&a, fa),
            structural_fingerprint(&b, fb)
        );
    }

    /// Values flowing into the subtree hash by first-use ordinal, not by
    /// identity: which outer values feed it matters only through the order
    /// they are first used in and their types.
    #[test]
    fn external_values_are_numbered_by_first_use() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let body = ctx.body_block(func);
        let (c0, c1) = {
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            (
                b.create_constant_int(0, Type::i32()),
                b.create_constant_int(1, Type::i32()),
            )
        };
        let (wrapper, _) = ctx.build_op(body, "hida.task", vec![], vec![], vec![]);
        let region = ctx.create_region(wrapper);
        let inner = ctx.create_block(region);
        ctx.build_op(inner, "arith.addi", vec![c0, c1], vec![Type::i32()], vec![]);

        // Fingerprinting just the wrapper treats c0/c1 as externals.
        let wrapped = |ctx: &mut Context, operands: Vec<ValueId>| {
            let (wrapper, _) = ctx.build_op(body, "hida.task", vec![], vec![], vec![]);
            let region = ctx.create_region(wrapper);
            let inner = ctx.create_block(region);
            ctx.build_op(inner, "arith.addi", operands, vec![Type::i32()], vec![]);
            structural_fingerprint(ctx, wrapper)
        };
        let first = structural_fingerprint(&ctx, wrapper);
        // Other values in the same first-use order: the same hash.
        let (d0, d1) = {
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            (
                b.create_constant_int(5, Type::i32()),
                b.create_constant_int(6, Type::i32()),
            )
        };
        assert_eq!(wrapped(&mut ctx, vec![d0, d1]), first);
        // The same value used twice is one external, not two.
        assert_ne!(wrapped(&mut ctx, vec![c0, c0]), first);
        // An external of another type changes the hash.
        let wide = OpBuilder::at_block_end(&mut ctx, body).create_constant_int(0, Type::i64());
        assert_ne!(wrapped(&mut ctx, vec![wide, c1]), first);
    }

    #[test]
    fn hasher_digest_is_order_sensitive_and_deterministic() {
        let digest = |words: &[u64]| {
            let mut h = StableHasher::new();
            for &w in words {
                h.write_u64(w);
            }
            h.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
        let rendered = digest(&[42]).to_string();
        assert_eq!(rendered.len(), 32);
    }
}
