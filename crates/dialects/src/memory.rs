//! Memory dialect: allocation, affine loads/stores, copies, and index arithmetic.
//!
//! At the Functional level HIDA programs manipulate tensors; after lowering, buffers
//! are memrefs accessed through `affine.load`/`affine.store` whose indices are affine
//! functions of loop induction variables. The connection analysis of HIDA-OPT (§6.5,
//! step 1) inspects exactly these access functions to derive permutation and scaling
//! maps, so this module keeps indices analyzable: every index operand is either a
//! loop induction variable, the result of a single-variable `affine.apply`, or a
//! constant.

use crate::loops;
use hida_ir_core::{Attribute, Context, OpBuilder, OpId, Type, ValueId};

/// Operation name for on-chip/off-chip buffer allocation.
pub const ALLOC: &str = "memref.alloc";
/// Operation name for affine memory reads.
pub const LOAD: &str = "affine.load";
/// Operation name for affine memory writes.
pub const STORE: &str = "affine.store";
/// Operation name for whole-buffer copies.
pub const COPY: &str = "memref.copy";
/// Operation name for single-variable affine index arithmetic.
pub const APPLY: &str = "affine.apply";

/// Allocates a memref buffer of the given type. Returns the buffer value.
pub fn build_alloc(builder: &mut OpBuilder<'_>, ty: Type, name: &str) -> ValueId {
    assert!(ty.is_memref(), "memref.alloc requires a memref type");
    // The attribute and the name hint share one string.
    let name: std::sync::Arc<str> = name.into();
    let (_, results) = builder.create(
        ALLOC,
        vec![],
        vec![ty],
        vec![("name", Attribute::Str(name.clone()))],
    );
    let v = results[0];
    builder.context().set_name_hint(v, name);
    v
}

/// Builds `affine.apply` computing `stride * iv + offset`. Returns the index value.
pub fn build_apply(builder: &mut OpBuilder<'_>, iv: ValueId, stride: i64, offset: i64) -> ValueId {
    let (_, results) = builder.create(
        APPLY,
        vec![iv],
        vec![Type::Index],
        vec![
            ("stride", Attribute::Int(stride)),
            ("offset", Attribute::Int(offset)),
        ],
    );
    results[0]
}

/// Builds `affine.load %memref[indices...]`. Returns the loaded element value.
pub fn build_load(builder: &mut OpBuilder<'_>, memref: ValueId, indices: &[ValueId]) -> ValueId {
    let elem = builder.context().value_type(memref).elem_type().clone();
    let mut operands = vec![memref];
    operands.extend_from_slice(indices);
    let (_, results) = builder.create(LOAD, operands, vec![elem], vec![]);
    results[0]
}

/// Builds `affine.store %value, %memref[indices...]`.
pub fn build_store(
    builder: &mut OpBuilder<'_>,
    value: ValueId,
    memref: ValueId,
    indices: &[ValueId],
) -> OpId {
    let mut operands = vec![value, memref];
    operands.extend_from_slice(indices);
    builder.create(STORE, operands, vec![], vec![]).0
}

/// Builds `memref.copy %src, %dst`.
pub fn build_copy(builder: &mut OpBuilder<'_>, src: ValueId, dst: ValueId) -> OpId {
    builder.create(COPY, vec![src, dst], vec![], vec![]).0
}

/// Returns the memref operand of a load or store op, or `None` for other ops.
pub fn accessed_memref(ctx: &Context, op: OpId) -> Option<ValueId> {
    let operation = ctx.op(op);
    if operation.is(LOAD) {
        operation.operands.first().copied()
    } else if operation.is(STORE) {
        operation.operands.get(1).copied()
    } else {
        None
    }
}

/// Returns the index operands of a load or store op.
pub fn access_indices(ctx: &Context, op: OpId) -> Vec<ValueId> {
    let operation = ctx.op(op);
    if operation.is(LOAD) {
        operation.operands[1..].to_vec()
    } else if operation.is(STORE) {
        operation.operands[2..].to_vec()
    } else {
        Vec::new()
    }
}

/// A resolved access index: a strided loop induction variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexExpr {
    /// `stride * iv + offset` for the induction variable of the given loop.
    Strided {
        /// The loop op whose induction variable drives this index.
        loop_op: OpId,
        /// Multiplicative stride.
        stride: i64,
        /// Additive offset.
        offset: i64,
    },
    /// A compile-time constant index.
    Constant(i64),
    /// An index the analysis cannot express as a single strided dimension.
    Unknown,
}

/// Resolves an index operand to an [`IndexExpr`], looking through `affine.apply`.
pub fn resolve_index(ctx: &Context, index: ValueId) -> IndexExpr {
    // Direct induction variable.
    if let Some(block) = ctx.value(index).owner_block() {
        if let Some(region) = ctx.block(block).parent_region {
            if let Some(owner) = ctx.region(region).parent_op {
                if ctx.op(owner).is(loops::FOR) && ctx.block(block).args.first() == Some(&index) {
                    return IndexExpr::Strided {
                        loop_op: owner,
                        stride: 1,
                        offset: 0,
                    };
                }
            }
        }
    }
    // Result of an op.
    if let Some(def) = ctx.value(index).defining_op() {
        let op = ctx.op(def);
        if op.is(APPLY) {
            let stride = op.attr_int("stride").unwrap_or(1);
            let offset = op.attr_int("offset").unwrap_or(0);
            match resolve_index(ctx, op.operands[0]) {
                IndexExpr::Strided {
                    loop_op,
                    stride: s0,
                    offset: o0,
                } => {
                    return IndexExpr::Strided {
                        loop_op,
                        stride: stride * s0,
                        offset: stride * o0 + offset,
                    }
                }
                IndexExpr::Constant(c) => return IndexExpr::Constant(stride * c + offset),
                IndexExpr::Unknown => return IndexExpr::Unknown,
            }
        }
        if op.is(hida_ir_core::op_names::CONSTANT) {
            if let Some(v) = op.attr_int("value") {
                return IndexExpr::Constant(v);
            }
        }
    }
    IndexExpr::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::build_loop_nest;

    fn func_with_body(ctx: &mut Context) -> (OpId, hida_ir_core::BlockId) {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let body = ctx.body_block(func);
        (func, body)
    }

    #[test]
    fn alloc_load_store_round_trip() {
        let mut ctx = Context::new();
        let (_, body) = func_with_body(&mut ctx);
        let (loops, ivs, inner) = build_loop_nest(&mut ctx, body, &[(0, 8, "i"), (0, 8, "j")]);
        let buf = {
            let mut b = OpBuilder::at_block_index(&mut ctx, body, 0);
            build_alloc(&mut b, Type::memref(vec![8, 8], Type::f32()), "A")
        };
        let mut b = OpBuilder::at_block_end(&mut ctx, inner);
        let loaded = build_load(&mut b, buf, &[ivs[0], ivs[1]]);
        let store = build_store(&mut b, loaded, buf, &[ivs[0], ivs[1]]);

        assert_eq!(ctx.value_type(loaded), &Type::f32());
        let load_op = ctx.value(loaded).defining_op().unwrap();
        assert_eq!(accessed_memref(&ctx, load_op), Some(buf));
        assert_eq!(accessed_memref(&ctx, store), Some(buf));
        assert_eq!(access_indices(&ctx, load_op), vec![ivs[0], ivs[1]]);
        assert_eq!(access_indices(&ctx, store), vec![ivs[0], ivs[1]]);
        assert_eq!(accessed_memref(&ctx, loops[0]), None);
    }

    #[test]
    fn resolve_index_sees_through_affine_apply() {
        let mut ctx = Context::new();
        let (_, body) = func_with_body(&mut ctx);
        let (loops, ivs, inner) = build_loop_nest(&mut ctx, body, &[(0, 16, "i")]);
        let mut b = OpBuilder::at_block_end(&mut ctx, inner);
        let scaled = build_apply(&mut b, ivs[0], 2, 0);
        let shifted = build_apply(&mut b, scaled, 1, 3);

        assert_eq!(
            resolve_index(&ctx, ivs[0]),
            IndexExpr::Strided {
                loop_op: loops[0],
                stride: 1,
                offset: 0
            }
        );
        assert_eq!(
            resolve_index(&ctx, scaled),
            IndexExpr::Strided {
                loop_op: loops[0],
                stride: 2,
                offset: 0
            }
        );
        assert_eq!(
            resolve_index(&ctx, shifted),
            IndexExpr::Strided {
                loop_op: loops[0],
                stride: 2,
                offset: 3
            }
        );
    }

    #[test]
    fn resolve_index_handles_constants_and_unknowns() {
        let mut ctx = Context::new();
        let (func, _) = func_with_body(&mut ctx);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(5, Type::Index);
        let scaled = build_apply(&mut b, c, 4, 1);
        let (_, unknown) = b.create("arith.muli", vec![c, c], vec![Type::Index], vec![]);
        assert_eq!(resolve_index(&ctx, c), IndexExpr::Constant(5));
        assert_eq!(resolve_index(&ctx, scaled), IndexExpr::Constant(21));
        assert_eq!(resolve_index(&ctx, unknown[0]), IndexExpr::Unknown);
    }

    #[test]
    #[should_panic(expected = "memref.alloc requires a memref type")]
    fn alloc_rejects_non_memref_types() {
        let mut ctx = Context::new();
        let (func, _) = func_with_body(&mut ctx);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        build_alloc(&mut b, Type::f32(), "bad");
    }

    #[test]
    fn copy_links_source_and_destination() {
        let mut ctx = Context::new();
        let (func, _) = func_with_body(&mut ctx);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let a = build_alloc(&mut b, Type::memref(vec![4], Type::i8()), "a");
        let c = build_alloc(&mut b, Type::memref(vec![4], Type::i8()), "c");
        let copy = build_copy(&mut b, a, c);
        assert_eq!(ctx.op(copy).operands, vec![a, c]);
        assert!(ctx.op(copy).is(COPY));
    }
}
