//! Loop and layer transformations used by HIDA-OPT.
//!
//! The parallelization step (paper §6.5, Algorithm 4) ultimately applies per-loop
//! unroll factors, pipelining, and tiling annotations to the body of every dataflow
//! node; the array-partition step attaches partition directives to the buffers the
//! node touches. This module provides the mechanics of applying those decisions to
//! either explicit loop bands or named linalg layers.

use crate::linalg;
use crate::loops::{self, ForOp};
use hida_ir_core::{Attribute, Context, IrError, IrResult, OpId};
use std::borrow::Cow;

/// Attribute key holding per-dimension unroll factors on named layers and nodes.
pub const ATTR_UNROLL_FACTORS: &str = "unroll_factors";
/// Attribute key holding per-dimension tile sizes on named layers and nodes.
pub const ATTR_TILE_SIZES: &str = "tile_sizes";
/// Attribute key marking an op as pipelined.
pub const ATTR_PIPELINE: &str = "pipeline";

/// Applies unroll factors to a perfect loop band (one factor per loop, outermost
/// first). Factors are clamped to each loop's trip count.
///
/// # Errors
/// Returns an error when the number of factors does not match the band length.
pub fn apply_unroll_to_band(ctx: &mut Context, band: &[ForOp], factors: &[i64]) -> IrResult<()> {
    if band.len() != factors.len() {
        return Err(IrError::InvalidAttribute(format!(
            "band has {} loops but {} unroll factors were provided",
            band.len(),
            factors.len()
        )));
    }
    for (loop_op, &factor) in band.iter().zip(factors) {
        let clamped = factor.clamp(1, loop_op.trip_count(ctx).max(1));
        loop_op.set_unroll_factor(ctx, clamped);
    }
    Ok(())
}

/// Marks the innermost loop of a band as pipelined with the given initiation interval.
pub fn pipeline_innermost(ctx: &mut Context, band: &[ForOp], ii: i64) {
    if let Some(inner) = band.last() {
        inner.set_pipeline(ctx, ii);
    }
}

/// Applies unroll factors to the body of `op` (a node, task or function):
/// explicit loop bands get per-loop directives, named layers get an
/// `unroll_factors` attribute, and the op itself records the factors for later
/// inspection by the estimator and the emitter.
///
/// # Errors
/// Returns an error when an explicit band exists and the factor count mismatches.
pub fn apply_unroll_factors(ctx: &mut Context, op: OpId, factors: &[i64]) -> IrResult<()> {
    if let Some(outer) = first_top_level_loop(ctx, op) {
        let band = loops::loop_band(ctx, outer);
        if band.len() == factors.len() {
            apply_unroll_to_band(ctx, &band, factors)?;
            pipeline_innermost(ctx, &band, 1);
        }
    }
    // One array, shared by every op that records it.
    let recorded = Attribute::from(factors);
    record_on_layers(ctx, op, ATTR_UNROLL_FACTORS, &recorded);
    ctx.set_attr(op, ATTR_UNROLL_FACTORS, recorded);
    ctx.set_attr(op, ATTR_PIPELINE, Attribute::Unit);
    Ok(())
}

/// The first `affine.for` directly nested in the body of `op`.
fn first_top_level_loop(ctx: &Context, op: OpId) -> Option<OpId> {
    let region = *ctx.op(op).regions.first()?;
    let body = ctx.block(ctx.entry_block(region));
    body.ops.iter().copied().find(|&o| ctx.op(o).is(loops::FOR))
}

/// Records `value` under `key` on every named layer nested at any depth
/// below `op`. Walks by index, holding no borrow of the structure it walks:
/// writing an attribute changes none of it.
fn record_on_layers(ctx: &mut Context, op: OpId, key: &str, value: &Attribute) {
    for region in 0..ctx.op(op).regions.len() {
        let region = ctx.op(op).regions[region];
        for block in 0..ctx.region(region).blocks.len() {
            let block = ctx.region(region).blocks[block];
            for nested in 0..ctx.block(block).ops.len() {
                let nested = ctx.block(block).ops[nested];
                if linalg::LinalgOp::from_op(ctx, nested).is_some() {
                    ctx.set_attr(nested, key, value.clone());
                }
                record_on_layers(ctx, nested, key, value);
            }
        }
    }
}

/// Reads the unroll factors recorded on `op` (node, layer or loop-band owner),
/// defaulting to all-1 factors of the given rank. Recorded factors are lent
/// from the attribute; only the fallbacks are built.
pub fn unroll_factors_of(ctx: &Context, op: OpId, rank: usize) -> Cow<'_, [i64]> {
    if let Some(factors) = ctx.op(op).attr_int_array(ATTR_UNROLL_FACTORS) {
        return Cow::Borrowed(factors);
    }
    // Fall back to per-loop directives of the primary band.
    if let Some(outer) = first_top_level_loop(ctx, op) {
        let band = loops::loop_band(ctx, outer);
        if !band.is_empty() {
            return band.iter().map(|l| l.unroll_factor(ctx)).collect();
        }
    }
    Cow::Owned(vec![1; rank])
}

/// Records per-dimension tile sizes on `op` and on every named layer in its body.
pub fn apply_tile_sizes(ctx: &mut Context, op: OpId, tile_sizes: &[i64]) {
    // One array, shared by every op that records it.
    let recorded = Attribute::from(tile_sizes);
    record_on_layers(ctx, op, ATTR_TILE_SIZES, &recorded);
    ctx.set_attr(op, ATTR_TILE_SIZES, recorded);
}

/// Reads the tile sizes recorded on `op`; `None` when it was never tiled.
pub fn tile_sizes_of(ctx: &Context, op: OpId) -> Option<&[i64]> {
    ctx.op(op).attr_int_array(ATTR_TILE_SIZES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::{build_layer, LinalgOp};
    use crate::loops::build_loop_nest;
    use hida_ir_core::{OpBuilder, Type};

    fn loop_func(ctx: &mut Context) -> (OpId, Vec<ForOp>) {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let body = ctx.body_block(func);
        let (loops, _, inner) = build_loop_nest(ctx, body, &[(0, 16, "i"), (0, 8, "j")]);
        OpBuilder::at_block_end(ctx, inner).create_constant_int(0, Type::i32());
        (func, loops.into_iter().map(ForOp).collect())
    }

    #[test]
    fn unroll_factors_are_applied_and_clamped() {
        let mut ctx = Context::new();
        let (func, band) = loop_func(&mut ctx);
        apply_unroll_to_band(&mut ctx, &band, &[4, 32]).unwrap();
        assert_eq!(band[0].unroll_factor(&ctx), 4);
        // 32 exceeds the trip count of 8 and is clamped.
        assert_eq!(band[1].unroll_factor(&ctx), 8);
        assert_eq!(unroll_factors_of(&ctx, func, 2), vec![4, 8]);
    }

    #[test]
    fn mismatched_factor_count_is_rejected() {
        let mut ctx = Context::new();
        let (_, band) = loop_func(&mut ctx);
        assert!(apply_unroll_to_band(&mut ctx, &band, &[4]).is_err());
    }

    #[test]
    fn apply_unroll_factors_handles_bands_and_records_on_op() {
        let mut ctx = Context::new();
        let (func, band) = loop_func(&mut ctx);
        apply_unroll_factors(&mut ctx, func, &[2, 4]).unwrap();
        assert_eq!(band[0].unroll_factor(&ctx), 2);
        assert_eq!(band[1].unroll_factor(&ctx), 4);
        assert!(band[1].is_pipelined(&ctx));
        assert_eq!(unroll_factors_of(&ctx, func, 2), vec![2, 4]);
        assert!(ctx.op(func).has_flag(ATTR_PIPELINE));
    }

    #[test]
    fn apply_unroll_factors_annotates_named_layers() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("layer", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let (_, input) = b.create(
            "test.source",
            vec![],
            vec![Type::tensor(vec![8, 8, 8], Type::i8())],
            vec![],
        );
        let out = build_layer(
            &mut b,
            &LinalgOp::Conv2d {
                in_channels: 8,
                out_channels: 8,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            &[input[0]],
            "conv",
        );
        let layer_op = ctx.value(out).defining_op().unwrap();
        apply_unroll_factors(&mut ctx, func, &[2, 2, 1, 1, 1, 1]).unwrap();
        assert_eq!(
            ctx.op(layer_op).attr_int_array(ATTR_UNROLL_FACTORS),
            Some(&[2_i64, 2, 1, 1, 1, 1][..])
        );
    }

    #[test]
    fn tile_sizes_round_trip_and_parallelism_product() {
        let mut ctx = Context::new();
        let (func, _) = loop_func(&mut ctx);
        assert_eq!(tile_sizes_of(&ctx, func), None);
        apply_tile_sizes(&mut ctx, func, &[8, 4]);
        assert_eq!(
            ctx.op(func).attr_int_array(ATTR_TILE_SIZES),
            Some(&[8_i64, 4][..])
        );
    }
}
