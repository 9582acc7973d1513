//! Compute-profile extraction.
//!
//! HIDA-OPT's structural optimizations need three facts about every dataflow node
//! (paper §6.5): its *computational intensity* (number of operations), the *loop
//! dimensions* it iterates, and the *memory access patterns* through which it touches
//! each buffer. This module extracts a [`ComputeProfile`] from an op's body whether
//! that body is an explicit affine loop nest (C++ front-end) or a named linalg-style
//! layer (PyTorch front-end).

use crate::arith::{classify, OpClass};
use crate::linalg::{LayerProfile, LayerWork, LinalgOp};
use crate::loops::{self, ForOp};
use crate::memory;
use hida_ir_core::walk::walk_ops_pruned;
use hida_ir_core::{Context, OpId, ValueId};

/// Memory effect of a node on one buffer (paper §5.2: nodes carry explicit I/O
/// memory effect information).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemEffect {
    /// The buffer is only read.
    Read,
    /// The buffer is only written.
    Write,
    /// The buffer is both read and written.
    ReadWrite,
}

impl MemEffect {
    /// Combines two effects on the same buffer.
    pub fn merge(self, other: MemEffect) -> MemEffect {
        if self == other {
            self
        } else {
            MemEffect::ReadWrite
        }
    }

    /// Returns true when the effect includes a write.
    pub fn writes(self) -> bool {
        matches!(self, MemEffect::Write | MemEffect::ReadWrite)
    }

    /// Returns true when the effect includes a read.
    pub fn reads(self) -> bool {
        matches!(self, MemEffect::Read | MemEffect::ReadWrite)
    }
}

/// How each dimension of a buffer is indexed by the node's loop dimensions:
/// `Some((loop_index, stride))` or `None` when no single loop drives the dimension.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessPattern {
    /// One entry per buffer dimension.
    pub dims: Vec<Option<(usize, i64)>>,
}

impl AccessPattern {
    /// An access pattern with no analyzable dimensions.
    pub fn unknown(rank: usize) -> Self {
        AccessPattern {
            dims: vec![None; rank],
        }
    }
}

/// A node's aggregate access to one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferAccess {
    /// The accessed buffer (memref or tensor SSA value).
    pub buffer: ValueId,
    /// Combined memory effect over all accesses.
    pub effect: MemEffect,
    /// Representative access pattern (the write pattern when the node writes the
    /// buffer, otherwise the first read pattern).
    pub pattern: AccessPattern,
}

/// One loop dimension of a node's (virtual) loop nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileLoopDim {
    /// Trip count.
    pub trip: i64,
    /// Whether the dimension is a reduction dimension.
    pub reduction: bool,
}

/// The complete analysis result for one node/task body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComputeProfile {
    /// Loop dimensions, outermost first.
    pub loop_dims: Vec<ProfileLoopDim>,
    /// Buffer accesses (one entry per distinct buffer).
    pub accesses: Vec<BufferAccess>,
    /// Total scalar operations executed by the node ("intensity", §6.5).
    pub intensity: i64,
    /// Total multiply-accumulate operations.
    pub macs: i64,
    /// Multiplications per innermost iteration.
    pub muls_per_iter: i64,
    /// Additions/comparisons per innermost iteration.
    pub adds_per_iter: i64,
    /// Divisions/square roots per innermost iteration.
    pub divs_per_iter: i64,
    /// Memory operations per innermost iteration.
    pub mem_per_iter: i64,
    /// Weight parameters held by named layers in the body.
    pub weight_params: i64,
}

impl ComputeProfile {
    /// Product of the loop trip counts (total innermost iterations).
    pub fn total_iterations(&self) -> i64 {
        self.loop_dims
            .iter()
            .map(|d| d.trip)
            .product::<i64>()
            .max(1)
    }

    /// Returns the access record for `buffer`, if the node touches it.
    pub fn access_of(&self, buffer: ValueId) -> Option<&BufferAccess> {
        self.accesses.iter().find(|a| a.buffer == buffer)
    }

    fn record_access(&mut self, buffer: ValueId, effect: MemEffect, pattern: AccessPattern) {
        if let Some(existing) = self.accesses.iter_mut().find(|a| a.buffer == buffer) {
            // Writes define the producer-side layout, so prefer a write pattern.
            if effect.writes() && !existing.effect.writes() {
                existing.pattern = pattern;
            }
            existing.effect = existing.effect.merge(effect);
        } else {
            self.accesses.push(BufferAccess {
                buffer,
                effect,
                pattern,
            });
        }
    }
}

/// [`ComputeProfile`] is a cacheable [`Analysis`](hida_ir_core::analysis::Analysis):
/// optimizer passes fetch it through the
/// [`AnalysisManager`](hida_ir_core::analysis::AnalysisManager)
/// (`analyses.get::<ComputeProfile>(ctx, op)`) so the expensive IR walk runs once
/// per (op, IR generation) instead of once per query. [`profile_body`] remains the
/// raw, uncached computation.
impl hida_ir_core::analysis::Analysis for ComputeProfile {
    const NAME: &'static str = "compute-profile";

    fn compute(ctx: &Context, root: OpId) -> Self {
        profile_body(ctx, root)
    }
}

/// Extracts the compute profile of the body of `op` (a task, node, or function,
/// or a named layer itself). The profile is of `op`'s own level: a schedule
/// nested in it is a level of its own, whose work the walks do not enter.
///
/// Bodies made of named linalg layers and bodies made of explicit affine loop nests
/// are both supported; a body mixing the two uses the dominant named layer for the
/// loop dimensions.
///
/// This is the raw computation behind the cached analysis; pass code should
/// query `analyses.get::<ComputeProfile>(ctx, op)` instead so repeated requests
/// hit the [`AnalysisManager`](hida_ir_core::analysis::AnalysisManager) cache.
pub fn profile_body(ctx: &Context, op: OpId) -> ComputeProfile {
    let mut profile = ComputeProfile::default();

    // Named layers anywhere in the body, each weighed once; a named layer on
    // its own (a compute unit no task wraps) is its own body.
    let mut layers: Vec<OpId> = Vec::new();
    // The heaviest layer: its work, its MACs, the layer and its op.
    let mut dominant: Option<(i64, i64, LinalgOp, OpId)> = None;
    walk_ops_pruned(ctx, op, &mut |ctx, nested| {
        // An isolated op below `op` (the schedule a node holds) is a level
        // of its own.
        if nested != op && ctx.op(nested).name.is_isolated() {
            return false;
        }
        let Some(layer) = LinalgOp::from_op(ctx, nested) else {
            return true;
        };
        let LayerWork {
            macs,
            other_ops,
            weight_params,
        } = layer.work(input_shape_of(ctx, nested));
        let work = 2 * macs + other_ops;
        profile.intensity += work;
        profile.macs += macs;
        profile.weight_params += weight_params;
        if dominant.as_ref().is_none_or(|(w, ..)| work > *w) {
            dominant = Some((work, macs, layer, nested));
        }
        layers.push(nested);
        true
    });

    if let Some((_, macs, layer, dominant)) = dominant {
        // Only the dominant layer's virtual loop nest is built: its loop
        // dimensions and access patterns stand for the body's.
        let mut lp = layer.profile(input_shape_of(ctx, dominant));
        for &nested in &layers {
            let patterns = (nested == dominant).then_some(&mut lp);
            record_linalg_accesses(ctx, nested, patterns, &mut profile);
        }
        profile.muls_per_iter = if macs > 0 { 1 } else { 0 };
        profile.adds_per_iter = 1;
        profile.mem_per_iter = 2;
        profile.loop_dims = lp.loop_dims;
        return profile;
    }

    // Explicit affine loop nests. When `op` is itself an `affine.for` (e.g. one of
    // the outermost nests of Listing 1), the band starts at `op` and its own trip
    // count multiplies the work performed by the body.
    let (band, base_multiplier): (Vec<ForOp>, i64) = if ctx.op(op).is(loops::FOR) {
        let band = loops::loop_band(ctx, op);
        let mult = ForOp(op).trip_count(ctx).max(1);
        (band, mult)
    } else {
        let top = loops::top_level_loops(ctx, op);
        let band = match top.first() {
            Some(&outer) => loops::loop_band(ctx, outer.id()),
            None => Vec::new(),
        };
        (band, 1)
    };
    profile.loop_dims = band
        .iter()
        .map(|l| ProfileLoopDim {
            trip: l.trip_count(ctx),
            reduction: false,
        })
        .collect();

    // Intensity and per-iteration op counts + accesses.
    accumulate_region(ctx, op, base_multiplier, &band, &mut profile);

    // Reduction detection for explicit loop nests: a loop is a reduction dimension
    // when some read-write buffer (an accumulator) is indexed without it — unrolling
    // such a loop requires a reduction tree, so the parallelizer avoids it.
    let rw_patterns: Vec<Vec<Option<(usize, i64)>>> = profile
        .accesses
        .iter()
        .filter(|a| a.effect == MemEffect::ReadWrite)
        .map(|a| a.pattern.dims.clone())
        .collect();
    if !rw_patterns.is_empty() {
        for (loop_idx, dim) in profile.loop_dims.iter_mut().enumerate() {
            let referenced_everywhere = rw_patterns.iter().all(|dims| {
                dims.iter()
                    .any(|d| matches!(d, Some((l, _)) if *l == loop_idx))
            });
            if !referenced_everywhere {
                dim.reduction = true;
            }
        }
    }
    profile
}

fn input_shape_of(ctx: &Context, op: OpId) -> &'static [i64] {
    ctx.op(op)
        .operands
        .first()
        .and_then(|&v| ctx.value_type(v).shape())
        .unwrap_or_default()
}

/// Records the accesses of the named layer `op`: with the access patterns
/// of `patterns`, the layer's own profile (they move into the accesses), or
/// as unknown without it.
fn record_linalg_accesses(
    ctx: &Context,
    op: OpId,
    mut patterns: Option<&mut LayerProfile>,
    profile: &mut ComputeProfile,
) {
    let operation = ctx.op(op).payload();
    let operands = &operation.operands;
    // Inputs: tensor operands that are shaped values. In destination-passing style
    // (structural level), the final operand is the output buffer.
    let has_result = !operation.results.is_empty();
    let num_inputs = if has_result {
        operands.len()
    } else {
        operands.len().saturating_sub(1)
    };
    for (i, &operand) in operands.iter().take(num_inputs).enumerate() {
        let Some(shape) = ctx.value_type(operand).shape() else {
            continue;
        };
        let pattern = match patterns.as_deref_mut() {
            Some(lp) if i < lp.input_accesses.len() => AccessPattern {
                dims: std::mem::take(&mut lp.input_accesses[i]),
            },
            _ => AccessPattern::unknown(shape.len()),
        };
        profile.record_access(operand, MemEffect::Read, pattern);
    }
    // Output: either the op result (tensor level) or the last operand (memref level).
    let output = if has_result {
        Some(operation.results[0])
    } else {
        operands.last().copied()
    };
    if let Some(out) = output {
        let rank = ctx.value_type(out).shape().map(|s| s.len()).unwrap_or(0);
        let pattern = match patterns {
            Some(lp) => AccessPattern {
                dims: std::mem::take(&mut lp.result_access),
            },
            None => AccessPattern::unknown(rank),
        };
        profile.record_access(out, MemEffect::Write, pattern);
    }
}

fn accumulate_region(
    ctx: &Context,
    op: OpId,
    multiplier: i64,
    band: &[ForOp],
    profile: &mut ComputeProfile,
) {
    for nested in ctx.body_ops(op) {
        let operation = ctx.op(nested);
        if operation.is(loops::FOR) {
            let f = ForOp(nested);
            accumulate_region(
                ctx,
                nested,
                multiplier * f.trip_count(ctx).max(1),
                band,
                profile,
            );
            continue;
        }
        match classify(operation.name.as_str()) {
            OpClass::AddLike => {
                profile.intensity += multiplier;
                if is_innermost_context(ctx, nested, band) {
                    profile.adds_per_iter += 1;
                }
            }
            OpClass::MulLike => {
                profile.intensity += multiplier;
                profile.macs += multiplier;
                if is_innermost_context(ctx, nested, band) {
                    profile.muls_per_iter += 1;
                }
            }
            OpClass::DivLike => {
                profile.intensity += multiplier;
                if is_innermost_context(ctx, nested, band) {
                    profile.divs_per_iter += 1;
                }
            }
            OpClass::Memory => {
                profile.intensity += multiplier;
                if is_innermost_context(ctx, nested, band) {
                    profile.mem_per_iter += 1;
                }
                record_memory_access(ctx, nested, band, profile);
            }
            OpClass::Other => {
                // Regions of non-loop ops (e.g. nothing expected here) still
                // count, unless they are a level of their own.
                if !operation.regions.is_empty() && !operation.name.is_isolated() {
                    accumulate_region(ctx, nested, multiplier, band, profile);
                }
            }
        }
    }
}

/// Returns true when the op is nested inside the innermost loop of the primary band
/// (or the band is empty, in which case everything counts as innermost).
fn is_innermost_context(ctx: &Context, op: OpId, band: &[ForOp]) -> bool {
    match band.last() {
        Some(inner) => ctx.is_ancestor(inner.id(), op),
        None => true,
    }
}

fn record_memory_access(ctx: &Context, op: OpId, band: &[ForOp], profile: &mut ComputeProfile) {
    let buffer = match memory::accessed_memref(ctx, op) {
        Some(b) => b,
        None => return,
    };
    let effect = if ctx.op(op).is(memory::STORE) {
        MemEffect::Write
    } else {
        MemEffect::Read
    };
    let indices = memory::access_indices(ctx, op);
    let dims: Vec<Option<(usize, i64)>> = indices
        .iter()
        .map(|&idx| match memory::resolve_index(ctx, idx) {
            memory::IndexExpr::Strided {
                loop_op, stride, ..
            } => band
                .iter()
                .position(|l| l.id() == loop_op)
                .map(|pos| (pos, stride)),
            _ => None,
        })
        .collect();
    profile.record_access(buffer, effect, AccessPattern { dims });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith;
    use crate::linalg::build_layer;
    use crate::loops::build_loop_nest;
    use crate::memory::{build_alloc, build_apply, build_load, build_store};
    use hida_ir_core::{OpBuilder, Type};

    /// Builds Node2 of Listing 1: C[i][j] += A[i*2][k] * B[k][j] over i,j,k in 0..16.
    fn listing1_node2(ctx: &mut Context) -> (OpId, ValueId, ValueId, ValueId) {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("node2", vec![], vec![]);
        let body = ctx.body_block(func);
        let (a, b_buf, c) = {
            let mut b = OpBuilder::at_block_end(ctx, body);
            let a = build_alloc(&mut b, Type::memref(vec![32, 16], Type::f32()), "A");
            let b_buf = build_alloc(&mut b, Type::memref(vec![16, 16], Type::f32()), "B");
            let c = build_alloc(&mut b, Type::memref(vec![16, 16], Type::f32()), "C");
            (a, b_buf, c)
        };
        let (_loops, ivs, inner) =
            build_loop_nest(ctx, body, &[(0, 16, "i"), (0, 16, "j"), (0, 16, "k")]);
        let mut bld = OpBuilder::at_block_end(ctx, inner);
        let i2 = build_apply(&mut bld, ivs[0], 2, 0);
        let a_val = build_load(&mut bld, a, &[i2, ivs[2]]);
        let b_val = build_load(&mut bld, b_buf, &[ivs[2], ivs[1]]);
        let prod = arith::build_binary(&mut bld, arith::MULF, a_val, b_val);
        let c_val = build_load(&mut bld, c, &[ivs[0], ivs[1]]);
        let sum = arith::build_binary(&mut bld, arith::ADDF, c_val, prod);
        build_store(&mut bld, sum, c, &[ivs[0], ivs[1]]);
        (func, a, b_buf, c)
    }

    #[test]
    fn loop_nest_profile_matches_listing1_node2() {
        let mut ctx = Context::new();
        let (func, a, b, c) = listing1_node2(&mut ctx);
        let p = profile_body(&ctx, func);

        // i, j, k: 16 iterations each. C is indexed by i and j, so only k
        // reduces.
        let dims: Vec<(i64, bool)> = p.loop_dims.iter().map(|d| (d.trip, d.reduction)).collect();
        assert_eq!(dims, vec![(16, false), (16, false), (16, true)]);
        assert_eq!(p.total_iterations(), 16 * 16 * 16);
        // Intensity of Node2 in Table 5 is 4096 = 16^3 MACs; our intensity counts
        // every scalar op (2 arith + 4 mem per iteration) so it must exceed that.
        assert_eq!(p.macs, 4096);
        assert!(p.intensity >= 4096);
        assert_eq!(p.muls_per_iter, 1);
        assert_eq!(p.adds_per_iter, 1);
        assert_eq!(p.mem_per_iter, 4);

        // Access patterns: A read with [i (stride 2), k], B read with [k, j],
        // C read+written with [i, j].
        let a_access = p.access_of(a).unwrap();
        assert_eq!(a_access.effect, MemEffect::Read);
        assert_eq!(a_access.pattern.dims, vec![Some((0, 2)), Some((2, 1))]);
        let b_access = p.access_of(b).unwrap();
        assert_eq!(b_access.pattern.dims, vec![Some((2, 1)), Some((1, 1))]);
        let c_access = p.access_of(c).unwrap();
        assert_eq!(c_access.effect, MemEffect::ReadWrite);
        assert_eq!(c_access.pattern.dims, vec![Some((0, 1)), Some((1, 1))]);
    }

    #[test]
    fn linalg_profile_reports_macs_and_patterns() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("layer", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let (_, input) = b.create(
            "test.source",
            vec![],
            vec![Type::tensor(vec![3, 32, 32], Type::i8())],
            vec![],
        );
        let conv = LinalgOp::Conv2d {
            in_channels: 3,
            out_channels: 16,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let out = build_layer(&mut b, &conv, &[input[0]], "conv1");
        let relu_out = build_layer(&mut b, &LinalgOp::Relu, &[out], "relu1");

        let p = profile_body(&ctx, func);
        assert_eq!(p.macs, 16 * 3 * 32 * 32 * 9);
        assert_eq!(p.weight_params, 16 * 3 * 9);
        // Dominant layer is the conv: 6 loop dims.
        assert_eq!(p.loop_dims.len(), 6);
        // The conv input and the relu output are recorded.
        assert!(p.access_of(input[0]).is_some());
        assert!(p.access_of(relu_out).is_some());
        assert!(p.access_of(out).is_some());
        assert_eq!(p.access_of(input[0]).unwrap().effect, MemEffect::Read);
        // `out` is written by the conv and read by the relu.
        assert_eq!(p.access_of(out).unwrap().effect, MemEffect::ReadWrite);
        assert!(p.intensity > 0);
    }

    #[test]
    fn mem_effect_merge_table() {
        assert_eq!(MemEffect::Read.merge(MemEffect::Read), MemEffect::Read);
        assert_eq!(
            MemEffect::Read.merge(MemEffect::Write),
            MemEffect::ReadWrite
        );
        assert_eq!(MemEffect::Write.merge(MemEffect::Write), MemEffect::Write);
        assert!(MemEffect::ReadWrite.reads() && MemEffect::ReadWrite.writes());
        assert!(!MemEffect::Read.writes());
        assert!(!MemEffect::Write.reads());
    }

    #[test]
    fn empty_body_produces_empty_profile() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("empty", vec![], vec![]);
        let p = profile_body(&ctx, func);
        assert_eq!(p.intensity, 0);
        assert_eq!(p.total_iterations(), 1);
        assert!(p.accesses.is_empty());
        assert!(p.loop_dims.is_empty());
    }
}
