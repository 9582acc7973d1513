//! Node-level latency, initiation-interval and resource estimation.
//!
//! The estimator mirrors the QoR model HIDA inherits from ScaleHLS (§6.5, Algorithm 4
//! line 20): for a dataflow node it derives, from the node's compute profile and the
//! micro-architectural decisions recorded on the IR (unroll factors, pipelining,
//! array partitions, buffer placement, tile sizes), the cycle count needed to process
//! one data frame, the achievable initiation interval, and the resources consumed.

use crate::device::FpgaDevice;
use crate::resource::{buffer_resources, compute_resources, Resources};
use hida_dataflow_ir::structural::{BufferOp, NodeOp};
use hida_dialects::analysis::{profile_body, ComputeProfile};
use hida_dialects::hls::{self, MemoryKind};
use hida_dialects::{loops, transforms};
use hida_ir_core::{Context, OpId, ValueId};

/// Physical description of a buffer as seen by one node. A view: the shape
/// is the type's and the partition factors are the attribute's, so resolving
/// a buffer builds nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferInfo<'a> {
    /// Elements per ping-pong stage.
    pub elements: i64,
    /// Element bit width.
    pub bits: u32,
    /// Per-dimension partition factors; `None` when the buffer was never
    /// partitioned (or is external): every factor is 1.
    pub partition_factors: Option<&'a [i64]>,
    /// Ping-pong depth.
    pub depth: i64,
    /// Physical placement.
    pub kind: MemoryKind,
    /// Buffer shape.
    pub shape: &'a [i64],
}

impl BufferInfo<'_> {
    /// Partition factor of dimension `dim` (1 when none was recorded).
    pub fn partition_factor(&self, dim: usize) -> i64 {
        self.partition_factors
            .and_then(|factors| factors.get(dim))
            .map_or(1, |&factor| factor.max(1))
    }

    /// Total partition banks.
    pub fn banks(&self) -> i64 {
        self.partition_factors
            .unwrap_or_default()
            .iter()
            .map(|&f| f.max(1))
            .product::<i64>()
            .max(1)
    }

    /// On-chip resources occupied by this buffer.
    pub fn resources(&self) -> Resources {
        buffer_resources(
            self.elements,
            self.bits,
            self.banks(),
            self.depth,
            self.kind,
        )
    }
}

/// The value a buffer-like SSA value stands for: a node body argument
/// resolves to the node operand it mirrors, anything else is itself.
fn resolve_buffer(ctx: &Context, value: ValueId) -> ValueId {
    let Some(block) = ctx.value(value).owner_block() else {
        return value;
    };
    let owner = ctx
        .block(block)
        .parent_region
        .and_then(|r| ctx.region(r).parent_op)
        .and_then(|owner| NodeOp::try_from_op(ctx, owner));
    let Some(node) = owner else { return value };
    let idx = ctx
        .block(block)
        .args
        .iter()
        .position(|&a| a == value)
        .unwrap_or(0);
    match ctx.op(node.id()).operands.get(idx) {
        Some(&operand) => resolve_buffer(ctx, operand),
        None => value,
    }
}

/// Ping-pong depth of the buffer behind `value` (1 for anything that is not
/// a `hida.buffer`): the `depth` field of [`buffer_info`], alone.
pub fn buffer_depth(ctx: &Context, value: ValueId) -> i64 {
    ctx.value(resolve_buffer(ctx, value))
        .defining_op()
        .and_then(|def| BufferOp::try_from_op(ctx, def))
        .map_or(1, |buffer| buffer.depth(ctx))
}

/// Resolves the physical description of a buffer-like SSA value: a `hida.buffer`
/// result, a `memref.alloc` result, a `hida.pack`/`hida.port` handle (external), or a
/// node body argument (resolved through the node operand it mirrors).
pub fn buffer_info(ctx: &Context, value: ValueId) -> BufferInfo<'_> {
    let value = resolve_buffer(ctx, value);
    let ty = ctx.value_type(value);
    let def = ctx.value(value).defining_op();
    let buffer = def.and_then(|def| BufferOp::try_from_op(ctx, def));
    let on_chip =
        def.filter(|&def| buffer.is_some() || ctx.op(def).is(hida_dialects::memory::ALLOC));
    // Off chip: a `hida.pack`/`hida.port` handle, or an unknown definition
    // (e.g. a function argument) — an external interface.
    BufferInfo {
        elements: ty.num_elements().unwrap_or(1),
        bits: ty.elem_bit_width().max(1),
        partition_factors: on_chip
            .and_then(|def| ctx.op(def).attr_int_array(hls::ATTR_PARTITION_FACTORS)),
        depth: buffer.map_or(1, |buffer| buffer.depth(ctx)),
        kind: on_chip.map_or(MemoryKind::External, |def| hls::get_memory_kind(ctx, def)),
        shape: ty.shape().unwrap_or_default(),
    }
}

/// QoR estimate of one dataflow node (or of any op body treated as a single task).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEstimate {
    /// Human-readable node name.
    pub name: String,
    /// Cycles to process one data frame.
    pub latency_cycles: i64,
    /// Pipeline initiation interval achieved by the innermost loop.
    pub ii: i64,
    /// Compute resources consumed by the node (buffers are charged separately).
    pub resources: Resources,
    /// Multiply-accumulate operations per frame.
    pub macs: i64,
    /// Bytes moved to/from external memory per frame.
    pub external_bytes: i64,
    /// Total parallel lanes instantiated (product of unroll factors).
    pub parallelism: i64,
}

/// Estimates the body of `op` (a `hida.node`, `hida.task`, or function).
pub fn estimate_body(ctx: &Context, op: OpId, device: &FpgaDevice) -> NodeEstimate {
    let profile = profile_body(ctx, op);
    estimate_profile(ctx, op, &profile, device)
}

/// Everything the node model reads, as one value: [`gather`] fills it from
/// the IR and [`evaluate`] reads nothing else, so two bodies with equal inputs
/// have equal estimates (names aside) whatever IR the inputs came from —
/// which is what lets [`estimate_key`](crate::shared_cache::estimate_key)
/// hash these fields instead of the IR. All exact arithmetic over the profile
/// and the IR attributes; no estimation happens before `evaluate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeModelInputs {
    /// Parallel lanes: the product of the unroll factors.
    pub total_unroll: i64,
    /// The body (or a loop in it) is pipelined.
    pub pipelined: bool,
    /// Floating-point datapath (explicit loop nests) rather than int8 layers.
    pub is_float: bool,
    /// Element bit width of the datapath.
    pub bits: u32,
    /// Trip count after unrolling (secondary loop nests folded in).
    pub trip_total: i64,
    /// Initiation interval limited by on-chip memory ports.
    pub ii: i64,
    /// Bytes moved to/from external memory per frame.
    pub external_bytes: i64,
    /// The body touches external memory.
    pub has_external: bool,
    /// Smallest tile dimension, when the body was tiled.
    pub min_tile: Option<i64>,
    /// Pipeline depth from operator latency and the unroll reduction tree.
    pub depth: i64,
    /// Address-generation DSP overhead for fine-grained external access.
    pub addr_dsp: i64,
    /// Multiply-accumulate operations per frame.
    pub macs: i64,
    /// Multiplications per innermost iteration.
    pub muls_per_iter: i64,
    /// Additions/comparisons per innermost iteration.
    pub adds_per_iter: i64,
    /// Divisions/square roots per innermost iteration.
    pub divs_per_iter: i64,
    /// Memory operations per innermost iteration.
    pub mem_per_iter: i64,
}

/// Reads the node model's inputs off `op`'s body and its compute profile.
/// Builds nothing for a body that records its unroll factors (every
/// parallelized node does): shapes, partition factors, unroll factors and
/// tile sizes are read where the IR keeps them.
pub fn gather(ctx: &Context, op: OpId, profile: &ComputeProfile) -> NodeModelInputs {
    let rank = profile.loop_dims.len();
    let unroll = transforms::unroll_factors_of(ctx, op, rank);
    let unroll_of = |loop_idx: usize| unroll.get(loop_idx).copied().unwrap_or(1).max(1);
    let total_unroll: i64 = (0..rank).map(unroll_of).product::<i64>().max(1);
    let pipelined = ctx.op(op).has_flag(transforms::ATTR_PIPELINE)
        || loops::any_loop(ctx, op, |l| l.is_pipelined(ctx));

    let is_float = false_or_float(profile);
    let bits = element_bits(profile, ctx);

    // Trip count after unrolling. Bodies containing several top-level loop nests
    // (e.g. the Vitis/SOFF sequential baselines) execute the nests back to back, so
    // the work of the secondary nests is added on top of the primary band.
    let primary_trip: i64 = profile
        .loop_dims
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let u = unroll_of(i);
            (d.trip + u - 1) / u
        })
        .product::<i64>()
        .max(1);
    let top = loops::top_level_loops(ctx, op);
    let trip_total = if top.len() > 1 {
        let total: i64 = top
            .iter()
            .map(|&outer| {
                let band = loops::loop_band(ctx, outer.id());
                loops::band_trip_count(ctx, &band)
            })
            .sum();
        (total / total_unroll.max(1)).max(primary_trip)
    } else {
        primary_trip
    };

    // Initiation interval limited by memory ports of each accessed on-chip buffer.
    let mut ii: i64 = 1;
    let mut external_bytes: i64 = 0;
    let mut has_external = false;
    let tile_sizes = transforms::tile_sizes_of(ctx, op);
    for access in &profile.accesses {
        let info = buffer_info(ctx, access.buffer);
        if info.kind == MemoryKind::External {
            has_external = true;
            // One frame moves the (tiled) working set once.
            let moved_elements = match tile_sizes {
                Some(tiles) => tiles
                    .iter()
                    .zip(info.shape.iter())
                    .map(|(&t, &s)| t.clamp(1, s))
                    .product::<i64>()
                    .max(1)
                    .max(info.elements.min(1)),
                None => info.elements,
            };
            external_bytes += moved_elements.max(info.elements.min(4096)) * (info.bits as i64) / 8;
            continue;
        }
        // Parallel accesses required on this buffer: for every buffer dimension,
        // multiply by the unroll of the loop driving that dimension.
        let mut required: i64 = 1;
        let mut served: i64 = 1;
        for (dim_idx, dim_access) in access.pattern.dims.iter().enumerate() {
            if let Some((loop_idx, _stride)) = dim_access {
                let u = unroll_of(*loop_idx);
                required *= u;
                served *= info.partition_factor(dim_idx).min(u);
            }
        }
        // Two ports per bank (true dual-port BRAM).
        let ports = served * 2;
        let buffer_ii = (required + ports - 1) / ports;
        ii = ii.max(buffer_ii.max(1));
    }

    // Pipeline depth grows with operator latency and the unroll reduction tree.
    let mut depth: i64 = 3 + (64 - (total_unroll as u64).leading_zeros() as i64).max(0);
    if is_float {
        depth += 8;
    }
    if profile.divs_per_iter > 0 {
        depth += 18;
    }

    let min_tile = tile_sizes.and_then(|t| t.iter().copied().min());

    // Address-generation DSP overhead for fine-grained external access.
    let addr_dsp = if has_external {
        match min_tile {
            Some(t) if t <= 2 => 4,
            Some(t) if t <= 4 => 2,
            Some(t) if t <= 8 => 1,
            _ => 0,
        }
    } else {
        0
    };

    NodeModelInputs {
        total_unroll,
        pipelined,
        is_float,
        bits,
        trip_total,
        ii,
        external_bytes,
        has_external,
        min_tile,
        depth,
        addr_dsp,
        macs: profile.macs,
        muls_per_iter: profile.muls_per_iter,
        adds_per_iter: profile.adds_per_iter,
        divs_per_iter: profile.divs_per_iter,
        mem_per_iter: profile.mem_per_iter,
    }
}

/// The node model proper: closed-form arithmetic over `inputs` and the
/// device. It is handed no [`Context`], so an estimate cannot depend on
/// anything [`gather`] did not put in `inputs`. The `name` is left empty —
/// it is the one field of a [`NodeEstimate`] that is not an estimate.
pub fn evaluate(inputs: &NodeModelInputs, device: &FpgaDevice) -> NodeEstimate {
    let compute_latency = if inputs.pipelined {
        inputs.ii * (inputs.trip_total - 1) + inputs.depth
    } else {
        inputs.trip_total * inputs.depth.max(2)
    };

    // External memory transfer, overlapped with compute (tile load/store hiding).
    let transfer_latency = if inputs.has_external {
        let min_tile = inputs.min_tile.unwrap_or(i64::MAX);
        // Short bursts waste bandwidth.
        let burst_efficiency = if min_tile >= 32 {
            1.0
        } else if min_tile >= 16 {
            0.85
        } else if min_tile >= 8 {
            0.6
        } else if min_tile >= 4 {
            0.35
        } else {
            0.2
        };
        let cycles = inputs.external_bytes as f64 / (device.axi_bytes_per_cycle * burst_efficiency);
        device.axi_latency + cycles.ceil() as i64
    } else {
        0
    };
    let latency = compute_latency.max(transfer_latency)
        + if inputs.has_external {
            device.axi_latency
        } else {
            0
        };

    NodeEstimate {
        name: String::new(),
        latency_cycles: latency.max(1),
        ii: inputs.ii.max(1),
        resources: compute_resources(
            inputs
                .muls_per_iter
                .max(if inputs.macs > 0 { 1 } else { 0 }),
            inputs.adds_per_iter.max(1),
            inputs.divs_per_iter,
            inputs.mem_per_iter.max(2),
            inputs.is_float,
            inputs.bits,
            inputs.total_unroll,
            inputs.addr_dsp,
        ),
        macs: inputs.macs,
        external_bytes: inputs.external_bytes,
        parallelism: inputs.total_unroll,
    }
}

/// Estimates a node given an already-extracted compute profile.
pub fn estimate_profile(
    ctx: &Context,
    op: OpId,
    profile: &ComputeProfile,
    device: &FpgaDevice,
) -> NodeEstimate {
    named(ctx, op, evaluate(&gather(ctx, op, profile), device))
}

/// `estimate` under the display name of `op`: what [`evaluate`] leaves out,
/// and what a shared cache entry — published by a body with equal inputs,
/// possibly under another name — must have replaced.
pub(crate) fn named(ctx: &Context, op: OpId, mut estimate: NodeEstimate) -> NodeEstimate {
    estimate.name = node_name(ctx, op);
    estimate
}

/// Display name of a node/task/function body, as recorded in its estimate.
fn node_name(ctx: &Context, op: OpId) -> String {
    ctx.op(op)
        .attr_str("node_name")
        .or_else(|| ctx.op(op).attr_str("task_name"))
        .or_else(|| ctx.op(op).attr_str("sym_name"))
        .map(str::to_string)
        .unwrap_or_else(|| format!("op{}", op.index()))
}

fn false_or_float(profile: &ComputeProfile) -> bool {
    // DNN layers are quantized to int8 in the accelerator; explicit loop nests from
    // PolyBench use f32. We infer "float" when MACs exist but no named layer weights
    // were recorded (named layers record weight_params).
    profile.weight_params == 0 && profile.macs > 0
}

fn element_bits(profile: &ComputeProfile, ctx: &Context) -> u32 {
    profile
        .accesses
        .first()
        .map(|a| ctx.value_type(a.buffer).elem_bit_width().max(8))
        .unwrap_or(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_dialects::arith;
    use hida_dialects::loops::build_loop_nest;
    use hida_dialects::memory::{build_alloc, build_load, build_store};
    use hida_ir_core::{OpBuilder, Type};

    /// A simple vector-add loop nest over a 1024-element buffer.
    fn vector_add(ctx: &mut Context, partition: i64, unroll: i64) -> OpId {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("vadd", vec![], vec![]);
        let body = ctx.body_block(func);
        let (a, b_val, c) = {
            let mut b = OpBuilder::at_block_end(ctx, body);
            let a = build_alloc(&mut b, Type::memref(vec![1024], Type::f32()), "A");
            let bb = build_alloc(&mut b, Type::memref(vec![1024], Type::f32()), "B");
            let c = build_alloc(&mut b, Type::memref(vec![1024], Type::f32()), "C");
            (a, bb, c)
        };
        if partition > 1 {
            for buf in [a, b_val, c] {
                let def = ctx.value(buf).defining_op().unwrap();
                hls::set_array_partition(ctx, def, &hls::ArrayPartition::cyclic(vec![partition]));
            }
        }
        let (_loops, ivs, inner) = build_loop_nest(ctx, body, &[(0, 1024, "i")]);
        let mut bld = OpBuilder::at_block_end(ctx, inner);
        let x = build_load(&mut bld, a, &[ivs[0]]);
        let y = build_load(&mut bld, b_val, &[ivs[0]]);
        let sum = arith::build_binary(&mut bld, arith::ADDF, x, y);
        build_store(&mut bld, sum, c, &[ivs[0]]);
        transforms::apply_unroll_factors(ctx, func, &[unroll]).unwrap();
        func
    }

    #[test]
    fn unrolling_with_matching_partition_keeps_ii_low() {
        let device = FpgaDevice::zu3eg();
        let mut ctx = Context::new();
        let func = vector_add(&mut ctx, 8, 8);
        let est = estimate_body(&ctx, func, &device);
        assert_eq!(est.ii, 1);
        assert_eq!(est.parallelism, 8);
        // 1024/8 = 128 pipeline iterations.
        assert!(est.latency_cycles >= 128 && est.latency_cycles < 200);
    }

    #[test]
    fn unrolling_without_partition_raises_ii_and_latency() {
        let device = FpgaDevice::zu3eg();
        let mut ctx_bad = Context::new();
        let bad = vector_add(&mut ctx_bad, 1, 8);
        let bad_est = estimate_body(&ctx_bad, bad, &device);
        let mut ctx_good = Context::new();
        let good = vector_add(&mut ctx_good, 8, 8);
        let good_est = estimate_body(&ctx_good, good, &device);
        assert!(bad_est.ii > good_est.ii);
        assert!(bad_est.latency_cycles > good_est.latency_cycles);
    }

    #[test]
    fn more_unroll_means_fewer_cycles_and_more_resources() {
        let device = FpgaDevice::zu3eg();
        let mut ctx1 = Context::new();
        let f1 = vector_add(&mut ctx1, 1, 1);
        let e1 = estimate_body(&ctx1, f1, &device);
        let mut ctx2 = Context::new();
        let f2 = vector_add(&mut ctx2, 16, 16);
        let e2 = estimate_body(&ctx2, f2, &device);
        assert!(e2.latency_cycles < e1.latency_cycles);
        assert!(e2.resources.dsp >= e1.resources.dsp);
        assert!(e2.resources.lut > e1.resources.lut);
    }

    #[test]
    fn buffer_info_resolves_allocs_and_defaults() {
        let mut ctx = Context::new();
        let func = vector_add(&mut ctx, 4, 1);
        let profile = profile_body(&ctx, func);
        let info = buffer_info(&ctx, profile.accesses[0].buffer);
        assert_eq!(info.elements, 1024);
        assert_eq!(info.bits, 32);
        assert_eq!(info.banks(), 4);
        assert_eq!(info.kind, MemoryKind::Bram);
        assert!(info.resources().bram_18k > 0);
    }

    #[test]
    fn estimate_reports_macs_for_mac_kernels() {
        let device = FpgaDevice::zu3eg();
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("mm", vec![], vec![]);
        let body = ctx.body_block(func);
        let (a, c) = {
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            let a = build_alloc(&mut b, Type::memref(vec![64, 64], Type::f32()), "A");
            let c = build_alloc(&mut b, Type::memref(vec![64, 64], Type::f32()), "C");
            (a, c)
        };
        let (_l, ivs, inner) = build_loop_nest(&mut ctx, body, &[(0, 64, "i"), (0, 64, "j")]);
        let mut bld = OpBuilder::at_block_end(&mut ctx, inner);
        let x = build_load(&mut bld, a, &[ivs[0], ivs[1]]);
        let prod = arith::build_binary(&mut bld, arith::MULF, x, x);
        build_store(&mut bld, prod, c, &[ivs[0], ivs[1]]);
        let est = estimate_body(&ctx, func, &device);
        assert_eq!(est.macs, 64 * 64);
        assert!(est.latency_cycles > 0);
    }
}
