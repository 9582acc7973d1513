//! Structural dataflow operations: `hida.schedule`, `hida.node`, `hida.buffer`,
//! `hida.stream` (paper §5.2, Figure 4).
//!
//! Unlike the Functional level, `schedule` and `node` regions are *isolated from
//! above*: every external value must be passed in as an argument, and `node` carries
//! an explicit memory effect for each argument. This is what lets HIDA-OPT partition
//! the dataflow optimization problem into local intra-node problems plus one global
//! inter-node problem.

use crate::op_names;
use hida_dialects::analysis::MemEffect;
use hida_dialects::hls;
use hida_ir_core::{Attribute, BlockId, Context, OpBuilder, OpId, Type, ValueId};

/// Typed view over a `hida.buffer` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferOp(pub OpId);

/// Typed view over a `hida.stream` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamOp(pub OpId);

/// Typed view over a `hida.node` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeOp(pub OpId);

/// Typed view over a `hida.schedule` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleOp(pub OpId);

fn effect_to_str(effect: MemEffect) -> &'static str {
    match effect {
        MemEffect::Read => "read",
        MemEffect::Write => "write",
        MemEffect::ReadWrite => "readwrite",
    }
}

pub(crate) fn effect_from_str(s: &str) -> MemEffect {
    match s {
        "read" => MemEffect::Read,
        "write" => MemEffect::Write,
        _ => MemEffect::ReadWrite,
    }
}

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

impl BufferOp {
    /// Wraps `op` if it is a `hida.buffer`.
    pub fn try_from_op(ctx: &Context, op: OpId) -> Option<BufferOp> {
        if ctx.op(op).is(op_names::BUFFER) {
            Some(BufferOp(op))
        } else {
            None
        }
    }

    /// The underlying operation id.
    pub fn id(self) -> OpId {
        self.0
    }

    /// The buffer SSA value.
    pub fn value(self, ctx: &Context) -> ValueId {
        ctx.op(self.0).results[0]
    }

    /// Number of ping-pong stages (depth). A depth of 2 or more enables the automatic
    /// ping-pong buffering semantics of §5.2.
    pub fn depth(self, ctx: &Context) -> i64 {
        ctx.op(self.0).attr_int("depth").unwrap_or(2).max(1)
    }

    /// Sets the number of ping-pong stages.
    pub fn set_depth(self, ctx: &mut Context, depth: i64) {
        ctx.set_attr(self.0, "depth", depth.max(1));
    }

    /// Returns true when the buffer has ping-pong (>= 2 stage) semantics.
    pub fn is_ping_pong(self, ctx: &Context) -> bool {
        self.depth(ctx) >= 2
    }

    /// Shape of the buffer.
    pub fn shape(self, ctx: &Context) -> Vec<i64> {
        ctx.value_type(self.value(ctx))
            .shape()
            .map(|s| s.to_vec())
            .unwrap_or_default()
    }

    /// Total scalar elements per stage.
    pub fn num_elements(self, ctx: &Context) -> i64 {
        ctx.value_type(self.value(ctx)).num_elements().unwrap_or(0)
    }

    /// Element bit width.
    pub fn elem_bits(self, ctx: &Context) -> u32 {
        ctx.value_type(self.value(ctx)).elem_bit_width()
    }

    /// Buffer name for diagnostics.
    pub fn name(self, ctx: &Context) -> String {
        ctx.op(self.0)
            .attr_str("buffer_name")
            .map(str::to_string)
            .unwrap_or_else(|| format!("buf{}", self.0.index()))
    }

    /// Array-partition directive of this buffer.
    pub fn partition(self, ctx: &Context) -> hls::ArrayPartition {
        hls::get_array_partition(ctx, self.0, self.shape(ctx).len())
    }

    /// Sets the array-partition directive of this buffer.
    pub fn set_partition(self, ctx: &mut Context, partition: &hls::ArrayPartition) {
        hls::set_array_partition(ctx, self.0, partition);
    }

    /// Memory placement (BRAM / URAM / LUTRAM / external).
    pub fn memory_kind(self, ctx: &Context) -> hls::MemoryKind {
        hls::get_memory_kind(ctx, self.0)
    }

    /// Sets the memory placement.
    pub fn set_memory_kind(self, ctx: &mut Context, kind: hls::MemoryKind) {
        hls::set_memory_kind(ctx, self.0, kind);
    }
}

/// Creates a `hida.buffer` with the given memref type and ping-pong depth.
pub fn build_buffer(
    builder: &mut OpBuilder<'_>,
    ty: Type,
    depth: i64,
    name: &str,
) -> (BufferOp, ValueId) {
    assert!(ty.is_memref(), "hida.buffer requires a memref type");
    // The attribute and the name hint share one string.
    let name: std::sync::Arc<str> = name.into();
    let (op, results) = builder.create(
        op_names::BUFFER,
        vec![],
        vec![ty],
        vec![
            ("depth", Attribute::Int(depth.max(1))),
            ("buffer_name", Attribute::Str(name.clone())),
        ],
    );
    builder.context().set_name_hint(results[0], name);
    (BufferOp(op), results[0])
}

// ---------------------------------------------------------------------------
// Stream
// ---------------------------------------------------------------------------

impl StreamOp {
    /// Wraps `op` if it is a `hida.stream`.
    pub fn try_from_op(ctx: &Context, op: OpId) -> Option<StreamOp> {
        if ctx.op(op).is(op_names::STREAM) {
            Some(StreamOp(op))
        } else {
            None
        }
    }

    /// The stream SSA value.
    pub fn value(self, ctx: &Context) -> ValueId {
        ctx.op(self.0).results[0]
    }

    /// Number of in-flight entries buffered by the channel.
    pub fn depth(self, ctx: &Context) -> i64 {
        match ctx.value_type(self.value(ctx)) {
            Type::Stream { depth, .. } => *depth,
            _ => 1,
        }
    }
}

/// Creates a `hida.stream` channel holding `depth` elements of type `elem`.
pub fn build_stream(
    builder: &mut OpBuilder<'_>,
    elem: Type,
    depth: i64,
    name: &str,
) -> (StreamOp, ValueId) {
    let ty = Type::stream(elem, depth.max(1));
    // The attribute and the name hint share one string.
    let name: std::sync::Arc<str> = name.into();
    let (op, results) = builder.create(
        op_names::STREAM,
        vec![],
        vec![ty],
        vec![("stream_name", Attribute::Str(name.clone()))],
    );
    builder.context().set_name_hint(results[0], name);
    (StreamOp(op), results[0])
}

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

impl NodeOp {
    /// Wraps `op` if it is a `hida.node`.
    pub fn try_from_op(ctx: &Context, op: OpId) -> Option<NodeOp> {
        if ctx.op(op).is(op_names::NODE) {
            Some(NodeOp(op))
        } else {
            None
        }
    }

    /// The underlying operation id.
    pub fn id(self) -> OpId {
        self.0
    }

    /// Node name for diagnostics.
    pub fn name(self, ctx: &Context) -> String {
        ctx.op(self.0)
            .attr_str("node_name")
            .map(str::to_string)
            .unwrap_or_else(|| format!("node{}", self.0.index()))
    }

    /// Sets the node name.
    pub fn set_name(self, ctx: &mut Context, name: &str) {
        ctx.set_attr(self.0, "node_name", name);
    }

    /// The node's body block.
    pub fn body(self, ctx: &Context) -> BlockId {
        ctx.body_block(self.0)
    }

    /// Buffer/stream operands of the node.
    pub fn operands(self, ctx: &Context) -> Vec<ValueId> {
        ctx.op(self.0).operands.to_vec()
    }

    /// Per-operand memory effects.
    pub fn effects(self, ctx: &Context) -> Vec<MemEffect> {
        ctx.op(self.0)
            .attributes
            .get("effects")
            .and_then(Attribute::as_str_array)
            .map(|v| v.iter().map(|s| effect_from_str(s)).collect())
            .unwrap_or_else(|| vec![MemEffect::ReadWrite; ctx.op(self.0).operands.len()])
    }

    /// The memory effect this node has on `value`, if `value` is one of its operands.
    pub fn effect_on(self, ctx: &Context, value: ValueId) -> Option<MemEffect> {
        let idx = ctx.op(self.0).operands.iter().position(|&o| o == value)?;
        self.effects(ctx).get(idx).copied()
    }

    /// Returns true when the node writes to `value`.
    pub fn writes(self, ctx: &Context, value: ValueId) -> bool {
        self.effect_on(ctx, value)
            .map(|e| e.writes())
            .unwrap_or(false)
    }

    /// Returns true when the node reads from `value`.
    pub fn reads(self, ctx: &Context, value: ValueId) -> bool {
        self.effect_on(ctx, value)
            .map(|e| e.reads())
            .unwrap_or(false)
    }

    /// Block arguments of the node body (one per operand).
    pub fn body_args(self, ctx: &Context) -> Vec<ValueId> {
        ctx.block(self.body(ctx)).args.to_vec()
    }

    /// Appends a new operand with the given effect and returns the matching body arg.
    pub fn add_operand(self, ctx: &mut Context, value: ValueId, effect: MemEffect) -> ValueId {
        ctx.add_operand(self.0, value);
        let effects = ctx
            .op(self.0)
            .attributes
            .get("effects")
            .and_then(Attribute::as_str_array)
            .unwrap_or_default();
        let effects = effects
            .iter()
            .cloned()
            .chain(std::iter::once(effect_to_str(effect).into()))
            .collect();
        ctx.set_attr(self.0, "effects", Attribute::StrArray(effects));
        let ty = ctx.value_type(value).clone();
        let body = self.body(ctx);

        ctx.add_block_arg(body, ty)
    }

    /// Overwrites the effect of the operand at `index`.
    pub fn set_effect(self, ctx: &mut Context, index: usize, effect: MemEffect) {
        let mut effects = self.effects(ctx);
        if index < effects.len() {
            effects[index] = effect;
            let effects = effects.iter().map(|e| effect_to_str(*e).into()).collect();
            ctx.set_attr(self.0, "effects", Attribute::StrArray(effects));
        }
    }

    /// Replaces the operand at `index` with `new_value` (same effect, same body arg).
    pub fn replace_operand(self, ctx: &mut Context, index: usize, new_value: ValueId) {
        ctx.set_operand(self.0, index, new_value);
    }
}

/// Creates a `hida.node` with the given operands and per-operand effects, appended to
/// `block`. The body gets one block argument per operand with the operand's type.
/// Returns the node and its body block arguments.
pub fn build_node(
    ctx: &mut Context,
    block: BlockId,
    name: &str,
    operands: &[(ValueId, MemEffect)],
) -> (NodeOp, Vec<ValueId>) {
    let mut op = hida_ir_core::Operation::new(op_names::NODE);
    op.operands = operands.iter().map(|(v, _)| *v).collect();
    op.isolated = true;
    op.set_attr("node_name", name);
    op.set_attr(
        "effects",
        Attribute::StrArray(
            operands
                .iter()
                .map(|(_, e)| effect_to_str(*e).into())
                .collect(),
        ),
    );
    let id = ctx.create_op(op);
    // Register operand uses explicitly (create_op already did) and attach region.
    let region = ctx.create_region(id);
    let body = ctx.create_block(region);
    let mut args = Vec::new();
    for (v, _) in operands {
        let ty = ctx.value_type(*v).clone();
        let arg = ctx.add_block_arg(body, ty);
        args.push(arg);
    }
    ctx.append_op(block, id);
    (NodeOp(id), args)
}

// ---------------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------------

impl ScheduleOp {
    /// Wraps `op` if it is a `hida.schedule`.
    pub fn try_from_op(ctx: &Context, op: OpId) -> Option<ScheduleOp> {
        if ctx.op(op).is(op_names::SCHEDULE) {
            Some(ScheduleOp(op))
        } else {
            None
        }
    }

    /// The underlying operation id.
    pub fn id(self) -> OpId {
        self.0
    }

    /// The schedule's body block.
    pub fn body(self, ctx: &Context) -> BlockId {
        ctx.body_block(self.0)
    }

    /// Nodes directly nested in this schedule, in program order.
    pub fn nodes(self, ctx: &Context) -> Vec<NodeOp> {
        ctx.body_ops(self.0)
            .into_iter()
            .filter(|&o| ctx.op(o).is(op_names::NODE))
            .map(NodeOp)
            .collect()
    }

    /// Buffers declared directly in this schedule ("internal buffers" of Alg. 3).
    pub fn internal_buffers(self, ctx: &Context) -> Vec<BufferOp> {
        ctx.body_ops(self.0)
            .into_iter()
            .filter(|&o| ctx.op(o).is(op_names::BUFFER))
            .map(BufferOp)
            .collect()
    }

    /// Buffer/stream values used by this schedule's nodes but defined outside the
    /// schedule ("external buffers" of Alg. 3): the schedule's block arguments plus
    /// any live-in values.
    pub fn external_buffers(self, ctx: &Context) -> Vec<ValueId> {
        let mut out: Vec<ValueId> = ctx.block(self.body(ctx)).args.to_vec();
        for v in ctx.live_ins(self.0) {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Nodes writing to `buffer` (the producers of Algorithm 3), in program order.
    pub fn producers_of(self, ctx: &Context, buffer: ValueId) -> Vec<NodeOp> {
        self.nodes(ctx)
            .into_iter()
            .filter(|n| n.writes(ctx, buffer))
            .collect()
    }

    /// Nodes reading from `buffer`, in program order.
    pub fn consumers_of(self, ctx: &Context, buffer: ValueId) -> Vec<NodeOp> {
        self.nodes(ctx)
            .into_iter()
            .filter(|n| n.reads(ctx, buffer))
            .collect()
    }
}

/// Creates an empty `hida.schedule` at the builder's insertion point.
pub fn build_schedule(builder: &mut OpBuilder<'_>, name: &str) -> (ScheduleOp, BlockId) {
    let (op, body, _) = builder.create_with_body(
        op_names::SCHEDULE,
        vec![],
        vec![],
        vec![("schedule_name", Attribute::from(name))],
        true,
    );
    (ScheduleOp(op), body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_fixture(ctx: &mut Context) -> (ScheduleOp, BlockId) {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(ctx, func);
        build_schedule(&mut b, "top")
    }

    #[test]
    fn buffer_attributes_and_ping_pong_semantics() {
        let mut ctx = Context::new();
        let (_, body) = schedule_fixture(&mut ctx);
        let (buf, value) = {
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            build_buffer(&mut b, Type::memref(vec![64, 64], Type::i8()), 3, "act0")
        };
        assert_eq!(buf.depth(&ctx), 3);
        assert!(buf.is_ping_pong(&ctx));
        assert_eq!(buf.shape(&ctx), vec![64, 64]);
        assert_eq!(buf.num_elements(&ctx), 4096);
        assert_eq!(buf.elem_bits(&ctx), 8);
        assert_eq!(buf.name(&ctx), "act0");
        assert_eq!(buf.value(&ctx), value);
        buf.set_depth(&mut ctx, 1);
        assert!(!buf.is_ping_pong(&ctx));

        let p = hls::ArrayPartition::cyclic(vec![4, 4]);
        buf.set_partition(&mut ctx, &p);
        assert_eq!(buf.partition(&ctx), p);
        assert_eq!(buf.memory_kind(&ctx), hls::MemoryKind::Bram);
        buf.set_memory_kind(&mut ctx, hls::MemoryKind::External);
        assert_eq!(buf.memory_kind(&ctx), hls::MemoryKind::External);
    }

    #[test]
    fn stream_depth_from_type() {
        let mut ctx = Context::new();
        let (_, body) = schedule_fixture(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let (stream, value) = build_stream(&mut b, Type::i1(), 3, "tok");
        assert_eq!(stream.depth(&ctx), 3);
        assert!(ctx.value_type(value).is_stream());
    }

    #[test]
    fn node_effects_and_args() {
        let mut ctx = Context::new();
        let (schedule, body) = schedule_fixture(&mut ctx);
        let (buf_a, a) = {
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            build_buffer(&mut b, Type::memref(vec![16], Type::f32()), 2, "A")
        };
        let (_buf_b, bval) = {
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            build_buffer(&mut b, Type::memref(vec![16], Type::f32()), 2, "B")
        };
        let (node, args) = build_node(
            &mut ctx,
            body,
            "compute",
            &[(a, MemEffect::Read), (bval, MemEffect::Write)],
        );
        assert_eq!(node.name(&ctx), "compute");
        assert_eq!(args.len(), 2);
        assert_eq!(node.effects(&ctx), vec![MemEffect::Read, MemEffect::Write]);
        assert!(node.reads(&ctx, a));
        assert!(!node.writes(&ctx, a));
        assert!(node.writes(&ctx, bval));
        assert_eq!(node.effect_on(&ctx, bval), Some(MemEffect::Write));
        assert_eq!(
            ctx.value_type(args[0]),
            &Type::memref(vec![16], Type::f32())
        );

        // Schedule-level queries.
        assert_eq!(schedule.nodes(&ctx).len(), 1);
        assert_eq!(schedule.internal_buffers(&ctx).len(), 2);
        assert_eq!(schedule.producers_of(&ctx, bval), vec![node]);
        assert_eq!(schedule.consumers_of(&ctx, a), vec![node]);
        assert!(schedule.producers_of(&ctx, a).is_empty());
        assert_eq!(buf_a.value(&ctx), a);
    }

    #[test]
    fn node_add_operand_and_set_effect() {
        let mut ctx = Context::new();
        let (_, body) = schedule_fixture(&mut ctx);
        let (_, a) = {
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            build_buffer(&mut b, Type::memref(vec![8], Type::i8()), 2, "A")
        };
        let (_, c) = {
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            build_buffer(&mut b, Type::memref(vec![8], Type::i8()), 2, "C")
        };
        let (node, _) = build_node(&mut ctx, body, "n", &[(a, MemEffect::ReadWrite)]);
        let new_arg = node.add_operand(&mut ctx, c, MemEffect::Write);
        assert_eq!(node.operands(&ctx), vec![a, c]);
        assert_eq!(
            node.effects(&ctx),
            vec![MemEffect::ReadWrite, MemEffect::Write]
        );
        assert_eq!(node.body_args(&ctx).len(), 2);
        assert_eq!(node.body_args(&ctx)[1], new_arg);

        node.set_effect(&mut ctx, 0, MemEffect::Read);
        assert_eq!(node.effect_on(&ctx, a), Some(MemEffect::Read));
    }

    #[test]
    fn external_buffers_include_schedule_args_and_live_ins() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        // A buffer defined at function scope, outside the schedule.
        let ext = {
            let mut b = OpBuilder::at_end_of(&mut ctx, func);
            let (_, v) = build_buffer(&mut b, Type::memref(vec![4], Type::i8()), 2, "ext");
            v
        };
        let (schedule, body) = {
            let mut b = OpBuilder::at_end_of(&mut ctx, func);
            build_schedule(&mut b, "s")
        };
        build_node(&mut ctx, body, "n", &[(ext, MemEffect::Write)]);
        let externals = schedule.external_buffers(&ctx);
        assert!(externals.contains(&ext));
        assert!(schedule.internal_buffers(&ctx).is_empty());
    }

    #[test]
    #[should_panic(expected = "hida.buffer requires a memref type")]
    fn buffer_rejects_tensor_types() {
        let mut ctx = Context::new();
        let (_, body) = schedule_fixture(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        build_buffer(&mut b, Type::tensor(vec![4], Type::i8()), 2, "bad");
    }
}
