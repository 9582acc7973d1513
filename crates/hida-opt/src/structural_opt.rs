//! Structural dataflow optimization (paper §6.4).
//!
//! Two transformations make the schedule amenable to pipelined dataflow execution:
//!
//! * **Multi-producer elimination** (Algorithm 3): an internal buffer written by
//!   several nodes serialises the dataflow. Later producers get a duplicate of the
//!   buffer (plus an explicit copy when they also read the original); producers of
//!   *external* buffers are conservatively fused into a single node instead.
//! * **Data-path balancing**: when reconvergent paths have different lengths
//!   (e.g. ResNet shortcuts), buffers on the short path are deepened (on-chip buffer
//!   duplication) or, when too large to replicate on chip, turned into soft FIFOs in
//!   external memory with an elastic token flow maintaining execution order.

use hida_dataflow_ir::graph::DataflowGraph;
use hida_dataflow_ir::interface::{build_token_pop, build_token_push};
use hida_dataflow_ir::structural::{build_node, build_stream, BufferOp, NodeOp, ScheduleOp};
use hida_dialects::analysis::MemEffect;
use hida_dialects::hls::MemoryKind;
use hida_ir_core::{AnalysisManager, Context, IrResult, OpBuilder, OpId, Type, ValueId};

/// Eliminates buffers with multiple producer nodes (Algorithm 3).
///
/// # Errors
/// Currently infallible; the `Result` keeps the pass signature uniform.
pub fn eliminate_multi_producers(ctx: &mut Context, schedule: ScheduleOp) -> IrResult<()> {
    // Internal buffers: duplicate for every producer after the first.
    for buffer in schedule.internal_buffers(ctx) {
        let value = buffer.value(ctx);
        let producers = schedule.producers_of(ctx, value);
        if producers.len() <= 1 {
            continue;
        }
        // Producers are already in program order (dominance order in a single block).
        for &producer in producers.iter().skip(1) {
            duplicate_buffer_for(ctx, schedule, buffer, producer);
        }
    }
    // External buffers: merge all producers into one node to avoid data races.
    for external in schedule.external_buffers(ctx) {
        let producers = schedule.producers_of(ctx, external);
        if producers.len() > 1 {
            fuse_nodes(ctx, schedule, &producers);
        }
    }
    Ok(())
}

/// Clones `buffer` into a fresh buffer used by `producer` and every node dominated by
/// it, inserting an explicit copy node when the producer also reads the original.
fn duplicate_buffer_for(
    ctx: &mut Context,
    schedule: ScheduleOp,
    buffer: BufferOp,
    producer: NodeOp,
) {
    let original = buffer.value(ctx);
    // Clone the buffer op right after the original.
    let mut mapping = hida_ir_core::context::ValueMapping::new();
    let clone = ctx.clone_op(buffer.id(), &mut mapping);
    ctx.move_op_after(clone, buffer.id());
    let new_name = format!("{}_dup", buffer.name(ctx));
    ctx.set_attr(clone, "buffer_name", new_name);
    let new_value = ctx.op(clone).results[0];

    let reads_original = producer.reads(ctx, original);

    // Rewire: the producer and every node it dominates now use the duplicate.
    for node in schedule.nodes(ctx) {
        if ctx.dominates(producer.id(), node.id()) {
            let operands = node.operands(ctx);
            for (idx, operand) in operands.iter().enumerate() {
                if *operand == original {
                    node.replace_operand(ctx, idx, new_value);
                }
            }
        }
    }

    // If the producer read the original buffer, copy the original into the duplicate
    // before the producer runs (Figure 7(b): explicit memory copy).
    if reads_original {
        let copy_name = format!("copy_{}", buffer.name(ctx));
        let body = schedule.body(ctx);
        let (copy_node, args) = build_node(
            ctx,
            body,
            &copy_name,
            &[(original, MemEffect::Read), (new_value, MemEffect::Write)],
        );
        ctx.move_op_before(copy_node.id(), producer.id());
        let copy_body = copy_node.body(ctx);
        let mut b = OpBuilder::at_block_end(ctx, copy_body);
        hida_dialects::memory::build_copy(&mut b, args[0], args[1]);
    }
}

/// Fuses several nodes of a schedule into one node executing their bodies
/// sequentially (Figure 7(d)). Returns the fused node.
pub fn fuse_nodes(ctx: &mut Context, schedule: ScheduleOp, nodes: &[NodeOp]) -> NodeOp {
    assert!(!nodes.is_empty(), "fuse_nodes needs at least one node");
    // Union of operands with merged effects.
    let mut operands: Vec<(ValueId, MemEffect)> = Vec::new();
    for node in nodes {
        for (operand, effect) in node.operands(ctx).into_iter().zip(node.effects(ctx)) {
            if let Some(entry) = operands.iter_mut().find(|(v, _)| *v == operand) {
                entry.1 = entry.1.merge(effect);
            } else {
                operands.push((operand, effect));
            }
        }
    }
    let fused_name = nodes
        .iter()
        .map(|n| n.name(ctx))
        .collect::<Vec<_>>()
        .join("+");
    let body = schedule.body(ctx);
    let (fused, args) = build_node(ctx, body, &fused_name, &operands);
    ctx.move_op_before(fused.id(), nodes[0].id());
    let fused_body = fused.body(ctx);

    // Clone each node's body into the fused node, mapping old block args to the
    // fused node's args for the same buffer.
    for node in nodes {
        let mut mapping = hida_ir_core::context::ValueMapping::new();
        let old_args = node.body_args(ctx);
        let old_operands = node.operands(ctx);
        for (arg, operand) in old_args.iter().zip(&old_operands) {
            let pos = operands.iter().position(|(v, _)| v == operand).unwrap();
            mapping.map(*arg, args[pos]);
        }
        for op in ctx.body_ops(node.id()) {
            let cloned = ctx.clone_op(op, &mut mapping);
            ctx.append_op(fused_body, cloned);
        }
    }
    for node in nodes {
        ctx.erase_op(node.id());
    }
    fused
}

/// Balances reconvergent data paths (paper §6.4.2).
///
/// For every unbalanced edge, the buffer on the short path is either deepened
/// on chip (buffer duplication) or, when a single stage exceeds
/// `external_threshold_bytes`, converted into a soft FIFO in external memory with a
/// token stream inserted between the producer and the consumer to preserve order.
///
/// # Errors
/// Currently infallible; the `Result` keeps the pass signature uniform.
pub fn balance_data_paths(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
    external_threshold_bytes: i64,
) -> IrResult<()> {
    let graph = analyses.get::<DataflowGraph>(ctx, schedule.id());
    for (edge, imbalance) in graph.unbalanced_edges() {
        let required_depth = imbalance as i64 + 1;
        let buffer_op = match ctx.value(edge.buffer).defining_op() {
            Some(op) => match BufferOp::try_from_op(ctx, op) {
                Some(b) => b,
                None => continue,
            },
            None => continue,
        };
        let bytes_per_stage = buffer_op.num_elements(ctx) * buffer_op.elem_bits(ctx) as i64 / 8;
        if bytes_per_stage * required_depth <= external_threshold_bytes {
            // On-chip duplication: deepen the ping-pong buffer so `required_depth`
            // frames can be in flight.
            if buffer_op.depth(ctx) < required_depth {
                buffer_op.set_depth(ctx, required_depth);
            }
        } else {
            // Soft FIFO in external memory plus an elastic token flow.
            buffer_op.set_memory_kind(ctx, MemoryKind::External);
            buffer_op.set_depth(ctx, required_depth);
            insert_token_flow(ctx, schedule, edge.producer, edge.consumer, required_depth);
        }
    }
    Ok(())
}

/// Inserts a token stream between two nodes: the producer pushes a token when it
/// finishes a frame, the consumer pops it before starting (elastic node execution).
fn insert_token_flow(
    ctx: &mut Context,
    schedule: ScheduleOp,
    producer: NodeOp,
    consumer: NodeOp,
    depth: i64,
) -> ValueId {
    let body = schedule.body(ctx);
    let token = {
        let mut b = OpBuilder::at_block_index(ctx, body, 0);
        build_stream(&mut b, Type::i1(), depth.max(1), "token").1
    };
    let producer_arg = producer.add_operand(ctx, token, MemEffect::Write);
    let consumer_arg = consumer.add_operand(ctx, token, MemEffect::Read);
    {
        let producer_body = producer.body(ctx);
        let mut b = OpBuilder::at_block_end(ctx, producer_body);
        build_token_push(&mut b, producer_arg);
    }
    {
        let consumer_body = consumer.body(ctx);
        let mut b = OpBuilder::at_block_index(ctx, consumer_body, 0);
        build_token_pop(&mut b, consumer_arg);
    }
    token
}

/// Convenience wrapper returning the op ids of all copy nodes introduced by
/// multi-producer elimination (used by tests and reports).
pub fn copy_nodes(ctx: &Context, schedule: ScheduleOp) -> Vec<OpId> {
    schedule
        .nodes(ctx)
        .into_iter()
        .filter(|n| n.name(ctx).starts_with("copy_"))
        .map(|n| n.id())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_dataflow_ir::structural::{build_buffer, build_schedule};
    use hida_ir_core::Type;

    fn schedule_fixture(ctx: &mut Context) -> (OpId, ScheduleOp, hida_ir_core::BlockId) {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let (schedule, body) = {
            let mut b = OpBuilder::at_end_of(ctx, module);
            let _ = &mut b; // silence unused in case of reordering
            let mut b = OpBuilder::at_end_of(ctx, func);
            build_schedule(&mut b, "s")
        };
        (module, schedule, body)
    }

    fn buffer(ctx: &mut Context, body: hida_ir_core::BlockId, name: &str, n: i64) -> ValueId {
        let mut b = OpBuilder::at_block_end(ctx, body);
        build_buffer(&mut b, Type::memref(vec![n], Type::i8()), 2, name).1
    }

    #[test]
    fn internal_multi_producer_is_resolved_by_duplication() {
        // Figure 7(a): Node1 reads and writes Buf2, Node2 also writes Buf2.
        let mut ctx = Context::new();
        let (module, schedule, body) = schedule_fixture(&mut ctx);
        let buf1 = buffer(&mut ctx, body, "buf1", 64);
        let buf2 = buffer(&mut ctx, body, "buf2", 64);
        let (_n1, _) = build_node(
            &mut ctx,
            body,
            "node1",
            &[(buf1, MemEffect::Read), (buf2, MemEffect::ReadWrite)],
        );
        let (n2, _) = build_node(
            &mut ctx,
            body,
            "node2",
            &[(buf1, MemEffect::Read), (buf2, MemEffect::Write)],
        );
        assert_eq!(schedule.producers_of(&ctx, buf2).len(), 2);

        eliminate_multi_producers(&mut ctx, schedule).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();

        // Now exactly one producer remains for the original buffer, and node2 writes
        // a duplicate instead.
        assert_eq!(schedule.producers_of(&ctx, buf2).len(), 1);
        let n2_operands = n2.operands(&ctx);
        assert!(!n2_operands.contains(&buf2));
        assert_eq!(schedule.internal_buffers(&ctx).len(), 3);
        // node2 only wrote buf2 (no read), so no copy node is needed.
        assert!(copy_nodes(&ctx, schedule).is_empty());
    }

    #[test]
    fn read_write_producer_gets_an_explicit_copy_node() {
        let mut ctx = Context::new();
        let (module, schedule, body) = schedule_fixture(&mut ctx);
        let buf = buffer(&mut ctx, body, "buf", 64);
        let (_n1, _) = build_node(&mut ctx, body, "node1", &[(buf, MemEffect::Write)]);
        let (n2, _) = build_node(&mut ctx, body, "node2", &[(buf, MemEffect::ReadWrite)]);
        eliminate_multi_producers(&mut ctx, schedule).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();

        let copies = copy_nodes(&ctx, schedule);
        assert_eq!(
            copies.len(),
            1,
            "the read-write producer needs a copy of the original data"
        );
        // The copy node precedes node2 in program order.
        let nodes = schedule.nodes(&ctx);
        let copy_pos = nodes.iter().position(|n| n.id() == copies[0]).unwrap();
        let n2_pos = nodes.iter().position(|n| *n == n2).unwrap();
        assert!(copy_pos < n2_pos);
    }

    #[test]
    fn external_multi_producers_are_fused_into_one_node() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        // The external buffer lives at the function level, outside the schedule.
        let ext = {
            let mut b = OpBuilder::at_end_of(&mut ctx, func);
            build_buffer(&mut b, Type::memref(vec![64], Type::i8()), 2, "ext").1
        };
        let (schedule, body) = {
            let mut b = OpBuilder::at_end_of(&mut ctx, func);
            build_schedule(&mut b, "s")
        };
        build_node(&mut ctx, body, "w1", &[(ext, MemEffect::Write)]);
        build_node(&mut ctx, body, "w2", &[(ext, MemEffect::Write)]);
        assert_eq!(schedule.nodes(&ctx).len(), 2);
        eliminate_multi_producers(&mut ctx, schedule).unwrap();
        let nodes = schedule.nodes(&ctx);
        assert_eq!(
            nodes.len(),
            1,
            "producers of an external buffer must be merged"
        );
        assert_eq!(nodes[0].name(&ctx), "w1+w2");
        assert_eq!(schedule.producers_of(&ctx, ext).len(), 1);
    }

    #[test]
    fn small_shortcut_buffers_are_deepened_on_chip() {
        let mut ctx = Context::new();
        let (module, schedule, body) = schedule_fixture(&mut ctx);
        let b_in = buffer(&mut ctx, body, "in", 128);
        let b_mid = buffer(&mut ctx, body, "mid", 128);
        let b_mid2 = buffer(&mut ctx, body, "mid2", 128);
        let b_skip = buffer(&mut ctx, body, "skip", 128);
        let b_out = buffer(&mut ctx, body, "out", 128);
        build_node(
            &mut ctx,
            body,
            "n0",
            &[
                (b_in, MemEffect::Read),
                (b_mid, MemEffect::Write),
                (b_skip, MemEffect::Write),
            ],
        );
        build_node(
            &mut ctx,
            body,
            "n1",
            &[(b_mid, MemEffect::Read), (b_mid2, MemEffect::Write)],
        );
        build_node(
            &mut ctx,
            body,
            "n2",
            &[
                (b_mid2, MemEffect::Read),
                (b_skip, MemEffect::Read),
                (b_out, MemEffect::Write),
            ],
        );
        balance_data_paths(&mut ctx, &mut AnalysisManager::new(), schedule, 1 << 20).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        let skip_op =
            BufferOp::try_from_op(&ctx, ctx.value(b_skip).defining_op().unwrap()).unwrap();
        assert!(skip_op.depth(&ctx) >= 2);
        assert_eq!(skip_op.memory_kind(&ctx), MemoryKind::Bram);
    }

    #[test]
    fn large_shortcut_buffers_become_soft_fifos_with_tokens() {
        let mut ctx = Context::new();
        let (module, schedule, body) = schedule_fixture(&mut ctx);
        let b_in = buffer(&mut ctx, body, "in", 1 << 16);
        let b_mid = buffer(&mut ctx, body, "mid", 1 << 16);
        let b_mid2 = buffer(&mut ctx, body, "mid2", 1 << 16);
        let b_skip = buffer(&mut ctx, body, "skip", 1 << 16);
        let b_out = buffer(&mut ctx, body, "out", 1 << 16);
        let (n0, _) = build_node(
            &mut ctx,
            body,
            "n0",
            &[
                (b_in, MemEffect::Read),
                (b_mid, MemEffect::Write),
                (b_skip, MemEffect::Write),
            ],
        );
        build_node(
            &mut ctx,
            body,
            "n1",
            &[(b_mid, MemEffect::Read), (b_mid2, MemEffect::Write)],
        );
        let (n2, _) = build_node(
            &mut ctx,
            body,
            "n2",
            &[
                (b_mid2, MemEffect::Read),
                (b_skip, MemEffect::Read),
                (b_out, MemEffect::Write),
            ],
        );
        // Threshold far below the 64 KiB skip buffer -> soft FIFO.
        balance_data_paths(&mut ctx, &mut AnalysisManager::new(), schedule, 1024).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        let skip_op =
            BufferOp::try_from_op(&ctx, ctx.value(b_skip).defining_op().unwrap()).unwrap();
        assert_eq!(skip_op.memory_kind(&ctx), MemoryKind::External);
        // Token flow: the producer pushes, the consumer pops.
        assert_eq!(
            ctx.collect_ops(n0.id(), hida_dataflow_ir::op_names::TOKEN_PUSH)
                .len(),
            1
        );
        assert_eq!(
            ctx.collect_ops(n2.id(), hida_dataflow_ir::op_names::TOKEN_POP)
                .len(),
            1
        );
        // A token stream now exists in the schedule.
        assert_eq!(
            ctx.collect_ops(schedule.id(), hida_dataflow_ir::op_names::STREAM)
                .len(),
            1
        );
    }

    #[test]
    fn fuse_nodes_unions_operands_and_merges_effects() {
        let mut ctx = Context::new();
        let (_module, schedule, body) = schedule_fixture(&mut ctx);
        let a = buffer(&mut ctx, body, "a", 16);
        let b = buffer(&mut ctx, body, "b", 16);
        let c = buffer(&mut ctx, body, "c", 16);
        let (n1, _) = build_node(
            &mut ctx,
            body,
            "n1",
            &[(a, MemEffect::Read), (b, MemEffect::Write)],
        );
        let (n2, _) = build_node(
            &mut ctx,
            body,
            "n2",
            &[(b, MemEffect::Read), (c, MemEffect::Write)],
        );
        let fused = fuse_nodes(&mut ctx, schedule, &[n1, n2]);
        assert_eq!(fused.operands(&ctx), vec![a, b, c]);
        assert_eq!(
            fused.effects(&ctx),
            vec![MemEffect::Read, MemEffect::ReadWrite, MemEffect::Write]
        );
        assert_eq!(schedule.nodes(&ctx).len(), 1);
    }
}
