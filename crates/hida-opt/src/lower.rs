//! Structural dataflow construction (paper §6.3, Figure 6).
//!
//! Lowering from Functional to Structural dataflow performs three jobs:
//!
//! 1. **Buffer generation** — every tensor passed between tasks becomes a ping-pong
//!    `hida.buffer` (memref semantics); every `memref.alloc` shared between loop-nest
//!    tasks becomes a `hida.buffer` as well.
//! 2. **Dispatch→schedule mapping** — the (transparent) dispatch becomes an
//!    (isolated) `hida.schedule` owning the buffers and nodes.
//! 3. **Task→node mapping** — each task becomes a `hida.node` whose operands are the
//!    buffers it touches, grouped by analyzed memory effect; the task body is cloned
//!    into the node with every external value rewired to the matching block argument
//!    and named layers rewritten to destination-passing form.

use crate::pipeline::HidaPass;
use hida_dataflow_ir::functional::DispatchOp;
use hida_dataflow_ir::op_names as hida_ops;
use hida_dataflow_ir::structural::{build_buffer, build_node, NodeOp, ScheduleOp};
use hida_dialects::analysis::{ComputeProfile, MemEffect};
use hida_dialects::linalg;
use hida_ir_core::context::ValueMapping;
use hida_ir_core::storage::EntityMap;
use hida_ir_core::{
    symbol, AnalysisManager, Attribute, Context, IrError, IrResult, OpBuilder, OpId, Pass, Type,
    ValueId,
};
use std::fmt::Write;

/// Lowers the Functional dataflow inside `func` to a Structural `hida.schedule`.
///
/// Works for functions containing a `hida.dispatch` of tasks (multi-task dataflow)
/// as well as functions whose body is a plain set of compute units (which become a
/// schedule with one node per unit).
///
/// # Errors
/// Returns an error if the function has no compute content at all.
pub fn lower_to_structural(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    func: OpId,
) -> IrResult<ScheduleOp> {
    // Collect the "tasks": either the tasks of the dispatch, or the top-level compute
    // units of the function body.
    let dispatch = ctx
        .body_ops(func)
        .into_iter()
        .find(|&o| ctx.op(o).is(hida_ops::DISPATCH))
        .map(DispatchOp);
    let task_groups: Vec<OpId> = match dispatch {
        Some(d) => d.tasks(ctx).into_iter().map(|t| t.id()).collect(),
        None => ctx
            .body_ops(func)
            .into_iter()
            .filter(|&o| crate::construct::is_compute_unit(ctx, o))
            .collect(),
    };
    if task_groups.is_empty() {
        return Err(IrError::pass_failed(
            HidaPass::Lower.name(),
            "function contains no compute operations to lower",
        ));
    }

    // Create the schedule at the end of the function body; nodes and buffers live in
    // its (isolated) body so the schedule has no live-ins.
    let schedule_name = func_name(ctx, func);
    let (schedule, schedule_body) = {
        let mut b = OpBuilder::at_end_of(ctx, func);
        hida_dataflow_ir::structural::build_schedule(&mut b, &schedule_name)
    };

    // Map every communicated value (alloc result, input tensor, task result) to a
    // structural buffer declared inside the schedule.
    let mut buffer_of: EntityMap<ValueId, ValueId> = EntityMap::new();
    let mut buffer_counter = 0_usize;
    let make_buffer = |ctx: &mut Context, ty: Type, name: &str, counter: &mut usize| -> ValueId {
        let memref_ty = ty.tensor_to_memref();
        let mut b = OpBuilder::at_block_index(ctx, schedule_body, *counter);
        *counter += 1;
        build_buffer(&mut b, memref_ty, 2, name).1
    };

    // (1) memref.alloc results shared between tasks.
    for alloc in ctx.collect_ops(func, hida_dialects::memory::ALLOC) {
        // Only allocs at the function level (shared) become dataflow buffers; allocs
        // nested inside a single task stay local to that task's node.
        if ctx.parent_op(alloc) != Some(func) {
            continue;
        }
        let value = ctx.op(alloc).results[0];
        let name = ctx.op(alloc).attr_str("name").unwrap_or("buf").to_string();
        let ty = *ctx.value_type(value);
        let buffer = make_buffer(ctx, ty, &name, &mut buffer_counter);
        buffer_of.insert(value, buffer);
    }
    // (2) Input tensors from the host become external-memory buffers.
    for input in ctx.collect_ops(func, hida_frontend_input_name()) {
        if ctx.op(input).results.is_empty() {
            continue;
        }
        let value = ctx.op(input).results[0];
        let ty = *ctx.value_type(value);
        let buffer = make_buffer(ctx, ty, "input", &mut buffer_counter);
        let buffer_op = ctx.value(buffer).defining_op().unwrap();
        hida_dialects::hls::set_memory_kind(
            ctx,
            buffer_op,
            hida_dialects::hls::MemoryKind::External,
        );
        buffer_of.insert(value, buffer);
    }
    // (3) Task results (inter-task tensors).
    for &task in &task_groups {
        for (i, &result) in ctx.op(task).results.clone().iter().enumerate() {
            let ty = *ctx.value_type(result);
            if !ty.is_tensor() && !ty.is_memref() {
                continue;
            }
            let mut name = task_name(ctx, task);
            write!(name, "_out{i}").unwrap();
            let buffer = make_buffer(ctx, ty, &name, &mut buffer_counter);
            buffer_of.insert(result, buffer);
        }
    }

    // Lower every task group to a node.
    let mut nodes: Vec<NodeOp> = Vec::with_capacity(task_groups.len());
    let mut mapping = ValueMapping::new();
    for &task in &task_groups {
        nodes.push(lower_task_to_node(
            ctx,
            analyses,
            task,
            schedule_body,
            &buffer_of,
            &mut mapping,
        ));
    }

    // Clean up the functional ops: output markers, the dispatch/tasks, inputs, allocs.
    for output in ctx.collect_ops(func, hida_frontend_output_name()) {
        ctx.erase_op(output);
    }
    if let Some(d) = dispatch {
        ctx.erase_op(d.id());
    } else {
        for &task in &task_groups {
            if ctx.is_alive(task) {
                ctx.erase_op(task);
            }
        }
    }
    for input in ctx.collect_ops(func, hida_frontend_input_name()) {
        if !ctx.has_users(ctx.op(input).results[0]) {
            ctx.erase_op(input);
        }
    }
    for alloc in ctx.collect_ops(func, hida_dialects::memory::ALLOC) {
        if ctx.parent_op(alloc) == Some(func) && !ctx.has_users(ctx.op(alloc).results[0]) {
            ctx.erase_op(alloc);
        }
    }

    // Warm the per-node profile cache after the last mutation of this lowering:
    // every downstream structural pass (tiling, parallelization) starts by
    // querying exactly these profiles, and the entries stamped here are fresh
    // regardless of whether the caller runs inside a pass-manager scope.
    for node in nodes {
        analyses.get::<ComputeProfile>(ctx, node.id());
    }

    Ok(schedule)
}

fn hida_frontend_input_name() -> &'static str {
    "hida.input"
}

fn hida_frontend_output_name() -> &'static str {
    "hida.output"
}

fn func_name(ctx: &Context, func: OpId) -> String {
    ctx.op(func)
        .attr_str("sym_name")
        .map(str::to_string)
        .unwrap_or_else(|| "schedule".to_string())
}

fn task_name(ctx: &Context, task: OpId) -> String {
    ctx.op(task)
        .attr_str("task_name")
        .or_else(|| ctx.op(task).attr_str("loop_name"))
        .map(str::to_string)
        .unwrap_or_else(|| format!("task{}", task.index()))
}

/// Lowers one task group (a `hida.task` or a bare loop nest) into a `hida.node`:
/// the body is cloned into the node through `mapping`, which this clears
/// first (one map for every node of a lowering).
fn lower_task_to_node(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    task: OpId,
    schedule_body: hida_ir_core::BlockId,
    buffer_of: &EntityMap<ValueId, ValueId>,
    mapping: &mut ValueMapping,
) -> NodeOp {
    let profile = analyses.get::<ComputeProfile>(ctx, task);

    // Decide the node operands: every live-in buffer plus one buffer per task
    // result, one operand per buffer with the effects merged. Each live-in
    // keeps the functional value it reads.
    let mut operands: Vec<(ValueId, MemEffect)> = Vec::new();
    let mut push_operand =
        |value: ValueId, effect: MemEffect| match operands.iter_mut().find(|(v, _)| *v == value) {
            Some(operand) => operand.1 = operand.1.merge(effect),
            None => operands.push((value, effect)),
        };
    let mut live_ins: Vec<(ValueId, ValueId)> = Vec::new();
    for access in &profile.accesses {
        if !ctx.is_live_in(task, access.buffer) {
            continue;
        }
        let mapped = buffer_of
            .get(access.buffer)
            .copied()
            .unwrap_or(access.buffer);
        push_operand(mapped, access.effect);
        live_ins.push((access.buffer, mapped));
    }
    // Task results: written by this node.
    for &result in &ctx.op(task).results {
        if let Some(&buffer) = buffer_of.get(result) {
            push_operand(buffer, MemEffect::Write);
        }
    }

    let node_name = task_name(ctx, task);
    let (node, args) = build_node(ctx, schedule_body, &node_name, &operands);

    // The body clone reads each live-in from the node argument of its buffer.
    mapping.clear();
    for (value, mapped) in live_ins {
        let position = operands.iter().position(|&(v, _)| v == mapped).unwrap();
        mapping.map(value, args[position]);
    }
    let node_body = node.body(ctx);
    let body_ops: Vec<OpId> = if ctx.op(task).is(hida_ops::TASK) {
        ctx.body_ops(task)
            .into_iter()
            .filter(|&o| !ctx.op(o).is(hida_ops::YIELD))
            .collect()
    } else {
        vec![task]
    };
    for op in body_ops {
        let cloned = ctx.clone_op(op, mapping);
        ctx.append_op(node_body, cloned);
    }
    let write_args = operands
        .iter()
        .zip(&args)
        .filter(|((_, effect), _)| effect.writes())
        .map(|(_, &arg)| arg);
    rewrite_layers_to_destination_passing(ctx, node, write_args);
    node
}

/// Rewrites named layers inside a node body to destination-passing form: each layer's
/// tensor result is materialised either into the node argument that carries its
/// output buffer (when the result leaves the node) or into an in-place/local buffer
/// (when the result is only consumed inside the node). `write_args` are the
/// node arguments with a write effect, in order: the destinations of escaping
/// results.
fn rewrite_layers_to_destination_passing(
    ctx: &mut Context,
    node: NodeOp,
    mut write_args: impl Iterator<Item = ValueId>,
) {
    let body = node.body(ctx);
    let layer_ops: Vec<OpId> = ctx
        .block(body)
        .ops
        .iter()
        .copied()
        .filter(|&o| linalg::is_linalg_op_name(ctx.op(o).name.as_str()))
        .collect();
    for op in layer_ops {
        let result = match ctx.op(op).results.first().copied() {
            Some(r) => r,
            None => continue,
        };
        let layer = ctx.op(op);
        let elementwise =
            layer.is(linalg::RELU) || layer.is(linalg::FLATTEN) || layer.is(linalg::ADD);
        let dest = if !ctx.has_users(result) {
            // Escaping result: write into the next write-effect node argument.
            write_args.next()
        } else if elementwise {
            // Element-wise: compute in place on the first input.
            ctx.op(op).operands.first().copied()
        } else {
            // Internal intermediate of a fused task: give it a local buffer.
            let ty = ctx.value_type(result).tensor_to_memref();
            let pos = ctx.block(body).position_of(op).unwrap_or(0);
            let mut b = OpBuilder::at_block_index(ctx, body, pos);
            Some(hida_dialects::memory::build_alloc(&mut b, ty, "local"))
        };
        if let Some(dest) = dest {
            // Append the destination as the final operand and mark the op.
            ctx.add_operand(op, dest);
            ctx.set_attr(op, symbol!("dest_passing"), Attribute::Bool(true));
            // Internal consumers of the tensor result now read the destination buffer.
            ctx.replace_all_uses(result, dest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_functional_dataflow;
    use crate::fusion::{default_fusion_patterns, fuse_tasks};
    use hida_frontend::nn::{build_model, Model};
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};

    fn lower_kernel(kernel: PolybenchKernel, n: i64) -> (Context, OpId, ScheduleOp) {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, kernel, n);
        construct_functional_dataflow(&mut ctx, func).unwrap();
        let mut analyses = AnalysisManager::new();
        fuse_tasks(&mut ctx, &mut analyses, func, &default_fusion_patterns()).unwrap();
        let schedule = lower_to_structural(&mut ctx, &mut analyses, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        (ctx, func, schedule)
    }

    #[test]
    fn twomm_lowers_to_two_connected_nodes() {
        let (ctx, _func, schedule) = lower_kernel(PolybenchKernel::TwoMm, 16);
        let nodes = schedule.nodes(&ctx);
        assert_eq!(nodes.len(), 2);
        let buffers = schedule.internal_buffers(&ctx);
        assert_eq!(
            buffers.len(),
            5,
            "A, B, C, tmp, D become structural buffers"
        );
        // The tmp buffer is written by node0 and read by node1.
        let graph = hida_dataflow_ir::graph::DataflowGraph::from_schedule(&ctx, schedule);
        assert_eq!(graph.edges().len(), 1);
        assert_eq!(graph.edges()[0].producer, nodes[0]);
        assert_eq!(graph.edges()[0].consumer, nodes[1]);
        // Node bodies are isolated: loops reference only block arguments.
        for node in nodes {
            hida_ir_core::verifier::verify(&ctx, node.id()).unwrap();
            assert!(!ctx
                .collect_ops(node.id(), hida_dialects::loops::FOR)
                .is_empty());
        }
    }

    #[test]
    fn single_nest_kernel_lowers_to_one_node() {
        let (ctx, _func, schedule) = lower_kernel(PolybenchKernel::Gesummv, 16);
        assert_eq!(schedule.nodes(&ctx).len(), 1);
        assert!(!schedule.internal_buffers(&ctx).is_empty());
    }

    #[test]
    fn lenet_lowers_with_external_input_and_chain_of_nodes() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_model(&mut ctx, module, Model::LeNet);
        construct_functional_dataflow(&mut ctx, func).unwrap();
        let mut analyses = AnalysisManager::new();
        fuse_tasks(&mut ctx, &mut analyses, func, &default_fusion_patterns()).unwrap();
        let schedule = lower_to_structural(&mut ctx, &mut analyses, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();

        let nodes = schedule.nodes(&ctx);
        assert!(nodes.len() >= 3);
        // The input buffer is external; inter-layer buffers are on-chip ping-pong.
        let buffers = schedule.internal_buffers(&ctx);
        let external = buffers
            .iter()
            .filter(|b| b.memory_kind(&ctx) == hida_dialects::hls::MemoryKind::External)
            .count();
        assert!(external >= 1);
        let ping_pong = buffers.iter().filter(|b| b.is_ping_pong(&ctx)).count();
        assert!(ping_pong >= nodes.len() - 1);
        // The dataflow forms a chain from the first to the last node: walking
        // back through predecessors from the last ends at the first.
        let graph = hida_dataflow_ir::graph::DataflowGraph::from_schedule(&ctx, schedule);
        let mut node = *nodes.last().unwrap();
        while let Some(&pred) = graph.predecessors(node).first() {
            node = pred;
        }
        assert_eq!(node, nodes[0]);
        // Every layer op inside nodes is in destination-passing form.
        for node in &nodes {
            for op in ctx.collect_ops(node.id(), linalg::CONV2D) {
                assert!(ctx.op(op).has_flag("dest_passing"));
            }
        }
    }

    #[test]
    fn lowering_without_construct_gives_each_named_layer_its_own_node() {
        for model in [Model::LeNet, Model::ResNet18] {
            let mut ctx = Context::new();
            let module = ctx.create_module("m");
            let func = build_model(&mut ctx, module, model);
            let layers = ctx
                .body_ops(func)
                .into_iter()
                .filter(|&op| linalg::is_linalg_op_name(ctx.op(op).name.as_str()))
                .count();
            // No `construct`: fusion finds no dispatch, and every layer is a
            // bare compute unit whose node reads what it touches through
            // its arguments.
            let mut analyses = AnalysisManager::new();
            fuse_tasks(&mut ctx, &mut analyses, func, &default_fusion_patterns()).unwrap();
            let schedule = lower_to_structural(&mut ctx, &mut analyses, func).unwrap();
            hida_ir_core::verifier::verify(&ctx, module)
                .unwrap_or_else(|e| panic!("{}: {e}", model.name()));
            let nodes = schedule.nodes(&ctx);
            assert_eq!(nodes.len(), layers, "{}", model.name());
            for node in nodes {
                assert!(node.effects(&ctx).iter().any(|e| e.reads()));
                assert!(node.effects(&ctx).iter().any(|e| e.writes()));
            }
        }
    }

    #[test]
    fn functional_ops_are_cleaned_up_after_lowering() {
        let (ctx, func, _schedule) = lower_kernel(PolybenchKernel::Atax, 16);
        assert!(ctx.collect_ops(func, hida_ops::DISPATCH).is_empty());
        assert!(ctx.collect_ops(func, hida_ops::TASK).is_empty());
        // Function-level allocs were converted to structural buffers.
        let remaining_allocs: Vec<_> = ctx
            .collect_ops(func, hida_dialects::memory::ALLOC)
            .into_iter()
            .filter(|&a| ctx.parent_op(a) == Some(func))
            .collect();
        assert!(remaining_allocs.is_empty());
    }

    #[test]
    fn resnet_block_produces_multi_consumer_buffer() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_model(&mut ctx, module, Model::ResNet18);
        construct_functional_dataflow(&mut ctx, func).unwrap();
        let mut analyses = AnalysisManager::new();
        fuse_tasks(&mut ctx, &mut analyses, func, &default_fusion_patterns()).unwrap();
        let schedule = lower_to_structural(&mut ctx, &mut analyses, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        // Residual shortcuts: at least one buffer feeds more than one consumer node.
        let graph = hida_dataflow_ir::graph::DataflowGraph::from_schedule(&ctx, schedule);
        let mut consumers_per_buffer: std::collections::HashMap<ValueId, usize> =
            std::collections::HashMap::new();
        for e in graph.edges() {
            *consumers_per_buffer.entry(e.buffer).or_default() += 1;
        }
        assert!(consumers_per_buffer.values().any(|&c| c >= 2));
    }
}
