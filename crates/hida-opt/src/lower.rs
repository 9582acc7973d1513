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

use hida_dataflow_ir::functional::DispatchOp;
use hida_dataflow_ir::op_names as hida_ops;
use hida_dataflow_ir::structural::{build_buffer, build_node, NodeOp, ScheduleOp};
use hida_dialects::analysis::{ComputeProfile, MemEffect};
use hida_dialects::linalg;
use hida_ir_core::{
    AnalysisManager, Attribute, Context, IrError, IrResult, OpBuilder, OpId, Type, ValueId,
};
use std::collections::HashMap;

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
            "hida-lower",
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
    let mut buffer_of: HashMap<ValueId, ValueId> = HashMap::new();
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
        let ty = ctx.value_type(value).clone();
        let buffer = make_buffer(ctx, ty, &name, &mut buffer_counter);
        buffer_of.insert(value, buffer);
    }
    // (2) Input tensors from the host become external-memory buffers.
    for input in ctx.collect_ops(func, hida_frontend_input_name()) {
        if ctx.op(input).results.is_empty() {
            continue;
        }
        let value = ctx.op(input).results[0];
        let ty = ctx.value_type(value).clone();
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
            let ty = ctx.value_type(result).clone();
            if !ty.is_tensor() && !ty.is_memref() {
                continue;
            }
            let name = format!("{}_out{i}", task_name(ctx, task));
            let buffer = make_buffer(ctx, ty, &name, &mut buffer_counter);
            buffer_of.insert(result, buffer);
        }
    }

    // Lower every task group to a node.
    let mut nodes: Vec<NodeOp> = Vec::with_capacity(task_groups.len());
    for &task in &task_groups {
        nodes.push(lower_task_to_node(
            ctx,
            analyses,
            task,
            schedule_body,
            &buffer_of,
        )?);
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

/// Lowers one task group (a `hida.task` or a bare loop nest) into a `hida.node`.
fn lower_task_to_node(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    task: OpId,
    schedule_body: hida_ir_core::BlockId,
    buffer_of: &HashMap<ValueId, ValueId>,
) -> IrResult<NodeOp> {
    let profile = analyses.get::<ComputeProfile>(ctx, task);
    let results = ctx.op(task).results.clone();
    let yielded = yielded_values(ctx, task);

    // Decide the node operands: every live-in buffer plus one buffer per task result.
    let mut operands: Vec<(ValueId, MemEffect)> = Vec::new();
    let mut operand_source: Vec<ValueId> = Vec::new();
    let push_operand = |value: ValueId,
                        effect: MemEffect,
                        operands: &mut Vec<(ValueId, MemEffect)>,
                        sources: &mut Vec<ValueId>| {
        if let Some(pos) = sources.iter().position(|&v| v == value) {
            operands[pos].1 = operands[pos].1.merge(effect);
        } else {
            sources.push(value);
            operands.push((value, effect));
        }
    };

    // Live-in accesses recorded by the profile.
    for access in &profile.accesses {
        if !ctx.is_live_in(task, access.buffer) {
            continue;
        }
        let mapped = buffer_of
            .get(&access.buffer)
            .copied()
            .unwrap_or(access.buffer);
        push_operand(mapped, access.effect, &mut operands, &mut operand_source);
    }
    // Task results: written by this node.
    for &result in &results {
        if let Some(&buffer) = buffer_of.get(&result) {
            push_operand(buffer, MemEffect::Write, &mut operands, &mut operand_source);
        }
    }
    // Map each operand source (the *functional-level* value) for body rewiring:
    // live-in accesses keep their original value, results map through `yielded`.
    let node_name = task_name(ctx, task);
    // Rebuild operand list keyed by the mapped (buffer) values with original sources.
    let mut original_of: HashMap<ValueId, ValueId> = HashMap::new();
    for access in &profile.accesses {
        if ctx.is_live_in(task, access.buffer) {
            let mapped = buffer_of
                .get(&access.buffer)
                .copied()
                .unwrap_or(access.buffer);
            original_of.entry(mapped).or_insert(access.buffer);
        }
    }

    let (node, args) = build_node(ctx, schedule_body, &node_name, &operands);

    // Value mapping for the body clone: functional value -> node block argument.
    let mut mapping = hida_ir_core::context::ValueMapping::new();
    for (idx, (buffer_value, _)) in operands.iter().enumerate() {
        // The live-in functional value this operand came from (if any).
        if let Some(&orig) = original_of.get(buffer_value) {
            mapping.map(orig, args[idx]);
        }
    }
    // Yielded functional values -> block args of the matching result buffers. The
    // internal values that produced them are redirected to the buffer arguments by
    // the destination-passing rewrite below.
    for result in &results {
        if let Some(&buffer) = buffer_of.get(result) {
            if let Some(pos) = operands.iter().position(|(v, _)| *v == buffer) {
                mapping.map(*result, args[pos]);
            }
        }
    }
    let _ = &yielded;

    // Clone the body ops (skipping the yield) into the node.
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
        let cloned = ctx.clone_op(op, &mut mapping);
        ctx.append_op(node_body, cloned);
    }
    rewrite_layers_to_destination_passing(ctx, node);
    Ok(node)
}

/// Returns the values yielded by a task (empty for bare loop nests).
fn yielded_values(ctx: &Context, task: OpId) -> Vec<ValueId> {
    ctx.body_ops(task)
        .into_iter()
        .find(|&o| ctx.op(o).is(hida_ops::YIELD))
        .map(|y| ctx.op(y).operands.to_vec())
        .unwrap_or_default()
}

/// Rewrites named layers inside a node body to destination-passing form: each layer's
/// tensor result is materialised either into the node argument that carries its
/// output buffer (when the result leaves the node) or into an in-place/local buffer
/// (when the result is only consumed inside the node).
fn rewrite_layers_to_destination_passing(ctx: &mut Context, node: NodeOp) {
    let body = node.body(ctx);
    let args = node.body_args(ctx);
    let effects = node.effects(ctx);
    // Node arguments with write effect, in order — destinations for escaping results.
    let write_args: Vec<ValueId> = args
        .iter()
        .zip(&effects)
        .filter(|(_, e)| e.writes())
        .map(|(&a, _)| a)
        .collect();
    let mut next_write_arg = 0_usize;

    let layer_ops: Vec<OpId> = ctx
        .block(body)
        .ops
        .clone()
        .into_iter()
        .filter(|&o| linalg::is_linalg_op_name(ctx.op(o).name.as_str()))
        .collect();
    for op in layer_ops {
        let result = match ctx.op(op).results.first().copied() {
            Some(r) => r,
            None => continue,
        };
        let name = ctx.op(op).name.as_str().to_string();
        let has_internal_users = ctx.has_users(result);
        let dest = if !has_internal_users {
            // Escaping result: write into the next write-effect node argument.
            let dest = write_args.get(next_write_arg).copied();
            next_write_arg += 1;
            dest
        } else if name == linalg::RELU || name == linalg::FLATTEN || name == linalg::ADD {
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
            ctx.set_attr(op, "dest_passing", Attribute::Bool(true));
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
            assert!(ctx.live_ins(node.id()).is_empty());
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
        // The dataflow forms a chain from the first to the last node.
        let graph = hida_dataflow_ir::graph::DataflowGraph::from_schedule(&ctx, schedule);
        assert!(graph.reaches(nodes[0], *nodes.last().unwrap()));
        // Every layer op inside nodes is in destination-passing form.
        for node in &nodes {
            for op in ctx.collect_ops(node.id(), linalg::CONV2D) {
                assert!(ctx.op(op).has_flag("dest_passing"));
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
