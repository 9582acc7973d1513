//! Functional interpreter for structural dataflow schedules.
//!
//! Node bodies built from affine loop nests with `affine.load`/`affine.store` and
//! scalar arithmetic are executed on `f64` data. Buffers are dense arrays addressed
//! by row-major order. The interpreter is deliberately simple — its job is to show
//! that HIDA's structural rewrites do not change program semantics, not to be fast.

use hida_dataflow_ir::structural::ScheduleOp;
use hida_dialects::loops::ForOp;
use hida_dialects::{arith, memory};
use hida_ir_core::{Context, OpId, ValueId};
use std::collections::HashMap;

/// Dense storage for every buffer touched by the schedule.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    buffers: HashMap<ValueId, Vec<f64>>,
    shapes: HashMap<ValueId, Vec<i64>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-initialises) a buffer with the given shape and fill value.
    pub fn init(&mut self, buffer: ValueId, shape: &[i64], fill: f64) {
        let size: i64 = shape.iter().product::<i64>().max(1);
        self.buffers.insert(buffer, vec![fill; size as usize]);
        self.shapes.insert(buffer, shape.to_vec());
    }

    /// Reads one element.
    pub fn load(&self, buffer: ValueId, indices: &[i64]) -> f64 {
        let offset = self.offset(buffer, indices);
        self.buffers
            .get(&buffer)
            .and_then(|data| data.get(offset))
            .copied()
            .unwrap_or(0.0)
    }

    /// Writes one element.
    pub fn store(&mut self, buffer: ValueId, indices: &[i64], value: f64) {
        let offset = self.offset(buffer, indices);
        if let Some(data) = self.buffers.get_mut(&buffer) {
            if offset < data.len() {
                data[offset] = value;
            }
        }
    }

    /// Returns the full contents of a buffer (row-major).
    pub fn contents(&self, buffer: ValueId) -> Option<&[f64]> {
        self.buffers.get(&buffer).map(|v| v.as_slice())
    }

    fn offset(&self, buffer: ValueId, indices: &[i64]) -> usize {
        let shape = match self.shapes.get(&buffer) {
            Some(s) => s,
            None => return 0,
        };
        let mut offset = 0_i64;
        for (i, &idx) in indices.iter().enumerate() {
            let dim = shape.get(i).copied().unwrap_or(1).max(1);
            offset = offset * dim + idx.clamp(0, dim - 1);
        }
        offset.max(0) as usize
    }
}

/// Interprets every node of a schedule in program order, reading and writing the
/// provided memory. Buffers not yet registered are zero-initialised from their types.
pub fn interpret_schedule(ctx: &Context, schedule: ScheduleOp, memory: &mut Memory) {
    for buffer in schedule.internal_buffers(ctx) {
        let value = buffer.value(ctx);
        if memory.contents(value).is_none() {
            memory.init(value, &buffer.shape(ctx), 0.0);
        }
    }
    for node in schedule.nodes(ctx) {
        // Map body arguments to the node operands so loads/stores hit shared storage.
        let mut alias: HashMap<ValueId, ValueId> = HashMap::new();
        for (arg, operand) in node.body_args(ctx).into_iter().zip(node.operands(ctx)) {
            alias.insert(arg, operand);
        }
        let mut env: HashMap<ValueId, f64> = HashMap::new();
        for op in ctx.body_ops(node.id()) {
            interpret_op(ctx, op, memory, &alias, &mut env);
        }
    }
}

fn resolve_buffer(alias: &HashMap<ValueId, ValueId>, value: ValueId) -> ValueId {
    *alias.get(&value).unwrap_or(&value)
}

fn interpret_op(
    ctx: &Context,
    op: OpId,
    memory: &mut Memory,
    alias: &HashMap<ValueId, ValueId>,
    env: &mut HashMap<ValueId, f64>,
) {
    let operation = ctx.op(op);
    let name = operation.name.as_str();
    if let Some(for_op) = ForOp::try_from_op(ctx, op) {
        let iv = for_op.induction_var(ctx);
        let lower = for_op.lower_bound(ctx);
        let upper = for_op.upper_bound(ctx);
        let step = for_op.step(ctx);
        let body = ctx.body_ops(op);
        let mut i = lower;
        while i < upper {
            env.insert(iv, i as f64);
            for &inner in &body {
                interpret_op(ctx, inner, memory, alias, env);
            }
            i += step;
        }
        return;
    }
    match name {
        n if n == hida_ir_core::op_names::CONSTANT => {
            let value = operation
                .attr("value")
                .and_then(|a| a.as_float())
                .unwrap_or(0.0);
            env.insert(operation.results[0], value);
        }
        memory::APPLY => {
            let stride = operation.attr_int("stride").unwrap_or(1) as f64;
            let offset = operation.attr_int("offset").unwrap_or(0) as f64;
            let input = *env.get(&operation.operands[0]).unwrap_or(&0.0);
            env.insert(operation.results[0], stride * input + offset);
        }
        memory::LOAD => {
            let buffer = resolve_buffer(alias, operation.operands[0]);
            let indices: Vec<i64> = operation.operands[1..]
                .iter()
                .map(|v| *env.get(v).unwrap_or(&0.0) as i64)
                .collect();
            env.insert(operation.results[0], memory.load(buffer, &indices));
        }
        memory::STORE => {
            let value = *env.get(&operation.operands[0]).unwrap_or(&0.0);
            let buffer = resolve_buffer(alias, operation.operands[1]);
            let indices: Vec<i64> = operation.operands[2..]
                .iter()
                .map(|v| *env.get(v).unwrap_or(&0.0) as i64)
                .collect();
            memory.store(buffer, &indices, value);
        }
        memory::COPY => {
            let src = resolve_buffer(alias, operation.operands[0]);
            let dst = resolve_buffer(alias, operation.operands[1]);
            if let Some(data) = memory.contents(src).map(|d| d.to_vec()) {
                if let Some(shape) = memory.shapes.get(&src).cloned() {
                    memory.init(dst, &shape, 0.0);
                    if let Some(dst_data) = memory.buffers.get_mut(&dst) {
                        dst_data.copy_from_slice(&data);
                    }
                }
            }
        }
        arith::ADDF | arith::ADDI => binary(ctx, op, env, |a, b| a + b),
        arith::SUBF | arith::SUBI => binary(ctx, op, env, |a, b| a - b),
        arith::MULF | arith::MULI => binary(ctx, op, env, |a, b| a * b),
        arith::DIVF | arith::DIVI => {
            binary(ctx, op, env, |a, b| if b != 0.0 { a / b } else { 0.0 })
        }
        arith::MAXF => binary(ctx, op, env, f64::max),
        _ => {
            // Token pushes/pops and unknown ops are no-ops for functional semantics.
        }
    }
}

fn binary(ctx: &Context, op: OpId, env: &mut HashMap<ValueId, f64>, f: impl Fn(f64, f64) -> f64) {
    let operation = ctx.op(op);
    let a = *env.get(&operation.operands[0]).unwrap_or(&0.0);
    let b = *env.get(&operation.operands[1]).unwrap_or(&0.0);
    env.insert(operation.results[0], f(a, b));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_frontend::listing1::build_listing1;
    use hida_opt::{construct, lower, parallelize, ParallelMode};

    /// Lowers Listing 1 and interprets it: C must equal A(strided) * B summed over k.
    #[test]
    fn listing1_computes_the_expected_matrix_product() {
        let mut ctx = hida_ir_core::Context::new();
        let module = ctx.create_module("m");
        let l1 = build_listing1(&mut ctx, module);
        construct::construct_functional_dataflow(&mut ctx, l1.func).unwrap();
        let schedule = lower::lower_to_structural(
            &mut ctx,
            &mut hida_ir_core::AnalysisManager::new(),
            l1.func,
        )
        .unwrap();

        let mut memory = Memory::new();
        interpret_schedule(&ctx, schedule, &mut memory);

        // Node0 stores 1.0 into A, Node1 stores 2.0 into B, so every C element is
        // sum over k of 1*2 = 32.
        let c_buffer = schedule
            .internal_buffers(&ctx)
            .into_iter()
            .find(|b| b.name(&ctx) == "C")
            .unwrap();
        let contents = memory.contents(c_buffer.value(&ctx)).unwrap();
        assert_eq!(contents.len(), 256);
        assert!(contents.iter().all(|&v| (v - 32.0).abs() < 1e-9));
    }

    /// The structural optimizations must not change the computed values.
    #[test]
    fn parallelization_preserves_functional_semantics() {
        let run = |parallelize_it: bool| -> Vec<f64> {
            let mut ctx = hida_ir_core::Context::new();
            let module = ctx.create_module("m");
            let l1 = build_listing1(&mut ctx, module);
            construct::construct_functional_dataflow(&mut ctx, l1.func).unwrap();
            let mut analyses = hida_ir_core::AnalysisManager::new();
            let schedule = lower::lower_to_structural(&mut ctx, &mut analyses, l1.func).unwrap();
            if parallelize_it {
                parallelize::parallelize_schedule(
                    &mut ctx,
                    &mut analyses,
                    schedule,
                    32,
                    ParallelMode::IaCa,
                )
                .unwrap();
            }
            let mut memory = Memory::new();
            interpret_schedule(&ctx, schedule, &mut memory);
            let c = schedule
                .internal_buffers(&ctx)
                .into_iter()
                .find(|b| b.name(&ctx) == "C")
                .unwrap();
            memory.contents(c.value(&ctx)).unwrap().to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn memory_addressing_is_row_major_and_clamped() {
        let mut m = Memory::new();
        let v = ValueId::from_index(1);
        m.init(v, &[2, 3], 0.0);
        m.store(v, &[1, 2], 7.0);
        assert_eq!(m.load(v, &[1, 2]), 7.0);
        assert_eq!(m.contents(v).unwrap()[5], 7.0);
        // Out-of-range indices clamp instead of panicking.
        m.store(v, &[9, 9], 1.0);
        assert_eq!(m.load(v, &[1, 2]), 1.0);
        assert_eq!(m.load(ValueId::from_index(99), &[0]), 0.0);
    }
}
