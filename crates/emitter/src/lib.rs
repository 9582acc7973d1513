//! HLS C++ emitter.
//!
//! The final stage of the HIDA flow emits synthesizable Vitis-HLS-style C++ from the
//! optimized Structural dataflow (Figure 3 "HLS C++ Emitter"). The emitter walks a
//! `hida.schedule` and produces:
//!
//! * one C++ function per `hida.node`, with loop nests, `#pragma HLS pipeline` /
//!   `unroll` directives from the recorded unroll factors, and per-argument
//!   `#pragma HLS interface` declarations,
//! * buffer declarations with `#pragma HLS array_partition` and
//!   `#pragma HLS stream` directives (ping-pong depth),
//! * a top function instantiating the nodes inside a `#pragma HLS dataflow` region.
//!
//! Downstream, AMD Vitis HLS would turn this C++ into RTL; this reproduction stops at
//! the generated source.
//!
//! Every name, type, dimension and indent is written straight into the one
//! output `String`; a node's loop nest comes from its [`ComputeProfile`], read
//! from the [`AnalysisManager`] the caller lends ([`emit_schedule_with`]) —
//! in a compilation, the one the pass pipeline filled.

use hida_dataflow_ir::structural::{BufferOp, NodeOp, ScheduleOp};
use hida_dialects::analysis::ComputeProfile;
use hida_dialects::hls::{self, MemoryKind, PartitionFashion};
use hida_dialects::transforms;
use hida_ir_core::analysis::AnalysisManager;
use hida_ir_core::{Attribute, Context, OpId, Type, ValueId};
use std::fmt::Write as _;

const BANNER: &str = "// Generated by the HIDA reproduction HLS C++ emitter.\n";

/// Emits the complete HLS C++ source for a schedule, deriving every node's
/// compute profile itself.
pub fn emit_schedule(ctx: &Context, schedule: ScheduleOp) -> String {
    emit_schedule_with(ctx, schedule, &mut AnalysisManager::new())
}

/// Emits the complete HLS C++ source for a schedule, reading the nodes'
/// compute profiles from `analyses` (and leaving there what it had to
/// compute).
pub fn emit_schedule_with(
    ctx: &Context,
    schedule: ScheduleOp,
    analyses: &mut AnalysisManager,
) -> String {
    let mut out = String::from(BANNER);
    out.push_str("#include <ap_int.h>\n#include <hls_stream.h>\n#include <cstring>\n\n");
    let nodes = schedule.nodes(ctx);
    for &node in &nodes {
        let profile = analyses.get::<ComputeProfile>(ctx, node.id());
        emit_node_function(ctx, node, &profile, &mut out);
    }
    emit_top_function(ctx, schedule, &nodes, &mut out);
    out
}

/// Writes `name` as a C++ identifier — the one place a name of the IR (a
/// schedule's, a node's, a buffer's, a function's) becomes one. A name that
/// starts with a digit (PolyBench's `2mm`) gains a leading `k`: not `_`,
/// which at global scope would make a reserved identifier of `_2mm_top`.
fn push_name(out: &mut String, name: &str) {
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('k');
    }
    out.extend(name.chars().map(|c| match c {
        '-' | '+' | '.' | ' ' => '_',
        other => other,
    }));
}

/// Writes the name `op` carries in `attr`, or what `fallback` makes up for an
/// op without one.
fn push_op_name(
    out: &mut String,
    ctx: &Context,
    op: OpId,
    attr: &str,
    fallback: impl FnOnce() -> String,
) {
    match ctx.op(op).attr_str(attr) {
        Some(name) => push_name(out, name),
        None => push_name(out, &fallback()),
    }
}

fn push_node_name(out: &mut String, ctx: &Context, node: NodeOp) {
    push_op_name(out, ctx, node.id(), "node_name", || node.name(ctx));
}

/// Writes the C++ element type of `ty`: at least a byte wide.
fn push_cpp_type(out: &mut String, ty: &Type) {
    let bits = ty.elem_bit_width().max(8);
    match ty.elem_type() {
        Type::Float(_) if bits <= 32 => out.push_str("float"),
        Type::Float(_) => out.push_str("double"),
        _ => write!(out, "ap_int<{bits}>").unwrap(),
    }
}

/// Writes `<element type> <name><dims>`, the shape as C array dimensions.
fn push_declarator(out: &mut String, ty: &Type, name: impl FnOnce(&mut String)) {
    push_cpp_type(out, ty);
    out.push(' ');
    name(out);
    for dim in ty.shape().unwrap_or_default() {
        write!(out, "[{dim}]").unwrap();
    }
}

fn push_indent(out: &mut String, depth: usize) {
    out.extend(std::iter::repeat_n("  ", depth));
}

fn emit_node_function(ctx: &Context, node: NodeOp, profile: &ComputeProfile, out: &mut String) {
    out.push_str("void ");
    push_node_name(out, ctx, node);
    out.push('(');
    for (i, &operand) in ctx.op(node.id()).operands.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_declarator(out, ctx.value_type(operand), |out| {
            write!(out, "arg{i}").unwrap()
        });
    }
    out.push_str(") {\n#pragma HLS inline off\n");

    // Loop nest skeleton from the node's profile and unroll factors.
    let depth = profile.loop_dims.len();
    let unroll = transforms::unroll_factors_of(ctx, node.id(), depth);
    emit_loop_heads(profile, out, |i, out| {
        let factor = unroll.get(i).copied().unwrap_or(1);
        if factor > 1 {
            push_indent(out, i + 1);
            writeln!(out, "#pragma HLS unroll factor={factor}").unwrap();
        }
        if i + 1 == depth {
            push_indent(out, i + 1);
            out.push_str("#pragma HLS pipeline II=1\n");
        }
    });
    push_indent(out, depth + 1);
    writeln!(out, "// compute body ({} MACs per frame)", profile.macs).unwrap();
    emit_loop_tails(depth, out);
    out.push_str("}\n\n");
}

/// One `for` line per loop dimension, outermost first, each followed by what
/// `directives` writes for it.
fn emit_loop_heads(
    profile: &ComputeProfile,
    out: &mut String,
    mut directives: impl FnMut(usize, &mut String),
) {
    for (i, dim) in profile.loop_dims.iter().enumerate() {
        push_indent(out, i + 1);
        writeln!(out, "for (int i{i} = 0; i{i} < {}; ++i{i}) {{", dim.trip).unwrap();
        directives(i, out);
    }
}

/// The closing braces of `depth` nested loops, innermost first.
fn emit_loop_tails(depth: usize, out: &mut String) {
    for i in (0..depth).rev() {
        push_indent(out, i + 1);
        out.push_str("}\n");
    }
}

fn emit_top_function(ctx: &Context, schedule: ScheduleOp, nodes: &[NodeOp], out: &mut String) {
    out.push_str("void ");
    push_op_name(out, ctx, schedule.id(), "schedule_name", || {
        "design".to_string()
    });
    out.push_str("_top() {\n#pragma HLS dataflow\n");

    // Buffer declarations.
    for buffer in schedule.internal_buffers(ctx) {
        emit_buffer(ctx, buffer, out);
    }
    // Node instantiations.
    for &node in nodes {
        out.push_str("  ");
        push_node_name(out, ctx, node);
        out.push('(');
        for (i, &operand) in ctx.op(node.id()).operands.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_value_name(out, ctx, operand);
        }
        out.push_str(");\n");
    }
    out.push_str("}\n");
}

fn push_buffer_name(out: &mut String, ctx: &Context, buffer: BufferOp) {
    push_op_name(out, ctx, buffer.id(), "buffer_name", || buffer.name(ctx));
}

fn push_value_name(out: &mut String, ctx: &Context, value: ValueId) {
    match ctx.value(value).defining_op() {
        Some(op) => match BufferOp::try_from_op(ctx, op) {
            Some(buffer) => push_buffer_name(out, ctx, buffer),
            None => write!(out, "v{}", value.index()).unwrap(),
        },
        None => write!(out, "arg{}", value.index()).unwrap(),
    }
}

fn emit_buffer(ctx: &Context, buffer: BufferOp, out: &mut String) {
    let name = |out: &mut String| push_buffer_name(out, ctx, buffer);
    let declare = |out: &mut String| {
        out.push_str("  static ");
        push_declarator(out, ctx.value_type(buffer.value(ctx)), name);
        out.push_str(";\n");
    };
    if buffer.memory_kind(ctx) == MemoryKind::External {
        out.push_str("  // ");
        name(out);
        out.push_str(": soft FIFO in external memory (AXI master)\n");
        declare(out);
        out.push_str("#pragma HLS interface m_axi port=");
        name(out);
        out.push_str(" bundle=gmem\n");
        return;
    }
    declare(out);
    // A dimension is partitioned when the directive names both a fashion
    // and a factor above one for it.
    let op = ctx.op(buffer.id());
    let fashions = op
        .attr(hls::ATTR_PARTITION_FASHIONS)
        .and_then(Attribute::as_str_array)
        .unwrap_or_default();
    let factors = op
        .attr_int_array(hls::ATTR_PARTITION_FACTORS)
        .unwrap_or_default();
    for (dim, (fashion, &factor)) in fashions.iter().zip(factors).enumerate() {
        let fashion = PartitionFashion::parse(fashion);
        if factor > 1 && fashion != PartitionFashion::None {
            out.push_str("#pragma HLS array_partition variable=");
            name(out);
            writeln!(out, " {} factor={factor} dim={}", fashion.as_str(), dim + 1).unwrap();
        }
    }
    let depth = buffer.depth(ctx);
    if depth >= 2 {
        out.push_str("#pragma HLS stream variable=");
        name(out);
        writeln!(out, " depth={depth}").unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};
    use hida_ir_core::Context;
    use hida_opt::{HidaOptions, Pipeline};

    fn optimized_schedule() -> (Context, ScheduleOp) {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::TwoMm, 32);
        let schedule = Pipeline::from_options(&HidaOptions::polybench())
            .run(&mut ctx, func)
            .unwrap();
        (ctx, schedule)
    }

    #[test]
    fn emitted_cpp_contains_dataflow_and_directives() {
        let (ctx, schedule) = optimized_schedule();
        let cpp = emit_schedule(&ctx, schedule);
        assert!(cpp.contains("#pragma HLS dataflow"));
        assert!(cpp.contains("#pragma HLS pipeline II=1"));
        assert!(cpp.contains("#pragma HLS unroll factor="));
        assert!(cpp.contains("#pragma HLS array_partition"));
        assert!(cpp.contains("void k2mm_top()"), "{cpp}");
        // One function per node plus the top.
        let node_count = schedule.nodes(&ctx).len();
        assert_eq!(cpp.matches("#pragma HLS inline off").count(), node_count);
        // Braces balance.
        assert_eq!(cpp.matches('{').count(), cpp.matches('}').count());
    }

    #[test]
    fn ping_pong_buffers_get_stream_pragmas() {
        let (ctx, schedule) = optimized_schedule();
        let cpp = emit_schedule(&ctx, schedule);
        assert!(cpp.contains("#pragma HLS stream variable="));
    }

    #[test]
    fn function_emission_produces_balanced_loops() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::Gesummv, 16);
        let schedule = Pipeline::from_options(&HidaOptions::polybench())
            .run(&mut ctx, func)
            .unwrap();
        let cpp = emit_schedule(&ctx, schedule);
        assert!(cpp.contains("void gesummv_top()"), "{cpp}");
        assert!(cpp.contains("for ("), "{cpp}");
        assert_eq!(cpp.matches('{').count(), cpp.matches('}').count());
    }

    #[test]
    fn cpp_type_mapping() {
        let cpp_type = |ty: Type| {
            let mut out = String::new();
            push_cpp_type(&mut out, &ty);
            out
        };
        assert_eq!(cpp_type(Type::i8()), "ap_int<8>");
        assert_eq!(cpp_type(Type::i1()), "ap_int<8>");
        assert_eq!(cpp_type(Type::memref(vec![4], Type::f32())), "float");
        assert_eq!(cpp_type(Type::Float(64)), "double");
    }

    /// The schedule's, the nodes' and the buffers' names all become C++
    /// identifiers through one writer: none of them keeps a `.`, `+`, `-` or
    /// space or starts with a digit, wherever it is emitted.
    #[test]
    fn every_emitted_name_is_an_identifier() {
        use hida_dataflow_ir::structural::{build_buffer, build_node, build_schedule};
        use hida_dialects::analysis::MemEffect;
        use hida_ir_core::OpBuilder;

        let mut name = String::new();
        push_name(&mut name, "conv1+relu2 a-b.c");
        assert_eq!(name, "conv1_relu2_a_b_c");
        name.clear();
        push_name(&mut name, "3mm-v2");
        assert_eq!(name, "k3mm_v2");

        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let (schedule, body) = build_schedule(&mut OpBuilder::at_end_of(&mut ctx, func), "a.b-c");
        let (_, buffer) = build_buffer(
            &mut OpBuilder::at_block_end(&mut ctx, body),
            Type::memref(vec![8], Type::i8()),
            2,
            "act.0+skip",
        );
        build_node(&mut ctx, body, "conv 1.x", &[(buffer, MemEffect::Write)]);
        build_node(&mut ctx, body, "1x1.conv", &[(buffer, MemEffect::Read)]);
        let cpp = emit_schedule(&ctx, schedule);
        assert!(cpp.contains("void a_b_c_top() {"), "{cpp}");
        assert!(cpp.contains("void conv_1_x(ap_int<8> arg0[8]) {"), "{cpp}");
        assert!(cpp.contains("void k1x1_conv(ap_int<8> arg0[8]) {"), "{cpp}");
        assert!(cpp.contains("  static ap_int<8> act_0_skip[8];"), "{cpp}");
        assert!(cpp.contains("variable=act_0_skip depth=2"), "{cpp}");
        assert!(cpp.contains("  conv_1_x(act_0_skip);"), "{cpp}");
        assert!(cpp.contains("  k1x1_conv(act_0_skip);"), "{cpp}");
    }
}
