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
//! * a top function instantiating the nodes inside a `#pragma HLS dataflow` region,
//!   and for a node that holds a schedule a function that is such a region of
//!   that schedule (in the loops around it), after the functions of its nodes.
//!
//! Downstream, AMD Vitis HLS would turn this C++ into RTL; this reproduction stops at
//! the generated source.
//!
//! A node's loop nest comes from its [`ComputeProfile`], read from the
//! [`AnalysisManager`] the caller lends ([`emit_schedule_with`]) — in a
//! compilation, the one the pass pipeline filled.
//!
//! # How it writes
//!
//! Emission copies bytes; nothing goes through `core::fmt`.
//!
//! * Every line is one `put!` of pieces: text, numbers (trip counts,
//!   dimensions, factors, value indexes, written digit by digit), indents
//!   and a type's C++ spelling.
//! * Names go through a table filled by one walk over the schedule bodies: each
//!   node's and buffer's C++ identifier is written once (`push_name` copies
//!   the runs between the characters it replaces), and every use after that —
//!   a buffer's comment, declarator and pragmas, a node's function and its
//!   call, a call's operands — copies it from the table.
//! * The output and the table are written into buffers that belong to the
//!   thread and keep their capacity from one emission to the next. What
//!   leaves is one `String` of exactly the output's length: on a thread that
//!   has emitted a design as large before, that copy is the emitter's one
//!   allocation (computing a compute profile the cache lacks is not the
//!   emitter's).

use hida_dataflow_ir::op_names;
use hida_dataflow_ir::structural::{BufferOp, ScheduleOp};
use hida_dialects::analysis::ComputeProfile;
use hida_dialects::hls::{self, MemoryKind, PartitionFashion};
use hida_dialects::loops::{self, ForOp};
use hida_dialects::transforms;
use hida_ir_core::analysis::AnalysisManager;
use hida_ir_core::{Attribute, Context, OpId, Type, ValueId};
use std::cell::Cell;

const BANNER: &str = "// Generated by the HIDA reproduction HLS C++ emitter.\n";

thread_local! {
    /// This thread's output buffer and name table, kept with their capacity
    /// between emissions and taken out for the length of one.
    static SCRATCH: Cell<Scratch> = Cell::default();
}

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
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        scratch.emit(ctx, schedule, analyses);
        let cpp = scratch.out.as_str().to_owned();
        cell.set(scratch);
        cpp
    })
}

/// What an emission writes into.
#[derive(Default)]
struct Scratch {
    out: String,
    names: Names,
}

impl Scratch {
    fn emit(&mut self, ctx: &Context, schedule: ScheduleOp, analyses: &mut AnalysisManager) {
        let Scratch { out, names } = self;
        names.fill(ctx, schedule);
        out.clear();
        out.push_str(BANNER);
        out.push_str("#include <ap_int.h>\n#include <hls_stream.h>\n#include <cstring>\n\n");
        for named in names.ops.iter() {
            let name = names.name(named);
            match named.kind {
                Kind::Buffer => {}
                Kind::Leaf => {
                    let profile = analyses.get::<ComputeProfile>(ctx, named.op);
                    emit_node_function(ctx, named.op, name, &profile, out);
                }
                Kind::Holds(inner) => {
                    emit_composed_function(ctx, named.op, name, inner, names, out)
                }
            }
        }
        emit_top_function(ctx, schedule, names, out);
    }
}

/// The C++ identifiers of one schedule's nodes and buffers, and of those of
/// the schedules its nodes hold.
#[derive(Default)]
struct Names {
    /// The identifiers, back to back.
    text: String,
    /// The nodes and buffers of the schedule bodies, in program order — the
    /// entries of a schedule a node holds right before that node's.
    ops: Vec<Named>,
    /// Each buffer with its position in `ops`, ordered by op id: what a
    /// node call's operands resolve through.
    buffers: Vec<(OpId, u32)>,
}

/// A node or a buffer, the schedule it is in, and where its identifier lies
/// in [`Names::text`].
struct Named {
    op: OpId,
    schedule: OpId,
    kind: Kind,
    start: u32,
    end: u32,
}

/// What a [`Named`] op is.
#[derive(Clone, Copy)]
enum Kind {
    Buffer,
    /// A node the node model's loop nest stands for.
    Leaf,
    /// A node that holds a schedule ([`ScheduleOp::first_within`]).
    Holds(ScheduleOp),
}

impl Names {
    /// Walks the schedule body once, writing the identifier of each node and
    /// buffer.
    fn fill(&mut self, ctx: &Context, schedule: ScheduleOp) {
        self.text.clear();
        self.ops.clear();
        self.buffers.clear();
        self.fill_level(ctx, schedule);
        self.buffers.sort_unstable();
    }

    /// One schedule body; a node that holds a schedule has it walked first.
    fn fill_level(&mut self, ctx: &Context, schedule: ScheduleOp) {
        for &op in ctx.block(schedule.body(ctx)).ops.iter() {
            let kind = match ctx.op(op).name.as_str() {
                op_names::NODE => match ScheduleOp::first_within(ctx, op) {
                    Some(inner) => {
                        self.fill_level(ctx, inner);
                        Kind::Holds(inner)
                    }
                    None => Kind::Leaf,
                },
                op_names::BUFFER => {
                    self.buffers.push((op, self.ops.len() as u32));
                    Kind::Buffer
                }
                _ => continue,
            };
            let start = self.text.len() as u32;
            match kind {
                Kind::Buffer => push_buffer_name(&mut self.text, ctx, op),
                _ => push_op_name(&mut self.text, ctx, op, "node_name", "node"),
            }
            let end = self.text.len() as u32;
            self.ops.push(Named {
                op,
                schedule: schedule.id(),
                kind,
                start,
                end,
            });
        }
    }

    fn name(&self, named: &Named) -> &str {
        &self.text[named.start as usize..named.end as usize]
    }

    /// The buffers (`nodes` false) or the nodes of `schedule`, in order.
    fn of(&self, schedule: ScheduleOp, nodes: bool) -> impl Iterator<Item = &Named> {
        self.ops.iter().filter(move |named| {
            named.schedule == schedule.id() && !matches!(named.kind, Kind::Buffer) == nodes
        })
    }

    /// The identifier of buffer `op`, when it is one of this schedule's.
    fn buffer(&self, op: OpId) -> Option<&str> {
        let at = self
            .buffers
            .binary_search_by_key(&op, |&(buffer, _)| buffer)
            .ok()?;
        Some(self.name(&self.ops[self.buffers[at].1 as usize]))
    }
}

/// Writes each piece after the other into `out`: see [`Piece`].
macro_rules! put {
    ($out:expr, $($piece:expr),+ $(,)?) => {{
        let out: &mut String = $out;
        $(Piece::put($piece, out);)+
    }};
}

/// Something the emitter writes: text as it is, a number in decimal (as
/// `{n}` would format it, without `core::fmt`), an indent, or a type's
/// parts.
trait Piece {
    fn put(self, out: &mut String);
}

impl Piece for &str {
    fn put(self, out: &mut String) {
        out.push_str(self);
    }
}

impl Piece for i64 {
    fn put(self, out: &mut String) {
        if self < 0 {
            out.push('-');
        }
        let mut n = self.unsigned_abs();
        let mut digits = [0_u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        for &digit in &digits[at..] {
            out.push(char::from(digit));
        }
    }
}

impl Piece for usize {
    fn put(self, out: &mut String) {
        (self as i64).put(out);
    }
}

/// Two spaces per level.
#[derive(Clone, Copy)]
struct Indent(usize);

impl Piece for Indent {
    fn put(self, out: &mut String) {
        const SPACES: &str = "                                ";
        let mut width = 2 * self.0;
        while width > SPACES.len() {
            out.push_str(SPACES);
            width -= SPACES.len();
        }
        out.push_str(&SPACES[..width]);
    }
}

/// The C++ element type of a type: at least a byte wide.
struct CppType<'a>(&'a Type);

impl Piece for CppType<'_> {
    fn put(self, out: &mut String) {
        let bits = self.0.elem_bit_width().max(8);
        match self.0.elem_type() {
            Type::Float(_) if bits <= 32 => out.push_str("float"),
            Type::Float(_) => out.push_str("double"),
            _ => put!(out, "ap_int<", i64::from(bits), ">"),
        }
    }
}

/// The shape of a type as C array dimensions.
struct Dims<'a>(&'a Type);

impl Piece for Dims<'_> {
    fn put(self, out: &mut String) {
        for &dim in self.0.shape().unwrap_or_default() {
            put!(out, "[", dim, "]");
        }
    }
}

/// Writes `name` as a C++ identifier — the one place a name of the IR (a
/// schedule's, a node's, a buffer's, a function's) becomes one. A name that
/// starts with a digit (PolyBench's `2mm`) gains a leading `k`: not `_`,
/// which at global scope would make a reserved identifier of `_2mm_top`.
fn push_name(out: &mut String, name: &str) {
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('k');
    }
    // The replaced characters are ASCII, so every split is a char boundary.
    let mut rest = name;
    while let Some(at) = rest
        .bytes()
        .position(|b| matches!(b, b'-' | b'+' | b'.' | b' '))
    {
        put!(out, &rest[..at], "_");
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Writes the name `op` carries in `attr`, or `<fallback><op index>` for an
/// op without one.
fn push_op_name(out: &mut String, ctx: &Context, op: OpId, attr: &str, fallback: &str) {
    match ctx.op(op).attr_str(attr) {
        Some(name) => push_name(out, name),
        None => put!(out, fallback, op.index()),
    }
}

fn push_buffer_name(out: &mut String, ctx: &Context, buffer: OpId) {
    push_op_name(out, ctx, buffer, "buffer_name", "buf");
}

/// The opening of a node's function: `arg<i>` for its operand `i`.
fn emit_node_signature(ctx: &Context, node: OpId, name: &str, out: &mut String) {
    put!(out, "void ", name, "(");
    for (i, &operand) in ctx.op(node).operands.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let ty = ctx.value_type(operand);
        put!(out, CppType(ty), " arg", i, Dims(ty));
    }
    out.push_str(") {\n#pragma HLS inline off\n");
}

/// A node's function: its arguments, then the loop nest skeleton from its
/// profile and unroll factors.
fn emit_node_function(
    ctx: &Context,
    node: OpId,
    name: &str,
    profile: &ComputeProfile,
    out: &mut String,
) {
    emit_node_signature(ctx, node, name, out);

    let depth = profile.loop_dims.len();
    let unroll = transforms::unroll_factors_of(ctx, node, depth);
    for (i, dim) in profile.loop_dims.iter().enumerate() {
        open_for(out, i, dim.trip);
        let factor = unroll.get(i).copied().unwrap_or(1);
        if factor > 1 {
            put!(
                out,
                Indent(i + 1),
                "#pragma HLS unroll factor=",
                factor,
                "\n"
            );
        }
        if i + 1 == depth {
            put!(out, Indent(i + 1), "#pragma HLS pipeline II=1\n");
        }
    }
    put!(out, Indent(depth + 1), "// compute body (", profile.macs);
    out.push_str(" MACs per frame)\n");
    close_function(out, depth);
}

/// Opens loop `i` of a function body, whose own body is one level deeper.
fn open_for(out: &mut String, i: usize, trip: i64) {
    put!(out, Indent(i + 1), "for (int i", i, " = 0; i", i);
    put!(out, " < ", trip, "; ++i", i, ") {\n");
}

/// Closes `depth` loops and the function around them.
fn close_function(out: &mut String, depth: usize) {
    for i in (0..depth).rev() {
        put!(out, Indent(i + 1), "}\n");
    }
    out.push_str("}\n\n");
}

fn emit_top_function(ctx: &Context, schedule: ScheduleOp, names: &Names, out: &mut String) {
    out.push_str("void ");
    match ctx.op(schedule.id()).attr_str("schedule_name") {
        Some(name) => push_name(out, name),
        None => out.push_str("design"),
    }
    out.push_str("_top() {\n");
    emit_dataflow_region(ctx, schedule, names, 0, out);
    out.push_str("}\n");
}

/// The function of a node that holds `schedule`: the schedule's dataflow
/// region inside the `affine.for` loops around it.
fn emit_composed_function(
    ctx: &Context,
    node: OpId,
    name: &str,
    schedule: ScheduleOp,
    names: &Names,
    out: &mut String,
) {
    emit_node_signature(ctx, node, name, out);
    let depth = open_loops(ctx, schedule.id(), node, out);
    emit_dataflow_region(ctx, schedule, names, depth, out);
    close_function(out, depth);
}

/// Opens the `affine.for` loops between `node` and `op`, outermost first;
/// returns how many.
fn open_loops(ctx: &Context, op: OpId, node: OpId, out: &mut String) -> usize {
    let Some(parent) = ctx.parent_op(op).filter(|&parent| parent != node) else {
        return 0;
    };
    let depth = open_loops(ctx, parent, node, out);
    if !ctx.op(parent).is(loops::FOR) {
        return depth;
    }
    open_for(out, depth, ForOp(parent).trip_count(ctx));
    depth + 1
}

/// A `#pragma HLS dataflow` region of `schedule` inside `depth` loops: its
/// buffers declared, then its nodes called.
fn emit_dataflow_region(
    ctx: &Context,
    schedule: ScheduleOp,
    names: &Names,
    depth: usize,
    out: &mut String,
) {
    put!(out, Indent(depth), "#pragma HLS dataflow\n");
    for named in names.of(schedule, false) {
        emit_buffer(ctx, BufferOp(named.op), names.name(named), depth, out);
    }
    for named in names.of(schedule, true) {
        put!(out, Indent(depth + 1), names.name(named), "(");
        for (i, &operand) in ctx.op(named.op).operands.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_value_name(out, ctx, names, operand);
        }
        out.push_str(");\n");
    }
}

fn push_value_name(out: &mut String, ctx: &Context, names: &Names, value: ValueId) {
    if let Some(op) = ctx.value(value).defining_op() {
        return match names.buffer(op) {
            Some(name) => out.push_str(name),
            // A buffer from outside the schedule.
            None if ctx.op(op).is(op_names::BUFFER) => push_buffer_name(out, ctx, op),
            None => put!(out, "v", value.index()),
        };
    }
    // A body argument of a nested schedule is the operand it mirrors; one of
    // the node that holds the schedule is that node function's parameter.
    let block = ctx.value(value).owner_block().map(|block| ctx.block(block));
    let owner = block
        .and_then(|block| block.parent_region)
        .and_then(|region| ctx.region(region).parent_op);
    let at = block.and_then(|block| block.args.iter().position(|&arg| arg == value));
    let Some((owner, at)) = owner.zip(at) else {
        return put!(out, "arg", value.index());
    };
    match ctx.op(owner).operands.get(at) {
        Some(&operand) if ctx.op(owner).is(op_names::SCHEDULE) => {
            push_value_name(out, ctx, names, operand)
        }
        _ if ctx.op(owner).is(op_names::NODE) => put!(out, "arg", at),
        _ => put!(out, "arg", value.index()),
    }
}

/// A buffer's declaration and directives inside `depth` loops.
fn emit_buffer(ctx: &Context, buffer: BufferOp, name: &str, depth: usize, out: &mut String) {
    let ty = ctx.value_type(buffer.value(ctx));
    let (inner, pragma) = (Indent(depth + 1), Indent(depth));
    let declare = |out: &mut String| {
        put!(out, inner, "static ", CppType(ty), " ", name);
        put!(out, Dims(ty), ";\n");
    };
    if buffer.memory_kind(ctx) == MemoryKind::External {
        put!(out, inner, "// ", name);
        out.push_str(": soft FIFO in external memory (AXI master)\n");
        declare(out);
        put!(out, pragma, "#pragma HLS interface m_axi port=", name);
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
            put!(out, pragma, "#pragma HLS array_partition variable=", name);
            put!(out, " ", fashion.as_str(), " factor=", factor);
            put!(out, " dim=", dim + 1, "\n");
        }
    }
    let stages = buffer.depth(ctx);
    if stages >= 2 {
        put!(out, pragma, "#pragma HLS stream variable=", name);
        put!(out, " depth=", stages, "\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};
    use hida_ir_core::Context;
    use hida_opt::{HidaOptions, Pipeline};

    fn optimized(kernel: PolybenchKernel, size: i64) -> (Context, ScheduleOp) {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, kernel, size);
        let schedule = Pipeline::from_options(&HidaOptions::polybench())
            .run(&mut ctx, func)
            .unwrap();
        (ctx, schedule)
    }

    fn optimized_schedule() -> (Context, ScheduleOp) {
        optimized(PolybenchKernel::TwoMm, 32)
    }

    /// What `emit_schedule` gives on a thread that has emitted nothing.
    fn emitted_on_a_fresh_thread(ctx: &Context, schedule: ScheduleOp) -> String {
        std::thread::scope(|s| s.spawn(|| emit_schedule(ctx, schedule)).join().unwrap())
    }

    /// The thread's buffer and name table carry nothing from one emission
    /// into the next: a large and a small design emitted in turn on one
    /// thread each read what a fresh thread emits for them.
    #[test]
    fn alternating_designs_on_one_thread_emit_what_a_fresh_thread_does() {
        let (large_ctx, large) = optimized(PolybenchKernel::ThreeMm, 64);
        let (small_ctx, small) = optimized(PolybenchKernel::Gesummv, 16);
        let want_large = emitted_on_a_fresh_thread(&large_ctx, large);
        let want_small = emitted_on_a_fresh_thread(&small_ctx, small);
        assert!(want_large.len() > want_small.len());
        for _ in 0..3 {
            assert_eq!(emit_schedule(&large_ctx, large), want_large);
            assert_eq!(emit_schedule(&small_ctx, small), want_small);
        }
    }

    /// Each thread writes into its own buffer: one design emitted on two
    /// threads at once reads the same on both, every time.
    #[test]
    fn one_design_on_two_threads_at_once_emits_what_a_fresh_thread_does() {
        let (ctx, schedule) = optimized(PolybenchKernel::ThreeMm, 64);
        let want = emitted_on_a_fresh_thread(&ctx, schedule);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..50).all(|_| emit_schedule(&ctx, schedule) == want)
                    })
                })
                .collect();
            for worker in workers {
                assert!(worker.join().unwrap());
            }
        });
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
            put!(&mut out, CppType(&ty));
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
