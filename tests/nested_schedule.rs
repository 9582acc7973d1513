//! `examples/nested.hir`: a two-level design whose `tiled` node holds a
//! schedule of its own (tile load, compute and store, four times over), taken
//! through every consumer of the IR — parser, verifier, printer, structural
//! fingerprint, checkpoint fork, the per-schedule dataflow graph, the
//! estimator and the emitter.

use hida::dataflow_ir::graph::DataflowGraph;
use hida::dataflow_ir::op_names;
use hida::dataflow_ir::structural::{build_schedule, NodeOp, ScheduleOp};
use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::{
    parse_module, printer::print_op, structural_fingerprint, verifier, Context, OpBuilder, OpId,
    Type,
};
use hida::{Checkpoint, FpgaDevice};

const TEXT: &str = include_str!("../examples/nested.hir");

/// The parsed, verified example: its context, module and function.
fn parsed() -> (Context, OpId, OpId) {
    let (ctx, module) = parse_module(TEXT).expect("examples/nested.hir parses");
    verifier::verify(&ctx, module).expect("examples/nested.hir verifies");
    let func = ctx.body_ops(module)[0];
    (ctx, module, func)
}

/// The top schedule, the `tiled` node and the schedule it holds.
fn levels(ctx: &Context, func: OpId) -> (ScheduleOp, NodeOp, ScheduleOp) {
    let schedules = ctx.collect_ops(func, op_names::SCHEDULE);
    let [top, inner] = schedules[..] else {
        panic!("two schedules, outermost first: {schedules:?}")
    };
    let (top, inner) = (ScheduleOp(top), ScheduleOp(inner));
    let tiled = top.nodes(ctx)[1];
    assert_eq!(tiled.name(ctx), "tiled");
    assert_eq!(ScheduleOp::first_within(ctx, func), Some(top));
    assert_eq!(ScheduleOp::first_within(ctx, tiled.id()), Some(inner));
    (top, tiled, inner)
}

/// Lifts the stages of `tiled` into the top schedule: the inner schedule's
/// buffers and nodes move in front of the node, each of its body arguments
/// is replaced by the top-level value it stands for, and the node goes.
fn flatten(ctx: &mut Context, func: OpId) {
    let (top, tiled, inner) = levels(ctx, func);
    let node_args = tiled.body_args(ctx);
    let node_operands = tiled.operands(ctx);
    let inner_args = ctx.block(inner.body(ctx)).args.to_vec();
    let inner_operands = ctx.op(inner.id()).operands.to_vec();
    for (arg, operand) in inner_args.into_iter().zip(inner_operands) {
        let at = node_args.iter().position(|&a| a == operand).unwrap();
        ctx.replace_all_uses(arg, node_operands[at]);
    }
    let stages = ctx.body_ops(inner.id());
    let at = ctx.block(top.body(ctx)).position_of(tiled.id()).unwrap();
    ctx.move_ops(&stages, top.body(ctx), at);
    ctx.erase_op(tiled.id());
}

#[test]
fn the_nested_example_parses_verifies_and_reprints_byte_for_byte() {
    let (ctx, module, func) = parsed();
    assert_eq!(print_op(&ctx, module), TEXT);
    let (top, _, inner) = levels(&ctx, func);
    assert_eq!(top.nodes(&ctx).len(), 2);
    assert_eq!(inner.nodes(&ctx).len(), 3);
}

#[test]
fn the_fingerprint_survives_a_round_trip_and_tells_the_levels_apart() {
    let (ctx, module, func) = parsed();
    let fingerprint = structural_fingerprint(&ctx, module);
    let (reparsed, remodule) = parse_module(&print_op(&ctx, module)).unwrap();
    assert_eq!(structural_fingerprint(&reparsed, remodule), fingerprint);

    let mut flat = ctx.clone();
    flatten(&mut flat, func);
    verifier::verify(&flat, module).expect("the flattened design verifies");
    assert_eq!(flat.collect_ops(func, op_names::SCHEDULE).len(), 1);
    assert_ne!(structural_fingerprint(&flat, module), fingerprint);
}

#[test]
fn a_forked_checkpoint_estimates_what_the_original_does() {
    let (ctx, module, func) = parsed();
    let original = Checkpoint::new(ctx, module, func);
    let fork = original.fork();
    let estimator = DataflowEstimator::new(FpgaDevice::zu3eg());
    for dataflow in [true, false] {
        let (top, _, inner) = levels(&original.ctx, func);
        for level in [top.id(), inner.id(), func] {
            let want = estimator.estimate(&original.ctx, level, dataflow);
            let got =
                DataflowEstimator::new(FpgaDevice::zu3eg()).estimate(&fork.ctx, level, dataflow);
            assert_eq!(got, want, "dataflow {dataflow}");
        }
    }
    assert_eq!(
        structural_fingerprint(&fork.ctx, module),
        structural_fingerprint(&original.ctx, module)
    );
}

/// Each schedule's graph is its own: the top one joins `scale` to `tiled`
/// through `y`, the inner one chains the three stages through the tiles.
#[test]
fn each_schedule_has_a_dataflow_graph_of_its_own() {
    let (ctx, _, func) = parsed();
    let (top, tiled, inner) = levels(&ctx, func);
    let outer = DataflowGraph::from_schedule(&ctx, top);
    assert_eq!(outer.nodes().len(), 2);
    assert_eq!(outer.edges().len(), 1);
    assert_eq!(outer.edges()[0].consumer, tiled);
    let stages = DataflowGraph::from_schedule(&ctx, inner);
    let chain: Vec<(String, String)> = stages
        .edges()
        .iter()
        .map(|edge| (edge.producer.name(&ctx), edge.consumer.name(&ctx)))
        .collect();
    assert_eq!(
        chain,
        [
            ("tile_load", "tile_compute"),
            ("tile_compute", "tile_store")
        ]
        .map(|(p, c)| (p.to_string(), c.to_string()))
    );
}

/// The top design: `tiled` costs the inner interval once per trip of its
/// loop plus the inner fill and drain, and each buffer is charged once, at
/// its own level (three 64x64 f32 ping-pong buffers of 16 BRAM18K at the
/// top, two 16x64 of 4 inside).
#[test]
fn the_tiled_node_costs_its_schedule_four_times_over() {
    let (ctx, _, func) = parsed();
    let (top, _, inner) = levels(&ctx, func);
    let estimator = DataflowEstimator::new(FpgaDevice::zu3eg());
    let design = estimator.estimate(&ctx, top.id(), true);
    let stages = estimator.estimate(&ctx, inner.id(), true);
    let tiled = design.node_estimates[1];
    assert_eq!(
        tiled.latency_cycles,
        4 * stages.interval_cycles + (stages.latency_cycles - stages.interval_cycles)
    );
    assert_eq!(tiled.macs, 4 * stages.macs_per_sample);
    assert_eq!(tiled.resources, stages.resources);
    assert_eq!((design.buffer_count, stages.buffer_count), (3, 2));
    assert_eq!(stages.resources.bram_18k, 2 * 4);
    assert_eq!(design.resources.bram_18k, 3 * 16 + 2 * 4);
    // The function is the one node that holds the top schedule, once: one
    // call runs one frame through it, so its interval is the schedule's
    // latency, not the schedule's pipelined interval.
    let whole = estimator.estimate(&ctx, func, true);
    assert_eq!(whole.latency_cycles, design.latency_cycles);
    assert_eq!(whole.interval_cycles, design.latency_cycles);
    assert!(whole.interval_cycles > design.interval_cycles);
    assert_eq!(whole.resources, design.resources);
}

#[test]
fn the_nested_example_emits_the_golden_cpp() {
    let (ctx, _, func) = parsed();
    let (top, _, _) = levels(&ctx, func);
    let cpp = hida::emitter::emit_schedule(&ctx, top);
    assert_eq!(cpp, include_str!("golden/nested.cpp"));
}

/// A node that holds a schedule is made of it alone, so the verifier
/// rejects what the estimator and the emitter would drop: compute beside
/// the schedule, or a second schedule in the node.
#[test]
fn a_node_holds_its_schedule_and_nothing_beside_it() {
    let (ctx, module, func) = parsed();
    let (_, tiled, inner) = levels(&ctx, func);
    let loop_body = ctx.op(inner.id()).parent_block.unwrap();

    let mut beside = ctx.clone();
    OpBuilder::at_block_end(&mut beside, loop_body).create_constant_int(1, Type::i32());
    assert_eq!(
        verifier::verify(&beside, module).unwrap_err().to_string(),
        format!(
            "verification failed: 'hida.schedule' ({}) is not alone in 'hida.node' ({}): \
             a node holds one schedule and nothing beside it",
            inner.id(),
            tiled.id()
        )
    );

    let mut second = ctx.clone();
    let (extra, _) = build_schedule(&mut OpBuilder::at_end_of(&mut second, tiled.id()), "extra");
    let error = verifier::verify(&second, module).unwrap_err().to_string();
    for schedule in [inner.id(), extra.id()] {
        assert!(
            error.contains(&format!("'hida.schedule' ({schedule}) is not alone")),
            "{error}"
        );
    }
}
