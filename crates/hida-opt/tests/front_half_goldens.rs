//! The printed IR after the front half of the pipeline — `construct`,
//! `fusion`, `lower` — of every DNN model, every PolyBench kernel of Table 7
//! and both `examples/*.hir`, and after `fusion,lower` alone (lowering bare
//! loop nests) of 2mm, pinned byte for byte. `tests/snapshots/front_half/`
//! was written by the build from before tasks merged in one move; every
//! later build must reproduce it.

use hida_frontend::nn::{build_model, Model};
use hida_frontend::polybench::{build_kernel, PolybenchKernel};
use hida_ir_core::printer::print_op;
use hida_ir_core::{op_names, Context, OpId};
use hida_opt::{registry, Pipeline};

const FRONT_HALF: &str = "construct,fusion,lower";

/// Each subject's snapshot, by the file name it is stored under.
const GOLDENS: [(&str, &str); 20] = [
    ("lenet", include_str!("snapshots/front_half/lenet.hir")),
    (
        "resnet_18",
        include_str!("snapshots/front_half/resnet_18.hir"),
    ),
    (
        "mobilenet",
        include_str!("snapshots/front_half/mobilenet.hir"),
    ),
    ("zfnet", include_str!("snapshots/front_half/zfnet.hir")),
    ("vgg_16", include_str!("snapshots/front_half/vgg_16.hir")),
    ("yolo", include_str!("snapshots/front_half/yolo.hir")),
    ("mlp", include_str!("snapshots/front_half/mlp.hir")),
    ("2mm", include_str!("snapshots/front_half/2mm.hir")),
    ("3mm", include_str!("snapshots/front_half/3mm.hir")),
    ("atax", include_str!("snapshots/front_half/atax.hir")),
    ("bicg", include_str!("snapshots/front_half/bicg.hir")),
    (
        "correlation",
        include_str!("snapshots/front_half/correlation.hir"),
    ),
    ("gesummv", include_str!("snapshots/front_half/gesummv.hir")),
    (
        "jacobi_2d",
        include_str!("snapshots/front_half/jacobi_2d.hir"),
    ),
    ("mvt", include_str!("snapshots/front_half/mvt.hir")),
    (
        "seidel_2d",
        include_str!("snapshots/front_half/seidel_2d.hir"),
    ),
    ("symm", include_str!("snapshots/front_half/symm.hir")),
    ("syr2k", include_str!("snapshots/front_half/syr2k.hir")),
    (
        "example_two_mm",
        include_str!("snapshots/front_half/example_two_mm.hir"),
    ),
    (
        "example_attention",
        include_str!("snapshots/front_half/example_attention.hir"),
    ),
];

/// Every subject as `(snapshot name, context, module)`, before any pass.
fn subjects() -> Vec<(String, Context, OpId)> {
    let file_name = |name: &str| name.replace('-', "_");
    let mut subjects = Vec::new();
    for model in Model::all() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        build_model(&mut ctx, module, model);
        subjects.push((file_name(model.name()), ctx, module));
    }
    for kernel in PolybenchKernel::all() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        build_kernel(&mut ctx, module, kernel, kernel.default_size());
        subjects.push((file_name(kernel.name()), ctx, module));
    }
    for (name, text) in [
        (
            "example_two_mm",
            include_str!("../../../examples/two_mm.hir"),
        ),
        (
            "example_attention",
            include_str!("../../../examples/attention.hir"),
        ),
    ] {
        let (ctx, module) = hida_ir_core::parse_module(text).expect("the example parses");
        subjects.push((name.to_string(), ctx, module));
    }
    subjects
}

/// `module` printed after `pipeline` ran on its first function.
fn printed_after(pipeline: &str, mut ctx: Context, module: OpId) -> String {
    let func = ctx
        .find_in_body(module, op_names::FUNC)
        .expect("a workload function");
    Pipeline::parse(&registry(), pipeline)
        .expect("a well-formed pipeline")
        .run(&mut ctx, func)
        .expect("lowers");
    print_op(&ctx, module)
}

fn assert_golden(got: &str, golden: &str, name: &str) {
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(golden.lines().count()));
        panic!(
            "{name}: printed IR drifted from the golden at line {}:\n  now:    {:?}\n  golden: {:?}",
            line + 1,
            got.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

#[test]
fn the_front_half_prints_the_golden_ir_of_every_subject() {
    let subjects = subjects();
    assert_eq!(subjects.len(), GOLDENS.len());
    for ((name, ctx, module), (golden_name, golden)) in subjects.into_iter().zip(GOLDENS) {
        assert_eq!(name, golden_name, "subjects and goldens are in one order");
        assert_golden(&printed_after(FRONT_HALF, ctx, module), golden, &name);
    }
}

#[test]
fn lowering_bare_loop_nests_prints_the_golden_ir() {
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let kernel = PolybenchKernel::TwoMm;
    build_kernel(&mut ctx, module, kernel, kernel.default_size());
    let golden = include_str!("snapshots/front_half/2mm_without_construct.hir");
    assert_golden(
        &printed_after("fusion,lower", ctx, module),
        golden,
        "2mm without construct",
    );
}
