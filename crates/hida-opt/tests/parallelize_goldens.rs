//! The printed IR after the full pipeline — every attribute `parallelize`
//! writes included — of four Fig. 10 / Fig. 11 design points, pinned byte
//! for byte. `tests/snapshots/*.hir` were written by the build from before
//! Algorithm 4 kept its books in per-pass buffers and wrote its decisions
//! through pre-interned keys; every later build must reproduce them.

use hida_frontend::nn::{build_model, Model};
use hida_ir_core::printer::print_op;
use hida_ir_core::Context;
use hida_opt::{registry, Pipeline};

/// The pipeline of one grid point, as `benchmark/` spells it.
fn point(tile: i64, max_factor: i64, mode: &str) -> String {
    format!(
        "construct,fusion,lower,multi-producer-elim,\
         tiling{{factor={tile},external-threshold-bytes=65536}},\
         balance{{external-threshold-bytes=65536}},\
         parallelize{{max-factor={max_factor},mode={mode},device=vu9p-slr}}"
    )
}

fn printed_ir(model: Model, pipeline: &str) -> String {
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let func = build_model(&mut ctx, module, model);
    Pipeline::parse(&registry(), pipeline)
        .expect("a well-formed pipeline")
        .run(&mut ctx, func)
        .expect("compiles");
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
fn resnet18_at_ia_ca_pf64_tile8_prints_the_golden_ir() {
    let got = printed_ir(Model::ResNet18, &point(8, 64, "IA+CA"));
    let golden = include_str!("snapshots/resnet18_iaca_pf64_tile8.hir");
    assert_golden(&got, golden, "resnet18 IA+CA pf64-tile8");
}

#[test]
fn resnet18_at_ia_ca_pf256_tile2_prints_the_golden_ir() {
    let got = printed_ir(Model::ResNet18, &point(2, 256, "IA+CA"));
    let golden = include_str!("snapshots/resnet18_iaca_pf256_tile2.hir");
    assert_golden(&got, golden, "resnet18 IA+CA pf256-tile2");
}

#[test]
fn mobilenet_at_naive_pf256_prints_the_golden_ir() {
    let got = printed_ir(Model::MobileNetV1, &point(16, 256, "Naive"));
    let golden = include_str!("snapshots/mobilenet_naive_pf256_tile16.hir");
    assert_golden(&got, golden, "mobilenet Naive pf256");
}

#[test]
fn mobilenet_at_ca_pf64_prints_the_golden_ir() {
    let got = printed_ir(Model::MobileNetV1, &point(16, 64, "CA"));
    let golden = include_str!("snapshots/mobilenet_ca_pf64_tile16.hir");
    assert_golden(&got, golden, "mobilenet CA pf64");
}
