//! The `Debug` text of a compile's two estimates is output format: the
//! repository benchmark digests `format!("{:?}")` of `estimate` and
//! `estimate_sequential` to check that a design did not change. The files
//! under `tests/golden/` were written by the build from before an estimate
//! named its node by an interned symbol instead of an owned string, and
//! every later build must reproduce them byte for byte.

use hida::{CompilationResult, Compiler, HidaOptions, Model, PolybenchKernel, Workload};

/// The Fig. 10 point `pf64-tile8`, as `benchmark/` spells it.
const RESNET_PF64_TILE8: &str = "construct,fusion,lower,multi-producer-elim,\
    tiling{factor=8,external-threshold-bytes=65536},balance{external-threshold-bytes=65536},\
    parallelize{max-factor=64,mode=IA+CA,device=vu9p-slr}";

/// One line per estimate, as the benchmark formats them.
fn debug_text(result: &CompilationResult) -> String {
    format!("{:?}\n{:?}\n", result.estimate, result.estimate_sequential)
}

#[test]
fn two_mm_estimates_print_the_golden_debug_text() {
    let result = Compiler::polybench_defaults()
        .compile(Workload::Polybench(PolybenchKernel::TwoMm))
        .expect("compiles");
    assert_eq!(
        debug_text(&result),
        include_str!("golden/two_mm.estimates.txt")
    );
}

#[test]
fn resnet18_at_pf64_tile8_estimates_print_the_golden_debug_text() {
    let result = Compiler::new(HidaOptions::dnn())
        .with_pipeline(RESNET_PF64_TILE8)
        .compile(Workload::Model(Model::ResNet18))
        .expect("compiles");
    assert_eq!(
        debug_text(&result),
        include_str!("golden/resnet18_pf64_tile8.estimates.txt")
    );
}
