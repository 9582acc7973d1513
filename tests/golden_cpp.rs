//! Emitted C++ is output format: the files under `tests/golden/` were written
//! by the build before the emitter stopped building its lines out of
//! temporary `String`s, and every later build must reproduce them byte for
//! byte.

use hida::{Compiler, HidaOptions, Model, PolybenchKernel, Workload};

/// The Fig. 10 point `pf64-tile8`, as `benchmark/` spells it.
const RESNET_PF64_TILE8: &str = "construct,fusion,lower,multi-producer-elim,\
    tiling{factor=8,external-threshold-bytes=65536},balance{external-threshold-bytes=65536},\
    parallelize{max-factor=64,mode=IA+CA,device=vu9p-slr}";

fn cpp(compiler: Compiler, workload: Workload) -> String {
    compiler.compile(workload).expect("compiles").hls_cpp
}

#[test]
fn two_mm_emits_the_golden_cpp() {
    let got = cpp(
        Compiler::polybench_defaults(),
        Workload::Polybench(PolybenchKernel::TwoMm),
    );
    assert_eq!(got, include_str!("golden/two_mm.cpp"));
}

#[test]
fn lenet_emits_the_golden_cpp() {
    let got = cpp(Compiler::dnn_defaults(), Workload::Model(Model::LeNet));
    assert_eq!(got, include_str!("golden/lenet.cpp"));
}

#[test]
fn resnet18_at_pf64_tile8_emits_the_golden_cpp() {
    let got = cpp(
        Compiler::new(HidaOptions::dnn()).with_pipeline(RESNET_PF64_TILE8),
        Workload::Model(Model::ResNet18),
    );
    assert_eq!(got, include_str!("golden/resnet18_pf64_tile8.cpp"));
}
