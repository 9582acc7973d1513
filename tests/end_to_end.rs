//! Cross-crate integration tests: front-end → HIDA-OPT → estimator → emitter,
//! exercising the headline claims of the paper at small scale.

use hida::{Compiler, FpgaDevice, HidaOptions, Model, ParallelMode, PolybenchKernel, Workload};

#[test]
fn every_polybench_kernel_compiles_and_dataflow_never_hurts() {
    for kernel in PolybenchKernel::all() {
        let result = Compiler::polybench_defaults()
            .compile(Workload::PolybenchSized(kernel, 32))
            .unwrap_or_else(|e| panic!("{} failed: {e}", kernel.name()));
        assert!(
            result.estimate.throughput() >= result.estimate_sequential.throughput() * 0.99,
            "{}: dataflow {} < sequential {}",
            kernel.name(),
            result.estimate.throughput(),
            result.estimate_sequential.throughput()
        );
        assert!(result.hls_cpp.contains("#pragma HLS dataflow"));
        hida::ir::verifier::verify(
            &result.ctx,
            result.ctx.ancestors(result.func).pop().unwrap(),
        )
        .unwrap();
    }
}

#[test]
fn multi_loop_kernels_benefit_from_dataflow_single_loop_kernels_do_not() {
    // The paper: HIDA matches ScaleHLS on single-loop kernels and wins on multi-loop
    // kernels. Here: the dataflow/sequential gap exists only for multi-loop kernels.
    let gap = |kernel: PolybenchKernel| {
        let r = Compiler::polybench_defaults()
            .compile(Workload::PolybenchSized(kernel, 32))
            .unwrap();
        r.estimate.throughput() / r.estimate_sequential.throughput()
    };
    assert!(gap(PolybenchKernel::ThreeMm) > 1.5);
    assert!(gap(PolybenchKernel::TwoMm) > 1.3);
    assert!((gap(PolybenchKernel::Gesummv) - 1.0).abs() < 0.01);
    assert!((gap(PolybenchKernel::Symm) - 1.0).abs() < 0.01);
}

#[test]
fn every_model_in_the_zoo_compiles_end_to_end() {
    for model in [
        Model::LeNet,
        Model::Mlp,
        Model::MobileNetV1,
        Model::ResNet18,
    ] {
        let result = Compiler::dnn_defaults()
            .compile(Workload::Model(model))
            .unwrap_or_else(|e| panic!("{} failed: {e}", model.name()));
        assert!(
            result.schedule.nodes(&result.ctx).len() >= 2,
            "{}",
            model.name()
        );
        assert!(result.estimate.macs_per_sample > 0);
        assert!(result.estimate.dsp_efficiency() > 0.0);
        assert!(result.estimate.dsp_efficiency() < 1.5);
    }
}

#[test]
fn hida_beats_the_scalehls_baseline_on_resnet18() {
    // Table 8: HIDA reports 13.9x throughput and 14.2x DSP efficiency over ScaleHLS
    // on ResNet-18, driven by shortcut balancing and memory tiling. We require a
    // clear win (>= 1.5x) rather than the exact factor.
    let device = FpgaDevice::vu9p_slr();
    let hida = Compiler::dnn_defaults()
        .compile(Workload::Model(Model::ResNet18))
        .unwrap();

    let scale = Compiler::dnn_defaults()
        .with_pipeline(hida::baselines::scalehls::pipeline(64, &device))
        .compile(Workload::Model(Model::ResNet18))
        .unwrap()
        .estimate;

    assert!(
        hida.estimate.speedup_over(&scale) > 1.5,
        "hida {:.2} vs scalehls {:.2}",
        hida.estimate.throughput(),
        scale.throughput()
    );
    // And the memory reduction of Figure 9.
    assert!(
        scale.resources.bram_18k > hida.estimate.resources.bram_18k,
        "hida should use less on-chip memory ({} vs {})",
        hida.estimate.resources.bram_18k,
        scale.resources.bram_18k
    );
}

#[test]
fn iaca_parallelization_scales_better_than_naive() {
    // Figure 11: at large parallel factors only IA+CA keeps resource growth in check.
    let compile = |mode: ParallelMode| {
        let options = HidaOptions {
            max_parallel_factor: 64,
            ..HidaOptions::dnn()
        };
        let text = options.pipeline_text();
        let text = text.replace("mode=IA+CA", &format!("mode={}", mode.label()));
        Compiler::new(options)
            .with_pipeline(text)
            .compile(Workload::Model(Model::LeNet))
            .unwrap()
            .estimate
    };
    let iaca = compile(ParallelMode::IaCa);
    let naive = compile(ParallelMode::Naive);
    assert!(
        naive.resources.dsp > iaca.resources.dsp,
        "naive should burn more DSPs ({} vs {})",
        naive.resources.dsp,
        iaca.resources.dsp
    );
    let iaca_eff = iaca.dsp_efficiency();
    let naive_eff = naive.dsp_efficiency();
    assert!(
        iaca_eff > naive_eff,
        "IA+CA efficiency {iaca_eff:.3} must exceed naive {naive_eff:.3}"
    );
}

#[test]
fn generated_cpp_is_structurally_sound_for_every_flow() {
    for workload in [
        Workload::PolybenchSized(PolybenchKernel::Bicg, 32),
        Workload::Model(Model::Mlp),
    ] {
        let result = Compiler::default()
            .with_options(match workload {
                Workload::Model(_) => HidaOptions::dnn(),
                _ => HidaOptions::polybench(),
            })
            .compile(workload)
            .unwrap();
        let cpp = &result.hls_cpp;
        assert_eq!(cpp.matches('{').count(), cpp.matches('}').count());
        assert!(cpp.contains("#pragma HLS dataflow"));
        assert!(cpp.contains("#pragma HLS pipeline"));
    }
}
