//! Compile a ResNet-18 accelerator (the paper's flagship DNN workload) and compare
//! the HIDA design against the ScaleHLS-style baseline: throughput, DSP efficiency
//! and on-chip memory, demonstrating the effect of shortcut-path balancing and
//! connection-aware parallelization.
//!
//! Run with `cargo run --release --example resnet_accelerator`.

use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::Context;
use hida::{Compiler, FpgaDevice, Model, Workload};

fn main() {
    let device = FpgaDevice::vu9p_slr();

    println!("== Compiling ResNet-18 with HIDA (VU9P SLR) ==");
    let hida = Compiler::dnn_defaults()
        .compile(Workload::Model(Model::ResNet18))
        .expect("hida compilation");
    println!("compile time   : {:.1} s", hida.compile_seconds);
    println!("dataflow nodes : {}", hida.schedule.nodes(&hida.ctx).len());
    println!(
        "throughput     : {:.2} images/s",
        hida.estimate.throughput()
    );
    println!(
        "DSP efficiency : {:.1}%",
        100.0 * hida.estimate.dsp_efficiency()
    );
    println!(
        "resources      : {} DSP, {} BRAM-18K",
        hida.estimate.resources.dsp, hida.estimate.resources.bram_18k
    );

    println!("\n== ScaleHLS-style baseline ==");
    let mut ctx = Context::new();
    let module = ctx.create_module("scalehls");
    let func = hida::frontend::nn::build_model(&mut ctx, module, Model::ResNet18);
    let schedule =
        hida::baselines::scalehls::compile(&mut ctx, func, 64).expect("scalehls compilation");
    let scale = DataflowEstimator::new(device).estimate_schedule(&ctx, schedule, true);
    println!("throughput     : {:.2} images/s", scale.throughput());
    println!("DSP efficiency : {:.1}%", 100.0 * scale.dsp_efficiency());
    println!(
        "resources      : {} DSP, {} BRAM-18K",
        scale.resources.dsp, scale.resources.bram_18k
    );

    println!(
        "\nHIDA vs ScaleHLS: {:.2}x throughput, {:.1}x less BRAM",
        hida.estimate.speedup_over(&scale),
        scale.resources.bram_18k.max(1) as f64 / hida.estimate.resources.bram_18k.max(1) as f64
    );
}
