//! Regenerates Figure 9: on-chip memory (BRAM) utilization of HIDA vs ScaleHLS for
//! the DNN models both flows support.

use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::Context;
use hida::{Compiler, FpgaDevice, Model, Workload};

fn main() {
    let device = FpgaDevice::vu9p_slr();
    let estimator = DataflowEstimator::new(device.clone());
    println!("# Figure 9 — BRAM-18K usage, HIDA vs ScaleHLS");
    println!("model, hida_bram, scalehls_bram, reduction");
    for model in [
        Model::ResNet18,
        Model::Vgg16,
        Model::Mlp,
        Model::MobileNetV1,
    ] {
        if !hida::baselines::scalehls::supports(model) {
            continue;
        }
        let hida_result = Compiler::dnn_defaults()
            .compile(Workload::Model(model))
            .expect("hida");
        let mut ctx = Context::new();
        let module = ctx.create_module("scalehls");
        let func = hida::frontend::nn::build_model(&mut ctx, module, model);
        let schedule = hida::baselines::scalehls::compile(&mut ctx, func, 64).expect("scalehls");
        let scale = estimator.estimate_schedule(&ctx, schedule, true);

        let hida_bram = hida_result.estimate.resources.bram_18k.max(1);
        let scale_bram = scale.resources.bram_18k.max(1);
        println!(
            "{}, {}, {}, {:.1}x",
            model.name(),
            hida_bram,
            scale_bram,
            scale_bram as f64 / hida_bram as f64
        );
    }
}
