//! Regenerates Table 8: DNN models compiled with HIDA vs DNNBuilder and ScaleHLS on
//! one VU9P SLR, reporting throughput and DSP efficiency.
//!
//! The independent HIDA compilations (one per model) fan out through one
//! [`SweepEngine`]. Per-point results equal each model compiled alone — each
//! model compiles in a context of its own, and the results come back in
//! declaration order.

use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::Context;
use hida::{FpgaDevice, HidaOptions, Model, SweepEngine, SweepPoint, Workload};
use hida_bench::{print_throughput_table, Row};

fn main() {
    let device = FpgaDevice::vu9p_slr();
    let estimator = DataflowEstimator::new(device.clone());
    let mut throughput_rows = Vec::new();
    let mut efficiency_rows = Vec::new();

    // All HIDA design points at once: one per model, pooled.
    let models = Model::table8();
    let points: Vec<SweepPoint> = models
        .iter()
        .map(|&model| SweepPoint::new(model.name(), Workload::Model(model), HidaOptions::dnn()))
        .collect();
    let outcome = SweepEngine::new().run(&points);

    println!("# Table 8 — DNN models on one VU9P SLR");
    for (model, point) in models.iter().zip(&outcome.points) {
        let model = *model;
        let Ok(result) = &point.result else { continue };
        let hida_est = &result.estimate;

        // ScaleHLS baseline (only for the models it supports).
        let scalehls = if hida::baselines::scalehls::supports(model) {
            let mut ctx = Context::new();
            let module = ctx.create_module("scalehls");
            let func = hida::frontend::nn::build_model(&mut ctx, module, model);
            let schedule =
                hida::baselines::scalehls::compile(&mut ctx, func, 64).expect("scalehls");
            Some(estimator.estimate_schedule(&ctx, schedule, true))
        } else {
            None
        };

        // DNNBuilder analytic model (only for the models it supports).
        let dnnbuilder =
            hida::baselines::dnnbuilder::estimate(model, hida_est.macs_per_sample, &device);

        println!(
            "{:<12} compile {:>6.1}s LUT {:<8} DSP {:<5} | hida {:>9.2} sps ({:>5.1}% eff) | dnnbuilder {} | scalehls {}",
            model.name(),
            point.seconds,
            hida_est.resources.lut,
            hida_est.resources.dsp,
            hida_est.throughput(),
            100.0 * hida_est.dsp_efficiency(),
            dnnbuilder
                .as_ref()
                .map(|d| format!("{:.2} sps ({:.1}% eff)", d.throughput(), 100.0 * d.dsp_efficiency()))
                .unwrap_or_else(|| "unsupported".into()),
            scalehls
                .as_ref()
                .map(|d| format!("{:.2} sps ({:.1}% eff)", d.throughput(), 100.0 * d.dsp_efficiency()))
                .unwrap_or_else(|| "unsupported".into()),
        );

        throughput_rows.push(Row {
            name: model.name().to_string(),
            columns: vec![
                ("HIDA".into(), Some(hida_est.throughput())),
                (
                    "DNNBuilder".into(),
                    dnnbuilder.as_ref().map(|d| d.throughput()),
                ),
                ("ScaleHLS".into(), scalehls.as_ref().map(|d| d.throughput())),
            ],
        });
        efficiency_rows.push(Row {
            name: model.name().to_string(),
            columns: vec![
                ("HIDA".into(), Some(hida_est.dsp_efficiency())),
                (
                    "DNNBuilder".into(),
                    dnnbuilder.as_ref().map(|d| d.dsp_efficiency()),
                ),
                (
                    "ScaleHLS".into(),
                    scalehls.as_ref().map(|d| d.dsp_efficiency()),
                ),
            ],
        });
    }
    print_throughput_table("Table 8 throughput (samples/s)", &throughput_rows);
    print_throughput_table("Table 8 DSP efficiency", &efficiency_rows);
    hida_bench::print_sweep_summary(&outcome);
    if hida_bench::report_failures(&outcome) {
        std::process::exit(1);
    }
}
