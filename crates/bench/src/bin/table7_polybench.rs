//! Regenerates Table 7: PolyBench C++ kernels compiled with HIDA vs the ScaleHLS,
//! SOFF and Vitis-only baselines on the ZU3EG device.
//!
//! The independent HIDA compilations (one per kernel) fan out through one
//! [`SweepEngine`]; the analytic baselines then run sequentially against the
//! same estimator.

use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::Context;
use hida::{FpgaDevice, HidaOptions, PolybenchKernel, SweepEngine, SweepPoint, Workload};
use hida_bench::{print_throughput_table, Row};

fn main() {
    let device = FpgaDevice::zu3eg();
    let estimator = DataflowEstimator::new(device.clone());
    let mut rows = Vec::new();

    // All HIDA design points at once: one per kernel, pooled.
    let kernels = PolybenchKernel::all();
    let points: Vec<SweepPoint> = kernels
        .iter()
        .map(|&kernel| {
            SweepPoint::new(
                kernel.name(),
                Workload::PolybenchSized(kernel, kernel.default_size()),
                HidaOptions::polybench(),
            )
        })
        .collect();
    let outcome = SweepEngine::new().run(&points);

    println!("# Table 7 — PolyBench kernels on ZU3EG (throughput in samples/s)");
    for (kernel, point) in kernels.iter().zip(&outcome.points) {
        let kernel = *kernel;
        let n = kernel.default_size();
        let Ok(result) = &point.result else { continue };
        let hida_est = &result.estimate;

        // ScaleHLS-style baseline.
        let mut ctx = Context::new();
        let module = ctx.create_module("scalehls");
        let func = hida::frontend::polybench::build_kernel(&mut ctx, module, kernel, n);
        let scale_schedule =
            hida::baselines::scalehls::compile(&mut ctx, func, 16).expect("scalehls");
        let scale_est = estimator.estimate_schedule(&ctx, scale_schedule, true);

        // SOFF-style baseline.
        let mut ctx = Context::new();
        let module = ctx.create_module("soff");
        let func = hida::frontend::polybench::build_kernel(&mut ctx, module, kernel, n);
        let soff_est = hida::baselines::soff::estimate(&mut ctx, func, &device);

        // Vitis-only baseline.
        let mut ctx = Context::new();
        let module = ctx.create_module("vitis");
        let func = hida::frontend::polybench::build_kernel(&mut ctx, module, kernel, n);
        let vitis_est = hida::baselines::vitis::estimate(&mut ctx, func, &device);

        println!(
            "{:<12} compile {:.2}s  LUT {:<7} FF {:<7} DSP {:<4} | hida {:>12.2}  scalehls {:>12.2}  soff {:>12.2}  vitis {:>12.2}",
            kernel.name(),
            point.seconds,
            hida_est.resources.lut,
            hida_est.resources.ff,
            hida_est.resources.dsp,
            hida_est.throughput(),
            scale_est.throughput(),
            soff_est.throughput(),
            vitis_est.throughput(),
        );
        rows.push(Row {
            name: kernel.name().to_string(),
            columns: vec![
                ("HIDA".into(), Some(hida_est.throughput())),
                ("ScaleHLS".into(), Some(scale_est.throughput())),
                ("SOFF".into(), Some(soff_est.throughput())),
                ("Vitis".into(), Some(vitis_est.throughput())),
            ],
        });
    }
    print_throughput_table("Table 7 summary", &rows);
    hida_bench::print_sweep_summary(&outcome);
    if hida_bench::report_failures(&outcome) {
        std::process::exit(1);
    }
}
