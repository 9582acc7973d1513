//! Regenerates Table 7: PolyBench C++ kernels compiled with HIDA vs the ScaleHLS,
//! SOFF and Vitis-only baselines on the ZU3EG device.
//!
//! The pipeline-built designs — HIDA's and the ScaleHLS baseline's, one of
//! each per kernel — are the points of one [`SweepEngine`] run; a point that
//! fails is reported with its reason after the rows, and the binary exits 1.
//! The analytic SOFF and Vitis baselines then run sequentially per kernel.

use hida::ir::Context;
use hida::{FpgaDevice, HidaOptions, PolybenchKernel, SweepEngine, SweepPoint, Workload};
use hida_bench::{print_throughput_table, scalehls_point, Row};

fn main() {
    let device = FpgaDevice::zu3eg();
    let mut rows = Vec::new();

    // All design points at once: HIDA's per kernel, then ScaleHLS's, pooled.
    let kernels = PolybenchKernel::all();
    let workload =
        |kernel: PolybenchKernel| Workload::PolybenchSized(kernel, kernel.default_size());
    let hida_points = kernels
        .iter()
        .map(|&kernel| SweepPoint::new(kernel.name(), workload(kernel), HidaOptions::polybench()));
    let scalehls_points = kernels
        .iter()
        .map(|&kernel| scalehls_point(workload(kernel), HidaOptions::polybench(), 16));
    let points: Vec<SweepPoint> = hida_points.chain(scalehls_points).collect();
    let outcome = SweepEngine::new().run(&points);
    let (hida, scalehls) = outcome.points.split_at(kernels.len());

    println!("# Table 7 — PolyBench kernels on ZU3EG (throughput in samples/s)");
    for ((kernel, point), baseline) in kernels.iter().zip(hida).zip(scalehls) {
        let kernel = *kernel;
        let n = kernel.default_size();
        let (Ok(result), Ok(baseline)) = (&point.result, &baseline.result) else {
            continue;
        };
        let (hida_est, scale_est) = (&result.estimate, &baseline.estimate);

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
