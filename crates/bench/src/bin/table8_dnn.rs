//! Regenerates Table 8: DNN models compiled with HIDA vs DNNBuilder and ScaleHLS on
//! one VU9P SLR, reporting throughput and DSP efficiency.
//!
//! The pipeline-built designs — HIDA's per model and the ScaleHLS baseline's
//! per model it supports — are the points of one [`SweepEngine`] run. Per-point
//! results equal each design compiled alone — each point compiles in a context
//! of its own, and the results come back in declaration order. A point that
//! fails is reported with its reason after the rows, and the binary exits 1.

use hida::{FpgaDevice, HidaOptions, Model, SweepEngine, SweepPoint, Workload};
use hida_bench::{print_throughput_table, scalehls_point, Row};

fn main() {
    let device = FpgaDevice::vu9p_slr();
    let mut throughput_rows = Vec::new();
    let mut efficiency_rows = Vec::new();

    // All design points at once: HIDA's per model, then ScaleHLS's for the
    // models it supports, pooled.
    let models = Model::table8();
    let supported: Vec<Model> = models
        .iter()
        .copied()
        .filter(|&model| hida::baselines::scalehls::supports(model))
        .collect();
    let hida_points = models
        .iter()
        .map(|&model| SweepPoint::new(model.name(), Workload::Model(model), HidaOptions::dnn()));
    let scalehls_points = supported
        .iter()
        .map(|&model| scalehls_point(Workload::Model(model), HidaOptions::dnn(), 64));
    let points: Vec<SweepPoint> = hida_points.chain(scalehls_points).collect();
    let outcome = SweepEngine::new().run(&points);
    let (hida, baselines) = outcome.points.split_at(models.len());

    println!("# Table 8 — DNN models on one VU9P SLR");
    for (model, point) in models.iter().zip(hida) {
        let model = *model;
        let Ok(result) = &point.result else { continue };
        let hida_est = &result.estimate;

        // ScaleHLS baseline (only for the models it supports).
        let baseline = supported
            .iter()
            .position(|&m| m == model)
            .map(|index| &baselines[index].result);
        let scalehls = match baseline {
            Some(Ok(baseline)) => Some(&baseline.estimate),
            Some(Err(_)) => continue,
            None => None,
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
