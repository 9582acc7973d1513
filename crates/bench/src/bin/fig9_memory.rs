//! Regenerates Figure 9: on-chip memory (BRAM) utilization of HIDA vs ScaleHLS for
//! the DNN models both flows support.
//!
//! Both designs of every model are points of one [`SweepEngine`] run; a point
//! that fails is reported with its reason after the rows, and the binary
//! exits 1.

use hida::{HidaOptions, Model, SweepEngine, SweepPoint, Workload};
use hida_bench::scalehls_point;

fn main() {
    println!("# Figure 9 — BRAM-18K usage, HIDA vs ScaleHLS");
    println!("model, hida_bram, scalehls_bram, reduction");
    let models: Vec<Model> = [
        Model::ResNet18,
        Model::Vgg16,
        Model::Mlp,
        Model::MobileNetV1,
    ]
    .into_iter()
    .filter(|&model| hida::baselines::scalehls::supports(model))
    .collect();
    let points: Vec<SweepPoint> = models
        .iter()
        .flat_map(|&model| {
            let workload = Workload::Model(model);
            let hida = SweepPoint::new(model.name(), workload.clone(), HidaOptions::dnn());
            [hida, scalehls_point(workload, HidaOptions::dnn(), 64)]
        })
        .collect();
    let outcome = SweepEngine::new().run(&points);

    for (model, pair) in models.iter().zip(outcome.points.chunks(2)) {
        let (Ok(hida), Ok(scale)) = (&pair[0].result, &pair[1].result) else {
            continue;
        };
        let hida_bram = hida.estimate.resources.bram_18k.max(1);
        let scale_bram = scale.estimate.resources.bram_18k.max(1);
        println!(
            "{}, {}, {}, {:.1}x",
            model.name(),
            hida_bram,
            scale_bram,
            scale_bram as f64 / hida_bram as f64
        );
    }
    if hida_bench::report_failures(&outcome) {
        std::process::exit(1);
    }
}
