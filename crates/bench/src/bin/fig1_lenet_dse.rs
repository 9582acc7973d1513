//! Regenerates Figure 1 and Table 2: the LeNet case study on the PYNQ-Z2 board.
//!
//! Sweeps the manual design space of Table 1 with and without dataflow, prints every
//! point in the throughput/resource plane, extracts the Pareto frontiers, and
//! compares the expert design, the best exhaustive design and the HIDA design.
//! Pass `--full` to sweep the entire space (slower); the default uses a stride-2
//! subsample which preserves the Pareto structure.

use hida::baselines::manual::{lenet_design_point, LenetConfig};
use hida::{Compiler, FpgaDevice, Model, Workload};

fn main() {
    let full = hida_bench::full_grid_requested(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let device = FpgaDevice::pynq_z2();

    let space = LenetConfig::search_space();
    // The search space alternates dataflow=false/true in consecutive entries, so the
    // subsample keeps pairs of entries to retain both settings.
    let step = if full { 2 } else { 8 };
    let mut points = Vec::new();
    for (i, config) in space.iter().enumerate() {
        if i % step >= 2 {
            continue;
        }
        if let Ok(estimate) = lenet_design_point(*config, &device) {
            points.push((*config, estimate));
        }
    }

    println!(
        "# Figure 1 — LeNet design space (PYNQ-Z2), {} points",
        points.len()
    );
    println!("dataflow, utilization, throughput_img_per_s");
    for (config, estimate) in &points {
        println!(
            "{}, {:.4}, {:.1}",
            if config.dataflow { "df" } else { "nodf" },
            estimate.utilization,
            estimate.throughput()
        );
    }

    // Pareto frontiers and best feasible designs.
    let best = |dataflow: bool| {
        points
            .iter()
            .filter(|(c, e)| c.dataflow == dataflow && e.utilization <= 1.0)
            .max_by(|a, b| a.1.throughput().partial_cmp(&b.1.throughput()).unwrap())
    };
    let best_df = best(true);
    let best_nodf = best(false);
    if let (Some((_, df)), Some((_, nodf))) = (&best_df, &best_nodf) {
        println!(
            "\nbest dataflow design: {:.1} img/s at {:.0}% util; best non-dataflow: {:.1} img/s ({:.2}x gap)",
            df.throughput(),
            100.0 * df.utilization,
            nodf.throughput(),
            df.throughput() / nodf.throughput()
        );
    }

    // Table 2: expert vs exhaustive vs HIDA.
    let expert = lenet_design_point(LenetConfig::expert(), &device).expect("expert design");
    let hida = Compiler::new(hida::HidaOptions {
        max_parallel_factor: 16,
        device: device.clone(),
        ..hida::HidaOptions::dnn()
    })
    .compile(Workload::Model(Model::LeNet))
    .expect("hida design");

    println!("\n# Table 2 — LeNet summary");
    println!(
        "expert:     {:>10.1} img/s  util {:.1}%  (development: ~40 hours in the paper)",
        expert.throughput(),
        100.0 * expert.utilization
    );
    if let Some((_, best)) = best_df {
        println!(
            "exhaustive: {:>10.1} img/s  util {:.1}%  (~210 hours in the paper)",
            best.throughput(),
            100.0 * best.utilization
        );
    }
    println!(
        "hida:       {:>10.1} img/s  util {:.1}%  (compile time here: {:.1} s)",
        hida.estimate.throughput(),
        100.0 * hida.estimate.utilization,
        hida.compile_seconds
    );
}
