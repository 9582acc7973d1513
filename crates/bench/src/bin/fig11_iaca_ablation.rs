//! Regenerates Figure 11: IA/CA parallelization ablation on ResNet-18.
//!
//! For each strategy (IA+CA, IA-only, CA-only, Naive) and each maximum parallel
//! factor, reports DSP count, BRAM count and throughput. Pass `--full` for the full
//! factor sweep.
//!
//! The ablation axis is a *pipeline string* built by the shared
//! [`hida_bench::variants::fig11`] helper: each variant is the full DNN flow
//! with the strategy carried in the `parallelize{mode=...}` pass option. The
//! design points fan out through one [`SweepEngine`], which lowers the
//! passes they share once; every point equals its compile alone
//! (`crates/core/tests/prefix_sharing.rs`, `sweep_cache.rs`).

use hida::{Compiler, HidaOptions, Model, ParallelMode, SweepEngine, SweepPoint, Workload};
use hida_bench::variants;

fn main() {
    let full = hida_bench::full_grid_requested(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let parallel_factors: Vec<i64> = if full {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
    } else {
        vec![4, 32, 64]
    };
    let modes = [
        ParallelMode::IaCa,
        ParallelMode::IaOnly,
        ParallelMode::CaOnly,
        ParallelMode::Naive,
    ];
    let grid: Vec<(ParallelMode, i64)> = modes
        .iter()
        .flat_map(|&mode| parallel_factors.iter().map(move |&pf| (mode, pf)))
        .collect();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&(mode, pf)| {
            SweepPoint::new(
                format!("{}-pf{pf}", mode.label()),
                Workload::Model(Model::ResNet18),
                HidaOptions::dnn(),
            )
            .with_pipeline(variants::fig11(mode, pf))
        })
        .collect();
    let outcome = SweepEngine::new().run(&points);

    println!("# Figure 11 — ResNet-18 IA/CA ablation (VU9P SLR)");
    println!("mode, parallel_factor, dsp, bram_18k, throughput_samples_per_s");
    for (&(mode, pf), point) in grid.iter().zip(&outcome.points) {
        let Ok(result) = &point.result else { continue };
        println!(
            "{}, {pf}, {}, {}, {:.3}",
            mode.label(),
            result.estimate.resources.dsp,
            result.estimate.resources.bram_18k,
            result.estimate.throughput()
        );
    }
    hida_bench::print_sweep_summary(&outcome);

    // The mode is plain pass configuration inside the pipeline string.
    let sample = variants::fig11(ParallelMode::CaOnly, 256);
    println!("\n# Pipeline of the CA-only variant\n{sample}");
    let result = Compiler::new(HidaOptions::dnn())
        .with_pipeline(sample)
        .compile(Workload::Model(Model::LeNet))
        .expect("lenet compilation");
    for stat in &result.pass_statistics {
        println!("{stat}");
    }

    if hida_bench::report_failures(&outcome) {
        std::process::exit(1);
    }
}
