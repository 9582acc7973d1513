//! Regenerates Figure 10: parallel factor and tile size ablation on ResNet-18.
//!
//! Sweeps the maximum parallel factor and the tile size, reporting DSP count, BRAM
//! count and throughput for every combination. Pass `--full` for the paper's full
//! sweep (parallel factor 1-256, tile 2-32); the default uses a reduced grid.
//!
//! Every ablation variant is a *pipeline string* handed to the pass registry —
//! the same text the `hida-opt` CLI accepts — built by the shared
//! [`hida_bench::variants::fig10`] helper, and the design points run through
//! one [`SweepEngine`]. The same grid as a variants file is
//! `hida-opt --workload resnet18 --sweep <file>`, which adds the pool width,
//! `--stats-json` and the persistent estimate store (`--cache-dir`).

use hida::{HidaOptions, Model, SweepEngine, SweepPoint, Workload};
use hida_bench::variants;

fn main() {
    let full = hida_bench::full_grid_requested(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let parallel_factors: Vec<i64> = if full {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
    } else {
        vec![1, 8, 64, 256]
    };
    let tile_sizes: Vec<i64> = if full {
        vec![2, 4, 8, 16, 32]
    } else {
        vec![2, 8, 32]
    };
    let grid: Vec<(i64, i64)> = parallel_factors
        .iter()
        .flat_map(|&pf| tile_sizes.iter().map(move |&tile| (pf, tile)))
        .collect();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&(pf, tile)| {
            SweepPoint::new(
                format!("pf{pf}-tile{tile}"),
                Workload::Model(Model::ResNet18),
                HidaOptions::dnn(),
            )
            .with_pipeline(variants::fig10(pf, tile))
        })
        .collect();

    println!("# Figure 10 — ResNet-18 parallel factor x tile size ablation (VU9P SLR)");
    println!("# variant pipeline: {}", variants::fig10(256, 32));
    let outcome = SweepEngine::new().run(&points);

    println!("parallel_factor, tile_size, dsp, bram_18k, throughput_samples_per_s");
    let mut last_statistics = &Vec::new();
    for (&(pf, tile), point) in grid.iter().zip(&outcome.points) {
        let Ok(result) = &point.result else { continue };
        println!(
            "{pf}, {tile}, {}, {}, {:.3}",
            result.estimate.resources.dsp,
            result.estimate.resources.bram_18k,
            result.estimate.throughput()
        );
        last_statistics = &result.pass_statistics;
    }

    println!("\n# Per-pass compile-time breakdown (last design point)");
    for stat in last_statistics {
        println!("{stat}");
    }

    hida_bench::print_sweep_summary(&outcome);
    if hida_bench::report_failures(&outcome) {
        std::process::exit(1);
    }
}
