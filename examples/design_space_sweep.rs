//! Sweep the HIDA design space knobs (parallel factor and parallelization mode) on
//! MobileNet-V1 and print a small table — a miniature of the Figure 10/11 ablations
//! that a user would run when sizing an accelerator for their own device.
//!
//! The design points are independent compilations, so they go through the
//! sweep engine: they compile concurrently (budgeted by [`hida::JobBudget`])
//! and share per-node QoR estimates through the content-addressed
//! cross-compilation cache — the results are byte-identical to compiling each
//! point alone, just sooner.
//!
//! Run with `cargo run --release --example design_space_sweep`.

use hida::{HidaOptions, Model, ParallelMode, SweepEngine, SweepPoint, Workload};

fn main() {
    let modes = [ParallelMode::IaCa, ParallelMode::Naive];
    let factors = [8_i64, 32, 128];
    let mut points = Vec::new();
    for mode in modes {
        for pf in factors {
            let options = HidaOptions {
                max_parallel_factor: pf,
                mode,
                ..HidaOptions::dnn()
            };
            points.push(SweepPoint::new(
                format!("{}-pf{pf}", mode.label()),
                Workload::Model(Model::MobileNetV1),
                options,
            ));
        }
    }
    let outcome = SweepEngine::new().run(&points);

    println!("== MobileNet-V1 design space sweep (VU9P SLR) ==");
    println!(
        "{:<8} {:<6} {:>10} {:>10} {:>14}",
        "mode", "pf", "DSP", "BRAM", "images/s"
    );
    let mut results = outcome.points.iter();
    for mode in modes {
        for pf in factors {
            let point = results.next().expect("one outcome per point");
            let result = point.result.as_ref().expect("compilation");
            println!(
                "{:<8} {:<6} {:>10} {:>10} {:>14.2}",
                mode.label(),
                pf,
                result.estimate.resources.dsp,
                result.estimate.resources.bram_18k,
                result.estimate.throughput()
            );
        }
    }
    if let Some(cache) = &outcome.shared_cache {
        println!(
            "\n{} points in {:.3}s ({} concurrent), estimate cache {cache}",
            outcome.points.len(),
            outcome.wall_seconds,
            outcome.budget.pool_jobs
        );
    }
    println!("\nIA+CA keeps resources proportional to the budget; Naive over-provisions");
    println!("every layer and loses efficiency — the Figure 11 effect.");
}
