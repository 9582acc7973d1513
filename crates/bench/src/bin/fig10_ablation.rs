//! Regenerates Figure 10: parallel factor and tile size ablation on ResNet-18.
//!
//! Sweeps the maximum parallel factor and the tile size, reporting DSP count, BRAM
//! count and throughput for every combination. Pass `--full` for the paper's full
//! sweep (parallel factor 1-256, tile 2-32); the default uses a reduced grid.
//!
//! Every ablation variant is a *pipeline string* handed to the pass registry —
//! the same text the `hida-opt` CLI accepts — built by the shared
//! [`hida_bench::variants::fig10`] helper. The design points run through the
//! [`SweepRunner`]: a pooled, estimate-sharing sweep is compared against the
//! sequential share-nothing loop (byte-identical per-point QoR enforced), and
//! with `--sweep-json <path>` the wall-clock/speedup/cache-traffic summary is
//! also written there as JSON. `--jobs <n>` caps how many points compile
//! at a time.
//!
//! `--cache-dir <dir>` backs the sweep's estimate cache with the persistent
//! on-disk store: a second invocation pointed at the same directory reuses the
//! first run's per-node estimates (`"persistent_cache"` in the JSON report
//! shows the disk tier's hits/misses), which is how CI proves cross-process
//! reuse. `--cache-limit-mb <n>` caps the store's size.

use hida::{EstimateStore, HidaOptions, Model, SharedEstimateCache, SweepPoint, Workload};
use hida_bench::{variants, SweepRunner};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let json_path = value_of("--sweep-json");
    let jobs: usize = match value_of("--jobs") {
        Some(raw) => match raw.parse() {
            Ok(jobs) if jobs >= 1 => jobs,
            _ => {
                eprintln!("error: --jobs: '{raw}' is not a positive integer");
                std::process::exit(2);
            }
        },
        None if args.iter().any(|a| a == "--jobs") => {
            eprintln!("error: --jobs requires a value");
            std::process::exit(2);
        }
        None => hida::ir::default_jobs(),
    };
    let cache_dir = value_of("--cache-dir");
    let cache_limit_mb: Option<u64> = match value_of("--cache-limit-mb") {
        Some(raw) => match raw.parse() {
            Ok(mb) if mb >= 1 => Some(mb),
            _ => {
                eprintln!("error: --cache-limit-mb: '{raw}' is not a positive integer");
                std::process::exit(2);
            }
        },
        None => None,
    };
    if cache_limit_mb.is_some() && cache_dir.is_none() {
        eprintln!("error: --cache-limit-mb requires --cache-dir");
        std::process::exit(2);
    }
    let cache = cache_dir.map(|dir| {
        let mut store = match EstimateStore::open(&dir) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("error: --cache-dir {dir}: {e}");
                std::process::exit(2);
            }
        };
        if let Some(mb) = cache_limit_mb {
            store = store.with_limit_bytes(mb * 1024 * 1024);
        }
        Arc::new(SharedEstimateCache::with_store(store))
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

    let mut runner = SweepRunner::new(if full { "fig10-full" } else { "fig10-reduced" });
    if let Some(cache) = cache {
        runner = runner.with_cache(cache);
    }
    for &pf in &parallel_factors {
        for &tile in &tile_sizes {
            runner = runner.point(
                SweepPoint::new(
                    format!("pf{pf}-tile{tile}"),
                    Workload::Model(Model::ResNet18),
                    HidaOptions::dnn(),
                )
                .with_pipeline(variants::fig10(pf, tile)),
            );
        }
    }

    println!("# Figure 10 — ResNet-18 parallel factor x tile size ablation (VU9P SLR)");
    println!("# variant pipeline: {}", variants::fig10(256, 32));
    let comparison = runner.compare(jobs);

    println!("parallel_factor, tile_size, dsp, bram_18k, throughput_samples_per_s");
    let mut last_statistics = &Vec::new();
    let mut index = 0;
    for &pf in &parallel_factors {
        for &tile in &tile_sizes {
            let point = &comparison.outcome.points[index];
            index += 1;
            let result = point.result.as_ref().expect("resnet compilation");
            println!(
                "{pf}, {tile}, {}, {}, {:.3}",
                result.estimate.resources.dsp,
                result.estimate.resources.bram_18k,
                result.estimate.throughput()
            );
            last_statistics = &result.pass_statistics;
        }
    }

    println!("\n# Per-pass compile-time breakdown (last design point)");
    for stat in last_statistics {
        println!("{stat}");
    }

    comparison.print_summary();
    if let Some(json_path) = json_path {
        match comparison.write_json(&json_path) {
            Ok(()) => println!("sweep report written to {json_path}"),
            Err(e) => eprintln!("error: could not write {json_path}: {e}"),
        }
    }
    if !comparison.qor_identical() {
        std::process::exit(1);
    }
}
