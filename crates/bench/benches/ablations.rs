//! Ablation benches for the design choices `docs/ARCHITECTURE.md` walks through
//! ("Compilation walkthrough: workload → QoR report"): task fusion on/off,
//! structural balancing on/off, and the IA/CA parallelization modes of Figure 11,
//! all measured on a mid-size workload so relative effects are visible in the
//! criterion report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hida::{Compiler, HidaOptions, Model, ParallelMode, PolybenchKernel, Workload};

fn throughput_with(options: HidaOptions, workload: Workload) -> f64 {
    Compiler::new(options)
        .compile(workload)
        .map(|r| r.estimate.throughput())
        .unwrap_or(0.0)
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    group.bench_function("fusion_on", |b| {
        b.iter(|| {
            throughput_with(
                HidaOptions {
                    enable_fusion: true,
                    ..HidaOptions::dnn()
                },
                Workload::Model(Model::LeNet),
            )
        })
    });
    group.bench_function("fusion_off", |b| {
        b.iter(|| {
            throughput_with(
                HidaOptions {
                    enable_fusion: false,
                    ..HidaOptions::dnn()
                },
                Workload::Model(Model::LeNet),
            )
        })
    });
    group.bench_function("balancing_on", |b| {
        b.iter(|| {
            throughput_with(
                HidaOptions {
                    enable_balancing: true,
                    ..HidaOptions::polybench()
                },
                Workload::PolybenchSized(PolybenchKernel::ThreeMm, 32),
            )
        })
    });
    group.bench_function("balancing_off", |b| {
        b.iter(|| {
            throughput_with(
                HidaOptions {
                    enable_balancing: false,
                    ..HidaOptions::polybench()
                },
                Workload::PolybenchSized(PolybenchKernel::ThreeMm, 32),
            )
        })
    });
    for mode in [ParallelMode::IaCa, ParallelMode::Naive] {
        group.bench_with_input(
            BenchmarkId::new("parallel_mode", mode.label()),
            &mode,
            |b, &m| {
                b.iter(|| {
                    throughput_with(
                        HidaOptions {
                            mode: m,
                            ..HidaOptions::dnn()
                        },
                        Workload::Model(Model::LeNet),
                    )
                })
            },
        );
    }
    group.finish();

    // One-shot printed comparison of the two modes.
    let iaca = throughput_with(
        HidaOptions {
            mode: ParallelMode::IaCa,
            max_parallel_factor: 64,
            ..HidaOptions::dnn()
        },
        Workload::Model(Model::LeNet),
    );
    let naive = throughput_with(
        HidaOptions {
            mode: ParallelMode::Naive,
            max_parallel_factor: 64,
            ..HidaOptions::dnn()
        },
        Workload::Model(Model::LeNet),
    );
    println!("LeNet @pf=64: IA+CA {iaca:.1} samples/s vs Naive {naive:.1} samples/s");
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
