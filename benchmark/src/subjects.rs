//! The six workloads: what is compiled, swept or explored, and how one op of
//! each runs. Why each exists is recorded in `BENCHMARK.json` and README.md.

use crate::checks::{digest_of, Digest};
use hida::ir::printer::print_op;
use hida::ir::Context;
use hida::{
    build_workload, CompilationResult, Compiler, EstimateStore, ExploreConfig, ExploreOutcome,
    Explorer, HidaOptions, Model, ParallelMode, PolybenchKernel, SharedEstimateCache, SweepEngine,
    SweepOutcome, SweepPoint, Workload,
};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

pub const WORKLOADS: [&str; 6] = [
    "dnn-single",
    "dnn-jobsN",
    "polybench-hir",
    "fig10-sweep",
    "fig10-store",
    "explore-grids",
];

/// Store directories `fig10-store` populates in set-up and cycles through.
/// Each holds 870 entry files, and on this machine's ext4 a file costs 0.1 to
/// 0.6 ms to create (journal-bound), so ten directories already make a
/// set-up of several seconds.
pub const STORE_DIRS: usize = 10;

/// SplitMix64: the harness's only source of randomness, seeded by `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A fresh Fisher–Yates permutation of `0..n`: one round's subject order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// The DNN ablation flow with every swept knob exposed. The same string
/// `hida_bench::variants::dnn_ablation` builds, rebuilt here so the benchmark
/// depends on nothing but the compiler.
fn dnn_ablation(tile: i64, parallel_factor: i64, mode: ParallelMode) -> String {
    format!(
        "construct,fusion,lower,multi-producer-elim,\
         tiling{{factor={tile},external-threshold-bytes=65536}},\
         balance{{external-threshold-bytes=65536}},\
         parallelize{{max-factor={parallel_factor},mode={},device=vu9p-slr}}",
        mode.label()
    )
}

const PARALLEL_FACTORS: [i64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// The full Figure 10 grid: ResNet-18, parallel factor x tile size, 45 points.
pub fn fig10_grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for pf in PARALLEL_FACTORS {
        for tile in [2, 4, 8, 16, 32] {
            points.push(
                SweepPoint::new(
                    format!("pf{pf}-tile{tile}"),
                    Workload::Model(Model::ResNet18),
                    HidaOptions::dnn(),
                )
                .with_pipeline(dnn_ablation(tile, pf, ParallelMode::IaCa)),
            );
        }
    }
    points
}

/// The full Figure 11 grid: MobileNet-V1, four parallelization modes x nine
/// parallel factors at tile 16, 36 points.
pub fn fig11_grid() -> Vec<SweepPoint> {
    let modes = [
        ParallelMode::IaCa,
        ParallelMode::IaOnly,
        ParallelMode::CaOnly,
        ParallelMode::Naive,
    ];
    let mut points = Vec::new();
    for mode in modes {
        for pf in PARALLEL_FACTORS {
            points.push(
                SweepPoint::new(
                    format!("{}-pf{pf}", mode.label()),
                    Workload::Model(Model::MobileNetV1),
                    HidaOptions::dnn(),
                )
                .with_pipeline(dnn_ablation(16, pf, mode)),
            );
        }
    }
    points
}

/// The six Table 8 models.
pub fn dnn_subjects() -> Vec<(String, Workload)> {
    Model::table8()
        .into_iter()
        .map(|m| (m.name().to_string(), Workload::Model(m)))
        .collect()
}

/// The eleven Table 7 kernels at their default size, printed to `.hir` text
/// (so the program only ever sees text), plus the two checked-in examples.
pub fn hir_subjects() -> Result<Vec<(String, Workload)>, String> {
    let mut subjects = Vec::new();
    for kernel in PolybenchKernel::all() {
        let mut ctx = Context::new();
        let (module, _) = build_workload(&mut ctx, Workload::Polybench(kernel))
            .map_err(|e| format!("building {}: {e}", kernel.name()))?;
        let name = format!("{}.hir", kernel.name());
        subjects.push((
            name.clone(),
            Workload::text_ir(name, print_op(&ctx, module)),
        ));
    }
    for (name, text) in [
        (
            "examples/two_mm.hir",
            include_str!("../../examples/two_mm.hir"),
        ),
        (
            "examples/attention.hir",
            include_str!("../../examples/attention.hir"),
        ),
    ] {
        subjects.push((name.to_string(), Workload::text_ir(name, text)));
    }
    Ok(subjects)
}

/// The share-nothing compiler of one sweep point: its own `Context`, one job,
/// no cache. What every pooled, cached or explored result is compared with.
pub fn point_compiler(point: &SweepPoint) -> Compiler {
    let compiler = Compiler::new(point.options.clone());
    match &point.pipeline {
        Some(text) => compiler.with_pipeline(text.clone()),
        None => compiler,
    }
}

/// How one op of a subject runs.
#[derive(Debug, Clone)]
pub enum Op {
    /// One `Compiler::compile`.
    Compile {
        compiler: Compiler,
        workload: Workload,
    },
    /// One sweep of `points` through the pool. Without `store_dir` the
    /// estimate cache is fresh and in-memory; with it, the cache is backed by
    /// the (already populated) store re-opened from that directory.
    Sweep {
        points: Rc<Vec<SweepPoint>>,
        jobs: usize,
        store_dir: Option<PathBuf>,
    },
    /// One guided exploration of `points`.
    Explore {
        points: Rc<Vec<SweepPoint>>,
        jobs: usize,
        seed: u64,
    },
}

/// What an op returned; dropped only after it has been checked. One lives
/// at a time, and boxing the large variant would put an allocation of the
/// harness's into every timed op.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Output {
    Compile(Result<CompilationResult, String>),
    Sweep(Result<SweepOutcome, String>),
    Explore(Result<ExploreOutcome, String>),
}

impl Op {
    pub fn run(&self) -> Output {
        match self {
            Op::Compile { compiler, workload } => Output::Compile(
                compiler
                    .compile(workload.clone())
                    .map_err(|e| e.to_string()),
            ),
            Op::Sweep {
                points,
                jobs,
                store_dir,
            } => {
                let cache = match store_dir {
                    None => Ok(SharedEstimateCache::new()),
                    Some(dir) => EstimateStore::open(dir)
                        .map(SharedEstimateCache::with_store)
                        .map_err(|e| format!("opening store {}: {e}", dir.display())),
                };
                Output::Sweep(cache.map(|cache| {
                    SweepEngine::new()
                        .with_total_jobs(*jobs)
                        .with_cache(Arc::new(cache))
                        .run(points)
                }))
            }
            Op::Explore { points, jobs, seed } => Output::Explore(
                Explorer::new(ExploreConfig {
                    seed: *seed,
                    ..ExploreConfig::default()
                })
                .with_total_jobs(*jobs)
                .explore(points),
            ),
        }
    }
}

fn sweep_digests(outcome: &SweepOutcome) -> Result<Vec<Digest>, String> {
    outcome
        .points
        .iter()
        .map(|p| match &p.result {
            Ok(result) => Ok(digest_of(result)),
            Err(e) => Err(format!("point {}: {e}", p.label)),
        })
        .collect()
}

impl Output {
    /// The designs the op produced, reduced for comparison: the one design of
    /// a compile, every point of a sweep in declaration order, the frontier
    /// of an exploration in frontier order.
    pub fn digests(&self) -> Result<Vec<Digest>, String> {
        match self {
            Output::Compile(result) => Ok(vec![digest_of(result.as_ref().map_err(String::clone)?)]),
            Output::Sweep(outcome) => sweep_digests(outcome.as_ref().map_err(String::clone)?),
            Output::Explore(outcome) => {
                let outcome = outcome.as_ref().map_err(String::clone)?;
                if let Some(label) = outcome.failed_labels().first() {
                    return Err(format!("exploration point {label} failed to compile"));
                }
                outcome
                    .frontier
                    .points()
                    .iter()
                    .map(|f| {
                        outcome
                            .points
                            .iter()
                            .find(|p| p.label == f.label)
                            .and_then(|p| p.result.as_ref().ok())
                            .map(digest_of)
                            .ok_or_else(|| format!("frontier point {} was never compiled", f.label))
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_gives_the_same_subject_order() {
        let rounds = |seed: u64| {
            let mut rng = Rng::new(seed);
            (0..5).map(|_| rng.permutation(13)).collect::<Vec<_>>()
        };
        assert_eq!(rounds(7), rounds(7));
        assert_ne!(rounds(7), rounds(8));
        // Rounds differ from each other, and each is a permutation.
        let seven = rounds(7);
        assert_ne!(seven[0], seven[1]);
        for order in &seven {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..13).collect::<Vec<_>>());
        }
        assert_eq!(Rng::new(1).permutation(0), Vec::<usize>::new());
        assert_eq!(Rng::new(1).permutation(1), vec![0]);
    }

    #[test]
    fn grids_have_the_paper_s_shape() {
        let fig10 = fig10_grid();
        assert_eq!(fig10.len(), 45);
        assert_eq!(fig10[0].label, "pf1-tile2");
        assert_eq!(fig10[44].label, "pf256-tile32");
        let fig11 = fig11_grid();
        assert_eq!(fig11.len(), 36);
        assert_eq!(fig11[35].label, "Naive-pf256");
        // Every point's pipeline parses through the registry.
        for point in fig10.iter().chain(&fig11) {
            hida::Pipeline::parse(&hida::registry(), &point.pipeline_text())
                .unwrap_or_else(|e| panic!("{}: {e}", point.label));
        }
    }

    #[test]
    fn subject_sets_are_complete() {
        assert_eq!(dnn_subjects().len(), 6);
        let hir = hir_subjects().expect("kernels print");
        assert_eq!(hir.len(), 13);
        assert!(hir
            .iter()
            .all(|(_, w)| matches!(w, Workload::TextIr { .. })));
    }
}
