//! A sweep lowers each distinct pipeline prefix once and nobody can tell:
//! over seeded random grids, every point of a pooled sweep — whatever it
//! shares with the others — equals `SweepPoint::compiler().compile(..)` of
//! that point alone in emitted C++, both estimates, per-pass statistics (all
//! but `micros`) and analysis-cache counters, at any job count; the finish
//! half of a forked point, which estimates and emits out of the forked
//! cache, hits and misses in it exactly as the point alone does in its own;
//! and the passes the run executed are exactly the distinct `(workload, pass
//! prefix)` pairs of its grid, counted here by brute force.

use hida::{
    CompilationResult, ExploreConfig, Explorer, FpgaDevice, HidaOptions, Model, PassInvocation,
    PassStatistics, Pipeline, PolybenchKernel, PrefixStats, SweepEngine, SweepPoint, Workload,
};
use hida_ir_core::IrResult;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

/// SplitMix64 over the case's seed: the whole grid is a function of it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// The three kinds of workload a sweep takes. Every `TextIr` is built anew:
/// equal text behind an `Arc` of its own.
fn workload(kind: usize) -> Workload {
    match kind {
        0 => Workload::PolybenchSized(PolybenchKernel::TwoMm, 16),
        1 => Workload::Model(Model::LeNet),
        _ => {
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/two_mm.hir");
            let text = std::fs::read_to_string(path).expect("read examples/two_mm.hir");
            Workload::text_ir("two_mm", text)
        }
    }
}

/// A valid flow with every knob drawn from a small set, so that two draws
/// agree on anything from their first pass only to every pass — in either
/// spelling of a name or an option.
fn random_pipeline(rng: &mut Rng) -> String {
    let mut passes = vec![rng
        .pick(&["construct", "hida-construct-dataflow"])
        .to_string()];
    if !rng.one_in(4) {
        passes.push("fusion".to_string());
    }
    passes.push("lower".to_string());
    if !rng.one_in(3) {
        passes.push("multi-producer-elim".to_string());
    }
    if !rng.one_in(3) {
        let option = rng.pick(&["factor", "tile-size"]);
        passes.push(format!("tiling{{{option}={}}}", rng.pick(&["2", "4"])));
    }
    if !rng.one_in(3) {
        passes.push(
            rng.pick(&["balance", "balance{external-threshold-bytes=65536}"])
                .to_string(),
        );
    }
    if !rng.one_in(8) {
        passes.push(format!(
            "parallelize{{max-factor={},mode={},device=zu3eg}}",
            rng.pick(&["1", "4", "16"]),
            rng.pick(&["IA+CA", "Naive"])
        ));
    }
    passes.join(",")
}

/// A grid of `n` points over one or two workloads: random flows, repeated
/// lines, options-derived flows, now and then a line that does not parse and
/// a device the pass table rejects.
fn random_grid(seed: u64, n: usize) -> Vec<SweepPoint> {
    let mut rng = Rng(seed);
    let kinds = [rng.below(3), rng.below(3)];
    let mut points: Vec<SweepPoint> = Vec::new();
    for i in 0..n {
        let workload = workload(kinds[rng.below(2)]);
        let options = HidaOptions {
            device: FpgaDevice::zu3eg(),
            ..HidaOptions::default()
        };
        let point = SweepPoint::new(format!("p{:02}", i + 1), workload, options);
        points.push(match rng.below(12) {
            // A duplicate of an earlier line (over its workload or another).
            0 | 1 if i > 0 => {
                let earlier = points[rng.below(i)].pipeline.clone();
                SweepPoint {
                    pipeline: earlier,
                    ..point
                }
            }
            // The options-derived flow, with one knob drawn.
            2 => SweepPoint {
                options: HidaOptions {
                    max_parallel_factor: [4, 16][rng.below(2)],
                    ..point.options.clone()
                },
                ..point
            },
            3 => point.with_pipeline(rng.pick(&["construct,,lower", "construct,no-such-pass"])),
            // A device outside the catalog: the pass table rejects its
            // name, so the point fails, in the sweep as alone.
            4 => SweepPoint {
                options: HidaOptions {
                    device: FpgaDevice {
                        name: "custom-board".to_string(),
                        dsp: 90 + 30 * rng.below(3) as i64,
                        ..FpgaDevice::zu3eg()
                    },
                    ..point.options.clone()
                },
                ..point
            },
            _ => point.with_pipeline(random_pipeline(&mut rng)),
        });
    }
    points
}

/// Everything the issue lists, or equal errors.
fn assert_same(
    label: &str,
    got: &IrResult<CompilationResult>,
    alone: &IrResult<CompilationResult>,
) {
    match (got, alone) {
        (Ok(got), Ok(alone)) => {
            assert_eq!(got.hls_cpp, alone.hls_cpp, "{label}: emitted C++");
            assert_eq!(got.estimate, alone.estimate, "{label}: dataflow estimate");
            assert_eq!(
                got.estimate_sequential, alone.estimate_sequential,
                "{label}: sequential estimate"
            );
            assert_eq!(
                PassStatistics::without_micros(&got.pass_statistics),
                PassStatistics::without_micros(&alone.pass_statistics),
                "{label}: pass statistics"
            );
            assert_eq!(got.analysis_cache(), alone.analysis_cache(), "{label}");
        }
        (Err(got), Err(alone)) => assert_eq!(got, alone, "{label}"),
        (got, alone) => panic!(
            "{label}: the sweep {} where the point alone {}",
            got.as_ref().map_or("failed", |_| "compiled"),
            alone.as_ref().map_or("failed", |_| "compiled")
        ),
    }
}

/// The path of each point that is on the tree: a stand-in for its workload
/// (points of equal workloads get equal ones) and its normalized invocations.
fn paths(points: &[SweepPoint]) -> Vec<(usize, Vec<PassInvocation>)> {
    let registry = hida::registry();
    points
        .iter()
        .filter_map(|point| {
            let pipeline = Pipeline::parse(&registry, &point.pipeline_text()).ok()?;
            let workload = points.iter().position(|p| p.workload == point.workload)?;
            Some((workload, pipeline.invocations().copied().collect()))
        })
        .collect()
}

/// What sharing must have done over `paths`, by brute force: one pass run
/// per distinct non-empty prefix, a checkpoint at every prefix (the empty one
/// included) that two or more paths start with and no one-pass-longer prefix
/// keeps all of.
fn expected_stats(paths: &[(usize, Vec<PassInvocation>)]) -> PrefixStats {
    let mut through: HashMap<(usize, &[PassInvocation]), usize> = HashMap::new();
    for (workload, path) in paths {
        for depth in 0..=path.len() {
            *through.entry((*workload, &path[..depth])).or_default() += 1;
        }
    }
    let checkpoints = through.iter().filter(|(&(workload, prefix), &points)| {
        let goes_on_whole = through.iter().any(|(&(w, longer), &p)| {
            w == workload
                && longer.len() == prefix.len() + 1
                && longer.starts_with(prefix)
                && p == points
        });
        points >= 2 && !goes_on_whole
    });
    let passes_run = through
        .keys()
        .filter(|(_, prefix)| !prefix.is_empty())
        .count();
    let records: usize = paths.iter().map(|(_, path)| path.len()).sum();
    PrefixStats {
        passes_run,
        passes_reused: records - passes_run,
        checkpoints: checkpoints.count(),
    }
}

proptest! {
    #[test]
    fn every_point_of_a_sweep_equals_its_share_nothing_compile(
        seed in 0_u64..1 << 48,
        n in 2_usize..8,
    ) {
        let points = random_grid(seed, n);
        let alone: Vec<IrResult<CompilationResult>> = points
            .iter()
            .map(|p| p.compiler().compile(p.workload.clone()))
            .collect();
        let expected = expected_stats(&paths(&points));
        for jobs in [1, 2, 4] {
            let outcome = SweepEngine::new().with_total_jobs(jobs).run(&points);
            for (point, alone) in outcome.points.iter().zip(&alone) {
                let label = format!("seed {seed}, --jobs {jobs}, {}: {}", point.label, point.pipeline);
                assert_same(&label, &point.result, alone);
                // The finish half's own counters are the point's too: a hit
                // in the shared estimate cache (which, at jobs > 1, depends
                // on who publishes first) is not one in the analysis cache.
                if let (Ok(got), Ok(alone)) = (&point.result, alone) {
                    prop_assert_eq!(&got.estimator_cache, &alone.estimator_cache, "{}", label);
                }
            }
            prop_assert_eq!(outcome.prefix, expected, "seed {}, --jobs {}", seed, jobs);
        }
    }
}

/// The paper's grids, as `benchmark/` and the bench binaries spell them.
fn dnn_grid(model: Model, tiles: &[i64], modes: &[&str]) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for mode in modes {
        for pf in [1, 2, 4, 8, 16, 32, 64, 128, 256] {
            for tile in tiles {
                let pipeline = format!(
                    "construct,fusion,lower,multi-producer-elim,\
                     tiling{{factor={tile},external-threshold-bytes=65536}},\
                     balance{{external-threshold-bytes=65536}},\
                     parallelize{{max-factor={pf},mode={mode},device=vu9p-slr}}"
                );
                let label = format!("{mode}-pf{pf}-tile{tile}");
                points.push(
                    SweepPoint::new(label, Workload::Model(model), HidaOptions::dnn())
                        .with_pipeline(pipeline),
                );
            }
        }
    }
    points
}

#[test]
fn fig10_runs_59_of_its_315_passes_and_fig11_42_of_252() {
    let fig10 = dnn_grid(Model::ResNet18, &[2, 4, 8, 16, 32], &["IA+CA"]);
    assert_eq!(fig10.len(), 45);
    let after_mpe_and_each_balance = PrefixStats {
        passes_run: 59,
        passes_reused: 256,
        checkpoints: 6,
    };
    assert_eq!(expected_stats(&paths(&fig10)), after_mpe_and_each_balance);
    let outcome = SweepEngine::new().with_total_jobs(2).run(&fig10);
    assert!(outcome.all_ok());
    assert_eq!(outcome.prefix, after_mpe_and_each_balance);

    let fig11 = dnn_grid(Model::MobileNetV1, &[16], &["IA+CA", "IA", "CA", "Naive"]);
    assert_eq!(fig11.len(), 36);
    let after_balance = PrefixStats {
        passes_run: 42,
        passes_reused: 210,
        checkpoints: 1,
    };
    assert_eq!(expected_stats(&paths(&fig11)), after_balance);
    // An exploration is that sweep: it lowers the same tree.
    let swept = SweepEngine::new().with_total_jobs(2).run(&fig11);
    assert_eq!(swept.prefix, after_balance);
    let explored = Explorer::new(ExploreConfig::default())
        .with_total_jobs(2)
        .explore(&fig11)
        .unwrap();
    assert_eq!(explored.prefix, swept.prefix);
}
