//! A shared estimate entry is keyed by the node model's inputs, so it is
//! served to nodes of other designs, other workloads and other IR shapes
//! than the one that published it. Sound means nobody can tell: through one
//! cache warmed by everything this repository compiles, every design's
//! estimates equal the share-nothing estimator's, names included.

use hida::dataflow_ir::structural::ScheduleOp;
use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::Context;
use hida::{
    Compiler, DesignEstimate, FpgaDevice, HidaOptions, Model, Pipeline, PolybenchKernel,
    SharedEstimateCache, Workload,
};
use hida_fuzz::{gen_pipeline, gen_workload, FuzzRng};
use std::sync::Arc;

/// A lowered design and what the share-nothing estimator says of it.
struct Subject {
    what: String,
    ctx: Context,
    schedule: ScheduleOp,
    device: FpgaDevice,
    dataflow: DesignEstimate,
    sequential: DesignEstimate,
}

impl Subject {
    fn new(what: String, ctx: Context, schedule: ScheduleOp, device: FpgaDevice) -> Subject {
        let alone = DataflowEstimator::new(device.clone());
        Subject {
            dataflow: alone.estimate_schedule(&ctx, schedule, true),
            sequential: alone.estimate_schedule(&ctx, schedule, false),
            what,
            ctx,
            schedule,
            device,
        }
    }

    fn compiled(what: String, compiler: &Compiler, workload: Workload) -> Subject {
        let lowered = compiler.lower(workload).expect(&what);
        let device = compiler.options().device.clone();
        Subject::new(what, lowered.ctx, lowered.schedule, device)
    }
}

/// The six Table 8 models over a 3 x 3 corner of the Fig. 10 grid, the eleven
/// PolyBench kernels, both checked-in `.hir` examples and 1 000 fixed-seed
/// fuzz schedules, each under the device its flow targets.
fn subjects() -> Vec<Subject> {
    let mut subjects = Vec::new();
    for model in Model::table8() {
        for tile in [2, 8, 32] {
            for factor in [1, 16, 256] {
                let compiler = Compiler::new(HidaOptions {
                    tile_size: Some(tile),
                    max_parallel_factor: factor,
                    ..HidaOptions::dnn()
                });
                let what = format!("{} tile {tile} pf {factor}", model.name());
                subjects.push(Subject::compiled(what, &compiler, Workload::Model(model)));
            }
        }
    }
    let polybench = Compiler::polybench_defaults();
    for kernel in PolybenchKernel::all() {
        let what = kernel.name().to_string();
        subjects.push(Subject::compiled(
            what,
            &polybench,
            Workload::Polybench(kernel),
        ));
    }
    for example in ["two_mm", "attention"] {
        let path = format!(
            "{}/../../examples/{example}.hir",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect(&path);
        let workload = Workload::text_ir(example, text);
        subjects.push(Subject::compiled(path, &polybench, workload));
    }
    let registry = hida::registry();
    let devices = FpgaDevice::catalog();
    for seed in 0..1_000_u64 {
        let mut rng = FuzzRng::new(seed);
        let mut ctx = Context::new();
        let workload = gen_workload(&mut ctx, &mut rng);
        let pipeline = gen_pipeline(&mut rng);
        let what = format!("fuzz seed {seed}: {} through {pipeline}", workload.summary);
        let schedule = Pipeline::parse(&registry, &pipeline)
            .expect(&what)
            .run(&mut ctx, workload.func)
            .expect(&what);
        let device = devices[seed as usize % devices.len()].clone();
        subjects.push(Subject::new(what, ctx, schedule, device));
    }
    assert_eq!(subjects.len(), 6 * 9 + 11 + 2 + 1_000);
    subjects
}

#[test]
fn every_design_estimates_the_same_through_one_cache_warmed_by_all_the_others() {
    let subjects = subjects();
    let cache = Arc::new(SharedEstimateCache::new());
    let through_cache = |subject: &Subject| {
        let sharing =
            DataflowEstimator::new(subject.device.clone()).with_shared_cache(Arc::clone(&cache));
        let dataflow = sharing.estimate_schedule(&subject.ctx, subject.schedule, true);
        let sequential = sharing.estimate_schedule(&subject.ctx, subject.schedule, false);
        assert_eq!(dataflow, subject.dataflow, "{}: dataflow", subject.what);
        assert_eq!(sequential, subject.sequential, "{}", subject.what);
        sharing.shared_cache_stats()
    };
    // Forward, every entry is published by its first asker and served to the
    // later ones; in reverse everything is a hit, so the first askers are
    // served from the cache too.
    let published: u64 = subjects.iter().map(|s| through_cache(s).misses).sum();
    let forward = cache.stats();
    assert_eq!(forward.misses, published);
    assert_eq!(forward.entries, published, "one entry per miss");
    assert!(forward.hits > forward.misses, "{forward}");
    for subject in subjects.iter().rev() {
        let traffic = through_cache(subject);
        assert_eq!(traffic.misses, 0, "{}", subject.what);
    }
    let both = cache.stats();
    assert_eq!(both.entries, forward.entries);
    assert_eq!(both.hits, forward.hits + forward.hits + forward.misses);
}
