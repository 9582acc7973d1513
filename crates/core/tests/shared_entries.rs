//! A stored estimate entry is keyed by the node model's inputs, so it is
//! served to nodes of other designs, other workloads and other IR shapes
//! than the one that published it. Sound means nobody can tell: through one
//! store warmed by everything this repository compiles, every design's
//! estimates equal the share-nothing estimator's, names included.

use hida::dataflow_ir::structural::ScheduleOp;
use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::Context;
use hida::{
    Compiler, DesignEstimate, EstimateStore, FpgaDevice, HidaOptions, Model, Pipeline,
    PolybenchKernel, SharedEstimateCache, Workload,
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
            dataflow: alone.estimate(&ctx, schedule.id(), true),
            sequential: alone.estimate(&ctx, schedule.id(), false),
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
    let dir = std::env::temp_dir().join(format!("hida_shared_entries_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let store = EstimateStore::open(&dir).expect("open store");
        Arc::new(SharedEstimateCache::with_store(store))
    };
    let through = |cache: &Arc<SharedEstimateCache>, subject: &Subject| {
        let sharing =
            DataflowEstimator::new(subject.device.clone()).with_shared_cache(Arc::clone(cache));
        let dataflow = sharing.estimate(&subject.ctx, subject.schedule.id(), true);
        let sequential = sharing.estimate(&subject.ctx, subject.schedule.id(), false);
        assert_eq!(dataflow, subject.dataflow, "{}: dataflow", subject.what);
        assert_eq!(sequential, subject.sequential, "{}", subject.what);
    };
    // Cold, over a fresh directory: every lookup misses, and the flush
    // publishes each distinct key once — nodes of different designs share
    // keys, so there are fewer entries than lookups.
    let cold = open();
    for subject in &subjects {
        through(&cold, subject);
    }
    cold.flush();
    let cold = cold.persistent_stats().unwrap();
    assert_eq!(cold.hits, 0, "{cold}");
    assert!(0 < cold.writes && cold.writes < cold.misses, "{cold}");
    // Re-opened, in reverse: every entry is served, mostly to designs that
    // did not publish it, and nothing is written.
    let warm = open();
    for subject in subjects.iter().rev() {
        through(&warm, subject);
    }
    warm.flush();
    let warm = warm.persistent_stats().unwrap();
    assert_eq!(
        (warm.hits, warm.misses, warm.writes),
        (cold.misses, 0, 0),
        "{warm}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
