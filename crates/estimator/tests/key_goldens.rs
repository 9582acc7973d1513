//! The estimate key is a storage format: every `*.seg` on disk is addressed
//! by it. These keys and the segment under `fixtures/` were written by the
//! build *before* the fingerprint walker and `estimate_fingerprint` were
//! reworked to reuse scratch; a build whose byte stream drifts by one word
//! fails here instead of silently orphaning every store in the field.

use hida_dataflow_ir::structural::ScheduleOp;
use hida_estimator::shared_cache::{device_fingerprint, estimate_key};
use hida_estimator::{DataflowEstimator, EstimateStore, FpgaDevice, SharedEstimateCache};
use hida_frontend::nn::{build_model, Model};
use hida_frontend::polybench::{build_kernel, PolybenchKernel};
use hida_ir_core::Context;
use hida_opt::{registry, HidaOptions, Pipeline};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// The Fig. 10 point `pf64-tile8`, as `benchmark/` spells it.
const RESNET_PF64_TILE8: &str = "construct,fusion,lower,multi-producer-elim,\
    tiling{factor=8,external-threshold-bytes=65536},balance{external-threshold-bytes=65536},\
    parallelize{max-factor=64,mode=IA+CA,device=vu9p-slr}";

struct Design {
    ctx: Context,
    schedule: ScheduleOp,
    device: FpgaDevice,
}

fn lower(
    build: impl FnOnce(&mut Context) -> hida_ir_core::OpId,
    pipeline: &str,
    device: FpgaDevice,
) -> Design {
    let mut ctx = Context::new();
    let func = build(&mut ctx);
    let schedule = Pipeline::parse(&registry(), pipeline)
        .expect("the pipeline parses")
        .run(&mut ctx, func)
        .expect("the pipeline runs");
    Design {
        ctx,
        schedule,
        device,
    }
}

/// two_mm (affine loop nests, on-chip), LeNet (tiled linalg layers, one
/// external input) and ResNet-18 at `pf64-tile8` (external buffers, soft-FIFO
/// tokens), each through the flow the benchmark compiles it with.
fn designs() -> Vec<Design> {
    let polybench = HidaOptions::polybench();
    let dnn = HidaOptions::dnn();
    vec![
        lower(
            |ctx| {
                let module = ctx.create_module("2mm");
                let kernel = PolybenchKernel::TwoMm;
                build_kernel(ctx, module, kernel, kernel.default_size())
            },
            &polybench.pipeline_text(),
            polybench.device.clone(),
        ),
        lower(
            |ctx| {
                let module = ctx.create_module("lenet");
                build_model(ctx, module, Model::LeNet)
            },
            &dnn.pipeline_text(),
            dnn.device.clone(),
        ),
        lower(
            |ctx| {
                let module = ctx.create_module("resnet-18");
                build_model(ctx, module, Model::ResNet18)
            },
            RESNET_PF64_TILE8,
            dnn.device.clone(),
        ),
    ]
}

fn key_of(design: &Design, node_name: &str) -> String {
    let node = design
        .schedule
        .nodes(&design.ctx)
        .into_iter()
        .find(|n| n.name(&design.ctx) == node_name)
        .unwrap_or_else(|| panic!("no node named {node_name}"));
    estimate_key(&design.ctx, node.id(), device_fingerprint(&design.device)).to_string()
}

#[test]
fn estimate_keys_are_the_ones_the_previous_build_wrote() {
    let designs = designs();
    let (two_mm, lenet, resnet) = (&designs[0], &designs[1], &designs[2]);
    // Affine loop nests over on-chip buffers.
    assert_eq!(key_of(two_mm, "task0"), "ac9681661363ff4076415d7518be98cd");
    assert_eq!(key_of(two_mm, "task1"), "e238ccfd74a94f1cb563552be85769b0");
    // Tiled linalg layers; the first reads its input from external memory.
    assert_eq!(
        key_of(lenet, "task0+task1+task2"),
        "3219b8c06c8749be6640b041c6e3acd1"
    );
    assert_eq!(
        key_of(lenet, "task3+task4+task5"),
        "2b2e9ec364b5662995fa3ac055e9fc8e"
    );
    assert_eq!(
        key_of(lenet, "task6+task7+task8+task9+task10+task11"),
        "a65d5cf2e4c01e20eb0de071c2973af4"
    );
    // External buffers and soft-FIFO tokens (push only; pop and push; none).
    assert_eq!(
        key_of(resnet, "task0+task1+task2"),
        "917db67f8377e5b6497c37f98fbb8f05"
    );
    assert_eq!(
        key_of(resnet, "task5+task6+task7"),
        "4ab54ab693f702e4f7476a533720ce98"
    );
    assert_eq!(key_of(resnet, "task15"), "6252df6738845d2f957e6bced88b6142");
    assert_eq!(key_of(resnet, "task37"), "05021847447dfb299e4d75547ec33ee3");
}

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The segment the previous build published for these three designs serves
/// every node of them: no lookup misses, nothing is recomputed or written,
/// and what it serves is what a store-less estimator computes.
#[test]
fn the_previous_build_s_segment_serves_every_node() {
    // A copy: `open` deletes a segment it finds corrupt, and a failing build
    // must not eat the fixture.
    let dir = std::env::temp_dir().join(format!("hida_key_goldens_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut segments = 0;
    for entry in std::fs::read_dir(fixtures()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "seg") {
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
            segments += 1;
        }
    }
    assert_eq!(
        segments, 1,
        "one parent-written segment under tests/fixtures"
    );

    let cache = Arc::new(SharedEstimateCache::with_store(
        EstimateStore::open(&dir).unwrap(),
    ));
    let mut keys = BTreeSet::new();
    for design in designs() {
        let device = device_fingerprint(&design.device);
        for node in design.schedule.nodes(&design.ctx) {
            keys.insert(estimate_key(&design.ctx, node.id(), device));
        }
        let served = DataflowEstimator::new(design.device.clone())
            .with_shared_cache(Arc::clone(&cache))
            .estimate_schedule(&design.ctx, design.schedule, true);
        let computed = DataflowEstimator::new(design.device.clone()).estimate_schedule(
            &design.ctx,
            design.schedule,
            true,
        );
        assert_eq!(served, computed);
    }
    cache.flush();
    let stats = cache.persistent_stats().unwrap();
    assert_eq!(stats.corrupt, 0, "{stats}");
    assert_eq!(stats.misses, 0, "{stats}");
    assert_eq!(stats.hits, keys.len() as u64, "{stats}");
    assert_eq!(stats.writes, 0, "{stats}");
    assert_eq!(cache.stats().misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
