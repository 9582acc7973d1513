//! The estimate key is a storage format: every `*.seg` on disk is addressed
//! by it. The keys below and the segment under `fixtures/v2/` were written by
//! the build that moved the key from a structural fingerprint of the node's
//! IR to a hash of the node model's inputs (store format version 2); they
//! pin the byte stream from that build on, and a build whose stream drifts
//! by one word fails here instead of silently orphaning every store in the
//! field. Version 1's keys were retired with their preimage — no build can
//! compute them any more — and the segment a version 1 build published stays
//! under `fixtures/v1/` as the subject of the last test: this build must
//! treat it as it treats any segment it cannot read.

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
    // Affine loop nests over on-chip buffers; the two products put the same
    // numbers into the node model and share a key.
    assert_eq!(key_of(two_mm, "task0"), "472c9ba77b0467904ea1a159a9a885e8");
    assert_eq!(key_of(two_mm, "task1"), "472c9ba77b0467904ea1a159a9a885e8");
    // Tiled linalg layers; the first reads its input from external memory.
    assert_eq!(
        key_of(lenet, "task0+task1+task2"),
        "15104b21c6a99fc5e8764ff94ac3822b"
    );
    assert_eq!(
        key_of(lenet, "task3+task4+task5"),
        "dad69cb122abb9ffccddf98fc521949b"
    );
    assert_eq!(
        key_of(lenet, "task6+task7+task8+task9+task10+task11"),
        "2a4edccf7d0f1324b377eb17f757385d"
    );
    // External buffers and soft-FIFO tokens (push only; pop and push; none).
    assert_eq!(
        key_of(resnet, "task0+task1+task2"),
        "ce3102bb4be5e0697140dc9a12fb7879"
    );
    assert_eq!(
        key_of(resnet, "task5+task6+task7"),
        "6d7df3fa73318c2c75895c739654f69e"
    );
    assert_eq!(key_of(resnet, "task15"), "92ec76c15dd85f838cf6dc9e64a91327");
    assert_eq!(key_of(resnet, "task37"), "999c99b62af7f005323692aab4387451");
}

/// The one segment checked in under `fixtures/<version>`.
fn fixture_segment(version: &str) -> PathBuf {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(version);
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&fixtures)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "seg"))
        .collect();
    assert_eq!(segments.len(), 1, "one segment under {fixtures:?}");
    segments.remove(0)
}

/// A scratch directory holding a copy of that segment. A copy: `open`
/// deletes a segment it finds corrupt, and a failing build must not eat the
/// fixture.
fn store_dir_with_fixture(version: &str) -> PathBuf {
    let segment = fixture_segment(version);
    let dir =
        std::env::temp_dir().join(format!("hida_key_goldens_{version}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(&segment, dir.join(segment.file_name().unwrap())).unwrap();
    dir
}

/// Estimates every design through `cache`, holding each equal to what a
/// store-less estimator computes; returns the distinct keys of their nodes
/// and the number of nodes, which is the number of store lookups.
fn estimate_all(cache: &Arc<SharedEstimateCache>) -> (BTreeSet<hida_ir_core::Fingerprint>, u64) {
    let (mut keys, mut lookups) = (BTreeSet::new(), 0);
    for design in designs() {
        let device = device_fingerprint(&design.device);
        for node in design.schedule.nodes(&design.ctx) {
            keys.insert(estimate_key(&design.ctx, node.id(), device));
            lookups += 1;
        }
        let served = DataflowEstimator::new(design.device.clone())
            .with_shared_cache(Arc::clone(cache))
            .estimate(&design.ctx, design.schedule.id(), true);
        let computed = DataflowEstimator::new(design.device.clone()).estimate(
            &design.ctx,
            design.schedule.id(),
            true,
        );
        assert_eq!(served, computed);
    }
    (keys, lookups)
}

/// The segment the previous build published for these three designs serves
/// every node of them: no lookup misses, nothing is recomputed or written,
/// and what it serves is what a store-less estimator computes.
#[test]
fn the_previous_build_s_segment_serves_every_node() {
    let dir = store_dir_with_fixture("v2");
    let cache = Arc::new(SharedEstimateCache::with_store(
        EstimateStore::open(&dir).unwrap(),
    ));
    let (_, lookups) = estimate_all(&cache);
    cache.flush();
    let stats = cache.persistent_stats().unwrap();
    assert_eq!(stats.corrupt, 0, "{stats}");
    assert_eq!(stats.misses, 0, "{stats}");
    assert_eq!(stats.hits, lookups, "{stats}");
    assert_eq!(stats.writes, 0, "{stats}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory a version 1 build left behind: its segment is counted
/// corrupt and removed, serves nothing — never a wrong answer — and the run
/// republishes the directory as one segment of this version.
#[test]
fn a_version_1_segment_is_removed_and_serves_nothing() {
    let dir = store_dir_with_fixture("v1");
    let cache = Arc::new(SharedEstimateCache::with_store(
        EstimateStore::open(&dir).unwrap(),
    ));
    let (keys, lookups) = estimate_all(&cache);
    cache.flush();
    let stats = cache.persistent_stats().unwrap();
    assert_eq!(stats.corrupt, 1, "{stats}");
    assert_eq!(stats.hits, 0, "{stats}");
    assert_eq!(stats.misses, lookups, "{stats}");
    // Nodes with equal inputs miss alike and are published once.
    assert!(keys.len() < lookups as usize, "{keys:?}");
    assert_eq!(stats.writes, keys.len() as u64, "{stats}");
    let left: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    // Segments are named by their content: the one this run published is
    // the checked-in one.
    let expected = vec![dir.join(fixture_segment("v2").file_name().unwrap())];
    assert_eq!(
        left, expected,
        "the v1 file gone, the v2 segment in its place"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
