//! Integration tests for the analysis cache threaded through the HIDA-OPT
//! pipeline: profiles computed once flow from fusion to lowering to tiling to
//! parallelization, invalidation follows IR mutations, and failing pipelines
//! still report per-pass statistics.

use hida_frontend::nn::{build_model, Model};
use hida_frontend::polybench::{build_kernel, PolybenchKernel};
use hida_ir_core::{AnalysisCacheStats, Context, OpId};
use hida_opt::{HidaOptions, Pipeline};

fn run_workload(build: impl FnOnce(&mut Context, OpId) -> OpId, options: &HidaOptions) -> Pipeline {
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let func = build(&mut ctx, module);
    let mut pipeline = Pipeline::from_options(options);
    pipeline.run(&mut ctx, func).unwrap();
    pipeline
}

fn stat_of<'p>(pipeline: &'p Pipeline, pass: &str) -> &'p hida_ir_core::PassStatistics {
    pipeline
        .statistics()
        .iter()
        .find(|s| s.pass == pass)
        .unwrap_or_else(|| panic!("no statistics for {pass}"))
}

#[test]
fn default_pipeline_reuses_profiles_across_passes() {
    let pipeline = run_workload(
        |ctx, module| build_kernel(ctx, module, PolybenchKernel::TwoMm, 32),
        &HidaOptions::default(),
    );

    // Lowering computes the task and node profiles (the first profile work of
    // this pipeline — TwoMm has too few tasks for criticality fusion queries).
    let lower = stat_of(&pipeline, "hida-lower-structural");
    assert!(lower.cache.misses >= 2, "{:?}", lower.cache);

    // Tiling consumes the node profiles lowering warmed — pure hits.
    let tiling = stat_of(&pipeline, "hida-tiling");
    assert!(tiling.cache.hits >= 1, "{:?}", tiling.cache);
    assert_eq!(tiling.cache.misses, 0, "{:?}", tiling.cache);

    // Parallelization queries every node profile once — 2mm has two nodes —
    // and must never recompute one.
    let parallelize = stat_of(&pipeline, "hida-parallelize");
    assert!(parallelize.cache.hits >= 2, "{:?}", parallelize.cache);
    // At most the dataflow graph is computed fresh (and not even that when
    // balancing left the IR untouched); node profiles are never recomputed.
    assert!(parallelize.cache.misses <= 1, "{:?}", parallelize.cache);

    // Every mutating pass that follows the first profile computation reported
    // preserved entries or hits; nothing silently recomputed node profiles.
    for pass in ["hida-tiling", "hida-parallelize"] {
        let stat = stat_of(&pipeline, pass);
        assert!(
            stat.cache.hits >= 1,
            "{pass} should hit the analysis cache: {:?}",
            stat.cache
        );
    }
}

#[test]
fn fusion_hands_its_task_profiles_to_lowering_on_dnns() {
    let pipeline = run_workload(
        |ctx, module| build_model(ctx, module, Model::LeNet),
        &HidaOptions::dnn(),
    );
    // LeNet's criticality-driven fusion reads each task's intensity once and
    // keeps the intensities in step with its merges: it computes the profile
    // of every task it reads and re-queries none, and the profiles of the
    // tasks that survive it are preserved for lowering (with fine-grained
    // invalidation of rewired consumers).
    let fusion = stat_of(&pipeline, "hida-task-fusion");
    assert_eq!(fusion.cache.hits, 0, "{:?}", fusion.cache);
    assert!(fusion.cache.misses >= 1, "{:?}", fusion.cache);
    assert!(fusion.cache.preserved >= 1, "{:?}", fusion.cache);

    // Lowering re-queries exactly the per-task profiles fusion left behind,
    // and drops them once the tasks are erased.
    let lower = stat_of(&pipeline, "hida-lower-structural");
    assert!(lower.cache.hits >= 1, "{:?}", lower.cache);
    assert!(lower.cache.invalidations >= 1, "{:?}", lower.cache);

    let parallelize = stat_of(&pipeline, "hida-parallelize");
    assert!(parallelize.cache.hits >= 4, "{:?}", parallelize.cache);
}

#[test]
fn pipeline_statistics_expose_aggregate_cache_totals() {
    let pipeline = run_workload(
        |ctx, module| build_kernel(ctx, module, PolybenchKernel::ThreeMm, 16),
        &HidaOptions::default(),
    );
    let mut totals = AnalysisCacheStats::default();
    for stat in pipeline.statistics() {
        totals.accumulate(&stat.cache);
    }
    assert!(totals.hits >= 1);
    assert!(totals.misses >= 1);
    assert!(totals.preserved >= 1);
    assert_eq!(
        totals.total_queries(),
        totals.hits + totals.misses,
        "query accounting must balance"
    );
    // The manager's lifetime totals match the per-pass records.
    assert_eq!(pipeline.analyses().stats().hits, totals.hits);
    assert_eq!(pipeline.analyses().stats().misses, totals.misses);
}

#[test]
fn failing_pipeline_records_the_aborting_pass() {
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let func = build_kernel(&mut ctx, module, PolybenchKernel::TwoMm, 16);
    // multi-producer-elim without lowering aborts with a missing-schedule error.
    let mut pipeline =
        Pipeline::parse(&hida_opt::registry(), "construct,multi-producer-elim,lower").unwrap();
    let err = pipeline.run(&mut ctx, func).unwrap_err();
    assert!(err.to_string().contains("hida-lower-structural"));
    // The aborting pass has a (failed) record; the never-run lower pass has none.
    assert_eq!(pipeline.statistics().len(), 2);
    let aborted = &pipeline.statistics()[1];
    assert_eq!(aborted.pass, "hida-eliminate-multi-producers");
    assert!(aborted.failed);
    assert!(aborted.to_string().contains("FAILED"));
    assert!(!pipeline.statistics()[0].failed);
}

#[test]
fn rerunning_a_pipeline_on_fresh_ir_starts_cold_but_stays_consistent() {
    // Two identical runs of one pipeline over two fresh contexts: the second
    // run cannot leak hits from the first context (entries are keyed by
    // context identity), but within each run the hit pattern is identical.
    let first = run_workload(
        |ctx, module| build_kernel(ctx, module, PolybenchKernel::TwoMm, 32),
        &HidaOptions::default(),
    );
    let second = run_workload(
        |ctx, module| build_kernel(ctx, module, PolybenchKernel::TwoMm, 32),
        &HidaOptions::default(),
    );
    let caches = |p: &Pipeline| -> Vec<AnalysisCacheStats> {
        p.statistics().iter().map(|s| s.cache.clone()).collect()
    };
    assert_eq!(caches(&first), caches(&second));
}
