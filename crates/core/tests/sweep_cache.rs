//! Integration tests for the sweep engine and the estimate store under it:
//! a second sweep through one store handle must be served entirely by the
//! store, and every sweep result must be byte-identical to an isolated
//! `Compiler` run of the same design point — regardless of pool size.

use hida::ir::printer::print_op;
use hida::{
    CompilationResult, Compiler, EstimateStore, HidaOptions, JobBudget, Model, PolybenchKernel,
    SharedEstimateCache, SweepEngine, SweepPoint, Workload,
};
use std::sync::Arc;

fn two_mm(size: i64) -> Workload {
    Workload::PolybenchSized(PolybenchKernel::TwoMm, size)
}

/// A variant pair of the same workload: identical flows except for the
/// maximum parallel factor.
fn variant_points() -> Vec<SweepPoint> {
    [8_i64, 8, 16]
        .iter()
        .enumerate()
        .map(|(index, &factor)| {
            SweepPoint::new(
                format!("pf{factor}-{index}"),
                two_mm(32),
                HidaOptions {
                    max_parallel_factor: factor,
                    ..HidaOptions::polybench()
                },
            )
        })
        .collect()
}

/// Byte-level equality of two compilation results: QoR estimates, emitted
/// C++ and printed IR.
fn assert_identical(a: &CompilationResult, b: &CompilationResult, label: &str) {
    assert_eq!(a.estimate, b.estimate, "{label}: dataflow estimate");
    assert_eq!(
        a.estimate_sequential, b.estimate_sequential,
        "{label}: sequential estimate"
    );
    assert_eq!(a.hls_cpp, b.hls_cpp, "{label}: emitted HLS C++");
    assert_eq!(
        print_op(&a.ctx, a.func),
        print_op(&b.ctx, b.func),
        "{label}: printed IR"
    );
}

/// The reduced Fig. 10 grid on ResNet-18 — parallel factor {1, 256} x tile
/// size {2, 32} — in the pipeline strings `hida_bench::variants::fig10`
/// builds.
fn fig10_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for pf in [1, 256] {
        for tile in [2, 32] {
            let pipeline = format!(
                "construct,fusion,lower,multi-producer-elim,\
                 tiling{{factor={tile},external-threshold-bytes=65536}},\
                 balance{{external-threshold-bytes=65536}},\
                 parallelize{{max-factor={pf},mode=IA+CA,device=vu9p-slr}}"
            );
            points.push(
                SweepPoint::new(
                    format!("pf{pf}-tile{tile}"),
                    Workload::Model(Model::ResNet18),
                    HidaOptions::dnn(),
                )
                .with_pipeline(pipeline),
            );
        }
    }
    points
}

#[test]
fn pooled_sweep_matches_isolated_runs_point_by_point() {
    for points in [variant_points(), fig10_points()] {
        let outcome = SweepEngine::new().with_total_jobs(3).run(&points);
        assert!(outcome.all_ok(), "{:?}", outcome.failed_labels());
        assert_eq!(outcome.points.len(), points.len());
        for (point, spec) in outcome.points.iter().zip(&points) {
            assert_eq!(point.label, spec.label);
            let isolated = spec.compiler().compile(spec.workload.clone()).unwrap();
            assert_identical(point.result.as_ref().unwrap(), &isolated, &point.label);
        }
    }
}

/// Two pooled sweeps back to back in one process: the second runs on the
/// helper threads the first parked, through a prefix tree of its own, and
/// both equal a one-worker run point for point.
#[test]
fn back_to_back_pooled_sweeps_equal_a_one_worker_run() {
    let points = fig10_points();
    let reference = SweepEngine::new().with_total_jobs(1).run(&points);
    assert!(reference.all_ok(), "{:?}", reference.failed_labels());
    for sweep in 0..2 {
        let pooled = SweepEngine::new().with_total_jobs(2).run(&points);
        assert!(pooled.all_ok(), "{:?}", pooled.failed_labels());
        assert_eq!(pooled.pool.workers, 2);
        assert_eq!(pooled.points.len(), reference.points.len());
        for (point, alone) in pooled.points.iter().zip(&reference.points) {
            let label = format!("sweep {sweep}: {}", point.label);
            assert_eq!(point.label, alone.label);
            let (point, alone) = (point.result.as_ref(), alone.result.as_ref());
            assert_identical(point.unwrap(), alone.unwrap(), &label);
        }
    }
}

/// Two sweeps through one engine and one store handle: the first, over a
/// fresh directory, misses every lookup and publishes each distinct key
/// once; the second is served entirely by what the first published. Both
/// runs count the same at one worker and at four.
#[test]
fn a_second_sweep_over_one_store_handle_is_served_entirely_by_the_store() {
    let points = fig10_points();
    let mut counters = Vec::new();
    for jobs in [1, 4] {
        let dir = std::env::temp_dir().join(format!(
            "hida_sweep_cache_jobs{jobs}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = EstimateStore::open(&dir).expect("open store");
        let engine = SweepEngine::new()
            .with_total_jobs(jobs)
            .with_cache(Arc::new(SharedEstimateCache::with_store(store)));
        let cold = engine.run(&points);
        let warm = engine.run(&points);
        assert!(cold.all_ok() && warm.all_ok());
        // A handle's counters add up over its runs.
        let after_cold = cold.persistent_cache.expect("store attached");
        let after_warm = warm.persistent_cache.expect("store attached");
        assert_eq!(after_cold.hits, 0, "jobs {jobs}: {after_cold}");
        assert!(
            0 < after_cold.writes && after_cold.writes < after_cold.misses,
            "jobs {jobs}: ResNet-18 repeats its layers: {after_cold}"
        );
        let lookups = after_cold.misses;
        assert_eq!(
            (after_warm.hits, after_warm.misses, after_warm.writes),
            (lookups, lookups, after_cold.writes),
            "jobs {jobs}: the warm run is all hits and writes nothing: {after_warm}"
        );
        for (a, b) in cold.points.iter().zip(&warm.points) {
            assert_identical(
                a.result.as_ref().unwrap(),
                b.result.as_ref().unwrap(),
                &a.label,
            );
        }
        // The store is the only cache there is to count.
        assert!(cold.shared_cache.is_none() && warm.shared_cache.is_none());
        counters.push((after_cold, after_warm));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        counters[0], counters[1],
        "store counters depend on the job count"
    );
}

#[test]
fn pooled_and_sequential_sweeps_are_byte_identical() {
    let points = variant_points();
    let sequential = SweepEngine::new().with_total_jobs(1).run(&points);
    let pooled = SweepEngine::new().with_total_jobs(3).run(&points);
    for (a, b) in sequential.points.iter().zip(&pooled.points) {
        assert_identical(
            a.result.as_ref().unwrap(),
            b.result.as_ref().unwrap(),
            &a.label,
        );
    }
}

#[test]
fn verification_toggle_reaches_every_point_and_changes_nothing() {
    let points = vec![SweepPoint::new("p", two_mm(32), HidaOptions::polybench())];
    let verified = SweepEngine::new().with_total_jobs(1).run(&points);
    let unverified = SweepEngine::new()
        .with_verification(false)
        .with_total_jobs(1)
        .run(&points);
    // Skipping verification trades safety for time only — same results.
    assert_identical(
        verified.points[0].result.as_ref().unwrap(),
        unverified.points[0].result.as_ref().unwrap(),
        "verification toggle",
    );
    // The Compiler-level toggle backs the CLI's --no-verify.
    let compiler = Compiler::new(HidaOptions::polybench()).with_verification(false);
    assert!(!compiler.verification());
    let direct = compiler.compile(two_mm(32)).unwrap();
    assert_identical(
        verified.points[0].result.as_ref().unwrap(),
        &direct,
        "compiler toggle",
    );
}

#[test]
fn infeasible_points_fail_without_killing_the_sweep() {
    let points = vec![
        SweepPoint::new("good", two_mm(32), HidaOptions::polybench()),
        SweepPoint::new("bad", two_mm(32), HidaOptions::polybench())
            .with_pipeline("construct,,lower"),
    ];
    let outcome = SweepEngine::new().with_total_jobs(1).run(&points);
    assert!(!outcome.all_ok());
    assert!(outcome.points[0].result.is_ok());
    assert!(outcome.points[1].result.is_err());
}

#[test]
fn job_budget_composition_never_oversubscribes() {
    for total in 1..20 {
        for num_points in 1..30 {
            let budget = JobBudget::for_points(total, num_points);
            assert!(budget.pool_jobs <= total.max(1), "{budget:?} over {total}");
            assert!(budget.pool_jobs >= 1);
            assert!(budget.pool_jobs <= num_points.max(1));
        }
    }
    // Degenerate inputs clamp instead of panicking.
    assert_eq!(JobBudget::for_points(0, 0).pool_jobs, 1);
}
