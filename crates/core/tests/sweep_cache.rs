//! Integration tests for the sweep engine and the cross-compilation estimate
//! cache: the second point of a sweep must reuse shared estimates, and every
//! sweep result must be byte-identical to an isolated `Compiler` run of the
//! same design point — regardless of pool size.

use hida::ir::printer::print_op;
use hida::{
    CompilationResult, Compiler, HidaOptions, JobBudget, PolybenchKernel, SweepEngine, SweepPoint,
    Workload,
};

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

#[test]
fn second_point_of_a_two_point_sweep_hits_the_shared_cache() {
    // Two identical design points, compiled strictly in order (pool of one)
    // so the hit accounting is deterministic.
    let points = vec![
        SweepPoint::new("first", two_mm(32), HidaOptions::polybench()),
        SweepPoint::new("second", two_mm(32), HidaOptions::polybench()),
    ];
    let outcome = SweepEngine::new().with_total_jobs(1).run(&points);
    assert!(outcome.all_ok());

    let first = outcome.points[0].result.as_ref().unwrap();
    let second = outcome.points[1].result.as_ref().unwrap();
    let first_traffic = first.shared_estimator_cache.unwrap();
    let second_traffic = second.shared_estimator_cache.unwrap();
    // The first point populates the cache — one entry: 2mm's two products
    // put the same numbers into the node model, so the second is served the
    // first's — and the second point is pure hits.
    assert_eq!(first_traffic.hits, 1, "{first_traffic:?}");
    assert_eq!(first_traffic.misses, 1, "{first_traffic:?}");
    assert_eq!(second_traffic.hits, 2, "{second_traffic:?}");
    assert_eq!(second_traffic.misses, 0, "{second_traffic:?}");
    let totals = outcome.shared_cache.unwrap();
    assert_eq!((totals.hits, totals.misses, totals.entries), (3, 1, 1));

    // Byte-identical QoR versus two isolated (share-nothing) compiler runs.
    for point in &outcome.points {
        let isolated = Compiler::new(HidaOptions::polybench())
            .compile(two_mm(32))
            .unwrap();
        assert!(isolated.shared_estimator_cache.is_none());
        assert_identical(point.result.as_ref().unwrap(), &isolated, &point.label);
    }
}

#[test]
fn pooled_sweep_matches_isolated_runs_point_by_point() {
    let points = variant_points();
    let outcome = SweepEngine::new().with_total_jobs(3).run(&points);
    assert!(outcome.all_ok());
    assert_eq!(outcome.points.len(), points.len());
    for (point, spec) in outcome.points.iter().zip(&points) {
        assert_eq!(point.label, spec.label);
        let isolated = Compiler::new(spec.options.clone())
            .compile(spec.workload.clone())
            .unwrap();
        assert_identical(point.result.as_ref().unwrap(), &isolated, &point.label);
    }
    // The duplicated pf8 variant shares estimates whichever worker got there
    // first.
    let totals = outcome.shared_cache.unwrap();
    assert!(totals.hits > 0, "{totals:?}");
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
fn sharing_can_be_disabled_for_a_share_nothing_baseline() {
    let points = vec![
        SweepPoint::new("first", two_mm(32), HidaOptions::polybench()),
        SweepPoint::new("second", two_mm(32), HidaOptions::polybench()),
    ];
    let outcome = SweepEngine::new()
        .with_shared_estimates(false)
        .with_total_jobs(1)
        .run(&points);
    assert!(outcome.shared_cache.is_none());
    for point in &outcome.points {
        assert!(point
            .result
            .as_ref()
            .unwrap()
            .shared_estimator_cache
            .is_none());
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
