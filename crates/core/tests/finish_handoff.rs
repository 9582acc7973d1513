//! The finish half reads the design's one analysis cache, and nobody can
//! tell: `Compiler::compile` produces what a standalone estimator and the
//! standalone emitter — empty caches of their own — produce on the same
//! lowered IR; and the handoff is real: finishing a design computes no
//! compute profile and no dataflow graph a second time.

use hida::emitter::{emit_schedule, emit_schedule_with};
use hida::estimator::dataflow::DataflowEstimator;
use hida::{AnalysisCacheStats, Compiler, Model, PolybenchKernel, Workload};

/// The eleven Table 7 kernels and the six Table 8 models, each with the
/// compiler preset the benchmark compiles it with.
fn subjects() -> Vec<(String, Compiler, Workload)> {
    let kernels = PolybenchKernel::all().into_iter().map(|kernel| {
        (
            kernel.name().to_string(),
            Compiler::polybench_defaults(),
            Workload::PolybenchSized(kernel, 16),
        )
    });
    let models = Model::table8().into_iter().map(|model| {
        (
            model.name().to_string(),
            Compiler::dnn_defaults(),
            Workload::Model(model),
        )
    });
    let subjects: Vec<_> = kernels.chain(models).collect();
    assert_eq!(subjects.len(), 17);
    subjects
}

#[test]
fn compile_equals_the_standalone_estimator_and_emitter_on_the_same_ir() {
    for (name, preset, workload) in subjects() {
        for compiler in [preset.clone(), preset.with_pipeline("construct,lower")] {
            let what = format!("{name} through {:?}", compiler.pipeline_text());
            let lowered = compiler.lower(workload.clone()).expect(&what);
            let (ctx, schedule) = (&lowered.ctx, lowered.schedule);
            let standalone = DataflowEstimator::new(compiler.options().device.clone());
            let dataflow = standalone.estimate(ctx, schedule.id(), true);
            let sequential = standalone.estimate(ctx, schedule.id(), false);
            let cpp = emit_schedule(ctx, schedule);

            let compiled = compiler.finish(lowered).expect(&what);
            assert_eq!(compiled.estimate, dataflow, "{what}: dataflow estimate");
            assert_eq!(
                compiled.estimate_sequential, sequential,
                "{what}: sequential estimate"
            );
            assert_eq!(compiled.hls_cpp, cpp, "{what}: emitted C++");
        }
    }
}

/// After the full flow every node's profile and the schedule's graph are in
/// the design's cache (`parallelize` preserves both), so the finish half
/// misses exactly once per node — its estimate — and once for the schedule's
/// buffer totals; everything else it asks for is a hit.
#[test]
fn finish_computes_no_profile_and_no_graph() {
    for (name, compiler, workload) in subjects() {
        let lowered = compiler.lower(workload.clone()).expect(&name);
        let nodes = lowered.schedule.nodes(&lowered.ctx).len() as u64;
        let compiled = compiler.finish(lowered).expect(&name);
        let expected = AnalysisCacheStats {
            // Dataflow estimate: a profile per node, the graph. Sequential
            // estimate: an estimate per node, the buffer totals.
            hits: (nodes + 1) + (nodes + 1),
            misses: nodes + 1,
            invalidations: 0,
            preserved: 0,
        };
        assert_eq!(compiled.estimator_cache, expected, "{name}");

        // The emitter, lent the same cache, finds every profile in it too.
        let mut lowered = compiler.lower(workload).expect(&name);
        let before = lowered.analyses.stats().clone();
        let lent = emit_schedule_with(&lowered.ctx, lowered.schedule, &mut lowered.analyses);
        let traffic = lowered.analyses.stats().since(&before);
        assert_eq!((traffic.hits, traffic.misses), (nodes, 0), "{name}");
        assert_eq!(lent, compiled.hls_cpp, "{name}");
    }
}

/// The final verification leaves out what the last pass's own verification
/// walked — by the record the pass runner made of it, which any mutation of
/// the context outdates: IR broken between the two halves is still rejected.
#[test]
fn finish_trusts_the_last_pass_verification_only_while_nothing_was_mutated() {
    let compiler = Compiler::polybench_defaults();
    let workload = Workload::PolybenchSized(PolybenchKernel::TwoMm, 16);

    // The record names the function the passes ran on and holds for the
    // design's context: this is what `finish` skips by.
    let lowered = compiler.lower(workload.clone()).unwrap();
    let verified = lowered.verified.expect("the last pass verified");
    assert_eq!(verified.root(), lowered.func);
    assert!(verified.holds_for(&lowered.ctx));
    assert!(lowered.pass_statistics.last().unwrap().verified);
    compiler
        .finish(lowered)
        .expect("an untouched design finishes");

    // No record without verification, and `finish` then verifies nothing.
    let unverified = compiler.clone().with_verification(false);
    assert_eq!(unverified.lower(workload.clone()).unwrap().verified, None);

    // Break the IR inside the verified subtree: a node's first nested op now
    // uses a value defined after it.
    let mut lowered = compiler.lower(workload).unwrap();
    let ctx = &mut lowered.ctx;
    let node = lowered.schedule.nodes(ctx)[0].id();
    let first = ctx.body_ops(node)[0];
    let last = *ctx.body_ops(node).last().unwrap();
    let late = ctx.add_result(last, hida::ir::Type::Index);
    ctx.add_operand(first, late);
    assert!(!verified_still_holds(&lowered));
    let error = compiler
        .finish(lowered)
        .expect_err("broken IR must not finish");
    assert!(error.to_string().contains("not visible"), "{error}");
}

fn verified_still_holds(lowered: &hida::LoweredDesign) -> bool {
    lowered.verified.is_some_and(|v| v.holds_for(&lowered.ctx))
}
