//! Property-based tests over the core data structures and invariants: strided
//! index resolution, resource accounting, partition bank counts, the
//! parallelizer's constraint handling, and functional equivalence of the dataflow
//! interpreter under optimization.

use hida::dialects::analysis::ProfileLoopDim;
use hida::dialects::hls::ArrayPartition;
use hida::dialects::loops::build_loop_nest;
use hida::dialects::memory::{build_apply, resolve_index, IndexExpr};
use hida::estimator::resource::{buffer_resources, Resources};
use hida::opt::parallelize::select_unroll_factors;
use hida_dialects::analysis::ComputeProfile;
use hida_dialects::hls::MemoryKind;
use proptest::prelude::*;

proptest! {
    /// An `affine.apply` of `stride * x + offset` resolves to the strided
    /// loop dimension it stands for, and folds over a constant `x`.
    #[test]
    fn strided_affine_expressions_evaluate_consistently(
        stride in -8_i64..8,
        offset in -64_i64..64,
        value in 0_i64..256,
    ) {
        use hida::ir::{Context, OpBuilder, Type};
        prop_assume!(stride != 0);
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let body = ctx.body_block(func);
        let (loops, ivs, inner) = build_loop_nest(&mut ctx, body, &[(0, 256, "i")]);
        let mut b = OpBuilder::at_block_end(&mut ctx, inner);
        let strided = build_apply(&mut b, ivs[0], stride, offset);
        let constant = b.create_constant_int(value, Type::Index);
        let folded = build_apply(&mut b, constant, stride, offset);
        prop_assert_eq!(
            resolve_index(&ctx, strided),
            IndexExpr::Strided { loop_op: loops[0], stride, offset }
        );
        prop_assert_eq!(
            resolve_index(&ctx, folded),
            IndexExpr::Constant(stride * value + offset)
        );
    }

    /// Resource addition is commutative and monotone in every field.
    #[test]
    fn resource_addition_is_commutative_and_monotone(
        a in (0_i64..1000, 0_i64..1000, 0_i64..100_000, 0_i64..100_000),
        b in (0_i64..1000, 0_i64..1000, 0_i64..100_000, 0_i64..100_000),
    ) {
        let ra = Resources::new(a.0, a.1, a.2, a.3);
        let rb = Resources::new(b.0, b.1, b.2, b.3);
        prop_assert_eq!(ra + rb, rb + ra);
        let sum = ra + rb;
        prop_assert!(sum.dsp >= ra.dsp && sum.bram_18k >= ra.bram_18k);
        prop_assert!(sum.lut >= rb.lut && sum.ff >= rb.ff);
    }

    /// Partition bank count is always the product of factors and never below one.
    #[test]
    fn partition_bank_count_is_product_of_factors(factors in proptest::collection::vec(1_i64..16, 1..4)) {
        let p = ArrayPartition::cyclic(factors.clone());
        prop_assert_eq!(p.bank_count(), factors.iter().product::<i64>());
        prop_assert!(p.bank_count() >= 1);
    }

    /// Buffer memory usage never decreases when the buffer gets deeper (ping-pong
    /// stages) and external buffers never consume on-chip memory.
    #[test]
    fn buffer_resources_are_monotone_in_depth(
        elements in 1_i64..100_000,
        bits in prop::sample::select(vec![8_u32, 16, 32]),
        banks in 1_i64..32,
        depth in 1_i64..4,
    ) {
        let shallow = buffer_resources(elements, bits, banks, depth, MemoryKind::Bram);
        let deep = buffer_resources(elements, bits, banks, depth + 1, MemoryKind::Bram);
        prop_assert!(deep.bram_18k >= shallow.bram_18k || deep.lut >= shallow.lut);
        let external = buffer_resources(elements, bits, banks, depth, MemoryKind::External);
        prop_assert_eq!(external, Resources::zero());
    }

    /// The parallelizer always returns factors that (a) respect the budget,
    /// (b) never unroll reduction dimensions, (c) never exceed any trip count, and
    /// (d) are mutually divisible with every imposed constraint.
    #[test]
    fn selected_unroll_factors_respect_all_invariants(
        trips in proptest::collection::vec(1_i64..64, 1..4),
        budget_log in 0_u32..8,
        constraint_log in 0_u32..5,
        reduction_mask in 0_u32..8,
    ) {
        let budget = 1_i64 << budget_log;
        let profile = ComputeProfile {
            loop_dims: trips
                .iter()
                .enumerate()
                .map(|(i, &t)| ProfileLoopDim {
                    trip: t,
                    reduction: (reduction_mask >> i) & 1 == 1,
                })
                .collect(),
            ..ComputeProfile::default()
        };
        let constraint_value = 1_i64 << constraint_log;
        let constraints = vec![vec![Some(constraint_value); trips.len()]];
        let factors = select_unroll_factors(&profile, budget, &constraints);

        prop_assert_eq!(factors.len(), trips.len());
        prop_assert!(factors.iter().product::<i64>() <= budget);
        for ((factor, dim), &trip) in factors.iter().zip(&profile.loop_dims).zip(&trips) {
            prop_assert!(*factor >= 1);
            if dim.reduction {
                prop_assert_eq!(*factor, 1);
            }
            prop_assert!(*factor <= (trip.max(1) as u64).next_power_of_two() as i64);
            prop_assert!(
                constraint_value % factor == 0 || factor % constraint_value == 0,
                "factor {} vs constraint {}", factor, constraint_value
            );
        }
    }
}

/// The dataflow interpreter must compute identical results regardless of which
/// parallelization mode was applied (optimizations never change semantics).
#[test]
fn optimization_modes_preserve_interpreter_results() {
    use hida::ir::Context;
    use hida::opt::{construct, lower, parallelize};
    use hida::sim::functional::{interpret_schedule, Memory};

    let run = |mode: Option<hida::ParallelMode>| -> Vec<f64> {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let l1 = hida::frontend::listing1::build_listing1(&mut ctx, module);
        construct::construct_functional_dataflow(&mut ctx, l1.func).unwrap();
        let mut analyses = hida_ir_core::AnalysisManager::new();
        let schedule = lower::lower_to_structural(&mut ctx, &mut analyses, l1.func).unwrap();
        if let Some(mode) = mode {
            parallelize::parallelize_schedule(&mut ctx, &mut analyses, schedule, 32, mode).unwrap();
        }
        let mut memory = Memory::new();
        interpret_schedule(&ctx, schedule, &mut memory);
        let c = schedule
            .internal_buffers(&ctx)
            .into_iter()
            .find(|b| b.name(&ctx) == "C")
            .unwrap();
        memory.contents(c.value(&ctx)).unwrap().to_vec()
    };
    let reference = run(None);
    for mode in [
        hida::ParallelMode::IaCa,
        hida::ParallelMode::IaOnly,
        hida::ParallelMode::CaOnly,
        hida::ParallelMode::Naive,
    ] {
        assert_eq!(
            reference,
            run(Some(mode)),
            "mode {mode:?} changed semantics"
        );
    }
}
