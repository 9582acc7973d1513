//! Property tests for the structural fingerprint: stability under op-id
//! renumbering and context re-creation, and sensitivity to every semantic
//! ingredient (attributes, shapes, wiring) a round-trip check relies on.

use hida_ir_core::fingerprint::structural_fingerprint;
use hida_ir_core::{Context, OpBuilder, OpId, Type};
use proptest::prelude::*;

const FASHIONS: [&str; 3] = ["cyclic", "block", "none"];

/// Description of a small synthetic program, fully determined by the sampled
/// parameters so it can be rebuilt identically in any context.
#[derive(Clone, Debug)]
struct Spec {
    constants: Vec<i64>,
    factor: i64,
    fashion: usize,
    rows: i64,
    cols: i64,
    name: String,
}

/// Builds `module { func f { constants; add-chain; hida.task{...} } }` and
/// returns the func: the op ids the subtree receives depend entirely on what
/// the context allocated before.
fn build(ctx: &mut Context, spec: &Spec) -> OpId {
    let module = ctx.create_module("m");
    let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
    let body = ctx.body_block(func);
    let values: Vec<_> = {
        let mut b = OpBuilder::at_block_end(ctx, body);
        spec.constants
            .iter()
            .map(|&c| b.create_constant_int(c, Type::i32()))
            .collect()
    };
    let mut acc = values[0];
    for &v in &values[1..] {
        let (_, res) = ctx.build_op(body, "arith.addi", vec![acc, v], vec![Type::i32()], vec![]);
        acc = res[0];
    }
    let (wrapper, _) = ctx.build_op(
        body,
        "hida.task",
        vec![acc],
        vec![Type::tensor(vec![spec.rows, spec.cols], Type::f32())],
        vec![
            ("factor", spec.factor.into()),
            ("fashion", FASHIONS[spec.fashion].into()),
            ("task_name", spec.name.as_str().into()),
        ],
    );
    let region = ctx.create_region(wrapper);
    let block = ctx.create_block(region);
    ctx.build_op(block, "builtin.yield", vec![acc], vec![], vec![]);
    func
}

/// Fingerprint of `spec` built in a fresh context.
fn fingerprint_of(spec: &Spec) -> hida_ir_core::Fingerprint {
    let mut ctx = Context::new();
    let func = build(&mut ctx, spec);
    structural_fingerprint(&ctx, func)
}

proptest! {
    /// The same structure built in a fresh context — after an arbitrary
    /// amount of unrelated IR shifted every op/value/block id — hashes to the
    /// same fingerprint.
    #[test]
    fn stable_under_renumbering_and_context_recreation(
        constants in prop::collection::vec(-100_i64..100, 1..6),
        factor in 1_i64..64,
        fashion in prop::sample::select(vec![0_usize, 1, 2]),
        rows in 1_i64..16,
        cols in 1_i64..16,
        junk in 0_usize..6,
    ) {
        let spec = Spec {
            constants,
            factor,
            fashion,
            rows,
            cols,
            name: "t".to_string(),
        };
        let mut a = Context::new();
        let fa = build(&mut a, &spec);
        let mut b = Context::new();
        for i in 0..junk {
            let junk_module = b.create_module(&format!("junk{i}"));
            OpBuilder::at_end_of(&mut b, junk_module).create_func("noise", vec![], vec![]);
        }
        let fb = build(&mut b, &spec);
        prop_assert_eq!(
            structural_fingerprint(&a, fa),
            structural_fingerprint(&b, fb)
        );
    }

    /// Changing any semantic ingredient — an attribute value, a result shape,
    /// a constant — changes the fingerprint.
    #[test]
    fn distinct_attrs_and_shapes_produce_distinct_fingerprints(
        constants in prop::collection::vec(-100_i64..100, 1..5),
        factor in 1_i64..64,
        fashion in prop::sample::select(vec![0_usize, 1, 2]),
        rows in 1_i64..16,
        cols in 1_i64..16,
    ) {
        let spec = Spec {
            constants: constants.clone(),
            factor,
            fashion,
            rows,
            cols,
            name: "t".to_string(),
        };
        let base = fingerprint_of(&spec);

        let tweaked_factor = Spec { factor: factor + 1, ..spec.clone() };
        prop_assert!(base != fingerprint_of(&tweaked_factor));

        let tweaked_shape = Spec { rows: rows + 1, ..spec.clone() };
        prop_assert!(base != fingerprint_of(&tweaked_shape));

        let mut tweaked_constants = spec.clone();
        tweaked_constants.constants[0] += 1;
        prop_assert!(base != fingerprint_of(&tweaked_constants));

        let tweaked_fashion = Spec { fashion: (fashion + 1) % FASHIONS.len(), ..spec.clone() };
        prop_assert!(base != fingerprint_of(&tweaked_fashion));
    }
}
