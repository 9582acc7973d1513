//! Greedy pattern-rewrite driver.
//!
//! HIDA's task fusion (Algorithm 2) recursively applies "pre-defined profitable
//! fusion patterns ... until no pattern can be matched". This module provides the
//! generic worklist driver for that style of transformation: patterns are matched
//! against individual operations and may arbitrarily mutate the IR when they fire.

use crate::context::Context;
use crate::ids::OpId;
use crate::walk::collect_preorder;

/// A rewrite pattern matched against one operation at a time.
pub trait RewritePattern {
    /// Human-readable pattern name used in debugging and statistics.
    fn name(&self) -> &str;

    /// Attempts to match `op` and, on success, rewrites the IR in place.
    ///
    /// Returns `true` when the IR was changed. Implementations must leave the IR in a
    /// verifiable state whether or not they fire.
    fn match_and_rewrite(&self, ctx: &mut Context, op: OpId) -> bool;
}

/// Outcome of [`apply_patterns_greedily`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteStatistics {
    /// Total number of successful pattern applications.
    pub applications: usize,
    /// Number of driver iterations (full sweeps over the IR).
    pub iterations: usize,
}

/// Repeatedly sweeps the IR below `root`, applying every pattern to every live op,
/// until a full sweep makes no change or `max_iterations` is reached.
pub fn apply_patterns_greedily(
    ctx: &mut Context,
    root: OpId,
    patterns: &[Box<dyn RewritePattern>],
    max_iterations: usize,
) -> RewriteStatistics {
    let mut stats = RewriteStatistics::default();
    for _ in 0..max_iterations {
        stats.iterations += 1;
        let mut changed = false;
        let worklist = collect_preorder(ctx, root);
        for op in worklist {
            if !ctx.is_alive(op) {
                continue;
            }
            for pattern in patterns {
                if !ctx.is_alive(op) {
                    break;
                }
                if pattern.match_and_rewrite(ctx, op) {
                    stats.applications += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;
    use crate::Attribute;

    /// Folds `arith.addi(c, c)` of two identical constants into a single constant.
    struct FoldDoubledConstant;

    impl RewritePattern for FoldDoubledConstant {
        fn name(&self) -> &str {
            "fold-doubled-constant"
        }

        fn match_and_rewrite(&self, ctx: &mut Context, op: OpId) -> bool {
            if !ctx.op(op).is("arith.addi") || ctx.op(op).operands.len() != 2 {
                return false;
            }
            let (a, b) = (ctx.op(op).operands[0], ctx.op(op).operands[1]);
            if a != b {
                return false;
            }
            let def = match ctx.value(a).defining_op() {
                Some(d) if ctx.op(d).is("arith.constant") => d,
                _ => return false,
            };
            let value = ctx.op(def).attr_int("value").unwrap_or(0);
            let ty = *ctx.value_type(ctx.op(op).results[0]);
            let result = ctx.op(op).results[0];
            let mut b = OpBuilder::before(ctx, op);
            let (_, folded) = b.create(
                "arith.constant",
                vec![],
                vec![ty],
                vec![("value", Attribute::Int(value * 2))],
            );
            ctx.replace_all_uses(result, folded[0]);
            ctx.erase_op(op);
            true
        }
    }

    #[test]
    fn greedy_driver_reaches_fixpoint() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(3, Type::i32());
        let (_, s1) = b.create("arith.addi", vec![c, c], vec![Type::i32()], vec![]);
        let (_, s2) = b.create("arith.addi", vec![s1[0], s1[0]], vec![Type::i32()], vec![]);
        b.create_return(vec![s2[0]]);

        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(FoldDoubledConstant)];
        let stats = apply_patterns_greedily(&mut ctx, module, &patterns, 10);
        assert_eq!(stats.applications, 2);
        assert!(stats.iterations >= 2);
        // No addi remains.
        assert!(ctx.collect_ops(module, "arith.addi").is_empty());
        // The return's operand is a constant of value 12.
        let ret = ctx.collect_ops(module, "func.return")[0];
        let operand = ctx.op(ret).operands[0];
        let def = ctx.value(operand).defining_op().unwrap();
        assert_eq!(ctx.op(def).attr_int("value"), Some(12));
        assert!(crate::verifier::verify(&ctx, module).is_ok());
    }

    #[test]
    fn driver_stops_after_max_iterations() {
        /// A pathological pattern that always reports a change.
        struct AlwaysChanges;
        impl RewritePattern for AlwaysChanges {
            fn name(&self) -> &str {
                "always-changes"
            }
            fn match_and_rewrite(&self, ctx: &mut Context, op: OpId) -> bool {
                ctx.op(op).is("arith.constant")
            }
        }
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        OpBuilder::at_end_of(&mut ctx, func).create_constant_int(1, Type::i8());
        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(AlwaysChanges)];
        let stats = apply_patterns_greedily(&mut ctx, module, &patterns, 3);
        assert_eq!(stats.iterations, 3);
    }

    #[test]
    fn driver_without_matches_does_single_sweep() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(FoldDoubledConstant)];
        let stats = apply_patterns_greedily(&mut ctx, module, &patterns, 10);
        assert_eq!(stats.applications, 0);
        assert_eq!(stats.iterations, 1);
    }
}
