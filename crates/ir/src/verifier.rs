//! Structural IR verifier.
//!
//! Checks the generic invariants every well-formed HIDA program must satisfy:
//!
//! * parent links between ops, blocks and regions are consistent,
//! * every operand refers to a value visible at the use site (defined earlier in the
//!   same block, a block argument of an enclosing block, or — for *transparent* ops —
//!   defined in an enclosing scope),
//! * *isolated-from-above* ops (functions, `hida.node`, `hida.schedule`) do not
//!   reference values defined outside their own regions (paper §5.2),
//! * erased values are not referenced.

use crate::context::Context;
use crate::entities::ValueDef;
use crate::error::{IrError, IrResult};
use crate::ids::{OpId, ValueId};
use crate::walk::walk_ops_pruned;

/// Verifies `root` and everything nested below it.
pub fn verify(ctx: &Context, root: OpId) -> IrResult<()> {
    verify_except(ctx, root, None)
}

/// [`verify`] minus the subtree of `verified`, for a caller that holds the
/// proof — a [`Verified`](crate::pass::Verified) record that still
/// [holds](crate::pass::Verified::holds_for) — that this very subtree passed
/// `verify` and nothing has been mutated since. The parent links of the
/// whole context, `root` itself and everything `root` holds outside that
/// subtree are checked as `verify` checks them.
pub fn verify_except(ctx: &Context, root: OpId, verified: Option<OpId>) -> IrResult<()> {
    ctx.check_parent_links()?;
    let mut errors: Vec<String> = Vec::new();
    walk_ops_pruned(ctx, root, &mut |ctx, op| {
        if Some(op) == verified {
            return false;
        }
        if let Err(e) = verify_op(ctx, op, verified) {
            errors.push(e.to_string());
        }
        true
    });
    if errors.is_empty() {
        Ok(())
    } else {
        Err(IrError::verification(errors.join("; ")))
    }
}

fn verify_op(ctx: &Context, op: OpId, verified: Option<OpId>) -> IrResult<()> {
    let operation = ctx.op(op);
    // Result back-links.
    for (i, &res) in operation.results.iter().enumerate() {
        match ctx.value(res).def {
            ValueDef::OpResult { op: def_op, index } if def_op == op && index == i => {}
            _ => {
                return Err(IrError::verification(format!(
                    "result {i} of '{}' has an inconsistent definition record",
                    operation.name
                )))
            }
        }
    }
    // Operand visibility.
    for (i, &operand) in operation.operands.iter().enumerate() {
        if !value_visible_at(ctx, operand, op) {
            return Err(IrError::verification(format!(
                "operand {i} of '{}' ({op}) is not visible at its use site",
                operation.name
            )));
        }
    }
    // Isolation: no live-in SSA values may be referenced inside an isolated op,
    // other than through its own block arguments and operands.
    if operation.isolated && !operation.regions.is_empty() {
        // Not looking below `verified` when that is an isolated op: having
        // passed verification it uses nothing defined outside itself, so
        // nothing below it is a live-in of an op around it.
        let live_ins = ctx.live_ins_where(op, |ctx, inner| {
            !(Some(inner) == verified && ctx.op(inner).isolated)
        });
        if !live_ins.is_empty() {
            return Err(IrError::verification(format!(
                "isolated op '{}' ({op}) references {} value(s) defined outside its region",
                operation.name,
                live_ins.len()
            )));
        }
    }
    Ok(())
}

/// Returns true if `value` is visible at the location of `user`:
/// it dominates the user, or it is a block argument of the user's block or one of its
/// (transparent) ancestors.
fn value_visible_at(ctx: &Context, value: ValueId, user: OpId) -> bool {
    match ctx.value(value).def {
        ValueDef::OpResult { op: def_op, .. } => {
            if !ctx.is_alive(def_op) {
                return false;
            }
            ctx.dominates(def_op, user) && def_op != user
        }
        ValueDef::BlockArg { block, .. } => {
            // Visible if the user's block is `block` or nested inside the op owning it.
            let mut cur = Some(user);
            while let Some(op) = cur {
                if ctx.op(op).parent_block == Some(block) {
                    return true;
                }
                cur = ctx.parent_op(op);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;

    #[test]
    fn accepts_well_formed_module() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func =
            OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![Type::i32()], vec![]);
        let arg = ctx.block(ctx.body_block(func)).args[0];
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(2, Type::i32());
        let (_, r) = b.create("arith.addi", vec![arg, c], vec![Type::i32()], vec![]);
        b.create_return(vec![r[0]]);
        assert!(verify(&ctx, module).is_ok());
    }

    #[test]
    fn rejects_use_before_def() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(2, Type::i32());
        let (add, _) = b.create("arith.addi", vec![c, c], vec![Type::i32()], vec![]);
        // Move the constant after the add: now the add uses an undefined value.
        ctx.move_op_after(ctx.value(c).defining_op().unwrap(), add);
        let err = verify(&ctx, module).unwrap_err();
        assert!(err.to_string().contains("not visible"));
    }

    #[test]
    fn rejects_use_of_erased_value() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(2, Type::i32());
        b.create("arith.negi", vec![c], vec![Type::i32()], vec![]);
        ctx.erase_op(ctx.value(c).defining_op().unwrap());
        assert!(verify(&ctx, module).is_err());
    }

    #[test]
    fn transparent_regions_may_capture_outer_values_but_isolated_may_not() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(2, Type::i32());

        // Transparent task capturing `c` — legal (Functional dataflow semantics).
        let (task, task_body, _) = b.create_with_body("hida.task", vec![], vec![], vec![], false);
        OpBuilder::at_block_end(&mut ctx, task_body).create(
            "arith.negi",
            vec![c],
            vec![Type::i32()],
            vec![],
        );
        assert!(verify(&ctx, module).is_ok());

        // Isolated node capturing `c` — illegal (Structural dataflow semantics).
        ctx.op_mut(task).isolated = true;
        let err = verify(&ctx, module).unwrap_err();
        assert!(err.to_string().contains("isolated"));
    }

    #[test]
    fn verify_except_checks_everything_but_the_named_subtree() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let trusted = OpBuilder::at_end_of(&mut ctx, module).create_func("trusted", vec![], vec![]);
        let other = OpBuilder::at_end_of(&mut ctx, module).create_func("other", vec![], vec![]);
        let break_func = |ctx: &mut Context, func: OpId| {
            let mut b = OpBuilder::at_end_of(ctx, func);
            let c = b.create_constant_int(2, Type::i32());
            let (neg, _) = b.create("arith.negi", vec![c], vec![Type::i32()], vec![]);
            ctx.move_op_after(ctx.value(c).defining_op().unwrap(), neg);
        };

        // Broken IR below the subtree the caller vouches for is not looked at…
        break_func(&mut ctx, trusted);
        assert!(verify(&ctx, module).is_err());
        assert!(verify_except(&ctx, module, Some(trusted)).is_ok());
        assert!(verify_except(&ctx, module, Some(other)).is_err());

        // …broken IR anywhere else under the root still is.
        break_func(&mut ctx, other);
        let err = verify_except(&ctx, module, Some(trusted)).unwrap_err();
        assert!(err.to_string().contains("not visible"));
    }

    #[test]
    fn block_args_of_ancestors_are_visible_in_nested_regions() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func =
            OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![Type::i32()], vec![]);
        let arg = ctx.block(ctx.body_block(func)).args[0];
        let (_, inner_body, _) = OpBuilder::at_end_of(&mut ctx, func).create_with_body(
            "test.loop",
            vec![],
            vec![],
            vec![],
            false,
        );
        OpBuilder::at_block_end(&mut ctx, inner_body).create(
            "arith.negi",
            vec![arg],
            vec![Type::i32()],
            vec![],
        );
        assert!(verify(&ctx, module).is_ok());
    }
}
