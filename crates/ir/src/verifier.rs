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
//! * erased values are not referenced: an operand's defining op is live and
//!   still lists it as the result at its index,
//! * a `hida.schedule` inside a `hida.node` is all the node holds: alone in
//!   its body, or alone in a perfect `affine.for` nest there.
//!
//! One pre-order walk checks all of it, visiting each op once with O(1) work
//! per operand. Dominance is read off scope marks: an op is in scope from the
//! moment the walk passes it until its block ends, a block while the walk is
//! inside it, and what dominates the root from above is marked before the
//! walk. Isolation is counted on one stack of the isolated ops around the walk
//! position: each op and block is marked with the stack depth it is defined
//! at, and an operand is a live-in of every isolated op on the stack at or
//! above its definition's depth. The marks live in scratch that outlasts
//! the verification, so verifying a design of a size seen before allocates
//! nothing.

use crate::context::Context;
use crate::entities::ValueDef;
use crate::error::{IrError, IrResult};
use crate::fault::lock_recover;
use crate::ids::{OpId, ValueId};
use std::sync::Mutex;

/// The scope marks and isolation stacks of finished verifications, kept
/// cleared with their capacity; a verification takes one out for its length.
/// Not per thread: the pool's parked helpers live on, but a batch short of
/// idle helpers spawns scoped threads and callers verify on threads of their
/// own, and each of those would allocate its own again.
static SCRATCH: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());

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
    if Some(root) == verified {
        return Ok(());
    }
    let mut scratch = lock_recover(&SCRATCH).pop().unwrap_or_default();
    let result = scratch.verify(ctx, root, verified);
    lock_recover(&SCRATCH).push(scratch);
    result
}

/// What a verification marks and counts. Every mark is cleared by the end
/// of the walk that set it.
#[derive(Default)]
struct Scratch {
    /// Per op: 0 while out of scope, else 1 + the stack depth it is defined at.
    ops: Vec<u32>,
    /// Per block: the same, for its arguments.
    blocks: Vec<u32>,
    /// Per value: the `clock` when it was last counted as a live-in. Every
    /// entry of `isolated` stamped below it has counted it.
    counted_at: Vec<u64>,
    /// The isolated ops around the walk position whose live-ins are counted.
    isolated: Vec<Isolated>,
    /// Pushes onto `isolated` by this scratch so far: the next stamp.
    clock: u64,
    /// Each op's problem, with its pre-order position.
    errors: Vec<(usize, String)>,
}

/// An isolated op on the stack.
struct Isolated {
    op: OpId,
    /// Its pre-order position, where its message goes.
    position: usize,
    /// The `clock` when it was pushed.
    stamp: u64,
    /// Distinct values used inside it but defined outside.
    live_ins: usize,
}

impl Scratch {
    /// Walks `root` and returns every op's problem in pre-order, under one
    /// prefix.
    fn verify(&mut self, ctx: &Context, root: OpId, verified: Option<OpId>) -> IrResult<()> {
        let (ops, blocks, _, values) = ctx.arena_sizes();
        // Cleared marks stay cleared: growing fills with zeros.
        self.ops.resize(self.ops.len().max(ops), 0);
        self.blocks.resize(self.blocks.len().max(blocks), 0);
        self.counted_at.resize(self.counted_at.len().max(values), 0);
        self.mark_above(ctx, root, 1);
        let mut walk = Walk {
            ctx,
            root,
            verified,
            scratch: self,
            visited: 0,
        };
        walk.visit(root, true);
        self.mark_above(ctx, root, 0);
        if self.errors.is_empty() {
            return Ok(());
        }
        // An isolated op's message is written when its subtree ends.
        self.errors.sort_unstable_by_key(|&(position, _)| position);
        let errors: Vec<String> = self.errors.drain(..).map(|(_, error)| error).collect();
        Err(IrError::verification(errors.join("; ")))
    }

    /// Sets the marks of what is in scope at `root` before the walk reaches
    /// it to `mark`: every block around it, and in each the ops up to the
    /// one that holds `root`. An op is in scope only as part of a block that
    /// lists it.
    fn mark_above(&mut self, ctx: &Context, root: OpId, mark: u32) {
        let mut holder = root;
        loop {
            let Some(block) = ctx.op(holder).parent_block else {
                return;
            };
            self.blocks[block.index()] = mark;
            let ops = &ctx.block(block).ops;
            if let Some(at) = ops.iter().position(|&op| op == holder) {
                for &op in &ops[..=at] {
                    self.ops[op.index()] = mark;
                }
            }
            match ctx.parent_op(holder) {
                Some(parent) => holder = parent,
                None => return,
            }
        }
    }
}

/// One verification's walk.
struct Walk<'a> {
    ctx: &'a Context,
    root: OpId,
    verified: Option<OpId>,
    scratch: &'a mut Scratch,
    /// Ops visited so far: the pre-order position of the next.
    visited: usize,
}

impl Walk<'_> {
    /// Visits `op` and what it holds. Unless `checking`, the op is below the
    /// verified subtree: nothing there is reported, but its uses still count
    /// for the isolated ops around it.
    fn visit(&mut self, op: OpId, checking: bool) {
        let ctx = self.ctx;
        let operation = ctx.op(op).payload();
        let position = self.visited;
        self.visited += 1;
        if op != self.root {
            self.scratch.ops[op.index()] = self.scratch.isolated.len() as u32 + 1;
        }
        let is_verified = Some(op) == self.verified;
        let checking = checking && !is_verified;
        // Only the first problem of an op is reported.
        let mut problem = None;
        if checking {
            let inconsistent = operation.results.iter().enumerate().position(|(i, &res)| {
                !matches!(ctx.value(res).def,
                    ValueDef::OpResult { op: def_op, index } if def_op == op && index == i)
            });
            if let Some(i) = inconsistent {
                problem = Some(format!(
                    "result {i} of '{}' has an inconsistent definition record",
                    operation.name
                ));
            }
        }
        for (i, &operand) in operation.operands.iter().enumerate() {
            let visible = self.use_value(operand, op);
            if checking && !visible && problem.is_none() {
                problem = Some(format!(
                    "operand {i} of '{}' ({op}) is not visible at its use site",
                    operation.name
                ));
            }
        }
        if checking && problem.is_none() && operation.name == SCHEDULE {
            problem = misplaced(ctx, op).map(|node| {
                format!(
                    "'{SCHEDULE}' ({op}) is not alone in '{NODE}' ({node}): \
                     a node holds one schedule and nothing beside it"
                )
            });
        }
        let isolated = !operation.regions.is_empty() && operation.name.is_isolated();
        // Having passed verification, an isolated subtree uses nothing
        // defined outside itself: nothing below it is a live-in around it.
        if is_verified && isolated {
            return;
        }
        let counted = checking && isolated && problem.is_none();
        if let Some(problem) = problem {
            self.scratch.errors.push((position, problem));
        }
        if counted {
            let stamp = self.scratch.clock;
            self.scratch.clock += 1;
            self.scratch.isolated.push(Isolated {
                op,
                position,
                stamp,
                live_ins: 0,
            });
        }
        for &region in &operation.regions {
            for &block in &ctx.region(region).blocks {
                self.scratch.blocks[block.index()] = self.scratch.isolated.len() as u32 + 1;
                let ops = &ctx.block(block).ops;
                for &nested in ops {
                    self.visit(nested, checking);
                }
                for &nested in ops {
                    self.scratch.ops[nested.index()] = 0;
                }
                self.scratch.blocks[block.index()] = 0;
            }
        }
        if counted {
            let entry = self.scratch.isolated.pop().expect("pushed above");
            if entry.live_ins > 0 {
                self.scratch.errors.push((
                    entry.position,
                    format!(
                        "isolated op '{}' ({op}) references {} value(s) defined outside its region",
                        operation.name, entry.live_ins
                    ),
                ));
            }
        }
    }

    /// Counts `value`, an operand of `user`, as a live-in of each isolated
    /// op around `user` that does not hold its definition, and returns
    /// whether it is visible at `user`. A value whose defining op was erased
    /// is defined nowhere, so it is no isolated op's live-in.
    fn use_value(&mut self, value: ValueId, user: OpId) -> bool {
        let ctx = self.ctx;
        let scratch = &mut *self.scratch;
        let (mark, visible) = match ctx.value(value).def {
            ValueDef::OpResult { op, index } => {
                let mark = scratch.ops[op.index()];
                let listed = || ctx.is_alive(op) && ctx.op(op).results.get(index) == Some(&value);
                (mark, mark != 0 && op != user && listed())
            }
            ValueDef::BlockArg { block, .. } => {
                let mark = scratch.blocks[block.index()];
                (mark, mark != 0)
            }
        };
        let erased =
            || matches!(ctx.value(value).def, ValueDef::OpResult { op, .. } if !ctx.is_alive(op));
        let depth = match mark.checked_sub(1) {
            Some(depth) => depth as usize,
            None if erased() => scratch.isolated.len(),
            // Not in scope: used before its definition, defined outside
            // `root` or in a scope that has ended. The isolated ops holding
            // the definition are still a bottom run of the stack.
            None => scratch
                .isolated
                .iter()
                .take_while(|entry| !ctx.is_live_in(entry.op, value))
                .count(),
        };
        if depth < scratch.isolated.len() {
            let counted_at = &mut scratch.counted_at[value.index()];
            // Entries pushed before the last count were on the stack then
            // and have counted the value; they sit below the later ones.
            for entry in scratch.isolated[depth..].iter_mut().rev() {
                if entry.stamp < *counted_at {
                    break;
                }
                entry.live_ins += 1;
            }
            *counted_at = scratch.clock;
        }
        visible
    }
}

const SCHEDULE: &str = "hida.schedule";
const NODE: &str = "hida.node";
const LOOP: &str = "affine.for";

/// The node `schedule` sits in, when it is not all that node is made of:
/// alone in the node's body, or alone in a perfect `affine.for` nest there.
/// A node that holds a schedule is costed and emitted as that schedule, so
/// a second schedule or compute beside it would be dropped.
fn misplaced(ctx: &Context, schedule: OpId) -> Option<OpId> {
    let mut alone = true;
    let mut op = schedule;
    loop {
        alone &= ctx.block(ctx.op(op).parent_block?).ops.len() == 1;
        let parent = ctx.parent_op(op)?;
        let name = ctx.op(parent).name;
        if name.is_isolated() {
            return (name == NODE && !alone).then_some(parent);
        }
        alone &= name == LOOP;
        op = parent;
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
    fn rejects_use_of_a_result_its_op_no_longer_lists() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let types = vec![Type::i32(), Type::i64()];
        let (pair, results) = b.create("test.pair", vec![], types, vec![]);
        b.create("arith.negi", vec![results[0]], vec![Type::i32()], vec![]);
        assert!(verify(&ctx, module).is_ok());
        // The op lives on without the used result.
        ctx.set_results(pair, &[results[1]]);
        let err = verify(&ctx, module).unwrap_err();
        assert!(
            err.to_string().contains("operand 0 of 'arith.negi'"),
            "{err}"
        );
    }

    #[test]
    fn transparent_regions_may_capture_outer_values_but_isolated_may_not() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(2, Type::i32());

        // Transparent task capturing `c` — legal (Functional dataflow semantics).
        let (_, task_body, _) = b.create_with_body("hida.task", vec![], vec![], vec![]);
        OpBuilder::at_block_end(&mut ctx, task_body).create(
            "arith.negi",
            vec![c],
            vec![Type::i32()],
            vec![],
        );
        assert!(verify(&ctx, module).is_ok());

        // Isolated node capturing `c` — illegal (Structural dataflow semantics).
        let (_, node_body, _) = OpBuilder::at_end_of(&mut ctx, func).create_with_body(
            "hida.node",
            vec![],
            vec![],
            vec![],
        );
        OpBuilder::at_block_end(&mut ctx, node_body).create(
            "arith.negi",
            vec![c],
            vec![Type::i32()],
            vec![],
        );
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
    fn every_error_of_a_module_is_reported_under_one_prefix() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        for name in ["f", "g"] {
            let func = OpBuilder::at_end_of(&mut ctx, module).create_func(name, vec![], vec![]);
            let mut b = OpBuilder::at_end_of(&mut ctx, func);
            let c = b.create_constant_int(2, Type::i32());
            let (neg, _) = b.create("arith.negi", vec![c], vec![Type::i32()], vec![]);
            ctx.move_op_after(ctx.value(c).defining_op().unwrap(), neg);
        }
        let message = verify(&ctx, module).unwrap_err().to_string();
        let errors: Vec<&str> = message
            .strip_prefix("verification failed: ")
            .unwrap_or_else(|| panic!("one prefix in front: {message}"))
            .split("; ")
            .collect();
        assert_eq!(errors.len(), 2, "{message}");
        for error in errors {
            assert!(
                error.starts_with("operand 0 of 'arith.negi'") && error.ends_with("use site"),
                "{message}"
            );
        }
    }

    #[test]
    fn dominance_in_nested_regions() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c0 = b.create_constant_int(0, Type::i32());
        let c1 = b.create_constant_int(1, Type::i32());
        // Nested op: c0 and c1 dominate an op inside a region attached after c1.
        let (_, inner_block, _) = b.create_with_body("test.wrapper", vec![], vec![], vec![]);
        let (_, inner) = OpBuilder::at_block_end(&mut ctx, inner_block).create(
            "arith.addi",
            vec![c0, c1],
            vec![Type::i32()],
            vec![],
        );
        assert!(verify(&ctx, module).is_ok());

        // c1 does not dominate c0, and the inner op dominates nothing
        // outside its region.
        ctx.add_operand(ctx.value(c0).defining_op().unwrap(), c1);
        OpBuilder::at_end_of(&mut ctx, func).create("test.use", vec![inner[0]], vec![], vec![]);
        let err = verify(&ctx, module).unwrap_err().to_string();
        assert!(err.contains("operand 0 of 'arith.constant'"), "{err}");
        assert!(err.contains("operand 0 of 'test.use'"), "{err}");
    }

    #[test]
    fn live_in_analysis() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c0 = b.create_constant_int(0, Type::i32());
        let c1 = b.create_constant_int(1, Type::i32());
        let (node, inner_block, _) = b.create_with_body("hida.node", vec![], vec![], vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, inner_block);
        let (_, inner_res) = b.create("arith.addi", vec![c0, c1], vec![Type::i32()], vec![]);
        b.create(
            "arith.muli",
            vec![inner_res[0], c1],
            vec![Type::i32()],
            vec![],
        );

        // Two distinct values come from outside; the inner result does not.
        let err = verify(&ctx, module).unwrap_err().to_string();
        assert!(
            err.ends_with("references 2 value(s) defined outside its region"),
            "{err}"
        );
        assert!(ctx.is_live_in(node, c0));
        assert!(!ctx.is_live_in(node, inner_res[0]));
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
