//! What the IR verifier answers, pinned byte for byte and held equal to the
//! quadratic verifier it replaced.
//!
//! Each line of `tests/snapshots/verify_errors.txt` is a case's label and the
//! exact `Display` of its error, or `ok`. The cases: hand-built contexts that
//! break one rule each (a use before its definition, an erased definition, a
//! stale result index, a broken result back-link, a self-use, block arguments
//! of enclosing and of other blocks, captures into transparent and isolated
//! ops, nested isolated ops that both fail, several errors in one module),
//! `verify_except` with an isolated and a non-isolated verified subtree, roots
//! below the module, and `.hir` mutations that parse but do not verify — an
//! operand moved to a value of a closed sibling scope, two definitions'
//! `%names` swapped — of the thirteen `polybench-hir` subjects and of every
//! checked-in `.hir` file. The snapshot was written by the verifier from
//! before it checked everything in one walk; every later verifier must
//! reproduce it. One line has changed since, on purpose: an operand whose
//! defining op was erased is no longer a live-in of the isolated ops around
//! its use, so `erased definition` reports the use alone.
//!
//! [`oracle`] is that verifier, with the same rule for erased definitions:
//! dominance by block positions, isolation by walking every isolated op's
//! subtree again. The last test holds the two equal over the cases,
//! generated modules, lowered designs and random operand rewrites of both.

use hida::{build_workload, Compiler, HidaOptions, Model, PolybenchKernel, Workload};
use hida_fuzz::{gen_workload, FuzzRng};
use hida_ir_core::parse::parse_module;
use hida_ir_core::printer::print_op;
use hida_ir_core::verifier::verify_except;
use hida_ir_core::walk::collect_preorder;
use hida_ir_core::{BlockId, Context, IdList, OpBuilder, OpId, Type, ValueId};
use std::path::{Path, PathBuf};

/// The verifier as it was before one walk did all of its work.
mod oracle {
    use hida_ir_core::walk::walk_ops_pruned;
    use hida_ir_core::{Context, IrError, IrResult, OpId, ValueDef, ValueId};

    pub fn verify_except(ctx: &Context, root: OpId, verified: Option<OpId>) -> IrResult<()> {
        ctx.check_parent_links()?;
        let mut errors: Vec<String> = Vec::new();
        walk_ops_pruned(ctx, root, &mut |ctx, op| {
            if Some(op) == verified {
                return false;
            }
            if let Err(message) = verify_op(ctx, op, verified) {
                errors.push(message);
            }
            true
        });
        if errors.is_empty() {
            Ok(())
        } else {
            Err(IrError::verification(errors.join("; ")))
        }
    }

    fn verify_op(ctx: &Context, op: OpId, verified: Option<OpId>) -> Result<(), String> {
        let operation = ctx.op(op);
        for (i, &res) in operation.results.iter().enumerate() {
            match ctx.value(res).def {
                ValueDef::OpResult { op: def_op, index } if def_op == op && index == i => {}
                _ => {
                    return Err(format!(
                        "result {i} of '{}' has an inconsistent definition record",
                        operation.name
                    ))
                }
            }
        }
        for (i, &operand) in operation.operands.iter().enumerate() {
            if !value_visible_at(ctx, operand, op) {
                return Err(format!(
                    "operand {i} of '{}' ({op}) is not visible at its use site",
                    operation.name
                ));
            }
        }
        if operation.name.is_isolated() && !operation.regions.is_empty() {
            let live_ins = live_ins_where(ctx, op, |ctx, inner| {
                !(Some(inner) == verified && ctx.op(inner).name.is_isolated())
            });
            if !live_ins.is_empty() {
                return Err(format!(
                    "isolated op '{}' ({op}) references {} value(s) defined outside its region",
                    operation.name,
                    live_ins.len()
                ));
            }
        }
        Ok(())
    }

    fn value_visible_at(ctx: &Context, value: ValueId, user: OpId) -> bool {
        match ctx.value(value).def {
            ValueDef::OpResult { op: def_op, index } => {
                if !ctx.is_alive(def_op) || ctx.op(def_op).results.get(index) != Some(&value) {
                    return false;
                }
                dominates(ctx, def_op, user) && def_op != user
            }
            ValueDef::BlockArg { block, .. } => {
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

    fn dominates(ctx: &Context, a: OpId, b: OpId) -> bool {
        if a == b {
            return true;
        }
        let Some(a_block) = ctx.op(a).parent_block else {
            return false;
        };
        let mut cur = b;
        loop {
            match ctx.op(cur).parent_block {
                Some(bl) if bl == a_block => {
                    let pos_a = ctx.block(bl).position_of(a);
                    let pos_c = ctx.block(bl).position_of(cur);
                    return match (pos_a, pos_c) {
                        (Some(pa), Some(pc)) => pa < pc || cur == a,
                        _ => false,
                    };
                }
                _ => match ctx.parent_op(cur) {
                    Some(parent) => cur = parent,
                    None => return false,
                },
            }
        }
    }

    fn live_ins_where(
        ctx: &Context,
        op: OpId,
        mut descend: impl FnMut(&Context, OpId) -> bool,
    ) -> Vec<ValueId> {
        let mut seen = Vec::new();
        walk_ops_pruned(ctx, op, &mut |ctx, inner| {
            if inner == op {
                return true;
            }
            for &operand in &ctx.op(inner).operands {
                // An erased definition is a use error only.
                let defined = match ctx.value(operand).def {
                    ValueDef::OpResult { op: def_op, .. } => ctx.is_alive(def_op),
                    ValueDef::BlockArg { .. } => true,
                };
                if defined && ctx.is_live_in(op, operand) && !seen.contains(&operand) {
                    seen.push(operand);
                }
            }
            descend(ctx, inner)
        });
        seen
    }
}

/// One context and the verifications asked of it: label, root, the subtree
/// taken as verified.
struct Subject {
    ctx: Context,
    checks: Vec<(String, OpId, Option<OpId>)>,
}

impl Subject {
    fn of_module(ctx: Context, label: &str, module: OpId) -> Subject {
        Subject {
            ctx,
            checks: vec![(label.to_string(), module, None)],
        }
    }
}

fn outcome(result: hida_ir_core::IrResult<()>) -> String {
    match result {
        Ok(()) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

/// The new verifier's answer, after requiring the oracle's to be the same.
fn checked(ctx: &Context, root: OpId, verified: Option<OpId>, label: &str) -> String {
    let new = outcome(verify_except(ctx, root, verified));
    let old = outcome(oracle::verify_except(ctx, root, verified));
    assert_eq!(
        new, old,
        "{label}: the one-walk verifier and the oracle disagree"
    );
    new
}

fn module_and_func(ctx: &mut Context) -> (OpId, OpId) {
    let module = ctx.create_module("m");
    let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
    (module, func)
}

fn constant(ctx: &mut Context, at_end_of: OpId) -> ValueId {
    OpBuilder::at_end_of(ctx, at_end_of).create_constant_int(2, Type::i32())
}

fn def_op(ctx: &Context, value: ValueId) -> OpId {
    ctx.value(value).defining_op().expect("an op result")
}

/// An op with one empty-bodied region at the end of `parent`'s body.
fn with_body(
    ctx: &mut Context,
    parent: OpId,
    name: &str,
    operands: Vec<ValueId>,
) -> (OpId, BlockId) {
    let (op, body, _) =
        OpBuilder::at_end_of(ctx, parent).create_with_body(name, operands, vec![], vec![]);
    (op, body)
}

fn use_in(ctx: &mut Context, block: BlockId, operands: Vec<ValueId>) -> OpId {
    OpBuilder::at_block_end(ctx, block)
        .create("test.use", operands, vec![], vec![])
        .0
}

/// The hand-built cases.
fn built() -> Vec<Subject> {
    let mut subjects = Vec::new();

    // A use before its definition.
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let c = constant(&mut ctx, func);
    let (add, _) = OpBuilder::at_end_of(&mut ctx, func).create(
        "arith.addi",
        vec![c, c],
        vec![Type::i32()],
        vec![],
    );
    ctx.move_op_after(def_op(&ctx, c), add);
    subjects.push(Subject::of_module(ctx, "use before definition", module));

    // An erased definition.
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let c = constant(&mut ctx, func);
    OpBuilder::at_end_of(&mut ctx, func).create("arith.negi", vec![c], vec![Type::i32()], vec![]);
    ctx.erase_op(def_op(&ctx, c));
    subjects.push(Subject::of_module(ctx, "erased definition", module));

    // The op lives on without the used result; and one that now lists a
    // result at an index other than its own.
    for (label, keep_first_use) in [
        ("stale result index", true),
        ("stale result index and back-link", false),
    ] {
        let mut ctx = Context::new();
        let (module, func) = module_and_func(&mut ctx);
        let (pair, results) = OpBuilder::at_end_of(&mut ctx, func).create(
            "test.pair",
            vec![],
            vec![Type::i32(), Type::i64()],
            vec![],
        );
        let used = if keep_first_use {
            results[0]
        } else {
            results[1]
        };
        OpBuilder::at_end_of(&mut ctx, func).create(
            "arith.negi",
            vec![used],
            vec![Type::i32()],
            vec![],
        );
        ctx.op_mut(pair).results = IdList::from(&[results[1]][..]);
        subjects.push(Subject::of_module(ctx, label, module));
    }

    // A result another op defines.
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let c = constant(&mut ctx, func);
    let (other, _) =
        OpBuilder::at_end_of(&mut ctx, func).create("test.other", vec![], vec![], vec![]);
    ctx.op_mut(other).results = IdList::from(&[c][..]);
    subjects.push(Subject::of_module(ctx, "broken result back-link", module));

    // An op that uses its own result.
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let c = constant(&mut ctx, func);
    let (neg, r) = OpBuilder::at_end_of(&mut ctx, func).create(
        "arith.negi",
        vec![c],
        vec![Type::i32()],
        vec![],
    );
    ctx.set_operand(neg, 0, r[0]);
    subjects.push(Subject::of_module(ctx, "self-use", module));

    // Block arguments: of an enclosing block (visible), of a sibling block,
    // of the user's own body, and of the other block of a two-block region.
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![Type::i32()], vec![]);
    let arg = ctx.block(ctx.body_block(func)).args[0];
    let (_, loop_body) = with_body(&mut ctx, func, "test.loop", vec![]);
    use_in(&mut ctx, loop_body, vec![arg]);
    subjects.push(Subject::of_module(
        ctx.clone(),
        "block argument of an enclosing block",
        module,
    ));
    let iv = ctx.add_block_arg(loop_body, Type::Index);
    let (sibling, sibling_body) = with_body(&mut ctx, func, "test.loop", vec![]);
    use_in(&mut ctx, sibling_body, vec![iv]);
    subjects.push(Subject::of_module(
        ctx.clone(),
        "block argument of a sibling block",
        module,
    ));
    let own = ctx.add_block_arg(sibling_body, Type::Index);
    ctx.add_operand(sibling, own);
    subjects.push(Subject::of_module(
        ctx,
        "block argument of the user's own body",
        module,
    ));
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let (two, first) = with_body(&mut ctx, func, "test.cfg", vec![]);
    let region = ctx.op(two).regions[0];
    let second = ctx.create_block(region);
    let first_arg = ctx.add_block_arg(first, Type::Index);
    let (_, in_first) = OpBuilder::at_block_end(&mut ctx, first).create(
        "test.def",
        vec![],
        vec![Type::i32()],
        vec![],
    );
    use_in(&mut ctx, second, vec![in_first[0], first_arg]);
    subjects.push(Subject::of_module(
        ctx,
        "values of the other block of a region",
        module,
    ));

    // An enclosing op's result used inside its region: visible, and a live-in
    // of the op itself when that op is isolated.
    for (label, name) in [
        ("enclosing transparent op's result inside it", "test.wrap"),
        ("enclosing node's result inside it", "hida.node"),
    ] {
        let mut ctx = Context::new();
        let (module, func) = module_and_func(&mut ctx);
        let (_, body, results) = OpBuilder::at_end_of(&mut ctx, func).create_with_body(
            name,
            vec![],
            vec![Type::i32()],
            vec![],
        );
        use_in(&mut ctx, body, vec![results[0], results[0]]);
        subjects.push(Subject::of_module(ctx, label, module));
    }

    // A transparent task may capture an outer value.
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let c = constant(&mut ctx, func);
    let (_, task_body) = with_body(&mut ctx, func, "hida.task", vec![]);
    use_in(&mut ctx, task_body, vec![c]);
    subjects.push(Subject::of_module(ctx, "transparent task captures", module));

    // Captures into a node, a schedule and a function, counted by distinct value.
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let (_, schedule_body) = with_body(&mut ctx, func, "hida.schedule", vec![]);
    let e = OpBuilder::at_block_end(&mut ctx, schedule_body).create_constant_int(1, Type::i32());
    let (_, node_body, _) = OpBuilder::at_block_end(&mut ctx, schedule_body).create_with_body(
        "hida.node",
        vec![],
        vec![],
        vec![],
    );
    use_in(&mut ctx, node_body, vec![e, e]);
    use_in(&mut ctx, node_body, vec![e]);
    subjects.push(Subject::of_module(ctx, "capture into a node", module));

    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let c = constant(&mut ctx, func);
    let d = constant(&mut ctx, func);
    let (_, schedule_body) = with_body(&mut ctx, func, "hida.schedule", vec![]);
    use_in(&mut ctx, schedule_body, vec![c, d, c]);
    let (_, task_body, _) = OpBuilder::at_block_end(&mut ctx, schedule_body).create_with_body(
        "hida.task",
        vec![],
        vec![],
        vec![],
    );
    use_in(&mut ctx, task_body, vec![d]);
    subjects.push(Subject::of_module(ctx, "capture into a schedule", module));

    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let m = constant(&mut ctx, module);
    let n = constant(&mut ctx, module);
    let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
    let body = ctx.body_block(func);
    use_in(&mut ctx, body, vec![m, n, m]);
    let after = constant(&mut ctx, module);
    let late = OpBuilder::at_end_of(&mut ctx, module).create_func("g", vec![], vec![]);
    let late_body = ctx.body_block(late);
    use_in(&mut ctx, late_body, vec![after]);
    subjects.push(Subject {
        checks: vec![
            ("capture into a function".to_string(), module, None),
            (
                "capture into a function, root the function".to_string(),
                func,
                None,
            ),
        ],
        ctx,
    });

    // Nested isolated ops that both fail: the schedule and the node both
    // reference the function's value; the node also its schedule's.
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let c = constant(&mut ctx, func);
    let (schedule, schedule_body) = with_body(&mut ctx, func, "hida.schedule", vec![]);
    let local =
        OpBuilder::at_block_end(&mut ctx, schedule_body).create_constant_int(3, Type::i32());
    let (node, node_body, _) = OpBuilder::at_block_end(&mut ctx, schedule_body).create_with_body(
        "hida.node",
        vec![local],
        vec![],
        vec![],
    );
    use_in(&mut ctx, node_body, vec![c, local]);
    subjects.push(Subject {
        checks: vec![
            ("nested isolated ops both fail".to_string(), module, None),
            (
                "nested isolated ops, root the schedule".to_string(),
                schedule,
                None,
            ),
            ("nested isolated ops, root the node".to_string(), node, None),
        ],
        ctx,
    });

    // Several errors in one module, reported in pre-order with an isolated
    // op's message at its own position.
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let c = constant(&mut ctx, func);
    let early = constant(&mut ctx, func);
    let (first_user, _) = OpBuilder::at_end_of(&mut ctx, func).create(
        "arith.negi",
        vec![early],
        vec![Type::i32()],
        vec![],
    );
    ctx.move_op_after(def_op(&ctx, early), first_user);
    let (_, schedule_body) = with_body(&mut ctx, func, "hida.schedule", vec![]);
    let (_, node_body, _) = OpBuilder::at_block_end(&mut ctx, schedule_body).create_with_body(
        "hida.node",
        vec![],
        vec![],
        vec![],
    );
    let gone = OpBuilder::at_block_end(&mut ctx, node_body).create_constant_int(4, Type::i32());
    use_in(&mut ctx, node_body, vec![gone, c]);
    ctx.erase_op(def_op(&ctx, gone));
    let (last, r) = OpBuilder::at_end_of(&mut ctx, func).create(
        "arith.negi",
        vec![c],
        vec![Type::i32()],
        vec![],
    );
    ctx.set_operand(last, 0, r[0]);
    subjects.push(Subject::of_module(
        ctx,
        "several errors in pre-order",
        module,
    ));

    // `verify_except`: an isolated verified function is not looked into…
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let trusted = OpBuilder::at_end_of(&mut ctx, module).create_func("trusted", vec![], vec![]);
    let other = OpBuilder::at_end_of(&mut ctx, module).create_func("other", vec![], vec![]);
    let c = constant(&mut ctx, trusted);
    let (neg, _) = OpBuilder::at_end_of(&mut ctx, trusted).create(
        "arith.negi",
        vec![c],
        vec![Type::i32()],
        vec![],
    );
    ctx.move_op_after(def_op(&ctx, c), neg);
    subjects.push(Subject {
        checks: vec![
            ("verify_except, nothing verified".to_string(), module, None),
            (
                "verify_except, the broken function verified".to_string(),
                module,
                Some(trusted),
            ),
            (
                "verify_except, the other function verified".to_string(),
                module,
                Some(other),
            ),
            (
                "verify_except, the root verified".to_string(),
                module,
                Some(module),
            ),
        ],
        ctx,
    });

    // …nor is an isolated verified node, whose captures then do not count
    // for its schedule; a transparent verified task's uses still count for
    // the node around it.
    let mut ctx = Context::new();
    let (module, func) = module_and_func(&mut ctx);
    let c = constant(&mut ctx, func);
    let d = constant(&mut ctx, func);
    let (_, schedule_body) = with_body(&mut ctx, func, "hida.schedule", vec![]);
    let (captured, captured_body, _) = OpBuilder::at_block_end(&mut ctx, schedule_body)
        .create_with_body("hida.node", vec![], vec![], vec![]);
    use_in(&mut ctx, captured_body, vec![c]);
    let (outer, outer_body, _) = OpBuilder::at_block_end(&mut ctx, schedule_body).create_with_body(
        "hida.node",
        vec![],
        vec![],
        vec![],
    );
    let (task, task_body, _) = OpBuilder::at_block_end(&mut ctx, outer_body).create_with_body(
        "hida.task",
        vec![],
        vec![],
        vec![],
    );
    let inner = OpBuilder::at_block_end(&mut ctx, task_body).create_constant_int(5, Type::i32());
    let (inner_user, _) = OpBuilder::at_block_end(&mut ctx, task_body).create(
        "arith.negi",
        vec![inner, d],
        vec![Type::i32()],
        vec![],
    );
    ctx.move_op_after(def_op(&ctx, inner), inner_user);
    use_in(&mut ctx, outer_body, vec![inner]);
    subjects.push(Subject {
        checks: vec![
            (
                "verify_except around nodes, nothing verified".to_string(),
                module,
                None,
            ),
            (
                "verify_except, the capturing node verified".to_string(),
                module,
                Some(captured),
            ),
            (
                "verify_except, the transparent task verified".to_string(),
                module,
                Some(task),
            ),
            (
                "verify_except, the outer node verified".to_string(),
                module,
                Some(outer),
            ),
            (
                "verify_except, the function verified".to_string(),
                module,
                Some(func),
            ),
            (
                "verify_except, root the outer node, the task verified".to_string(),
                outer,
                Some(task),
            ),
        ],
        ctx,
    });

    // A root below the module: a function whose operands come from module
    // level — one defined before it, one after.
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let before = constant(&mut ctx, module);
    let module_body = ctx.body_block(module);
    let (func, _) = ctx.build_op(module_body, "func.func", vec![before], vec![], vec![]);
    let region = ctx.create_region(func);
    let body = ctx.create_block(region);
    let after = constant(&mut ctx, module);
    use_in(&mut ctx, body, vec![before]);
    subjects.push(Subject {
        checks: vec![
            (
                "function with a module-level operand".to_string(),
                module,
                None,
            ),
            (
                "function with a module-level operand, root the function".to_string(),
                func,
                None,
            ),
        ],
        ctx: ctx.clone(),
    });
    ctx.add_operand(func, after);
    subjects.push(Subject {
        checks: vec![(
            "function with a later module-level operand, root the function".to_string(),
            func,
            None,
        )],
        ctx,
    });

    subjects
}

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The thirteen `polybench-hir` subjects and every checked-in `.hir` file,
/// by name.
fn texts() -> Vec<(String, String)> {
    let mut texts = Vec::new();
    for kernel in PolybenchKernel::all() {
        let mut ctx = Context::new();
        let (module, _) =
            build_workload(&mut ctx, Workload::Polybench(kernel)).expect("kernel builds");
        texts.push((kernel.name().to_string(), print_op(&ctx, module)));
    }
    let mut files = Vec::new();
    hir_files(&repo().join("examples"), &mut files);
    hir_files(&repo().join("crates/hida-opt/tests/snapshots"), &mut files);
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read .hir");
        let name = path
            .strip_prefix(repo())
            .unwrap_or(&path)
            .display()
            .to_string();
        texts.push((name, text));
    }
    texts
}

/// Every `.hir` file below `dir`, recursively, in path order.
fn hir_files(dir: &Path, into: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            hir_files(&path, into);
        } else if path.extension().is_some_and(|ext| ext == "hir") {
            into.push(path);
        }
    }
}

/// A value definition in `.hir` text: its name, where the name starts, its
/// line, and the line that closes the region it is defined in.
struct Def<'a> {
    name: &'a str,
    at: usize,
    line: usize,
    closes: usize,
}

/// A line's operands: the names in the parentheses after its op name, with
/// where each starts.
fn operands(line: &str) -> Vec<(usize, &str)> {
    let Some(open) = line.find("\"(") else {
        return Vec::new();
    };
    let start = open + 2;
    let end = start + line[start..].find(')').unwrap_or(0);
    let mut out = Vec::new();
    let mut at = start;
    for name in line[start..end].split(", ") {
        if let Some(name) = name.strip_prefix('%') {
            out.push((at + 1, name));
        }
        at += name.len() + 2;
    }
    out
}

/// The definitions of `text` and each line's byte offset.
fn scan(text: &str) -> (Vec<Def<'_>>, Vec<usize>) {
    let mut defs = Vec::new();
    let mut starts = Vec::new();
    // Per open region: the definitions it holds so far.
    let mut open: Vec<Vec<usize>> = vec![Vec::new()];
    let mut offset = 0;
    for (line, raw) in text.split_inclusive('\n').enumerate() {
        starts.push(offset);
        let trimmed = raw.trim();
        let indent = offset + (raw.len() - raw.trim_start().len());
        let mut names: Vec<(usize, &str)> = Vec::new();
        if trimmed == "{" {
            open.push(Vec::new());
        } else if trimmed == "}" {
            for def in open.pop().unwrap_or_default() {
                let def: &mut Def = &mut defs[def];
                def.closes = line;
            }
        } else if let Some(args) = trimmed.strip_prefix("^bb(") {
            let mut at = indent + 4;
            for arg in args.split(", ") {
                if let Some(name) = arg.strip_prefix('%') {
                    let end = name.find(':').unwrap_or(name.len());
                    names.push((at + 1, &name[..end]));
                }
                at += arg.len() + 2;
            }
        } else if trimmed.starts_with('%') {
            let list = &trimmed[..trimmed.find(" = ").unwrap_or(0)];
            let mut at = indent;
            for name in list.split(", ") {
                names.push((at + 1, &name[1..]));
                at += name.len() + 2;
            }
        }
        for (at, name) in names {
            open.last_mut().expect("a scope").push(defs.len());
            defs.push(Def {
                name,
                at,
                line,
                closes: usize::MAX,
            });
        }
        offset += raw.len();
    }
    (defs, starts)
}

/// The verifying mutations of `text`, labelled.
fn mutations(text: &str) -> Vec<(String, String)> {
    let (defs, starts) = scan(text);
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut out = Vec::new();

    // The first operand of a use line replaced by the latest definition of a
    // region that closed before it: a value of a sibling scope.
    let sibling = |line: usize| {
        defs.iter()
            .filter(|d| d.closes < line)
            .max_by_key(|d| (d.closes, d.line))
    };
    let users: Vec<usize> = (0..lines.len())
        .filter(|&l| !operands(lines[l]).is_empty() && sibling(l).is_some())
        .collect();
    if !users.is_empty() {
        let mut picks = vec![0, users.len() / 2, users.len() - 1];
        picks.dedup();
        for k in picks {
            let line = users[k];
            let def = sibling(line).expect("a closed definition");
            let (at, name) = operands(lines[line])[0];
            let at = starts[line] + at;
            let mut mutated = text.to_string();
            mutated.replace_range(at..at + name.len(), def.name);
            out.push((format!("line {} uses %{}", line + 1, def.name), mutated));
        }
    }

    // Two definitions' names swapped: `x`, defined first and not used up to
    // `y`'s definition, and `y`, defined in a region that closes before a
    // later use of `x`. Uses of `x` then read `y`'s old value.
    let used_on = |name: &str, line: usize| operands(lines[line]).iter().any(|&(_, n)| n == name);
    let swap = defs.iter().enumerate().find_map(|(i, x)| {
        defs[i + 1..]
            .iter()
            .find(|y| {
                y.closes != usize::MAX
                    && !(x.line..=y.line).any(|l| used_on(x.name, l))
                    && (y.closes..lines.len()).any(|l| used_on(x.name, l))
            })
            .map(|y| (x, y))
    });
    if let Some((x, y)) = swap {
        let mut mutated = text.to_string();
        mutated.replace_range(y.at..y.at + y.name.len(), x.name);
        mutated.replace_range(x.at..x.at + x.name.len(), y.name);
        out.push((format!("swap %{} %{}", x.name, y.name), mutated));
    }
    out
}

/// Every case's outcome, one line each.
fn outcomes() -> String {
    let mut lines = String::new();
    for subject in built() {
        for (label, root, verified) in &subject.checks {
            let answer = checked(&subject.ctx, *root, *verified, label);
            lines.push_str(&format!("{label}: {answer}\n"));
        }
    }
    for (name, text) in texts() {
        let (ctx, module) = parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let answer = checked(&ctx, module, None, &name);
        lines.push_str(&format!("{name}: {answer}\n"));
        for (label, mutated) in mutations(&text) {
            let label = format!("{name} {label}");
            let answer = match parse_module(&mutated) {
                Ok((ctx, module)) => checked(&ctx, module, None, &label),
                Err(e) => format!("does not parse: {e}"),
            };
            lines.push_str(&format!("{label}: {answer}\n"));
        }
    }
    lines
}

#[test]
fn verifier_answers_as_pinned() {
    let actual = outcomes();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/verify_errors.txt");
    let pinned = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != pinned {
        let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("verify_errors.txt");
        std::fs::write(&written, &actual).expect("write the actual outcomes");
        let first = actual.lines().zip(pinned.lines()).find(|(a, p)| a != p);
        panic!(
            "verifier outcomes differ from {}; all of them are in {}\nfirst difference: {first:?}",
            path.display(),
            written.display()
        );
    }
}

/// Rewrites one random operand of a random op below `module` to a random
/// value of the arena, moves the op in front of another outside its own
/// subtree, or erases it.
fn mutate(ctx: &mut Context, module: OpId, rng: &mut FuzzRng) {
    let ops: Vec<OpId> = collect_preorder(ctx, module)
        .into_iter()
        .filter(|&op| op != module)
        .collect();
    if ops.is_empty() {
        return;
    }
    let op = *rng.pick(&ops);
    let operands = ctx.op(op).operands.len();
    match rng.range(0, 9) {
        0 => ctx.erase_op(op),
        1..=3 => {
            let before = *rng.pick(&ops);
            if !ctx.is_ancestor(op, before) {
                ctx.move_op_before(op, before);
            }
        }
        _ if operands > 0 => {
            let index = rng.range(0, operands as u64 - 1) as usize;
            let values = ctx.arena_sizes().3;
            let value = ValueId::from_index(rng.range(0, values as u64 - 1) as usize);
            ctx.set_operand(op, index, value);
        }
        _ => {}
    }
}

/// The one-walk verifier and the oracle agree on every root and verified
/// subtree of `ctx` the random picks name.
fn agree(ctx: &Context, module: OpId, rng: &mut FuzzRng, label: &str) {
    let ops = collect_preorder(ctx, module);
    checked(ctx, module, None, label);
    for _ in 0..4 {
        let root = *rng.pick(&ops);
        let verified = rng.chance(50).then(|| *rng.pick(&ops));
        checked(ctx, root, verified, label);
        checked(ctx, module, verified, label);
    }
}

#[test]
fn one_walk_agrees_with_the_quadratic_oracle() {
    let mut rng = FuzzRng::new(0x5EED_F00D);
    let mut designs: Vec<(String, Context, OpId)> = Vec::new();
    for seed in 0..24 {
        let mut ctx = Context::new();
        let w = gen_workload(&mut ctx, &mut FuzzRng::new(seed));
        designs.push((format!("fuzz seed {seed}"), ctx, w.module));
    }
    for model in Model::all() {
        let lowered = Compiler::new(HidaOptions::dnn())
            .lower(Workload::Model(model))
            .unwrap_or_else(|_| panic!("{model:?} lowers"));
        designs.push((format!("{model:?} lowered"), lowered.ctx, lowered.module));
    }
    for kernel in PolybenchKernel::all() {
        let lowered = Compiler::new(HidaOptions::default())
            .lower(Workload::Polybench(kernel))
            .unwrap_or_else(|_| panic!("{} lowers", kernel.name()));
        designs.push((
            format!("{} lowered", kernel.name()),
            lowered.ctx,
            lowered.module,
        ));
    }
    for (label, mut ctx, module) in designs {
        assert_eq!(checked(&ctx, module, None, &label), "ok", "{label}");
        agree(&ctx, module, &mut rng, &label);
        for step in 0..12 {
            mutate(&mut ctx, module, &mut rng);
            agree(&ctx, module, &mut rng, &format!("{label}, rewrite {step}"));
        }
    }
}
